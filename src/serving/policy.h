/**
 * @file
 * The serving control plane: the three decisions the simulator
 * (src/serving/simulator.cc) makes at its decision points, as direct calls.
 *
 *  - QueuePolicy: which queued request's next prefill chunk runs (the
 *    simulator re-picks at chunk granularity, so every order preempts
 *    long prefills between chunks — never mid-chunk: NPU graph
 *    executions are uninterruptible). FCFS when
 *    ServingOptions::queue_policy is null.
 *  - PredictedPlacement: the one dynamic decode placement. It prices both
 *    sides through the calibrated ServingCostModel and flips members between
 *    CPU and NPU at step boundaries; the simulator records the outcome on
 *    ReplayStep::placements so dynamic schedules still replay bitwise.
 *    With ServingOptions::placement_policy null every member follows its
 *    engine profile. In both modes the simulator first applies the
 *    breaker rule: a failed-over member decodes on the CPU.
 *  - PredictedSloAdmits: the SLO gate ServingOptions::
 *    predicted_slo_admission adds to the whole-demand KV check the
 *    simulator always runs. It rejects arrivals whose predicted finish
 *    (queue backlog + isolated service, inflated by live degradation
 *    signals) already misses their deadline.
 *
 * Every decision is a pure function of its arguments: the simulator's
 * schedules replay from recorded decisions.
 */
#ifndef LLMNPU_SERVING_POLICY_H
#define LLMNPU_SERVING_POLICY_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/model/placement.h"

namespace llmnpu {

class ServingCostModel;

/** The prefill-queue orders, named for sweeps and bench rows. */
enum class SchedPolicy {
    /** First-come-first-served by arrival time. */
    kFcfs,
    /** Shortest remaining prefill work first (SJF at chunk granularity). */
    kShortestPromptFirst,
    /** SLO-aware earliest-deadline-first: feasible requests by deadline;
     *  requests past their deadline yield to ones that can still meet it. */
    kSloEdf,
};

/** "fcfs" / "spf" / "slo-edf" (bench rows and test diagnostics). */
std::string PolicyName(SchedPolicy policy);

/** What the queue order sees about one queued request. */
struct QueueEntry {
    int request_id = 0;
    double arrival_ms = 0.0;
    double deadline_ms = 1e300;
    /** Prefill service time still owed (sum of remaining chunk quanta). */
    double remaining_prefill_ms = 0.0;
    /** Total service still owed: remaining prefill plus the full decode
     *  at the price deadlines are set from (IsolatedDecodeMs); deadlines
     *  are end-to-end, so feasibility must price decode too. */
    double remaining_total_ms = 0.0;
};

/** Orders the prefill queue by one SchedPolicy; ties break toward the
 *  lowest request id. */
class QueuePolicy
{
  public:
    explicit QueuePolicy(SchedPolicy policy) : policy_(policy) {}
    /** Index of the entry to run next. `now_ms` lets deadline orders
     *  tell feasible requests from already-expired ones. Requires a
     *  non-empty queue; deterministic. */
    size_t Pick(const std::vector<QueueEntry>& queue, double now_ms) const;

  private:
    SchedPolicy policy_;
};

/** The QueuePolicy for ServingOptions::queue_policy. */
std::shared_ptr<const QueuePolicy> MakeQueuePolicy(SchedPolicy policy);

/** Live degradation + load signals sampled by the simulator at decision
 *  time: a throttled or flaky NPU sheds load through placement and
 *  admission before requests burn retries. Neutral when injection is
 *  off. */
struct PolicySignals {
    double now_ms = 0.0;
    /** Thermal service-time multiplier for NPU-placed work (1.0 = cool,
     *  ramping to ThermalOptions::max_slowdown when throttled). */
    double npu_service_scale = 1.0;
    /** Injected faults per NPU dispatch attempt so far. */
    double npu_fault_rate = 0.0;
    /** Decode streams resident in the continuous batch. */
    int decode_pool_depth = 0;
};

/** What the predictor sees about one decode-pool member's next step. */
struct PlacementQuery {
    /** Current context length (prompt + tokens already emitted). */
    int64_t context_len = 0;
    /** Decode-batch depth the next step would run at. */
    int batch_depth = 1;
    PolicySignals signals;
};

/** Predicted-cost dynamic placement: compares the calibrated step price
 *  of both placements at the current batch depth and context, inflating
 *  the NPU side by the thermal service scale and live fault rate, and
 *  runs the step where it is predicted cheaper. Reproduces the
 *  CPU-wins-to-B~8 / NPU-from-B~16 crossover, and backs off a degraded
 *  NPU before requests burn retries. */
class PredictedPlacement
{
  public:
    /** `costs` must outlive the predictor. */
    explicit PredictedPlacement(const ServingCostModel& costs)
        : costs_(&costs)
    {}
    DecodePlacement Place(const PlacementQuery& query) const;

  private:
    const ServingCostModel* costs_;
};

/** What the SLO gate sees about one arrival. */
struct AdmissionQuery {
    /** The arrival's end-to-end deadline; 1e300 = no SLO. */
    double deadline_ms = 1e300;
    /** Single-request end-to-end service time under the cost profile. */
    double isolated_e2e_ms = 0.0;
    /** Prefill service queued ahead of this arrival (remaining quanta of
     *  every queued request plus the chunk in flight). */
    double queued_prefill_ms = 0.0;
    PolicySignals signals;
};

/** SLO-feasibility admission: now + queued prefill backlog + isolated
 *  service, inflated by the live degradation signals (thermal scale,
 *  fault rate) and by decode congestion (each resident stream adds one
 *  kDecodeBatchMarginal share to the step the arrival would join), must
 *  make the deadline, or the request is turned away at the door instead
 *  of shedding after it burned accelerator time. */
bool PredictedSloAdmits(const AdmissionQuery& query);

}  // namespace llmnpu

#endif  // LLMNPU_SERVING_POLICY_H
