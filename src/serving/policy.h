/**
 * @file
 * The pluggable serving control plane: queue ordering, per-step decode
 * placement, and admission control as three policy interfaces the
 * simulator consults at its decision points.
 *
 *  - QueuePolicy: which queued request's next prefill chunk runs (the
 *    simulator re-picks at chunk granularity, so every policy preempts
 *    long prefills between chunks — never mid-chunk: NPU graph
 *    executions are uninterruptible).
 *  - PlacementPolicy: where each decode-pool member's next step runs.
 *    Dynamic policies (PredictedPlacement) price both sides through a
 *    predict::StepCostOracle and flip requests between CPU and NPU at
 *    step boundaries; the simulator records the outcome on
 *    ReplayStep::placements so dynamic schedules still replay bitwise.
 *  - AdmissionPolicy: whether an arrival is accepted at all. The legacy
 *    whole-demand KV check is ThresholdAdmission; PredictedSloAdmission
 *    additionally rejects arrivals whose predicted finish (queue backlog
 *    + isolated service, inflated by live degradation signals) already
 *    misses their deadline.
 *
 * Every policy decision must be a pure function of its query — the
 * simulator replays decisions from recorded schedules, and the predict
 * test suite's conformance cases pin determinism per policy.
 */
#ifndef LLMNPU_SERVING_POLICY_H
#define LLMNPU_SERVING_POLICY_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/engines/engine.h"
#include "src/predict/step_cost.h"
#include "src/serving/request.h"

namespace llmnpu {

/** The built-in prefill-queue orders, named for sweeps and bench rows;
 *  MakeQueuePolicy() turns one into the QueuePolicy the simulator takes
 *  through ServingOptions::queue_policy. */
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

/** What a policy sees about one queued request. */
struct QueueEntry {
    int request_id = 0;
    double arrival_ms = 0.0;
    double deadline_ms = 1e300;
    /** Prefill service time still owed (sum of remaining chunk quanta). */
    double remaining_prefill_ms = 0.0;
    /** Total service still owed: remaining prefill plus the full decode
     *  (deadlines are end-to-end, so feasibility must price decode too). */
    double remaining_total_ms = 0.0;
};

// ---------------------------------------------------------------- signals

/** Live degradation + load signals sampled by the simulator at decision
 *  time. This is how the PR-8 fault plane feeds the control plane: a
 *  throttled or flaky NPU sheds load through placement/admission before
 *  requests burn retries. All zeros/defaults when injection is off. */
struct PolicySignals {
    double now_ms = 0.0;
    /** Thermal service-time multiplier for NPU-placed work (1.0 = cool,
     *  ramping to ThermalOptions::max_slowdown when throttled). */
    double npu_service_scale = 1.0;
    /** Die at/above the throttle threshold (brownout regime). */
    bool npu_throttled = false;
    double npu_temp_c = 0.0;
    /** Injected faults per NPU dispatch attempt so far. */
    double npu_fault_rate = 0.0;
    /** Cumulative virtual time lost to NPU faults + retry backoff. */
    double npu_faulted_ms = 0.0;
    /** Decode streams resident in the continuous batch. */
    int decode_pool_depth = 0;
    /** Free pages in the KV pool (0 when the pool is unbounded). */
    int64_t kv_free_pages = 0;
};

// ----------------------------------------------------------- queue policy

/** Orders the prefill queue. */
class QueuePolicy
{
  public:
    virtual ~QueuePolicy() = default;
    virtual std::string Name() const = 0;
    /** Index of the entry to run next. `now_ms` lets deadline policies
     *  tell feasible requests from already-expired ones. Requires a
     *  non-empty queue; deterministic. */
    virtual size_t Pick(const std::vector<QueueEntry>& queue,
                        double now_ms) const = 0;
};

/** The built-in orders as one named implementation; ties break toward
 *  the lowest request id. */
class SchedQueuePolicy : public QueuePolicy
{
  public:
    explicit SchedQueuePolicy(SchedPolicy policy) : policy_(policy) {}
    std::string Name() const override { return PolicyName(policy_); }
    size_t Pick(const std::vector<QueueEntry>& queue,
                double now_ms) const override;

  private:
    SchedPolicy policy_;
};

// ------------------------------------------------------- placement policy

/** Everything a placement policy sees about one decode-pool member. */
struct PlacementQuery {
    /** The deciding member's request + failover/retry state. */
    const RequestRecord* record = nullptr;
    /** The engine's cost decomposition of that request. */
    const ServingCostProfile* profile = nullptr;
    /** Current context length (prompt + tokens already emitted). */
    int64_t context_len = 0;
    /** Decode-batch depth the next step would run at. */
    int batch_depth = 1;
    /** Serving-layer default batch marginal for engines with no opinion
     *  (ServingOptions::decode_batch_marginal). */
    double default_batch_marginal = 0.15;
    PolicySignals signals;
};

/** Decides where a member's next decode step runs. */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;
    virtual std::string Name() const = 0;
    /** Must be a pure function of `query`: the simulator records the
     *  outcome per member on ReplayStep::placements, and bitwise replay
     *  depends on the decision being reproducible. */
    virtual DecodePlacement Place(const PlacementQuery& query) const = 0;
    /** Dynamic policies may disagree with the engine profile mid-run; the
     *  simulator then prices off-profile steps through the calibrated
     *  StepCostOracle and always records per-member placements. Static
     *  policies keep the legacy pricing path bit-identical. */
    virtual bool IsDynamic() const { return false; }
};

/** The legacy behavior as a named implementation: follow the engine
 *  profile's decode_placement, dropping to the CPU fallback path after a
 *  circuit-breaker failover (failover is permanent, PR 8). */
class StaticPlacement : public PlacementPolicy
{
  public:
    explicit StaticPlacement(std::string name = "static")
        : name_(std::move(name))
    {}
    std::string Name() const override { return name_; }
    DecodePlacement Place(const PlacementQuery& query) const override;

  private:
    std::string name_;
};

/** Predicted-cost dynamic placement: compares the oracle's per-token step
 *  price of both placements at the current batch depth and context,
 *  inflating the NPU side by the thermal service scale and live fault
 *  rate, and runs the step where it is predicted cheaper. Reproduces the
 *  CPU-wins-to-B~8 / NPU-from-B~16 crossover from data, and backs off a
 *  degraded NPU before requests burn retries. */
class PredictedPlacement : public PlacementPolicy
{
  public:
    /** `oracle` must outlive the policy (calibrated ServingCostModel or a
     *  fitted predict::PredictedStepCosts). */
    explicit PredictedPlacement(const predict::StepCostOracle& oracle,
                                std::string name = "predicted")
        : oracle_(&oracle), name_(std::move(name))
    {}
    std::string Name() const override { return name_; }
    DecodePlacement Place(const PlacementQuery& query) const override;
    bool IsDynamic() const override { return true; }

  private:
    const predict::StepCostOracle* oracle_;
    std::string name_;
};

// ------------------------------------------------------- admission policy

/** Everything an admission policy sees about one arrival. */
struct AdmissionQuery {
    const ServingRequest* request = nullptr;
    /** Single-request end-to-end service time under the cost profile. */
    double isolated_e2e_ms = 0.0;
    /** Prefill service queued ahead of this arrival (remaining quanta of
     *  every queued request plus the chunk in flight). */
    double queued_prefill_ms = 0.0;
    int queue_depth = 0;
    /** Whole-demand KV footprint of the request, in pages. */
    int64_t kv_demand_pages = 0;
    /** Live KV pool budget in pages; 0 = unbounded. */
    int64_t kv_live_budget = 0;
    /** Serving-layer marginal cost per extra batched decode stream
     *  (ServingOptions::decode_batch_marginal) — how predictive policies
     *  price decode congestion from signals.decode_pool_depth. */
    double decode_batch_marginal = 0.15;
    PolicySignals signals;
};

/** Accepts or rejects an arrival. A rejected request is never dispatched
 *  and counts as rejected in the serving report. */
class AdmissionPolicy
{
  public:
    virtual ~AdmissionPolicy() = default;
    virtual std::string Name() const = 0;
    /** Pure function of `query`. No conforming policy may admit a
     *  whole-demand misfit (kv_demand_pages > kv_live_budget > 0): such a
     *  request can never hold its pages simultaneously and would deadlock
     *  or thrash eviction. */
    virtual bool Admit(const AdmissionQuery& query) const = 0;
};

/** The legacy behavior as a named implementation: reject only
 *  whole-demand KV misfits. */
class ThresholdAdmission : public AdmissionPolicy
{
  public:
    std::string Name() const override { return "threshold"; }
    bool Admit(const AdmissionQuery& query) const override;
};

/** SLO-feasibility admission: the threshold check plus a predicted-finish
 *  gate — now + queued prefill backlog + isolated service, inflated by
 *  the live degradation signals (thermal scale, fault rate) and by decode
 *  congestion (each resident stream adds one batch-marginal share to the
 *  step the arrival would join), must make the deadline, or the request
 *  is turned away at the door instead of shedding after it burned
 *  accelerator time. */
class PredictedSloAdmission : public AdmissionPolicy
{
  public:
    std::string Name() const override { return "predicted-slo"; }
    bool Admit(const AdmissionQuery& query) const override;
};

// --------------------------------------------------------------- registry

/** One registered placement policy: how sweeps should instantiate it.
 *  bench_serving derives its placement sweep from this list, so a new
 *  policy appears in the sweep by registering here. */
struct PlacementPolicySpec {
    std::string name;
    /** Engine decode placement to profile the run at. Dynamic policies
     *  start from a CPU-placed profile and flip members online. */
    DecodePlacement profile_placement = DecodePlacement::kCpuFloat;
    /** Whether MakePlacementPolicy requires a StepCostOracle. */
    bool dynamic = false;
};

/** All registered placement policies, stable order. */
const std::vector<PlacementPolicySpec>& PlacementPolicyRegistry();

/** Instantiates a registered placement policy by name; dynamic policies
 *  require `oracle` (fatal when missing, as is an unknown name). */
std::shared_ptr<PlacementPolicy> MakePlacementPolicy(
    const std::string& name,
    const predict::StepCostOracle* oracle = nullptr);

/** All registered admission policies, stable order. */
const std::vector<std::string>& AdmissionPolicyRegistry();

/** Instantiates a registered admission policy by name (fatal when
 *  unknown). */
std::shared_ptr<AdmissionPolicy> MakeAdmissionPolicy(
    const std::string& name);

/** The QueuePolicy form of a SchedPolicy value. */
std::shared_ptr<QueuePolicy> MakeQueuePolicy(SchedPolicy policy);

}  // namespace llmnpu

#endif  // LLMNPU_SERVING_POLICY_H
