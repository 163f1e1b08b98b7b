/**
 * @file
 * Discrete-event multi-request serving simulator over the engines.
 *
 * The machine being modeled is the paper's deployment: one shared NPU runs
 * prefill chunk-by-chunk while the CPU (or GPU) decodes already-prefilled
 * requests as a continuously batched stream. The queue order
 * (src/serving/policy.h) picks which request's next chunk the NPU runs;
 * decode proceeds concurrently but is slowed by the float-stage share the
 * in-flight chunk holds (an incoming chunk preempting decode bandwidth).
 *
 * Two load modes: open-loop Poisson arrivals at an offered rate, and a
 * closed loop of `num_clients` clients with think time. Arrivals draw from
 * a Table 5 dataset mixture (src/workloads/arrivals.h).
 *
 * Every executed quantum (prefill chunk, decode step) is exported as a
 * SimTask + TaskRecord trace so the sim layer's schedule-validity checks
 * (tests/support/timeline_asserts.h) apply to serving schedules too.
 */
#ifndef LLMNPU_SERVING_SIMULATOR_H
#define LLMNPU_SERVING_SIMULATOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "src/model/placement.h"
#include "src/serving/cost_model.h"
#include "src/serving/faults.h"
#include "src/serving/metrics.h"
#include "src/serving/policy.h"
#include "src/serving/request.h"
#include "src/sim/timeline.h"
#include "src/workloads/arrivals.h"

namespace llmnpu {

/** Serving simulation parameters. */
struct ServingOptions {
    /**
     * The control plane (src/serving/policy.h). A null `queue_policy`
     * orders the prefill queue FCFS. A null `placement_policy` places
     * every decode member where its engine profile says; a
     * PredictedPlacement instead decides per member at every step
     * boundary with the live degradation signals, and the executed
     * placements are recorded on ReplayStep::placements for bitwise
     * replay. Either way a step is priced by where its members run (see
     * max_decode_batch), never by the profile's own placement. A member
     * the circuit breaker failed over decodes on the CPU in both modes.
     * The whole-demand KV check always gates admission;
     * `predicted_slo_admission` adds PredictedSloAdmits. A run with the
     * defaults is bit-identical to the pre-control-plane simulator.
     */
    std::shared_ptr<const QueuePolicy> queue_policy;
    std::shared_ptr<const PredictedPlacement> placement_policy;
    bool predicted_slo_admission = false;

    /** false: open-loop Poisson at rate_rps; true: closed loop of
     *  num_clients clients with think_time_ms between requests. */
    bool closed_loop = false;
    double rate_rps = 1.0;
    int num_clients = 4;
    double think_time_ms = 0.0;

    /** Total requests admitted over the run. */
    int num_requests = 100;
    uint64_t seed = 42;

    /** Deadline = arrival + slo_factor * isolated single-request latency
     *  (ServingCostModel::IsolatedE2eMs, per request shape, so short
     *  UI-automation requests carry tight absolute deadlines). <= 0
     *  disables SLOs (deadline = +inf). */
    double slo_factor = 3.0;

    /** Continuous-batching decode: max requests per decode step. A step's
     *  CPU members cost CpuDecodeStepMs at their largest
     *  cpu_decode_token_ms; its NPU members cost the calibrated oracle's
     *  ServingCostModel::StepMs at their deepest context (scaled by the
     *  thermal service scale); a step holding both groups lasts as long
     *  as the slower one, since they run on different processors. */
    int max_decode_batch = 8;

    /**
     * KV page pool budget in pages of kKvPageSize positions, enforced by
     * the run's KvLedger (the numeric KvPagePool has no budget); 0 =
     * unbounded, the legacy behavior. A bounded pool turns KV memory into
     * a scheduled resource:
     *  - arrival: a request whose whole demand (prompt + output pages)
     *    exceeds the budget is rejected outright — it could never run;
     *  - first chunk dispatch: the prompt's pages are reserved, and a
     *    request that does not fit right now stays queued (backpressure,
     *    not rejection);
     *  - decode: page growth past the reservation evicts the youngest
     *    decode-pool member (pages released, prefill restarted), the
     *    paper's preemption-by-recompute under memory pressure.
     */
    int64_t kv_pool_pages = 0;

    /**
     * Shared-system-prompt scenario (src/workloads/arrivals.h): one
     * page-aligned prefix carried by `share_fraction` of arrivals. Its KV
     * is a shared-cache asset, charged to the pool *once* across all
     * referencing requests (src/serving/kv_ledger.h); sharers prefill
     * (and are cost-priced on) the private suffix only; eviction picks a
     * victim whose removal would drop the prefix only when its tier of
     * the victim order has no other. Disabled (prefix_len == 0) is
     * bit-identical to the legacy simulator.
     */
    SharedPrefixOptions shared_prefix;

    /** Fault-injection scenario and its defenses (src/serving/faults.h).
     *  Default-constructed = fully disabled: the simulator is bit-identical
     *  to a build without the fault plane. */
    FaultOptions faults;
    /** Shed queued requests whose SLO deadline passed before they ever
     *  dispatched: they count as shed (an SLO miss, never goodput) and
     *  their reserved KV pages are released at the deadline. Off by
     *  default so legacy runs are unchanged. */
    bool shed_expired_queued = false;

    /** Exits with a fatal user error on invalid parameters (bad pool
     *  sizes, non-positive rates, out-of-range fault probabilities, ...)
     *  and on options the run would silently ignore (a pool shrink on an
     *  unbounded pool, brownout shedding without the thermal model, SLO
     *  admission or shedding without SLO deadlines). Called at simulator
     *  construction so a bad sweep fails loudly at the first run, not
     *  with a corrupted report. */
    void Validate() const;
};

/**
 * One executed quantum of a run as the numeric plane sees it: which
 * requests ran together and, for prefill, which chunk of how many. The
 * sequence of ReplaySteps is the serving→numeric bridge — replaying it
 * through Transformer::ForwardBatch (src/serving/replay.h) executes the
 * exact batch composition the scheduler produced on real tensors.
 */
struct ReplayStep {
    /** true: one request's prefill chunk on the NPU; false: a continuously
     *  batched decode step (every member emits one token). */
    bool is_prefill = false;
    /** Batch members in decode-pool order (exactly one id for prefill). */
    std::vector<int> request_ids;
    /** Prefill only: chunk index within the request's chunk sequence. */
    int chunk_index = -1;
    /** Prefill only: total chunks of the request. */
    int num_chunks = 0;
    /** Decode only: executed placement per member, parallel to
     *  request_ids. Filled by fault-plane runs (the circuit breaker can
     *  fail a request's decode NPU->CPU mid-stream) and by
     *  PredictedPlacement runs (mid-run CPU/NPU flips at step
     *  boundaries); the replay bridge prefers these over its one
     *  ReplayPlacement::decode so both kinds of schedule replay bitwise.
     *  Empty = every member on ReplayPlacement::decode. */
    std::vector<DecodePlacement> placements;
};

/** Raw outcome of a serving run. */
struct ServingResult {
    /** One record per admitted request, indexed by request id. */
    std::vector<RequestRecord> records;
    double makespan_ms = 0.0;
    double npu_busy_ms = 0.0;
    double decode_busy_ms = 0.0;
    /** Decode steps slowed by an incoming prefill chunk. */
    int preemptions = 0;
    /** Requests refused at arrival by KV admission control. */
    int rejected = 0;
    /** KV-page eviction preemptions across the run. */
    int evictions = 0;
    /** Pool budget the run was configured with (0 = unbounded). */
    int64_t kv_pool_pages = 0;
    /** Peak pages in use over the run. */
    int64_t kv_pages_peak = 0;
    /** Time-mean pages in use over the makespan. */
    double kv_pages_mean = 0.0;

    /** Requests shed by the fault plane after admission (retry budget
     *  exhausted, brownout, post-shrink infeasibility, queue expiry). */
    int shed = 0;
    /** Injected faults across the run (every faulted attempt counted). */
    int faults = 0;
    /** Retry dispatches after faults. */
    int retries = 0;
    /** Requests whose decode failed over NPU->CPU (circuit breaker). */
    int failovers = 0;
    /** NPU occupancy of faulted and cancelled attempts; discarded work,
     *  kept out of npu_busy_ms so utilization stays honest. */
    double npu_faulted_ms = 0.0;
    /** Fraction of the makespan the NPU spent thermally throttled. */
    double npu_throttled_frac = 0.0;
    /** Peak die temperature over the run (start temperature when the
     *  thermal model is disabled). */
    double peak_temp_c = 0.0;
    /** Live pool budget at the end of the run (== kv_pool_pages unless a
     *  mid-run shrink fired). */
    int64_t kv_pool_pages_live = 0;
    /** Peak pages in use after a mid-run pool shrink completed (0 when no
     *  shrink fired). Invariant: never exceeds kv_pool_pages_live. */
    int64_t kv_pages_peak_post_shrink = 0;

    /** Pages of the shared system prefix (0 = scenario disabled). */
    int64_t shared_prefix_pages = 0;
    /** Admitted requests carrying the shared prefix. */
    int shared_requests = 0;
    /** Times the prefix went from unreferenced to resident (pages charged
     *  to the pool). > 1 means the prefix was dropped and rebuilt. */
    int shared_prefix_materializations = 0;
    /** Times the last referencer released the prefix (pages freed). */
    int shared_prefix_drops = 0;
    /** Peak simultaneous referencers of the shared prefix. */
    int shared_prefix_refs_peak = 0;

    /** Executed quanta (chunks on the NPU, decode steps on the CPU) with
     *  their realized start/end times, for schedule-validity checks.
     *  Prefill tasks carry the chunk index in SimTask::chunk; which
     *  request (or decode step) a task belongs to is in its label. */
    std::vector<SimTask> trace_tasks;
    TimelineResult trace;

    /** Per-step batch composition in execution order (parallel to
     *  trace_tasks), for numeric-plane replay. */
    std::vector<ReplayStep> replay_steps;

    ServingReport Report() const;
};

/**
 * Events a run may handle per request before Run() declares it a runaway
 * (a livelock, such as a request evicting itself forever) and exits with
 * a fatal error. The most any test, bench or benchmark sweep reaches is
 * about 164 events per request; each decoded token costs at least one
 * event, so a request of more than a few thousand output tokens would
 * also trip the cap (the paper's datasets end at 57).
 */
constexpr int64_t kMaxEventsPerRequest = 4096;

/** The serving simulator. Reusable across Run() calls; share one
 *  ServingCostModel across policy/load sweeps to amortize decomposition. */
class ServingSimulator
{
  public:
    ServingSimulator(ServingCostModel& costs,
                     std::vector<DatasetProfile> mix,
                     ServingOptions options);

    /** Runs the full simulation until every admitted request completes;
     *  past kMaxEventsPerRequest x num_requests events it exits with a
     *  fatal error naming the run's state. */
    ServingResult Run();

    const ServingOptions& options() const { return options_; }

  private:
    ServingCostModel& costs_;
    std::vector<DatasetProfile> mix_;
    ServingOptions options_;
};

}  // namespace llmnpu

#endif  // LLMNPU_SERVING_SIMULATOR_H
