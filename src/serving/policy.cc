#include "src/serving/policy.h"

#include <algorithm>

#include "src/serving/cost_model.h"
#include "src/util/check.h"

namespace llmnpu {

std::string
PolicyName(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::kFcfs: return "fcfs";
      case SchedPolicy::kShortestPromptFirst: return "spf";
      case SchedPolicy::kSloEdf: return "slo-edf";
    }
    return "?";
}

namespace {

/** Strict-weak-order comparison of two entries under a policy. */
bool
Before(SchedPolicy policy, const QueueEntry& a, const QueueEntry& b,
       double now_ms)
{
    switch (policy) {
      case SchedPolicy::kFcfs:
        if (a.arrival_ms != b.arrival_ms) return a.arrival_ms < b.arrival_ms;
        break;
      case SchedPolicy::kShortestPromptFirst:
        if (a.remaining_prefill_ms != b.remaining_prefill_ms) {
            return a.remaining_prefill_ms < b.remaining_prefill_ms;
        }
        break;
      case SchedPolicy::kSloEdf: {
        // A request whose end-to-end deadline cannot be met even with the
        // machine to itself (remaining prefill plus its whole decode) is a
        // lost cause; spending NPU time on it only drags feasible requests
        // past their own deadlines. Serve feasible ones (earliest deadline
        // first), then the lost causes, FCFS among those.
        const bool a_feasible =
            now_ms + a.remaining_total_ms <= a.deadline_ms;
        const bool b_feasible =
            now_ms + b.remaining_total_ms <= b.deadline_ms;
        if (a_feasible != b_feasible) return a_feasible;
        if (a_feasible) {
            if (a.deadline_ms != b.deadline_ms) {
                return a.deadline_ms < b.deadline_ms;
            }
        } else if (a.arrival_ms != b.arrival_ms) {
            return a.arrival_ms < b.arrival_ms;
        }
        break;
      }
    }
    return a.request_id < b.request_id;
}

}  // namespace

size_t
QueuePolicy::Pick(const std::vector<QueueEntry>& queue, double now_ms) const
{
    LLMNPU_CHECK(!queue.empty());
    size_t best = 0;
    for (size_t i = 1; i < queue.size(); ++i) {
        if (Before(policy_, queue[i], queue[best], now_ms)) best = i;
    }
    return best;
}

std::shared_ptr<const QueuePolicy>
MakeQueuePolicy(SchedPolicy policy)
{
    return std::make_shared<const QueuePolicy>(policy);
}

DecodePlacement
PredictedPlacement::Place(const PlacementQuery& query) const
{
    const int batch = std::max(1, query.batch_depth);
    const int64_t ctx = std::max<int64_t>(1, query.context_len);
    const double cpu_ms =
        costs_->StepMs(DecodePlacement::kCpuFloat, ctx, batch);
    double npu_ms = costs_->StepMs(DecodePlacement::kNpuQuant, ctx, batch);
    // Degradation-aware: a throttled NPU serves slower by the thermal
    // scale and a flaky one burns retry attempts — inflate the predicted
    // NPU price by both before comparing. Ties go to the CPU (the cheap,
    // fault-free side).
    npu_ms *= std::max(1.0, query.signals.npu_service_scale);
    npu_ms *= 1.0 + query.signals.npu_fault_rate;
    return npu_ms < cpu_ms ? DecodePlacement::kNpuQuant
                           : DecodePlacement::kCpuFloat;
}

bool
PredictedSloAdmits(const AdmissionQuery& query)
{
    if (query.deadline_ms >= 1e300) {
        return true;  // no SLO: nothing to be infeasible against
    }
    // Inflate the predicted service by the live degradation signals (a
    // throttled NPU stretches every chunk by the thermal scale, a flaky
    // one re-runs a fault_rate fraction of dispatches) and by decode
    // congestion: the isolated figure prices decode solo, but this
    // arrival would join a continuous batch where every resident stream
    // adds one batch-marginal share to its steps.
    const double service_ms =
        query.isolated_e2e_ms *
        std::max(1.0, query.signals.npu_service_scale) *
        (1.0 + query.signals.npu_fault_rate) *
        CpuDecodeStepMs(1.0, query.signals.decode_pool_depth + 1);
    const double predicted_finish =
        query.signals.now_ms + query.queued_prefill_ms + service_ms;
    return predicted_finish <= query.deadline_ms;
}

}  // namespace llmnpu
