/**
 * @file
 * Memoized view of an engine's ServingCosts() decomposition. Arrival
 * streams repeat (prompt_len, output_len) pairs across policies and load
 * levels, and a full llm.npu decomposition replays the prefill timeline,
 * so the serving layer caches profiles per request shape.
 *
 * ServingCostModel is also the one decode-step oracle: StepMs() forwards
 * to the engine's DecodeStepMs decomposition (memoized, context
 * bucketed). The simulator prices executed steps through it and
 * PredictedPlacement decides placements through it.
 */
#ifndef LLMNPU_SERVING_COST_MODEL_H
#define LLMNPU_SERVING_COST_MODEL_H

#include <cstdint>
#include <functional>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "src/engines/engine.h"

namespace llmnpu {

/** Caches ServingCostProfile per (prompt_len, output_len) for one
 *  (engine, model, device) triple. Share one instance across simulator
 *  runs that sweep policies/loads over the same triple. */
class ServingCostModel
{
  public:
    ServingCostModel(InferenceEngine& engine, const ModelConfig& config,
                     const SocSpec& soc)
        : engine_(engine), config_(config), soc_(soc)
    {}

    /** The engine's decomposition of `request` (cached). */
    const ServingCostProfile& Costs(const InferenceRequest& request);

    /** Isolated single-request latency in the paper's deployment: the
     *  profile's prefill plus its IsolatedDecodeMs (decode on the float
     *  processor), whatever the profile's own decode placement. It is
     *  the SLO baseline, so every profile of one (engine, model, device)
     *  triple sets the same deadlines. */
    double IsolatedE2eMs(const InferenceRequest& request);

    /** Calibrated step price: the engine's DecodeStepMs at (placement,
     *  ctx, batch), with ctx rounded up to a 64-token bucket so sweeps
     *  over growing contexts hit the memo instead of re-decomposing. */
    double StepMs(DecodePlacement placement, int64_t ctx, int batch) const;

    /** Per-token price at depth `batch`: StepMs / batch, the currency the
     *  placement crossover is decided in. */
    double StepTokenMs(DecodePlacement placement, int64_t ctx,
                       int batch) const
    {
        return StepMs(placement, ctx, batch) /
               static_cast<double>(batch > 0 ? batch : 1);
    }

    const ModelConfig& config() const { return config_; }
    const SocSpec& soc() const { return soc_; }

  private:
    InferenceEngine& engine_;
    ModelConfig config_;
    SocSpec soc_;
    using StepKey = std::tuple<int, int64_t, int>;  ///< placement, bucket, batch
    struct StepKeyHash {
        size_t operator()(const StepKey& key) const
        {
            return std::hash<uint64_t>()(
                (static_cast<uint64_t>(std::get<1>(key)) << 20) ^
                (static_cast<uint64_t>(std::get<2>(key)) << 1) ^
                static_cast<uint64_t>(std::get<0>(key)));
        }
    };

    std::map<std::pair<int, int>, ServingCostProfile> cache_;
    // Hashed, not ordered: the simulator asks for a step price about once
    // per executed quantum.
    mutable std::unordered_map<StepKey, double, StepKeyHash> step_cache_;
};

}  // namespace llmnpu

#endif  // LLMNPU_SERVING_COST_MODEL_H
