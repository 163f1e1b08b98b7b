#include "src/serving/cost_model.h"

#include <algorithm>

namespace llmnpu {

const ServingCostProfile&
ServingCostModel::Costs(const InferenceRequest& request)
{
    const std::pair<int, int> key{request.prompt_len, request.output_len};
    auto it = cache_.find(key);
    if (it == cache_.end()) {
        it = cache_.emplace(key, engine_.ServingCosts(config_, soc_, request))
                 .first;
    }
    return it->second;
}

double
ServingCostModel::IsolatedE2eMs(const InferenceRequest& request)
{
    const ServingCostProfile& profile = Costs(request);
    return profile.PrefillMs() + profile.IsolatedDecodeMs(request.output_len);
}

double
ServingCostModel::StepMs(DecodePlacement placement, int64_t ctx,
                         int batch) const
{
    const int64_t bucket = ((std::max<int64_t>(1, ctx) + 63) / 64) * 64;
    const StepKey key{static_cast<int>(placement), bucket, batch};
    auto it = step_cache_.find(key);
    if (it == step_cache_.end()) {
        it = step_cache_
                 .emplace(key, engine_.DecodeStepMs(config_, soc_,
                                                    placement, bucket, batch))
                 .first;
    }
    return it->second;
}

}  // namespace llmnpu
