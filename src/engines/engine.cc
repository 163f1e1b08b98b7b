#include "src/engines/engine.h"

#include <algorithm>

#include "src/util/check.h"

namespace llmnpu {

ServingCostProfile
InferenceEngine::ServingCosts(const ModelConfig& config, const SocSpec& soc,
                              const InferenceRequest& request)
{
    const EngineResult result = Run(config, soc, request);
    ServingCostProfile profile;
    profile.chunk_ms = {result.prefill_ms};
    // Single-processor engines run prefill and decode on the same unit: a
    // prefill in flight leaves nothing for concurrent decode wherever that
    // decode nominally sits, so both placement factors are fully blocked
    // and decode stays on the float processor.
    profile.float_decode_interference = 1.0;
    profile.npu_decode_interference = 1.0;
    profile.decode_placement = DecodePlacement::kCpuFloat;
    profile.cpu_decode_token_ms =
        result.decode_ms / std::max(1, request.output_len);
    return profile;
}

double
InferenceEngine::DecodeStepMs(const ModelConfig& config, const SocSpec& soc,
                              DecodePlacement placement, int64_t kv_len,
                              int batch)
{
    LLMNPU_CHECK(placement == DecodePlacement::kCpuFloat);
    const InferenceRequest request{
        static_cast<int>(std::max<int64_t>(1, kv_len)), 1};
    return CpuDecodeStepMs(
        ServingCosts(config, soc, request).cpu_decode_token_ms, batch);
}

}  // namespace llmnpu
