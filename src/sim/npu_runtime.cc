#include "src/sim/npu_runtime.h"

#include <cmath>
#include <sstream>

#include "src/sim/calibration.h"
#include "src/util/check.h"
#include "src/util/format.h"

namespace llmnpu {

NpuRuntime::NpuRuntime() = default;

double
NpuRuntime::EnvSetupMs()
{
    if (env_ready_) return 0.0;
    env_ready_ = true;
    return cal::kNpuEnvSetupMs;
}

NpuGraphCosts
NpuRuntime::CostsFor(const NpuGraphDesc& desc)
{
    NpuGraphCosts costs;
    costs.build_ms =
        cal::kNpuBuildBaseMs + cal::kNpuBuildPerOpMs * desc.num_ops;
    const double gb =
        static_cast<double>(desc.const_bytes) / (1024.0 * 1024.0 * 1024.0);
    costs.optimize_ms =
        cal::kNpuOptimizeCoefS * std::pow(gb, cal::kNpuOptimizeExp) * 1e3;
    costs.free_ms = cal::kNpuFreePerOpMs * desc.num_ops;
    return costs;
}

std::string
NpuRuntime::Key(const NpuGraphDesc& desc)
{
    std::ostringstream oss;
    oss << desc.name;
    for (int64_t d : desc.input_shape) oss << ":" << d;
    return oss.str();
}

bool
NpuRuntime::IsBuilt(const NpuGraphDesc& desc) const
{
    return built_.count(Key(desc)) > 0;
}

bool
NpuRuntime::FitsMemory(int64_t extra_bytes) const
{
    return static_cast<double>(resident_bytes_ + extra_bytes) <=
           cal::kNpuMemoryRegionBytes;
}

double
NpuRuntime::EnsureBuilt(const NpuGraphDesc& desc)
{
    if (IsBuilt(desc)) return 0.0;
    const int64_t bytes = desc.const_bytes + desc.activation_bytes;
    LLMNPU_FATAL_IF(!FitsMemory(bytes),
                    "NPU memory region exhausted building graph '" +
                        desc.name + "' (" + HumanBytes(
                            static_cast<uint64_t>(bytes)) + " more, " +
                        HumanBytes(static_cast<uint64_t>(resident_bytes_)) +
                        " resident)");
    double ms = EnvSetupMs();
    const NpuGraphCosts costs = CostsFor(desc);
    ms += costs.TotalPrepareMs();
    resident_bytes_ += bytes;
    built_.emplace(Key(desc), desc);
    total_prepare_ms_ += ms;
    return ms;
}

double
NpuRuntime::Free(const NpuGraphDesc& desc)
{
    auto it = built_.find(Key(desc));
    LLMNPU_CHECK(it != built_.end());
    resident_bytes_ -= it->second.const_bytes + it->second.activation_bytes;
    const double ms = CostsFor(it->second).free_ms;
    built_.erase(it);
    return ms;
}

}  // namespace llmnpu
