#include "src/sim/thermal.h"

#include <cmath>

#include "src/util/check.h"

namespace llmnpu {

void
ThermalOptions::Validate() const
{
    if (!enabled) return;
    LLMNPU_FATAL_IF(heat_c_per_busy_ms < 0.0,
                    "thermal heat_c_per_busy_ms must be >= 0");
    LLMNPU_FATAL_IF(cool_tau_ms <= 0.0, "thermal cool_tau_ms must be > 0");
    LLMNPU_FATAL_IF(throttle_full_c <= throttle_start_c,
                    "thermal throttle_full_c must exceed throttle_start_c");
    LLMNPU_FATAL_IF(max_slowdown < 1.0,
                    "thermal max_slowdown must be >= 1");
}

ThermalModel::ThermalModel(const ThermalOptions& options)
    : options_(options)
{
    options_.Validate();
}

void
ThermalModel::Advance(double dt_ms, bool npu_busy)
{
    if (!options_.enabled || dt_ms <= 0.0) return;
    // Cooling toward ambient over the whole interval, heating added on top
    // when the accelerator was busy. Evaluated per event interval, so the
    // trajectory is deterministic for a given schedule.
    temp_c_ = kThermalAmbientC +
              (temp_c_ - kThermalAmbientC) *
                  std::exp(-dt_ms / options_.cool_tau_ms);
    if (npu_busy) temp_c_ += options_.heat_c_per_busy_ms * dt_ms;
}

double
ThermalModel::ServiceScale() const
{
    if (!options_.enabled || temp_c_ < options_.throttle_start_c) {
        return 1.0;
    }
    if (temp_c_ >= options_.throttle_full_c) return options_.max_slowdown;
    const double frac = (temp_c_ - options_.throttle_start_c) /
                        (options_.throttle_full_c -
                         options_.throttle_start_c);
    return 1.0 + frac * (options_.max_slowdown - 1.0);
}

bool
ThermalModel::Throttled() const
{
    return options_.enabled && temp_c_ >= options_.throttle_start_c;
}

}  // namespace llmnpu
