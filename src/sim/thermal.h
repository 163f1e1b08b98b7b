/**
 * @file
 * Lumped-capacitance NPU thermal model: the hardware-side hook of the
 * fault plane (src/serving/faults.h).
 *
 * Mobile SoCs throttle the NPU long before a sustained serving workload
 * drains the battery: the die heats roughly in proportion to accelerator
 * busy time and cools exponentially toward ambient through the chassis.
 * This model reproduces that first-order behavior deterministically so the
 * serving simulator can price thermal throttling into chunk service times
 * and trigger brownout-mode load shedding.
 *
 * The model is exact virtual-time arithmetic (no RNG): the die starts at
 * ambient (kThermalAmbientC), temperature decays toward ambient with time
 * constant `cool_tau_ms` and rises by
 * `heat_c_per_busy_ms` per millisecond of NPU busy time. The throttle
 * curve is a linear ramp: service times scale by 1.0 below
 * `throttle_start_c`, rising linearly to `max_slowdown` at
 * `throttle_full_c` and clamping there.
 */
#ifndef LLMNPU_SIM_THERMAL_H
#define LLMNPU_SIM_THERMAL_H

namespace llmnpu {

/** Chassis/ambient temperature: the die starts here and cools toward it. */
inline constexpr double kThermalAmbientC = 25.0;

/** Thermal-model parameters. Disabled (the default) means ServiceScale()
 *  is the constant 1.0 and no state is ever advanced, so simulations with
 *  thermal modeling off are bit-identical to pre-thermal builds. */
struct ThermalOptions {
    bool enabled = false;
    /** Heating per millisecond of NPU busy time. */
    double heat_c_per_busy_ms = 0.02;
    /** Exponential cooling time constant toward ambient. */
    double cool_tau_ms = 2000.0;
    /** Temperature where throttling (and brownout mode) begins. */
    double throttle_start_c = 70.0;
    /** Temperature where the slowdown ramp saturates. */
    double throttle_full_c = 90.0;
    /** Service-time multiplier at/above throttle_full_c (>= 1). */
    double max_slowdown = 3.0;

    /** Exits with a fatal user error on nonsensical parameters. */
    void Validate() const;
};

/** Deterministic die-temperature state machine. */
class ThermalModel
{
  public:
    explicit ThermalModel(const ThermalOptions& options);

    /**
     * Advances the model over `dt_ms` of virtual time with the NPU busy
     * (`npu_busy` = heating) or idle (cooling only). No-op when disabled.
     */
    void Advance(double dt_ms, bool npu_busy);

    /** Service-time multiplier at the current temperature: exactly 1.0
     *  when disabled or below the throttle threshold. */
    double ServiceScale() const;

    /** Whether the die is at/above the throttle threshold (brownout). */
    bool Throttled() const;

    double temperature_c() const { return temp_c_; }
    const ThermalOptions& options() const { return options_; }

  private:
    ThermalOptions options_;
    double temp_c_ = kThermalAmbientC;
};

}  // namespace llmnpu

#endif  // LLMNPU_SIM_THERMAL_H
