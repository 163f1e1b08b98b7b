/**
 * @file
 * Deterministic fault plane for the serving simulator.
 *
 * The paper's llm.npu design assumes the NPU always answers; real
 * deployments see transient driver faults, stalls, thermal throttling, and
 * memory pressure. This module is the single source of injected failures
 * for src/serving/simulator.cc, covering three scenario families:
 *
 *  (a) transient NPU faults: a prefill chunk (or an NPU-resident decode
 *      dispatch) fails partway through, or stalls until the watchdog
 *      timeout kills it;
 *  (b) thermal throttling: src/sim/thermal.h scales NPU service times as
 *      accumulated busy time heats the die (brownout mode sheds
 *      SLO-infeasible queued work while throttled);
 *  (c) memory pressure: the live KV page budget shrinks mid-run, routed
 *      through the simulator's termination-safe eviction order.
 *
 * Injection is *counter-based*, not stream-based: every draw hashes
 * (seed, domain, request, index, attempt) through the SplitMix64
 * finalizer, so whether request 7's chunk 3 faults on attempt 2 is a pure
 * function of the seed — independent of schedule order, of how many other
 * draws happened first, and of whether unrelated scenarios run in the same
 * process. With every probability at zero the plane draws nothing and the
 * simulator is bit-identical to a run without it.
 *
 * The matching defenses are stated here too: the timeout watchdog and the
 * capped-exponential retry as constants, the per-request NPU->CPU circuit
 * breaker and brownout shedding as options, so one options struct
 * describes a whole degraded-mode scenario.
 */
#ifndef LLMNPU_SERVING_FAULTS_H
#define LLMNPU_SERVING_FAULTS_H

#include <cstdint>

#include "src/sim/thermal.h"

namespace llmnpu {

/** Watchdog: a stalled chunk is declared dead after this multiple of its
 *  nominal (thermally scaled) service time. */
inline constexpr double kWatchdogTimeoutFactor = 4.0;
/** Capped exponential retry backoff (virtual ms):
 *  delay = min(kRetryBackoffMs * 2^(attempt-1), kRetryBackoffCapMs). */
inline constexpr double kRetryBackoffMs = 2.0;
inline constexpr double kRetryBackoffCapMs = 64.0;
/** Attempts per chunk / per decode token before the request is shed
 *  (accounted, pages released) rather than retried forever. */
inline constexpr int kMaxFaultAttempts = 8;
static_assert(kWatchdogTimeoutFactor > 1.0 && kRetryBackoffMs >= 0.0 &&
                  kRetryBackoffCapMs >= kRetryBackoffMs &&
                  kMaxFaultAttempts >= 1,
              "fault defenses out of range");

/** Fault-injection scenario plus the defense parameters. */
struct FaultOptions {
    /** Seed of the injection hash; sweeps derive it from the CLI seed so
     *  every degraded-mode run is reproducible from the command line. */
    uint64_t seed = 0xfa017u;

    // ---- (a) transient NPU faults.
    /** Per-attempt probability that a prefill chunk fails partway. */
    double chunk_failure_prob = 0.0;
    /** Per-attempt probability that a prefill chunk stalls until the
     *  watchdog timeout. */
    double chunk_stall_prob = 0.0;
    /** Per-attempt probability that an NPU-resident decode dispatch for
     *  one request faults (the request sits the step out and retries). */
    double decode_failure_prob = 0.0;

    // ---- defense: circuit breaker.
    /** Circuit breaker: after this many *consecutive* faults on one
     *  request, its decode placement fails over from the NPU to the
     *  packed-fp32 CPU path (mid-stream, at a step boundary). <= 0
     *  disables failover. */
    int circuit_breaker_k = 3;

    // ---- (b) thermal throttling + brownout.
    ThermalOptions thermal;
    /** Brownout mode: while the die is throttled, shed queued requests
     *  whose SLO deadline is no longer feasible instead of burning hot
     *  cycles on lost causes. Requires `thermal` on and SLO deadlines. */
    bool brownout_shedding = false;

    // ---- (c) memory pressure.
    /** Virtual time at which the live KV page budget shrinks; < 0 means
     *  never. Requires a bounded ServingOptions pool. */
    double pool_shrink_at_ms = -1.0;
    /** Fraction of the configured budget that survives the shrink. */
    double pool_shrink_to = 1.0;

    /** True when any injection mechanism is active. Rate-zero options with
     *  thermal and shrink off leave the simulator bit-identical to a run
     *  without the fault plane. */
    bool Enabled() const;

    /** Exits with a fatal user error on out-of-range parameters (probs
     *  outside [0,1), empty shrink budgets, ...). */
    void Validate() const;
};

/** Stateless, seeded fault oracle (const draws; safe to share). */
class FaultPlane
{
  public:
    explicit FaultPlane(const FaultOptions& options);

    enum class ChunkFate {
        kOk,     ///< chunk completes normally
        kFail,   ///< transient failure partway through the chunk
        kStall,  ///< hangs; the watchdog kills it at the timeout
    };

    /** Fate of prefill chunk `chunk` of request `request`, attempt
     *  `attempt` (0 = first try). */
    ChunkFate Chunk(int request, int chunk, int attempt) const;

    /** Fraction of the chunk's service time consumed before a kFail fault
     *  is detected, in [0.05, 0.95]. */
    double ChunkFailFraction(int request, int chunk, int attempt) const;

    /** Whether the NPU decode dispatch for `request`'s token
     *  `token_index` faults on `attempt`. */
    bool DecodeFaults(int request, int token_index, int attempt) const;

    /** Capped exponential backoff after `attempt` failures (>= 1). */
    double BackoffMs(int attempt) const;

    const FaultOptions& options() const { return options_; }

  private:
    /** Uniform [0,1) from the hashed draw coordinates. */
    double Draw(uint64_t domain, uint64_t a, uint64_t b, uint64_t c) const;

    FaultOptions options_;
};

}  // namespace llmnpu

#endif  // LLMNPU_SERVING_FAULTS_H
