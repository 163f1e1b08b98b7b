/**
 * @file
 * Arrival processes over the Table 5 dataset profiles: the request streams
 * the serving layer (src/serving) schedules. Open-loop Poisson arrivals
 * model independent apps firing at an offered rate; the closed-loop sampler
 * models a fixed client population that waits for completions (think time
 * handled by the serving simulator).
 */
#ifndef LLMNPU_WORKLOADS_ARRIVALS_H
#define LLMNPU_WORKLOADS_ARRIVALS_H

#include <vector>

#include "src/util/rng.h"
#include "src/workloads/datasets.h"

namespace llmnpu {

/** One generated request: when it arrives and what it asks for. */
struct ArrivalEvent {
    double arrival_ms = 0.0;
    InferenceRequest request;
    /** Index into the generating mixture (which dataset produced it). */
    int profile_index = 0;
    /** Leading prompt tokens that are the scenario's shared system prefix
     *  (0 = independent prompt; see SharedPrefixOptions). */
    int shared_prefix_len = 0;
};

/**
 * Shared-system-prompt scenario: one fixed prefix (a system prompt every
 * app instance sends verbatim) carried by a configurable fraction of
 * arrivals. Marked requests prepend `prefix_len` tokens to their sampled
 * prompt conceptually — the sampled prompt must already be longer than the
 * prefix for the request to be marked, so prompt_len always covers it.
 *
 * The per-arrival share draw happens for *every* sample once prefix_len
 * is set (even at fraction 0), so sweeping the fraction at a fixed seed
 * yields nested sharing sets: the arrivals marked at 0.25 are a subset of
 * those marked at 0.5 — capacity sweeps compare like against like.
 * prefix_len == 0 draws nothing and is bit-identical to the legacy stream.
 */
struct SharedPrefixOptions {
    /** Shared prefix length in tokens; 0 disables the scenario. The
     *  serving simulator requires it page-aligned (a multiple of
     *  kKvPageSize). */
    int prefix_len = 0;
    /** Fraction of arrivals carrying the prefix, in [0, 1]. */
    double share_fraction = 0.0;

    bool Enabled() const { return prefix_len > 0; }
};

/**
 * Draws requests from a weighted mixture of dataset profiles.
 *
 * Weights need not be normalized; an empty weight vector means uniform.
 * Deterministic given the seed (all draws go through util/rng.h).
 */
class RequestSampler
{
  public:
    RequestSampler(std::vector<DatasetProfile> mix, uint64_t seed,
                   std::vector<double> weights = {});

    /** Samples one request (arrival_ms left 0; callers assign it). */
    ArrivalEvent Sample();

    /** Turns on the shared-system-prompt scenario: every subsequent
     *  Sample() draws one extra uniform and marks the request with the
     *  prefix when the draw falls under share_fraction (and the sampled
     *  prompt is longer than the prefix). Disabled options are a no-op. */
    void SetSharedPrefix(const SharedPrefixOptions& shared);

    const std::vector<DatasetProfile>& mix() const { return mix_; }

  private:
    std::vector<DatasetProfile> mix_;
    std::vector<double> cumulative_;  ///< normalized cumulative weights
    SharedPrefixOptions shared_;
    Rng rng_;
};

/**
 * Open-loop Poisson arrival stream: `num_requests` requests with
 * exponential inter-arrival times at `rate_rps` requests/second, each drawn
 * from the mixture. Sorted by arrival time by construction. `shared`
 * enables the shared-system-prompt scenario over the stream.
 */
std::vector<ArrivalEvent> GeneratePoissonArrivals(
    const std::vector<DatasetProfile>& mix, double rate_rps,
    int num_requests, uint64_t seed,
    const SharedPrefixOptions& shared = {});

}  // namespace llmnpu

#endif  // LLMNPU_WORKLOADS_ARRIVALS_H
