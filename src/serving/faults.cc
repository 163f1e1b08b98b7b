#include "src/serving/faults.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace llmnpu {
namespace {

// Draw-domain tags keep the per-coordinate hash streams independent: the
// same (request, chunk, attempt) triple must not correlate a failure draw
// with a stall draw.
constexpr uint64_t kDomainChunkFail = 1;
constexpr uint64_t kDomainChunkStall = 2;
constexpr uint64_t kDomainChunkFraction = 3;
constexpr uint64_t kDomainDecodeFail = 4;

// SplitMix64 output finalizer (same constants as src/util/rng.h). Used as
// a stateless avalanche hash: injection draws are a pure function of their
// coordinates, never of how many draws ran before them.
uint64_t
Mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void
ValidateProb(double p, const char* name)
{
    LLMNPU_FATAL_IF(!(p >= 0.0 && p < 1.0),
                    std::string("fault ") + name + " must be in [0, 1)");
}

}  // namespace

bool
FaultOptions::Enabled() const
{
    return chunk_failure_prob > 0.0 || chunk_stall_prob > 0.0 ||
           decode_failure_prob > 0.0 || thermal.enabled ||
           brownout_shedding || pool_shrink_at_ms >= 0.0;
}

void
FaultOptions::Validate() const
{
    ValidateProb(chunk_failure_prob, "chunk_failure_prob");
    ValidateProb(chunk_stall_prob, "chunk_stall_prob");
    ValidateProb(decode_failure_prob, "decode_failure_prob");
    LLMNPU_FATAL_IF(chunk_failure_prob + chunk_stall_prob >= 1.0,
                    "fault chunk_failure_prob + chunk_stall_prob must be < 1");
    LLMNPU_FATAL_IF(pool_shrink_at_ms >= 0.0 &&
                        !(pool_shrink_to > 0.0 && pool_shrink_to <= 1.0),
                    "fault pool_shrink_to must be in (0, 1]");
    thermal.Validate();
}

FaultPlane::FaultPlane(const FaultOptions& options) : options_(options)
{
    options_.Validate();
}

double
FaultPlane::Draw(uint64_t domain, uint64_t a, uint64_t b, uint64_t c) const
{
    // Fold the coordinates through successive finalizer rounds; each round
    // fully avalanches, so adjacent coordinates share no draw structure.
    uint64_t h = Mix64(options_.seed ^ Mix64(domain));
    h = Mix64(h ^ Mix64(a));
    h = Mix64(h ^ Mix64(b));
    h = Mix64(h ^ Mix64(c));
    // Top 53 bits -> uniform double in [0, 1).
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

FaultPlane::ChunkFate
FaultPlane::Chunk(int request, int chunk, int attempt) const
{
    if (options_.chunk_failure_prob <= 0.0 &&
        options_.chunk_stall_prob <= 0.0) {
        return ChunkFate::kOk;
    }
    const double u =
        Draw(kDomainChunkFail, static_cast<uint64_t>(request),
             static_cast<uint64_t>(chunk), static_cast<uint64_t>(attempt));
    if (u < options_.chunk_failure_prob) return ChunkFate::kFail;
    if (options_.chunk_stall_prob <= 0.0) return ChunkFate::kOk;
    const double v =
        Draw(kDomainChunkStall, static_cast<uint64_t>(request),
             static_cast<uint64_t>(chunk), static_cast<uint64_t>(attempt));
    if (v < options_.chunk_stall_prob) return ChunkFate::kStall;
    return ChunkFate::kOk;
}

double
FaultPlane::ChunkFailFraction(int request, int chunk, int attempt) const
{
    const double u =
        Draw(kDomainChunkFraction, static_cast<uint64_t>(request),
             static_cast<uint64_t>(chunk), static_cast<uint64_t>(attempt));
    return 0.05 + 0.90 * u;
}

bool
FaultPlane::DecodeFaults(int request, int token_index, int attempt) const
{
    if (options_.decode_failure_prob <= 0.0) return false;
    const double u = Draw(kDomainDecodeFail, static_cast<uint64_t>(request),
                          static_cast<uint64_t>(token_index),
                          static_cast<uint64_t>(attempt));
    return u < options_.decode_failure_prob;
}

double
FaultPlane::BackoffMs(int attempt) const
{
    LLMNPU_CHECK(attempt >= 1);
    const double delay =
        kRetryBackoffMs *
        std::pow(2.0, static_cast<double>(std::min(attempt, 60) - 1));
    return std::min(delay, kRetryBackoffCapMs);
}

}  // namespace llmnpu
