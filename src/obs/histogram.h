/**
 * @file
 * The single exact-quantile implementation.
 *
 * Every percentile in the codebase routes through SamplePercentile: the
 * serving report quantiles (src/serving/metrics.cc) and the generic
 * util/stats.h Percentile helper share this one definition, so a quantile
 * printed by a bench and a quantile asserted by a test can never drift
 * apart. Header-only so util/stats.h can include it without a library
 * cycle (obs sits below util in the link graph).
 */
#ifndef LLMNPU_OBS_HISTOGRAM_H
#define LLMNPU_OBS_HISTOGRAM_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/util/check.h"

namespace llmnpu {
namespace obs {

/** Linear-interpolated percentile, p in [0, 100]. Sorts a copy. An empty
 *  sample is a legitimate aggregate (e.g. an all-rejected serving trace)
 *  and yields a well-defined 0.0, never NaN or a panic. */
inline double
SamplePercentile(std::vector<double> xs, double p)
{
    if (xs.empty()) return 0.0;
    LLMNPU_CHECK_GE(p, 0.0);
    LLMNPU_CHECK_LE(p, 100.0);
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace obs
}  // namespace llmnpu

#endif  // LLMNPU_OBS_HISTOGRAM_H
