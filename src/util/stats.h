/**
 * @file
 * Streaming statistics helpers used by the simulator and benchmarks.
 */
#ifndef LLMNPU_UTIL_STATS_H
#define LLMNPU_UTIL_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "src/util/check.h"

namespace llmnpu {

/**
 * Accumulates count/mean/variance/min/max in one pass (Welford's method).
 */
class RunningStat
{
  public:
    /** Adds one sample. */
    void
    Add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
        sum_ += x;
    }

    size_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    /** Sample variance (n-1 denominator). */
    double
    Variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    /** Sample standard deviation. */
    double StdDev() const { return std::sqrt(Variance()); }

  private:
    size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 1e300;
    double max_ = -1e300;
};

/** Geometric mean of a sample set; all inputs must be positive. */
inline double
GeoMean(const std::vector<double>& xs)
{
    LLMNPU_CHECK(!xs.empty());
    double log_sum = 0.0;
    for (double x : xs) {
        LLMNPU_CHECK_GT(x, 0.0);
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

/** Linear-interpolated percentile, p in [0, 100]. Sorts a copy. The one
 *  quantile implementation: bench tables and the serving report's
 *  quantiles (src/serving/metrics.cc) share it. An empty sample is a
 *  legitimate aggregate (e.g. an all-rejected serving trace) and yields a
 *  well-defined 0.0, never NaN or a panic. */
inline double
Percentile(std::vector<double> xs, double p)
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

}  // namespace llmnpu

#endif  // LLMNPU_UTIL_STATS_H
