/**
 * @file
 * Statistics behind the benchmark's numbers: each operation's fastest time
 * over a run's rounds, quartiles as the acceptance check takes them, and
 * the paired-comparison verdicts of the compare mode. Percentiles and
 * medians are llmnpu::Percentile (src/util/stats.h).
 */
#ifndef LLMNPU_BENCHMARK_STATS_H
#define LLMNPU_BENCHMARK_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace llmnpu {
namespace bench {

/** Element-wise minimum of `rounds`: the fastest time of each operation,
 *  where every round lists the same operations in the same order. Fatal
 *  when the rounds differ in length. */
std::vector<double> FastestPerOperation(
    const std::vector<std::vector<double>>& rounds);

struct Quartiles {
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

/** First quartile, median and third quartile with the exclusive method of
 *  Python's statistics.quantiles(values, n=4) — the definition the
 *  benchmark's spread rule is stated in. One value gives it three times;
 *  no values give zeros. */
Quartiles QuartilesOf(std::vector<double> values);

/** Which direction of a metric is an improvement. */
enum class Better { kLower, kHigher };

Better ParseBetter(const std::string& text);

/** Outcome of comparing one metric between a parent and a change. */
enum class Verdict { kImproved, kWithinBound, kUnresolved, kRegressed };

const char* VerdictName(Verdict verdict);

/** Paired comparison of one metric over runs of parent and change. */
struct Comparison {
    Quartiles parent;
    Quartiles change;
    int pairs = 0;
    int wins = 0;    ///< pairs where the change reads strictly better
    int losses = 0;  ///< pairs where the parent reads strictly better
    /** wins / pairs; ties count for neither side. */
    double win_frac = 0.0;
    /** How much worse the change's median is than the parent's, as a
     *  share of the parent's median (negative when better). */
    double worse_frac = 0.0;
    Verdict verdict = Verdict::kWithinBound;
};

/**
 * Compares `parent[i]` with `change[i]` (run i of each side, same
 * workload and seed). Rules, in order:
 *  - improved: the change wins at least nine tenths of the pairs and its
 *    median is better than the parent's by more than the parent's
 *    quartile spread;
 *  - regressed: the median is worse by more than `bound`;
 *  - when the parent's spread (as a share of its median) is wider than
 *    `bound`: within bound if every change run reads better than every
 *    parent run, else unresolved;
 *  - otherwise within bound.
 */
Comparison Compare(const std::vector<double>& parent,
                   const std::vector<double>& change, Better better,
                   double bound);

/** Failed operations compared with an absolute bound of zero: any
 *  increase in the failed share regresses, a decrease improves. */
Verdict CompareFailures(int64_t parent_failed, int64_t parent_attempted,
                        int64_t change_failed, int64_t change_attempted);

}  // namespace bench
}  // namespace llmnpu

#endif  // LLMNPU_BENCHMARK_STATS_H
