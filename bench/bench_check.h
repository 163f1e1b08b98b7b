/**
 * @file
 * The bench-band checker: validates a freshly produced BENCH_results.json
 * against the committed baseline. One table in bench_check.cc drives it;
 * each entry selects rows (bench, mode, row filter), keys them, reads one
 * value field and applies one band kind:
 *  - relative: the fresh value sits within a factor of the baseline row
 *    with the same key (kernel GFLOP/s 5x; deterministic simulator rows
 *    1.02x);
 *  - absolute: the value stays under a fixed ceiling (tracer overhead,
 *    predictor error);
 *  - invariant: a per-row rule that holds for any parameters (peak <=
 *    pool, the shrink stays inside the live budget, ...);
 *  - group: a rule over a family of rows (monotone capacity win, dynamic
 *    vs best static placement, the calibrated decode crossover shape).
 * Every failure is reported, not just the first.
 */
#ifndef LLMNPU_BENCH_BENCH_CHECK_H
#define LLMNPU_BENCH_BENCH_CHECK_H

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace_reader.h"

namespace llmnpu {
namespace bench {

/** Outcome of one check run. */
struct BenchCheckReport {
    /** One line per failed check, naming the file, the rule and the row. */
    std::vector<std::string> failures;
    /** Per table entry, in table order: its label and the rows (group
     *  rules: groups) of the fresh results it checked. */
    std::vector<std::pair<std::string, int>> checked;
};

/** Runs every table entry over parsed results files. */
BenchCheckReport CheckBenchResults(const obs::JsonValue& fresh,
                                   const obs::JsonValue& baseline);

/**
 * Reads, parses and checks two results files, printing the failures or
 * the per-entry counts to `out`. @return 0 when every check passed, 1 when
 * any failed, 2 when a file is unreadable or not valid JSON (the message
 * carries the parser's position).
 */
int RunBenchCheck(const std::string& fresh_path,
                  const std::string& baseline_path, std::ostream& out);

}  // namespace bench
}  // namespace llmnpu

#endif  // LLMNPU_BENCH_BENCH_CHECK_H
