/**
 * @file
 * Paired comparison of benchmark runs of two commits.
 */
#ifndef LLMNPU_BENCHMARK_COMPARE_H
#define LLMNPU_BENCHMARK_COMPARE_H

#include <string>

namespace llmnpu {
namespace bench {

/**
 * Reads the runs of a parent and a change — each file a JSON array of
 * result objects as `--out` writes them, run i of one side paired with
 * run i of the other per workload — and the bounds and directions of the
 * end-to-end metrics from the benchmark spec (BENCHMARK.json). Prints,
 * per workload and metric, both sides' medians and quartiles, the change's
 * win fraction and a verdict; failed operations are compared too.
 * @return 0 when nothing regressed, 1 when something did, 2 when an input
 *         cannot be read.
 */
int CompareRuns(const std::string& parent_path,
                const std::string& change_path, const std::string& spec_path);

}  // namespace bench
}  // namespace llmnpu

#endif  // LLMNPU_BENCHMARK_COMPARE_H
