/**
 * @file
 * The benchmark's metric tables and its output: METRIC rows, the one-line
 * result a caller parses, and the full results JSON the compare mode
 * reads back. The tables must match BENCHMARK.json (the unit test checks).
 */
#ifndef LLMNPU_BENCHMARK_REPORT_H
#define LLMNPU_BENCHMARK_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "benchmark/src/stats.h"

namespace llmnpu {
namespace bench {

/** Seconds one run measures unless --seconds says otherwise (the
 *  run_seconds of BENCHMARK.json). */
constexpr double kDefaultSeconds = 30.0;

struct MetricSpec {
    std::string name;
    std::string unit;
    Better better;
};

/** What a user of the system sees; reported by untraced runs. */
const std::vector<MetricSpec>& EndToEndMetrics();

/** Single-layer metrics; reported by traced runs. */
const std::vector<MetricSpec>& PerLayerMetrics();

struct MetricValue {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Self time of one span name over the traced round. */
struct SelfTimeRow {
    std::string span;
    double calls_per_op = 0.0;
    double total_ms_per_op = 0.0;
    double self_ms_per_op = 0.0;
};

/** Everything one run reports. */
struct RunResult {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool traced = false;
    bool smoke = false;

    bool correct = false;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<MetricValue> metrics;

    /** Timed rounds, and the summed operation time of each (ms). */
    int rounds = 0;
    std::vector<double> round_ms;
    /** Each operation of a round at its fastest over the rounds (ms). */
    std::vector<double> fastest_op_ms;
    std::vector<double> setup_repeats_s;
    std::vector<SelfTimeRow> self_times;
    std::vector<std::string> errors;
};

/** "METRIC <workload> <name> <value> <unit>" for every metric. */
std::string MetricRows(const RunResult& result);

/** {"correct", "attempted", "failed", "metrics"} on one line. */
std::string ResultLine(const RunResult& result);

/** The full result as a JSON object (compare mode input). */
std::string ResultJson(const RunResult& result);

}  // namespace bench
}  // namespace llmnpu

#endif  // LLMNPU_BENCHMARK_REPORT_H
