#include "benchmark/src/report.h"

#include <cmath>

#include "src/model/config.h"
#include "src/util/format.h"

namespace llmnpu {
namespace bench {

namespace {

constexpr Better kLower = Better::kLower;
constexpr Better kHigher = Better::kHigher;

/** JSON string literal (names and messages carry no control bytes but
 *  quotes and backslashes are escaped all the same). */
std::string
Quote(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

/** A number with all its digits; non-finite values are not JSON. */
std::string
Number(double v)
{
    return std::isfinite(v) ? StrFormat("%.10g", v) : "null";
}

std::string
MetricsObject(const std::vector<MetricValue>& metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) out += ", ";
        out += Quote(metrics[i].name) + ": {\"value\": " +
               Number(metrics[i].value) +
               ", \"unit\": " + Quote(metrics[i].unit) + "}";
    }
    return out + "}";
}

std::string
NumberArray(const std::vector<double>& values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ", ";
        out += Number(values[i]);
    }
    return out + "]";
}

std::string
StringArray(const std::vector<std::string>& values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ", ";
        out += Quote(values[i]);
    }
    return out + "]";
}

}  // namespace

const std::vector<MetricSpec>&
EndToEndMetrics()
{
    static const std::vector<MetricSpec> specs{
        {"setup_s", "s", kLower},
        {"op_ms_p50", "ms", kLower},
        {"throughput", "1/s", kHigher},
        {"peak_rss_mb", "MB", kLower},
    };
    return specs;
}

const std::vector<MetricSpec>&
PerLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s{
            {"setup.weights_s", "s", kLower},
            {"setup.calibrate_s", "s", kLower},
            {"setup.profile_s", "s", kLower},
            {"setup.executors_s", "s", kLower},
            {"linear.npu.ms", "ms", kLower},
            {"linear.npu.gflops", "GFLOP/s", kHigher},
        };
        for (int k = 0; k < kNumLinearKinds; ++k) {
            s.push_back({"linear.npu." +
                             LinearKindName(static_cast<LinearKind>(k)) +
                             ".ms",
                         "ms", kLower});
        }
        s.push_back({"linear.cpu.ms", "ms", kLower});
        s.push_back({"linear.cpu.gflops", "GFLOP/s", kHigher});
        for (int k = 0; k < kNumLinearKinds; ++k) {
            s.push_back({"linear.cpu." +
                             LinearKindName(static_cast<LinearKind>(k)) +
                             ".ms",
                         "ms", kLower});
        }
        const std::vector<MetricSpec> rest{
            {"shadow.calls", "count", kLower},
            {"shadow.extracted_per_call", "count", kLower},
            {"handoff.round_trips", "count", kLower},
            {"handoff.quantized_mb", "MB", kLower},
            {"handoff.dequantized_mb", "MB", kLower},
            {"model.prefill_chunk_ms_p50", "ms", kLower},
            {"model.decode_step_ms_p50", "ms", kLower},
            {"model.float_side.ms", "ms", kLower},
            {"model.attention.ms", "ms", kLower},
            {"model.attention.gflops", "GFLOP/s", kHigher},
            {"model.lm_head.ms", "ms", kLower},
            {"kv.page_allocs", "count", kLower},
            {"kv.pages_peak", "count", kLower},
            {"threadpool.busy_frac", "ratio", kHigher},
            {"threadpool.jobs_per_step", "count", kLower},
            {"sim.run_ms_p50", "ms", kLower},
            {"sim.quanta_per_s", "1/s", kHigher},
            {"sim.evictions", "count", kLower},
            {"sim.faults", "count", kLower},
            {"sim.retries", "count", kLower},
            {"trace.unattributed_share", "ratio", kLower},
            {"trace.overhead_frac", "ratio", kLower},
        };
        s.insert(s.end(), rest.begin(), rest.end());
        return s;
    }();
    return specs;
}

std::string
MetricRows(const RunResult& result)
{
    std::string out;
    for (const MetricValue& m : result.metrics) {
        out += "METRIC " + result.workload + " " + m.name + " " +
               Number(m.value) + " " + m.unit + "\n";
    }
    return out;
}

// The JSON documents below outgrow StrFormat's fixed buffer, so they are
// concatenated.

std::string
ResultLine(const RunResult& result)
{
    return std::string("{\"correct\": ") +
           (result.correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(result.attempted) +
           ", \"failed\": " + std::to_string(result.failed) +
           ", \"metrics\": " + MetricsObject(result.metrics) + "}";
}

std::string
ResultJson(const RunResult& result)
{
    std::string self = "{";
    for (size_t i = 0; i < result.self_times.size(); ++i) {
        const SelfTimeRow& row = result.self_times[i];
        if (i > 0) self += ", ";
        self += Quote(row.span) + ": {\"calls_per_op\": " +
                Number(row.calls_per_op) +
                ", \"total_ms_per_op\": " + Number(row.total_ms_per_op) +
                ", \"self_ms_per_op\": " + Number(row.self_ms_per_op) + "}";
    }
    self += "}";
    return "{\"workload\": " + Quote(result.workload) +
           ", \"seed\": " + std::to_string(result.seed) +
           ", \"seconds\": " + Number(result.seconds) +
           ", \"trace\": " + (result.traced ? "true" : "false") +
           ", \"smoke\": " + (result.smoke ? "true" : "false") +
           ", \"correct\": " + (result.correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(result.attempted) +
           ", \"failed\": " + std::to_string(result.failed) +
           ", \"metrics\": " + MetricsObject(result.metrics) +
           ", \"rounds\": " + std::to_string(result.rounds) +
           ", \"round_ms\": " + NumberArray(result.round_ms) +
           ", \"fastest_op_ms\": " + NumberArray(result.fastest_op_ms) +
           ", \"setup_repeats_s\": " + NumberArray(result.setup_repeats_s) +
           ", \"self_times\": " + self +
           ", \"errors\": " + StringArray(result.errors) + "}\n";
}

}  // namespace bench
}  // namespace llmnpu
