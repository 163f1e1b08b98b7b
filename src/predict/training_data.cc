#include "src/predict/training_data.h"

#include <cstdint>

#include "src/obs/trace_reader.h"

namespace llmnpu {
namespace predict {

namespace {

/** Numeric member or `fallback` when absent/non-numeric. */
double
NumberOr(const obs::JsonValue& row, const std::string& key, double fallback)
{
    if (!row.Has(key)) return fallback;
    const obs::JsonValue& v = row.At(key);
    if (v.type != obs::JsonValue::Type::kNumber) return fallback;
    return v.number;
}

std::string
StringOr(const obs::JsonValue& row, const std::string& key)
{
    if (!row.Has(key)) return "";
    const obs::JsonValue& v = row.At(key);
    if (v.type != obs::JsonValue::Type::kString) return "";
    return v.str;
}

void
MineKernelRow(const obs::JsonValue& row, std::vector<OpSample>* out,
              ExtractionStats* stats)
{
    const std::string kernel = StringOr(row, "kernel");
    const std::string variant = StringOr(row, "variant");
    const int64_t m = static_cast<int64_t>(NumberOr(row, "m", 0));
    const int64_t k = static_cast<int64_t>(NumberOr(row, "k", 0));
    const int64_t n = static_cast<int64_t>(NumberOr(row, "n", 0));
    const int threads = static_cast<int>(NumberOr(row, "threads", 1));
    const double gflops = NumberOr(row, "gflops", 0.0);
    // Features carry no thread-count dimension: fit the single-threaded
    // kernel surface only (multi-threaded rows would alias it).
    if (threads != 1 || gflops <= 0.0 || m <= 0 || k <= 0 || n <= 0) {
        ++stats->skipped;
        return;
    }
    OpSample sample;
    const double mkn = static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
    if (kernel == "matmul_f32" && variant == "tiled_packed") {
        sample.op = OpClass::kMatMulCpu;
        sample.features = MatMulFeatures(m, k, n);
        sample.measured_ms = 2.0 * mkn / (gflops * 1e6);
    } else if (kernel == "matmul_w8a8_per_tensor" &&
               variant == "tiled_packed") {
        sample.op = OpClass::kMatMulNpu;
        sample.features = MatMulFeatures(m, k, n);
        sample.measured_ms = 2.0 * mkn / (gflops * 1e6);
    } else if (kernel == "paged_attention" && variant == "fused") {
        // bench_kernels prices 4*kv*head_dim flops per (seq, head) row;
        // in row coordinates (m=batch, k=context, n=model width) that is
        // 4*m*k*n total.
        sample.op = OpClass::kAttention;
        sample.features = AttentionFeatures(k, m * n);
        sample.measured_ms = 4.0 * mkn / (gflops * 1e6);
    } else {
        ++stats->skipped;
        return;
    }
    out->push_back(sample);
    ++stats->samples;
}

}  // namespace

bool
SamplesFromBenchResults(const std::string& json_text,
                        std::vector<OpSample>* out, std::string* error,
                        ExtractionStats* stats)
{
    ExtractionStats local;
    if (stats == nullptr) stats = &local;
    obs::JsonValue doc;
    if (!obs::ParseJson(json_text, &doc, error)) return false;
    if (doc.type != obs::JsonValue::Type::kObject || !doc.Has("benches") ||
        doc.At("benches").type != obs::JsonValue::Type::kArray) {
        if (error != nullptr) *error = "no benches array";
        return false;
    }
    for (const obs::JsonValue& bench : doc.At("benches").array) {
        if (bench.type != obs::JsonValue::Type::kObject ||
            StringOr(bench, "name") != "bench_kernels" ||
            !bench.Has("metrics") ||
            bench.At("metrics").type != obs::JsonValue::Type::kArray) {
            continue;
        }
        for (const obs::JsonValue& row : bench.At("metrics").array) {
            if (row.type == obs::JsonValue::Type::kObject) {
                MineKernelRow(row, out, stats);
            }
        }
    }
    return true;
}

bool
SamplesFromTrace(const std::string& trace_text, std::vector<OpSample>* out,
                 std::string* error, ExtractionStats* stats)
{
    ExtractionStats local;
    if (stats == nullptr) stats = &local;
    obs::ReadTrace trace;
    if (!obs::ReadChromeTrace(trace_text, &trace, error)) return false;
    for (const obs::ReadEvent& ev : trace.events) {
        if (ev.ph != "X" || ev.dur_us <= 0.0) continue;
        const bool handoff = ev.name == "handoff.npu_linear" ||
                             ev.name == "handoff.npu_batch" ||
                             ev.name == "handoff.npu_run";
        const bool chunk = ev.name == "replay.prefill";
        if (!handoff && !chunk) continue;
        const auto it = ev.args.find("rows");
        if (it == ev.args.end() ||
            it->second.type != obs::JsonValue::Type::kNumber ||
            it->second.number <= 0.0) {
            ++stats->skipped;  // older trace without the size arg
            continue;
        }
        const int64_t rows = static_cast<int64_t>(it->second.number);
        OpSample s;
        s.op = handoff ? OpClass::kHandoff : OpClass::kChunkDispatch;
        s.features = handoff ? HandoffFeatures(rows)
                             : ChunkDispatchFeatures(rows);
        s.measured_ms = ev.dur_us * 1e-3;
        out->push_back(s);
        ++stats->samples;
    }
    return true;
}

}  // namespace predict
}  // namespace llmnpu
