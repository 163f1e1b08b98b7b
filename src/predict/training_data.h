/**
 * @file
 * Training-set extraction for the latency model: BENCH_results.json is an
 * *input* here, not a report. Two sources feed LatencyModel::Fit —
 *
 *  - kernel GFLOP/s METRIC rows (bench_kernels), inverted back to
 *    milliseconds, and
 *  - per-span durations from an obs-tracer Chrome trace of a replayed
 *    serving schedule (src/obs/trace_reader.h parses them back).
 *
 * Both extractors are tolerant: unknown benches, kernels and span names
 * are skipped (counted, not fatal), so the predictor keeps fitting as the
 * bench schema grows.
 */
#ifndef LLMNPU_PREDICT_TRAINING_DATA_H
#define LLMNPU_PREDICT_TRAINING_DATA_H

#include <string>
#include <vector>

#include "src/predict/latency_model.h"

namespace llmnpu {
namespace predict {

/** Extraction outcome: the samples plus how many candidate rows/spans
 *  were recognized but unusable (missing fields, zero durations). */
struct ExtractionStats {
    int samples = 0;
    int skipped = 0;
};

/**
 * Extracts op samples from a BENCH_results.json document (llmnpu-bench-v2
 * schema). Mined bench_kernels rows:
 *
 *  - matmul_f32/tiled_packed and matmul_w8a8_per_tensor/tiled_packed at
 *    threads=1 (ms recovered from GFLOP/s as 2*m*k*n / (gflops * 1e6))
 *    -> kMatMulCpu / kMatMulNpu;
 *  - paged_attention/fused at threads=1 (4*m*k*n flops: m=batch,
 *    k=context, n=model width) -> kAttention.
 *
 * Rows of every other bench are not read.
 *
 * @return false with `error` only on malformed JSON; an input with no
 * usable rows succeeds with zero samples appended.
 */
bool SamplesFromBenchResults(const std::string& json_text,
                             std::vector<OpSample>* out, std::string* error,
                             ExtractionStats* stats = nullptr);

/**
 * Extracts op samples from an obs-tracer Chrome trace document. Mined
 * complete ("X") spans:
 *
 *  - handoff.npu_linear / handoff.npu_batch / handoff.npu_run with a
 *    "rows" arg -> kHandoff (npu_linear is no longer emitted, but older
 *    recorded traces hold it);
 *  - replay.prefill with a "rows" arg (chunk token count) ->
 *    kChunkDispatch.
 *
 * Spans without the size arg (older traces) are skipped.
 */
bool SamplesFromTrace(const std::string& trace_text,
                      std::vector<OpSample>* out, std::string* error,
                      ExtractionStats* stats = nullptr);

}  // namespace predict
}  // namespace llmnpu

#endif  // LLMNPU_PREDICT_TRAINING_DATA_H
