/**
 * @file
 * Latency-predictor benchmark: fits the per-op model from the repo's own
 * committed measurements and reports held-in prediction error per class.
 *
 * The committed BENCH_results.json is an *input* here, not a report:
 * kernel GFLOP/s rows are inverted back to milliseconds and fitted per op
 * class, while the handoff / chunk-dispatch classes are
 * fitted from a freshly traced tiny-model replay (the same
 * ReplayServingTrace path production schedules go through, with
 * ReplayOptions::trace_sink capturing the spans).
 *
 * Emitted METRIC rows (folded into BENCH_results.json by run_all):
 *  - fit_error: per-class sample count + median/mean/max relative error.
 *    Classes sourced from the committed bench JSON are banded in CI
 *    (median relative error <= 25%); wall-clock trace classes are
 *    informational (host timing noise is not a regression).
 *  - roundtrip: Serialize -> Parse fidelity (bitwise text, prediction
 *    deltas) of the fitted model.
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/llmnpu_engine.h"
#include "src/core/outlier_profile.h"
#include "src/core/shadow_executor.h"
#include "src/model/decode_backend.h"
#include "src/model/transformer.h"
#include "src/predict/latency_model.h"
#include "src/predict/training_data.h"
#include "src/quant/calibration.h"
#include "src/serving/cost_model.h"
#include "src/serving/replay.h"
#include "src/serving/simulator.h"
#include "src/workloads/corpus.h"

#ifndef LLMNPU_BASELINE_JSON
#define LLMNPU_BASELINE_JSON ""
#endif

namespace llmnpu {
namespace {

using predict::ExtractionStats;
using predict::LatencyModel;
using predict::OpClass;
using predict::OpClassName;
using predict::OpErrorStats;
using predict::OpSample;

std::string
ReadFileOrEmpty(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) return "";
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The committed baseline to train from: env override, else the path the
 *  build baked in (the source tree's BENCH_results.json). */
std::string
BaselinePath()
{
    const char* env = std::getenv("LLMNPU_BASELINE_JSON");
    if (env != nullptr && env[0] != '\0') return env;
    return LLMNPU_BASELINE_JSON;
}

/** Runs a small served schedule through the tiny real model with tracing
 *  on, NPU-placed so the CPU<->NPU handoff boundary actually fires, and
 *  returns the Chrome trace text (the handoff / chunk-dispatch training
 *  source). */
std::string
TraceTinyReplay(const char* sink_path)
{
    // The serving schedule prices against the calibrated Qwen cost model;
    // the replay executes it on the tiny model (same split bench_serving's
    // traced scenario uses — the replay only consumes steps and records).
    const SocSpec soc = SocSpec::RedmiK70Pro();
    const ModelConfig qwen = Qwen15_1_8B();
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen, soc);

    ServingOptions options;
    options.num_requests = 6;
    options.rate_rps = 50.0;
    options.seed = 7;
    const ServingResult served =
        ServingSimulator(costs, PaperDatasets(), options).Run();

    const ModelConfig tiny = TinyTestConfig();
    const ModelWeights weights = GenerateSyntheticWeights(tiny);
    const Transformer model(weights);

    CorpusOptions calib_options;
    calib_options.vocab_size = tiny.vocab_size;
    calib_options.num_sequences = 4;
    calib_options.min_len = 16;
    calib_options.max_len = 32;
    const std::vector<std::vector<int>> calib_corpus =
        MakeCorpus(calib_options);
    const CalibrationData calib =
        CalibrationData::Collect(model, calib_corpus);
    const OutlierProfile profile =
        OutlierProfile::Collect(model, calib, calib_corpus);

    Fp32LinearExecutor fp32(weights);
    NpuShadowExecutor shadow(weights, profile, 0.5);
    DecodeBackend backend(fp32, shadow);

    ReplayOptions replay_options;
    replay_options.max_prompt_tokens = 16;
    replay_options.max_output_tokens = 8;
    replay_options.check_bitwise = false;
    ReplayPlacement placement;
    placement.prefill = DecodePlacement::kNpuQuant;
    placement.decode = DecodePlacement::kNpuQuant;
    replay_options.placement = placement;
    replay_options.trace_sink = sink_path;
    ReplayServingTrace(served.replay_steps, served.records, model, backend,
                       replay_options);
    return ReadFileOrEmpty(sink_path);
}

void
Run()
{
    BenchHeader(
        "Latency predictor: per-op model fitted from committed measurements",
        "per-op latency prediction direction (PAPERS.md): kernel, handoff "
        "and chunk-dispatch costs fitted from the repo's own measurements");

    // ------------------------------------------------ training extraction
    std::vector<OpSample> samples;
    std::string error;

    const std::string baseline_path = BaselinePath();
    const std::string baseline = ReadFileOrEmpty(baseline_path);
    ExtractionStats bench_stats;
    if (baseline.empty()) {
        std::printf("WARNING: no baseline JSON at '%s' — file-sourced "
                    "classes will be unfitted\n",
                    baseline_path.c_str());
    } else if (!predict::SamplesFromBenchResults(baseline, &samples, &error,
                                                 &bench_stats)) {
        std::printf("WARNING: baseline parse failed: %s\n", error.c_str());
    }
    std::printf("bench JSON:  %d samples (%d rows skipped) from %s\n",
                bench_stats.samples, bench_stats.skipped,
                baseline_path.c_str());

    // Named so run_all's bench_* binary discovery glob never picks it up.
    const std::string trace = TraceTinyReplay("predict_replay_trace.json");
    ExtractionStats trace_stats;
    if (trace.empty()) {
        std::printf("WARNING: traced replay produced no trace\n");
    } else if (!predict::SamplesFromTrace(trace, &samples, &error,
                                          &trace_stats)) {
        std::printf("WARNING: trace parse failed: %s\n", error.c_str());
    }
    std::printf("replay trace: %d samples (%d spans skipped)\n\n",
                trace_stats.samples, trace_stats.skipped);

    // --------------------------------------------------------------- fit
    LatencyModel model;
    model.Fit(samples);

    // Per-class held-in error: the tracked prediction-quality METRIC.
    // Classes trained from the committed bench JSON carry a CI band
    // (median relative error <= 25%, bench/bench_check.cc);
    // wall-clock trace classes report but do not gate.
    const struct {
        OpClass op;
        const char* source;
        bool banded;
    } kClasses[] = {
        {OpClass::kMatMulCpu, "bench_json", true},
        {OpClass::kMatMulNpu, "bench_json", true},
        {OpClass::kAttention, "bench_json", true},
        {OpClass::kHandoff, "trace", false},
        {OpClass::kChunkDispatch, "trace", false},
    };

    Table err_table({"op class", "source", "samples", "median err",
                     "mean err", "max err"});
    for (const auto& cls : kClasses) {
        if (!model.Fitted(cls.op)) {
            std::printf("  (op class %s unfitted — no samples)\n",
                        OpClassName(cls.op));
            continue;
        }
        const OpErrorStats stats = model.Evaluate(cls.op, samples);
        err_table.AddRow({OpClassName(cls.op), cls.source,
                          std::to_string(stats.samples),
                          Table::Num(stats.median_rel_err * 100.0, 1) + "%",
                          Table::Num(stats.mean_rel_err * 100.0, 1) + "%",
                          Table::Num(stats.max_rel_err * 100.0, 1) + "%"});
        std::printf("METRIC {\"bench\": \"predict\", \"mode\": "
                    "\"fit_error\", \"op\": \"%s\", \"source\": \"%s\", "
                    "\"banded\": %s, \"samples\": %d, "
                    "\"median_rel_err\": %.4f, \"mean_rel_err\": %.4f, "
                    "\"max_rel_err\": %.4f}\n",
                    OpClassName(cls.op), cls.source,
                    cls.banded ? "true" : "false", stats.samples,
                    stats.median_rel_err, stats.mean_rel_err,
                    stats.max_rel_err);
    }
    std::printf("\nPrediction error by op class (held-in):\n");
    err_table.Print();

    // --------------------------------------------------------- roundtrip
    const std::string text = model.Serialize();
    LatencyModel reloaded;
    const bool parsed = LatencyModel::Parse(text, &reloaded, &error);
    bool bitwise = parsed && reloaded.Serialize() == text;
    double max_delta = 0.0;
    if (parsed) {
        for (const auto& cls : kClasses) {
            if (!model.Fitted(cls.op)) continue;
            for (const OpSample& s : samples) {
                if (s.op != cls.op) continue;
                const double d =
                    std::fabs(model.PredictMs(cls.op, s.features) -
                              reloaded.PredictMs(cls.op, s.features));
                if (d > max_delta) max_delta = d;
            }
        }
    }
    std::printf("\nSerialization: %zu bytes, %s round-trip "
                "(max prediction delta %.3g ms)\n",
                text.size(), bitwise ? "bitwise" : "LOSSY", max_delta);
    std::printf("METRIC {\"bench\": \"predict\", \"mode\": \"roundtrip\", "
                "\"bytes\": %zu, \"bitwise\": %s, "
                "\"max_pred_delta_ms\": %.3g}\n",
                text.size(), bitwise ? "true" : "false", max_delta);
}

}  // namespace
}  // namespace llmnpu

int
main()
{
    llmnpu::Run();
    return 0;
}
