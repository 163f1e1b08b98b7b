/**
 * @file
 * Serving→numeric bridge walkthrough: simulate a multi-request serving
 * schedule, export its per-step batch composition, and replay it on real
 * tensors through the batched forward path.
 *
 *  1. Timing plane — the discrete-event simulator serves Poisson arrivals
 *     over the Table 5 dataset mixture with llm.npu's chunked prefill and
 *     continuously batched decode, recording every executed quantum.
 *  2. Numeric plane — the recorded schedule replays on a (tiny) real
 *     transformer via Transformer::ForwardBatch: each prefill chunk and
 *     each decode batch runs as one stacked matmul, and every sequence's
 *     hidden states are checked bitwise against running it alone.
 *
 * Build: cmake -B build && cmake --build build
 * Run:   ./build/examples/trace_replay
 */
#include <cstdio>

#include "src/core/llmnpu_engine.h"
#include "src/core/outlier_profile.h"
#include "src/core/shadow_executor.h"
#include "src/serving/replay.h"
#include "src/workloads/corpus.h"

int
main()
{
    using namespace llmnpu;

    // ------------------------------------------------------- serve (timing)
    LlmNpuEngine engine;
    ServingCostModel costs(engine, Qwen15_1_8B(), SocSpec::RedmiK70Pro());
    ServingOptions options;
    options.num_requests = 6;
    options.rate_rps = 100.0;  // heavy load so decode actually batches
    options.seed = 7;
    const ServingResult served =
        ServingSimulator(costs, PaperDatasets(), options).Run();

    int decode_steps = 0, prefill_steps = 0;
    size_t max_batch = 1;
    for (const ReplayStep& step : served.replay_steps) {
        if (step.is_prefill) {
            ++prefill_steps;
        } else {
            ++decode_steps;
            max_batch = std::max(max_batch, step.request_ids.size());
        }
    }
    std::printf("== served schedule (%s on %s) ==\n",
                Qwen15_1_8B().name.c_str(),
                SocSpec::RedmiK70Pro().name().c_str());
    std::printf("%d requests -> %d prefill chunks + %d decode steps, "
                "largest decode batch B=%zu\n\n",
                options.num_requests, prefill_steps, decode_steps, max_batch);

    // ----------------------------------------------------- replay (numeric)
    const ModelConfig tiny = TinyTestConfig();
    const ModelWeights weights = GenerateSyntheticWeights(tiny);
    const Transformer transformer(weights);

    CorpusOptions corpus_options;
    corpus_options.vocab_size = tiny.vocab_size;
    const auto calib_corpus = MakeCorpus(corpus_options);
    const CalibrationData calib =
        CalibrationData::Collect(transformer, calib_corpus);
    const OutlierProfile profile =
        OutlierProfile::Collect(transformer, calib, calib_corpus);

    Fp32LinearExecutor fp32(weights);
    NpuShadowExecutor quantized(weights, profile, /*pruning_rate=*/0.5);

    ReplayOptions replay_options;
    replay_options.max_output_tokens = 64;
    for (LinearExecutor* linears : {static_cast<LinearExecutor*>(&fp32),
                                    static_cast<LinearExecutor*>(&quantized)}) {
        const ReplayOutcome outcome =
            ReplayServingTrace(served.replay_steps, served.records,
                               transformer, *linears, replay_options);
        std::printf("replay [%-7s]: %d steps (%d prefill, %d decode, "
                    "max B=%d), %lld stacked rows -> %s\n",
                    linears->Name().c_str(), outcome.steps_executed,
                    outcome.prefill_steps, outcome.decode_steps,
                    outcome.max_decode_batch,
                    static_cast<long long>(outcome.stacked_rows),
                    outcome.bitwise_match
                        ? "bitwise identical to sequential"
                        : outcome.first_mismatch.c_str());
    }
    return 0;
}
