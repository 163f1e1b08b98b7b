/**
 * @file
 * Reproduces Figure 12: per-linear outlier importance (largest outlier over
 * the quantization scale) and the accuracy-vs-pruned-layers curve.
 */

#include "bench/bench_util.h"
#include "src/core/outlier_profile.h"
#include "src/core/shadow_executor.h"
#include "src/workloads/accuracy.h"
#include "src/workloads/corpus.h"

namespace llmnpu {
namespace {

void
Run()
{
    BenchHeader("Figure 12: outlier importance and pruning impact",
                "importance varies widely across linears; pruning the "
                "least-important ~85% keeps accuracy within ~1%, pruning "
                "everything collapses it");
    const ModelConfig proxy = ScaledProxy(Qwen15_1_8B(), 192, 6, 512);
    ModelWeights weights = GenerateSyntheticWeights(proxy);
    Transformer model(weights);

    CorpusOptions corpus_options;
    corpus_options.vocab_size = proxy.vocab_size;
    corpus_options.num_sequences = 6;
    corpus_options.min_len = 32;
    corpus_options.max_len = 64;
    const auto corpus = MakeCorpus(corpus_options);
    const CalibrationData calib = CalibrationData::Collect(model, corpus);
    const OutlierProfile profile =
        OutlierProfile::Collect(model, calib, corpus);

    // Left panel: importance per linear, in layer order.
    Table left({"Linear index", "layer", "kind", "importance", "rank"});
    int index = 0;
    for (int l = 0; l < proxy.num_layers; ++l) {
        for (const auto& spec : proxy.LayerLinears()) {
            const auto& stats = profile.Stats(l, spec.kind);
            left.AddRow({StrFormat("%d", index++), StrFormat("%d", l),
                         LinearKindName(spec.kind),
                         Table::Num(stats.importance, 2),
                         StrFormat("%d",
                                   profile.ImportanceRank(l, spec.kind))});
        }
    }
    left.Print();

    // Right panel: accuracy vs pruning rate.
    // run_all --quick: fewer eval sequences and only the key rates.
    const bool quick = QuickMode();
    corpus_options.seed = 0xe;
    corpus_options.num_sequences = quick ? 6 : 12;
    const auto eval = MakeCorpus(corpus_options);
    std::printf("\nAccuracy (top-1 agreement with FP16) vs pruned "
                "fraction:\n");
    Table right({"Pruning rate", "agreement", "resident shadow weights"});
    const std::vector<double> rates =
        quick ? std::vector<double>{0.0, 0.85, 1.0}
              : std::vector<double>{0.0, 0.25, 0.5, 0.75, 0.85, 0.95, 1.0};
    for (double rate : rates) {
        NpuShadowExecutor executor(weights, profile, rate);
        const AccuracyResult result =
            EvaluateAgreement(model, executor, eval);
        right.AddRow({Table::Num(rate * 100.0, 0) + "%",
                      Table::Num(result.top1_agreement * 100.0, 1) + "%",
                      HumanBytes(static_cast<uint64_t>(
                          executor.ResidentShadowWeightBytes()))});
    }
    right.Print();
    std::printf("\nShape check: accuracy holds while pruning the "
                "unimportant tail and collapses as the important linears "
                "lose their shadow path (paper Figure 12 right).\n");
}

}  // namespace
}  // namespace llmnpu

int
main()
{
    llmnpu::Run();
    return 0;
}
