/**
 * @file
 * Reproduces Figure 16: generation speed vs accuracy across outlier pruning
 * rates — accuracy from real numerics on proxies, speed from the timing
 * plane at the matching pruning rate.
 */

#include "bench/bench_util.h"
#include "src/core/llmnpu_engine.h"
#include "src/core/outlier_profile.h"
#include "src/core/shadow_executor.h"
#include "src/workloads/accuracy.h"
#include "src/workloads/corpus.h"

namespace llmnpu {
namespace {

void
RunModel(const ModelConfig& base)
{
    const SocSpec soc = SocSpec::RedmiK70Pro();
    const ModelConfig proxy = ScaledProxy(base, 192, 4, 512);
    ModelWeights weights = GenerateSyntheticWeights(
        proxy, 0x11f ^ std::hash<std::string>{}(base.name));
    Transformer model(weights);

    CorpusOptions corpus_options;
    corpus_options.vocab_size = proxy.vocab_size;
    corpus_options.num_sequences = 6;
    corpus_options.min_len = 24;
    corpus_options.max_len = 48;
    const auto calib_corpus = MakeCorpus(corpus_options);
    const CalibrationData calib =
        CalibrationData::Collect(model, calib_corpus);
    const OutlierProfile profile =
        OutlierProfile::Collect(model, calib, calib_corpus);
    corpus_options.seed = 0x16;
    corpus_options.num_sequences = 12;
    const auto eval = MakeCorpus(corpus_options);

    std::printf("\n-- %s --\n", base.name.c_str());
    Table table({"Pruning rate", "agreement (accuracy proxy)",
                 "prefill speed (tok/s)"});
    // run_all --quick: just the endpoints and the paper's default rate.
    const bool quick = QuickMode();
    const std::vector<double> rates =
        quick ? std::vector<double>{0.0, 0.85, 1.0}
              : std::vector<double>{0.0, 0.25, 0.5, 0.75, 0.85, 1.0};
    for (double rate : rates) {
        NpuShadowExecutor executor(weights, profile, rate);
        const double agreement =
            EvaluateAgreement(model, executor, eval).top1_agreement * 100.0;

        LlmNpuOptions options;
        options.pruning_rate = rate;
        LlmNpuEngine engine(options);
        const EngineResult result = engine.Run(base, soc, {1024, 1});
        table.AddRow({Table::Num(rate * 100.0, 0) + "%",
                      Table::Num(agreement, 1) + "%",
                      Table::Num(result.PrefillTokensPerSec(1024), 0)});
    }
    table.Print();
}

void
Run()
{
    BenchHeader("Figure 16: speed-accuracy tradeoff vs outlier pruning rate",
                "0% pruning: highest accuracy, slowest (156/102 tok/s "
                "decode-inclusive); 100% pruning: fastest but accuracy "
                "collapses (8.1%/41.9%)");
    RunModel(Qwen15_1_8B());
    if (!QuickMode()) {
        RunModel(Gemma2B());
    }
    std::printf("\nShape check: speed rises and agreement falls "
                "monotonically with the pruning rate; the knee sits around "
                "the paper's default 85%%.\n");
}

}  // namespace
}  // namespace llmnpu

int
main()
{
    llmnpu::Run();
    return 0;
}
