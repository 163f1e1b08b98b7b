/**
 * @file
 * Reproduces Table 6: inference accuracy of llm.npu's quantization vs FP16,
 * SmoothQuant, LLM.Int8() and K-Quant across five benchmark proxies.
 *
 * Substitution (DESIGN.md §2): absolute benchmark accuracy needs trained
 * checkpoints; the proxy metric is top-1 agreement with the FP16 reference
 * on outlier-bearing synthetic models — the prediction flips quantization
 * causes, which is what orders Table 6.
 */

#include "bench/bench_util.h"
#include "src/core/outlier_profile.h"
#include "src/core/shadow_executor.h"
#include "src/quant/baselines.h"
#include "src/util/stats.h"
#include "src/workloads/accuracy.h"
#include "src/workloads/corpus.h"

namespace llmnpu {
namespace {

void
Run()
{
    BenchHeader("Table 6: quantization accuracy (proxy: top-1 agreement "
                "with FP16)",
                "Ours averages ~1% below FP16 and matches LLM.Int8() while "
                "beating K-Quant and SmoothQuant (SmoothQuant worst)");

    // Aggregates across models for the paper's "Avg. Degrad." row.
    RunningStat ours_stat, ours_full_stat, int8_stat, kquant_stat,
        smooth_stat, naive_stat;

    // run_all --quick: two models and fewer eval contexts keep CI fast;
    // the full sweep covers all five paper models.
    const bool quick = QuickMode();
    std::vector<ModelConfig> models = PaperModels();
    if (quick) models.resize(2);
    const int eval_contexts = quick ? 3 : 8;

    for (const ModelConfig& base : models) {
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

        SmoothQuantExecutor smooth(weights, calib);
        LlmInt8Executor llm_int8(weights, calib);
        KQuantExecutor kquant(weights, 32);
        PerTensorExecutor naive(weights);
        // Both pruning settings: the paper's default 0.85 (calibrated for
        // 24-32-layer models; on a 4-layer proxy it keeps only ~5 linears,
        // so it reads as a lower bound) and the unpruned upper bound.
        NpuShadowExecutor ours(weights, profile, /*pruning_rate=*/0.85);
        NpuShadowExecutor ours_full(weights, profile, /*pruning_rate=*/0.0);

        std::printf("\n-- %s proxy --\n", base.name.c_str());
        Table table({"Benchmark proxy", "FP16", "SQ", "Int8()", "K-Quant",
                     "PerTensor", "Ours p=.85", "Ours p=0"});
        for (const EvalSet& eval :
             MakeBenchmarkEvalSets(proxy.vocab_size, eval_contexts)) {
            auto agree = [&](LinearExecutor& executor) {
                return EvaluateAgreement(model, executor, eval.contexts)
                           .top1_agreement *
                       100.0;
            };
            const double a_smooth = agree(smooth);
            const double a_int8 = agree(llm_int8);
            const double a_kquant = agree(kquant);
            const double a_naive = agree(naive);
            const double a_ours = agree(ours);
            const double a_ours_full = agree(ours_full);
            table.AddRow({eval.name, "100.0%",
                          Table::Num(a_smooth, 1) + "%",
                          Table::Num(a_int8, 1) + "%",
                          Table::Num(a_kquant, 1) + "%",
                          Table::Num(a_naive, 1) + "%",
                          Table::Num(a_ours, 1) + "%",
                          Table::Num(a_ours_full, 1) + "%"});
            smooth_stat.Add(a_smooth - 100.0);
            int8_stat.Add(a_int8 - 100.0);
            kquant_stat.Add(a_kquant - 100.0);
            naive_stat.Add(a_naive - 100.0);
            ours_stat.Add(a_ours - 100.0);
            ours_full_stat.Add(a_ours_full - 100.0);
        }
        table.Print();
    }

    std::printf("\nAverage degradation vs FP16 (paper in parentheses):\n");
    std::printf("  SmoothQuant  %+6.1f%%  (paper: -5.1%%..-14.9%%)\n",
                smooth_stat.mean());
    std::printf("  LLM.Int8()   %+6.1f%%  (paper: ~-0.1%%)\n",
                int8_stat.mean());
    std::printf("  K-Quant      %+6.1f%%  (paper: -0.7%%..-31.3%%)\n",
                kquant_stat.mean());
    std::printf("  PerTensor    %+6.1f%%  (naive, not in paper table)\n",
                naive_stat.mean());
    std::printf("  Ours p=.85   %+6.1f%%  (paper: ~-1%%; shallow-proxy "
                "lower bound)\n", ours_stat.mean());
    std::printf("  Ours p=0     %+6.1f%%  (upper bound, no pruning)\n",
                ours_full_stat.mean());
    const bool ordering = ours_full_stat.mean() > kquant_stat.mean() &&
                          ours_full_stat.mean() > smooth_stat.mean() &&
                          int8_stat.mean() > smooth_stat.mean() &&
                          kquant_stat.mean() > smooth_stat.mean() &&
                          smooth_stat.mean() > naive_stat.mean();
    std::printf("\nOrdering check (Int8()/Ours > K-Quant > SmoothQuant > "
                "naive per-tensor): %s\n", ordering ? "HOLDS" : "VIOLATED");
    std::printf("Note: the 85%% pruning rate is tuned for 24-32-layer "
                "models; on 4-layer proxies it keeps only ~5 linears, so "
                "'Ours p=.85' under-reads the paper's <1%% claim while "
                "'Ours p=0' bounds it from above.\n");
}

}  // namespace
}  // namespace llmnpu

int
main()
{
    llmnpu::Run();
    return 0;
}
