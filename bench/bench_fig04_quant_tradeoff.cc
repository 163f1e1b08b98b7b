/**
 * @file
 * Reproduces Figure 4: prefill latency and accuracy of quantization
 * algorithms on the NPU — per-group methods (K-Quant/AWQ) pay 8.1-10.7x
 * latency; per-tensor SmoothQuant is fast but loses accuracy.
 *
 * Latency comes from the timing plane (per-group vs per-tensor NPU matmul
 * over a full prefill); accuracy from real numerics on scaled proxies.
 */
#include "bench/bench_util.h"
#include "src/engines/op_cost.h"
#include "src/quant/baselines.h"
#include "src/sim/calibration.h"
#include "src/workloads/accuracy.h"
#include "src/workloads/corpus.h"

namespace llmnpu {
namespace {

double
NpuPrefillMs(const ModelConfig& config, ExecFormat format)
{
    const SocSpec soc = SocSpec::RedmiK70Pro();
    ExecPolicy policy;
    policy.linear_format = format;
    policy.group_size = cal::kPerGroupSize;
    double ms = 0.0;
    for (int l = 0; l < config.num_layers; ++l) {
        ms += BlockLinearsMs(config, soc.Processor(Unit::kNpu), 512, policy);
    }
    return ms;
}

void
Run()
{
    BenchHeader("Figure 4: quantization algorithm latency/accuracy on NPU",
                "per-group (K-Quant/AWQ) costs 8.1-10.7x vs per-tensor; "
                "SmoothQuant per-tensor is fast but drops 3.9%/8.4% accuracy");

    Table latency({"Model", "per-tensor (ms)", "per-group (ms)", "penalty"});
    for (const ModelConfig& config : {Llama2_7B(), Qwen15_1_8B()}) {
        const double pt = NpuPrefillMs(config, ExecFormat::kInt8PerTensor);
        const double pg = NpuPrefillMs(config, ExecFormat::kInt8PerGroup);
        latency.AddRow({config.name, Table::Num(pt, 0), Table::Num(pg, 0),
                        StrFormat("%.1fx (paper: 8.1-10.7x)", pg / pt)});
    }
    latency.Print();

    // Accuracy side: top-1 agreement with FP16 on outlier-bearing proxies.
    std::printf("\nAccuracy proxy (top-1 agreement with FP16, scaled "
                "proxies):\n");
    Table accuracy({"Model proxy", "K-Quant", "AWQ", "SmoothQuant"});
    for (const ModelConfig& base : {Llama2_7B(), Qwen15_1_8B()}) {
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
        corpus_options.seed = 0xe;
        corpus_options.num_sequences = 12;
        const auto eval = MakeCorpus(corpus_options);

        KQuantExecutor kquant(weights, 32);
        AwqExecutor awq(weights, calib);
        SmoothQuantExecutor smooth(weights, calib);
        accuracy.AddRow(
            {proxy.name,
             Table::Num(EvaluateAgreement(model, kquant, eval).top1_agreement *
                            100.0, 1) + "%",
             Table::Num(EvaluateAgreement(model, awq, eval).top1_agreement *
                            100.0, 1) + "%",
             Table::Num(EvaluateAgreement(model, smooth, eval)
                                .top1_agreement * 100.0, 1) + "%"});
    }
    accuracy.Print();
    std::printf("\nShape check: per-group accurate but slow on NPU; "
                "SmoothQuant fast but least accurate.\n");
}

}  // namespace
}  // namespace llmnpu

int
main()
{
    llmnpu::Run();
    return 0;
}
