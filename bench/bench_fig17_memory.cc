/**
 * @file
 * Reproduces Figure 17: memory consumption of llm.npu vs INT8-weight
 * baselines at a 512-token prompt, including the shadow-outlier overhead
 * (0.6-1% of total) and the §3.2 chunk-sharing memory analysis.
 */
#include "bench/bench_util.h"
#include "src/core/chunk_graph.h"
#include "src/core/llmnpu_engine.h"
#include "src/engines/baselines.h"
#include "src/sim/calibration.h"

namespace llmnpu {
namespace {

void
Run()
{
    BenchHeader("Figure 17: memory consumption (512-token prompt)",
                "llm.npu consumes up to 1.32x llama.cpp/TFLite (MLLM/QNN "
                "per-operator buffers); shadow outlier weights add only "
                "0.6-1% of total");
    const SocSpec soc = SocSpec::RedmiK70Pro();
    const InferenceRequest req{512, 1};

    LlamaCppEngine lcpp;
    TfliteEngine tflite_gpu(Unit::kGpu);
    TfliteEngine tflite_cpu(Unit::kCpu);
    LlmNpuEngine ours;

    Table table({"Model", "llama.cpp-CPU", "TFLite-GPU", "TFLite-CPU",
                 "Ours", "Ours/llama.cpp", "shadow weights"});
    for (const ModelConfig& config : {Gemma2B(), Phi2_2_7B()}) {
        const int64_t lcpp_bytes = lcpp.Run(config, soc, req).memory_bytes;
        const int64_t tf_gpu_bytes =
            tflite_gpu.SupportsModel(config)
                ? tflite_gpu.Run(config, soc, req).memory_bytes
                : 0;
        const int64_t tf_cpu_bytes =
            tflite_cpu.SupportsModel(config)
                ? tflite_cpu.Run(config, soc, req).memory_bytes
                : 0;
        const EngineResult our_result = ours.Run(config, soc, req);
        const double kept = 1.0 - ours.options().pruning_rate;
        const int64_t shadow_bytes = static_cast<int64_t>(
            kept * cal::kShadowHotChannelFrac *
            static_cast<double>(config.MatMulParams()) * 4.0);
        table.AddRow(
            {config.name, HumanBytes(static_cast<uint64_t>(lcpp_bytes)),
             tf_gpu_bytes ? HumanBytes(static_cast<uint64_t>(tf_gpu_bytes))
                          : "-",
             tf_cpu_bytes ? HumanBytes(static_cast<uint64_t>(tf_cpu_bytes))
                          : "-",
             HumanBytes(static_cast<uint64_t>(our_result.memory_bytes)),
             StrFormat("%.2fx (paper: <=1.32x)",
                       static_cast<double>(our_result.memory_bytes) /
                           static_cast<double>(lcpp_bytes)),
             StrFormat("%s (%.2f%%)",
                       HumanBytes(static_cast<uint64_t>(shadow_bytes))
                           .c_str(),
                       100.0 * static_cast<double>(shadow_bytes) /
                           static_cast<double>(our_result.memory_bytes))});
    }
    table.Print();

    // §3.2 claim: chunk sharing cuts graph memory by up to 75% (7.2 GB).
    std::printf("\nChunk-sharing graph memory (Qwen1.5-1.8B, prompt 1024, "
                "chunk 256):\n");
    const ModelConfig qwen = Qwen15_1_8B();
    ChunkGraphPlan shared(qwen, 256, true);
    ChunkGraphPlan unshared(qwen, 256, false);
    const int64_t shared_bytes = shared.GraphMemoryBytes(4);
    const int64_t unshared_bytes = unshared.GraphMemoryBytes(4);
    std::printf("  without sharing: %s   with sharing: %s   saved: %s "
                "(%.0f%%; paper: up to 75%% / 7.2 GB)\n",
                HumanBytes(static_cast<uint64_t>(unshared_bytes)).c_str(),
                HumanBytes(static_cast<uint64_t>(shared_bytes)).c_str(),
                HumanBytes(static_cast<uint64_t>(unshared_bytes -
                                                 shared_bytes)).c_str(),
                100.0 * (1.0 - static_cast<double>(shared_bytes) /
                                   static_cast<double>(unshared_bytes)));
    std::printf("  shareable subgraphs: %d of %d (paper: 120 of 144)\n",
                shared.NumSharedSubgraphs(), shared.NumSubgraphs());
}

}  // namespace
}  // namespace llmnpu

int
main()
{
    llmnpu::Run();
    return 0;
}
