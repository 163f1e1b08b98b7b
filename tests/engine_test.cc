/**
 * @file
 * Integration tests across engines: llm.npu's headline performance claims
 * (§4.2-§4.7) hold in shape on the simulated SoC — speedups over every
 * baseline, >1000 tok/s prefill, ablation monotonicity, energy savings,
 * bounded memory overhead, and GPU-NPU coordination behaviour.
 */
#include <gtest/gtest.h>

#include "src/core/llmnpu_engine.h"
#include "src/engines/baselines.h"
#include "src/sim/calibration.h"
#include "src/sim/npu_runtime.h"
#include "src/workloads/datasets.h"
#include "tests/support/tiny_model.h"

namespace llmnpu {
namespace {

class EngineFixture : public PaperDeviceTest
{
  protected:
    InferenceRequest req1024_{1024, 1};
};

TEST(EngineResultTest, PrefillTokensPerSecGuardsZeroPrefill)
{
    // Regression: an empty/instant prefill (prefill_ms == 0, e.g. a
    // zero-length prompt priced by a degenerate engine) used to divide by
    // zero and return inf; throughput of nothing is defined as 0.
    EngineResult result;
    EXPECT_EQ(result.PrefillTokensPerSec(0), 0.0);
    EXPECT_EQ(result.PrefillTokensPerSec(128), 0.0);
    EXPECT_EQ(result.DecodeTokensPerSec(8), 0.0);
    result.prefill_ms = 500.0;
    EXPECT_DOUBLE_EQ(result.PrefillTokensPerSec(1000), 2000.0);
}

TEST(EngineResultTest, ThroughputHelpersMatchDefinitions)
{
    EngineResult result;
    result.prefill_ms = 250.0;
    result.decode_ms = 400.0;
    EXPECT_DOUBLE_EQ(result.DecodeTokensPerSec(8), 20.0);
    // TTFT: prefill plus one decode step.
    EXPECT_DOUBLE_EQ(result.TimeToFirstTokenMs(8), 300.0);
    EXPECT_DOUBLE_EQ(result.TimeToFirstTokenMs(0), 250.0);
    EXPECT_LT(result.TimeToFirstTokenMs(8), result.EndToEndMs());
}

TEST_F(EngineFixture, ResultHelpersConsistentOnRealEngine)
{
    // The serving layer and the benches share these helper definitions;
    // they must agree with the raw latency fields on a real run.
    LlmNpuEngine ours;
    const InferenceRequest req{1024, 16};
    const EngineResult result = ours.Run(qwen_, soc_, req);
    EXPECT_NEAR(result.DecodeTokensPerSec(req.output_len),
                req.output_len / (result.decode_ms / 1e3), 1e-6);
    EXPECT_GT(result.TimeToFirstTokenMs(req.output_len),
              result.prefill_ms);
    EXPECT_LT(result.TimeToFirstTokenMs(req.output_len),
              result.EndToEndMs());
}

TEST_F(EngineFixture, HeadlineQwenPrefillOver1000TokensPerSec)
{
    // §4.2: ">1000 tokens/sec prefilling for a billion-sized model".
    LlmNpuEngine ours;
    const EngineResult result = ours.Run(qwen_, soc_, req1024_);
    EXPECT_GT(result.PrefillTokensPerSec(1024), 1000.0);
}

TEST_F(EngineFixture, BeatsLlamaCppByPaperMagnitude)
{
    // Figure 14 @1024: 18.2-38.4x over llama.cpp-CPU; accept 10-60x.
    LlmNpuEngine ours;
    LlamaCppEngine lcpp;
    const double speedup = lcpp.Run(qwen_, soc_, req1024_).prefill_ms /
                           ours.Run(qwen_, soc_, req1024_).prefill_ms;
    EXPECT_GT(speedup, 10.0);
    EXPECT_LT(speedup, 60.0);
}

TEST_F(EngineFixture, BeatsMnnModerately)
{
    // Figure 14 @1024: ~7.3x over MNN-CPU; accept 3-20x.
    LlmNpuEngine ours;
    MnnCpuEngine mnn;
    const double speedup = mnn.Run(qwen_, soc_, req1024_).prefill_ms /
                           ours.Run(qwen_, soc_, req1024_).prefill_ms;
    EXPECT_GT(speedup, 3.0);
    EXPECT_LT(speedup, 20.0);
}

TEST_F(EngineFixture, BeatsMlcHeavily)
{
    // Figure 14 @1024: 32.5-43.6x over MLC-GPU; accept 15-80x.
    LlmNpuEngine ours;
    MlcGpuEngine mlc;
    const double speedup = mlc.Run(qwen_, soc_, req1024_).prefill_ms /
                           ours.Run(qwen_, soc_, req1024_).prefill_ms;
    EXPECT_GT(speedup, 15.0);
    EXPECT_LT(speedup, 80.0);
}

TEST_F(EngineFixture, BeatsTfliteGpuModestly)
{
    // Figure 14 @1024 (Gemma-2B): 1.27-2.34x over TFLite-GPU.
    LlmNpuEngine ours;
    TfliteEngine tflite(Unit::kGpu);
    const ModelConfig gemma = Gemma2B();
    const double speedup = tflite.Run(gemma, soc_, req1024_).prefill_ms /
                           ours.Run(gemma, soc_, req1024_).prefill_ms;
    EXPECT_GT(speedup, 1.05);
    EXPECT_LT(speedup, 4.0);
}

TEST_F(EngineFixture, BeatsPowerInferV2)
{
    // Figure 14 @1024: 3.28-5.32x over PowerInfer-V2; accept 2-8x.
    LlmNpuEngine ours;
    PowerInferV2Engine pi2;
    const ModelConfig llama = Llama2_7B();
    const double speedup = pi2.Run(llama, soc_, req1024_).prefill_ms /
                           ours.Run(llama, soc_, req1024_).prefill_ms;
    EXPECT_GT(speedup, 2.0);
    EXPECT_LT(speedup, 8.0);
}

TEST_F(EngineFixture, ShortPromptsBenefitLess)
{
    // §4.2: speedups at 64 tokens are smaller than at 1024 (padding +
    // reduced OoO headroom).
    LlmNpuEngine ours;
    LlamaCppEngine lcpp;
    const InferenceRequest req64{64, 1};
    const double speedup_64 = lcpp.Run(qwen_, soc_, req64).prefill_ms /
                              ours.Run(qwen_, soc_, req64).prefill_ms;
    const double speedup_1024 = lcpp.Run(qwen_, soc_, req1024_).prefill_ms /
                                ours.Run(qwen_, soc_, req1024_).prefill_ms;
    EXPECT_LT(speedup_64, speedup_1024);
    EXPECT_GT(speedup_64, 1.0);
}

TEST_F(EngineFixture, NaiveNpuSlowerThanCpu)
{
    // Figure 19: direct NPU offload is 2.55-2.68x *slower* than CPU.
    NaiveNpuEngine naive;
    LlamaCppEngine lcpp;
    const InferenceRequest req{512, 1};
    const double ratio = naive.Run(qwen_, soc_, req).prefill_ms /
                         lcpp.Run(qwen_, soc_, req).prefill_ms;
    EXPECT_GT(ratio, 1.3);
    EXPECT_LT(ratio, 5.0);
}

TEST_F(EngineFixture, AblationLadderIsMonotone)
{
    // Figure 19: each technique improves prefill speed.
    const InferenceRequest req{512, 1};

    LlmNpuOptions chunk_only;
    chunk_only.enable_shadow = false;
    chunk_only.enable_ooo = false;
    LlmNpuOptions chunk_outlier = chunk_only;
    chunk_outlier.enable_shadow = true;
    LlmNpuOptions full = chunk_outlier;
    full.enable_ooo = true;

    NaiveNpuEngine naive;
    LlmNpuEngine e_chunk(chunk_only);
    LlmNpuEngine e_outlier(chunk_outlier);
    LlmNpuEngine e_full(full);

    const double t_naive = naive.Run(qwen_, soc_, req).prefill_ms;
    const double t_chunk = e_chunk.Run(qwen_, soc_, req).prefill_ms;
    const double t_outlier = e_outlier.Run(qwen_, soc_, req).prefill_ms;
    const double t_full = e_full.Run(qwen_, soc_, req).prefill_ms;

    EXPECT_LT(t_chunk, t_naive);
    EXPECT_LT(t_outlier, t_chunk);
    EXPECT_LT(t_full, t_outlier);
    // Shadow-outlier (per-tensor) is the biggest single step (§4.7:
    // 3.91-8.68x), OoO contributes 18-44%.
    EXPECT_GT(t_chunk / t_outlier, 2.0);
    const double ooo_gain = t_outlier / t_full;
    EXPECT_GT(ooo_gain, 1.10);
    EXPECT_LT(ooo_gain, 1.80);
}

TEST_F(EngineFixture, OooReducesBubbleRate)
{
    // Figure 13: 37% bubble rate naive vs ~0.7% with OoO (we accept wider
    // bands: FIFO > 15%, OoO < 8%).
    LlmNpuOptions fifo_options;
    fifo_options.enable_ooo = false;
    LlmNpuEngine fifo_engine(fifo_options);
    LlmNpuEngine ooo_engine;
    const double fifo_bubble =
        fifo_engine.Run(qwen_, soc_, req1024_).npu_bubble_rate;
    const double ooo_bubble =
        ooo_engine.Run(qwen_, soc_, req1024_).npu_bubble_rate;
    EXPECT_GT(fifo_bubble, 0.15);
    EXPECT_LT(ooo_bubble, 0.08);
    EXPECT_LT(ooo_bubble, fifo_bubble);
}

TEST_F(EngineFixture, EnergySavingsVsCpuInPaperBand)
{
    // Figure 15 @1024: 35.6-59.5x vs llama.cpp-CPU; accept 15-90x.
    const SocSpec k60 = SocSpec::RedmiK60Pro();
    LlmNpuEngine ours;
    LlamaCppEngine lcpp;
    const double ratio = lcpp.Run(qwen_, k60, req1024_).prefill_energy_mj /
                         ours.Run(qwen_, k60, req1024_).prefill_energy_mj;
    EXPECT_GT(ratio, 15.0);
    EXPECT_LT(ratio, 90.0);
}

TEST_F(EngineFixture, EnergySavingsVsGpuInPaperBand)
{
    // Figure 15 @1024 (Gemma): 1.85-4.32x vs TFLite-GPU; accept 1.2-8x.
    const SocSpec k60 = SocSpec::RedmiK60Pro();
    LlmNpuEngine ours;
    TfliteEngine tflite(Unit::kGpu);
    const ModelConfig gemma = Gemma2B();
    const double ratio = tflite.Run(gemma, k60, req1024_).prefill_energy_mj /
                         ours.Run(gemma, k60, req1024_).prefill_energy_mj;
    EXPECT_GT(ratio, 1.2);
    EXPECT_LT(ratio, 8.0);
}

TEST_F(EngineFixture, MemoryOverheadBounded)
{
    // Figure 17: ours consumes up to ~1.32x llama.cpp's memory.
    LlmNpuEngine ours;
    LlamaCppEngine lcpp;
    const ModelConfig gemma = Gemma2B();
    const InferenceRequest req{512, 1};
    const double ratio =
        static_cast<double>(ours.Run(gemma, soc_, req).memory_bytes) /
        static_cast<double>(lcpp.Run(gemma, soc_, req).memory_bytes);
    EXPECT_GT(ratio, 1.0);
    EXPECT_LT(ratio, 1.6);
}

TEST_F(EngineFixture, GpuNpuCoordinationMatchesPrefillButCutsE2e)
{
    // Figure 18: GPU-NPU prefill ~= CPU-NPU prefill; end-to-end drops
    // thanks to faster decode.
    LlmNpuOptions gpu_options;
    gpu_options.use_gpu_float = true;
    LlmNpuEngine cpu_npu;
    LlmNpuEngine gpu_npu(gpu_options);
    const ModelConfig gemma = Gemma2B();
    const InferenceRequest req{1024, 8};
    const EngineResult with_cpu = cpu_npu.Run(gemma, soc_, req);
    const EngineResult with_gpu = gpu_npu.Run(gemma, soc_, req);
    EXPECT_NEAR(with_gpu.prefill_ms / with_cpu.prefill_ms, 1.0, 0.10);
    EXPECT_LT(with_gpu.decode_ms, with_cpu.decode_ms);
    EXPECT_LT(with_gpu.EndToEndMs(), with_cpu.EndToEndMs());
}

TEST_F(EngineFixture, PrefillDominatesE2eOnLongPrompts)
{
    // Figure 1: prefill is 88-99% of end-to-end latency on CPU engines for
    // long-prompt/short-output workloads.
    LlamaCppEngine lcpp;
    const InferenceRequest req = Longbench2WikiProfile().Typical();
    const EngineResult result = lcpp.Run(qwen_, soc_, req);
    const double share = result.prefill_ms / result.EndToEndMs();
    EXPECT_GT(share, 0.88);
}

TEST_F(EngineFixture, DecodeShareGrowsWithOutputLength)
{
    LlamaCppEngine lcpp;
    const InferenceRequest chat = PersonaChatProfile().Typical();
    const EngineResult result = lcpp.Run(qwen_, soc_, chat);
    const double prefill_share = result.prefill_ms / result.EndToEndMs();
    EXPECT_LT(prefill_share, 0.88);  // chat summary: decode matters
}

TEST_F(EngineFixture, PreparationAmortizedOnlyWhenChunked)
{
    LlmNpuEngine chunked;
    NaiveNpuEngine unchunked;
    const EngineResult a = chunked.Run(qwen_, soc_, req1024_);
    const EngineResult b = unchunked.Run(qwen_, soc_, req1024_);
    // Chunked: the fixed-shape graphs are prepared offline; prefill is the
    // execution makespan alone.
    EXPECT_GT(a.prepare_ms, 0.0);
    EXPECT_EQ(a.prefill_ms,
              chunked.SimulatePrefill(qwen_, soc_, req1024_.prompt_len)
                  .timeline.makespan_ms);
    // Unchunked: the whole-prompt graph is built for this prompt length
    // inside the inference, so the build lands inside prefill.
    NpuGraphDesc whole_prompt;
    whole_prompt.num_ops = qwen_.num_layers * 13;
    whole_prompt.const_bytes =
        qwen_.MatMulParams() + qwen_.vocab_size * qwen_.hidden_size;
    const double build_ms = cal::kNpuEnvSetupMs +
                            NpuRuntime::CostsFor(whole_prompt).TotalPrepareMs();
    EXPECT_GT(b.prefill_ms, build_ms);
    EXPECT_GT(b.prefill_ms, a.prefill_ms * 2.0);
}

TEST_F(EngineFixture, SevenBModelsStillFasterThanCpu)
{
    // The 4 GB NPU region forces graph swapping on LlaMA-2-7B, but llm.npu
    // must stay far ahead of CPU baselines (Table 5).
    LlmNpuEngine ours;
    LlamaCppEngine lcpp;
    const ModelConfig llama = Llama2_7B();
    const double speedup = lcpp.Run(llama, soc_, req1024_).prefill_ms /
                           ours.Run(llama, soc_, req1024_).prefill_ms;
    EXPECT_GT(speedup, 8.0);
}

TEST_F(EngineFixture, AllPaperModelsRunEndToEnd)
{
    LlmNpuEngine ours;
    for (const auto& config : PaperModels()) {
        const EngineResult result = ours.Run(config, soc_, {256, 4});
        EXPECT_GT(result.prefill_ms, 0.0) << config.name;
        EXPECT_GT(result.decode_ms, 0.0) << config.name;
        EXPECT_GT(result.prefill_energy_mj, 0.0) << config.name;
        EXPECT_GT(result.memory_bytes, config.MatMulParams()) << config.name;
    }
}

TEST_F(EngineFixture, Gen2DeviceSlowerThanGen3)
{
    LlmNpuEngine ours;
    const SocSpec k60 = SocSpec::RedmiK60Pro();
    EXPECT_GT(ours.Run(qwen_, k60, req1024_).prefill_ms,
              ours.Run(qwen_, soc_, req1024_).prefill_ms);
}

TEST_F(EngineFixture, SupportMatrixMatchesPaper)
{
    MnnCpuEngine mnn;
    TfliteEngine tflite(Unit::kGpu);
    PowerInferV2Engine pi2;
    EXPECT_TRUE(mnn.SupportsModel(Qwen15_1_8B()));
    EXPECT_FALSE(mnn.SupportsModel(Gemma2B()));
    EXPECT_TRUE(tflite.SupportsModel(Gemma2B()));
    EXPECT_FALSE(tflite.SupportsModel(Llama2_7B()));
    EXPECT_TRUE(pi2.SupportsModel(Llama2_7B()));
    // Covered since the decode-on-NPU converters landed: dense-activation
    // models no longer need PowerInfer's sparsity predictor (beyond-paper
    // coverage; Table 5 leaves the cell "-").
    EXPECT_TRUE(pi2.SupportsModel(Gemma2B()));
}

TEST_F(EngineFixture, ChunkLen256NearOptimal)
{
    // Figure 8: 256 is the sweet spot for the evaluated models/devices.
    auto prefill_with_chunk = [&](int chunk_len) {
        LlmNpuOptions options;
        options.chunk_len = chunk_len;
        LlmNpuEngine engine(options);
        return engine.Run(qwen_, soc_, req1024_).prefill_ms;
    };
    const double t32 = prefill_with_chunk(32);
    const double t256 = prefill_with_chunk(256);
    EXPECT_LT(t256, t32);
}

}  // namespace
}  // namespace llmnpu
