/**
 * @file
 * Property-based tests: invariants that must hold across randomized inputs
 * and parameter sweeps — timeline conservation laws on random DAGs, engine
 * monotonicity across prompt lengths and models, quantization invariants
 * across scales, and chunk-graph memory laws.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/chunk_graph.h"
#include "src/core/llmnpu_engine.h"
#include "src/engines/baselines.h"
#include "src/sim/timeline.h"
#include "src/tensor/matmul.h"
#include "src/tensor/quantize.h"
#include "src/util/rng.h"
#include "tests/support/timeline_asserts.h"

namespace llmnpu {
namespace {

// -------------------------------------------------- timeline conservation

/** Random DAG generator: edges only from lower to higher ids (acyclic). */
std::vector<SimTask>
RandomDag(uint64_t seed, int n)
{
    Rng rng(seed);
    std::vector<SimTask> tasks(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto& task = tasks[static_cast<size_t>(i)];
        task.unit = static_cast<Unit>(rng.UniformInt(3));
        task.duration_ms = rng.Uniform(0.1, 5.0);
        const int max_deps = std::min(i, 3);
        const int num_deps =
            static_cast<int>(rng.UniformInt(static_cast<uint64_t>(
                max_deps + 1)));
        for (int d = 0; d < num_deps; ++d) {
            task.deps.push_back(static_cast<int>(rng.UniformInt(
                static_cast<uint64_t>(i))));
        }
    }
    return tasks;
}

class TimelinePropertyTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(TimelinePropertyTest, ConservationLawsOnRandomDags)
{
    const auto tasks = RandomDag(GetParam(), 40);
    for (const TaskPicker& picker : {FifoPicker(), OooPicker()}) {
        const TimelineResult result = RunTimeline(tasks, picker);

        // Dependencies respected, one task per unit (Eq. 4), busy-time
        // conservation — the shared schedule-validity checks.
        EXPECT_TRUE(ScheduleIsValid(tasks, result));

        // Makespan bounds: at least the busiest unit, at most the sum of
        // all durations.
        std::array<double, kNumUnits> expected{};
        for (const auto& task : tasks) {
            expected[static_cast<size_t>(task.unit)] += task.duration_ms;
        }
        const double total = expected[0] + expected[1] + expected[2];
        const double busiest =
            std::max({expected[0], expected[1], expected[2]});
        EXPECT_GE(result.makespan_ms, busiest - 1e-9);
        EXPECT_LE(result.makespan_ms, total + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelinePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --------------------------------------------------- engine monotonicity

class EngineMonotonicityTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(EngineMonotonicityTest, PrefillGrowsWithPromptLength)
{
    const auto [engine_idx, model_idx] = GetParam();
    const SocSpec soc = SocSpec::RedmiK70Pro();
    const ModelConfig config = PaperModels()[static_cast<size_t>(model_idx)];
    auto baselines = MakePaperBaselines();
    LlmNpuEngine ours;
    InferenceEngine* engine =
        engine_idx == 0 ? static_cast<InferenceEngine*>(&ours)
                        : baselines[static_cast<size_t>(engine_idx - 1)].get();
    // Exactly 5 of the 30 grid points skip, by design, matching the §4.1
    // support matrix: each baseline framework only ships converters and
    // kernels for the model families its authors ported (MNN lacks
    // Gemma/Mistral, TFLite only serves its Google-family ports
    // Gemma/Phi-2). The paper's Table 5 reports these cells as "-" too, so
    // the right behaviour is to skip, not to fake a number. The pinned
    // matrix itself is asserted by EngineFixture.SupportMatrixMatchesPaper
    // and BaselineSupportMatrixPinsSkipCount below.
    //
    // Revisited when the serving layer landed: its ServingCosts() hook
    // gives every baseline a serving-cost decomposition (the default
    // monolithic one), but a cost hook cannot conjure the missing model
    // converters/kernels, so SupportsModel() was unchanged then (7 skips).
    //
    // Revisited again when decode-on-NPU landed: the per-group INT8 NPU
    // decode-graph converters cover dense-activation models without a
    // sparsity predictor, which is exactly what PowerInfer-V2 lacked for
    // Gemma-2B and Phi-2-2.7B — those two grid points now run (as
    // beyond-paper coverage; Table 5 leaves them "-"). MNN's and TFLite's
    // gaps are CPU/GPU converter gaps an NPU decode path cannot fill, so
    // their 5 skips remain.
    if (!engine->SupportsModel(config)) {
        GTEST_SKIP() << engine->Name() << " does not support " << config.name
                     << " (see §4.1 support matrix)";
    }

    double prev = 0.0;
    for (int prompt_len : {128, 512, 1536}) {
        const EngineResult result = engine->Run(config, soc, {prompt_len, 1});
        EXPECT_GT(result.prefill_ms, prev * 0.999)
            << engine->Name() << " " << config.name << " @" << prompt_len;
        EXPECT_GT(result.prefill_energy_mj, 0.0);
        EXPECT_GT(result.memory_bytes, 0);
        prev = result.prefill_ms;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineMonotonicityTest,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 5)));

TEST(EnginePropertyTest, BaselineSupportMatrixPinsSkipCount)
{
    // Guards the 5 documented skips of the monotonicity grid above: if a
    // baseline gains or loses model support, this fails so the skip
    // documentation gets revisited rather than silently drifting.
    auto baselines = MakePaperBaselines();
    LlmNpuEngine ours;
    std::vector<InferenceEngine*> engines = {&ours};
    for (auto& baseline : baselines) engines.push_back(baseline.get());

    std::vector<std::string> unsupported;
    for (InferenceEngine* engine : engines) {
        for (const auto& config : PaperModels()) {
            if (!engine->SupportsModel(config)) {
                unsupported.push_back(engine->Name() + "/" + config.name);
            }
        }
    }
    const std::vector<std::string> expected = {
        "MNN-CPU/Gemma-2B",
        "MNN-CPU/Mistral-7B",
        "TFLite-GPU/Qwen1.5-1.8B",
        "TFLite-GPU/LlaMA-2-7B",
        "TFLite-GPU/Mistral-7B",
    };
    EXPECT_EQ(unsupported, expected);
}

TEST(EnginePropertyTest, DecodeGrowsWithOutputLength)
{
    const SocSpec soc = SocSpec::RedmiK70Pro();
    LlmNpuEngine ours;
    double prev = 0.0;
    for (int out : {1, 8, 32}) {
        const EngineResult result =
            ours.Run(Qwen15_1_8B(), soc, {256, out});
        EXPECT_GT(result.decode_ms, prev);
        prev = result.decode_ms;
    }
}

TEST(EnginePropertyTest, NpuDecodeTpotMonotoneInBatchSize)
{
    // The M=B decode matmul streams each weight panel once per step, so
    // growing the batch amortizes the stream: step latency is monotone
    // non-decreasing in B while per-token TPOT is monotone non-increasing.
    const SocSpec soc = SocSpec::RedmiK70Pro();
    LlmNpuOptions options;
    options.decode_placement = DecodePlacement::kNpuQuant;
    LlmNpuEngine engine(options);
    for (const ModelConfig& config :
         {Qwen15_1_8B(), Gemma2B(), Llama2_7B()}) {
        double prev_step = 0.0;
        double prev_tpot = 1e300;
        for (int batch : {1, 2, 4, 8}) {
            const auto step = engine.NpuDecodeStep(config, soc, 1024, batch);
            EXPECT_GT(step.npu_matvec_ms, 0.0) << config.name;
            EXPECT_GT(step.float_ms, 0.0) << config.name;
            EXPECT_GE(step.TotalMs(), prev_step) << config.name << " B="
                                                 << batch;
            const double tpot = step.TotalMs() / batch;
            EXPECT_LE(tpot, prev_tpot + 1e-12)
                << config.name << " B=" << batch;
            prev_step = step.TotalMs();
            prev_tpot = tpot;
        }
    }
}

TEST(EnginePropertyTest, BiggerModelsAreSlower)
{
    const SocSpec soc = SocSpec::RedmiK70Pro();
    LlmNpuEngine ours;
    const double small =
        ours.Run(Qwen15_1_8B(), soc, {1024, 1}).prefill_ms;
    const double large = ours.Run(Llama2_7B(), soc, {1024, 1}).prefill_ms;
    EXPECT_GT(large, small);
}

TEST(EnginePropertyTest, EnergyScalesWithLatencyAcrossPromptLens)
{
    // Energy and latency must move together for a single-processor engine.
    const SocSpec soc = SocSpec::RedmiK60Pro();
    LlamaCppEngine lcpp;
    const EngineResult a = lcpp.Run(Qwen15_1_8B(), soc, {256, 1});
    const EngineResult b = lcpp.Run(Qwen15_1_8B(), soc, {1024, 1});
    const double latency_ratio = b.prefill_ms / a.prefill_ms;
    const double energy_ratio = b.prefill_energy_mj / a.prefill_energy_mj;
    EXPECT_NEAR(latency_ratio, energy_ratio, latency_ratio * 0.01);
}

// ------------------------------------------------- quantization invariants

class QuantScaleSweep : public ::testing::TestWithParam<double>
{};

TEST_P(QuantScaleSweep, RoundTripErrorBoundedByHalfStep)
{
    const double magnitude = GetParam();
    Rng rng(static_cast<uint64_t>(magnitude * 1000));
    Tensor x({16, 32}, DType::kF32);
    float* p = x.Data<float>();
    for (int64_t i = 0; i < x.NumElements(); ++i) {
        p[i] = static_cast<float>(rng.Normal(0.0, magnitude));
    }
    const QuantParams params = ComputeSymmetricScale(x);
    Tensor round_trip = Dequantize(QuantizeSymmetric(x, params), params);
    EXPECT_LE(MaxAbsDiff(x, round_trip), params.scale * 0.5 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, QuantScaleSweep,
                         ::testing::Values(1e-3, 0.1, 1.0, 10.0, 1e3));

TEST(QuantInvariantTest, QuantizationIsScaleEquivariant)
{
    // Quantizing c*x with scale c*s gives identical int8 codes.
    Rng rng(77);
    Tensor x({4, 16}, DType::kF32);
    float* p = x.Data<float>();
    for (int64_t i = 0; i < x.NumElements(); ++i) {
        p[i] = static_cast<float>(rng.Normal());
    }
    Tensor x2 = x;
    float* p2 = x2.Data<float>();
    for (int64_t i = 0; i < x2.NumElements(); ++i) p2[i] *= 8.0f;

    const QuantParams s1 = ComputeSymmetricScale(x);
    const QuantParams s2 = ComputeSymmetricScale(x2);
    EXPECT_NEAR(s2.scale, s1.scale * 8.0f, s1.scale * 1e-3);
    EXPECT_TRUE(QuantizeSymmetric(x, s1).BitEquals(
        QuantizeSymmetric(x2, s2)));
}

// --------------------------------------------------- chunk graph memory laws

class ChunkMemoryLawTest : public ::testing::TestWithParam<int>
{};

TEST_P(ChunkMemoryLawTest, SharedMemoryGrowsSublinearlyInChunks)
{
    const int chunk_len = GetParam();
    for (const ModelConfig& config : PaperModels()) {
        ChunkGraphPlan shared(config, chunk_len, true);
        ChunkGraphPlan unshared(config, chunk_len, false);
        const int64_t shared_2 = shared.GraphMemoryBytes(2);
        const int64_t shared_8 = shared.GraphMemoryBytes(8);
        const int64_t unshared_2 = unshared.GraphMemoryBytes(2);
        const int64_t unshared_8 = unshared.GraphMemoryBytes(8);
        // Unshared replicates static graphs linearly; shared growth (only
        // the per-chunk attention buffers) is strictly slower.
        EXPECT_GE(unshared_8, 3 * unshared_2 / 2) << config.name;
        EXPECT_LT(static_cast<double>(shared_8) /
                      static_cast<double>(shared_2),
                  static_cast<double>(unshared_8) /
                      static_cast<double>(unshared_2))
            << config.name;
        // Sharing never uses more memory.
        EXPECT_LE(shared_8, unshared_8) << config.name;
    }
}

INSTANTIATE_TEST_SUITE_P(ChunkLens, ChunkMemoryLawTest,
                         ::testing::Values(64, 128, 256, 512));

// ----------------------------------------------------- failure injection

TEST(FailureInjectionDeathTest, NpuRegionExhaustionIsFatal)
{
    NpuRuntime runtime;
    NpuGraphDesc big;
    big.name = "big";
    big.num_ops = 1;
    big.const_bytes = 5ll * 1024 * 1024 * 1024;  // > 4 GB region
    EXPECT_EXIT(runtime.EnsureBuilt(big), ::testing::ExitedWithCode(1),
                "NPU memory region exhausted");
}

TEST(FailureInjectionDeathTest, MismatchedTimingsAreRejected)
{
    std::vector<std::vector<StageTiming>> bad(1);
    bad[0].resize(3);  // not num_layers * kStagesPerLayer
    EXPECT_DEATH(BuildPrefillDag(bad, 2), "CHECK failed");
}

TEST(FailureInjectionDeathTest, TensorTypePunningIsRejected)
{
    Tensor t = Tensor::Zeros({2, 2}, DType::kI8);
    EXPECT_DEATH(t.Data<float>(), "CHECK failed");
}

TEST(FailureInjectionDeathTest, UnknownModelIsFatal)
{
    EXPECT_EXIT(ModelByName("GPT-17"), ::testing::ExitedWithCode(1),
                "unknown model");
}

TEST(FailureInjectionDeathTest, MatMulShapeMismatchIsRejected)
{
    Tensor a = Tensor::Zeros({2, 3});
    Tensor b = Tensor::Zeros({4, 2});
    EXPECT_DEATH(MatMulF32Packed(a, PackWeightsF32(b)), "CHECK failed");
}

}  // namespace
}  // namespace llmnpu
