/**
 * @file
 * Tests for the llm.npu core: chunk-sharing graphs (§3.2), shadow outlier
 * execution and Equation 1 (§3.3), and the out-of-order scheduler (§3.4).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/chunk_graph.h"
#include "src/core/outlier_profile.h"
#include "src/core/scheduler.h"
#include "src/core/shadow_executor.h"
#include "src/tensor/matmul.h"
#include "src/workloads/accuracy.h"
#include "src/workloads/corpus.h"
#include "tests/support/chunk_timings.h"
#include "tests/support/timeline_asserts.h"
#include "tests/support/tiny_model.h"

namespace llmnpu {
namespace {

// ------------------------------------------------------------- chunk graph

TEST(ChunkGraphTest, QwenSubgraphCountsMatchPaper)
{
    // §3.2: "120 out of 144 subgraphs can be shared in Qwen1.5-1.8B".
    ChunkGraphPlan plan(Qwen15_1_8B(), 256, /*share_static=*/true);
    EXPECT_EQ(plan.NumSubgraphs(), 144);
    EXPECT_EQ(plan.NumSharedSubgraphs(), 120);
}

TEST(ChunkGraphTest, NumChunksCeils)
{
    ChunkGraphPlan plan(Qwen15_1_8B(), 256, true);
    EXPECT_EQ(plan.NumChunks(1), 1);
    EXPECT_EQ(plan.NumChunks(256), 1);
    EXPECT_EQ(plan.NumChunks(257), 2);
    EXPECT_EQ(plan.NumChunks(1024), 4);
}

TEST(ChunkGraphTest, StageClassification)
{
    EXPECT_TRUE(StageOnNpu(StageKind::kQkvLinear));
    EXPECT_TRUE(StageOnNpu(StageKind::kOProj));
    EXPECT_TRUE(StageOnNpu(StageKind::kFfn));
    EXPECT_FALSE(StageOnNpu(StageKind::kAttention));
    EXPECT_FALSE(StageOnNpu(StageKind::kAttnNorm));
    // Only attention is dynamic (depends on the chunk's position).
    for (int s = 0; s < kStagesPerLayer; ++s) {
        const auto stage = static_cast<StageKind>(s);
        EXPECT_EQ(StageIsDynamic(stage), stage == StageKind::kAttention);
    }
}

TEST(ChunkGraphTest, SharingSavesMostGraphMemory)
{
    // §3.2: sharing reduces graph memory by up to ~75% at 1024/256.
    const ModelConfig qwen = Qwen15_1_8B();
    ChunkGraphPlan shared(qwen, 256, true);
    ChunkGraphPlan unshared(qwen, 256, false);
    const int64_t shared_bytes = shared.GraphMemoryBytes(4);
    const int64_t unshared_bytes = unshared.GraphMemoryBytes(4);
    const double saving =
        1.0 - static_cast<double>(shared_bytes) /
                  static_cast<double>(unshared_bytes);
    EXPECT_GT(saving, 0.60);
    EXPECT_LT(saving, 0.80);
}

TEST(ChunkGraphTest, UnsharedMemoryIsMultipleOfWeights)
{
    // §3.2: naive chunk graphs cost 2-4x more than the LLM weights.
    const ModelConfig qwen = Qwen15_1_8B();
    ChunkGraphPlan unshared(qwen, 256, false);
    const double ratio =
        static_cast<double>(unshared.GraphMemoryBytes(4)) /
        static_cast<double>(qwen.MatMulParams());
    EXPECT_GT(ratio, 2.0);
    EXPECT_LT(ratio, 8.0);
}

TEST(ChunkGraphTest, WeightBytesMatchConfig)
{
    const ModelConfig qwen = Qwen15_1_8B();
    ChunkGraphPlan plan(qwen, 256, true);
    int64_t per_layer = plan.StageWeightBytes(StageKind::kQkvLinear) +
                        plan.StageWeightBytes(StageKind::kOProj) +
                        plan.StageWeightBytes(StageKind::kFfn);
    EXPECT_EQ(per_layer * qwen.num_layers, qwen.MatMulParams());
}

TEST(ChunkGraphTest, PreparationGraphCounts)
{
    const ModelConfig qwen = Qwen15_1_8B();
    ChunkGraphPlan shared(qwen, 256, true);
    ChunkGraphPlan unshared(qwen, 256, false);
    EXPECT_EQ(shared.PreparationGraphs(4).size(),
              static_cast<size_t>(qwen.num_layers) * 3);
    EXPECT_EQ(unshared.PreparationGraphs(4).size(),
              static_cast<size_t>(qwen.num_layers) * 3 * 4);
}

TEST(ChunkGraphTest, AttentionBuffersGrowWithKvLen)
{
    ChunkGraphPlan plan(Qwen15_1_8B(), 256, true);
    EXPECT_GT(plan.StageActivationBytes(StageKind::kAttention, 1024),
              plan.StageActivationBytes(StageKind::kAttention, 256));
}

// --------------------------------------------------- outlier profile + Eq 1

class ShadowFixture : public TinyModelTest
{
  protected:
    const ModelConfig* config_ = &tiny_.config;
    const ModelWeights* weights_ = &tiny_.weights;
    const Transformer* model_ = &tiny_.model;
    const std::vector<std::vector<int>>* corpus_ = &tiny_.calib_corpus;
    const OutlierProfile* profile_ = &tiny_.profile;
};

TEST_F(ShadowFixture, OutliersAreSparse)
{
    // Figure 10: outlier channels are 0.1-0.3% on real models; our tiny
    // proxy injects ~3% hot channels, so per-token outliers stay below ~10%.
    const auto& stats = profile_->Stats(0, LinearKind::kWq);
    EXPECT_GT(stats.mean_outliers_per_token, 0.0);
    EXPECT_LT(stats.mean_outlier_fraction, 0.10);
}

TEST_F(ShadowFixture, HotChannelsCoverMostOutliers)
{
    // Figure 11: a small channel set carries >80% of outliers.
    const auto& stats = profile_->Stats(0, LinearKind::kWq);
    ASSERT_FALSE(stats.hot_channels.empty());
    EXPECT_GE(stats.hot_coverage_achieved, 0.80);
    EXPECT_LT(static_cast<double>(stats.hot_channels.size()),
              0.3 * static_cast<double>(config_->hidden_size));
}

TEST_F(ShadowFixture, HotChannelsMatchInjectedOnes)
{
    const auto& stats = profile_->Stats(0, LinearKind::kWq);
    int matched = 0;
    for (int c : stats.hot_channels) {
        if (std::find(weights_->hot_channels.begin(),
                      weights_->hot_channels.end(),
                      c) != weights_->hot_channels.end()) {
            ++matched;
        }
    }
    // Most detected hot channels are genuinely injected ones.
    EXPECT_GE(matched * 2, static_cast<int>(stats.hot_channels.size()));
}

TEST_F(ShadowFixture, ImportanceRanksAreAPermutation)
{
    std::vector<bool> seen(static_cast<size_t>(profile_->NumLinears()),
                           false);
    for (int l = 0; l < config_->num_layers; ++l) {
        for (const auto& spec : config_->LayerLinears()) {
            const int rank = profile_->ImportanceRank(l, spec.kind);
            ASSERT_GE(rank, 0);
            ASSERT_LT(rank, profile_->NumLinears());
            EXPECT_FALSE(seen[static_cast<size_t>(rank)]);
            seen[static_cast<size_t>(rank)] = true;
        }
    }
}

TEST_F(ShadowFixture, PruningRateControlsEnabledCount)
{
    int enabled_none = 0, enabled_85 = 0, enabled_all = 0;
    for (int l = 0; l < config_->num_layers; ++l) {
        for (const auto& spec : config_->LayerLinears()) {
            enabled_none += profile_->ShadowEnabled(l, spec.kind, 0.0);
            enabled_85 += profile_->ShadowEnabled(l, spec.kind, 0.85);
            enabled_all += profile_->ShadowEnabled(l, spec.kind, 1.0);
        }
    }
    EXPECT_EQ(enabled_none, profile_->NumLinears());
    EXPECT_EQ(enabled_all, 0);
    EXPECT_NEAR(enabled_85, static_cast<int>(0.15 * profile_->NumLinears()),
                2);
}

TEST_F(ShadowFixture, Equation1RecoversOutliers)
{
    // Craft an activation with a huge outlier in one channel. With the
    // shadow path the result must match the dequantized-weight float
    // reference closely; without it the clip destroys the outlier term.
    const LinearKind kind = LinearKind::kWq;
    const auto& op = profile_->Stats(0, kind);
    Tensor x = Tensor::Zeros({2, config_->hidden_size});
    for (int64_t c = 0; c < config_->hidden_size; ++c) {
        x.At(0, c) = 0.01f * static_cast<float>(c % 7);
        x.At(1, c) = -0.02f * static_cast<float>(c % 5);
    }
    const int outlier_channel = weights_->hot_channels.front();
    x.At(0, outlier_channel) = op.ClipValue() * 20.0f;

    PerColumnWeights wq = QuantizePerColumn(weights_->Linear(0, kind));
    Tensor w_deq = DequantizePerColumn(wq);
    Tensor y_ref = MatMulF32(x, w_deq);

    NpuShadowExecutor with_shadow(*weights_, *profile_, /*pruning_rate=*/0.0);
    NpuShadowExecutor no_shadow(*weights_, *profile_, /*pruning_rate=*/1.0);
    Tensor y_shadow = with_shadow.Forward(0, kind, x);
    Tensor y_clipped = no_shadow.Forward(0, kind, x);

    const double err_shadow = MaxAbsDiff(y_shadow, y_ref);
    const double err_clipped = MaxAbsDiff(y_clipped, y_ref);
    EXPECT_LT(err_shadow * 10.0, err_clipped);
    // The shadow result is within quantization noise of the reference.
    EXPECT_LT(err_shadow, op.clip_scale * static_cast<double>(
                               config_->hidden_size));
}

TEST_F(ShadowFixture, RuntimeStatsTrackExtractions)
{
    NpuShadowExecutor executor(*weights_, *profile_, 0.0);
    BatchedKvCache cache = model_->MakeCache();
    model_->Forward((*corpus_)[0], cache, executor);
    const auto& stats = executor.stats();
    EXPECT_GT(stats.linear_calls, 0);
    EXPECT_GT(stats.shadow_calls, 0);
    EXPECT_GT(stats.extracted_channels, 0);
    EXPECT_EQ(stats.hot_hits + stats.cold_misses, stats.extracted_channels);
    // Hot channels dominate extractions (the Figure 11 skew).
    EXPECT_GT(stats.hot_hits, stats.cold_misses);
}

TEST_F(ShadowFixture, FullyPrunedExecutorRunsNoShadow)
{
    NpuShadowExecutor executor(*weights_, *profile_, 1.0);
    BatchedKvCache cache = model_->MakeCache();
    model_->Forward((*corpus_)[0], cache, executor);
    EXPECT_EQ(executor.stats().shadow_calls, 0);
    EXPECT_EQ(executor.ResidentShadowWeightBytes(), 0);
}

TEST_F(ShadowFixture, AccuracyDegradesMonotonicallyWithPruning)
{
    // Figure 16: more pruning => faster but less accurate.
    CorpusOptions eval_options;
    eval_options.vocab_size = config_->vocab_size;
    eval_options.num_sequences = 10;
    eval_options.min_len = 24;
    eval_options.max_len = 40;
    eval_options.seed = 0xacc;
    const auto eval_set = MakeCorpus(eval_options);

    NpuShadowExecutor none(*weights_, *profile_, 0.0);
    NpuShadowExecutor all(*weights_, *profile_, 1.0);
    const double agree_full =
        EvaluateAgreement(*model_, none, eval_set).top1_agreement;
    const double agree_pruned =
        EvaluateAgreement(*model_, all, eval_set).top1_agreement;
    EXPECT_GE(agree_full, agree_pruned);
    EXPECT_GE(agree_full, 0.8);  // Table 6: ours ~ FP16
}

TEST_F(ShadowFixture, ResidentShadowBytesShrinkWithPruning)
{
    NpuShadowExecutor none(*weights_, *profile_, 0.0);
    NpuShadowExecutor most(*weights_, *profile_, 0.85);
    EXPECT_GT(none.ResidentShadowWeightBytes(),
              most.ResidentShadowWeightBytes());
}

// ---------------------------------------------------------------- scheduler

TEST(SchedulerTest, DagSizeAndDependencies)
{
    const auto timings = MakeSyntheticChunkTimings(3, 2, 1.0, 0.5);
    const auto tasks = BuildPrefillDag(timings, 2);
    EXPECT_EQ(tasks.size(), 3u * 2u * kStagesPerLayer);
    // First stage of every chunk has no deps (chunks start independently).
    for (const auto& task : tasks) {
        if (task.stage == 0) {
            EXPECT_TRUE(task.deps.empty());
        }
    }
}

TEST(SchedulerTest, AttentionHasCrossChunkDeps)
{
    const auto timings = MakeSyntheticChunkTimings(3, 1, 1.0, 0.5);
    const auto tasks = BuildPrefillDag(timings, 1);
    // Attention is stage index 2; chunk 2's attention depends on 3 tasks:
    // its own QKV plus chunks 0 and 1's QKV (Equation 2).
    for (const auto& task : tasks) {
        if (task.stage == static_cast<int>(StageKind::kAttention)) {
            EXPECT_EQ(task.deps.size(), static_cast<size_t>(task.chunk) + 1)
                << "chunk " << task.chunk;
        }
    }
}

TEST(SchedulerTest, ShadowTasksAddOneNodePerNpuStage)
{
    const auto plain = BuildPrefillDag(
        MakeSyntheticChunkTimings(1, 1, 1.0, 0.5, 0.0), 1);
    const auto shadowed = BuildPrefillDag(
        MakeSyntheticChunkTimings(1, 1, 1.0, 0.5, 0.3), 1);
    // 3 NPU stages per layer, each adds one parallel shadow task whose
    // completion gates the consumers (the reduced-sum merge).
    EXPECT_EQ(shadowed.size(), plain.size() + 3);
    // The stage after a shadowed NPU stage depends on both halves.
    int two_dep_tasks = 0;
    for (const auto& task : shadowed) {
        if (task.deps.size() == 2u) ++two_dep_tasks;
    }
    // attention (after shadowed qkv) and ffn_norm (after shadowed o_proj);
    // the final ffn stage has no consumer inside a single-layer chunk.
    EXPECT_GE(two_dep_tasks, 2);
}

TEST(SchedulerTest, ScheduleRespectsDependencies)
{
    const auto timings = MakeSyntheticChunkTimings(4, 2, 1.0, 0.7);
    const auto tasks = BuildPrefillDag(timings, 2);
    const TimelineResult result = RunTimeline(tasks, OooPicker());
    EXPECT_TRUE(ScheduleRespectsDeps(tasks, result));
}

TEST(SchedulerTest, OooNotSlowerThanFifoAndReducesBubbles)
{
    // An NPU-heavy chunked workload (the paper's regime: NPU time ~2x CPU).
    const auto timings = MakeSyntheticChunkTimings(4, 4, 2.0, 1.0);
    const auto tasks = BuildPrefillDag(timings, 4);
    const TimelineResult fifo = RunTimeline(tasks, FifoPicker());
    const TimelineResult ooo = RunTimeline(tasks, OooPicker());
    EXPECT_LE(ooo.makespan_ms, fifo.makespan_ms + 1e-9);
    EXPECT_LE(ooo.BubbleRate(Unit::kNpu), fifo.BubbleRate(Unit::kNpu) + 1e-9);
}

TEST(SchedulerTest, OooKeepsNpuBubblesLow)
{
    // Figure 13: out-of-order execution nearly eliminates NPU bubbles when
    // CPU work fits under NPU work.
    const auto timings = MakeSyntheticChunkTimings(6, 4, 2.0, 0.6);
    const auto tasks = BuildPrefillDag(timings, 4);
    const TimelineResult ooo = RunTimeline(tasks, OooPicker());
    EXPECT_LT(ooo.BubbleRate(Unit::kNpu), 0.12);
}

TEST(SchedulerTest, SingleChunkHasNoCrossDeps)
{
    const auto timings = MakeSyntheticChunkTimings(1, 2, 1.0, 0.5);
    const auto tasks = BuildPrefillDag(timings, 2);
    for (const auto& task : tasks) {
        EXPECT_LE(task.deps.size(), 1u);
    }
}

}  // namespace
}  // namespace llmnpu
