/**
 * @file
 * Batched numeric plane tests (CTest label `batched`).
 *
 * The core property: Transformer::ForwardBatch produces bitwise-identical
 * per-sequence hidden states and logits to running each sequence alone
 * (Forward, the one-slot ForwardBatch), for every LinearExecutor, across
 * ragged batch shapes — B=1..4, mixed prefill/decode steps, chunked prefill
 * inside a batch. Since both sides then reach the executor through
 * ForwardBatch, each executor's ForwardBatch is also checked against its
 * own Forward per segment. Proxies of Qwen, Gemma and Phi-2 (every norm,
 * activation and gating variant) must also give the same bits at 1, 2
 * and 4 threads. Plus the cache's layer-lockstep invariant,
 * BatchedKvCache accounting, and the serving→numeric trace replay bridge
 * end-to-end.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/llmnpu_engine.h"
#include "src/core/shadow_executor.h"
#include "src/model/decode_backend.h"
#include "src/quant/baselines.h"
#include "src/serving/replay.h"
#include "src/serving/simulator.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"
#include "src/workloads/arrivals.h"
#include "src/workloads/corpus.h"
#include "tests/support/random.h"
#include "tests/support/tiny_model.h"
#include "tests/support/token_streams.h"

namespace llmnpu {
namespace {

// ------------------------------------------------------------ BatchedKvCache

TEST(BatchedKvCacheTest, SlotsAreIndependent)
{
    BatchedKvCache cache(2, 8, 2);
    ASSERT_EQ(cache.num_sequences(), 2);
    Tensor k = Tensor::Full({3, 8}, 1.0f);
    Tensor v = Tensor::Full({3, 8}, 2.0f);
    cache.Append(0, 0, k, v);
    cache.Append(0, 1, k, v);
    EXPECT_EQ(cache.SeqLen(0), 3);
    EXPECT_EQ(cache.SeqLen(1), 0);
    // 3 positions is one page: k + v, both layers, kKvPageSize rows of
    // kv_dim 8 floats each (page-granular accounting, not row-exact).
    EXPECT_EQ(cache.SizeBytes(), 2 * 2 * kKvPageSize * 8 * 4);
    EXPECT_EQ(cache.AddSequence(), 2);
    EXPECT_EQ(cache.num_sequences(), 3);
}

// ---------------------------------------------------- layer lockstep, slot 0

TEST(KvCacheLockstepTest, InOrderChunksPass)
{
    BatchedKvCache cache(3, 4, 1);
    for (int chunk : {2, 5, 1}) {  // chunk sizes may vary across chunks
        Tensor k = Tensor::Full({chunk, 4}, 1.0f);
        Tensor v = Tensor::Full({chunk, 4}, 2.0f);
        for (int l = 0; l < 3; ++l) cache.Append(0, l, k, v);
    }
    EXPECT_EQ(cache.SeqLen(0), 8);
}

TEST(KvCacheLockstepDeathTest, SecondChunkBeforeOtherLayersPanics)
{
    BatchedKvCache cache(2, 4, 1);
    Tensor k = Tensor::Full({3, 4}, 1.0f);
    Tensor v = Tensor::Full({3, 4}, 2.0f);
    cache.Append(0, 0, k, v);  // layer 1 now lags by the in-flight chunk
    EXPECT_DEATH(cache.Append(0, 0, k, v), "CHECK failed");
}

TEST(KvCacheLockstepDeathTest, OversizedLaterChunkPanics)
{
    BatchedKvCache cache(2, 4, 1);
    Tensor k3 = Tensor::Full({3, 4}, 1.0f);
    Tensor v3 = Tensor::Full({3, 4}, 2.0f);
    cache.Append(0, 0, k3, v3);
    Tensor k5 = Tensor::Full({5, 4}, 1.0f);
    Tensor v5 = Tensor::Full({5, 4}, 2.0f);
    EXPECT_DEATH(cache.Append(0, 1, k5, v5), "CHECK failed");
}

// ----------------------------------------- batched vs sequential, bitwise

/** One batched step: (sequence, token count) pairs, ragged by design. */
using ScriptStep = std::vector<std::pair<int, int>>;

/** Per-sequence rows of a script run: hidden states, logits, and the
 *  token group each step fed. */
struct ScriptRows {
    std::map<int, std::vector<float>> hidden;
    std::map<int, std::vector<float>> logits;
    std::map<int, std::vector<std::vector<int>>> groups;
};

/** Runs `script` through ForwardBatch on a fresh cache. */
ScriptRows
RunScriptBatched(const Transformer& model, LinearExecutor& linears,
                 const std::vector<ScriptStep>& script)
{
    const int vocab = model.config().vocab_size;
    ScriptRows out;
    std::map<int, int> slots;   // seq -> cache slot
    std::map<int, int> cursor;  // seq -> tokens fed
    BatchedKvCache cache = model.MakeBatchedCache();
    for (const ScriptStep& step : script) {
        std::vector<BatchSeq> batch;
        for (const auto& [seq, count] : step) {
            if (!slots.count(seq)) slots[seq] = cache.AddSequence();
            std::vector<int> tokens;
            for (int i = 0; i < count; ++i) {
                tokens.push_back(TestTokenAt(seq, cursor[seq]++, vocab));
            }
            out.groups[seq].push_back(tokens);
            batch.push_back({slots[seq], std::move(tokens)});
        }
        Tensor hidden = model.ForwardBatch(batch, cache, linears);
        Tensor logits = model.Logits(hidden);
        int64_t row = 0;
        for (size_t i = 0; i < batch.size(); ++i) {
            const int64_t rows =
                static_cast<int64_t>(batch[i].tokens.size());
            const Tensor h = hidden.CopyRows(row, rows);
            const Tensor lg = logits.CopyRows(row, rows);
            auto& hr = out.hidden[step[i].first];
            auto& lr = out.logits[step[i].first];
            hr.insert(hr.end(), h.Data<float>(),
                      h.Data<float>() + h.NumElements());
            lr.insert(lr.end(), lg.Data<float>(),
                      lg.Data<float>() + lg.NumElements());
            row += rows;
        }
    }
    return out;
}

/** Bytes-equal float vectors. */
bool
SameBits(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/**
 * Runs `script` through ForwardBatch, then re-runs every sequence alone
 * with the same per-step token groups through Forward, and asserts the
 * per-sequence hidden states and logits are bitwise identical.
 */
void
RunScriptBitwise(const Transformer& model, LinearExecutor& linears,
                 const std::vector<ScriptStep>& script)
{
    const ScriptRows batched = RunScriptBatched(model, linears, script);

    // Sequential reference: same token groups, one sequence at a time.
    for (const auto& [seq, seq_groups] : batched.groups) {
        BatchedKvCache solo = model.MakeCache();
        std::vector<float> ref_hidden, ref_logits;
        for (const std::vector<int>& tokens : seq_groups) {
            Tensor h = model.Forward(tokens, solo, linears);
            Tensor lg = model.Logits(h);
            ref_hidden.insert(ref_hidden.end(), h.Data<float>(),
                              h.Data<float>() + h.NumElements());
            ref_logits.insert(ref_logits.end(), lg.Data<float>(),
                              lg.Data<float>() + lg.NumElements());
        }
        EXPECT_TRUE(SameBits(ref_hidden, batched.hidden.at(seq)))
            << linears.Name() << ": hidden states of seq " << seq
            << " differ between batched and sequential execution";
        EXPECT_TRUE(SameBits(ref_logits, batched.logits.at(seq)))
            << linears.Name() << ": logits of seq " << seq
            << " differ between batched and sequential execution";
    }
}

/** The ragged shapes of the acceptance criteria. */
std::vector<std::vector<ScriptStep>>
Scripts()
{
    return {
        // B=1: a single-sequence batch is just Forward.
        {{{0, 5}}, {{0, 1}}, {{0, 1}}},
        // B=2, ragged prefill then batched decode.
        {{{0, 4}, {1, 7}}, {{0, 1}, {1, 1}}, {{0, 1}, {1, 1}}},
        // B=3 with chunked prefill inside the batch: seq 2's prompt arrives
        // as chunks of 3+2 while the others advance.
        {{{0, 5}, {2, 3}},
         {{1, 6}, {2, 2}},
         {{0, 1}, {1, 1}, {2, 1}},
         {{0, 1}, {1, 1}, {2, 1}}},
        // B=4 batched decode (the m=B matmul) after ragged prefills, with a
        // mixed prefill/decode step in the middle (seq 3 prefills while
        // 0..2 decode).
        {{{0, 3}, {1, 1}, {2, 6}},
         {{0, 1}, {1, 1}, {2, 1}, {3, 5}},
         {{0, 1}, {1, 1}, {2, 1}, {3, 1}},
         {{3, 1}, {2, 1}, {1, 1}, {0, 1}}},
    };
}

class BatchedExecutorTest
    : public TinyModelTest,
      public ::testing::WithParamInterface<const char*>
{
  protected:
    std::unique_ptr<LinearExecutor>
    MakeExecutor() const
    {
        const std::string name = GetParam();
        if (name == "fp32") {
            return std::make_unique<Fp32LinearExecutor>(tiny_.weights);
        }
        if (name == "per_tensor") {
            return std::make_unique<PerTensorExecutor>(tiny_.weights);
        }
        if (name == "kquant") {
            return std::make_unique<KQuantExecutor>(tiny_.weights);
        }
        if (name == "awq") {
            return std::make_unique<AwqExecutor>(tiny_.weights, tiny_.calib);
        }
        if (name == "smoothquant") {
            return std::make_unique<SmoothQuantExecutor>(tiny_.weights,
                                                         tiny_.calib);
        }
        if (name == "llmint8") {
            return std::make_unique<LlmInt8Executor>(tiny_.weights,
                                                     tiny_.calib);
        }
        if (name == "shadow") {
            return std::make_unique<NpuShadowExecutor>(
                tiny_.weights, tiny_.profile, /*pruning_rate=*/0.5);
        }
        ADD_FAILURE() << "unknown executor " << name;
        return nullptr;
    }
};

TEST_P(BatchedExecutorTest, BatchedEqualsSequentialBitwise)
{
    auto executor = MakeExecutor();
    ASSERT_NE(executor, nullptr);
    for (const auto& script : Scripts()) {
        RunScriptBitwise(tiny_.model, *executor, script);
    }
}

TEST_P(BatchedExecutorTest, BatchedEqualsSequentialAcrossThreadCounts)
{
    // The stacked matmuls run over the shared ThreadPool; the bitwise
    // contract must hold at any thread count (row partitions change, the
    // per-row accumulation order does not).
    auto executor = MakeExecutor();
    ASSERT_NE(executor, nullptr);
    for (int threads : {1, 4}) {
        ScopedNumThreads scoped(threads);
        RunScriptBitwise(tiny_.model, *executor,
                         {{{0, 4}, {1, 9}, {2, 1}},
                          {{0, 1}, {1, 1}, {2, 1}}});
    }
}

TEST_P(BatchedExecutorTest, ForwardBatchRowsEqualPerSegmentForwardBitwise)
{
    // The executor-level contract itself: each segment's rows of a
    // multi-segment ForwardBatch equal Forward (a one-segment ForwardBatch)
    // on that segment alone. The scripts above compare whole model runs;
    // this test pins the contract at one executor call, where an executor
    // with batch-global dynamics (PerTensor's activation scale) would
    // break it if it ran the stack as one call.
    auto executor = MakeExecutor();
    ASSERT_NE(executor, nullptr);
    const BatchSegments segments = {0, 1, 4, 5, 11};
    Rng rng(29);
    for (const LinearSpec& spec : tiny_.config.LayerLinears()) {
        Tensor x = RandomTensor(rng, {segments.back(), spec.k});
        // Outlier spikes on different channels in different segments, so
        // the shadow executor extracts a different set per sequence.
        x.At(2, 3) = 40.0f;
        x.At(6, spec.k - 1) = -50.0f;
        x.At(10, spec.k / 2) = 60.0f;
        const Tensor batched =
            executor->ForwardBatch(0, spec.kind, x, segments);
        for (size_t i = 0; i + 1 < segments.size(); ++i) {
            const int64_t r0 = segments[i];
            const int64_t rows = segments[i + 1] - r0;
            const Tensor alone =
                executor->Forward(0, spec.kind, x.CopyRows(r0, rows));
            const Tensor part = batched.CopyRows(r0, rows);
            ASSERT_EQ(part.NumElements(), alone.NumElements());
            EXPECT_EQ(std::memcmp(part.Data<float>(), alone.Data<float>(),
                                  static_cast<size_t>(part.NumElements()) *
                                      sizeof(float)),
                      0)
                << executor->Name() << " " << LinearKindName(spec.kind)
                << ": segment " << i
                << " of ForwardBatch differs from Forward on it alone";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllExecutors, BatchedExecutorTest,
                         ::testing::Values("fp32", "per_tensor", "kquant",
                                           "awq", "smoothquant", "llmint8",
                                           "shadow"),
                         [](const auto& info) {
                             std::string name = info.param;
                             for (char& c : name) {
                                 if (c == '-') c = '_';
                             }
                             return name;
                         });

// ------------------------------ paper-model proxies, across thread counts

/**
 * Scaled proxies of the paper models that cover every epilogue variant:
 * Qwen (RMSNorm, gated SiLU), Gemma (RMSNorm, gated GeLU) and Phi-2
 * (LayerNorm, ungated GeLU). The first step stacks 447 prefill rows, so
 * every row-parallel pass (norms, RoPE, residual, activation, shadow
 * term) splits over the pool at 2 and 4 threads; the decode step stays
 * under the cutoff. Hidden states and logits must not move by a bit with
 * the thread count, and batched must still equal sequential.
 */
class ProxyThreadCountTest : public ::testing::TestWithParam<const char*>
{};

TEST_P(ProxyThreadCountTest, ForwardBatchBitwiseAcrossThreadCounts)
{
    const ModelConfig config =
        ScaledProxy(ModelByName(GetParam()), 256, 2, 512);
    const ModelWeights weights = GenerateSyntheticWeights(config);
    const Transformer model(weights);
    const auto corpus = MakeCorpus(TinyCalibCorpusOptions(config));
    const CalibrationData calib = CalibrationData::Collect(model, corpus);
    const OutlierProfile profile =
        OutlierProfile::Collect(model, calib, corpus);
    Fp32LinearExecutor fp32(weights);
    NpuShadowExecutor shadow(weights, profile, /*pruning_rate=*/0.5);
    const std::vector<ScriptStep> script = {{{0, 300}, {1, 7}, {2, 140}},
                                            {{0, 1}, {1, 1}, {2, 1}}};
    for (LinearExecutor* linears : {static_cast<LinearExecutor*>(&fp32),
                                    static_cast<LinearExecutor*>(&shadow)}) {
        ScriptRows want;
        for (const int threads : {1, 2, 4}) {
            ScopedNumThreads scoped(threads);
            const ScriptRows got = RunScriptBatched(model, *linears, script);
            if (threads == 1) {
                want = got;
                continue;
            }
            for (const auto& [seq, rows] : want.hidden) {
                EXPECT_TRUE(SameBits(got.hidden.at(seq), rows))
                    << linears->Name() << ": hidden states of seq " << seq
                    << " differ at " << threads << " threads";
                EXPECT_TRUE(SameBits(got.logits.at(seq), want.logits.at(seq)))
                    << linears->Name() << ": logits of seq " << seq
                    << " differ at " << threads << " threads";
            }
        }
        ScopedNumThreads scoped(4);
        RunScriptBitwise(model, *linears, script);
    }
    EXPECT_GT(shadow.stats().shadow_calls, 0) << "no shadow term was added";
}

INSTANTIATE_TEST_SUITE_P(PaperModels, ProxyThreadCountTest,
                         ::testing::Values("Qwen1.5-1.8B", "Gemma-2B",
                                           "Phi-2-2.7B"),
                         [](const auto& info) {
                             std::string name = info.param;
                             for (char& c : name) {
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c))) {
                                     c = '_';
                                 }
                             }
                             return name;
                         });

class BatchedExecutorShapeTest : public TinyModelTest
{};

TEST_F(BatchedExecutorShapeTest, StackedShapeAndCacheGrowth)
{
    Fp32LinearExecutor fp32(tiny_.weights);
    BatchedKvCache cache = tiny_.model.MakeBatchedCache(2);
    Tensor hidden = tiny_.model.ForwardBatch(
        {{0, {1, 2, 3}}, {1, {4, 5}}}, cache, fp32);
    EXPECT_EQ(hidden.Rows(), 5);
    EXPECT_EQ(hidden.Cols(), tiny_.config.hidden_size);
    EXPECT_EQ(cache.SeqLen(0), 3);
    EXPECT_EQ(cache.SeqLen(1), 2);
}

TEST_F(BatchedExecutorShapeTest, DuplicateSequenceInBatchPanics)
{
    Fp32LinearExecutor fp32(tiny_.weights);
    BatchedKvCache cache = tiny_.model.MakeBatchedCache(1);
    EXPECT_DEATH(tiny_.model.ForwardBatch({{0, {1}}, {0, {2}}}, cache, fp32),
                 "CHECK failed");
}

// The shadow executor's runtime stats must advance under batching exactly
// as they would under B sequential calls (the Figure 10 counters feed the
// timing plane).
TEST_F(BatchedExecutorShapeTest, ShadowStatsMatchSequential)
{
    NpuShadowExecutor batched(tiny_.weights, tiny_.profile, 0.5);
    NpuShadowExecutor sequential(tiny_.weights, tiny_.profile, 0.5);
    const std::vector<ScriptStep> script = {{{0, 6}, {1, 3}},
                                            {{0, 1}, {1, 1}}};

    BatchedKvCache cache = tiny_.model.MakeBatchedCache(2);
    std::vector<int> cursor(2, 0);
    std::vector<BatchedKvCache> solo;
    solo.push_back(tiny_.model.MakeCache());
    solo.push_back(tiny_.model.MakeCache());
    const int vocab = tiny_.config.vocab_size;
    for (const ScriptStep& step : script) {
        std::vector<BatchSeq> batch;
        std::vector<std::vector<int>> tokens(step.size());
        for (size_t i = 0; i < step.size(); ++i) {
            const auto [seq, count] = step[i];
            for (int t = 0; t < count; ++t) {
                tokens[i].push_back(TestTokenAt(seq, cursor[seq]++ , vocab));
            }
            batch.push_back({seq, tokens[i]});
        }
        tiny_.model.ForwardBatch(batch, cache, batched);
        for (size_t i = 0; i < step.size(); ++i) {
            tiny_.model.Forward(tokens[i], solo[step[i].first], sequential);
        }
    }
    EXPECT_EQ(batched.stats().linear_calls, sequential.stats().linear_calls);
    EXPECT_EQ(batched.stats().shadow_calls, sequential.stats().shadow_calls);
    EXPECT_EQ(batched.stats().extracted_channels,
              sequential.stats().extracted_channels);
    EXPECT_EQ(batched.stats().hot_hits, sequential.stats().hot_hits);
    EXPECT_EQ(batched.stats().cold_misses, sequential.stats().cold_misses);
}

// --------------------------------------------- serving-trace replay, e2e

class TraceReplayTest : public TinyModelTest
{
  protected:
    /** A small served schedule from the real simulator over the paper's
     *  primary device, exported as replay steps. */
    ServingResult
    SimulateTrace(int num_requests)
    {
        LlmNpuEngine engine;
        ServingCostModel costs(engine, Qwen15_1_8B(),
                               SocSpec::RedmiK70Pro());
        ServingOptions options;
        options.num_requests = num_requests;
        options.rate_rps = 100.0;  // overlapping requests => real batches
        options.seed = 7;
        return ServingSimulator(costs, PaperDatasets(), options).Run();
    }
};

TEST_F(TraceReplayTest, ExportedStepsCoverEveryQuantum)
{
    const ServingResult result = SimulateTrace(5);
    ASSERT_EQ(result.replay_steps.size(), result.trace_tasks.size());
    std::vector<int> chunks_seen(result.records.size(), 0);
    std::vector<int> tokens_seen(result.records.size(), 0);
    for (const ReplayStep& step : result.replay_steps) {
        if (step.is_prefill) {
            ASSERT_EQ(step.request_ids.size(), 1u);
            const int id = step.request_ids.front();
            EXPECT_EQ(step.chunk_index, chunks_seen[id]++);
            EXPECT_GT(step.num_chunks, 0);
        } else {
            EXPECT_GE(step.request_ids.size(), 1u);
            for (int id : step.request_ids) ++tokens_seen[id];
        }
    }
    for (size_t id = 0; id < result.records.size(); ++id) {
        EXPECT_EQ(tokens_seen[id], result.records[id].request.output_len)
            << "request " << id;
        EXPECT_GT(chunks_seen[id], 0) << "request " << id;
    }
}

TEST_F(TraceReplayTest, ReplayedTraceIsBitwiseExactForEveryExecutor)
{
    const ServingResult result = SimulateTrace(6);

    Fp32LinearExecutor fp32(tiny_.weights);
    NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
    PerTensorExecutor per_tensor(tiny_.weights);
    LinearExecutor* executors[] = {&fp32, &shadow, &per_tensor};
    ReplayOptions options;
    options.max_output_tokens = 64;  // replay every decode membership
    for (LinearExecutor* linears : executors) {
        const ReplayOutcome outcome =
            ReplayServingTrace(result.replay_steps, result.records,
                               tiny_.model, *linears, options);
        EXPECT_TRUE(outcome.bitwise_match)
            << linears->Name() << ": " << outcome.first_mismatch;
        EXPECT_EQ(outcome.sequences, 6);
        EXPECT_GT(outcome.prefill_steps, 0);
        EXPECT_GT(outcome.decode_steps, 0);
        EXPECT_GT(outcome.max_decode_batch, 1)
            << "trace never batched decode — raise rate_rps so requests "
               "overlap";
        EXPECT_EQ(outcome.truncated_memberships, 0);
    }
}

TEST_F(TraceReplayTest, RandomizedDecodePlacementsReplayBitwise)
{
    // Property: for ANY per-request decode placement assignment (CPU or
    // NPU), replaying the served schedule through the DecodeBackend
    // reproduces each sequence's streams bitwise vs the solo run with the
    // same placement — even when one batched decode step mixes NPU-
    // quantized and CPU-float members and must split into placement runs.
    // The assignment goes where the replay reads per-member placements:
    // each decode step's ReplayStep::placements.
    const ServingResult result = SimulateTrace(6);
    ReplayOptions options;
    options.max_output_tokens = 64;

    int mixed_steps = 0;
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
        Rng rng(seed);
        ReplayPlacement placement;
        placement.prefill = rng.UniformInt(2) == 0
                                ? DecodePlacement::kCpuFloat
                                : DecodePlacement::kNpuQuant;
        std::vector<DecodePlacement> by_request;
        for (size_t id = 0; id < result.records.size(); ++id) {
            by_request.push_back(rng.UniformInt(2) == 0
                                     ? DecodePlacement::kCpuFloat
                                     : DecodePlacement::kNpuQuant);
        }
        std::vector<ReplayStep> steps = result.replay_steps;
        for (ReplayStep& step : steps) {
            if (step.is_prefill) continue;
            step.placements.clear();
            for (int id : step.request_ids) {
                step.placements.push_back(
                    by_request[static_cast<size_t>(id)]);
            }
            const auto npu_members =
                std::count(step.placements.begin(), step.placements.end(),
                           DecodePlacement::kNpuQuant);
            mixed_steps += npu_members > 0 &&
                           npu_members <
                               static_cast<std::ptrdiff_t>(
                                   step.placements.size());
        }
        Fp32LinearExecutor fp32(tiny_.weights);
        NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
        DecodeBackend backend(fp32, shadow);
        options.placement = placement;
        const ReplayOutcome outcome = ReplayServingTrace(
            steps, result.records, tiny_.model, backend, options);
        EXPECT_TRUE(outcome.bitwise_match)
            << "seed " << seed << ": " << outcome.first_mismatch;
        EXPECT_EQ(outcome.sequences, 6) << "seed " << seed;
        EXPECT_GT(outcome.decode_steps, 0) << "seed " << seed;
    }
    EXPECT_GT(mixed_steps, 0);  // some step stacked CPU and NPU members
}

TEST_F(TraceReplayTest, ReplayHonorsOutputCap)
{
    const ServingResult result = SimulateTrace(3);
    Fp32LinearExecutor fp32(tiny_.weights);
    ReplayOptions options;
    options.max_output_tokens = 2;
    const ReplayOutcome outcome = ReplayServingTrace(
        result.replay_steps, result.records, tiny_.model, fp32, options);
    EXPECT_TRUE(outcome.bitwise_match) << outcome.first_mismatch;
    EXPECT_GT(outcome.truncated_memberships, 0);
}

}  // namespace
}  // namespace llmnpu
