/**
 * @file
 * Decode-on-NPU tests (CTest label `decode-npu`).
 *
 * Covers the numeric-plane decode offload path end to end: DecodeBackend
 * routing (uniform and per-sequence mixed placements, handoff-boundary
 * stats), batched-vs-sequential bitwise equality of NPU decode for ragged
 * B=1..4 batches, bitwise determinism across thread counts, NPU-decode vs
 * fp32-decode logit divergence bands against committed golden expectations,
 * and the NPU-decode serving-trace replay acceptance criterion.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/llmnpu_engine.h"
#include "src/core/shadow_executor.h"
#include "src/model/decode_backend.h"
#include "src/obs/metrics.h"
#include "src/serving/replay.h"
#include "src/serving/simulator.h"
#include "src/util/format.h"
#include "src/util/threadpool.h"
#include "src/workloads/arrivals.h"
#include "tests/support/golden.h"
#include "tests/support/tiny_model.h"
#include "tests/support/token_streams.h"

namespace llmnpu {
namespace {

/** One batched step: (sequence, token count) pairs, ragged by design. */
using ScriptStep = std::vector<std::pair<int, int>>;

// ------------------------------------------------- DecodeBackend routing

class DecodeBackendTest : public TinyModelTest
{
  protected:
    const int vocab_ = tiny_.config.vocab_size;
};

TEST_F(DecodeBackendTest, UniformNpuPlacementMatchesShadowExecutorBitwise)
{
    // A step routed to the NPU must be the shadow executor's result bit
    // for bit — the backend adds routing, never arithmetic.
    Fp32LinearExecutor fp32(tiny_.weights);
    NpuShadowExecutor shadow_direct(tiny_.weights, tiny_.profile, 0.5);
    NpuShadowExecutor shadow_routed(tiny_.weights, tiny_.profile, 0.5);
    DecodeBackend backend(fp32, shadow_routed);
    backend.SetStepPlacements({DecodePlacement::kNpuQuant});

    const std::vector<int> tokens = {3, 77, 150, 201};
    BatchedKvCache cache_a = tiny_.model.MakeCache();
    BatchedKvCache cache_b = tiny_.model.MakeCache();
    Tensor via_backend = tiny_.model.Forward(tokens, cache_a, backend);
    Tensor direct = tiny_.model.Forward(tokens, cache_b, shadow_direct);
    EXPECT_TRUE(via_backend.BitEquals(direct));
}

TEST_F(DecodeBackendTest, UniformCpuPlacementMatchesFp32Bitwise)
{
    Fp32LinearExecutor fp32_direct(tiny_.weights);
    Fp32LinearExecutor fp32_routed(tiny_.weights);
    NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
    DecodeBackend backend(fp32_routed, shadow);
    backend.SetStepPlacements({DecodePlacement::kCpuFloat});

    const std::vector<int> tokens = {9, 18, 27};
    BatchedKvCache cache_a = tiny_.model.MakeCache();
    BatchedKvCache cache_b = tiny_.model.MakeCache();
    Tensor via_backend = tiny_.model.Forward(tokens, cache_a, backend);
    Tensor direct = tiny_.model.Forward(tokens, cache_b, fp32_direct);
    EXPECT_TRUE(via_backend.BitEquals(direct));
}

using DecodeBackendDeathTest = DecodeBackendTest;

TEST_F(DecodeBackendDeathTest, ForwardWithoutPlacementsDies)
{
    // There is no default processor: a forward through a backend on which
    // no placement was ever set fails instead of running the CPU path.
    Fp32LinearExecutor fp32(tiny_.weights);
    NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
    DecodeBackend backend(fp32, shadow);
    BatchedKvCache cache = tiny_.model.MakeCache();
    EXPECT_DEATH(tiny_.model.Forward({1, 2}, cache, backend),
                 "step_placements_");
}

TEST_F(DecodeBackendTest, HandoffStatsCountBoundaryCrossings)
{
    Fp32LinearExecutor fp32(tiny_.weights);
    NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
    DecodeBackend backend(fp32, shadow);
    const int64_t linears_per_forward =
        static_cast<int64_t>(tiny_.config.LayerLinears().size()) *
        tiny_.config.num_layers;

    // CPU-placed step: no boundary crossings.
    backend.SetStepPlacements({DecodePlacement::kCpuFloat});
    BatchedKvCache cache = tiny_.model.MakeCache();
    tiny_.model.Forward({1, 2}, cache, backend);
    EXPECT_EQ(backend.stats().cpu_linear_calls, linears_per_forward);
    EXPECT_EQ(backend.stats().npu_linear_calls, 0);
    EXPECT_EQ(backend.stats().handoffs, 0);
    EXPECT_EQ(backend.stats().quantized_elems, 0);

    // NPU-placed decode step: every linear crosses the boundary — one f32
    // row quantized in, one accumulator row dequantized out, per linear.
    backend.ResetStats();
    backend.SetStepPlacements({DecodePlacement::kNpuQuant});
    tiny_.model.Forward({3}, cache, backend);
    EXPECT_EQ(backend.stats().npu_linear_calls, linears_per_forward);
    EXPECT_EQ(backend.stats().cpu_linear_calls, 0);
    EXPECT_EQ(backend.stats().handoffs, linears_per_forward);
    int64_t expected_quantized = 0;
    int64_t expected_dequantized = 0;
    for (const auto& spec : tiny_.config.LayerLinears()) {
        expected_quantized += spec.k;   // one activation row in
        expected_dequantized += spec.n; // one output row back
    }
    expected_quantized *= tiny_.config.num_layers;
    expected_dequantized *= tiny_.config.num_layers;
    EXPECT_EQ(backend.stats().quantized_elems, expected_quantized);
    EXPECT_EQ(backend.stats().dequantized_elems, expected_dequantized);
}

TEST_F(DecodeBackendTest, TwoBackendsCountOnlyTheirOwnTraffic)
{
    // Two live backends in one process (a traced and an untraced one, as a
    // benchmark holds): traffic through one leaves the other's stats zero,
    // while the registry counters still see every crossing.
    Fp32LinearExecutor fp32(tiny_.weights);
    NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
    DecodeBackend busy(fp32, shadow);
    DecodeBackend idle(fp32, shadow);
    obs::Counter& round_trips =
        obs::MetricsRegistry::Global().GetCounter("handoff.round_trips");
    const int64_t registry_before = round_trips.value();

    busy.SetStepPlacements(
        {DecodePlacement::kNpuQuant, DecodePlacement::kCpuFloat});
    BatchedKvCache cache = tiny_.model.MakeBatchedCache(2);
    tiny_.model.ForwardBatch({{0, {1, 2}}, {1, {3}}}, cache, busy);
    EXPECT_GT(busy.stats().npu_linear_calls, 0);
    EXPECT_GT(busy.stats().cpu_linear_calls, 0);
    EXPECT_EQ(round_trips.value() - registry_before, busy.stats().handoffs);

    const HandoffStats& s = idle.stats();
    EXPECT_EQ(s.npu_linear_calls, 0);
    EXPECT_EQ(s.cpu_linear_calls, 0);
    EXPECT_EQ(s.handoffs, 0);
    EXPECT_EQ(s.quantized_elems, 0);
    EXPECT_EQ(s.dequantized_elems, 0);
}

TEST_F(DecodeBackendTest, PlacementSizeMismatchPanics)
{
    Fp32LinearExecutor fp32(tiny_.weights);
    NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
    DecodeBackend backend(fp32, shadow);
    BatchedKvCache cache = tiny_.model.MakeBatchedCache(2);
    EXPECT_DEATH(tiny_.model.ForwardBatchPlaced(
                     {{0, {1}}, {1, {2}}}, {DecodePlacement::kNpuQuant},
                     cache, backend),
                 "CHECK failed");
}

TEST_F(DecodeBackendTest, ForwardAfterMultiEntryStepPlacementsPanics)
{
    // Forward is a one-segment ForwardBatch: a step placement list sized
    // for a larger batch is a caller bug, not "use placements[0]".
    Fp32LinearExecutor fp32(tiny_.weights);
    NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
    DecodeBackend backend(fp32, shadow);
    backend.SetStepPlacements(
        {DecodePlacement::kNpuQuant, DecodePlacement::kCpuFloat});
    const Tensor x = Tensor::Full({1, tiny_.config.hidden_size}, 0.5f);
    EXPECT_DEATH(backend.Forward(0, LinearKind::kWq, x), "CHECK failed");
}

TEST_F(DecodeBackendTest, TransformerForwardOnTwoSlotCachePanics)
{
    // Forward runs slot 0 of a one-slot cache; handing it a batched cache
    // must fail loudly rather than silently advance slot 0 only.
    Fp32LinearExecutor fp32(tiny_.weights);
    NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
    DecodeBackend backend(fp32, shadow);
    BatchedKvCache cache = tiny_.model.MakeBatchedCache(2);
    EXPECT_DEATH(tiny_.model.Forward({1, 2}, cache, backend), "CHECK failed");
}

// ------------------------- batched vs sequential NPU decode, bitwise

/**
 * Runs `script` through ForwardBatchPlaced with each sequence pinned to
 * `placement_of(seq)`, then re-runs every sequence alone with the same
 * placement through Forward, asserting bitwise-identical hidden states and
 * logits — the ForwardBatch contract extended with placement routing.
 */
void
RunPlacedScriptBitwise(const TinyModelContext& tiny,
                       const std::vector<ScriptStep>& script,
                       const std::map<int, DecodePlacement>& placement_of)
{
    const int vocab = tiny.config.vocab_size;
    Fp32LinearExecutor fp32(tiny.weights);
    NpuShadowExecutor shadow(tiny.weights, tiny.profile, 0.5);
    DecodeBackend backend(fp32, shadow);

    // Batched pass with per-member placements.
    std::map<int, int> slots;
    std::map<int, int> cursor;
    std::map<int, std::vector<float>> hidden_rows, logit_rows;
    std::map<int, std::vector<std::vector<int>>> groups;
    BatchedKvCache cache = tiny.model.MakeBatchedCache();
    for (const ScriptStep& step : script) {
        std::vector<BatchSeq> batch;
        std::vector<DecodePlacement> placements;
        for (const auto& [seq, count] : step) {
            if (!slots.count(seq)) slots[seq] = cache.AddSequence();
            std::vector<int> tokens;
            for (int i = 0; i < count; ++i) {
                tokens.push_back(TestTokenAt(seq, cursor[seq]++, vocab));
            }
            groups[seq].push_back(tokens);
            batch.push_back({slots[seq], std::move(tokens)});
            placements.push_back(placement_of.at(seq));
        }
        Tensor hidden = tiny.model.ForwardBatchPlaced(batch, placements,
                                                      cache, backend);
        Tensor logits = tiny.model.Logits(hidden);
        int64_t row = 0;
        for (size_t i = 0; i < batch.size(); ++i) {
            const int64_t rows =
                static_cast<int64_t>(batch[i].tokens.size());
            AppendTensorRows(hidden_rows[step[i].first],
                       hidden.CopyRows(row, rows));
            AppendTensorRows(logit_rows[step[i].first],
                       logits.CopyRows(row, rows));
            row += rows;
        }
    }

    // Sequential reference: same token groups, same placement, alone.
    for (const auto& [seq, seq_groups] : groups) {
        backend.SetStepPlacements({placement_of.at(seq)});
        BatchedKvCache solo = tiny.model.MakeCache();
        std::vector<float> ref_hidden, ref_logits;
        for (const std::vector<int>& tokens : seq_groups) {
            Tensor h = tiny.model.Forward(tokens, solo, backend);
            AppendTensorRows(ref_hidden, h);
            AppendTensorRows(ref_logits, tiny.model.Logits(h));
        }
        ASSERT_EQ(ref_hidden.size(), hidden_rows[seq].size()) << "seq "
                                                              << seq;
        EXPECT_EQ(std::memcmp(ref_hidden.data(), hidden_rows[seq].data(),
                              ref_hidden.size() * sizeof(float)),
                  0)
            << "hidden states of seq " << seq << " ("
            << DecodePlacementName(placement_of.at(seq))
            << ") differ between placed-batched and sequential execution";
        ASSERT_EQ(ref_logits.size(), logit_rows[seq].size()) << "seq "
                                                             << seq;
        EXPECT_EQ(std::memcmp(ref_logits.data(), logit_rows[seq].data(),
                              ref_logits.size() * sizeof(float)),
                  0)
            << "logits of seq " << seq << " differ between placed-batched "
            << "and sequential execution";
    }
}

/** Ragged prefill-then-decode scripts for B=1..4 (decode = m=1 rows). */
std::vector<std::vector<ScriptStep>>
DecodeScripts()
{
    return {
        // B=1.
        {{{0, 5}}, {{0, 1}}, {{0, 1}}},
        // B=2, ragged prefill then two batched decode steps.
        {{{0, 4}, {1, 7}}, {{0, 1}, {1, 1}}, {{0, 1}, {1, 1}}},
        // B=3 with chunked prefill inside the batch.
        {{{0, 5}, {2, 3}},
         {{1, 6}, {2, 2}},
         {{0, 1}, {1, 1}, {2, 1}},
         {{0, 1}, {1, 1}, {2, 1}}},
        // B=4 batched decode after ragged prefills, with a mixed
        // prefill/decode step in the middle.
        {{{0, 3}, {1, 1}, {2, 6}},
         {{0, 1}, {1, 1}, {2, 1}, {3, 5}},
         {{0, 1}, {1, 1}, {2, 1}, {3, 1}},
         {{3, 1}, {2, 1}, {1, 1}, {0, 1}}},
    };
}

class NpuDecodeBatchedTest : public TinyModelTest
{};

TEST_F(NpuDecodeBatchedTest, BatchedEqualsSequentialAllNpu)
{
    for (const auto& script : DecodeScripts()) {
        std::map<int, DecodePlacement> all_npu;
        for (int seq = 0; seq < 4; ++seq) {
            all_npu[seq] = DecodePlacement::kNpuQuant;
        }
        RunPlacedScriptBitwise(tiny_, script, all_npu);
    }
}

TEST_F(NpuDecodeBatchedTest, BatchedEqualsSequentialMixedPlacements)
{
    // Alternating and blocked placements exercise both the run-splitting
    // path (cpu|npu|cpu|npu) and contiguous same-placement runs.
    const std::vector<std::map<int, DecodePlacement>> assignments = {
        {{0, DecodePlacement::kNpuQuant},
         {1, DecodePlacement::kCpuFloat},
         {2, DecodePlacement::kNpuQuant},
         {3, DecodePlacement::kCpuFloat}},
        {{0, DecodePlacement::kCpuFloat},
         {1, DecodePlacement::kCpuFloat},
         {2, DecodePlacement::kNpuQuant},
         {3, DecodePlacement::kNpuQuant}},
    };
    for (const auto& placement_of : assignments) {
        for (const auto& script : DecodeScripts()) {
            RunPlacedScriptBitwise(tiny_, script, placement_of);
        }
    }
}

TEST_F(NpuDecodeBatchedTest, BitwiseDeterministicAcrossThreadCounts)
{
    // The NPU decode path runs over the shared ThreadPool (packed W8A8 +
    // compact shadow matmuls); its logits must be bitwise identical at any
    // thread count.
    std::vector<std::vector<float>> per_thread_logits;
    for (int threads : {1, 2, 4}) {
        ScopedNumThreads scoped(threads);
        Fp32LinearExecutor fp32(tiny_.weights);
        NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
        DecodeBackend backend(fp32, shadow);

        BatchedKvCache cache = tiny_.model.MakeCache();
        backend.SetStepPlacements({DecodePlacement::kCpuFloat});
        tiny_.model.Forward({5, 10, 15, 20, 25}, cache, backend);
        backend.SetStepPlacements({DecodePlacement::kNpuQuant});
        std::vector<float> logits;
        for (int t = 0; t < 6; ++t) {
            Tensor h = tiny_.model.Forward(
                {TestTokenAt(0, t, tiny_.config.vocab_size)}, cache, backend);
            AppendTensorRows(logits, tiny_.model.Logits(h));
        }
        per_thread_logits.push_back(std::move(logits));
    }
    for (size_t i = 1; i < per_thread_logits.size(); ++i) {
        ASSERT_EQ(per_thread_logits[i].size(), per_thread_logits[0].size());
        EXPECT_EQ(std::memcmp(per_thread_logits[i].data(),
                              per_thread_logits[0].data(),
                              per_thread_logits[0].size() * sizeof(float)),
                  0)
            << "NPU-decode logits differ between 1 thread and thread "
            << "count variant " << i;
    }
}

// --------------------------------- NPU vs fp32 decode divergence bands

/** Committed accuracy bands for NPU decode on the tiny-model fixture.
 *  W8A8 with shadow outliers tracks fp32 closely but not exactly; these
 *  bands pin the divergence so a quantization regression (dropped shadow
 *  term, broken clip scale) fails loudly. */
constexpr double kMinTop1Agreement = 0.85;
constexpr double kMaxLogitRmse = 0.8;
constexpr double kMaxLogitAbsDiff = 8.0;

class NpuDecodeDivergenceTest : public TinyModelTest
{};

TEST_F(NpuDecodeDivergenceTest, DivergenceVsFp32WithinGoldenBands)
{
    // Both runs prefill in fp32 from the shared eval corpus, then decode
    // teacher-forced tokens — one on the fp32 path, one on the NPU W8A8 +
    // shadow path — and the final-row logits are compared per step.
    constexpr int kDecodeSteps = 4;
    Fp32LinearExecutor fp32(tiny_.weights);
    Fp32LinearExecutor backend_fp32(tiny_.weights);
    NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
    DecodeBackend backend(backend_fp32, shadow);

    int steps = 0;
    int agree = 0;
    double sq_err = 0.0;
    int64_t logit_count = 0;
    double max_abs = 0.0;
    for (size_t c = 0; c < tiny_.eval_corpus.size(); ++c) {
        const std::vector<int>& prompt = tiny_.eval_corpus[c];
        BatchedKvCache ref_cache = tiny_.model.MakeCache();
        BatchedKvCache npu_cache = tiny_.model.MakeCache();
        tiny_.model.Forward(prompt, ref_cache, fp32);
        backend.SetStepPlacements({DecodePlacement::kCpuFloat});
        tiny_.model.Forward(prompt, npu_cache, backend);

        backend.SetStepPlacements({DecodePlacement::kNpuQuant});
        for (int t = 0; t < kDecodeSteps; ++t) {
            const int token =
                TestTokenAt(static_cast<int>(c), t, tiny_.config.vocab_size);
            Tensor ref_logits = tiny_.model.Logits(
                tiny_.model.Forward({token}, ref_cache, fp32));
            Tensor npu_logits = tiny_.model.Logits(
                tiny_.model.Forward({token}, npu_cache, backend));
            ASSERT_EQ(ref_logits.NumElements(), npu_logits.NumElements());
            const float* pr = ref_logits.Data<float>();
            const float* pn = npu_logits.Data<float>();
            const int64_t n = ref_logits.NumElements();
            int64_t ref_best = 0, npu_best = 0;
            for (int64_t i = 0; i < n; ++i) {
                const double diff = static_cast<double>(pr[i]) - pn[i];
                sq_err += diff * diff;
                max_abs = std::max(max_abs, std::abs(diff));
                if (pr[i] > pr[ref_best]) ref_best = i;
                if (pn[i] > pn[npu_best]) npu_best = i;
            }
            logit_count += n;
            ++steps;
            agree += ref_best == npu_best ? 1 : 0;
        }
    }
    const double top1 = static_cast<double>(agree) / steps;
    const double rmse = std::sqrt(sq_err / static_cast<double>(logit_count));

    EXPECT_GE(top1, kMinTop1Agreement);
    EXPECT_LE(rmse, kMaxLogitRmse);
    EXPECT_LE(max_abs, kMaxLogitAbsDiff);
    // NPU decode must actually diverge from fp32 (it quantizes): a zero
    // divergence means the backend silently routed decode to the CPU.
    EXPECT_GT(rmse, 0.0);

    // Golden band summary: verdicts only (not raw measurements, which may
    // shift in the last bits between FMA and non-FMA builds).
    std::string summary = StrFormat(
        "decode-npu divergence vs fp32 (tiny model, %d contexts x %d "
        "decode steps)\n",
        static_cast<int>(tiny_.eval_corpus.size()), kDecodeSteps);
    summary += StrFormat("top1_agreement >= %.2f: %s\n", kMinTop1Agreement,
                         top1 >= kMinTop1Agreement ? "within" : "OUTSIDE");
    summary += StrFormat("logit_rmse <= %.2f: %s\n", kMaxLogitRmse,
                         rmse <= kMaxLogitRmse ? "within" : "OUTSIDE");
    summary += StrFormat("logit_max_abs <= %.2f: %s\n", kMaxLogitAbsDiff,
                         max_abs <= kMaxLogitAbsDiff ? "within" : "OUTSIDE");
    summary += StrFormat("nonzero_divergence: %s\n",
                         rmse > 0.0 ? "yes" : "NO");
    EXPECT_TRUE(MatchesGolden("decode_npu_divergence.txt", summary));
}

// ------------------------------------- NPU-decode trace replay, e2e

class NpuDecodeReplayTest : public TinyModelTest
{
  protected:
    /** A served schedule from the real simulator with decode priced on
     *  the NPU (decode placement changes step composition: different
     *  token times and batching marginals reshape the trace). */
    ServingResult
    SimulateNpuDecodeTrace(int num_requests)
    {
        LlmNpuOptions options;
        options.decode_placement = DecodePlacement::kNpuQuant;
        LlmNpuEngine engine(options);
        ServingCostModel costs(engine, Qwen15_1_8B(),
                               SocSpec::RedmiK70Pro());
        ServingOptions serving;
        serving.num_requests = num_requests;
        serving.rate_rps = 100.0;  // overlapping requests => real batches
        serving.seed = 11;
        return ServingSimulator(costs, PaperDatasets(), serving).Run();
    }
};

TEST_F(NpuDecodeReplayTest, NpuDecodeScheduleReplaysBitwise)
{
    // The acceptance criterion: replaying an NPU-decode schedule on real
    // tensors reproduces per-sequence logits bitwise vs running each
    // sequence solo with the same placement.
    const ServingResult result = SimulateNpuDecodeTrace(5);

    Fp32LinearExecutor fp32(tiny_.weights);
    NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
    DecodeBackend backend(fp32, shadow);
    ReplayPlacement placement;
    placement.prefill = DecodePlacement::kNpuQuant;
    placement.decode = DecodePlacement::kNpuQuant;
    ReplayOptions options;
    options.max_output_tokens = 64;  // replay every decode membership
    options.placement = placement;
    const ReplayOutcome outcome =
        ReplayServingTrace(result.replay_steps, result.records, tiny_.model,
                           backend, options);
    EXPECT_TRUE(outcome.bitwise_match) << outcome.first_mismatch;
    EXPECT_EQ(outcome.sequences, 5);
    EXPECT_GT(outcome.prefill_steps, 0);
    EXPECT_GT(outcome.decode_steps, 0);
    EXPECT_EQ(outcome.truncated_memberships, 0);
    // Every decode linear crossed the handoff boundary.
    EXPECT_GT(backend.stats().npu_linear_calls, 0);
    EXPECT_GT(backend.stats().quantized_elems, 0);
}

TEST_F(NpuDecodeReplayTest, NpuDecodeProfileReshapesTheSchedule)
{
    // Sanity on the cost plane feeding the replayed schedule: the NPU
    // placement flows into the profile, and the engine's NPU step grows
    // far slower in the batch than the CPU law (one weight stream per
    // step).
    LlmNpuOptions options;
    options.decode_placement = DecodePlacement::kNpuQuant;
    LlmNpuEngine engine(options);
    const ServingCostProfile profile = engine.ServingCosts(
        Qwen15_1_8B(), SocSpec::RedmiK70Pro(), {512, 16});
    EXPECT_EQ(profile.decode_placement, DecodePlacement::kNpuQuant);
    const double one = engine.DecodeStepMs(Qwen15_1_8B(),
                                           SocSpec::RedmiK70Pro(),
                                           DecodePlacement::kNpuQuant, 512, 1);
    const double two = engine.DecodeStepMs(Qwen15_1_8B(),
                                           SocSpec::RedmiK70Pro(),
                                           DecodePlacement::kNpuQuant, 512, 2);
    EXPECT_GE(two, one);
    EXPECT_LT(two, CpuDecodeStepMs(one, 2));
    // NPU decode at B=1 pays the slower accelerator weight stream: a
    // single-token step costs more than the CPU-resident decode token,
    // which both placements price alike.
    LlmNpuEngine cpu_engine;
    const ServingCostProfile cpu_profile = cpu_engine.ServingCosts(
        Qwen15_1_8B(), SocSpec::RedmiK70Pro(), {512, 16});
    EXPECT_EQ(profile.cpu_decode_token_ms, cpu_profile.cpu_decode_token_ms);
    EXPECT_GT(one, cpu_profile.cpu_decode_token_ms);
    // Run()'s NPU decode is the oracle's B=1 step at each context.
    const EngineResult run = engine.Run(Qwen15_1_8B(),
                                        SocSpec::RedmiK70Pro(), {512, 16});
    double steps_ms = 0.0;
    for (int t = 0; t < 16; ++t) {
        steps_ms += engine
                        .NpuDecodeStep(Qwen15_1_8B(), SocSpec::RedmiK70Pro(),
                                       512 + t, 1)
                        .TotalMs();
    }
    EXPECT_NEAR(steps_ms, run.decode_ms, run.decode_ms * 1e-9);
}

}  // namespace
}  // namespace llmnpu
