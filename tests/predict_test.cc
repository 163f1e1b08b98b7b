/**
 * @file
 * Predictor + control-plane suite (label `predict`): the learned latency
 * model (fit recovery, monotone predictions, serialization round-trip,
 * training-set extraction from bench JSON and traces), the control
 * plane's contracts (a deterministic PredictedPlacement, the predicted-SLO
 * gate, no admission of whole-demand KV misfits), the calibrated CPU/NPU
 * decode crossover, legacy equivalence of an explicit FCFS
 * queue, and bitwise tiny-model replay of a dynamically placed schedule
 * with mid-run flips.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "src/core/llmnpu_engine.h"
#include "src/core/shadow_executor.h"
#include "src/model/decode_backend.h"
#include "src/predict/latency_model.h"
#include "src/predict/training_data.h"
#include "src/serving/kv_ledger.h"
#include "src/serving/policy.h"
#include "src/serving/replay.h"
#include "src/serving/simulator.h"
#include "tests/support/tiny_model.h"

namespace llmnpu {
namespace {

using predict::Features;
using predict::LatencyModel;
using predict::OpClass;
using predict::OpSample;

// ----------------------------------------------------------- model fitting

/** Samples of the known non-negative linear law `coef` at every point of
 *  `grid`. */
std::vector<OpSample>
LawSamples(OpClass op, const std::vector<Features>& grid,
           const Features& coef)
{
    std::vector<OpSample> samples;
    for (const Features& features : grid) {
        OpSample s;
        s.op = op;
        s.features = features;
        for (int j = 0; j < predict::kNumFeatures; ++j) {
            s.measured_ms += coef[j] * features[j];
        }
        samples.push_back(s);
    }
    return samples;
}

std::vector<Features>
MatMulGrid()
{
    std::vector<Features> grid;
    for (int64_t m : {1, 4, 16, 64}) {
        for (int64_t k : {256, 1024}) {
            for (int64_t n : {256, 512, 1024}) {
                grid.push_back(predict::MatMulFeatures(m, k, n));
            }
        }
    }
    return grid;
}

std::vector<Features>
AttentionGrid()
{
    std::vector<Features> grid;
    for (int64_t ctx : {128, 256, 512, 1024}) {
        for (int64_t head_rows : {64, 512, 2048}) {
            grid.push_back(predict::AttentionFeatures(ctx, head_rows));
        }
    }
    return grid;
}

TEST(LatencyModelTest, FitRecoversLinearLaw)
{
    const std::vector<OpSample> samples =
        LawSamples(OpClass::kMatMulCpu, MatMulGrid(), {0.02, 0.05, 0.3, 0.8});
    LatencyModel model;
    model.Fit(samples);
    ASSERT_TRUE(model.Fitted(OpClass::kMatMulCpu));
    EXPECT_EQ(model.SampleCount(OpClass::kMatMulCpu),
              static_cast<int>(samples.size()));
    for (const OpSample& s : samples) {
        const double predicted =
            model.PredictMs(OpClass::kMatMulCpu, s.features);
        EXPECT_NEAR(predicted, s.measured_ms, 1e-6 + 1e-4 * s.measured_ms);
    }
    // Classes with no samples stay unfitted.
    EXPECT_FALSE(model.Fitted(OpClass::kMatMulNpu));
}

TEST(LatencyModelTest, FitIsDeterministic)
{
    const std::vector<OpSample> samples =
        LawSamples(OpClass::kAttention, AttentionGrid(), {0.01, 0.4, 0.2, 0});
    LatencyModel a;
    LatencyModel b;
    a.Fit(samples);
    b.Fit(samples);
    EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(LatencyModelTest, MatMulPredictionsAreMonotone)
{
    // Non-negative coefficients over features nondecreasing in every size
    // dimension: predicted cost never drops when m, k or n grows.
    std::vector<OpSample> samples;
    for (int64_t m : {1, 8, 64}) {
        for (int64_t k : {256, 1024}) {
            for (int64_t n : {256, 1024}) {
                OpSample s;
                s.op = OpClass::kMatMulCpu;
                s.features = predict::MatMulFeatures(m, k, n);
                s.measured_ms = 0.01 + 2.0 * static_cast<double>(m * k * n) /
                                           40.0e6;  // ~40 GFLOP/s surface
                samples.push_back(s);
            }
        }
    }
    LatencyModel model;
    model.Fit(samples);
    ASSERT_TRUE(model.Fitted(OpClass::kMatMulCpu));

    const std::vector<int64_t> sizes = {1, 4, 16, 64, 256, 1024};
    auto predict = [&](int64_t m, int64_t k, int64_t n) {
        return model.PredictMs(OpClass::kMatMulCpu,
                               predict::MatMulFeatures(m, k, n));
    };
    for (size_t i = 0; i + 1 < sizes.size(); ++i) {
        EXPECT_LE(predict(sizes[i], 512, 512), predict(sizes[i + 1], 512, 512));
        EXPECT_LE(predict(8, sizes[i], 512), predict(8, sizes[i + 1], 512));
        EXPECT_LE(predict(8, 512, sizes[i]), predict(8, 512, sizes[i + 1]));
        EXPECT_GE(predict(sizes[i], 512, 512), 0.0);
    }
}

TEST(LatencyModelTest, SerializeParseRoundTripsBitwise)
{
    LatencyModel model;
    std::vector<OpSample> samples =
        LawSamples(OpClass::kMatMulCpu, MatMulGrid(), {0.02, 0.05, 0.3, 0.8});
    const std::vector<OpSample> attention =
        LawSamples(OpClass::kAttention, AttentionGrid(), {0.01, 0.4, 0.2, 0});
    samples.insert(samples.end(), attention.begin(), attention.end());
    model.Fit(samples);

    const std::string text = model.Serialize();
    LatencyModel reloaded;
    std::string error;
    ASSERT_TRUE(LatencyModel::Parse(text, &reloaded, &error)) << error;
    EXPECT_EQ(reloaded.Serialize(), text);  // bitwise round-trip
    for (const OpSample& s : samples) {
        EXPECT_EQ(model.PredictMs(s.op, s.features),
                  reloaded.PredictMs(s.op, s.features));
    }
    EXPECT_FALSE(reloaded.Fitted(OpClass::kHandoff));
}

TEST(LatencyModelTest, ParseRejectsMalformed)
{
    LatencyModel out;
    std::string error;
    EXPECT_FALSE(LatencyModel::Parse("not a model", &out, &error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(LatencyModel::Parse(
        "llmnpu-latency-model-v1\nbogus_class 1 1 2 3 4\nend\n", &out,
        &error));
    EXPECT_FALSE(error.empty());
    // A row of a class this build does not know (decode_step_cpu) fails
    // the whole parse instead of loading the other rows half-way.
    error.clear();
    EXPECT_FALSE(LatencyModel::Parse(
        "llmnpu-latency-model-v1\nmatmul_cpu 12 0.02 0.05 0.3 0.8\n"
        "decode_step_cpu 24 12 3.5 0.8 0.05\nend\n",
        &out, &error));
    EXPECT_NE(error.find("decode_step_cpu"), std::string::npos) << error;
    EXPECT_FALSE(out.Fitted(OpClass::kMatMulCpu));
}

// ------------------------------------------------------ training extraction

TEST(TrainingDataTest, ExtractsKernelRowsAndIgnoresDecodeStepRows)
{
    const std::string json = R"({
      "benches": [
        {"name": "bench_kernels", "metrics": [
          {"kernel": "matmul_f32", "variant": "tiled_packed",
           "m": 8, "k": 512, "n": 512, "threads": 1, "gflops": 40.0},
          {"kernel": "matmul_f32", "variant": "tiled_packed",
           "m": 8, "k": 512, "n": 512, "threads": 4, "gflops": 120.0},
          {"kernel": "matmul_w8a8_per_tensor", "variant": "tiled_packed",
           "m": 8, "k": 512, "n": 512, "threads": 1, "gflops": 80.0},
          {"kernel": "paged_attention", "variant": "fused",
           "m": 4, "k": 256, "n": 64, "threads": 1, "gflops": 10.0},
          {"kernel": "softmax", "variant": "scalar",
           "m": 8, "k": 512, "n": 1, "threads": 1, "gflops": 1.0}
        ]},
        {"name": "bench_serving", "metrics": [
          {"mode": "decode_step", "batch": 8, "ctx": 512,
           "cpu_tpot_ms": 18.49, "npu_tpot_ms": 22.14},
          {"mode": "policy_sweep", "goodput_rps": 0.4}
        ]}
      ]})";
    std::vector<OpSample> samples;
    std::string error;
    predict::ExtractionStats stats;
    ASSERT_TRUE(predict::SamplesFromBenchResults(json, &samples, &error,
                                                 &stats))
        << error;
    // matmul_cpu + matmul_npu + attention; the threaded row and the
    // unknown kernel are skipped. bench_serving rows, the decode_step row
    // included, are not read at all: no sample, no skip.
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(stats.samples, 3);
    EXPECT_EQ(stats.skipped, 2);
    EXPECT_EQ(samples[0].op, OpClass::kMatMulCpu);
    // ms recovered from GFLOP/s: 2*m*k*n / (gflops * 1e6).
    EXPECT_NEAR(samples[0].measured_ms, 2.0 * 8 * 512 * 512 / 40.0e6, 1e-9);
    EXPECT_EQ(samples[1].op, OpClass::kMatMulNpu);
    EXPECT_EQ(samples[2].op, OpClass::kAttention);

    std::vector<OpSample> bad;
    EXPECT_FALSE(predict::SamplesFromBenchResults("{]", &bad, &error));
}

TEST(TrainingDataTest, ExtractsTraceSpans)
{
    const std::string trace = R"({"traceEvents": [
      {"ph": "X", "name": "handoff.npu_linear", "cat": "handoff",
       "pid": 1, "tid": 1, "ts": 0, "dur": 1500, "args": {"rows": 8}},
      {"ph": "X", "name": "replay.prefill", "cat": "replay",
       "pid": 1, "tid": 1, "ts": 2000, "dur": 4000, "args": {"rows": 16}},
      {"ph": "X", "name": "handoff.npu_run", "cat": "handoff",
       "pid": 1, "tid": 1, "ts": 7000, "dur": 900, "args": {}},
      {"ph": "X", "name": "replay.decode", "cat": "replay",
       "pid": 1, "tid": 1, "ts": 9000, "dur": 800, "args": {"batch": 4}}
    ]})";
    std::vector<OpSample> samples;
    std::string error;
    predict::ExtractionStats stats;
    ASSERT_TRUE(predict::SamplesFromTrace(trace, &samples, &error, &stats))
        << error;
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(stats.skipped, 1);  // the rows-less handoff span
    EXPECT_EQ(samples[0].op, OpClass::kHandoff);
    EXPECT_NEAR(samples[0].measured_ms, 1.5, 1e-12);  // 1500 us
    EXPECT_EQ(samples[1].op, OpClass::kChunkDispatch);
    EXPECT_NEAR(samples[1].measured_ms, 4.0, 1e-12);
}

// -------------------------------------------------------- policy contracts

class PolicyConformanceTest : public PaperDeviceTest
{
  protected:
    LlmNpuEngine engine_;
    ServingCostModel costs_{engine_, qwen_, soc_};
};

TEST_F(PolicyConformanceTest, CalibratedCrossoverMatchesPaperShape)
{
    // The §2.1 deployment shape the control plane must reproduce: CPU
    // decode is cheaper per token at small batch, the NPU wins at depth.
    const int64_t ctx = 512;
    EXPECT_LT(costs_.StepTokenMs(DecodePlacement::kCpuFloat, ctx, 1),
              costs_.StepTokenMs(DecodePlacement::kNpuQuant, ctx, 1));
    EXPECT_GT(costs_.StepTokenMs(DecodePlacement::kCpuFloat, ctx, 32),
              costs_.StepTokenMs(DecodePlacement::kNpuQuant, ctx, 32));
}

TEST_F(PolicyConformanceTest, PredictedPlacementIsDeterministic)
{
    const PredictedPlacement predictor(costs_);
    for (int batch : {1, 8, 32}) {
        PlacementQuery query;
        query.context_len = 256;
        query.batch_depth = batch;
        // Pure function of the query: ask twice, same answer.
        EXPECT_EQ(predictor.Place(query), predictor.Place(query))
            << "batch " << batch;
    }
}

TEST_F(PolicyConformanceTest, PredictedPlacementReproducesCrossover)
{
    const PredictedPlacement predictor(costs_);
    PlacementQuery query;
    query.context_len = 512;

    query.batch_depth = 1;
    EXPECT_EQ(predictor.Place(query), DecodePlacement::kCpuFloat);
    query.batch_depth = 32;
    EXPECT_EQ(predictor.Place(query), DecodePlacement::kNpuQuant);

    // Degradation backoff: a throttled NPU (thermal service scale) makes
    // the CPU the predicted-cheaper side even at depth.
    query.signals.npu_service_scale = 10.0;
    EXPECT_EQ(predictor.Place(query), DecodePlacement::kCpuFloat);
}

TEST(PolicyTest, PredictedSloAdmitsGatesOnPredictedFinish)
{
    AdmissionQuery query;
    query.deadline_ms = 1000.0;
    query.isolated_e2e_ms = 400.0;
    query.signals.now_ms = 100.0;

    // Feasible with an idle machine.
    EXPECT_TRUE(PredictedSloAdmits(query));
    // An in-flight prefill backlog pushes the predicted finish past the
    // deadline.
    query.queued_prefill_ms = 600.0;
    EXPECT_FALSE(PredictedSloAdmits(query));
    query.queued_prefill_ms = 0.0;
    // Decode congestion alone does too: each resident stream adds one
    // batch-marginal share to every step the arrival would join.
    query.signals.decode_pool_depth = 30;
    EXPECT_FALSE(PredictedSloAdmits(query));
    query.signals.decode_pool_depth = 0;
    // No SLO: nothing to be infeasible against.
    query.deadline_ms = 1e300;
    query.queued_prefill_ms = 1e6;
    EXPECT_TRUE(PredictedSloAdmits(query));
}

// ------------------------------------------------- simulator + replay

/** The policy-sweep workload shape: decode-heavy, so the decode pool
 *  actually deepens past the CPU/NPU crossover under load. */
std::vector<DatasetProfile>
DecodeHeavyMix()
{
    DatasetProfile profile;
    profile.name = "decode-heavy";
    profile.application = "policy sweep";
    profile.prompt_min = 48;
    profile.prompt_max = 96;
    profile.output_min = 160;
    profile.output_max = 256;
    return {profile};
}

class SimulatorPolicyTest : public PaperDeviceTest
{
  protected:
    LlmNpuEngine engine_;
    ServingCostModel costs_{engine_, qwen_, soc_};

    ServingResult RunWith(const ServingOptions& options)
    {
        return ServingSimulator(costs_, DecodeHeavyMix(), options).Run();
    }
};

TEST_F(SimulatorPolicyTest, ExplicitDefaultPoliciesAreBitIdentical)
{
    // A null queue policy (the default) against FCFS spelled out.
    ServingOptions base;
    base.num_requests = 16;
    base.rate_rps = 0.25;
    base.seed = 11;
    const ServingResult legacy = RunWith(base);

    ServingOptions explicit_options = base;
    explicit_options.queue_policy = MakeQueuePolicy(SchedPolicy::kFcfs);
    const ServingResult with_policies = RunWith(explicit_options);

    EXPECT_EQ(legacy.makespan_ms, with_policies.makespan_ms);
    EXPECT_EQ(legacy.npu_busy_ms, with_policies.npu_busy_ms);
    EXPECT_EQ(legacy.decode_busy_ms, with_policies.decode_busy_ms);
    EXPECT_EQ(legacy.preemptions, with_policies.preemptions);
    ASSERT_EQ(legacy.records.size(), with_policies.records.size());
    for (size_t i = 0; i < legacy.records.size(); ++i) {
        EXPECT_EQ(legacy.records[i].finish_ms,
                  with_policies.records[i].finish_ms)
            << "request " << i;
        EXPECT_EQ(legacy.records[i].first_token_ms,
                  with_policies.records[i].first_token_ms)
            << "request " << i;
    }
    ASSERT_EQ(legacy.replay_steps.size(), with_policies.replay_steps.size());
    for (size_t i = 0; i < legacy.replay_steps.size(); ++i) {
        EXPECT_EQ(legacy.replay_steps[i].is_prefill,
                  with_policies.replay_steps[i].is_prefill);
        EXPECT_EQ(legacy.replay_steps[i].request_ids,
                  with_policies.replay_steps[i].request_ids);
        EXPECT_EQ(legacy.replay_steps[i].placements,
                  with_policies.replay_steps[i].placements);
    }
}

TEST_F(SimulatorPolicyTest, PredictedAdmissionRejectsWholeDemandMisfit)
{
    // A request whose whole-demand KV footprint exceeds the pool budget
    // can never hold its pages simultaneously; the SLO gate only ever
    // adds rejections on top of the KV check, never admits past it.
    ServingOptions options;
    options.num_requests = 24;
    options.rate_rps = 0.25;
    options.seed = 11;
    options.kv_pool_pages = 18;  // the mix needs 13..22 pages per request
    options.predicted_slo_admission = true;
    const ServingResult result = RunWith(options);

    int misfits = 0;
    int admitted = 0;
    for (const RequestRecord& record : result.records) {
        const int64_t demand = KvPagesFor(
            static_cast<int64_t>(record.request.prompt_len) +
            record.request.output_len);
        if (demand > options.kv_pool_pages) {
            ++misfits;
            EXPECT_TRUE(record.rejected) << "request " << record.request.id;
        } else if (!record.rejected) {
            ++admitted;
        }
    }
    // Both sides of the check were exercised.
    EXPECT_GT(misfits, 0);
    EXPECT_GT(admitted, 0);
}

TEST_F(SimulatorPolicyTest, DefaultAdmissionRejectsExactlyWholeDemandMisfits)
{
    // Without the SLO gate the whole-demand KV check is the only
    // admission decision: a request is turned away iff its pages cannot
    // all be held at once, whatever the load.
    ServingOptions options;
    options.num_requests = 24;
    options.rate_rps = 0.25;
    options.seed = 11;
    options.kv_pool_pages = 18;  // the mix needs 13..22 pages per request
    const ServingResult result = RunWith(options);

    int misfits = 0;
    for (const RequestRecord& record : result.records) {
        const int64_t demand = KvPagesFor(
            static_cast<int64_t>(record.request.prompt_len) +
            record.request.output_len);
        const bool misfit = demand > options.kv_pool_pages;
        misfits += misfit ? 1 : 0;
        EXPECT_EQ(record.rejected, misfit) << "request " << record.request.id;
    }
    EXPECT_GT(misfits, 0);
    EXPECT_LT(misfits, static_cast<int>(result.records.size()));
    EXPECT_EQ(result.rejected, misfits);
}

TEST_F(SimulatorPolicyTest, PredictorUsesBothPlacementsOnAnNpuPlacedProfile)
{
    // Over an NPU-placed profile the oracle must still batch CPU decode at
    // the CPU marginal: priced at the NPU's near-zero one, CPU decode looks
    // flat in the batch and a predictor never sends a member to the NPU.
    LlmNpuOptions engine_options;
    engine_options.decode_placement = DecodePlacement::kNpuQuant;
    LlmNpuEngine engine(engine_options);
    ServingCostModel costs(engine, qwen_, soc_);
    ServingOptions options;
    options.num_requests = 24;
    options.rate_rps = 100.0;  // overlapping requests => deep batches
    options.seed = 11;
    options.max_decode_batch = 32;
    options.placement_policy = std::make_shared<PredictedPlacement>(costs);
    const ServingResult result =
        ServingSimulator(costs, DecodeHeavyMix(), options).Run();

    std::map<DecodePlacement, int> members;
    for (const ReplayStep& step : result.replay_steps) {
        if (step.is_prefill) continue;
        ASSERT_EQ(step.placements.size(), step.request_ids.size());
        for (DecodePlacement placement : step.placements) {
            ++members[placement];
        }
    }
    EXPECT_GT(members[DecodePlacement::kNpuQuant], 0);
    EXPECT_GT(members[DecodePlacement::kCpuFloat], 0);
}

class DynamicPlacementReplayTest : public TinyModelTest
{
  protected:
    SocSpec soc_ = SocSpec::RedmiK70Pro();
    ModelConfig qwen_ = Qwen15_1_8B();
    LlmNpuEngine engine_;
    ServingCostModel costs_{engine_, qwen_, soc_};
};

TEST_F(DynamicPlacementReplayTest, DynamicScheduleFlipsAndReplaysBitwise)
{
    // Overload the decode-heavy mix so the pool crosses the CPU/NPU
    // crossover mid-run: the dynamic policy must flip members at step
    // boundaries, record every executed placement, and the recorded
    // schedule must still replay bitwise on real tensors.
    ServingOptions options;
    options.num_requests = 24;
    options.rate_rps = 0.5;
    options.seed = 13;
    options.max_decode_batch = 32;
    options.placement_policy = std::make_shared<PredictedPlacement>(costs_);
    const ServingResult result =
        ServingSimulator(costs_, DecodeHeavyMix(), options).Run();

    std::set<DecodePlacement> seen;
    int flips = 0;
    std::map<int, DecodePlacement> last;
    for (const ReplayStep& step : result.replay_steps) {
        if (step.is_prefill) continue;
        // Dynamic runs record the executed placement of every member.
        ASSERT_EQ(step.placements.size(), step.request_ids.size());
        for (size_t mi = 0; mi < step.placements.size(); ++mi) {
            seen.insert(step.placements[mi]);
            const int id = step.request_ids[mi];
            const auto it = last.find(id);
            if (it != last.end() && it->second != step.placements[mi]) {
                ++flips;
            }
            last[id] = step.placements[mi];
        }
    }
    // Both placements executed and at least one member switched mid-run.
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_GT(flips, 0);

    Fp32LinearExecutor fp32(tiny_.weights);
    NpuShadowExecutor shadow(tiny_.weights, tiny_.profile, 0.5);
    DecodeBackend backend(fp32, shadow);
    ReplayOptions replay_options;
    replay_options.max_output_tokens = 48;
    ReplayPlacement placement;  // per-step recorded placements win
    placement.prefill = DecodePlacement::kNpuQuant;
    replay_options.placement = placement;
    const ReplayOutcome outcome =
        ReplayServingTrace(result.replay_steps, result.records, tiny_.model,
                           backend, replay_options);
    EXPECT_TRUE(outcome.bitwise_match) << outcome.first_mismatch;
    EXPECT_GT(outcome.decode_steps, 0);
    // Both sides of the handoff actually executed under the flips.
    EXPECT_GT(backend.stats().npu_linear_calls, 0);
}

}  // namespace
}  // namespace llmnpu
