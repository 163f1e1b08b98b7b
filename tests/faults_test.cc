/**
 * @file
 * Fault-plane tests: deterministic counter-based injection (same
 * coordinates -> same draw, order-independent), the thermal model's
 * heat/cool/ramp arithmetic, option validation death tests, and the
 * degraded-mode serving scenarios end to end — zero-rate bit-identity with
 * the legacy simulator, retry/shed termination under fault storms, the
 * NPU->CPU circuit-breaker failover replaying bitwise on real tensors,
 * mid-run pool shrink staying within the shrunk budget, brownout shedding,
 * and deadline expiry while queued.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/core/llmnpu_engine.h"
#include "src/core/shadow_executor.h"
#include "src/model/decode_backend.h"
#include "src/serving/faults.h"
#include "src/serving/replay.h"
#include "src/serving/simulator.h"
#include "src/sim/thermal.h"
#include "tests/support/timeline_asserts.h"
#include "tests/support/tiny_model.h"

namespace llmnpu {
namespace {

// ------------------------------------------------ fault oracle determinism

TEST(FaultPlaneTest, DrawsArePureFunctionsOfCoordinates)
{
    FaultOptions options;
    options.chunk_failure_prob = 0.3;
    options.chunk_stall_prob = 0.2;
    options.decode_failure_prob = 0.25;
    const FaultPlane a(options);
    const FaultPlane b(options);
    // Query b in scrambled order and interleaved with unrelated draws: the
    // oracle is stateless, so history cannot change any answer.
    for (int request = 7; request >= 0; --request) {
        b.DecodeFaults(request + 100, 0, 0);
        b.ChunkFailFraction(request, request, request);
    }
    for (int request = 0; request < 8; ++request) {
        for (int chunk = 0; chunk < 4; ++chunk) {
            for (int attempt = 0; attempt < 3; ++attempt) {
                EXPECT_EQ(a.Chunk(request, chunk, attempt),
                          b.Chunk(request, chunk, attempt));
                EXPECT_DOUBLE_EQ(
                    a.ChunkFailFraction(request, chunk, attempt),
                    b.ChunkFailFraction(request, chunk, attempt));
                EXPECT_EQ(a.DecodeFaults(request, chunk, attempt),
                          b.DecodeFaults(request, chunk, attempt));
            }
        }
    }
}

TEST(FaultPlaneTest, SeedSelectsAnIndependentFaultPattern)
{
    FaultOptions options;
    options.chunk_failure_prob = 0.3;
    const FaultPlane a(options);
    options.seed = options.seed ^ 0x5eedULL;
    const FaultPlane b(options);
    int differs = 0;
    for (int request = 0; request < 64; ++request) {
        if (a.Chunk(request, 0, 0) != b.Chunk(request, 0, 0)) ++differs;
    }
    EXPECT_GT(differs, 0);
}

TEST(FaultPlaneTest, EmpiricalRatesTrackConfiguredProbabilities)
{
    FaultOptions options;
    options.chunk_failure_prob = 0.3;
    options.chunk_stall_prob = 0.1;
    options.decode_failure_prob = 0.2;
    const FaultPlane plane(options);
    int fails = 0, stalls = 0, decode_faults = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const FaultPlane::ChunkFate fate = plane.Chunk(i, i % 7, 0);
        fails += fate == FaultPlane::ChunkFate::kFail;
        stalls += fate == FaultPlane::ChunkFate::kStall;
        decode_faults += plane.DecodeFaults(i, i % 13, 0);
    }
    EXPECT_NEAR(static_cast<double>(fails) / n, 0.3, 0.03);
    // Stall is drawn only when the failure draw passed (~0.7 of attempts).
    EXPECT_NEAR(static_cast<double>(stalls) / n, 0.7 * 0.1, 0.02);
    EXPECT_NEAR(static_cast<double>(decode_faults) / n, 0.2, 0.03);
}

TEST(FaultPlaneTest, ZeroRatesNeverFault)
{
    const FaultPlane plane{FaultOptions{}};
    for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(plane.Chunk(i, i, i), FaultPlane::ChunkFate::kOk);
        EXPECT_FALSE(plane.DecodeFaults(i, i, i));
    }
}

TEST(FaultPlaneTest, BackoffIsCappedExponential)
{
    const FaultPlane plane{FaultOptions{}};
    // min(base * 2^(attempt-1), cap), up to the cap and flat after it.
    double expected = kRetryBackoffMs;
    for (int attempt = 1; expected < kRetryBackoffCapMs; ++attempt) {
        EXPECT_DOUBLE_EQ(plane.BackoffMs(attempt), expected) << attempt;
        expected *= 2.0;
    }
    EXPECT_DOUBLE_EQ(plane.BackoffMs(1), 2.0);
    EXPECT_DOUBLE_EQ(plane.BackoffMs(6), 64.0);
    EXPECT_DOUBLE_EQ(plane.BackoffMs(7), kRetryBackoffCapMs);   // capped
    EXPECT_DOUBLE_EQ(plane.BackoffMs(500), kRetryBackoffCapMs); // no blowup
}

TEST(FaultPlaneTest, FailFractionStaysInsideTheChunk)
{
    FaultOptions options;
    options.chunk_failure_prob = 0.5;
    const FaultPlane plane(options);
    for (int i = 0; i < 512; ++i) {
        const double f = plane.ChunkFailFraction(i, i % 5, i % 3);
        EXPECT_GE(f, 0.05);
        EXPECT_LE(f, 0.95);
    }
}

// ------------------------------------------------------- thermal model

TEST(ThermalModelTest, DisabledModelIsInert)
{
    ThermalModel model{ThermalOptions{}};
    const double t0 = model.temperature_c();
    model.Advance(1e6, /*npu_busy=*/true);
    EXPECT_DOUBLE_EQ(model.temperature_c(), t0);
    EXPECT_DOUBLE_EQ(model.ServiceScale(), 1.0);
    EXPECT_FALSE(model.Throttled());
}

TEST(ThermalModelTest, BusyHeatsIdleCoolsTowardAmbient)
{
    ThermalOptions options;
    options.enabled = true;
    options.heat_c_per_busy_ms = 0.05;
    options.cool_tau_ms = 1000.0;
    ThermalModel model(options);
    model.Advance(500.0, /*npu_busy=*/true);
    const double hot = model.temperature_c();
    EXPECT_GT(hot, kThermalAmbientC);
    model.Advance(200.0, /*npu_busy=*/false);
    const double cooler = model.temperature_c();
    EXPECT_LT(cooler, hot);
    EXPECT_GT(cooler, kThermalAmbientC);
    // Long idle converges to ambient (exponentially, never below).
    for (int i = 0; i < 100; ++i) model.Advance(1000.0, false);
    EXPECT_NEAR(model.temperature_c(), kThermalAmbientC, 1e-6);
}

TEST(ThermalModelTest, ThrottleRampIsLinearAndClamped)
{
    ThermalOptions options;
    options.enabled = true;
    options.throttle_start_c = 70.0;
    options.throttle_full_c = 90.0;
    options.max_slowdown = 3.0;
    options.cool_tau_ms = 1e12;  // effectively no cooling: exact heating
    options.heat_c_per_busy_ms = 1.0;
    ThermalModel model(options);
    EXPECT_DOUBLE_EQ(model.ServiceScale(), 1.0);
    EXPECT_FALSE(model.Throttled());

    model.Advance(55.0, true);  // 25 + 55 = 80 C: ramp midpoint
    EXPECT_NEAR(model.temperature_c(), 80.0, 1e-9);
    EXPECT_TRUE(model.Throttled());
    EXPECT_NEAR(model.ServiceScale(), 2.0, 1e-9);

    model.Advance(100.0, true);  // far past throttle_full_c
    EXPECT_DOUBLE_EQ(model.ServiceScale(), 3.0);  // clamped
}

// ------------------------------------------------- validation death tests

using FaultValidationDeathTest = ::testing::Test;

TEST(FaultValidationDeathTest, RejectsOutOfRangeProbabilities)
{
    FaultOptions options;
    options.chunk_failure_prob = 1.5;
    EXPECT_DEATH(options.Validate(), "fatal");
    options = FaultOptions{};
    options.decode_failure_prob = -0.1;
    EXPECT_DEATH(options.Validate(), "fatal");
    options = FaultOptions{};
    options.chunk_failure_prob = 0.6;
    options.chunk_stall_prob = 0.5;  // sum >= 1: every attempt would die
    EXPECT_DEATH(options.Validate(), "fatal");
}

TEST(FaultValidationDeathTest, RejectsBadShrinkAndThermal)
{
    FaultOptions options;
    options.pool_shrink_at_ms = 100.0;
    options.pool_shrink_to = 0.0;  // would shrink the pool to nothing
    EXPECT_DEATH(options.Validate(), "fatal");
    options = FaultOptions{};
    options.thermal.enabled = true;
    options.thermal.throttle_full_c = options.thermal.throttle_start_c;
    EXPECT_DEATH(options.Validate(), "fatal");
    options = FaultOptions{};
    options.thermal.enabled = true;
    options.thermal.max_slowdown = 0.5;  // a speedup is not a throttle
    EXPECT_DEATH(options.Validate(), "fatal");
}

TEST(FaultValidationDeathTest, ServingOptionsValidateIsLoud)
{
    ServingOptions options;
    options.num_requests = 0;
    EXPECT_DEATH(options.Validate(), "fatal");
    options = ServingOptions{};
    options.rate_rps = 0.0;
    EXPECT_DEATH(options.Validate(), "fatal");
    options = ServingOptions{};
    options.kv_pool_pages = -4;
    EXPECT_DEATH(options.Validate(), "fatal");
    options = ServingOptions{};
    options.max_decode_batch = 0;
    EXPECT_DEATH(options.Validate(), "fatal");
    options = ServingOptions{};
    options.closed_loop = true;
    options.num_clients = 0;
    EXPECT_DEATH(options.Validate(), "fatal");
    options = ServingOptions{};
    options.shed_expired_queued = true;
    options.slo_factor = 0.0;  // expiry shedding needs deadlines
    EXPECT_DEATH(options.Validate(), "fatal");
    options = ServingOptions{};
    options.faults.chunk_failure_prob = 2.0;  // forwarded to faults
    EXPECT_DEATH(options.Validate(), "fatal");
}

TEST(FaultValidationDeathTest, RejectsOptionsTheRunWouldIgnore)
{
    // A shrink of an unbounded pool never fires.
    ServingOptions options;
    options.faults.pool_shrink_at_ms = 100.0;
    options.faults.pool_shrink_to = 0.5;
    EXPECT_DEATH(options.Validate(), "pool_shrink_at_ms");
    options.kv_pool_pages = 64;
    options.Validate();  // bounded: fine

    // Brownout shedding keys on throttling and on deadlines.
    options = ServingOptions{};
    options.faults.brownout_shedding = true;
    EXPECT_DEATH(options.Validate(), "thermal");
    options.faults.thermal.enabled = true;
    options.Validate();  // thermal on, default SLOs: fine
    options.slo_factor = 0.0;
    EXPECT_DEATH(options.Validate(), "slo_factor");

    // The predicted-SLO gate has no deadlines to predict against.
    options = ServingOptions{};
    options.predicted_slo_admission = true;
    options.Validate();  // default SLOs: fine
    options.slo_factor = 0.0;
    EXPECT_DEATH(options.Validate(), "predicted_slo_admission");
}

// --------------------------------------------- degraded-mode serving runs

class FaultServingTest : public PaperDeviceTest
{
  protected:
    ServingResult
    Run(const ServingOptions& options,
        DecodePlacement decode_placement = DecodePlacement::kCpuFloat)
    {
        LlmNpuOptions engine_options;
        engine_options.decode_placement = decode_placement;
        LlmNpuEngine engine(engine_options);
        ServingCostModel costs(engine, qwen_, soc_);
        return ServingSimulator(costs, PaperDatasets(), options).Run();
    }

    /** Options for a modest overlapping-load run. */
    static ServingOptions
    BaseOptions(int num_requests = 10, double rate_rps = 20.0)
    {
        ServingOptions options;
        options.num_requests = num_requests;
        options.rate_rps = rate_rps;
        options.seed = 17;
        return options;
    }

    /** Asserts two runs produced bit-identical schedules and timings. */
    static void
    ExpectBitIdentical(const ServingResult& a, const ServingResult& b)
    {
        EXPECT_EQ(a.makespan_ms, b.makespan_ms);
        EXPECT_EQ(a.npu_busy_ms, b.npu_busy_ms);
        EXPECT_EQ(a.decode_busy_ms, b.decode_busy_ms);
        ASSERT_EQ(a.records.size(), b.records.size());
        for (size_t i = 0; i < a.records.size(); ++i) {
            EXPECT_EQ(a.records[i].first_dispatch_ms,
                      b.records[i].first_dispatch_ms);
            EXPECT_EQ(a.records[i].prefill_done_ms,
                      b.records[i].prefill_done_ms);
            EXPECT_EQ(a.records[i].first_token_ms,
                      b.records[i].first_token_ms);
            EXPECT_EQ(a.records[i].finish_ms, b.records[i].finish_ms);
            EXPECT_EQ(a.records[i].tokens_out, b.records[i].tokens_out);
        }
        ASSERT_EQ(a.replay_steps.size(), b.replay_steps.size());
        for (size_t i = 0; i < a.replay_steps.size(); ++i) {
            EXPECT_EQ(a.replay_steps[i].is_prefill,
                      b.replay_steps[i].is_prefill);
            EXPECT_EQ(a.replay_steps[i].request_ids,
                      b.replay_steps[i].request_ids);
            EXPECT_EQ(a.replay_steps[i].chunk_index,
                      b.replay_steps[i].chunk_index);
        }
        EXPECT_EQ(a.trace_tasks.size(), b.trace_tasks.size());
    }

    /** Every admitted request reached a terminal state: completed, or shed
     *  with its accounting stamped. */
    static void
    ExpectAllTerminated(const ServingResult& result)
    {
        for (const RequestRecord& record : result.records) {
            if (record.rejected) continue;
            if (record.shed) {
                EXPECT_FALSE(record.Completed())
                    << "request " << record.request.id;
                EXPECT_GE(record.shed_ms, record.request.arrival_ms);
                EXPECT_FALSE(record.MetSlo());
            } else {
                EXPECT_TRUE(record.Completed())
                    << "request " << record.request.id;
                EXPECT_EQ(record.tokens_out, record.request.output_len);
            }
        }
    }
};

TEST_F(FaultServingTest, ZeroRateFaultPlaneIsBitIdenticalToLegacy)
{
    // The seed and the breaker changed, every injection rate zero: the
    // fault plane must be invisible — the run is bit-identical to one with
    // a default-constructed (fully disabled) FaultOptions.
    const ServingOptions legacy = BaseOptions();
    ServingOptions armed = legacy;
    armed.faults.seed = 0xdeadULL;
    armed.faults.circuit_breaker_k = 1;
    const ServingResult a = Run(legacy);
    const ServingResult b = Run(armed);
    EXPECT_EQ(a.faults, 0);
    EXPECT_EQ(b.faults, 0);
    EXPECT_EQ(b.shed, 0);
    EXPECT_EQ(b.npu_faulted_ms, 0.0);
    ExpectBitIdentical(a, b);
    // Zero-rate runs record no per-step placements: the replay bridge sees
    // exactly the legacy trace shape.
    for (const ReplayStep& step : b.replay_steps) {
        EXPECT_TRUE(step.placements.empty());
    }
}

TEST_F(FaultServingTest, TransientChunkFaultsRetryAndStillComplete)
{
    ServingOptions options = BaseOptions();
    options.faults.chunk_failure_prob = 0.2;
    options.faults.chunk_stall_prob = 0.1;
    const ServingResult result = Run(options);

    EXPECT_GT(result.faults, 0);
    EXPECT_GT(result.retries, 0);
    // Faulted occupancy is discarded work, accounted separately from the
    // honest busy time.
    EXPECT_GT(result.npu_faulted_ms, 0.0);
    EXPECT_LE(result.npu_busy_ms, result.makespan_ms + 1e-9);
    ExpectAllTerminated(result);
    // The executed trace is still a valid schedule (one task per unit at a
    // time), and faulted attempts never produced replay steps: the
    // serving->numeric bridge stays parallel.
    EXPECT_TRUE(ScheduleIsValid(result.trace_tasks, result.trace));
    ASSERT_EQ(result.replay_steps.size(), result.trace_tasks.size());
    // Retries delayed completions: makespan must not beat the clean run.
    const ServingResult clean = Run(BaseOptions());
    EXPECT_GT(result.makespan_ms, clean.makespan_ms);
}

TEST_F(FaultServingTest, SameSeedSameStorm)
{
    ServingOptions options = BaseOptions();
    options.faults.chunk_failure_prob = 0.3;
    options.faults.chunk_stall_prob = 0.15;
    const ServingResult a = Run(options);
    const ServingResult b = Run(options);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.npu_faulted_ms, b.npu_faulted_ms);
    ExpectBitIdentical(a, b);
}

TEST_F(FaultServingTest, FaultStormTerminatesWithinTheShrunkBudget)
{
    // The acceptance stress: heavy chunk failures + stalls + NPU decode
    // faults + a mid-run pool shrink to 25%. The run must terminate with
    // every admitted request completed or shed, and after the shrink the
    // pool never exceeds the live budget.
    ServingOptions options = BaseOptions(/*num_requests=*/12,
                                         /*rate_rps=*/50.0);
    options.kv_pool_pages = 88;
    options.faults.chunk_failure_prob = 0.5;
    options.faults.chunk_stall_prob = 0.2;
    options.faults.decode_failure_prob = 0.5;
    options.faults.pool_shrink_at_ms = 400.0;
    options.faults.pool_shrink_to = 0.25;
    const ServingResult result = Run(options, DecodePlacement::kNpuQuant);

    EXPECT_GT(result.faults, 0);
    ExpectAllTerminated(result);
    EXPECT_EQ(result.kv_pool_pages_live, 22);  // 88 * 0.25
    EXPECT_LE(result.kv_pages_peak_post_shrink, result.kv_pool_pages_live);
    EXPECT_LE(result.kv_pages_peak, result.kv_pool_pages);
    EXPECT_TRUE(ScheduleIsValid(result.trace_tasks, result.trace));
}

TEST_F(FaultServingTest, PoolShrinkAloneEvictsOrShedsAndTerminates)
{
    // Memory pressure without transient faults: the shrink routes through
    // the termination-safe eviction order, so the run still completes and
    // the post-shrink peak respects the live budget.
    ServingOptions options = BaseOptions(/*num_requests=*/10,
                                         /*rate_rps=*/50.0);
    options.kv_pool_pages = 90;
    options.faults.pool_shrink_at_ms = 300.0;
    options.faults.pool_shrink_to = 0.3;
    const ServingResult result = Run(options);

    EXPECT_EQ(result.faults, 0);
    EXPECT_EQ(result.kv_pool_pages_live, 27);
    EXPECT_LE(result.kv_pages_peak_post_shrink, result.kv_pool_pages_live);
    // The shrink had to take pages back from someone.
    EXPECT_GT(result.evictions + result.shed, 0);
    ExpectAllTerminated(result);
}

TEST_F(FaultServingTest, ThermalThrottlingStretchesTheRun)
{
    ServingOptions options = BaseOptions();
    options.faults.thermal.enabled = true;
    options.faults.thermal.heat_c_per_busy_ms = 0.5;
    options.faults.thermal.cool_tau_ms = 5000.0;
    options.faults.thermal.throttle_start_c = 40.0;
    options.faults.thermal.throttle_full_c = 60.0;
    options.faults.thermal.max_slowdown = 2.5;
    const ServingResult hot = Run(options);
    const ServingResult cool = Run(BaseOptions());

    EXPECT_GT(hot.peak_temp_c, 40.0);
    EXPECT_GT(hot.npu_throttled_frac, 0.0);
    EXPECT_LE(hot.npu_throttled_frac, 1.0);
    EXPECT_GT(hot.makespan_ms, cool.makespan_ms);
    ExpectAllTerminated(hot);
}

TEST_F(FaultServingTest, BrownoutShedsInfeasibleQueuedWork)
{
    // Aggressive heating + a tight SLO + overload: once throttled, queued
    // requests whose deadlines are no longer feasible are shed instead of
    // burning hot cycles on lost causes.
    ServingOptions options = BaseOptions(/*num_requests=*/14,
                                         /*rate_rps=*/50.0);
    options.slo_factor = 1.5;
    options.faults.thermal.enabled = true;
    options.faults.thermal.heat_c_per_busy_ms = 0.5;
    options.faults.thermal.cool_tau_ms = 5000.0;
    options.faults.thermal.throttle_start_c = 35.0;
    options.faults.thermal.throttle_full_c = 55.0;
    options.faults.thermal.max_slowdown = 3.0;
    options.faults.brownout_shedding = true;
    const ServingResult result = Run(options);

    EXPECT_GT(result.npu_throttled_frac, 0.0);
    EXPECT_GT(result.shed, 0);
    ExpectAllTerminated(result);
    // Shed requests are SLO misses, never goodput: the report's completed
    // count excludes every one of them.
    const ServingReport report = result.Report();
    EXPECT_EQ(report.shed, result.shed);
    EXPECT_EQ(report.completed + report.shed, report.admitted);
}

TEST_F(FaultServingTest, QueuedDeadlineExpiryShedsAndReleasesPages)
{
    // Overload with tight deadlines and expiry shedding on: requests whose
    // deadline passes while still queued are shed at the deadline (an SLO
    // miss, never goodput) and their reserved pages return to the pool.
    ServingOptions options = BaseOptions(/*num_requests=*/16,
                                         /*rate_rps=*/100.0);
    options.slo_factor = 1.2;
    options.kv_pool_pages = 88;
    options.shed_expired_queued = true;
    const ServingResult result = Run(options);

    EXPECT_GT(result.shed, 0);
    ExpectAllTerminated(result);
    int queued_sheds = 0;
    for (const RequestRecord& record : result.records) {
        if (!record.shed) continue;
        // Shed at (not before) the deadline, never after completing.
        EXPECT_GE(record.shed_ms, record.request.deadline_ms);
        EXPECT_FALSE(record.Completed());
        if (record.first_dispatch_ms < 0.0) {
            ++queued_sheds;
            EXPECT_EQ(record.tokens_out, 0);
        }
    }
    EXPECT_GT(queued_sheds, 0) << "no request expired while queued";
    // Pages released at shed time kept the pool inside its budget and let
    // the survivors finish.
    EXPECT_LE(result.kv_pages_peak, result.kv_pool_pages);
    // Without expiry shedding the same overload completes everything
    // (late), so shedding is strictly the configured policy, not a crutch.
    ServingOptions lenient = options;
    lenient.shed_expired_queued = false;
    const ServingResult slow = Run(lenient);
    EXPECT_EQ(slow.shed, 0);
    for (const RequestRecord& record : slow.records) {
        if (!record.rejected) {
            EXPECT_TRUE(record.Completed());
        }
    }
}

// --------------------------- circuit breaker + bitwise failover replay

class FailoverReplayTest : public TinyModelTest
{
  protected:
    /** A served schedule with NPU decode dispatch faults hot enough to
     *  trip the circuit breaker. By default every member follows an
     *  NPU-placed decode profile. With `predicted`, a PredictedPlacement
     *  decides each member's step from a CPU-placed profile (as the
     *  bench's predicted rows do) over a decode-heavy mix whose pool grows
     *  deep enough for it to pick the NPU. */
    ServingResult
    SimulateFailoverTrace(int num_requests, double decode_failure_prob,
                          bool predicted = false)
    {
        LlmNpuOptions engine_options;
        engine_options.decode_placement = predicted
                                              ? DecodePlacement::kCpuFloat
                                              : DecodePlacement::kNpuQuant;
        LlmNpuEngine engine(engine_options);
        ServingCostModel costs(engine, Qwen15_1_8B(),
                               SocSpec::RedmiK70Pro());
        ServingOptions options;
        options.num_requests = num_requests;
        options.rate_rps = 100.0;  // overlapping requests => real batches
        options.seed = 11;
        options.faults.decode_failure_prob = decode_failure_prob;
        options.faults.circuit_breaker_k = 2;
        if (!predicted) {
            return ServingSimulator(costs, PaperDatasets(), options).Run();
        }
        options.max_decode_batch = 32;
        options.placement_policy = std::make_shared<PredictedPlacement>(costs);
        const std::vector<DatasetProfile> decode_heavy{
            {"decode-heavy", "breaker test", 48, 96, 160, 256}};
        return ServingSimulator(costs, decode_heavy, options).Run();
    }
};

TEST_F(FailoverReplayTest, FailoverIsPermanentInBothPlacementModes)
{
    // The breaker rule: from its failover on, every decode step a
    // failed-over request joins runs it on the CPU, whether members follow
    // the engine profile or the predictor decides.
    for (const bool predicted : {false, true}) {
        SCOPED_TRACE(predicted ? "predicted placement" : "profile placement");
        // Under the predictor a low fault rate keeps the NPU predicted
        // cheaper at depth, so a member the rule missed would go back.
        const ServingResult result =
            predicted ? SimulateFailoverTrace(24, 0.1, /*predicted=*/true)
                      : SimulateFailoverTrace(5, 0.45);
        ASSERT_GT(result.failovers, 0);
        ASSERT_EQ(result.replay_steps.size(), result.trace.records.size());
        int checked = 0;
        int back_on_npu = 0;
        for (size_t si = 0; si < result.replay_steps.size(); ++si) {
            const ReplayStep& step = result.replay_steps[si];
            if (step.is_prefill) continue;
            ASSERT_EQ(step.placements.size(), step.request_ids.size());
            for (size_t mi = 0; mi < step.request_ids.size(); ++mi) {
                const RequestRecord& record =
                    result.records[static_cast<size_t>(step.request_ids[mi])];
                if (!record.failed_over ||
                    result.trace.records[si].start_ms < record.failover_ms) {
                    continue;
                }
                ++checked;
                if (step.placements[mi] != DecodePlacement::kCpuFloat) {
                    ++back_on_npu;
                }
            }
        }
        EXPECT_GT(checked, 0);
        EXPECT_EQ(back_on_npu, 0);
    }
}

TEST_F(FailoverReplayTest, CircuitBreakerFailsOverMidStream)
{
    const ServingResult result = SimulateFailoverTrace(5, 0.45);
    EXPECT_GT(result.faults, 0);
    ASSERT_GT(result.failovers, 0);
    int failed_over = 0;
    for (const RequestRecord& record : result.records) {
        if (!record.failed_over) continue;
        ++failed_over;
        EXPECT_GE(record.failover_ms, record.request.arrival_ms);
        if (!record.shed) {
            EXPECT_TRUE(record.Completed());
        }
    }
    EXPECT_EQ(failed_over, result.failovers);

    // The executed per-member placements are recorded on every decode
    // step, and at least one step ran a failed-over member on the CPU.
    bool saw_cpu_member = false;
    for (const ReplayStep& step : result.replay_steps) {
        if (step.is_prefill) continue;
        ASSERT_EQ(step.placements.size(), step.request_ids.size());
        saw_cpu_member |=
            std::find(step.placements.begin(), step.placements.end(),
                      DecodePlacement::kCpuFloat) != step.placements.end();
    }
    EXPECT_TRUE(saw_cpu_member);
}

TEST_F(FailoverReplayTest, MidStreamFailoverReplaysBitwise)
{
    // The acceptance criterion: a schedule where the breaker switched
    // requests NPU->CPU mid-stream replays bitwise on real tensors — each
    // sequence's batched rows equal its solo run with the *same* per-token
    // placements, including the switch point.
    const ServingResult result = SimulateFailoverTrace(5, 0.45);
    ASSERT_GT(result.failovers, 0);

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
    EXPECT_GT(outcome.decode_steps, 0);
    EXPECT_EQ(outcome.truncated_memberships, 0);
    // Both sides of the handoff actually executed.
    EXPECT_GT(backend.stats().npu_linear_calls, 0);
}

}  // namespace
}  // namespace llmnpu
