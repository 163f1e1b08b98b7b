/**
 * @file
 * Serving-layer tests: scheduling policy orderings, conservation invariants
 * of the discrete-event simulator (every admitted request completes, time
 * stamps are ordered, the executed trace is a valid schedule), zero-load
 * equivalence with single-shot engine latency, and the SLO story (EDF
 * goodput >= FCFS under overload).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "src/core/llmnpu_engine.h"
#include "src/engines/baselines.h"
#include "src/obs/trace.h"
#include "src/obs/trace_reader.h"
#include "src/serving/simulator.h"
#include "tests/support/schedule_hash.h"
#include "tests/support/timeline_asserts.h"
#include "tests/support/tiny_model.h"

namespace llmnpu {
namespace {

// ----------------------------------------------------------- policy picks

QueueEntry
Entry(int id, double arrival, double deadline, double remaining,
      double decode = 0.0)
{
    QueueEntry entry;
    entry.request_id = id;
    entry.arrival_ms = arrival;
    entry.deadline_ms = deadline;
    entry.remaining_prefill_ms = remaining;
    entry.remaining_total_ms = remaining + decode;
    return entry;
}

TEST(PolicyTest, FcfsPicksEarliestArrival)
{
    const std::vector<QueueEntry> queue = {Entry(0, 50.0, 1e9, 10.0),
                                           Entry(1, 10.0, 1e9, 99.0),
                                           Entry(2, 30.0, 1e9, 1.0)};
    EXPECT_EQ(QueuePolicy(SchedPolicy::kFcfs).Pick(queue, 100.0), 1u);
}

TEST(PolicyTest, SpfPicksShortestRemainingPrefill)
{
    const std::vector<QueueEntry> queue = {Entry(0, 50.0, 1e9, 10.0),
                                           Entry(1, 10.0, 1e9, 99.0),
                                           Entry(2, 30.0, 1e9, 1.0)};
    EXPECT_EQ(
        QueuePolicy(SchedPolicy::kShortestPromptFirst).Pick(queue, 100.0),
        2u);
}

TEST(PolicyTest, SloEdfPrefersFeasibleEarliestDeadline)
{
    // Request 0's deadline already passed; 2 has the earliest deadline that
    // is still achievable given its remaining work.
    const std::vector<QueueEntry> queue = {Entry(0, 0.0, 90.0, 10.0),
                                           Entry(1, 10.0, 500.0, 50.0),
                                           Entry(2, 20.0, 300.0, 50.0)};
    EXPECT_EQ(QueuePolicy(SchedPolicy::kSloEdf).Pick(queue, 100.0), 2u);
}

TEST(PolicyTest, SloEdfPricesDecodeIntoFeasibility)
{
    // Deadlines are end-to-end: request 0 could finish its *prefill* by
    // its deadline but not its 500 ms of decode, so it is a lost cause
    // and must yield to the later-deadline but achievable request 1.
    const std::vector<QueueEntry> queue = {
        Entry(0, 0.0, 200.0, 10.0, 500.0),
        Entry(1, 10.0, 400.0, 50.0, 100.0)};
    EXPECT_EQ(QueuePolicy(SchedPolicy::kSloEdf).Pick(queue, 100.0), 1u);
}

TEST(PolicyTest, SloEdfFallsBackToFcfsWhenAllExpired)
{
    const std::vector<QueueEntry> queue = {Entry(0, 40.0, 10.0, 50.0),
                                           Entry(1, 5.0, 20.0, 50.0)};
    EXPECT_EQ(QueuePolicy(SchedPolicy::kSloEdf).Pick(queue, 1000.0), 1u);
}

TEST(PolicyTest, NamesAreStable)
{
    EXPECT_EQ(PolicyName(SchedPolicy::kFcfs), "fcfs");
    EXPECT_EQ(PolicyName(SchedPolicy::kShortestPromptFirst), "spf");
    EXPECT_EQ(PolicyName(SchedPolicy::kSloEdf), "slo-edf");
}

// ------------------------------------------------- cost decompositions

class ServingFixture : public PaperDeviceTest
{
  protected:
    std::vector<DatasetProfile> mix_ = PaperDatasets();
};

TEST_F(ServingFixture, LlmNpuDecompositionMatchesSingleShotRun)
{
    LlmNpuEngine engine;
    const InferenceRequest request{1024, 8};
    const EngineResult run = engine.Run(qwen_, soc_, request);
    const ServingCostProfile profile =
        engine.ServingCosts(qwen_, soc_, request);

    EXPECT_EQ(profile.chunk_ms.size(), 4u);  // 1024 / 256-token chunks
    EXPECT_NEAR(profile.PrefillMs(), run.prefill_ms,
                run.prefill_ms * 1e-9);
    EXPECT_NEAR(profile.IsolatedDecodeMs(request.output_len), run.decode_ms,
                run.decode_ms * 1e-9);
    EXPECT_GT(profile.float_decode_interference, 0.0);
    EXPECT_LE(profile.float_decode_interference, 0.95);
    // The NPU factor is the chunk's accelerator busy fraction — higher
    // than the float share it leaves the CPU (the NPU is the bottleneck).
    EXPECT_GT(profile.npu_decode_interference,
              profile.float_decode_interference);
    EXPECT_LE(profile.npu_decode_interference, 0.95);
    // Default placement is the paper's: decode on the float processor.
    EXPECT_EQ(profile.decode_placement, DecodePlacement::kCpuFloat);
    // Later chunks attend to longer kv: occupancy never shrinks.
    for (size_t c = 1; c < profile.chunk_ms.size(); ++c) {
        EXPECT_GE(profile.chunk_ms[c], profile.chunk_ms[c - 1]);
    }
}

TEST_F(ServingFixture, CpuDecodeStepFollowsTheCpuLawOnEveryProfile)
{
    // The calibrated oracle prices a CPU decode step by one law whatever
    // the profile's own placement: the profile's CPU token price, each
    // extra stream adding kDecodeBatchMarginal of it.
    std::vector<std::unique_ptr<InferenceEngine>> engines =
        MakePaperBaselines();
    engines.push_back(std::make_unique<LlmNpuEngine>());
    LlmNpuOptions npu_decode;
    npu_decode.decode_placement = DecodePlacement::kNpuQuant;
    npu_decode.label = "llm.npu (NPU decode)";
    engines.push_back(std::make_unique<LlmNpuEngine>(npu_decode));
    int priced = 0;
    for (const std::unique_ptr<InferenceEngine>& engine : engines) {
        if (!engine->SupportsModel(qwen_)) continue;
        SCOPED_TRACE(engine->Name());
        ++priced;
        ServingCostModel costs(*engine, qwen_, soc_);
        for (int ctx : {64, 512, 1024}) {
            const double token_ms = costs.Costs({ctx, 1}).cpu_decode_token_ms;
            for (int batch : {1, 2, 8, 32}) {
                EXPECT_EQ(costs.StepMs(DecodePlacement::kCpuFloat, ctx, batch),
                          token_ms *
                              (1.0 + (batch - 1) * kDecodeBatchMarginal))
                    << "ctx " << ctx << " batch " << batch;
            }
        }
    }
    EXPECT_GE(priced, 3);
}

TEST(DecodePriceDeathTest, CpuPlacedProfileCannotPriceTheNpu)
{
    // A profile prices its own placement and the CPU fallback path only:
    // asking a single-processor baseline for an NPU step fails loudly
    // instead of quietly reading its CPU price.
    LlamaCppEngine engine;
    EXPECT_DEATH(engine.DecodeStepMs(Qwen15_1_8B(), SocSpec::RedmiK70Pro(),
                                     DecodePlacement::kNpuQuant, 512, 4),
                 "placement == DecodePlacement::kCpuFloat");
}

TEST_F(ServingFixture, BaselineDefaultDecompositionIsMonolithic)
{
    LlamaCppEngine engine;
    const InferenceRequest request{512, 4};
    const EngineResult run = engine.Run(qwen_, soc_, request);
    const ServingCostProfile profile =
        engine.ServingCosts(qwen_, soc_, request);
    ASSERT_EQ(profile.chunk_ms.size(), 1u);
    EXPECT_DOUBLE_EQ(profile.chunk_ms[0], run.prefill_ms);
    // Single-processor: both placement factors fully blocked.
    EXPECT_DOUBLE_EQ(profile.float_decode_interference, 1.0);
    EXPECT_DOUBLE_EQ(profile.npu_decode_interference, 1.0);
    EXPECT_EQ(profile.decode_placement, DecodePlacement::kCpuFloat);
    EXPECT_NEAR(profile.IsolatedDecodeMs(request.output_len), run.decode_ms,
                run.decode_ms * 1e-9);
}

TEST_F(ServingFixture, CostModelCachesPerShape)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingCostProfile& a = costs.Costs({512, 4});
    const ServingCostProfile& b = costs.Costs({512, 4});
    EXPECT_EQ(&a, &b);  // memoized: same object
    EXPECT_NE(&a, &costs.Costs({768, 4}));
}

// ------------------------------------------------- simulator invariants

ServingResult
RunSim(ServingCostModel& costs, const std::vector<DatasetProfile>& mix,
       SchedPolicy policy, double rate_rps, int num_requests,
       uint64_t seed = 7)
{
    ServingOptions options;
    options.queue_policy = MakeQueuePolicy(policy);
    options.rate_rps = rate_rps;
    options.num_requests = num_requests;
    options.seed = seed;
    return ServingSimulator(costs, mix, options).Run();
}

TEST_F(ServingFixture, ZeroLoadReproducesSingleShotLatency)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    // One request: no queueing, no batching, no contention.
    ServingOptions options;
    options.rate_rps = 0.001;
    options.num_requests = 1;
    options.seed = 3;
    const ServingResult result =
        ServingSimulator(costs, mix_, options).Run();
    ASSERT_EQ(result.records.size(), 1u);
    const RequestRecord& record = result.records[0];
    ASSERT_TRUE(record.Completed());
    EXPECT_DOUBLE_EQ(record.QueueingMs(), 0.0);
    const double isolated =
        costs.IsolatedE2eMs(record.request.AsInference());
    EXPECT_NEAR(record.E2eMs(), isolated, isolated * 1e-9);
    const ServingCostProfile& profile =
        costs.Costs(record.request.AsInference());
    EXPECT_NEAR(record.TtftMs(),
                profile.PrefillMs() + profile.cpu_decode_token_ms,
                isolated * 1e-9);
}

TEST_F(ServingFixture, AllAdmittedRequestsCompleteWithOrderedTimestamps)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingResult result =
        RunSim(costs, mix_, SchedPolicy::kFcfs, 1.0, 40);
    ASSERT_EQ(result.records.size(), 40u);
    for (const RequestRecord& record : result.records) {
        ASSERT_TRUE(record.Completed()) << "req " << record.request.id;
        EXPECT_EQ(record.tokens_out, record.request.output_len);
        EXPECT_LE(record.request.arrival_ms, record.first_dispatch_ms);
        EXPECT_LT(record.first_dispatch_ms, record.prefill_done_ms);
        EXPECT_LT(record.prefill_done_ms, record.first_token_ms);
        EXPECT_LE(record.first_token_ms, record.finish_ms);
        EXPECT_GE(record.QueueingMs(), 0.0);
        EXPECT_GT(record.TtftMs(), 0.0);
        EXPECT_GE(record.TpotMs(), 0.0);  // 0 when output_len == 1
        EXPECT_LE(record.finish_ms, result.makespan_ms);
    }
}

TEST_F(ServingFixture, ExecutedTraceIsAValidSchedule)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingResult result =
        RunSim(costs, mix_, SchedPolicy::kSloEdf, 1.2, 30);
    // The executed quanta form a dependency-free DAG; the shared checks
    // then assert Equation 4 (one task per unit at a time) and busy-time
    // conservation on the serving schedule exactly as on prefill DAGs.
    EXPECT_TRUE(ScheduleIsValid(result.trace_tasks, result.trace));
    EXPECT_NEAR(result.trace.busy_ms[static_cast<size_t>(Unit::kNpu)],
                result.npu_busy_ms, 1e-6);
    EXPECT_NEAR(result.trace.busy_ms[static_cast<size_t>(Unit::kCpu)],
                result.decode_busy_ms, 1e-6);
    EXPECT_LE(result.npu_busy_ms, result.makespan_ms + 1e-9);
}

TEST_F(ServingFixture, FcfsServesPrefillInArrivalOrder)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingResult result =
        RunSim(costs, mix_, SchedPolicy::kFcfs, 1.5, 30);
    // Arrival order == id order by construction; FCFS must finish prefill
    // in that order too.
    double prev = -1.0;
    for (const RequestRecord& record : result.records) {
        EXPECT_GT(record.prefill_done_ms, prev) << record.request.id;
        prev = record.prefill_done_ms;
    }
}

TEST_F(ServingFixture, ShortestPromptFirstCanReorder)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingResult result =
        RunSim(costs, mix_, SchedPolicy::kShortestPromptFirst, 1.5, 30);
    bool reordered = false;
    double prev = -1.0;
    for (const RequestRecord& record : result.records) {
        if (record.prefill_done_ms < prev) reordered = true;
        prev = std::max(prev, record.prefill_done_ms);
    }
    EXPECT_TRUE(reordered);  // the mixture has 3x spread in prompt length
}

TEST_F(ServingFixture, DeterministicForSameSeed)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingResult a =
        RunSim(costs, mix_, SchedPolicy::kSloEdf, 1.0, 25, 11);
    const ServingResult b =
        RunSim(costs, mix_, SchedPolicy::kSloEdf, 1.0, 25, 11);
    ASSERT_EQ(a.records.size(), b.records.size());
    EXPECT_DOUBLE_EQ(a.makespan_ms, b.makespan_ms);
    for (size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.records[i].finish_ms, b.records[i].finish_ms);
    }
    const ServingResult c =
        RunSim(costs, mix_, SchedPolicy::kSloEdf, 1.0, 25, 12);
    EXPECT_NE(a.makespan_ms, c.makespan_ms);
}

TEST_F(ServingFixture, SloEdfGoodputAtLeastFcfsUnderOverload)
{
    // The acceptance bar of the serving subsystem: at ~2x the NPU's
    // saturation rate, deadline-aware scheduling must not lose to FCFS on
    // goodput (it wins by a wide margin: FCFS head-of-line blocking drags
    // every request past its deadline).
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingReport fcfs =
        RunSim(costs, mix_, SchedPolicy::kFcfs, 2.0, 60).Report();
    const ServingReport edf =
        RunSim(costs, mix_, SchedPolicy::kSloEdf, 2.0, 60).Report();
    EXPECT_EQ(fcfs.completed, 60);
    EXPECT_EQ(edf.completed, 60);
    EXPECT_GE(edf.goodput_rps, fcfs.goodput_rps);
    EXPECT_GE(edf.slo_attainment, fcfs.slo_attainment);
}

TEST_F(ServingFixture, SloEdfJudgesNpuPlacedRequestsAtTheDeadlinePrice)
{
    // Deadlines come from prefill plus decode at the CPU token price, so
    // slo-edf must judge feasibility at that price on an NPU-placed
    // profile too. Shape L (512 prompt, 16 out) meets its deadline at
    // slo_factor 1.5 from an idle machine only at the CPU price: its
    // decode outweighs its prefill, and the B=1 NPU token costs twice
    // the CPU one. Shape S (2048 prompt, 1 out) has the later deadline.
    // Ranked feasible, L finishes its prefill first under earliest
    // deadline first; ranked a lost cause, it would wait behind S.
    auto fixed = [](int prompt, int output) {
        DatasetProfile profile;
        profile.name = "fixed";
        profile.application = "test";
        profile.prompt_min = profile.prompt_max = prompt;
        profile.output_min = profile.output_max = output;
        return profile;
    };
    const std::vector<DatasetProfile> mix = {fixed(512, 16), fixed(2048, 1)};
    LlmNpuOptions npu_options;
    npu_options.decode_placement = DecodePlacement::kNpuQuant;
    LlmNpuEngine engine(npu_options);
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingCostProfile& shape_l = costs.Costs({512, 16});
    ASSERT_GT(shape_l.cpu_decode_token_ms * 16, shape_l.PrefillMs());

    ServingOptions options;
    options.queue_policy = MakeQueuePolicy(SchedPolicy::kSloEdf);
    options.slo_factor = 1.5;
    options.rate_rps = 1000.0;  // both arrive inside the first chunk
    options.num_requests = 2;
    int checked = 0;
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        options.seed = seed;
        const ServingResult result =
            ServingSimulator(costs, mix, options).Run();
        ASSERT_EQ(result.records.size(), 2u);
        const RequestRecord* l = &result.records[0];
        const RequestRecord* s = &result.records[1];
        if (l->request.output_len == s->request.output_len) continue;
        if (l->request.output_len != 16) std::swap(l, s);
        ASSERT_TRUE(l->Completed() && s->Completed());
        ASSERT_LT(std::abs(l->request.arrival_ms - s->request.arrival_ms),
                  costs.Costs({512, 16}).chunk_ms[0]);
        EXPECT_LT(l->request.deadline_ms, s->request.deadline_ms);
        EXPECT_LT(l->prefill_done_ms, s->prefill_done_ms) << "seed " << seed;
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

TEST_F(ServingFixture, PrefillPreemptsDecodeBandwidth)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingResult result =
        RunSim(costs, mix_, SchedPolicy::kFcfs, 1.0, 30);
    // With prefill and decode overlapping at this load, some decode steps
    // must have been slowed by incoming chunks, and per-request counts sum
    // to at least the global count (a step can slow several requests).
    EXPECT_GT(result.preemptions, 0);
    int per_request = 0;
    for (const RequestRecord& record : result.records) {
        per_request += record.preemptions;
    }
    EXPECT_GE(per_request, result.preemptions);
}

TEST_F(ServingFixture, UtilizationAndThroughputGrowWithOfferedLoad)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingReport low =
        RunSim(costs, mix_, SchedPolicy::kFcfs, 0.3, 40).Report();
    const ServingReport high =
        RunSim(costs, mix_, SchedPolicy::kFcfs, 1.5, 40).Report();
    EXPECT_GT(high.npu_utilization, low.npu_utilization);
    EXPECT_GT(high.throughput_rps, low.throughput_rps);
    EXPECT_GT(high.e2e_p99_ms, low.e2e_p99_ms);  // queueing shows in tails
}

TEST_F(ServingFixture, ClosedLoopNeverExceedsClientPopulation)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    ServingOptions options;
    options.closed_loop = true;
    options.num_clients = 3;
    options.think_time_ms = 100.0;
    options.num_requests = 20;
    options.seed = 5;
    const ServingResult result =
        ServingSimulator(costs, mix_, options).Run();
    ASSERT_EQ(result.records.size(), 20u);
    // At any completion instant, in-flight requests (arrived, unfinished)
    // cannot exceed the client population.
    for (const RequestRecord& probe : result.records) {
        ASSERT_TRUE(probe.Completed());
        int in_flight = 0;
        for (const RequestRecord& other : result.records) {
            if (other.request.arrival_ms < probe.finish_ms &&
                other.finish_ms >= probe.finish_ms) {
                ++in_flight;
            }
        }
        EXPECT_LE(in_flight, options.num_clients);
    }
}

TEST_F(ServingFixture, ReportAggregatesMatchRecords)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingResult result =
        RunSim(costs, mix_, SchedPolicy::kFcfs, 0.8, 30);
    const ServingReport report = result.Report();
    EXPECT_EQ(report.admitted, 30);
    EXPECT_EQ(report.completed, 30);
    EXPECT_GT(report.throughput_rps, 0.0);
    EXPECT_GE(report.goodput_rps, 0.0);
    EXPECT_LE(report.goodput_rps, report.throughput_rps + 1e-12);
    EXPECT_LE(report.ttft_p50_ms, report.ttft_p95_ms);
    EXPECT_LE(report.ttft_p95_ms, report.ttft_p99_ms);
    EXPECT_LE(report.e2e_p50_ms, report.e2e_p99_ms);
    EXPECT_GE(report.npu_utilization, 0.0);
    EXPECT_LE(report.npu_utilization, 1.0 + 1e-9);
    EXPECT_EQ(report.preemptions, result.preemptions);
    EXPECT_FALSE(report.Summary().empty());
}

// ------------------------------------------------ golden schedule hashes

/**
 * One entry of the golden matrix: 120 requests at seed 2026 over the
 * paper's dataset mixture, a mechanism-specific option set, the
 * fingerprint of the run it must reproduce, and a check that the
 * mechanism the entry exists for actually fired (a hash of a run where
 * nothing happened would pin nothing).
 */
struct GoldenCase {
    const char* name;
    DecodePlacement engine_decode;
    uint64_t hash;
    void (*configure)(ServingOptions&, ServingCostModel&);
    void (*fired)(const ServingResult&);
};

ServingOptions
GoldenBase()
{
    ServingOptions options;
    options.num_requests = 120;
    options.seed = 2026;
    return options;
}

bool
PrefillReordered(const ServingResult& result)
{
    double prev = -1.0;
    for (const RequestRecord& record : result.records) {
        if (record.prefill_done_ms >= 0.0 && record.prefill_done_ms < prev) {
            return true;
        }
        prev = std::max(prev, record.prefill_done_ms);
    }
    return false;
}

bool
RanDecodeOn(const ServingResult& result, DecodePlacement placement)
{
    for (const ReplayStep& step : result.replay_steps) {
        if (std::find(step.placements.begin(), step.placements.end(),
                      placement) != step.placements.end()) {
            return true;
        }
    }
    return false;
}

void
ChunkAndDecodeFaults(ServingOptions& options)
{
    options.faults.chunk_failure_prob = 0.1;
    options.faults.chunk_stall_prob = 0.05;
    options.faults.decode_failure_prob = 0.2;
    options.faults.circuit_breaker_k = 2;
}

const GoldenCase kGoldenCases[] = {
    {"default", DecodePlacement::kCpuFloat, 0x8fcacb48e5471560ULL,
     [](ServingOptions&, ServingCostModel&) {},
     [](const ServingResult& r) { EXPECT_GT(r.preemptions, 0); }},
    {"spf_closed_loop", DecodePlacement::kCpuFloat, 0x584e901c8a5ca4a9ULL,
     [](ServingOptions& o, ServingCostModel&) {
         o.queue_policy = MakeQueuePolicy(SchedPolicy::kShortestPromptFirst);
         o.closed_loop = true;
         o.num_clients = 6;
         o.think_time_ms = 50.0;
     },
     [](const ServingResult& r) { EXPECT_TRUE(PrefillReordered(r)); }},
    {"slo_edf_pool128", DecodePlacement::kCpuFloat, 0x388415e060cacaf4ULL,
     [](ServingOptions& o, ServingCostModel&) {
         o.queue_policy = MakeQueuePolicy(SchedPolicy::kSloEdf);
         o.rate_rps = 8.0;
         o.kv_pool_pages = 128;
     },
     [](const ServingResult& r) { EXPECT_GT(r.evictions, 0); }},
    {"shared_prefix_pool96", DecodePlacement::kCpuFloat, 0x39e2f92a0daffa0cULL,
     [](ServingOptions& o, ServingCostModel&) {
         o.rate_rps = 2.0;
         o.kv_pool_pages = 96;
         o.shared_prefix.prefix_len = 256;
         o.shared_prefix.share_fraction = 0.5;
         o.shed_expired_queued = true;
     },
     [](const ServingResult& r) {
         EXPECT_GT(r.shed, 0);
         EXPECT_GT(r.shared_prefix_drops, 0);
         EXPECT_GT(r.evictions, 0);
     }},
    {"faults_breaker_k2", DecodePlacement::kNpuQuant, 0x86123655c3ae75acULL,
     [](ServingOptions& o, ServingCostModel&) {
         o.rate_rps = 2.0;
         ChunkAndDecodeFaults(o);
     },
     [](const ServingResult& r) {
         EXPECT_GT(r.faults, 0);
         EXPECT_GT(r.retries, 0);
         EXPECT_GT(r.failovers, 0);
     }},
    {"pool_shrink_256_to_64", DecodePlacement::kCpuFloat, 0x0cd5832208d7e56cULL,
     [](ServingOptions& o, ServingCostModel&) {
         o.rate_rps = 2.0;
         o.kv_pool_pages = 256;
         o.faults.pool_shrink_at_ms = 20000.0;
         o.faults.pool_shrink_to = 0.25;
     },
     [](const ServingResult& r) {
         EXPECT_EQ(r.kv_pool_pages_live, 64);
         EXPECT_LT(r.kv_pool_pages_live, r.kv_pool_pages);
         EXPECT_GT(r.evictions + r.shed, 0);
     }},
    {"thermal_brownout", DecodePlacement::kCpuFloat, 0x59d18d584c60d932ULL,
     [](ServingOptions& o, ServingCostModel&) {
         o.rate_rps = 2.0;
         o.slo_factor = 1.5;
         o.faults.thermal.enabled = true;
         o.faults.thermal.heat_c_per_busy_ms = 0.5;
         o.faults.thermal.cool_tau_ms = 5000.0;
         o.faults.thermal.throttle_start_c = 35.0;
         o.faults.thermal.throttle_full_c = 55.0;
         o.faults.thermal.max_slowdown = 3.0;
         o.faults.brownout_shedding = true;
     },
     [](const ServingResult& r) {
         EXPECT_GT(r.npu_throttled_frac, 0.0);
         EXPECT_GT(r.shed, 0);
     }},
    {"predicted_placement_admission_faults", DecodePlacement::kCpuFloat,
     0xe73e7946ab52e89bULL,
     [](ServingOptions& o, ServingCostModel& costs) {
         o.rate_rps = 4.0;
         o.slo_factor = 6.0;
         o.max_decode_batch = 32;
         o.placement_policy = std::make_shared<PredictedPlacement>(costs);
         o.predicted_slo_admission = true;
         ChunkAndDecodeFaults(o);
     },
     [](const ServingResult& r) {
         EXPECT_GT(r.rejected, 0);
         EXPECT_GT(r.faults, 0);
         EXPECT_TRUE(RanDecodeOn(r, DecodePlacement::kNpuQuant));
     }},
};

TEST_F(ServingFixture, GoldenScheduleHashesAreUnchanged)
{
    for (const GoldenCase& golden : kGoldenCases) {
        SCOPED_TRACE(golden.name);
        LlmNpuOptions engine_options;
        engine_options.decode_placement = golden.engine_decode;
        LlmNpuEngine engine(engine_options);
        ServingCostModel costs(engine, qwen_, soc_);
        ServingOptions options = GoldenBase();
        golden.configure(options, costs);
        const ServingResult result =
            ServingSimulator(costs, mix_, options).Run();
        golden.fired(result);
        EXPECT_EQ(ScheduleHash(result), golden.hash)
            << std::hex << "0x" << ScheduleHash(result);
    }
}

// ------------------------------------------- tracing changes no decision

TEST_F(ServingFixture, TracingOnAndOffGiveTheSameRun)
{
    // Every fault-plane and control-plane mechanism at once: chunk and
    // decode faults with the breaker, a pool shrink under a shared
    // prefix, the placement predictor with predicted-SLO admission, and
    // thermal throttling, over a decode-heavy mix whose decode pool runs
    // deep enough for the predictor to place NPU steps. The simulator
    // formats trace names and args only while tracing; the run itself
    // must not depend on it.
    const std::vector<DatasetProfile> mix{
        {"decode-heavy", "tracing", 48, 96, 160, 256}};
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    ServingOptions options = GoldenBase();
    options.num_requests = 48;
    options.rate_rps = 20.0;
    options.max_decode_batch = 32;
    options.kv_pool_pages = 1024;
    options.faults.pool_shrink_at_ms = 2000.0;
    options.faults.pool_shrink_to = 0.5;
    options.shared_prefix.prefix_len = 32;
    options.shared_prefix.share_fraction = 0.5;
    options.placement_policy = std::make_shared<PredictedPlacement>(costs);
    options.predicted_slo_admission = true;
    ChunkAndDecodeFaults(options);
    options.faults.thermal.enabled = true;
    options.faults.thermal.throttle_start_c = 30.0;
    options.faults.thermal.throttle_full_c = 50.0;

    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Disable();
    const ServingResult untraced = ServingSimulator(costs, mix, options).Run();
    tracer.Enable();
    tracer.Reset();
    const ServingResult traced = ServingSimulator(costs, mix, options).Run();
    const std::string json = tracer.ChromeTraceJson();
    tracer.Disable();
    tracer.Reset();

    EXPECT_GT(untraced.faults, 0);
    EXPECT_GT(untraced.retries, 0);
    EXPECT_GT(untraced.failovers, 0);
    EXPECT_GT(untraced.rejected, 0);
    EXPECT_GT(untraced.shared_requests, 0);
    EXPECT_LT(untraced.kv_pool_pages_live, untraced.kv_pool_pages);
    EXPECT_GT(untraced.npu_throttled_frac, 0.0);
    EXPECT_TRUE(RanDecodeOn(untraced, DecodePlacement::kNpuQuant));

    // Records, replay steps, trace records and every counter.
    EXPECT_EQ(ScheduleHash(traced), ScheduleHash(untraced));
    ASSERT_EQ(traced.trace_tasks.size(), untraced.trace_tasks.size());
    for (size_t i = 0; i < traced.trace_tasks.size(); ++i) {
        const SimTask& a = traced.trace_tasks[i];
        const SimTask& b = untraced.trace_tasks[i];
        EXPECT_EQ(a.label, b.label) << "task " << i;
        EXPECT_EQ(a.unit, b.unit) << "task " << i;
        EXPECT_EQ(a.duration_ms, b.duration_ms) << "task " << i;
        EXPECT_EQ(a.deps, b.deps) << "task " << i;
        EXPECT_EQ(a.chunk, b.chunk) << "task " << i;
        EXPECT_EQ(a.stage, b.stage) << "task " << i;
    }

    // The traced run still records its events, with their args.
    obs::ReadTrace trace;
    std::string error;
    ASSERT_TRUE(obs::ReadChromeTrace(json, &trace, &error)) << error;
    size_t chunk_spans = 0, step_spans = 0;
    int decode_faults = 0, chunk_faults = 0, retries = 0, failovers = 0;
    int shrinks = 0;
    for (const obs::ReadEvent& e : trace.events) {
        const auto has = [&e](const char* arg) {
            return e.args.count(arg) == 1;
        };
        if (e.name.rfind("decode.step", 0) == 0) {
            ++step_spans;
            EXPECT_TRUE(has("batch")) << e.name;
        } else if (e.name.rfind("req", 0) == 0) {
            ++chunk_spans;
            EXPECT_TRUE(has("req") && has("chunk")) << e.name;
        } else if (e.name == "fault.decode") {
            ++decode_faults;
            EXPECT_TRUE(has("token") && has("attempt"));
        } else if (e.name == "fault.chunk_fail" ||
                   e.name == "fault.chunk_stall") {
            ++chunk_faults;
            EXPECT_TRUE(has("chunk") && has("attempt")) << e.name;
        } else if (e.name == "fault.retry") {
            ++retries;
            EXPECT_TRUE(has("attempt") && has("not_before"));
        } else if (e.name == "fault.failover") {
            ++failovers;
            EXPECT_EQ(e.args.at("to").str, "cpu_float");
        } else if (e.name == "fault.pool_shrink") {
            ++shrinks;
            EXPECT_EQ(e.args.at("live_pages").number,
                      static_cast<double>(untraced.kv_pool_pages_live));
        } else if (e.name == "fault.shed") {
            EXPECT_TRUE(has("reason"));
        }
    }
    size_t prefill_steps = 0;
    for (const ReplayStep& step : untraced.replay_steps) {
        prefill_steps += step.is_prefill ? 1 : 0;
    }
    EXPECT_EQ(chunk_spans, prefill_steps);
    EXPECT_EQ(step_spans, untraced.replay_steps.size() - prefill_steps);
    EXPECT_EQ(decode_faults + chunk_faults, untraced.faults);
    EXPECT_GT(decode_faults, 0);
    EXPECT_GT(chunk_faults, 0);
    EXPECT_GT(retries, 0);
    EXPECT_EQ(failovers, untraced.failovers);
    EXPECT_EQ(shrinks, 1);
}

TEST_F(ServingFixture, RunPastItsEventCapFailsLoudly)
{
    // One request decoding more tokens than kMaxEventsPerRequest takes
    // one event per token, so the run passes its cap, as a livelocked
    // run would, and exits naming its state instead of running on.
    const std::vector<DatasetProfile> long_output{
        {"long-output", "event cap", 64, 64, 5000, 5000}};
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    ServingOptions options;
    options.num_requests = 1;
    EXPECT_EXIT(ServingSimulator(costs, long_output, options).Run(),
                ::testing::ExitedWithCode(1),
                "serving run did not end: 4097 events for 1 requests");
}

// ------------------------------------------------ one decode-step price

/** The policy-sweep workload shape: decode-heavy, so the decode pool
 *  deepens past the CPU/NPU crossover under load. */
const std::vector<DatasetProfile> kDecodeHeavy{
    {"decode-heavy", "step price", 48, 96, 160, 256}};

ServingResult
RunOnPlacement(DecodePlacement engine_decode, ServingOptions options,
               bool predicted, const std::vector<DatasetProfile>& mix)
{
    LlmNpuOptions engine_options;
    engine_options.decode_placement = engine_decode;
    LlmNpuEngine engine(engine_options);
    ServingCostModel costs(engine, Qwen15_1_8B(), SocSpec::RedmiK70Pro());
    if (predicted) {
        options.placement_policy = std::make_shared<PredictedPlacement>(costs);
    }
    return ServingSimulator(costs, mix, options).Run();
}

TEST_F(ServingFixture, EveryDecodeStepCostsTheOneRule)
{
    // The faults_breaker_k2 run without its chunk faults (a faulted chunk
    // leaves no trace record, so a step it slowed could not be told from
    // a clean one). Decode faults and the breaker give CPU-only, NPU-only
    // and mixed steps. A step that overlaps no prefill chunk runs at full
    // rate, so it lasts exactly its price: the CPU group at the CPU law
    // over its largest CPU token price, the NPU group at the oracle's
    // price for its deepest context, the step the slower of the two.
    LlmNpuOptions engine_options;
    engine_options.decode_placement = DecodePlacement::kNpuQuant;
    LlmNpuEngine engine(engine_options);
    ServingCostModel costs(engine, qwen_, soc_);
    ServingOptions options = GoldenBase();
    options.rate_rps = 2.0;
    options.faults.decode_failure_prob = 0.2;
    options.faults.circuit_breaker_k = 2;
    const ServingResult result = ServingSimulator(costs, mix_, options).Run();
    ASSERT_EQ(result.replay_steps.size(), result.trace.records.size());

    std::vector<const TaskRecord*> chunks;
    for (size_t si = 0; si < result.replay_steps.size(); ++si) {
        if (result.replay_steps[si].is_prefill) {
            chunks.push_back(&result.trace.records[si]);
        }
    }
    std::vector<int> tokens(result.records.size(), 0);
    int checked[3] = {0, 0, 0};  // CPU-only, NPU-only, mixed
    for (size_t si = 0; si < result.replay_steps.size(); ++si) {
        const ReplayStep& step = result.replay_steps[si];
        if (step.is_prefill) continue;
        ASSERT_EQ(step.placements.size(), step.request_ids.size());
        double cpu_token_ms = 0.0;
        int cpu_members = 0;
        int64_t npu_ctx = 0;
        int npu_members = 0;
        for (size_t mi = 0; mi < step.request_ids.size(); ++mi) {
            const size_t id = static_cast<size_t>(step.request_ids[mi]);
            const ServingRequest& request = result.records[id].request;
            const int64_t ctx =
                static_cast<int64_t>(request.prompt_len) + tokens[id]++;
            if (step.placements[mi] == DecodePlacement::kNpuQuant) {
                npu_ctx = std::max(npu_ctx, ctx);
                ++npu_members;
            } else {
                cpu_token_ms = std::max(
                    cpu_token_ms,
                    costs.Costs(request.ServedInference()).cpu_decode_token_ms);
                ++cpu_members;
            }
        }
        const TaskRecord& interval = result.trace.records[si];
        const bool overlapped = std::any_of(
            chunks.begin(), chunks.end(), [&](const TaskRecord* chunk) {
                return chunk->start_ms < interval.end_ms &&
                       interval.start_ms < chunk->end_ms;
            });
        if (overlapped) continue;
        const double cpu_ms =
            cpu_members > 0
                ? cpu_token_ms * (1.0 + (cpu_members - 1) * kDecodeBatchMarginal)
                : 0.0;
        const double npu_ms =
            npu_members > 0
                ? costs.StepMs(DecodePlacement::kNpuQuant, npu_ctx,
                               npu_members)
                : 0.0;
        const double price = std::max(cpu_ms, npu_ms);
        EXPECT_NEAR(interval.end_ms - interval.start_ms, price, price * 1e-9)
            << "step " << si << ": " << cpu_members << " CPU + "
            << npu_members << " NPU members";
        ++checked[npu_members == 0 ? 0 : cpu_members == 0 ? 1 : 2];
    }
    EXPECT_GT(checked[0], 0) << "no clean CPU-only step";
    EXPECT_GT(checked[1], 0) << "no clean NPU-only step";
    EXPECT_GT(checked[2], 0) << "no clean mixed step";
}

TEST_F(ServingFixture, PredictedRunIgnoresTheProfilesOwnPlacement)
{
    // Under a predictor every member's placement and every step's price
    // come from where the member runs, so the two llm.npu profiles,
    // identical but for their own decode placement, serve one schedule.
    ServingOptions options;
    options.num_requests = 24;
    options.rate_rps = 100.0;
    options.seed = 11;
    options.max_decode_batch = 32;
    const ServingResult on_npu = RunOnPlacement(
        DecodePlacement::kNpuQuant, options, /*predicted=*/true, kDecodeHeavy);
    const ServingResult on_cpu = RunOnPlacement(
        DecodePlacement::kCpuFloat, options, /*predicted=*/true, kDecodeHeavy);
    EXPECT_TRUE(RanDecodeOn(on_npu, DecodePlacement::kNpuQuant));
    EXPECT_TRUE(RanDecodeOn(on_npu, DecodePlacement::kCpuFloat));
    EXPECT_EQ(on_npu.makespan_ms, on_cpu.makespan_ms);
    EXPECT_EQ(ScheduleHash(on_npu), ScheduleHash(on_cpu))
        << std::hex << "0x" << ScheduleHash(on_npu) << " vs 0x"
        << ScheduleHash(on_cpu);
}

TEST_F(ServingFixture, FailedOverNpuRunMatchesTheCpuPlacedRun)
{
    // Decode interference follows the step, not the profile: on an
    // NPU-placed profile whose every member fails over at its first NPU
    // dispatch (near-certain decode faults, a breaker of one), every step
    // is a CPU step and must be slowed by the float factor, exactly as
    // the fault-free CPU-placed run.
    ServingOptions options;
    options.num_requests = 24;
    options.rate_rps = 2.0;
    options.seed = 11;
    const ServingResult on_cpu = RunOnPlacement(
        DecodePlacement::kCpuFloat, options, /*predicted=*/false, kDecodeHeavy);
    options.faults.decode_failure_prob = 0.999999;
    options.faults.circuit_breaker_k = 1;
    const ServingResult failed_over = RunOnPlacement(
        DecodePlacement::kNpuQuant, options, /*predicted=*/false, kDecodeHeavy);
    EXPECT_EQ(failed_over.failovers, 24);
    EXPECT_GT(on_cpu.preemptions, 0);  // steps did overlap chunks
    ASSERT_EQ(failed_over.trace.records.size(), on_cpu.trace.records.size());
    for (size_t i = 0; i < on_cpu.trace.records.size(); ++i) {
        EXPECT_EQ(failed_over.trace.records[i].start_ms,
                  on_cpu.trace.records[i].start_ms)
            << "interval " << i;
        EXPECT_EQ(failed_over.trace.records[i].end_ms,
                  on_cpu.trace.records[i].end_ms)
            << "interval " << i;
    }
    EXPECT_EQ(failed_over.makespan_ms, on_cpu.makespan_ms);
}

TEST_F(ServingFixture, ServingWorksOverBaselineEnginesToo)
{
    // The serving layer is engine-agnostic: a single-processor baseline
    // serves through its default monolithic decomposition (decode fully
    // blocked by prefill, so makespans stretch, but conservation holds).
    LlamaCppEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    const ServingResult result =
        RunSim(costs, mix_, SchedPolicy::kFcfs, 0.05, 6);
    for (const RequestRecord& record : result.records) {
        EXPECT_TRUE(record.Completed());
    }
    EXPECT_TRUE(ScheduleIsValid(result.trace_tasks, result.trace));
}

}  // namespace
}  // namespace llmnpu
