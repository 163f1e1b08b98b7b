/**
 * @file
 * Observability plane: tracer ring semantics (wrap, drop accounting,
 * multi-threaded emission), Chrome trace-event export validated by the
 * in-tree JSON reader, the metrics registry under concurrency, and
 * serving reports built concurrently.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/trace_reader.h"
#include "src/serving/metrics.h"
#include "src/util/threadpool.h"

namespace llmnpu {
namespace {

using obs::Tracer;

/** Fresh tracer state for one test (each discovered test is its own
 *  process, but be explicit anyway). */
void
FreshTracer(size_t capacity = Tracer::kDefaultCapacity)
{
    Tracer::Global().Disable();
    Tracer::Global().Enable(capacity);
    Tracer::Global().Reset();
}

// ---------------------------------------------------------------- registry

TEST(MetricsRegistryTest, StableAddressesAndKinds)
{
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    obs::Counter& c1 = reg.GetCounter("obs_test.stable");
    obs::Counter& c2 = reg.GetCounter("obs_test.stable");
    EXPECT_EQ(&c1, &c2);
    obs::Gauge& g1 = reg.GetGauge("obs_test.gauge");
    EXPECT_EQ(&g1, &reg.GetGauge("obs_test.gauge"));
}

TEST(MetricsRegistryTest, GaugePeakWatermark)
{
    obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge("obs_test.peak");
    g.Reset();
    g.Set(3.0);
    g.Set(7.0);
    g.Set(2.0);
    EXPECT_DOUBLE_EQ(g.value(), 2.0);
    EXPECT_DOUBLE_EQ(g.peak(), 7.0);
    g.ResetPeak();
    EXPECT_DOUBLE_EQ(g.peak(), 2.0);
}

TEST(MetricsRegistryTest, CounterExactUnderParallelFor)
{
    obs::Counter& c =
        obs::MetricsRegistry::Global().GetCounter("obs_test.concurrent");
    c.Reset();
    ScopedNumThreads threads(4);
    const int64_t n = 100000;
    ThreadPool::Global().ParallelFor(n, 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) c.Add(1);
    });
    EXPECT_EQ(c.value(), n);
}

TEST(MetricsRegistryTest, DumpJsonParses)
{
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("obs_test.dump_counter").Add(3);
    reg.GetGauge("obs_test.dump_gauge").Set(1.5);
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::ParseJson(reg.DumpJson(), &doc, &error)) << error;
    ASSERT_EQ(doc.type, obs::JsonValue::Type::kObject);
    EXPECT_DOUBLE_EQ(
        doc.At("counters").At("obs_test.dump_counter").number, 3.0);
    EXPECT_DOUBLE_EQ(
        doc.At("gauges").At("obs_test.dump_gauge").At("value").number, 1.5);
}

// ------------------------------------------------------- serving reports

/** `n` completed requests whose latencies scale with `scale`. */
std::vector<RequestRecord>
ReportRecords(int n, double scale)
{
    std::vector<RequestRecord> records(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        RequestRecord& r = records[static_cast<size_t>(i)];
        r.request.arrival_ms = i * 3.0;
        r.request.output_len = 4 + i % 5;
        r.request.deadline_ms = r.request.arrival_ms + 40.0 * scale;
        r.first_dispatch_ms = r.request.arrival_ms + (i % 7) * scale;
        r.first_token_ms = r.first_dispatch_ms + (5 + i % 11) * scale;
        r.finish_ms = r.first_token_ms + (2 + i % 13) * scale;
        r.tokens_out = r.request.output_len;
    }
    return records;
}

bool
SameReport(const ServingReport& a, const ServingReport& b)
{
    return a.completed == b.completed && a.ttft_p50_ms == b.ttft_p50_ms &&
           a.ttft_p95_ms == b.ttft_p95_ms && a.ttft_p99_ms == b.ttft_p99_ms &&
           a.e2e_p50_ms == b.e2e_p50_ms && a.e2e_p95_ms == b.e2e_p95_ms &&
           a.e2e_p99_ms == b.e2e_p99_ms && a.tpot_mean_ms == b.tpot_mean_ms &&
           a.queueing_mean_ms == b.queueing_mean_ms &&
           a.goodput_rps == b.goodput_rps;
}

// BuildReport keeps its latency samples to itself: two threads building
// reports from different record sets at once each get the report a lone
// call gives (under TSan this also checks there is no shared state).
TEST(ServingReportTest, ConcurrentReportsMatchSequential)
{
    const std::vector<RequestRecord> a = ReportRecords(300, 1.0);
    const std::vector<RequestRecord> b = ReportRecords(200, 7.5);
    const ServingReport want_a = BuildReport(a, 1000.0, 10.0, 20.0, 0);
    const ServingReport want_b = BuildReport(b, 2000.0, 10.0, 20.0, 0);
    ASSERT_FALSE(SameReport(want_a, want_b));
    for (int round = 0; round < 20; ++round) {
        ServingReport got_a, got_b;
        std::thread other([&] {
            got_b = BuildReport(b, 2000.0, 10.0, 20.0, 0);
        });
        got_a = BuildReport(a, 1000.0, 10.0, 20.0, 0);
        other.join();
        EXPECT_TRUE(SameReport(got_a, want_a)) << "round " << round;
        EXPECT_TRUE(SameReport(got_b, want_b)) << "round " << round;
    }
}

// ------------------------------------------------------------- tracer rings

TEST(TracerTest, OffByDefaultMacrosRecordNothing)
{
    Tracer::Global().Disable();
    Tracer::Global().Reset();
    const uint64_t before = Tracer::Global().TotalRecorded();
    LLMNPU_TRACE_INSTANT("obs_test.noop", "test");
    { LLMNPU_TRACE_SPAN("obs_test.noop_span", "test"); }
    LLMNPU_TRACE_COUNTER("obs_test.noop_counter", 1.0);
    EXPECT_EQ(Tracer::Global().TotalRecorded(), before);
}

TEST(TracerTest, RingWrapKeepsNewestAndCountsDropped)
{
    FreshTracer(/*capacity=*/8);
    for (int i = 0; i < 20; ++i) {
        obs::EmitInstant("obs_test.wrap", "test", /*req=*/i);
    }
    EXPECT_EQ(Tracer::Global().TotalRecorded(), 20u);
    EXPECT_EQ(Tracer::Global().TotalDropped(), 12u);
    EXPECT_EQ(Tracer::Global().TotalStored(), 8u);
    const std::vector<obs::TraceEvent> events =
        Tracer::Global().StoredEvents();
    ASSERT_EQ(events.size(), 8u);
    // Flight recorder: the newest 8 events survive, oldest first.
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].req, static_cast<int32_t>(12 + i));
    }
}

TEST(TracerTest, ScopedSpanRecordsOrderedTimestamps)
{
    FreshTracer();
    {
        LLMNPU_TRACE_SPAN_TILE("obs_test.span", "test", 7, 3, 2, "head",
                               5);
        volatile double sink = 0.0;
        for (int i = 0; i < 1000; ++i) sink += i;
        (void)sink;
    }
    const std::vector<obs::TraceEvent> events =
        Tracer::Global().StoredEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "obs_test.span");
    EXPECT_EQ(events[0].phase, obs::TracePhase::kSpan);
    EXPECT_GE(events[0].t1_ns, events[0].t0_ns);
    EXPECT_EQ(events[0].req, 7);
    EXPECT_EQ(events[0].seq, 3);
    EXPECT_EQ(events[0].layer, 2);
    EXPECT_EQ(events[0].extra, 5);
}

TEST(TracerTest, MultiThreadedEmissionUnderParallelFor)
{
    FreshTracer();
    ScopedNumThreads threads(4);
    const int64_t n = 256;
    ThreadPool::Global().ParallelFor(n, 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
            LLMNPU_TRACE_SPAN_TILE("obs_test.tile", "test", -1, -1, -1,
                                   "i", static_cast<int>(i));
        }
    });
    // ParallelFor is synchronous, so the pool is quiescent here and the
    // introspection below is race-free (the TSan CI job runs this test).
    EXPECT_GE(Tracer::Global().TotalRecorded(), static_cast<uint64_t>(n));
    EXPECT_GE(Tracer::Global().NumThreadBuffers(), 1u);
    int tiles = 0;
    for (const obs::TraceEvent& e : Tracer::Global().StoredEvents()) {
        if (std::string(e.name) == "obs_test.tile") ++tiles;
    }
    EXPECT_EQ(tiles, static_cast<int>(n));
}

TEST(TracerTest, CurrentWorkerIdStableAndBounded)
{
    EXPECT_EQ(ThreadPool::CurrentWorkerId(), 0);  // caller is not a worker
    ScopedNumThreads threads(4);
    std::vector<int> seen(ThreadPool::kMaxThreads + 1, 0);
    std::mutex mu;
    ThreadPool::Global().ParallelFor(64, 1, [&](int64_t, int64_t) {
        const int id = ThreadPool::CurrentWorkerId();
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_GE(id, 0);
        ASSERT_LE(id, ThreadPool::kMaxThreads);
        seen[static_cast<size_t>(id)] = 1;
    });
    EXPECT_EQ(ThreadPool::CurrentWorkerId(), 0);
}

// ----------------------------------------------------------------- export

TEST(TraceExportTest, SchemaValidatesWithInTreeReader)
{
    FreshTracer();
    {
        LLMNPU_TRACE_SPAN_ID("obs_test.export_span", "test", 11, 2, 1);
    }
    LLMNPU_TRACE_INSTANT("obs_test.export_instant", "test");
    LLMNPU_TRACE_COUNTER("obs_test.export_counter", 4.5);

    obs::SimEvent chunk;
    chunk.name = "req11.chunk0";
    chunk.phase = obs::TracePhase::kSpan;
    chunk.lane = obs::SimLane::kNpu;
    chunk.t0_ms = 1.0;
    chunk.t1_ms = 2.5;
    chunk.req = 11;
    chunk.args_json = "\"chunk\": 0";
    Tracer::Global().RecordSim(chunk);

    obs::SimEvent evict;
    evict.name = "sim.evict";
    evict.t0_ms = 3.0;
    evict.req = 11;
    Tracer::Global().RecordSim(evict);

    const std::string json = Tracer::Global().ChromeTraceJson();
    obs::ReadTrace trace;
    std::string error;
    ASSERT_TRUE(obs::ReadChromeTrace(json, &trace, &error)) << error;

    // Both planes present, with process names.
    EXPECT_EQ(trace.process_names.count(1), 1u);
    EXPECT_EQ(trace.process_names.count(2), 1u);

    const obs::ReadEvent* span = nullptr;
    const obs::ReadEvent* counter = nullptr;
    const obs::ReadEvent* sim_chunk = nullptr;
    const obs::ReadEvent* sim_evict = nullptr;
    for (const obs::ReadEvent& e : trace.events) {
        if (e.name == "obs_test.export_span") span = &e;
        if (e.name == "obs_test.export_counter") counter = &e;
        if (e.name == "req11.chunk0") sim_chunk = &e;
        if (e.name == "sim.evict") sim_evict = &e;
    }
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->ph, "X");
    EXPECT_EQ(span->pid, 1);
    EXPECT_DOUBLE_EQ(span->args.at("req").number, 11.0);
    EXPECT_DOUBLE_EQ(span->args.at("seq").number, 2.0);
    EXPECT_DOUBLE_EQ(span->args.at("layer").number, 1.0);

    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->ph, "C");
    EXPECT_DOUBLE_EQ(counter->args.at("value").number, 4.5);

    ASSERT_NE(sim_chunk, nullptr);
    EXPECT_EQ(sim_chunk->ph, "X");
    EXPECT_EQ(sim_chunk->pid, 2);
    EXPECT_EQ(sim_chunk->tid, static_cast<int>(obs::SimLane::kNpu));
    // Virtual ms exported as microsecond ts units (ms * 1000).
    EXPECT_DOUBLE_EQ(sim_chunk->ts_us, 1000.0);
    EXPECT_DOUBLE_EQ(sim_chunk->dur_us, 1500.0);
    EXPECT_DOUBLE_EQ(sim_chunk->args.at("req").number, 11.0);
    EXPECT_DOUBLE_EQ(sim_chunk->args.at("chunk").number, 0.0);

    ASSERT_NE(sim_evict, nullptr);
    EXPECT_EQ(sim_evict->ph, "i");

    // otherData carries tracer totals and a metrics snapshot.
    EXPECT_TRUE(trace.other_data.Has("recorded"));
    EXPECT_TRUE(trace.other_data.Has("dropped"));
    EXPECT_TRUE(trace.other_data.Has("metrics"));
}

TEST(TraceExportTest, ThreadNamesExported)
{
    FreshTracer();
    ScopedNumThreads threads(4);
    // The "main" fallback name goes to the first registered buffer
    // (tid 0); record once before the fan-out so the calling thread
    // claims it regardless of worker scheduling.
    LLMNPU_TRACE_INSTANT("obs_test.named", "test");
    ThreadPool::Global().ParallelFor(64, 1, [&](int64_t, int64_t) {
        LLMNPU_TRACE_INSTANT("obs_test.named", "test");
    });
    obs::ReadTrace trace;
    std::string error;
    ASSERT_TRUE(obs::ReadChromeTrace(Tracer::Global().ChromeTraceJson(),
                                     &trace, &error))
        << error;
    std::set<std::string> names;
    for (const auto& [key, name] : trace.thread_names) {
        if (key.first == 1) names.insert(name);
    }
    // The caller's buffer is named "main"; any pool worker that recorded
    // is named "pool-worker-<id>".
    EXPECT_EQ(names.count("main"), 1u);
    for (const std::string& name : names) {
        EXPECT_TRUE(name == "main" ||
                    name.rfind("pool-worker-", 0) == 0)
            << name;
    }
}

TEST(TraceExportTest, JsonEscapingSurvivesRoundTrip)
{
    FreshTracer();
    LLMNPU_TRACE_INSTANT("obs_test.\"quoted\"\\name", "test");
    obs::ReadTrace trace;
    std::string error;
    ASSERT_TRUE(obs::ReadChromeTrace(Tracer::Global().ChromeTraceJson(),
                                     &trace, &error))
        << error;
    bool found = false;
    for (const obs::ReadEvent& e : trace.events) {
        if (e.name == "obs_test.\"quoted\"\\name") found = true;
    }
    EXPECT_TRUE(found);
}

// ------------------------------------------------------------- JSON parser

TEST(JsonParserTest, RejectsMalformedDocuments)
{
    obs::JsonValue doc;
    std::string error;
    EXPECT_FALSE(obs::ParseJson("", &doc, &error));
    EXPECT_FALSE(obs::ParseJson("{", &doc, &error));
    EXPECT_FALSE(obs::ParseJson("{} trailing", &doc, &error));
    EXPECT_FALSE(obs::ParseJson("{\"a\": nul}", &doc, &error));
    EXPECT_FALSE(obs::ParseJson("[1, 2,]", &doc, &error));
    EXPECT_FALSE(obs::ParseJson("\"bad \\q escape\"", &doc, &error));
    EXPECT_FALSE(obs::ParseJson("01", &doc, &error));
}

TEST(JsonParserTest, ParsesNestedStructures)
{
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::ParseJson(
        "{\"a\": [1, 2.5, true, null, \"x\\n\"], \"b\": {\"c\": -3}}",
        &doc, &error))
        << error;
    EXPECT_EQ(doc.At("a").array.size(), 5u);
    EXPECT_DOUBLE_EQ(doc.At("a").array[1].number, 2.5);
    EXPECT_TRUE(doc.At("a").array[2].boolean);
    EXPECT_EQ(doc.At("a").array[4].str, "x\n");
    EXPECT_DOUBLE_EQ(doc.At("b").At("c").number, -3.0);
}

}  // namespace
}  // namespace llmnpu
