/**
 * @file
 * Known-answer tests of the benchmark's statistics (percentiles, each
 * operation's fastest time over the rounds, quartiles as Python's
 * statistics.quantiles takes them, compare verdicts including ties), of
 * the span self-time analysis, and of the metric tables against
 * BENCHMARK.json.
 */
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "benchmark/src/layers.h"
#include "benchmark/src/report.h"
#include "benchmark/src/stats.h"
#include "benchmark/src/workloads.h"
#include "src/obs/trace_reader.h"
#include "src/util/stats.h"

namespace llmnpu {
namespace bench {
namespace {

TEST(BenchmarkStats, PercentileInterpolatesLinearly)
{
    EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i) ten.push_back(i);
    EXPECT_DOUBLE_EQ(Percentile(ten, 90.0), 9.1);
    EXPECT_DOUBLE_EQ(Percentile(ten, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(Percentile(ten, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
    // Set-up time is the median of the repeats.
    EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
    EXPECT_DOUBLE_EQ(Percentile({7.0}, 50.0), 7.0);
}

TEST(BenchmarkStats, FastestPerOperationTakesEachOperationsMinimum)
{
    // Round 2 is slow throughout; operation 1 was fastest in round 3.
    const std::vector<double> fastest = FastestPerOperation(
        {{5.0, 9.0, 2.0}, {8.0, 12.0, 3.5}, {5.5, 7.0, 2.0}});
    EXPECT_EQ(fastest, (std::vector<double>{5.0, 7.0, 2.0}));
    EXPECT_EQ(FastestPerOperation({{4.0, 1.0}}),
              (std::vector<double>{4.0, 1.0}));
    EXPECT_TRUE(FastestPerOperation({}).empty());
    // op_ms_p50 and throughput are read off the fastest times.
    EXPECT_DOUBLE_EQ(Percentile(fastest, 50.0), 5.0);
}

TEST(BenchmarkStatsDeathTest, RoundsOfDifferentLengthsAreFatal)
{
    EXPECT_DEATH(FastestPerOperation({{1.0, 2.0}, {1.0}}),
                 "same operations");
}

TEST(BenchmarkStats, QuartilesMatchPythonExclusiveMethod)
{
    // Expected values from statistics.quantiles(values, n=4).
    const auto expect = [](std::vector<double> values, double q1, double q2,
                           double q3) {
        const Quartiles q = QuartilesOf(std::move(values));
        EXPECT_DOUBLE_EQ(q.q1, q1);
        EXPECT_DOUBLE_EQ(q.median, q2);
        EXPECT_DOUBLE_EQ(q.q3, q3);
    };
    expect({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25);
    expect({1, 2, 3, 4, 5}, 1.5, 3.0, 4.5);
    expect({3.0, 1.0}, 0.5, 2.0, 3.5);
    expect({7.5, 2.25, 9, 4, 11.5, 3}, 2.8125, 5.75, 9.625);
    expect({6.0}, 6.0, 6.0, 6.0);
}

std::vector<double>
Scaled(const std::vector<double>& values, double factor)
{
    std::vector<double> out;
    for (double v : values) out.push_back(v * factor);
    return out;
}

const std::vector<double> kSteady{10.0, 10.1, 9.9,  10.05, 9.95,
                                  10.0, 10.02, 9.98, 10.01, 9.99};

TEST(BenchmarkVerdict, ClearGainIsImproved)
{
    const Comparison c =
        Compare(kSteady, Scaled(kSteady, 0.8), Better::kLower, 0.1);
    EXPECT_EQ(c.wins, 10);
    EXPECT_DOUBLE_EQ(c.win_frac, 1.0);
    EXPECT_NEAR(c.worse_frac, -0.2, 1e-12);
    EXPECT_EQ(c.verdict, Verdict::kImproved);
}

TEST(BenchmarkVerdict, HigherIsBetterDirection)
{
    EXPECT_EQ(Compare(kSteady, Scaled(kSteady, 1.2), Better::kHigher, 0.1)
                  .verdict,
              Verdict::kImproved);
    EXPECT_EQ(Compare(kSteady, Scaled(kSteady, 0.8), Better::kHigher, 0.1)
                  .verdict,
              Verdict::kRegressed);
}

TEST(BenchmarkVerdict, SmallSlowdownIsWithinBound)
{
    const Comparison c =
        Compare(kSteady, Scaled(kSteady, 1.02), Better::kLower, 0.1);
    EXPECT_EQ(c.losses, 10);
    EXPECT_EQ(c.verdict, Verdict::kWithinBound);
}

TEST(BenchmarkVerdict, SlowdownPastBoundRegresses)
{
    EXPECT_EQ(Compare(kSteady, Scaled(kSteady, 1.2), Better::kLower, 0.1)
                  .verdict,
              Verdict::kRegressed);
}

TEST(BenchmarkVerdict, SpreadWiderThanBoundIsUnresolved)
{
    const std::vector<double> noisy{5, 15, 5, 15, 5, 15, 5, 15, 5, 15};
    EXPECT_EQ(Compare(noisy, noisy, Better::kLower, 0.1).verdict,
              Verdict::kUnresolved);
    // Unless every change run reads better than every parent run.
    const std::vector<double> wide{1, 10, 1, 10};
    const std::vector<double> better{0.5, 0.6, 0.5, 0.6};
    EXPECT_EQ(Compare(wide, better, Better::kLower, 0.1).verdict,
              Verdict::kWithinBound);
}

TEST(BenchmarkVerdict, NoisyParentStillRegressesPastBound)
{
    // The parent's spread (1.0 of its median 10) is wider than the bound,
    // but a change twice as slow is a regression, not unresolved.
    const std::vector<double> noisy{5, 15, 5, 15, 5, 15, 5, 15, 5, 15};
    const Comparison c =
        Compare(noisy, Scaled(noisy, 2.0), Better::kLower, 0.25);
    EXPECT_NEAR(c.worse_frac, 1.0, 1e-12);
    EXPECT_EQ(c.verdict, Verdict::kRegressed);
    EXPECT_EQ(Compare(noisy, Scaled(noisy, 0.5), Better::kHigher, 0.25)
                  .verdict,
              Verdict::kRegressed);
}

TEST(BenchmarkVerdict, TiesCountForNeitherSide)
{
    const Comparison same = Compare(kSteady, kSteady, Better::kLower, 0.1);
    EXPECT_EQ(same.wins, 0);
    EXPECT_EQ(same.losses, 0);
    EXPECT_DOUBLE_EQ(same.win_frac, 0.0);
    EXPECT_EQ(same.verdict, Verdict::kWithinBound);

    // Nine wins and one tie out of ten pairs: nine tenths, improved.
    std::vector<double> change = Scaled(kSteady, 0.8);
    change[0] = kSteady[0];
    const Comparison nine = Compare(kSteady, change, Better::kLower, 0.1);
    EXPECT_EQ(nine.wins, 9);
    EXPECT_EQ(nine.losses, 0);
    EXPECT_EQ(nine.verdict, Verdict::kImproved);

    // Eight wins and two ties fall short of nine tenths.
    change[1] = kSteady[1];
    const Comparison eight = Compare(kSteady, change, Better::kLower, 0.1);
    EXPECT_EQ(eight.wins, 8);
    EXPECT_NE(eight.verdict, Verdict::kImproved);
}

TEST(BenchmarkVerdict, FailuresHaveZeroBound)
{
    EXPECT_EQ(CompareFailures(0, 100, 0, 100), Verdict::kWithinBound);
    EXPECT_EQ(CompareFailures(0, 100, 1, 100), Verdict::kRegressed);
    EXPECT_EQ(CompareFailures(2, 100, 1, 100), Verdict::kImproved);
    EXPECT_EQ(CompareFailures(1, 50, 2, 100), Verdict::kWithinBound);
}

obs::TraceEvent
Span(const char* name, uint64_t t0, uint64_t t1)
{
    obs::TraceEvent event;
    event.name = name;
    event.cat = "test";
    event.t0_ns = t0;
    event.t1_ns = t1;
    event.phase = obs::TracePhase::kSpan;
    return event;
}

TEST(BenchmarkSpans, SelfTimeSubtractsDirectChildren)
{
    // step [0,1000] > forward [100,300] and [400,900] > attention
    // [500,600]; a worker tile overlapping everything is not nested.
    const std::vector<obs::TraceEvent> events{
        Span("attention.paged", 500, 600),  Span("fwd", 100, 300),
        Span("fwd", 400, 900),              Span("step", 0, 1000),
        Span("matmul.f32.rows", 50, 950),   Span("attention.tile", 510, 590),
    };
    const SpanTable table = AnalyzeSpans(events);
    EXPECT_EQ(table.tile_spans, 2);
    EXPECT_EQ(table.misnested, 0);
    EXPECT_DOUBLE_EQ(table.TotalMs("step"), 1000e-6);
    EXPECT_DOUBLE_EQ(table.SelfMs("step"), 300e-6);
    EXPECT_DOUBLE_EQ(table.TotalMs("fwd"), 700e-6);
    EXPECT_DOUBLE_EQ(table.SelfMs("fwd"), 600e-6);
    EXPECT_DOUBLE_EQ(table.SelfMs("attention.paged"), 100e-6);
    EXPECT_EQ(table.Find("fwd")->count, 2);
}

TEST(BenchmarkSpans, PartialOverlapIsFlagged)
{
    const SpanTable table =
        AnalyzeSpans({Span("a", 0, 100), Span("b", 50, 150)});
    EXPECT_EQ(table.misnested, 1);
    EXPECT_DOUBLE_EQ(table.SelfMs("a"), 100e-6);
}

TEST(BenchmarkSpans, LinearSpanNamesAreStableLiterals)
{
    EXPECT_STREQ(LinearSpanName(DecodePlacement::kNpuQuant, LinearKind::kWq),
                 "bench.linear.npu.q_proj");
    EXPECT_STREQ(
        LinearSpanName(DecodePlacement::kCpuFloat, LinearKind::kFfnDown),
        "bench.linear.cpu.down_proj");
    EXPECT_TRUE(IsTileSpan("matmul.w8a8.rows"));
    EXPECT_FALSE(IsTileSpan("matmul.w8a8"));
}

obs::JsonValue
LoadSpec()
{
    std::ifstream in(LLMNPU_BENCHMARK_SPEC);
    std::stringstream text;
    text << in.rdbuf();
    obs::JsonValue spec;
    std::string error;
    EXPECT_TRUE(obs::ParseJson(text.str(), &spec, &error)) << error;
    return spec;
}

void
ExpectTableMatches(const obs::JsonValue& entries,
                   const std::vector<MetricSpec>& table)
{
    ASSERT_EQ(entries.array.size(), table.size());
    for (size_t i = 0; i < table.size(); ++i) {
        const obs::JsonValue& entry = entries.array[i];
        EXPECT_EQ(entry.At("name").str, table[i].name);
        EXPECT_EQ(entry.At("unit").str, table[i].unit);
        EXPECT_EQ(ParseBetter(entry.At("better").str), table[i].better)
            << table[i].name;
    }
}

TEST(BenchmarkSpec, MetricTablesMatchBenchmarkJson)
{
    const obs::JsonValue spec = LoadSpec();
    ExpectTableMatches(spec.At("end_to_end"), EndToEndMetrics());
    ExpectTableMatches(spec.At("per_layer"), PerLayerMetrics());
    for (const obs::JsonValue& entry : spec.At("end_to_end").array) {
        EXPECT_GT(entry.At("bound").number, 0.0);
        EXPECT_LE(entry.At("bound").number, 0.25);
    }
    EXPECT_DOUBLE_EQ(spec.At("run_seconds").number, kDefaultSeconds);
    const obs::JsonValue& workloads = spec.At("workloads");
    ASSERT_EQ(workloads.array.size(), WorkloadNames().size());
    for (size_t i = 0; i < WorkloadNames().size(); ++i) {
        EXPECT_EQ(workloads.array[i].At("name").str, WorkloadNames()[i]);
    }
}

}  // namespace
}  // namespace bench
}  // namespace llmnpu
