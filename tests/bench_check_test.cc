/**
 * @file
 * Tests for the bench-band checker: the committed baseline checked against
 * itself passes with the expected per-entry counts, and each rule fails,
 * naming itself, on an in-memory copy of the baseline mutated to break it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench/bench_check.h"
#include "src/obs/trace_reader.h"

#ifndef LLMNPU_BASELINE_JSON
#define LLMNPU_BASELINE_JSON ""
#endif

namespace llmnpu {
namespace {

using bench::BenchCheckReport;
using bench::CheckBenchResults;
using bench::RunBenchCheck;
using obs::JsonValue;

std::string
ReadFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
WriteTemp(const std::string& name, const std::string& text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream(path, std::ios::binary) << text;
    return path;
}

const JsonValue&
Baseline()
{
    static const JsonValue doc = [] {
        JsonValue parsed;
        std::string error;
        EXPECT_TRUE(obs::ParseJson(ReadFile(LLMNPU_BASELINE_JSON), &parsed,
                                   &error))
            << error;
        return parsed;
    }();
    return doc;
}

/** The metric rows of `bench` in a mutable copy of the baseline. */
std::vector<JsonValue>&
Metrics(JsonValue* doc, const std::string& bench)
{
    for (JsonValue& entry : doc->object["benches"].array) {
        if (entry.object["name"].str == bench) {
            return entry.object["metrics"].array;
        }
    }
    ADD_FAILURE() << "no " << bench << " in the baseline";
    static std::vector<JsonValue> none;
    return none;
}

/** The `index`-th row of `bench` whose mode is `mode`. */
JsonValue&
RowOf(JsonValue* doc, const std::string& bench, const std::string& mode,
      int index = 0)
{
    for (JsonValue& row : Metrics(doc, bench)) {
        if (row.object["mode"].str == mode && index-- == 0) return row;
    }
    ADD_FAILURE() << "no " << bench << " mode=" << mode << " row";
    static JsonValue none;
    return none;
}

JsonValue
Number(double v)
{
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = v;
    return value;
}

std::map<std::string, int>
Counts(const BenchCheckReport& report)
{
    return {report.checked.begin(), report.checked.end()};
}

/** Every failure names `rule`, and one of them says `detail`. */
void
ExpectFailsOnly(const BenchCheckReport& report, const std::string& rule,
                const std::string& detail)
{
    ASSERT_FALSE(report.failures.empty()) << rule;
    bool said = false;
    for (const std::string& failure : report.failures) {
        EXPECT_NE(failure.find(rule), std::string::npos) << failure;
        said = said || failure.find(detail) != std::string::npos;
    }
    EXPECT_TRUE(said) << "no failure says '" << detail << "'";
}

BenchCheckReport
CheckMutated(const JsonValue& fresh)
{
    return CheckBenchResults(fresh, Baseline());
}

TEST(BenchCheckTest, BaselineAgainstItselfPassesWithExactCounts)
{
    const BenchCheckReport report = CheckBenchResults(Baseline(), Baseline());
    EXPECT_TRUE(report.failures.empty()) << report.failures.front();
    const std::map<std::string, int> counts = Counts(report);
    EXPECT_EQ(counts.at("kernel GFLOP/s"), 63);
    EXPECT_EQ(counts.at("decode-placement tokens/s"), 50);
    EXPECT_EQ(counts.at("paged-KV mean pages"), 4);
    EXPECT_EQ(counts.at("shared-prefix served/100 pages"), 15);
    EXPECT_EQ(counts.at("zero-fault goodput"), 2);
    EXPECT_EQ(counts.at("pool shrink inside live budget"), 1);
    EXPECT_EQ(counts.at("scheduler us/decision"), 4);
    EXPECT_EQ(counts.at("obs overhead ratio"), 2);
    EXPECT_EQ(counts.at("dynamic vs best static placement"), 3);
    EXPECT_EQ(counts.at("predictor median_rel_err"), 3);
    EXPECT_EQ(counts.at("decode-step crossover"), 6);
}

TEST(BenchCheckTest, RunBenchCheckExitsZeroOnTheBaseline)
{
    std::ostringstream out;
    EXPECT_EQ(RunBenchCheck(LLMNPU_BASELINE_JSON, LLMNPU_BASELINE_JSON, out),
              0)
        << out.str();
}

TEST(BenchCheckTest, NonPositiveValueFails)
{
    JsonValue fresh = Baseline();
    Metrics(&fresh, "bench_kernels")[0].object["gflops"] = Number(0.0);
    ExpectFailsOnly(CheckMutated(fresh), "kernel GFLOP/s", "non-positive");
}

TEST(BenchCheckTest, RelativeBandFailsBelow)
{
    JsonValue fresh = Baseline();
    Metrics(&fresh, "bench_kernels")[3].object["gflops"].number /= 10.0;
    ExpectFailsOnly(CheckMutated(fresh), "kernel GFLOP/s", "5x below");
}

TEST(BenchCheckTest, RelativeBandFailsAbove)
{
    JsonValue fresh = Baseline();
    Metrics(&fresh, "bench_table5_e2e")[7]
        .object["decode_tokens_per_sec"]
        .number *= 1.03;
    ExpectFailsOnly(CheckMutated(fresh), "decode-placement tokens/s",
                    "1.02x above");
}

TEST(BenchCheckTest, NoKeyMatchingTheBaselineFails)
{
    JsonValue fresh = Baseline();
    for (JsonValue& row : Metrics(&fresh, "bench_kernels")) {
        row.object["variant"].str += "_renamed";
    }
    ExpectFailsOnly(CheckMutated(fresh), "kernel GFLOP/s",
                    "no key matches the baseline");
}

TEST(BenchCheckTest, MissingFamilyFails)
{
    JsonValue fresh = Baseline();
    Metrics(&fresh, "bench_obs").clear();
    ExpectFailsOnly(CheckMutated(fresh), "obs ", "no bench_obs rows");
}

TEST(BenchCheckTest, PeakAbovePoolFails)
{
    JsonValue fresh = Baseline();
    JsonValue& row = RowOf(&fresh, "bench_serving", "paged_kv");
    row.object["kv_pages_peak"] =
        Number(row.object["kv_pool_pages"].number + 1);
    ExpectFailsOnly(CheckMutated(fresh), "paged-KV peak <= pool",
                    "exceeds kv_pool_pages");
}

TEST(BenchCheckTest, LiveBudgetNotBelowPoolFails)
{
    JsonValue fresh = Baseline();
    JsonValue& row = RowOf(&fresh, "bench_serving", "fault_shrink");
    row.object["kv_pool_pages_live"] = row.object["kv_pool_pages"];
    ExpectFailsOnly(CheckMutated(fresh), "pool shrink inside live budget",
                    "is not a shrink of pool");
}

TEST(BenchCheckTest, PostShrinkPeakAboveLiveFails)
{
    JsonValue fresh = Baseline();
    JsonValue& row = RowOf(&fresh, "bench_serving", "fault_shrink");
    row.object["kv_pages_peak_post_shrink"] =
        Number(row.object["kv_pool_pages_live"].number + 1);
    ExpectFailsOnly(CheckMutated(fresh), "pool shrink inside live budget",
                    "exceeds the live budget");
}

TEST(BenchCheckTest, FaultDrawnAtZeroRateFails)
{
    JsonValue fresh = Baseline();
    RowOf(&fresh, "bench_serving", "faults").object["faults"] = Number(1);
    ExpectFailsOnly(CheckMutated(fresh), "zero fault rate draws no fault",
                    "drew faults=1");
}

TEST(BenchCheckTest, ObsOverheadOverItsBandFails)
{
    JsonValue fresh = Baseline();
    for (JsonValue& row : Metrics(&fresh, "bench_obs")) {
        if (row.object["mode"].str == "disabled") {
            row.object["overhead_ratio"] = Number(1.6);
        }
    }
    ExpectFailsOnly(CheckMutated(fresh), "obs overhead ratio",
                    "overhead_ratio=1.6 exceeds 1.5");
}

TEST(BenchCheckTest, SchedulerDecisionOverItsCeilingFails)
{
    JsonValue fresh = Baseline();
    Metrics(&fresh, "bench_scheduler_overhead")[0].object["us_per_decision"] =
        Number(12.5);
    ExpectFailsOnly(CheckMutated(fresh), "scheduler us/decision",
                    "us_per_decision=12.5 exceeds 10");
}

TEST(BenchCheckTest, NonMonotoneSharedPrefixFails)
{
    JsonValue fresh = Baseline();
    std::swap(RowOf(&fresh, "bench_serving", "shared_prefix", 1)
                  .object["served_per_100_pages"],
              RowOf(&fresh, "bench_serving", "shared_prefix", 2)
                  .object["served_per_100_pages"]);
    const BenchCheckReport report = CheckMutated(fresh);
    // The swapped values also leave the 1.02x band of their own keys.
    bool dropped = false;
    for (const std::string& failure : report.failures) {
        dropped = dropped ||
                  failure.find("shared-prefix monotone win") !=
                      std::string::npos;
        EXPECT_NE(failure.find("shared-prefix"), std::string::npos)
            << failure;
    }
    EXPECT_TRUE(dropped);
}

TEST(BenchCheckTest, SharedPrefixWithNoWinFails)
{
    JsonValue fresh = Baseline();
    for (int i = 1; i < 5; ++i) {
        RowOf(&fresh, "bench_serving", "shared_prefix", i)
            .object["served_per_100_pages"] =
            RowOf(&fresh, "bench_serving", "shared_prefix", 0)
                .object["served_per_100_pages"];
    }
    const BenchCheckReport report = CheckMutated(fresh);
    bool no_win = false;
    for (const std::string& failure : report.failures) {
        no_win = no_win || failure.find("no win at the last share fraction") !=
                               std::string::npos;
    }
    EXPECT_TRUE(no_win);
}

TEST(BenchCheckTest, DynamicBelowBestStaticFails)
{
    // The predicted row at 4x drops to 0.9x the best static row at 4x.
    JsonValue fresh = Baseline();
    auto at_4x = [](const JsonValue& row) {
        return row.object.at("mode").str == "policy_sweep" &&
               row.object.at("offered_ratio").number == 4.0;
    };
    double best_static = 0.0;
    for (const JsonValue& row : Metrics(&fresh, "bench_serving")) {
        if (at_4x(row) &&
            row.object.at("placement_policy").str != "predicted") {
            best_static = std::max(best_static,
                                   row.object.at("goodput_rps").number);
        }
    }
    ASSERT_GT(best_static, 0.0);
    for (JsonValue& row : Metrics(&fresh, "bench_serving")) {
        if (at_4x(row) && row.object["placement_policy"].str == "predicted") {
            row.object["goodput_rps"] = Number(0.9 * best_static);
        }
    }
    ExpectFailsOnly(CheckMutated(fresh), "dynamic vs best static placement",
                    "below 0.95x the best static");
}

TEST(BenchCheckTest, PredictorClassOverItsBandFails)
{
    JsonValue fresh = Baseline();
    RowOf(&fresh, "bench_predict", "fit_error", 2).object["median_rel_err"] =
        Number(0.3);
    ExpectFailsOnly(CheckMutated(fresh), "predictor median_rel_err",
                    "median_rel_err=0.3 exceeds 0.25");
}

TEST(BenchCheckTest, RoundTripThatIsNotBitwiseFails)
{
    JsonValue fresh = Baseline();
    RowOf(&fresh, "bench_predict", "roundtrip").object["bitwise"].boolean =
        false;
    ExpectFailsOnly(CheckMutated(fresh), "predictor bitwise round trip",
                    "not a bitwise round trip");
}

TEST(BenchCheckTest, WrongCrossoverWinnerFails)
{
    // The batch-1 row: make the NPU the cheaper side per token.
    JsonValue fresh = Baseline();
    JsonValue& row = RowOf(&fresh, "bench_serving", "decode_step", 0);
    ASSERT_EQ(row.object["batch"].number, 1.0);
    row.object["npu_tpot_ms"] =
        Number(0.5 * row.object["cpu_tpot_ms"].number);
    ExpectFailsOnly(CheckMutated(fresh), "decode-step crossover",
                    "batch-1 winner 'npu' (want cpu)");
}

TEST(BenchCheckTest, DroppedRowOfAFixedKeyFamilyFails)
{
    JsonValue fresh = Baseline();
    std::vector<JsonValue>& decode = Metrics(&fresh, "bench_table5_e2e");
    decode.erase(decode.begin() + 11);
    ExpectFailsOnly(CheckMutated(fresh), "decode-placement tokens/s",
                    "is missing");

    fresh = Baseline();
    std::vector<JsonValue>& serving = Metrics(&fresh, "bench_serving");
    serving.erase(std::find_if(serving.begin(), serving.end(),
                               [](JsonValue& row) {
                                   return row.object["mode"].str == "faults";
                               }));
    ExpectFailsOnly(CheckMutated(fresh), "zero-fault goodput", "is missing");
}

TEST(BenchCheckTest, RowLackingAKeyFieldIsANamedFailureNotAnEmptyKey)
{
    JsonValue fresh = Baseline();
    Metrics(&fresh, "bench_kernels")[0].object.erase("m");
    const BenchCheckReport report = CheckMutated(fresh);
    ExpectFailsOnly(report, "kernel GFLOP/s", "lacks key field 'm'");
    EXPECT_EQ(Counts(report).at("kernel GFLOP/s"), 62);
}

TEST(BenchCheckTest, RowLackingItsValueFieldFails)
{
    JsonValue fresh = Baseline();
    RowOf(&fresh, "bench_serving", "paged_kv").object.erase("kv_pages_mean");
    ExpectFailsOnly(CheckMutated(fresh), "paged-KV mean pages",
                    "lacks field 'kv_pages_mean'");
}

TEST(BenchCheckTest, NonNumericValueFails)
{
    JsonValue fresh = Baseline();
    JsonValue& gflops = Metrics(&fresh, "bench_kernels")[0].object["gflops"];
    gflops.type = JsonValue::Type::kString;
    gflops.str = "12.5";
    const BenchCheckReport report = CheckMutated(fresh);
    ExpectFailsOnly(report, "kernel GFLOP/s",
                    "field 'gflops' is not a number");
    EXPECT_EQ(Counts(report).at("kernel GFLOP/s"), 62);
}

TEST(BenchCheckTest, MutatedFileExitsOne)
{
    std::string text = ReadFile(LLMNPU_BASELINE_JSON);
    const std::string bitwise = "\"bitwise\": true";
    ASSERT_NE(text.find(bitwise), std::string::npos);
    text.replace(text.find(bitwise), bitwise.size(), "\"bitwise\": false");
    std::ostringstream out;
    EXPECT_EQ(RunBenchCheck(WriteTemp("bench_check_mutated.json", text),
                            LLMNPU_BASELINE_JSON, out),
              1);
    EXPECT_NE(out.str().find("FAIL fresh: predictor bitwise round trip"),
              std::string::npos)
        << out.str();
}

TEST(BenchCheckTest, MalformedJsonExitsTwoWithTheParserPosition)
{
    const std::string text = ReadFile(LLMNPU_BASELINE_JSON);
    const std::string path = WriteTemp("bench_check_truncated.json",
                                       text.substr(0, text.size() / 2));
    std::ostringstream out;
    EXPECT_EQ(RunBenchCheck(path, LLMNPU_BASELINE_JSON, out), 2);
    EXPECT_NE(out.str().find("at offset"), std::string::npos) << out.str();
}

TEST(BenchCheckTest, UnreadablePathExitsTwo)
{
    std::ostringstream out;
    EXPECT_EQ(RunBenchCheck(LLMNPU_BASELINE_JSON,
                            ::testing::TempDir() + "no_such_results.json",
                            out),
              2);
    EXPECT_NE(out.str().find("cannot read"), std::string::npos) << out.str();
}

}  // namespace
}  // namespace llmnpu
