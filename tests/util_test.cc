/**
 * @file
 * Unit tests for the utility layer: RNG determinism and distributions,
 * streaming statistics, table rendering, formatting helpers.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/util/format.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace llmnpu {
namespace {

TEST(SplitMix64Test, DeterministicSequence)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer)
{
    SplitMix64 a(1), b(2);
    EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.Uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformRangeRespectsBounds)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.Uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(RngTest, UniformIntInclusiveBounds)
{
    Rng rng(3);
    std::set<int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.UniformInt(static_cast<int64_t>(2), 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);  // all four values appear
}

TEST(RngTest, NormalMomentsApproximatelyStandard)
{
    Rng rng(4);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i) stat.Add(rng.Normal());
    EXPECT_NEAR(stat.mean(), 0.0, 0.03);
    EXPECT_NEAR(stat.StdDev(), 1.0, 0.03);
}

TEST(RngTest, NormalScaledMoments)
{
    Rng rng(5);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i) stat.Add(rng.Normal(10.0, 2.0));
    EXPECT_NEAR(stat.mean(), 10.0, 0.1);
    EXPECT_NEAR(stat.StdDev(), 2.0, 0.1);
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(6);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ZipfStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        EXPECT_LT(rng.Zipf(100, 1.1), 100u);
    }
}

TEST(RngTest, ZipfIsSkewedTowardSmallValues)
{
    Rng rng(8);
    int small = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        if (rng.Zipf(1000, 1.2) < 10) ++small;
    }
    // Zipf(1.2): the first ten of a thousand values carry ~half the mass.
    EXPECT_GT(small, n * 2 / 5);
}

TEST(RunningStatTest, BasicMoments)
{
    RunningStat stat;
    for (double v : {1.0, 2.0, 3.0, 4.0}) stat.Add(v);
    EXPECT_EQ(stat.count(), 4u);
    EXPECT_DOUBLE_EQ(stat.mean(), 2.5);
    EXPECT_DOUBLE_EQ(stat.min(), 1.0);
    EXPECT_DOUBLE_EQ(stat.max(), 4.0);
    EXPECT_DOUBLE_EQ(stat.sum(), 10.0);
    EXPECT_NEAR(stat.Variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStatTest, EmptyIsZero)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.mean(), 0.0);
    EXPECT_EQ(stat.Variance(), 0.0);
}

TEST(StatsTest, GeoMeanOfEqualValues)
{
    EXPECT_NEAR(GeoMean({3.0, 3.0, 3.0}), 3.0, 1e-12);
}

TEST(StatsTest, GeoMeanKnownValue)
{
    EXPECT_NEAR(GeoMean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(GeoMean({2.0, 8.0, 32.0}), 8.0, 1e-9);
}

TEST(StatsTest, PercentileEndpointsAndMedian)
{
    std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 3.0);
}

TEST(StatsTest, PercentileInterpolates)
{
    std::vector<double> xs = {0.0, 10.0};
    EXPECT_DOUBLE_EQ(Percentile(xs, 25.0), 2.5);
}

TEST(StatsTest, UnsortedInputIsSorted)
{
    EXPECT_DOUBLE_EQ(Percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 50.0), 3.0);
}

TEST(TableTest, RendersAlignedColumns)
{
    Table table({"name", "value"});
    table.AddRow({"a", "1"});
    table.AddRow({"longer", "2.5"});
    const std::string out = table.ToString();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 2.5   |"), std::string::npos);
}

TEST(TableTest, NumFormatsPrecision)
{
    EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(TableTest, WithPaperIncludesBothNumbers)
{
    const std::string s = Table::WithPaper(1.5, 2.0, 1);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("paper: 2.0"), std::string::npos);
}

TEST(FormatTest, HumanBytes)
{
    EXPECT_EQ(HumanBytes(512), "512 B");
    EXPECT_EQ(HumanBytes(2048), "2.0 KB");
    EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MB");
    EXPECT_EQ(HumanBytes(1536ull * 1024 * 1024), "1.50 GB");
}

TEST(FormatTest, HumanMs)
{
    EXPECT_EQ(HumanMs(1500.0), "1.50 s");
    EXPECT_EQ(HumanMs(12.3), "12.3 ms");
    EXPECT_EQ(HumanMs(0.5), "500.0 us");
}

TEST(FormatTest, StrFormatBasics)
{
    EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

}  // namespace
}  // namespace llmnpu
