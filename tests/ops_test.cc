/**
 * @file
 * Tests for the float operators (Figure 5's "orange" ops): the bitwise
 * contract of the row-parallel, fused epilogue ops and the RoPE table
 * against their serial per-element references at 1, 2 and 4 threads.
 * Attention is tested with the fused kernel in paged_kv_test.cc.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <vector>

#include "src/obs/metrics.h"
#include "src/tensor/ops.h"
#include "src/tensor/row_parallel.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"
#include "tests/support/epilogue_reference.h"
#include "tests/support/random.h"
#include "tests/support/rope_reference.h"

namespace llmnpu {
namespace {

TEST(LayerNormTest, ProducesZeroMeanUnitVar)
{
    Rng rng(2);
    Tensor x = RandomTensor(rng, {4, 64});
    Tensor gamma = Tensor::Full({1, 64}, 1.0f);
    Tensor beta = Tensor::Zeros({1, 64});
    Tensor y = Norm(NormKind::kLayerNorm, x, gamma, beta);
    for (int64_t r = 0; r < 4; ++r) {
        double mean = 0.0, var = 0.0;
        for (int64_t c = 0; c < 64; ++c) mean += y.At(r, c);
        mean /= 64.0;
        for (int64_t c = 0; c < 64; ++c) {
            var += (y.At(r, c) - mean) * (y.At(r, c) - mean);
        }
        var /= 64.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(LayerNormTest, GammaBetaApplied)
{
    Tensor x = Tensor::FromValues({1, 2}, {-1.0f, 1.0f});
    Tensor gamma = Tensor::FromValues({1, 2}, {2.0f, 2.0f});
    Tensor beta = Tensor::FromValues({1, 2}, {5.0f, 5.0f});
    Tensor y = Norm(NormKind::kLayerNorm, x, gamma, beta);
    EXPECT_NEAR(y.At(0, 0), 5.0f - 2.0f, 1e-3);
    EXPECT_NEAR(y.At(0, 1), 5.0f + 2.0f, 1e-3);
}

TEST(RmsNormTest, UnitRmsAfterNorm)
{
    Rng rng(3);
    Tensor x = RandomTensor(rng, {3, 128});
    Tensor gamma = Tensor::Full({1, 128}, 1.0f);
    Tensor y = Norm(NormKind::kRMSNorm, x, gamma, Tensor());
    for (int64_t r = 0; r < 3; ++r) {
        double ms = 0.0;
        for (int64_t c = 0; c < 128; ++c) ms += y.At(r, c) * y.At(r, c);
        EXPECT_NEAR(std::sqrt(ms / 128.0), 1.0, 1e-3);
    }
}

TEST(RmsNormTest, AmplifiedGainCreatesChannelOutliers)
{
    // The mechanism the synthetic weights use to inject activation
    // outliers: norms are float, so a large gain survives quantization-free.
    Rng rng(4);
    Tensor x = RandomTensor(rng, {8, 64});
    Tensor gamma = Tensor::Full({1, 64}, 1.0f);
    gamma.Data<float>()[7] = 30.0f;
    Tensor y = Norm(NormKind::kRMSNorm, x, gamma, Tensor());
    double hot = 0.0, cold = 0.0;
    for (int64_t r = 0; r < 8; ++r) {
        hot += std::abs(y.At(r, 7));
        for (int64_t c = 0; c < 64; ++c) {
            if (c != 7) cold += std::abs(y.At(r, c)) / 63.0;
        }
    }
    EXPECT_GT(hot, 10.0 * cold);
}

TEST(ActivationTest, SiluKnownValues)
{
    Tensor x = Tensor::FromValues({1, 3}, {0.0f, 10.0f, -10.0f});
    ActInPlace(ActKind::kSiLU, x);
    EXPECT_NEAR(x.At(0, 0), 0.0f, 1e-6);
    EXPECT_NEAR(x.At(0, 1), 10.0f, 1e-3);   // ~identity for large +
    EXPECT_NEAR(x.At(0, 2), 0.0f, 1e-3);    // ~0 for large -
}

TEST(ActivationTest, GeluKnownValues)
{
    Tensor x = Tensor::FromValues({1, 3}, {0.0f, 5.0f, -5.0f});
    ActInPlace(ActKind::kGeLU, x);
    EXPECT_NEAR(x.At(0, 0), 0.0f, 1e-6);
    EXPECT_NEAR(x.At(0, 1), 5.0f, 1e-3);
    EXPECT_NEAR(x.At(0, 2), 0.0f, 1e-3);
}

// ------------------------------------------- row-parallel epilogue ops

/** Bytes-equal, with a message naming the first differing element. */
::testing::AssertionResult
BitwiseEqual(const Tensor& got, const Tensor& want)
{
    if (got.shape() != want.shape()) {
        return ::testing::AssertionFailure() << "shapes differ";
    }
    const float* g = got.Data<float>();
    const float* w = want.Data<float>();
    for (int64_t i = 0; i < got.NumElements(); ++i) {
        if (std::memcmp(g + i, w + i, sizeof(float)) != 0) {
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << g[i] << " vs " << w[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/** The smallest row count at which a pass of `work_per_row` splits. */
int64_t
CutoffRows(int64_t work_per_row)
{
    return (kParallelWorkCutoff + work_per_row - 1) / work_per_row;
}

/** Row counts every epilogue op is checked at: a decode row, an m=16
 *  decode batch, both sides of the inline cutoff, a 256-row prefill chunk
 *  and a 798-token prompt. */
std::vector<int64_t>
EpilogueRowCounts(int64_t work_per_row)
{
    const int64_t cut = CutoffRows(work_per_row);
    return {1, 16, cut - 1, cut, cut + 1, 256, 798};
}

constexpr int kEpilogueThreads[] = {1, 2, 4};

TEST(RowParallelTest, SplitsOnlyFromTheCutoff)
{
    // The work cutoff is what keeps m=16 decode inline: below it no pool
    // job is submitted, from it on one is.
    obs::Counter& jobs =
        obs::MetricsRegistry::Global().GetCounter("threadpool.jobs");
    ScopedNumThreads scoped(2);
    const int64_t cols = 512;
    const int64_t cut = CutoffRows(cols);
    for (const int64_t rows : {cut - 1, cut}) {
        std::vector<char> seen(static_cast<size_t>(rows), 0);
        const int64_t before = jobs.value();
        RowParallel(rows, cols, [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) ++seen[static_cast<size_t>(r)];
        });
        EXPECT_EQ(jobs.value() - before, rows < cut ? 0 : 1) << rows;
        for (const char n : seen) EXPECT_EQ(n, 1);
    }
}

class NormEpilogueTest : public ::testing::TestWithParam<NormKind>
{};

TEST_P(NormEpilogueTest, NormMatchesSerialBitwise)
{
    const NormKind kind = GetParam();
    const int64_t cols = 512;
    Rng rng(21);
    const Tensor gamma = RandomTensor(rng, {1, cols});
    const Tensor beta = RandomTensor(rng, {1, cols});
    for (const int64_t rows : EpilogueRowCounts(cols)) {
        const Tensor x = RandomTensor(rng, {rows, cols}, 3.0);
        const Tensor want = ReferenceNorm(kind, x, gamma, beta);
        for (const int threads : kEpilogueThreads) {
            ScopedNumThreads scoped(threads);
            EXPECT_TRUE(BitwiseEqual(Norm(kind, x, gamma, beta), want))
                << rows << " rows, " << threads << " threads";
        }
    }
}

TEST_P(NormEpilogueTest, AddNormMatchesSerialBitwise)
{
    // h = x + delta and Norm(h) in one pass equal the add pass followed
    // by the norm pass, for both outputs.
    const NormKind kind = GetParam();
    const int64_t cols = 512;
    Rng rng(22);
    const Tensor gamma = RandomTensor(rng, {1, cols});
    const Tensor beta = RandomTensor(rng, {1, cols});
    for (const int64_t rows : EpilogueRowCounts(cols)) {
        const Tensor x = RandomTensor(rng, {rows, cols}, 3.0);
        const Tensor delta = RandomTensor(rng, {rows, cols});
        const Tensor want_h = ReferenceAdd(x, delta);
        const Tensor want = ReferenceNorm(kind, want_h, gamma, beta);
        for (const int threads : kEpilogueThreads) {
            ScopedNumThreads scoped(threads);
            Tensor h = x;
            const Tensor got = AddNormInPlace(kind, h, delta, gamma, beta);
            EXPECT_TRUE(BitwiseEqual(h, want_h))
                << rows << " rows, " << threads << " threads";
            EXPECT_TRUE(BitwiseEqual(got, want))
                << rows << " rows, " << threads << " threads";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, NormEpilogueTest,
                         ::testing::Values(NormKind::kRMSNorm,
                                           NormKind::kLayerNorm),
                         [](const auto& info) {
                             return info.param == NormKind::kRMSNorm
                                        ? "RMSNorm"
                                        : "LayerNorm";
                         });

class ActEpilogueTest : public ::testing::TestWithParam<ActKind>
{};

/** Writes values outside the normal range to the start of the last row:
 *  SiLU's exp(-v) overflows or underflows there (the AVX-512 level then
 *  calls std::exp for the lane) or sees an infinity, a NaN or a
 *  denormal. */
void
PinExtremeValues(Tensor& x)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float denorm = std::numeric_limits<float>::denorm_min();
    const float values[] = {100.0f, -100.0f, inf,     -inf,    nan,
                            denorm, -denorm, 1e-40f,  -1e-40f, 88.0f,
                            -88.0f, 87.9f,   -87.9f,  89.0f,   -89.0f,
                            -0.0f};
    float* row = x.Data<float>() + (x.Rows() - 1) * x.Cols();
    std::copy(std::begin(values), std::end(values), row);
}

TEST_P(ActEpilogueTest, ActMatchesSerialBitwise)
{
    const ActKind act = GetParam();
    const int64_t cols = 1376;
    Rng rng(23);
    for (const int64_t rows : EpilogueRowCounts(cols)) {
        Tensor x = RandomTensor(rng, {rows, cols}, 4.0);
        PinExtremeValues(x);
        Tensor want = x;
        ReferenceActInPlace(act, want);
        for (const int threads : kEpilogueThreads) {
            ScopedNumThreads scoped(threads);
            Tensor got = x;
            ActInPlace(act, got);
            EXPECT_TRUE(BitwiseEqual(got, want))
                << rows << " rows, " << threads << " threads";
        }
    }
}

TEST_P(ActEpilogueTest, GatedActMatchesSerialBitwise)
{
    // act(gate) is rounded to float before the multiply by up, exactly as
    // an activation pass followed by a multiply pass.
    const ActKind act = GetParam();
    const int64_t cols = 1376;
    Rng rng(24);
    for (const int64_t rows : EpilogueRowCounts(cols)) {
        Tensor gate = RandomTensor(rng, {rows, cols}, 4.0);
        PinExtremeValues(gate);
        const Tensor up = RandomTensor(rng, {rows, cols});
        const Tensor want = ReferenceGatedAct(act, gate, up);
        for (const int threads : kEpilogueThreads) {
            ScopedNumThreads scoped(threads);
            Tensor got = gate;
            GatedActInPlace(act, got, up);
            EXPECT_TRUE(BitwiseEqual(got, want))
                << rows << " rows, " << threads << " threads";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ActEpilogueTest,
                         ::testing::Values(ActKind::kSiLU, ActKind::kGeLU),
                         [](const auto& info) {
                             return info.param == ActKind::kSiLU ? "SiLU"
                                                                 : "GeLU";
                         });

TEST(ElementwiseTest, AddInPlaceMatchesSerialBitwise)
{
    const int64_t cols = 512;
    Rng rng(25);
    for (const int64_t rows : EpilogueRowCounts(cols)) {
        const Tensor a = RandomTensor(rng, {rows, cols});
        const Tensor b = RandomTensor(rng, {rows, cols});
        const Tensor want = ReferenceAdd(a, b);
        for (const int threads : kEpilogueThreads) {
            ScopedNumThreads scoped(threads);
            Tensor got = a;
            AddInPlace(got, b);
            EXPECT_TRUE(BitwiseEqual(got, want))
                << rows << " rows, " << threads << " threads";
        }
    }
}

/** Sum of squares of every element of `t`. */
double
SquaredNorm(const Tensor& t)
{
    double sum = 0.0;
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        sum += t.Data<float>()[i] * t.Data<float>()[i];
    }
    return sum;
}

TEST(RopeTest, PreservesNorm)
{
    Rng rng(5);
    Tensor q = RandomTensor(rng, {4, 32});  // 2 heads x 16
    Tensor k = RandomTensor(rng, {4, 16});  // 1 head x 16
    const double q_before = SquaredNorm(q);
    const double k_before = SquaredNorm(k);
    RopeTable({3, 4, 5, 6}, 16).Apply(q, 2, k, 1);
    EXPECT_NEAR(q_before, SquaredNorm(q), q_before * 1e-5);
    EXPECT_NEAR(k_before, SquaredNorm(k), k_before * 1e-5);
}

TEST(RopeTest, PositionZeroIsIdentity)
{
    Rng rng(6);
    Tensor q = RandomTensor(rng, {1, 16});
    Tensor k = RandomTensor(rng, {1, 16});
    const Tensor q_orig = q;
    const Tensor k_orig = k;
    RopeTable({0}, 16).Apply(q, 1, k, 1);
    EXPECT_LT(MaxAbsDiff(q, q_orig), 1e-6);
    EXPECT_LT(MaxAbsDiff(k, k_orig), 1e-6);
}

TEST(RopeTest, OffsetMatchesInSequencePosition)
{
    // Row r with offset p must equal row (r+p) of the same content placed
    // at offset 0 — the property chunked prefill relies on.
    Rng rng(7);
    const Tensor base_q = RandomTensor(rng, {6, 16});
    const Tensor base_k = RandomTensor(rng, {6, 32});
    Tensor full_q = base_q;
    Tensor full_k = base_k;
    RopeTable({0, 1, 2, 3, 4, 5}, 16).Apply(full_q, 1, full_k, 2);
    Tensor tail_q = base_q.CopyRows(4, 2);
    Tensor tail_k = base_k.CopyRows(4, 2);
    RopeTable({4, 5}, 16).Apply(tail_q, 1, tail_k, 2);
    EXPECT_LT(MaxAbsDiff(tail_q, full_q.CopyRows(4, 2)), 1e-5);
    EXPECT_LT(MaxAbsDiff(tail_k, full_k.CopyRows(4, 2)), 1e-5);
}

TEST(RopeTest, RowsMatchPerElementFormulaBitwise)
{
    // The cos/sin table must reproduce the per-element double formula
    // exactly, at large positions too.
    for (const int head_dim : {2, 64, 128}) {
        for (const int64_t pos_offset : {int64_t{0}, int64_t{511},
                                         int64_t{4095}, int64_t{1} << 20}) {
            SCOPED_TRACE(::testing::Message() << "head_dim=" << head_dim
                                              << " pos=" << pos_offset);
            const int q_heads = 3, k_heads = 1;
            Rng rng(static_cast<uint64_t>(head_dim + pos_offset));
            const Tensor q = RandomTensor(rng, {6, q_heads * head_dim});
            const Tensor k = RandomTensor(rng, {6, k_heads * head_dim});
            Tensor got_q = q, got_k = k;
            Tensor want_q = q, want_k = k;
            std::vector<int64_t> positions(6);
            std::iota(positions.begin(), positions.end(), pos_offset);
            RopeTable(positions, head_dim).Apply(got_q, q_heads, got_k,
                                                 k_heads);
            ReferenceRopeRows(want_q, 0, 6, q_heads, head_dim, pos_offset);
            ReferenceRopeRows(want_k, 0, 6, k_heads, head_dim, pos_offset);
            EXPECT_TRUE(BitwiseEqual(got_q, want_q));
            EXPECT_TRUE(BitwiseEqual(got_k, want_k));
        }
    }
}

TEST(RopeTest, StackedTableMatchesPerSegmentRows)
{
    // One table over a stacked batch (each segment at its own position
    // offset) equals rotating every segment on its own.
    Rng rng(12);
    const Tensor q = RandomTensor(rng, {7, 2 * 64});
    const Tensor k = RandomTensor(rng, {7, 64});
    const std::vector<int64_t> positions = {40, 41, 42, 0, 9000, 9001, 9002};
    Tensor got_q = q, got_k = k;
    RopeTable(positions, 64).Apply(got_q, 2, got_k, 1);
    Tensor want_q = q, want_k = k;
    for (Tensor* t : {&want_q, &want_k}) {
        const int heads = t == &want_q ? 2 : 1;
        ReferenceRopeRows(*t, 0, 3, heads, 64, 40);
        ReferenceRopeRows(*t, 3, 1, heads, 64, 0);
        ReferenceRopeRows(*t, 4, 3, heads, 64, 9000);
    }
    EXPECT_TRUE(BitwiseEqual(got_q, want_q));
    EXPECT_TRUE(BitwiseEqual(got_k, want_k));
}

TEST(RopeTest, QkPassMatchesPerElementFormulaBitwise)
{
    // One row-parallel pass over Q and K (different head counts, as with
    // GQA) equals the per-element formula on each, at any thread count.
    const int head_dim = 64, q_heads = 4, k_heads = 2;
    const int64_t work = (q_heads + k_heads) * head_dim;
    Rng rng(13);
    for (const int64_t rows : EpilogueRowCounts(work)) {
        const Tensor q = RandomTensor(rng, {rows, q_heads * head_dim});
        const Tensor k = RandomTensor(rng, {rows, k_heads * head_dim});
        // Two segments at their own offsets, as in a stacked batch.
        const int64_t split = rows / 2;
        std::vector<int64_t> positions;
        for (int64_t r = 0; r < split; ++r) positions.push_back(700 + r);
        for (int64_t r = split; r < rows; ++r) positions.push_back(r - split);
        Tensor want_q = q;
        Tensor want_k = k;
        for (Tensor* t : {&want_q, &want_k}) {
            const int heads = t == &want_q ? q_heads : k_heads;
            ReferenceRopeRows(*t, 0, split, heads, head_dim, 700);
            ReferenceRopeRows(*t, split, rows - split, heads, head_dim, 0);
        }
        const RopeTable table(positions, head_dim);
        for (const int threads : kEpilogueThreads) {
            ScopedNumThreads scoped(threads);
            Tensor got_q = q;
            Tensor got_k = k;
            table.Apply(got_q, q_heads, got_k, k_heads);
            EXPECT_TRUE(BitwiseEqual(got_q, want_q))
                << rows << " rows, " << threads << " threads";
            EXPECT_TRUE(BitwiseEqual(got_k, want_k))
                << rows << " rows, " << threads << " threads";
        }
    }
}

}  // namespace
}  // namespace llmnpu
