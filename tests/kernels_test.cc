/**
 * @file
 * Kernel-equivalence and thread-pool tests (CTest label: kernels).
 *
 * The tiled/threaded kernels in src/tensor/kernels.cc are checked against
 * the naive reference kernels in src/tensor/matmul.cc across shapes that
 * exercise every remainder path (row blocks, panel tails, tiny K), and for
 * determinism across thread counts: every kernel must be bitwise identical
 * at 1/2/4 threads. The INT8 kernels are checked at every ISA level the
 * host supports (kernel_isa.h), bitwise against the naive oracles, and
 * the f32 matmul and attention levels bitwise against each other.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/tensor/kernel_isa.h"
#include "src/tensor/matmul.h"
#include "src/tensor/quantize.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"
#include "tests/support/random.h"
#include "tests/support/row_subset_reference.h"

namespace llmnpu {
namespace {

Tensor
RandomI8(Rng& rng, std::vector<int64_t> shape)
{
    Tensor t(std::move(shape), DType::kI8);
    int8_t* p = t.Data<int8_t>();
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        p[i] = static_cast<int8_t>(static_cast<int>(rng.UniformInt(255)) -
                                   127);
    }
    return t;
}

/** Shapes covering the MR remainder paths (m % 4), panel tails (n % 16),
 *  odd K, matvec (m=1), and degenerate empty dimensions. */
const std::vector<std::vector<int64_t>> kShapes = {
    {1, 100, 130}, {4, 32, 48},  {3, 7, 200}, {5, 64, 96},
    {2, 1, 1},     {7, 33, 17},  {16, 128, 64}, {6, 256, 16},
    {0, 16, 16},   {3, 0, 8},    {2, 8, 0},
};

// ------------------------------------------------------------------- f32

TEST(KernelEquivalenceTest, F32MatchesNaiveAcrossShapes)
{
    Rng rng(101);
    for (const auto& s : kShapes) {
        Tensor a = RandomTensor(rng, {s[0], s[1]});
        Tensor b = RandomTensor(rng, {s[1], s[2]});
        Tensor tiled = MatMulF32Packed(a, PackWeightsF32(b));
        Tensor naive = MatMulF32Naive(a, b);
        ASSERT_EQ(tiled.shape(), naive.shape());
        EXPECT_LT(MaxAbsDiff(tiled, naive), 1e-3)
            << "m=" << s[0] << " k=" << s[1] << " n=" << s[2];
    }
}

TEST(KernelEquivalenceTest, F32PackedMatchesUnpacked)
{
    Rng rng(102);
    Tensor a = RandomTensor(rng, {9, 75});
    Tensor b = RandomTensor(rng, {75, 130});
    Tensor via_pack = MatMulF32Packed(a, PackWeightsF32(b));
    EXPECT_LT(MaxAbsDiff(via_pack, MatMulF32Naive(a, b)), 1e-3);
}

TEST(KernelEquivalenceTest, UnpackInvertsPackBitwise)
{
    // n % 16 tails: the zero padding of the last panel must not leak.
    Rng rng(111);
    for (int64_t k : {1, 5, 64}) {
        for (int64_t n : {1, 15, 16, 17, 33, 130}) {
            Tensor w = RandomTensor(rng, {k, n});
            EXPECT_TRUE(UnpackWeightsF32(PackWeightsF32(w)).BitEquals(w))
                << "k=" << k << " n=" << n;
        }
    }
}

TEST(KernelEquivalenceTest, F32MatvecBitwiseMatchesPacked)
{
    // A decode step is an m = 1 call of the packed kernel; every output is
    // one k-ascending chain from +0 whatever the row block, so it must
    // equal the same row of a multi-row (prefill) call bit for bit.
    Rng rng(112);
    for (int64_t k : {1, 7, 100, 256}) {
        for (int64_t n : {1, 15, 17, 130, 530}) {
            Tensor a = RandomTensor(rng, {6, k});
            a.At(5, k / 2) = 0.0f;
            const PackedWeightsF32 w =
                PackWeightsF32(RandomTensor(rng, {k, n}));
            EXPECT_TRUE(MatMulF32Packed(a.CopyRows(5, 1), w).BitEquals(
                MatMulF32Packed(a, w).CopyRows(5, 1)))
                << "k=" << k << " n=" << n;
        }
    }
}

TEST(KernelEquivalenceTest, TransposedPackMatchesMaterializedTranspose)
{
    Rng rng(103);
    Tensor a = RandomTensor(rng, {5, 48});
    Tensor wt = RandomTensor(rng, {100, 48});  // use as W^T: [n x k]
    Tensor w({48, 100}, DType::kF32);
    for (int64_t r = 0; r < 48; ++r) {
        for (int64_t c = 0; c < 100; ++c) w.At(r, c) = wt.At(c, r);
    }
    Tensor via_transposed_pack =
        MatMulF32Packed(a, PackWeightsF32Transposed(wt));
    EXPECT_LT(MaxAbsDiff(via_transposed_pack, MatMulF32Naive(a, w)), 1e-3);
}

TEST(KernelEquivalenceTest, F32ThreadCountsAgree)
{
    // m = 1 and 2 split over panels, m = 16 too; each output element is
    // one fixed chain on one thread, so the results are bitwise equal.
    Rng rng(104);
    Tensor b = RandomTensor(rng, {256, 530});
    const PackedWeightsF32 packed = PackWeightsF32(b);
    for (int64_t m : {1, 2, 16}) {
        Tensor a = RandomTensor(rng, {m, 256});
        Tensor ref;
        {
            ScopedNumThreads one(1);
            ref = MatMulF32Packed(a, packed);
        }
        EXPECT_LT(MaxAbsDiff(ref, MatMulF32Naive(a, b)), 1e-3);
        for (int threads : {2, 4}) {
            ScopedNumThreads t(threads);
            EXPECT_TRUE(MatMulF32Packed(a, packed).BitEquals(ref))
                << "m=" << m << " at " << threads << " threads";
        }
    }
}

// ------------------------------------------------------------------ int8

TEST(KernelEquivalenceTest, W8A8PerTensorBitwiseMatchesNaive)
{
    Rng rng(105);
    for (const auto& s : kShapes) {
        Tensor a_q = RandomI8(rng, {s[0], s[1]});
        Tensor w_q = RandomI8(rng, {s[1], s[2]});
        std::vector<float> per_col;
        for (int64_t j = 0; j < s[2]; ++j) {
            per_col.push_back(0.01f + 0.001f * static_cast<float>(j));
        }
        // Per-column scales.
        Tensor tiled = MatMulW8A8PerTensorPacked(
            a_q, 0.02f, PackWeightsI8(w_q, per_col));
        EXPECT_TRUE(tiled.BitEquals(
            MatMulW8A8PerTensorNaive(a_q, 0.02f, w_q, per_col)))
            << "per-col m=" << s[0] << " k=" << s[1] << " n=" << s[2];
        // Uniform scale.
        const std::vector<float> uniform = {0.05f};
        Tensor tiled_u = MatMulW8A8PerTensorPacked(
            a_q, 0.02f, PackWeightsI8(w_q, uniform));
        EXPECT_TRUE(tiled_u.BitEquals(
            MatMulW8A8PerTensorNaive(a_q, 0.02f, w_q, uniform)))
            << "uniform m=" << s[0] << " k=" << s[1] << " n=" << s[2];
    }
}

TEST(KernelEquivalenceTest, W8A8RowColBitwiseMatchesNaive)
{
    Rng rng(106);
    for (const auto& s : {std::vector<int64_t>{1, 100, 130},
                          std::vector<int64_t>{5, 64, 96},
                          std::vector<int64_t>{7, 33, 17}}) {
        Tensor a_q = RandomI8(rng, {s[0], s[1]});
        Tensor w_q = RandomI8(rng, {s[1], s[2]});
        std::vector<float> a_scales, w_scales;
        for (int64_t i = 0; i < s[0]; ++i) {
            a_scales.push_back(0.01f + 0.002f * static_cast<float>(i));
        }
        for (int64_t j = 0; j < s[2]; ++j) {
            w_scales.push_back(0.03f + 0.001f * static_cast<float>(j));
        }
        Tensor tiled = MatMulW8A8RowColPacked(a_q, a_scales,
                                              PackWeightsI8(w_q, w_scales));
        EXPECT_TRUE(tiled.BitEquals(
            MatMulW8A8RowColNaive(a_q, a_scales, w_q, w_scales)))
            << "m=" << s[0] << " k=" << s[1] << " n=" << s[2];
    }
}

TEST(KernelEquivalenceTest, PerGroupMatchesNaiveAcrossShapes)
{
    Rng rng(107);
    for (const auto& s : {std::vector<int64_t>{1, 96, 130},
                          std::vector<int64_t>{4, 64, 48},
                          std::vector<int64_t>{7, 128, 17},
                          std::vector<int64_t>{0, 64, 8}}) {
        Tensor a = RandomTensor(rng, {s[0], s[1]});
        Tensor w = RandomTensor(rng, {s[1], s[2]});
        PerGroupWeights pg = QuantizePerGroup(w, 32);
        Tensor tiled = MatMulPerGroupPacked(a, PackPerGroupWeights(pg));
        Tensor naive = MatMulPerGroupNaive(a, pg);
        ASSERT_EQ(tiled.shape(), naive.shape());
        const double scale = std::max(1.0, static_cast<double>(AbsMax(naive)));
        EXPECT_LT(MaxAbsDiff(tiled, naive) / scale, 1e-5)
            << "m=" << s[0] << " k=" << s[1] << " n=" << s[2];
    }
}

TEST(KernelEquivalenceTest, RowSubsetMatchesMaskedNaive)
{
    Rng rng(108);
    Tensor a = RandomTensor(rng, {6, 40});
    const PerColumnWeights w = QuantizePerColumn(RandomTensor(rng, {40, 33}));
    const std::vector<int> rows = {0, 3, 17, 39};
    Tensor a_sub({6, 4}, DType::kF32);
    Tensor a_masked = Tensor::Zeros({6, 40});
    for (int64_t r = 0; r < 6; ++r) {
        for (size_t i = 0; i < rows.size(); ++i) {
            a_sub.At(r, static_cast<int64_t>(i)) = a.At(r, rows[i]);
            a_masked.At(r, rows[i]) = a.At(r, rows[i]);
        }
    }
    EXPECT_LT(
        MaxAbsDiff(MatMulRowSubset(a_sub, PackWeightsI8(w.q, w.scales), rows),
                   MatMulF32Naive(a_masked, DequantizePerColumn(w))),
        1e-4);
}

TEST(KernelEquivalenceTest, RowSubsetOnInt8PanelsBitwiseMatchesF32Rows)
{
    // The shadow term reads its rows from the INT8 panels; it must equal
    // the f32 loop over DequantizePerColumn rows it replaced, bit for bit.
    // Shapes cover k % 4 and n % 16 tails; m = 200 with three rows is
    // past RowParallel's cutoff, so the row split runs too.
    Rng rng(113);
    const std::vector<std::vector<int64_t>> shapes = {
        {3, 7, 33}, {5, 64, 48}, {4, 10, 17}, {200, 37, 130}, {1, 4, 1}};
    for (const auto& s : shapes) {
        const int64_t m = s[0], k = s[1], n = s[2];
        const PerColumnWeights per_col =
            QuantizePerColumn(RandomTensor(rng, {k, n}));
        const std::vector<std::vector<int>> row_sets = {
            {0},
            {static_cast<int>(k - 1)},
            {0, 1, 2 % static_cast<int>(k)},
            {0, static_cast<int>(k / 2), static_cast<int>(k - 1)},
        };
        for (const auto& rows : row_sets) {
            const int64_t nr = static_cast<int64_t>(rows.size());
            Tensor a_sub = RandomTensor(rng, {m, nr});
            for (int64_t r = 0; r < m; r += 3) a_sub.At(r, r % nr) = 0.0f;
            for (int64_t r = 0; r < m; ++r) a_sub.At(r, nr - 1) = 0.0f;
            a_sub.At(0, 0) = 1.5f;  // some row keeps a non-zero entry
            for (bool uniform : {false, true}) {
                // Uniform: one packed scale; the reference repeats it per
                // column, the form DequantizePerColumn takes.
                PerColumnWeights w = per_col;
                if (uniform) w.scales.assign(static_cast<size_t>(n), 0.0123f);
                const PackedWeightsI8 packed = PackWeightsI8(
                    w.q, uniform ? std::vector<float>{0.0123f} : w.scales);
                const Tensor ref =
                    ReferenceRowSubset(a_sub, DequantizePerColumn(w), rows);
                for (int threads : {1, 2, 4}) {
                    ScopedNumThreads t(threads);
                    EXPECT_TRUE(
                        MatMulRowSubset(a_sub, packed, rows).BitEquals(ref))
                        << "m=" << m << " k=" << k << " n=" << n
                        << " rows=" << nr << " uniform=" << uniform
                        << " at " << threads << " threads";
                }
            }
        }
    }
}

// --------------------------------------------------------- determinism

TEST(KernelDeterminismTest, W8A8BitwiseAcrossThreadCounts)
{
    Rng rng(109);
    // Big enough that the parallel path actually engages.
    Tensor a_q = RandomI8(rng, {16, 128});
    Tensor w_q = RandomI8(rng, {128, 130});
    std::vector<float> w_scales;
    for (int64_t j = 0; j < 130; ++j) {
        w_scales.push_back(0.01f + 0.0005f * static_cast<float>(j));
    }
    const PackedWeightsI8 packed = PackWeightsI8(w_q, w_scales);
    Tensor ref;
    {
        ScopedNumThreads one(1);
        ref = MatMulW8A8PerTensorPacked(a_q, 0.015f, packed);
    }
    for (int threads : {2, 4}) {
        ScopedNumThreads t(threads);
        EXPECT_TRUE(
            MatMulW8A8PerTensorPacked(a_q, 0.015f, packed).BitEquals(ref))
            << threads << " threads";
    }
}

TEST(KernelDeterminismTest, PerGroupBitwiseAcrossThreadCounts)
{
    Rng rng(110);
    Tensor a = RandomTensor(rng, {16, 128});
    Tensor w = RandomTensor(rng, {128, 130});
    const PackedPerGroupWeights pg =
        PackPerGroupWeights(QuantizePerGroup(w, 32));
    Tensor ref;
    {
        ScopedNumThreads one(1);
        ref = MatMulPerGroupPacked(a, pg);
    }
    for (int threads : {2, 4}) {
        ScopedNumThreads t(threads);
        EXPECT_TRUE(MatMulPerGroupPacked(a, pg).BitEquals(ref))
            << threads << " threads";
    }
}

// ------------------------------------------------------------ ISA levels

/** Full int8 range, -128 included (per-tensor quantization never emits it,
 *  but the kernels must stay exact for it). */
Tensor
RandomFullI8(Rng& rng, std::vector<int64_t> shape)
{
    Tensor t(std::move(shape), DType::kI8);
    int8_t* p = t.Data<int8_t>();
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        p[i] = static_cast<int8_t>(static_cast<int>(rng.UniformInt(256)) -
                                   128);
    }
    return t;
}

/** Rows 0 and 1 of a pinned to the extremes -128 and 127. */
void
PinExtremeRows(Tensor& a)
{
    int8_t* p = a.Data<int8_t>();
    for (int64_t r = 0; r < std::min<int64_t>(a.Rows(), 2); ++r) {
        for (int64_t c = 0; c < a.Cols(); ++c) {
            p[r * a.Cols() + c] = r == 0 ? -128 : 127;
        }
    }
}

/** m tails 1..5 and 9 (past one VNNI block), k % 4 in {0, 1, 2, 3}
 *  (k = 0 included), and n % 16 tails. */
const std::vector<std::vector<int64_t>> kIsaShapes = {
    {1, 1, 1},    {2, 2, 17},  {3, 3, 16},  {4, 5, 31},  {5, 6, 33},
    {9, 7, 48},   {1, 0, 20},  {4, 0, 16},  {3, 37, 130}, {5, 64, 15},
    {2, 130, 64}, {9, 257, 47}, {17, 100, 130},
};

std::string
ShapeName(KernelIsa isa, const std::vector<int64_t>& s)
{
    return std::string(KernelIsaName(isa)) + " m=" + std::to_string(s[0]) +
           " k=" + std::to_string(s[1]) + " n=" + std::to_string(s[2]);
}

TEST(KernelIsaTest, W8A8PerTensorBitwiseAtEveryLevel)
{
    Rng rng(111);
    for (const auto& s : kIsaShapes) {
        Tensor a_q = RandomFullI8(rng, {s[0], s[1]});
        PinExtremeRows(a_q);
        Tensor w_q = RandomFullI8(rng, {s[1], s[2]});
        std::vector<float> per_col;
        for (int64_t j = 0; j < s[2]; ++j) {
            per_col.push_back(0.01f + 0.001f * static_cast<float>(j));
        }
        const Tensor naive =
            MatMulW8A8PerTensorNaive(a_q, 0.02f, w_q, per_col);
        const PackedWeightsI8 packed = PackWeightsI8(w_q, per_col);
        for (KernelIsa isa : SupportedKernelIsas()) {
            EXPECT_TRUE(MatMulW8A8PerTensorPackedAt(isa, a_q, 0.02f, packed)
                            .BitEquals(naive))
                << ShapeName(isa, s);
        }
    }
}

TEST(KernelIsaTest, W8A8RowColBitwiseAtEveryLevel)
{
    Rng rng(112);
    for (const auto& s : kIsaShapes) {
        Tensor a_q = RandomFullI8(rng, {s[0], s[1]});
        PinExtremeRows(a_q);
        Tensor w_q = RandomFullI8(rng, {s[1], s[2]});
        std::vector<float> a_scales, w_scales;
        for (int64_t i = 0; i < s[0]; ++i) {
            a_scales.push_back(0.01f + 0.002f * static_cast<float>(i));
        }
        for (int64_t j = 0; j < s[2]; ++j) {
            w_scales.push_back(0.03f + 0.001f * static_cast<float>(j));
        }
        const Tensor naive =
            MatMulW8A8RowColNaive(a_q, a_scales, w_q, w_scales);
        const PackedWeightsI8 packed = PackWeightsI8(w_q, w_scales);
        for (KernelIsa isa : SupportedKernelIsas()) {
            EXPECT_TRUE(MatMulW8A8RowColPackedAt(isa, a_q, a_scales, packed)
                            .BitEquals(naive))
                << ShapeName(isa, s);
        }
    }
}

/** Per-group shapes {m, k, n} and group sizes; sizes that are not a
 *  multiple of 4 start and end groups inside a packed quad. */
const std::vector<std::pair<std::vector<int64_t>, int>> kGroupShapes = {
    {{1, 35, 20}, 7},  {{2, 30, 17}, 5},  {{3, 6, 16}, 3},
    {{4, 9, 33}, 9},   {{5, 66, 31}, 6},  {{9, 64, 48}, 32},
    {{17, 128, 130}, 32}, {{3, 0, 8}, 1},
};

TEST(KernelIsaTest, PerGroupInt32ExactAtEveryLevel)
{
    // Dyadic operands make every float step exact: each (row, group) of
    // activations is integers / 8 with one entry at +-127/8 (scale 1/8,
    // so quantization is exact) and the weight scales are powers of two.
    // FMA contraction in the float reduction then cannot round, and the
    // output equals the naive one bitwise exactly when every group's int32
    // sum does.
    Rng rng(113);
    for (const auto& [s, group] : kGroupShapes) {
        const int64_t m = s[0], k = s[1], n = s[2];
        Tensor a({m, k}, DType::kF32);
        for (int64_t r = 0; r < m; ++r) {
            for (int64_t c = 0; c < k; ++c) {
                const bool pin = c % group == (r + c / group) % group;
                const float q =
                    pin ? (c % 2 ? 127.0f : -127.0f)
                        : static_cast<float>(
                              static_cast<int>(rng.UniformInt(253)) - 126);
                a.At(r, c) = q / 8.0f;
            }
        }
        PerGroupWeights pg;
        pg.q = RandomFullI8(rng, {k, n});
        pg.group_size = group;
        pg.num_groups = static_cast<int>(k / group);
        for (int g = 0; g < pg.num_groups; ++g) {
            for (int64_t j = 0; j < n; ++j) {
                pg.scales.push_back(
                    std::ldexp(1.0f, -4 - static_cast<int>((g + j) % 3)));
            }
        }
        const Tensor naive = MatMulPerGroupNaive(a, pg);
        const PackedPerGroupWeights packed = PackPerGroupWeights(pg);
        for (KernelIsa isa : SupportedKernelIsas()) {
            EXPECT_TRUE(MatMulPerGroupPackedAt(isa, a, packed).BitEquals(naive))
                << ShapeName(isa, s) << " group=" << group;
        }
    }
}

TEST(KernelIsaTest, PerGroupLevelsAgreeBitwise)
{
    // On general operands the float reduction may fuse differently from
    // the naive kernel, but it is the same code at every level.
    Rng rng(115);
    for (const auto& [s, group] : kGroupShapes) {
        Tensor a = RandomTensor(rng, {s[0], s[1]});
        Tensor w = RandomTensor(rng, {s[1], s[2]});
        const PerGroupWeights pg = QuantizePerGroup(w, group);
        const PackedPerGroupWeights packed = PackPerGroupWeights(pg);
        const Tensor scalar =
            MatMulPerGroupPackedAt(KernelIsa::kScalar, a, packed);
        const Tensor naive = MatMulPerGroupNaive(a, pg);
        const double scale =
            std::max(1.0, static_cast<double>(AbsMax(naive)));
        EXPECT_LT(MaxAbsDiff(scalar, naive) / scale, 1e-5);
        for (KernelIsa isa : SupportedKernelIsas()) {
            EXPECT_TRUE(
                MatMulPerGroupPackedAt(isa, a, packed).BitEquals(scalar))
                << ShapeName(isa, s) << " group=" << group;
        }
    }
}

TEST(KernelEquivalenceTest, PackedRowColAndPerGroupEqualPerCallPacking)
{
    // LLM.Int8() and K-Quant pack their weights once and reuse them for
    // every call; a held packing, after serving calls of other row counts,
    // must equal packing afresh for the call bit for bit, as must
    // LLM.Int8()'s packed float outlier term.
    Rng rng(118);
    for (const auto& s : kIsaShapes) {
        const int64_t m = s[0], k = s[1], n = s[2];
        Tensor a_q = RandomI8(rng, {m, k});
        Tensor w_q = RandomI8(rng, {k, n});
        std::vector<float> a_scales, w_scales;
        for (int64_t i = 0; i < m; ++i) {
            a_scales.push_back(0.01f + 0.002f * static_cast<float>(i));
        }
        for (int64_t j = 0; j < n; ++j) {
            w_scales.push_back(0.03f + 0.001f * static_cast<float>(j));
        }
        const PackedWeightsI8 held_q = PackWeightsI8(w_q, w_scales);
        MatMulW8A8RowColPacked(RandomI8(rng, {1, k}), {0.02f}, held_q);
        EXPECT_TRUE(MatMulW8A8RowColPacked(a_q, a_scales, held_q)
                        .BitEquals(MatMulW8A8RowColPacked(
                            a_q, a_scales, PackWeightsI8(w_q, w_scales))))
            << "m=" << m << " k=" << k << " n=" << n;
        Tensor a = RandomTensor(rng, {m, k});
        Tensor w = RandomTensor(rng, {k, n});
        const PackedWeightsF32 held = PackWeightsF32(w);
        MatMulF32Packed(RandomTensor(rng, {m + 3, k}), held);
        EXPECT_TRUE(MatMulF32Packed(a, held)
                        .BitEquals(MatMulF32Packed(a, PackWeightsF32(w))))
            << "m=" << m << " k=" << k << " n=" << n;
    }
    for (const auto& [s, group] : kGroupShapes) {
        Tensor a = RandomTensor(rng, {s[0], s[1]});
        const PerGroupWeights pg =
            QuantizePerGroup(RandomTensor(rng, {s[1], s[2]}), group);
        const PackedPerGroupWeights held = PackPerGroupWeights(pg);
        MatMulPerGroupPacked(RandomTensor(rng, {s[0] + 1, s[1]}), held);
        EXPECT_TRUE(MatMulPerGroupPacked(a, held)
                        .BitEquals(MatMulPerGroupPacked(
                            a, PackPerGroupWeights(pg))))
            << "m=" << s[0] << " k=" << s[1] << " group=" << group;
    }
}

// ------------------------------------------------------ float levels

/** Skips a float level test where the host runs one float level only. */
#define SKIP_UNLESS_TWO_FLOAT_LEVELS()                                      \
    if (FloatKernelIsa(SelectedKernelIsa()) ==                              \
        FloatKernelIsa(KernelIsa::kScalar)) {                               \
        GTEST_SKIP() << "one float level here ("                            \
                     << KernelIsaName(FloatKernelIsa(SelectedKernelIsa()))  \
                     << "): the CPU lacks AVX-512 or kernels.cc lacks FMA"; \
    }

TEST(KernelIsaTest, F32LevelsAgreeBitwise)
{
    // Every output element is one k-ascending chain of the same
    // multiply-adds at either level, fused alike at both by an optimized
    // build, so the AVX-512 kernel (16-row blocks, AVX2 below 4 rows)
    // matches the AVX2 kernel bit for bit at every row count, K, panel
    // tail and thread count.
    SKIP_UNLESS_TWO_FLOAT_LEVELS();
    Rng rng(116);
    for (int64_t m : {1, 2, 3, 5, 8, 15, 16, 17, 37, 64, 256}) {
        for (const auto& [k, n] : std::vector<std::pair<int64_t, int64_t>>{
                 {1, 16}, {7, 15}, {33, 130}, {130, 47}, {257, 33}}) {
            Tensor a = RandomTensor(rng, {m, k});
            a.At(0, k / 2) = 0.0f;
            const PackedWeightsF32 w =
                PackWeightsF32(RandomTensor(rng, {k, n}));
            Tensor ref;
            {
                ScopedNumThreads one(1);
                ref = MatMulF32PackedAt(KernelIsa::kScalar, a, w);
            }
            for (int threads : {1, 2, 4}) {
                ScopedNumThreads t(threads);
                for (KernelIsa isa : SupportedKernelIsas()) {
                    EXPECT_TRUE(MatMulF32PackedAt(isa, a, w).BitEquals(ref))
                        << ShapeName(isa, {m, k, n}) << " at " << threads
                        << " threads";
                }
            }
        }
    }
}

/** K/V history of one head in pages allocated one by one, so a read past
 *  a page's last row leaves the allocation. */
struct PagedHistory {
    std::vector<std::vector<float>> k_pages, v_pages;
    std::vector<const float*> k_ptrs, v_ptrs;
    KvHeadRows rows;

    PagedHistory(Rng& rng, int64_t positions, int64_t page_size,
                 int64_t stride)
    {
        for (int64_t p0 = 0; p0 < positions; p0 += page_size) {
            for (auto* pages : {&k_pages, &v_pages}) {
                pages->emplace_back(static_cast<size_t>(page_size * stride));
                for (float& x : pages->back()) {
                    x = static_cast<float>(rng.Normal(0.0, 1.0));
                }
            }
            k_ptrs.push_back(k_pages.back().data());
            v_ptrs.push_back(v_pages.back().data());
        }
        rows = {k_ptrs.data(), v_ptrs.data(), page_size, stride};
    }
};

TEST(KernelIsaTest, AttentionLevelsAgreeBitwise)
{
    // The AVX-512 scores reduce [a0 | a1] accumulators with the tree of
    // ReduceLanes, the softmax's exp rounds as std::exp, and the
    // accumulate keeps each element's j chain, so both levels give the
    // same bits: head_dim % 16 == 8 takes the odd-chunk path, 36 the
    // scalar tail, rows 1..9 every row block, first_pos a page boundary
    // and its neighbours, page_size 1 one-key runs. A last case scales q
    // up so that most shifted scores fall far below -88, where the AVX-512
    // exp must hand its lane to std::exp.
    SKIP_UNLESS_TWO_FLOAT_LEVELS();
    Rng rng(117);
    const auto check = [&](int head_dim, int64_t rows, int64_t first_pos,
                           int64_t page_size, double q_scale) {
        // Two heads per row, so the strides differ from head_dim.
        const int64_t stride = 2 * head_dim;
        PagedHistory kv(rng, first_pos + rows, page_size, stride);
        const Tensor q = RandomTensor(rng, {rows, stride}, q_scale);
        Tensor ref({rows, stride}, DType::kF32);
        CausalAttentionHeadAt(KernelIsa::kScalar, q.Data<float>(), stride,
                              rows, first_pos, kv.rows, head_dim,
                              ref.Data<float>(), stride);
        for (KernelIsa isa : SupportedKernelIsas()) {
            Tensor out({rows, stride}, DType::kF32);
            CausalAttentionHeadAt(isa, q.Data<float>(), stride, rows,
                                  first_pos, kv.rows, head_dim,
                                  out.Data<float>(), stride);
            bool same = true;
            for (int64_t r = 0; r < rows; ++r) {
                same = same && std::memcmp(out.Data<float>() + r * stride,
                                           ref.Data<float>() + r * stride,
                                           head_dim * sizeof(float)) == 0;
            }
            EXPECT_TRUE(same)
                << KernelIsaName(isa) << " head_dim=" << head_dim
                << " rows=" << rows << " first_pos=" << first_pos
                << " page_size=" << page_size << " q_scale=" << q_scale;
        }
    };
    for (int head_dim : {8, 24, 36, 40, 64, 80, 128, 256}) {
        for (int64_t rows : {1, 2, 3, 4, 5, 6, 7, 8, 9, 256}) {
            for (int64_t first_pos : {0, 15, 16, 17, 512}) {
                for (int64_t page_size : {1, 16}) {
                    check(head_dim, rows, first_pos, page_size, 1.0);
                }
            }
        }
    }
    check(64, 9, 512, 16, 1000.0);
}

TEST(KernelIsaTest, ExpMatchesStdExpBitwise)
{
    // The AVX-512 float level runs glibc's expf algorithm in double lanes
    // and hands |x| >= 88 and NaN to std::exp, so every level returns
    // std::exp's bits: over a strided sweep of all float bit patterns
    // (the odd stride reaches every low-bit residue) and at the edges:
    // signed zeros, denormals, both sides of the 88 cut-off, the underflow
    // to zero near -103.9, infinities and NaN. 0x4202422f and 0xc27c65d9
    // round differently unless InvLn2N * x is fused into both of its uses,
    // as glibc's build fuses it; 0x3e73ade2 is the one float whose result
    // depends on the last bit of a table entry (T[11]).
    SKIP_UNLESS_TWO_FLOAT_LEVELS();
    std::vector<uint32_t> bits = {
        0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff,
        0x807fffff, 0x00800000, 0x4202422f, 0xc27c65d9, 0x3e73ade2,
        0x7f800000, 0xff800000, 0x7fc00000, 0xffc00000, 0x7f800001};
    for (float x : {87.3f, -87.3f, -103.9f, -103.97f, 88.0f, -88.0f,
                    std::nextafter(88.0f, 0.0f), std::nextafter(-88.0f, 0.0f),
                    88.7f, 88.8f, 89.0f, -89.0f, -104.0f}) {
        uint32_t u = 0;
        std::memcpy(&u, &x, sizeof(u));
        bits.push_back(u);
    }
    constexpr uint64_t kStride = 257;
    constexpr size_t kChunk = 1 << 16;
    std::vector<float> x(kChunk), want(kChunk), got(kChunk);
    uint64_t next = 0;
    while (next < (uint64_t{1} << 32)) {
        // The first chunk starts with the edges; a chunk that is not a
        // multiple of eight long ends in the scalar tail.
        size_t n = 0;
        if (next == 0) {
            for (uint32_t u : bits) std::memcpy(&x[n++], &u, sizeof(float));
        }
        for (; n < kChunk - 3 && next < (uint64_t{1} << 32);
             ++n, next += kStride) {
            const uint32_t u = static_cast<uint32_t>(next);
            std::memcpy(&x[n], &u, sizeof(float));
        }
        for (size_t i = 0; i < n; ++i) want[i] = std::exp(x[i]);
        for (KernelIsa isa : SupportedKernelIsas()) {
            ExpF32At(isa, x.data(), static_cast<int64_t>(n), got.data());
            for (size_t i = 0; i < n; ++i) {
                if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
                    uint32_t u = 0;
                    std::memcpy(&u, &x[i], sizeof(u));
                    ADD_FAILURE() << KernelIsaName(isa) << " exp(0x"
                                  << std::hex << u << ") = " << got[i]
                                  << ", std::exp gives " << want[i];
                    return;
                }
            }
        }
    }
}

TEST(KernelIsaTest, ExactAtTheKBound)
{
    // k = kMaxPackedI8K with x = 127 against w = -128: the offset u8 sum
    // 255 * -128 * k is the most negative one int32 must hold.
    const int64_t k = kMaxPackedI8K;
    Tensor a_q({2, k}, DType::kI8);
    Tensor w_q({k, 17}, DType::kI8);
    PinExtremeRows(a_q);
    int8_t* pw = w_q.Data<int8_t>();
    for (int64_t i = 0; i < w_q.NumElements(); ++i) {
        pw[i] = i % 17 == 3 ? 127 : -128;
    }
    const std::vector<float> one = {1.0f};
    const Tensor naive = MatMulW8A8PerTensorNaive(a_q, 1.0f, w_q, one);
    EXPECT_EQ(naive.At(1, 0), 127.0f * -128.0f * static_cast<float>(k));
    const PackedWeightsI8 packed = PackWeightsI8(w_q, one);
    for (KernelIsa isa : SupportedKernelIsas()) {
        EXPECT_TRUE(MatMulW8A8PerTensorPackedAt(isa, a_q, 1.0f, packed)
                        .BitEquals(naive))
            << KernelIsaName(isa);
    }
}

TEST(KernelIsaDeathTest, PackRejectsKPastTheExactBound)
{
    Tensor w_q({kMaxPackedI8K + 1, 1}, DType::kI8);
    EXPECT_DEATH(PackWeightsI8(w_q, {1.0f}), "kMaxPackedI8K");
}

TEST(KernelDispatchTest, SelectsTheBestLevelTheCpuReports)
{
    // Asked of the CPU here, independently of the kernel's own probe, so
    // a silent fallback to a slower level fails.
    KernelIsa best = KernelIsa::kScalar;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) best = KernelIsa::kAvx2;
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vnni")) {
        best = KernelIsa::kAvx512Vnni;
    }
#endif
    EXPECT_EQ(SelectedKernelIsa(), best)
        << "selected " << KernelIsaName(SelectedKernelIsa()) << ", CPU has "
        << KernelIsaName(best);
    const std::vector<KernelIsa> levels = SupportedKernelIsas();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), KernelIsa::kScalar);
    EXPECT_EQ(levels.back(), best);
    std::printf("kernel level: int8 %s, float %s\n",
                KernelIsaName(SelectedKernelIsa()),
                KernelIsaName(FloatKernelIsa(SelectedKernelIsa())));
}

TEST(KernelDispatchTest, Avx512FloatLevelOnlyWhereKernelsHaveFma)
{
    // Without FMA the compiled float code rounds every product, so FMA
    // chains would change the bits: a portable build (LLMNPU_KERNEL_SIMD
    // OFF) must run its own float code at every level. The witness is a
    // test file built with the kernels' flags.
    const bool avx512 = SelectedKernelIsa() == KernelIsa::kAvx512Vnni;
    EXPECT_EQ(FloatKernelIsa(SelectedKernelIsa()) == KernelIsa::kAvx512Vnni,
              avx512 && KernelFlagsHaveFma());
    for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
        EXPECT_NE(FloatKernelIsa(isa), KernelIsa::kAvx512Vnni)
            << KernelIsaName(isa);
    }
    if (!KernelFlagsHaveFma()) {
        EXPECT_EQ(FloatKernelIsa(KernelIsa::kAvx512Vnni),
                  FloatKernelIsa(KernelIsa::kScalar));
    }
}

TEST(QuantizePerTensorI8Test, BitwiseEqualsScalarExpression)
{
    const float inv = 1.0f;
    std::vector<float> values = {
        0.5f,     1.5f,    2.5f,    -0.5f,    -1.5f,   -2.5f,  126.5f,
        -126.5f,  127.49f, 127.5f,  -127.5f,  128.0f,  -128.0f, 1e6f,
        -1e6f,    0.0f,    -0.0f,   1e-40f,   -1e-40f,
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::nextafter(0.5f, 1.0f), std::nextafter(0.5f, 0.0f)};
    // Enough elements for the pool split, a length that is not a multiple
    // of 8, and random values around the clip.
    Rng rng(114);
    while (values.size() < 70001) {
        values.push_back(static_cast<float>(rng.Uniform(-140.0, 140.0)));
    }
    for (float scale : {1.0f, 0.37f, 3.0e38f}) {
        Tensor x({1, static_cast<int64_t>(values.size())}, DType::kF32);
        std::memcpy(x.Data<float>(), values.data(),
                    values.size() * sizeof(float));
        for (int threads : {1, 4}) {
            ScopedNumThreads t(threads);
            const Tensor q = QuantizePerTensorI8(x, inv * scale);
            for (size_t i = 0; i < values.size(); ++i) {
                const int8_t want = static_cast<int8_t>(std::clamp(
                    std::nearbyint(values[i] * (inv * scale)), -127.0f,
                    127.0f));
                ASSERT_EQ(q.Data<int8_t>()[i], want)
                    << "x=" << values[i] << " inv=" << inv * scale
                    << " threads=" << threads;
            }
        }
    }
}

// ---------------------------------------------------------- thread pool

TEST(ThreadPoolTest, CoversRangeExactlyOnce)
{
    ScopedNumThreads four(4);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> blocks;
    ThreadPool::Global().ParallelFor(1000, 1, [&](int64_t b, int64_t e) {
        std::lock_guard<std::mutex> lock(mu);
        blocks.emplace_back(b, e);
    });
    std::vector<int> hits(1000, 0);
    for (const auto& [b, e] : blocks) {
        ASSERT_LE(0, b);
        ASSERT_LE(b, e);
        ASSERT_LE(e, 1000);
        for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
    }
    for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, SmallRangeRunsInline)
{
    ScopedNumThreads four(4);
    int calls = 0;
    // 5 items at grain 4 -> one block -> must run inline on the caller.
    ThreadPool::Global().ParallelFor(5, 4, [&](int64_t b, int64_t e) {
        ++calls;
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 5);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, EmptyRangeNeverCalls)
{
    std::atomic<int> calls{0};
    ThreadPool::Global().ParallelFor(0, 1, [&](int64_t, int64_t) {
        ++calls;
    });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline)
{
    ScopedNumThreads four(4);
    std::atomic<int64_t> total{0};
    ThreadPool::Global().ParallelFor(64, 1, [&](int64_t b, int64_t e) {
        // The nested region must execute inline (no deadlock, full range).
        ThreadPool::Global().ParallelFor(e - b, 1,
                                         [&](int64_t ib, int64_t ie) {
                                             total += ie - ib;
                                         });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, RequestedThreadsHonorsEnv)
{
    {
        ScopedNumThreads two(2);
        EXPECT_EQ(ThreadPool::RequestedThreads(), 2);
    }
    {
        ScopedNumThreads huge(9999);
        EXPECT_EQ(ThreadPool::RequestedThreads(), ThreadPool::kMaxThreads);
    }
}

TEST(ThreadPoolTest, ConsecutiveJobsReuseWorkers)
{
    ScopedNumThreads four(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int64_t> total{0};
        ThreadPool::Global().ParallelFor(128, 1, [&](int64_t b, int64_t e) {
            total += e - b;
        });
        ASSERT_EQ(total.load(), 128);
    }
    EXPECT_LE(ThreadPool::Global().NumWorkers(), ThreadPool::kMaxThreads);
}

}  // namespace
}  // namespace llmnpu
