/**
 * @file
 * Unit and property tests for the tensor substrate: storage semantics,
 * matmul kernels (fp32, W8A8 per-tensor/vector-wise/per-group, row-subset),
 * and quantization primitives.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "src/tensor/matmul.h"
#include "src/tensor/ops.h"
#include "src/tensor/quantize.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "tests/support/random.h"

namespace llmnpu {
namespace {

TEST(TensorTest, ZerosShapeAndContent)
{
    Tensor t = Tensor::Zeros({2, 3});
    EXPECT_EQ(t.Rank(), 2);
    EXPECT_EQ(t.NumElements(), 6);
    EXPECT_EQ(t.SizeBytes(), 24u);
    for (int64_t r = 0; r < 2; ++r) {
        for (int64_t c = 0; c < 3; ++c) EXPECT_EQ(t.At(r, c), 0.0f);
    }
}

TEST(TensorTest, FullAndFromValues)
{
    Tensor f = Tensor::Full({2, 2}, 1.5f);
    EXPECT_EQ(f.At(1, 1), 1.5f);
    Tensor v = Tensor::FromValues({2, 2}, {1, 2, 3, 4});
    EXPECT_EQ(v.At(0, 1), 2.0f);
    EXPECT_EQ(v.At(1, 0), 3.0f);
}

TEST(TensorTest, NegativeDimIndexing)
{
    Tensor t = Tensor::Zeros({4, 7});
    EXPECT_EQ(t.Dim(-1), 7);
    EXPECT_EQ(t.Dim(-2), 4);
}

TEST(TensorTest, CopyRowsExtractsExactRows)
{
    Tensor t = Tensor::FromValues({3, 2}, {1, 2, 3, 4, 5, 6});
    Tensor mid = t.CopyRows(1, 2);
    EXPECT_EQ(mid.Rows(), 2);
    EXPECT_EQ(mid.At(0, 0), 3.0f);
    EXPECT_EQ(mid.At(1, 1), 6.0f);
}

TEST(TensorTest, ReshapePreservesBytes)
{
    Tensor t = Tensor::FromValues({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor r = t.Reshape({3, 2});
    EXPECT_EQ(r.At(2, 1), 6.0f);
    EXPECT_TRUE(t.Reshape({6, 1}).BitEquals(r.Reshape({6, 1})));
}

TEST(TensorTest, MaxAbsDiffAndMse)
{
    Tensor a = Tensor::FromValues({1, 3}, {1, 2, 3});
    Tensor b = Tensor::FromValues({1, 3}, {1, 2.5, 1});
    EXPECT_DOUBLE_EQ(MaxAbsDiff(a, b), 2.0);
    EXPECT_NEAR(MeanSquaredError(a, b), (0.25 + 4.0) / 3.0, 1e-6);
}

TEST(MatMulTest, F32KnownResult)
{
    Tensor a = Tensor::FromValues({2, 2}, {1, 2, 3, 4});
    Tensor b = Tensor::FromValues({2, 2}, {5, 6, 7, 8});
    Tensor c = MatMulF32Packed(a, PackWeightsF32(b));
    EXPECT_FLOAT_EQ(c.At(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.At(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c.At(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c.At(1, 1), 50.0f);
}

TEST(MatMulTest, F32IdentityIsNoOp)
{
    Rng rng(11);
    Tensor a = RandomTensor(rng, {3, 4});
    Tensor eye = Tensor::Zeros({4, 4});
    for (int64_t i = 0; i < 4; ++i) eye.At(i, i) = 1.0f;
    Tensor c = MatMulF32Packed(a, PackWeightsF32(eye));
    EXPECT_LT(MaxAbsDiff(a, c), 1e-6);
}

TEST(QuantizeTest, SymmetricRoundTripSmallError)
{
    Rng rng(12);
    Tensor x = RandomTensor(rng, {8, 16});
    const QuantParams params = ComputeSymmetricScale(x);
    Tensor x_q = QuantizeSymmetric(x, params);
    Tensor x_deq = Dequantize(x_q, params);
    // Round-trip error bounded by half a quantization step.
    EXPECT_LE(MaxAbsDiff(x, x_deq), params.scale * 0.5 + 1e-7);
}

TEST(QuantizeTest, ScaleMapsAbsMaxTo127)
{
    Tensor x = Tensor::FromValues({1, 3}, {-2.54f, 1.0f, 0.5f});
    const QuantParams params = ComputeSymmetricScale(x);
    EXPECT_NEAR(params.scale, 2.54f / 127.0f, 1e-6);
    Tensor q = QuantizeSymmetric(x, params);
    EXPECT_EQ(q.Data<int8_t>()[0], -127);
}

TEST(QuantizeTest, OutlierSaturatesWithForeignScale)
{
    // A value far beyond the scale clamps to 127 — the clipped tail that
    // Equation 1's shadow path recovers.
    Tensor x = Tensor::FromValues({1, 2}, {100.0f, 0.5f});
    QuantParams params{1.0f / 127.0f};
    Tensor q = QuantizeSymmetric(x, params);
    EXPECT_EQ(q.Data<int8_t>()[0], 127);
}

TEST(QuantizeTest, PerColumnScalesIsolateColumns)
{
    // Column 1 is 100x larger; per-column quantization keeps column 0 at
    // full resolution.
    Tensor w = Tensor::FromValues({2, 2}, {1.0f, 100.0f, -1.0f, -100.0f});
    PerColumnWeights pc = QuantizePerColumn(w);
    EXPECT_NEAR(pc.scales[0], 1.0f / 127.0f, 1e-6);
    EXPECT_NEAR(pc.scales[1], 100.0f / 127.0f, 1e-4);
    Tensor deq = DequantizePerColumn(pc);
    EXPECT_LT(MaxAbsDiff(w, deq), 0.5f);
    EXPECT_NEAR(deq.At(0, 0), 1.0f, 0.01);
}

TEST(QuantizeTest, PerGroupMatchesGroupCount)
{
    Rng rng(13);
    Tensor w = RandomTensor(rng, {64, 8});
    PerGroupWeights pg = QuantizePerGroup(w, 16);
    EXPECT_EQ(pg.num_groups, 4);
    EXPECT_EQ(pg.scales.size(), 4u * 8u);
    Tensor deq = DequantizePerGroup(pg);
    // Per-group error is bounded by half a step of each group's scale.
    float max_scale = 0.0f;
    for (float s : pg.scales) max_scale = std::max(max_scale, s);
    EXPECT_LE(MaxAbsDiff(w, deq), max_scale * 0.5 + 1e-7);
}

TEST(QuantizeTest, PerGroupBeatsPerTensorUnderRowOutliers)
{
    // One huge row (input channel) wrecks a whole-tensor scale but only
    // one group's scale.
    Rng rng(14);
    Tensor w = RandomTensor(rng, {64, 8});
    for (int64_t c = 0; c < 8; ++c) w.At(0, c) *= 200.0f;

    const QuantParams pt = ComputeSymmetricScale(w);
    Tensor pt_deq = Dequantize(QuantizeSymmetric(w, pt), pt);
    PerGroupWeights pg = QuantizePerGroup(w, 16);
    Tensor pg_deq = DequantizePerGroup(pg);

    // Compare error on the non-outlier region.
    double pt_err = 0.0, pg_err = 0.0;
    for (int64_t r = 16; r < 64; ++r) {
        for (int64_t c = 0; c < 8; ++c) {
            pt_err += std::abs(w.At(r, c) - pt_deq.At(r, c));
            pg_err += std::abs(w.At(r, c) - pg_deq.At(r, c));
        }
    }
    EXPECT_LT(pg_err * 10.0, pt_err);
}

TEST(MatMulTest, W8A8PerTensorMatchesDequantizedFloat)
{
    Rng rng(15);
    Tensor a = RandomTensor(rng, {4, 32});
    Tensor w = RandomTensor(rng, {32, 8});
    const QuantParams a_params = ComputeSymmetricScale(a);
    PerColumnWeights wq = QuantizePerColumn(w);

    Tensor a_q = QuantizeSymmetric(a, a_params);
    Tensor y_int = MatMulW8A8PerTensorPacked(a_q, a_params.scale,
                                             PackWeightsI8(wq.q, wq.scales));
    Tensor y_ref = MatMulF32Naive(Dequantize(a_q, a_params),
                                  DequantizePerColumn(wq));
    // INT32 accumulation then dequantize == float matmul of dequantized
    // operands (up to float rounding).
    EXPECT_LT(MaxAbsDiff(y_int, y_ref), 1e-3);
}

TEST(MatMulTest, W8A8UniformScaleOverloadAgrees)
{
    Rng rng(16);
    Tensor a = RandomTensor(rng, {2, 16});
    Tensor w = RandomTensor(rng, {16, 4});
    const QuantParams a_params = ComputeSymmetricScale(a);
    const QuantParams w_params = ComputeSymmetricScale(w);
    Tensor a_q = QuantizeSymmetric(a, a_params);
    Tensor w_q = QuantizeSymmetric(w, w_params);
    Tensor y1 = MatMulW8A8PerTensorPacked(
        a_q, a_params.scale, PackWeightsI8(w_q, {w_params.scale}));
    Tensor y2 = MatMulW8A8PerTensorPacked(
        a_q, a_params.scale,
        PackWeightsI8(w_q, std::vector<float>(4, w_params.scale)));
    EXPECT_LT(MaxAbsDiff(y1, y2), 1e-6);
}

TEST(MatMulTest, W8A8RowColMatchesReference)
{
    Rng rng(17);
    Tensor a = RandomTensor(rng, {3, 16});
    Tensor w = RandomTensor(rng, {16, 5});
    // Per-row activation quantization.
    std::vector<float> row_scales;
    Tensor a_q(a.shape(), DType::kI8);
    for (int64_t r = 0; r < 3; ++r) {
        Tensor row = a.CopyRows(r, 1);
        const QuantParams p = ComputeSymmetricScale(row);
        row_scales.push_back(p.scale);
        Tensor row_q = QuantizeSymmetric(row, p);
        for (int64_t c = 0; c < 16; ++c) {
            a_q.Data<int8_t>()[r * 16 + c] = row_q.Data<int8_t>()[c];
        }
    }
    PerColumnWeights wq = QuantizePerColumn(w);
    Tensor y = MatMulW8A8RowColPacked(a_q, row_scales,
                                      PackWeightsI8(wq.q, wq.scales));
    Tensor y_ref = MatMulF32Naive(a, w);
    // Quantization error only: bounded well below signal magnitude.
    EXPECT_LT(MaxAbsDiff(y, y_ref), 0.2);
}

TEST(MatMulTest, PerGroupCloseToFloatReference)
{
    Rng rng(18);
    Tensor a = RandomTensor(rng, {4, 64});
    Tensor w = RandomTensor(rng, {64, 8});
    PerGroupWeights pg = QuantizePerGroup(w, 16);
    Tensor y = MatMulPerGroupPacked(a, PackPerGroupWeights(pg));
    Tensor y_ref = MatMulF32Naive(a, w);
    EXPECT_LT(MaxAbsDiff(y, y_ref), 0.25);
}

TEST(MatMulTest, PerGroupHandlesActivationOutliers)
{
    // A single outlier channel only corrupts its own group.
    Rng rng(19);
    Tensor a = RandomTensor(rng, {2, 64});
    a.At(0, 3) = 500.0f;
    Tensor w = RandomTensor(rng, {64, 8});
    PerGroupWeights pg = QuantizePerGroup(w, 16);
    Tensor y = MatMulPerGroupPacked(a, PackPerGroupWeights(pg));
    Tensor y_ref = MatMulF32Naive(a, w);
    EXPECT_LT(MaxAbsDiff(y, y_ref) / AbsMax(y_ref), 0.05);
}

TEST(MatMulTest, RowSubsetEqualsMaskedMatMul)
{
    Rng rng(20);
    Tensor a = RandomTensor(rng, {3, 10});
    const PerColumnWeights w = QuantizePerColumn(RandomTensor(rng, {10, 6}));
    const std::vector<int> rows = {2, 5, 7};
    // Compact activation = the selected columns of a.
    Tensor a_sub({3, 3}, DType::kF32);
    for (int64_t r = 0; r < 3; ++r) {
        for (size_t i = 0; i < rows.size(); ++i) {
            a_sub.At(r, static_cast<int64_t>(i)) = a.At(r, rows[i]);
        }
    }
    Tensor y = MatMulRowSubset(a_sub, PackWeightsI8(w.q, w.scales), rows);
    // Reference: zero out all other channels.
    Tensor a_masked = Tensor::Zeros({3, 10});
    for (int64_t r = 0; r < 3; ++r) {
        for (int row : rows) a_masked.At(r, row) = a.At(r, row);
    }
    Tensor y_ref = MatMulF32Naive(a_masked, DequantizePerColumn(w));
    EXPECT_LT(MaxAbsDiff(y, y_ref), 1e-5);
}

/** Property sweep: W8A8 per-tensor error scales with the activation range. */
class QuantErrorSweep : public ::testing::TestWithParam<int64_t>
{};

TEST_P(QuantErrorSweep, RelativeErrorBounded)
{
    const int64_t k = GetParam();
    Rng rng(static_cast<uint64_t>(k) * 31 + 7);
    Tensor a = RandomTensor(rng, {4, k});
    Tensor w = RandomTensor(rng, {k, 16}, 1.0 / std::sqrt(
                                              static_cast<double>(k)));
    const QuantParams ap = ComputeSymmetricScale(a);
    PerColumnWeights wq = QuantizePerColumn(w);
    Tensor y = MatMulW8A8PerTensorPacked(QuantizeSymmetric(a, ap), ap.scale,
                                         PackWeightsI8(wq.q, wq.scales));
    Tensor y_ref = MatMulF32Naive(a, w);
    const double rel = MaxAbsDiff(y, y_ref) /
                       std::max(1e-9f, AbsMax(y_ref));
    EXPECT_LT(rel, 0.08) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantErrorSweep,
                         ::testing::Values(16, 32, 64, 128, 256, 512));

}  // namespace
}  // namespace llmnpu
