/**
 * @file
 * Matrix multiplication kernels: fp32 reference, per-tensor W8A8 (the
 * NPU-friendly form), and per-group W8A8 (the form that forces sub-tensor
 * splits plus float reduction on NPUs, Figure 3(b)).
 *
 * Two implementations exist for every kernel:
 *
 *  - The public entry points (MatMulF32Packed, MatMulW8A8PerTensorPacked,
 *    ...) are cache-blocked, register-tiled and multi-threaded
 *    (src/tensor/kernels.cc). They take weights packed once, at load, into
 *    panel-major layout (kPanelWidth output columns per panel) so the
 *    micro-kernel streams both operands. Work is split over the shared
 *    ThreadPool (LLMNPU_NUM_THREADS) by rows, or by panels when there are
 *    too few rows to go round (a decode matvec would otherwise run on one
 *    thread).
 *  - The *Naive triple-loop variants are the original reference kernels.
 *    They define the semantics, serve as the equivalence oracle in
 *    tests/kernels_test.cc, and are what bench_kernels reports speedups
 *    against.
 *
 * INT8 layout and ISA levels. PackWeightsI8 interleaves K in quads: each
 * 64-byte block of a panel holds kPanelWidth columns x kQuad consecutive
 * k, column-major inside the block (byte 4*j + t is w[4q + t][j]), and K
 * is zero-padded to a whole quad. The INT8 micro-kernel exists at three
 * levels, chosen once at start-up from the host CPU (kernel_isa.h):
 *
 *  - AVX-512-VNNI: one `vpdpbusd` per quad and row multiplies 64 u8 x s8
 *    pairs into 16 int32 sums. The activations enter as u8, x + 128 (x ^
 *    0x80), and the kernel subtracts 128 * sum_k w[k][j] per column, from
 *    the column sums packed next to the panels, so the result is the
 *    signed product. Only the non-saturating form is used.
 *  - AVX2: int8 widened to int16 and multiplied with `vpmaddwd`, which
 *    adds the two products of a k pair without saturation; the pair
 *    partials of a column are added once, after the K loop.
 *  - portable scalar.
 *
 * Exactness: |x + 128| <= 255 and |w| <= 128, so with K <= kMaxPackedI8K
 * (65792 = floor((2^31 - 1) / (255 * 128))) even the offset u8 sum stays
 * inside int32; PackWeightsI8 CHECKs the bound. Every level therefore
 * produces the exact int32 dot product, equal to the naive kernel's.
 *
 * The f32 kernel has the level kernels.cc is compiled for (4 rows x 16
 * columns of AVX2 accumulators, or 1 row x 4 panels for a matvec) and,
 * where that build has FMA, an AVX-512 level: up to 16 rows x one panel in
 * zmm accumulators, so an m = 16 decode step reads each weight panel once.
 * Rows left over in blocks of fewer than 4, a matvec among them, keep the
 * AVX2 kernel.
 *
 * Determinism: every kernel computes each output element on one thread
 * with a fixed K-ascending accumulation order that does not depend on the
 * thread count, the row/panel partition or the ISA level. The INT8 kernels
 * (exact int32 accumulation, scale multiplies only) are bitwise equal to
 * their naive oracles; the f32 kernels are bitwise deterministic across
 * thread counts and levels (each element is one fixed chain), so
 * chunked prefill stays bit-comparable.
 */
#ifndef LLMNPU_TENSOR_MATMUL_H
#define LLMNPU_TENSOR_MATMUL_H

#include "src/tensor/quantize.h"
#include "src/tensor/tensor.h"

namespace llmnpu {

/** Output columns per packed panel; K rows of a panel are contiguous. */
constexpr int kPanelWidth = 16;

/**
 * An f32 weight matrix [K x N] re-laid out panel-major for the tiled
 * kernels: panel p holds columns [p*kPanelWidth, (p+1)*kPanelWidth) with
 * the K dimension contiguous inside the panel; the last panel is
 * zero-padded to kPanelWidth. Pack once at load, reuse every forward.
 */
struct PackedWeightsF32 {
    int64_t k = 0;
    int64_t n = 0;
    std::vector<float> data;  ///< [ceil(n/kPanelWidth) * k * kPanelWidth]

    bool Empty() const { return data.empty(); }
};

/** Packs a [K x N] f32 weight matrix into panel-major layout. */
PackedWeightsF32 PackWeightsF32(const Tensor& w);

/** The [K x N] row-major matrix PackWeightsF32 packed, bit for bit. */
Tensor UnpackWeightsF32(const PackedWeightsF32& w);

/**
 * Packs the transpose of a [N x K] f32 matrix (e.g. a tied embedding used
 * as lm_head) into the panel-major layout of the implied [K x N] matrix,
 * without materializing the transpose.
 */
PackedWeightsF32 PackWeightsF32Transposed(const Tensor& w);

/** Consecutive k per packed INT8 block: one 32-bit lane per column. */
constexpr int kQuad = 4;

/** Largest K whose offset u8 x s8 sums stay exact in int32 (see above). */
constexpr int64_t kMaxPackedI8K = 65792;

/**
 * k-quad-interleaved packed INT8 weights plus their per-column (or
 * uniform) dequantization scales. Block q of panel p (64 bytes at
 * ((p * Quads() + q) * kPanelWidth * kQuad)) holds w[4q + t][16p + j] at
 * byte 4j + t; padding columns and k are zero.
 */
struct PackedWeightsI8 {
    int64_t k = 0;
    int64_t n = 0;
    std::vector<int8_t> data;      ///< [panels * Quads() * 64]
    std::vector<int32_t> col_sums; ///< [panels * kPanelWidth], sum_k w[k][j]
    std::vector<float> scales;     ///< size 1 (uniform) or N (per column)

    int64_t Quads() const { return (k + kQuad - 1) / kQuad; }
    bool Empty() const { return data.empty(); }
};

/** Packs per-column-quantized weights [K x N] (K <= kMaxPackedI8K) into
 *  the k-quad layout, with their column sums, in one pass. */
PackedWeightsI8 PackWeightsI8(const Tensor& w_q, std::vector<float> scales);

/**
 * Per-group weights (PerGroupWeights) re-laid out for the tiled per-group
 * kernel: the INT8 panels with a uniform scale of 1, the column sums of
 * each group (the VNNI level's offset terms) and the group scales. Pack
 * once at load, reuse every forward.
 */
struct PackedPerGroupWeights {
    PackedWeightsI8 q;
    std::vector<int32_t> group_sums;  ///< [num_groups * panels * kPanelWidth]
    std::vector<float> scales;        ///< [num_groups * N], scale of (g, n)
    int group_size = 0;
    int num_groups = 0;

    float GroupScale(int g, int64_t n) const
    {
        return scales[static_cast<size_t>(g) * static_cast<size_t>(q.n) +
                      static_cast<size_t>(n)];
    }
};

/** Packs per-group weights, their group column sums included. */
PackedPerGroupWeights PackPerGroupWeights(const PerGroupWeights& w);

/** C = A @ W with A [M x K] f32 and W [K x N] f32, packed by
 *  PackWeightsF32 (tiled + threaded). */
Tensor MatMulF32Packed(const Tensor& a, const PackedWeightsF32& w);

/** Reference triple-loop f32 matmul (equivalence oracle / bench baseline). */
Tensor MatMulF32Naive(const Tensor& a, const Tensor& b);

/**
 * Per-tensor-activation W8A8 matmul: C = (A_q @ W_q) * a_scale * w_scale[n],
 * against weights packed by PackWeightsI8.
 *
 * INT32 accumulation over the full K dimension, one dequantization at the
 * end — exactly the MatMul shape mobile NPUs accelerate (Figure 3(a)).
 * Weight scales may be uniform (size 1) or per output channel (size N);
 * per-output-channel dequantization is a post-accumulation column multiply
 * and therefore equally NPU-friendly (supported by QNN).
 *
 * Bitwise identical to the *Naive variant at any thread count.
 */
Tensor MatMulW8A8PerTensorPacked(const Tensor& a_q, float a_scale,
                                 const PackedWeightsI8& w);

/** Reference triple-loop W8A8 per-tensor matmul. */
Tensor MatMulW8A8PerTensorNaive(const Tensor& a_q, float a_scale,
                                const Tensor& w_q,
                                const std::vector<float>& w_scales);

/**
 * Vector-wise W8A8 matmul (LLM.Int8()-style): per-row activation scales and
 * per-column weight scales, C[m, n] = acc * a_scales[m] * w_scales[n],
 * against weights packed by PackWeightsI8 with per-column scales.
 */
Tensor MatMulW8A8RowColPacked(const Tensor& a_q,
                              const std::vector<float>& a_scales,
                              const PackedWeightsI8& w);

/** Reference triple-loop vector-wise W8A8 matmul. */
Tensor MatMulW8A8RowColNaive(const Tensor& a_q,
                             const std::vector<float>& a_scales,
                             const Tensor& w_q,
                             const std::vector<float>& w_scales);

/**
 * Per-group W8A8 matmul (Figure 3(b)), against weights packed by
 * PackPerGroupWeights.
 *
 * Activations are quantized per (row, group) on the fly; each group's INT32
 * partial product is dequantized and accumulated in float, modeling the
 * "sub-tensor MatMuls + float sum" execution the paper identifies as the
 * NPU-hostile pattern.
 *
 * @param a f32 activations [M x K].
 * @param w packed per-group quantized weights [K x N].
 */
Tensor MatMulPerGroupPacked(const Tensor& a, const PackedPerGroupWeights& w);

/** Reference per-group W8A8 matmul. */
Tensor MatMulPerGroupNaive(const Tensor& a, const PerGroupWeights& w);

/**
 * fp32 matmul restricted to a subset of K rows of packed INT8 weights:
 * C = A_sub @ W_deq[rows, :], where A_sub is [M x |rows|] and
 * W_deq[k][j] = float(q[k][j]) * scale[j] (uniform or per column; the
 * expression of DequantizePerColumn).
 *
 * This is the compact-tensor CPU kernel used by shadow outlier execution:
 * the extracted outlier channels form A_sub and `rows` are the matching
 * weight rows. Only those rows are dequantized, once per call, from the
 * INT8 panels; no float copy of W is held. Row indices are validated once
 * up front, outside the hot loop. Each output is a k-ascending chain over
 * the subset that skips zero activations.
 */
Tensor MatMulRowSubset(const Tensor& a_sub, const PackedWeightsI8& w,
                       const std::vector<int>& rows);

}  // namespace llmnpu

#endif  // LLMNPU_TENSOR_MATMUL_H
