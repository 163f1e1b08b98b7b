/**
 * @file
 * Tiled, multi-threaded numeric-plane kernels (the public MatMul* entry
 * points declared in matmul.h).
 *
 * Structure, for every kernel:
 *
 *  - Weights are packed panel-major (PackWeights*): kPanelWidth output
 *    columns per panel with the K dimension contiguous, so the inner loop
 *    streams one cache line of B per K step regardless of N.
 *  - A register-tiled micro-kernel computes a kMR x kPanelWidth block of C
 *    with all accumulators in registers: unlike the naive saxpy form there
 *    are no loads/stores of C inside the K loop.
 *  - Row blocks are distributed over the shared ThreadPool; each output row
 *    is computed entirely by one thread with a fixed K-ascending
 *    accumulation order, so results do not depend on the thread count
 *    (bitwise for the INT8 kernels).
 *
 * The attention inner loops (CausalAttentionHead, attention_kernel.h) live
 * here too, so the dense and paged attention paths share one vectorized
 * implementation.
 *
 * This file may be compiled with target SIMD flags (see LLMNPU_KERNEL_SIMD
 * in CMakeLists.txt); the reference kernels in matmul.cc keep the portable
 * default flags and serve as the equivalence oracle.
 */
#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "src/obs/trace.h"
#include "src/tensor/attention_kernel.h"
#include "src/tensor/matmul.h"
#include "src/util/threadpool.h"

namespace llmnpu {

namespace {

/** Rows per micro-kernel invocation. 4 x kPanelWidth f32 accumulators fill
 *  eight 256-bit registers — the sweet spot for FMA auto-vectorization. */
constexpr int kMR = 4;

#if defined(__GNUC__) || defined(__clang__)
#define LLMNPU_VECTOR_EXT 1
/**
 * Half a packed panel row as one vector value (GCC/Clang vector
 * extensions, 8 lanes = one 256-bit register on AVX2). Each micro-kernel
 * handles a panel row as a lo/hi pair, so a kMR-row block keeps its
 * 2*kMR accumulators in registers for the whole K loop — the plain
 * auto-vectorizer instead SLP-vectorizes at 128 bits and spills every
 * accumulator to the stack (measured ~5x slower).
 *
 * aligned attribute: panels live in std::vector storage with no 32-byte
 * guarantee; loads/stores must not assume vector alignment. may_alias:
 * the vector loads/stores reinterpret float storage, which would
 * otherwise be undefined under strict aliasing.
 */
typedef float VecF32x8
    __attribute__((vector_size(32), aligned(4), may_alias));
static_assert(2 * sizeof(VecF32x8) == kPanelWidth * sizeof(float),
              "two vector halves must span the panel width");
#endif

/** Below this many multiply-accumulates, threading overhead dominates. */
constexpr int64_t kParallelFlopCutoff = 64 * 1024;

/** Splits rows [0, m) over the pool when the matmul is big enough. */
template <typename Fn>
void
RowParallel(int64_t m, int64_t work_per_row, const Fn& fn)
{
    if (m <= 0) return;
    if (m * work_per_row < kParallelFlopCutoff) {
        fn(static_cast<int64_t>(0), m);
        return;
    }
    ThreadPool::Global().ParallelFor(m, 1, fn);
}

int64_t
NumPanels(int64_t n)
{
    return (n + kPanelWidth - 1) / kPanelWidth;
}

/**
 * MR x kPanelWidth f32 micro-kernel over one packed panel.
 *
 * Accumulators live in registers for the whole K loop; the single store at
 * the end fully overwrites the C block (callers hand out uninitialized C).
 */
template <int MR>
void
MicroKernelF32(const float* __restrict a, int64_t lda,
               const float* __restrict bp, int64_t k, float* __restrict c,
               int64_t ldc, int64_t ncols)
{
#ifdef LLMNPU_VECTOR_EXT
    VecF32x8 acc_lo[MR] = {};
    VecF32x8 acc_hi[MR] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
        const float* brow = bp + kk * kPanelWidth;
        const VecF32x8 b_lo = *reinterpret_cast<const VecF32x8*>(brow);
        const VecF32x8 b_hi = *reinterpret_cast<const VecF32x8*>(brow + 8);
        for (int r = 0; r < MR; ++r) {
            const float av = a[r * lda + kk];
            acc_lo[r] += av * b_lo;
            acc_hi[r] += av * b_hi;
        }
    }
    if (ncols == kPanelWidth) {
        for (int r = 0; r < MR; ++r) {
            *reinterpret_cast<VecF32x8*>(c + r * ldc) = acc_lo[r];
            *reinterpret_cast<VecF32x8*>(c + r * ldc + 8) = acc_hi[r];
        }
    } else {
        for (int r = 0; r < MR; ++r) {
            for (int64_t j = 0; j < ncols; ++j) {
                c[r * ldc + j] =
                    j < 8 ? acc_lo[r][j] : acc_hi[r][j - 8];
            }
        }
    }
#else
    float acc[MR][kPanelWidth] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
        const float* __restrict brow = bp + kk * kPanelWidth;
        for (int r = 0; r < MR; ++r) {
            const float av = a[r * lda + kk];
            for (int j = 0; j < kPanelWidth; ++j) {
                acc[r][j] += av * brow[j];
            }
        }
    }
    for (int r = 0; r < MR; ++r) {
        for (int64_t j = 0; j < ncols; ++j) c[r * ldc + j] = acc[r][j];
    }
#endif
}

/** Runs the f32 micro-kernel over rows [r0, r1) of A for every panel. The
 *  panel loop is outermost so the packed panel stays cache-hot across row
 *  blocks. */
void
TiledF32Rows(const float* a, int64_t lda, const PackedWeightsF32& w,
             float* c, int64_t r0, int64_t r1)
{
    const int64_t k = w.k, n = w.n;
    const int64_t panels = NumPanels(n);
    for (int64_t p = 0; p < panels; ++p) {
        const float* bp = w.data.data() + p * k * kPanelWidth;
        const int64_t j0 = p * kPanelWidth;
        const int64_t ncols = std::min<int64_t>(kPanelWidth, n - j0);
        int64_t r = r0;
        for (; r + kMR <= r1; r += kMR) {
            MicroKernelF32<kMR>(a + r * lda, lda, bp, k, c + r * n + j0, n,
                                ncols);
        }
        switch (r1 - r) {
          case 3:
            MicroKernelF32<3>(a + r * lda, lda, bp, k, c + r * n + j0, n,
                              ncols);
            break;
          case 2:
            MicroKernelF32<2>(a + r * lda, lda, bp, k, c + r * n + j0, n,
                              ncols);
            break;
          case 1:
            MicroKernelF32<1>(a + r * lda, lda, bp, k, c + r * n + j0, n,
                              ncols);
            break;
          default: break;
        }
    }
}

/** MR x kPanelWidth INT8 micro-kernel: INT32 accumulation over one packed
 *  panel; the caller applies the dequantization scales. */
template <int MR>
void
MicroKernelI8(const int8_t* __restrict a, int64_t lda,
              const int8_t* __restrict bp, int64_t k0, int64_t k1,
              int32_t* __restrict acc /* [MR * kPanelWidth] */)
{
#if defined(__AVX2__)
    // Intrinsics rather than generic vectors: GCC scalarizes the
    // int8 -> int32 widening of 8-byte vector loads (one movsbl+pinsrd per
    // lane), where vpmovsxbd does the whole half-panel in one instruction.
    __m256i acc_lo[MR], acc_hi[MR];
    for (int r = 0; r < MR; ++r) {
        acc_lo[r] = _mm256_setzero_si256();
        acc_hi[r] = _mm256_setzero_si256();
    }
    for (int64_t kk = k0; kk < k1; ++kk) {
        const __m128i raw = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(bp + kk * kPanelWidth));
        const __m256i b_lo = _mm256_cvtepi8_epi32(raw);
        const __m256i b_hi =
            _mm256_cvtepi8_epi32(_mm_unpackhi_epi64(raw, raw));
        for (int r = 0; r < MR; ++r) {
            const __m256i av = _mm256_set1_epi32(a[r * lda + kk]);
            acc_lo[r] = _mm256_add_epi32(acc_lo[r],
                                         _mm256_mullo_epi32(av, b_lo));
            acc_hi[r] = _mm256_add_epi32(acc_hi[r],
                                         _mm256_mullo_epi32(av, b_hi));
        }
    }
    for (int r = 0; r < MR; ++r) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(acc + r * kPanelWidth), acc_lo[r]);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(acc + r * kPanelWidth + 8),
            acc_hi[r]);
    }
#else
    for (int i = 0; i < MR * kPanelWidth; ++i) acc[i] = 0;
    for (int64_t kk = k0; kk < k1; ++kk) {
        const int8_t* __restrict brow = bp + kk * kPanelWidth;
        for (int r = 0; r < MR; ++r) {
            const int32_t av = a[r * lda + kk];
            for (int j = 0; j < kPanelWidth; ++j) {
                acc[r * kPanelWidth + j] += av * brow[j];
            }
        }
    }
#endif
}

/**
 * Shared INT8 tiled driver for rows [r0, r1). `scale_for(row, col)` returns
 * the dequantization multiplier applied as float(acc) * scale_a(row) *
 * scale_w(col) — both per-tensor and vector-wise kernels route here.
 */
template <typename RowScale, typename ColScale>
void
TiledI8Rows(const int8_t* a, int64_t lda, const PackedWeightsI8& w, float* c,
            int64_t r0, int64_t r1, const RowScale& row_scale,
            const ColScale& col_scale)
{
    const int64_t k = w.k, n = w.n;
    const int64_t panels = NumPanels(n);
    int32_t acc[kMR * kPanelWidth];
    float wsc[kPanelWidth];
    for (int64_t p = 0; p < panels; ++p) {
        const int8_t* bp = w.data.data() + p * k * kPanelWidth;
        const int64_t j0 = p * kPanelWidth;
        const int64_t ncols = std::min<int64_t>(kPanelWidth, n - j0);
        for (int64_t j = 0; j < ncols; ++j) wsc[j] = col_scale(j0 + j);
        int64_t r = r0;
        auto store = [&](int64_t row_base, int rows) {
            for (int r_local = 0; r_local < rows; ++r_local) {
                const int64_t row = row_base + r_local;
                const float as = row_scale(row);
                float* crow = c + row * n + j0;
                const int32_t* arow = acc + r_local * kPanelWidth;
                for (int64_t j = 0; j < ncols; ++j) {
                    crow[j] = static_cast<float>(arow[j]) * as * wsc[j];
                }
            }
        };
        for (; r + kMR <= r1; r += kMR) {
            MicroKernelI8<kMR>(a + r * lda, lda, bp, 0, k, acc);
            store(r, kMR);
        }
        switch (r1 - r) {
          case 3: MicroKernelI8<3>(a + r * lda, lda, bp, 0, k, acc); break;
          case 2: MicroKernelI8<2>(a + r * lda, lda, bp, 0, k, acc); break;
          case 1: MicroKernelI8<1>(a + r * lda, lda, bp, 0, k, acc); break;
          default: break;
        }
        if (r < r1) store(r, static_cast<int>(r1 - r));
    }
}

/** Generic panel-major packer shared by the f32/int8 layouts. */
template <typename T>
std::vector<T>
PackPanels(const T* w, int64_t k, int64_t n)
{
    const int64_t panels = NumPanels(n);
    std::vector<T> data(static_cast<size_t>(panels * k * kPanelWidth),
                        T{0});
    for (int64_t p = 0; p < panels; ++p) {
        const int64_t j0 = p * kPanelWidth;
        const int64_t ncols = std::min<int64_t>(kPanelWidth, n - j0);
        T* dst = data.data() + p * k * kPanelWidth;
        for (int64_t kk = 0; kk < k; ++kk) {
            const T* src = w + kk * n + j0;
            for (int64_t j = 0; j < ncols; ++j) {
                dst[kk * kPanelWidth + j] = src[j];
            }
        }
    }
    return data;
}

}  // namespace

PackedWeightsF32
PackWeightsF32(const Tensor& w)
{
    LLMNPU_CHECK(w.dtype() == DType::kF32);
    PackedWeightsF32 packed;
    packed.k = w.Rows();
    packed.n = w.Cols();
    packed.data = PackPanels(w.Data<float>(), packed.k, packed.n);
    return packed;
}

PackedWeightsF32
PackWeightsF32Transposed(const Tensor& w)
{
    LLMNPU_CHECK(w.dtype() == DType::kF32);
    PackedWeightsF32 packed;
    packed.k = w.Cols();
    packed.n = w.Rows();
    const int64_t k = packed.k, n = packed.n;
    const int64_t panels = NumPanels(n);
    packed.data.assign(static_cast<size_t>(panels * k * kPanelWidth), 0.0f);
    const float* src = w.Data<float>();
    for (int64_t p = 0; p < panels; ++p) {
        const int64_t j0 = p * kPanelWidth;
        const int64_t ncols = std::min<int64_t>(kPanelWidth, n - j0);
        float* dst = packed.data.data() + p * k * kPanelWidth;
        // Column j of the implied [K x N] matrix is row (j0 + j) of w.
        for (int64_t j = 0; j < ncols; ++j) {
            const float* wrow = src + (j0 + j) * k;
            for (int64_t kk = 0; kk < k; ++kk) {
                dst[kk * kPanelWidth + j] = wrow[kk];
            }
        }
    }
    return packed;
}

PackedWeightsI8
PackWeightsI8(const Tensor& w_q, std::vector<float> scales)
{
    LLMNPU_CHECK(w_q.dtype() == DType::kI8);
    PackedWeightsI8 packed;
    packed.k = w_q.Rows();
    packed.n = w_q.Cols();
    LLMNPU_CHECK(scales.size() == 1 ||
                 scales.size() == static_cast<size_t>(packed.n));
    packed.data = PackPanels(w_q.Data<int8_t>(), packed.k, packed.n);
    packed.scales = std::move(scales);
    return packed;
}

Tensor
MatMulF32Packed(const Tensor& a, const PackedWeightsF32& w)
{
    LLMNPU_CHECK(a.dtype() == DType::kF32);
    LLMNPU_CHECK_EQ(a.Cols(), w.k);
    const int64_t m = a.Rows(), k = w.k, n = w.n;
    // Uninitialized: the micro-kernels overwrite every element.
    Tensor c({m, n}, DType::kF32);
    const float* pa = a.Data<float>();
    float* pc = c.Data<float>();
    LLMNPU_TRACE_SPAN_TILE("matmul.f32", "kernel", -1, -1, -1, "m",
                           static_cast<int>(m));
    RowParallel(m, k * n, [&](int64_t r0, int64_t r1) {
        LLMNPU_TRACE_SPAN_TILE("matmul.f32.rows", "kernel", -1, -1, -1,
                               "rows", static_cast<int>(r1 - r0));
        TiledF32Rows(pa, k, w, pc, r0, r1);
    });
    return c;
}

Tensor
MatMulF32(const Tensor& a, const Tensor& b)
{
    LLMNPU_CHECK(a.dtype() == DType::kF32);
    LLMNPU_CHECK(b.dtype() == DType::kF32);
    LLMNPU_CHECK_EQ(a.Cols(), b.Rows());
    const int64_t m = a.Rows(), k = a.Cols(), n = b.Cols();
    if (m == 1) {
        // Matvec: packing would cost as much as the multiply itself; a
        // branchless saxpy over the row-major weights streams B once.
        Tensor c = Tensor::Zeros({1, n});
        const float* pa = a.Data<float>();
        const float* pb = b.Data<float>();
        float* __restrict pc = c.Data<float>();
        for (int64_t kk = 0; kk < k; ++kk) {
            const float av = pa[kk];
            const float* __restrict brow = pb + kk * n;
            for (int64_t j = 0; j < n; ++j) pc[j] += av * brow[j];
        }
        return c;
    }
    return MatMulF32Packed(a, PackWeightsF32(b));
}

Tensor
MatMulW8A8PerTensorPacked(const Tensor& a_q, float a_scale,
                          const PackedWeightsI8& w)
{
    LLMNPU_CHECK(a_q.dtype() == DType::kI8);
    LLMNPU_CHECK_EQ(a_q.Cols(), w.k);
    const int64_t m = a_q.Rows(), k = w.k, n = w.n;
    Tensor c({m, n}, DType::kF32);
    const int8_t* pa = a_q.Data<int8_t>();
    float* pc = c.Data<float>();
    const bool uniform = w.scales.size() == 1;
    const float ws0 = w.scales.empty() ? 1.0f : w.scales[0];
    const float* ws = w.scales.data();
    LLMNPU_TRACE_SPAN_TILE("matmul.w8a8", "kernel", -1, -1, -1, "m",
                           static_cast<int>(m));
    RowParallel(m, k * n, [&](int64_t r0, int64_t r1) {
        LLMNPU_TRACE_SPAN_TILE("matmul.w8a8.rows", "kernel", -1, -1, -1,
                               "rows", static_cast<int>(r1 - r0));
        TiledI8Rows(
            pa, k, w, pc, r0, r1, [&](int64_t) { return a_scale; },
            [&](int64_t j) {
                return uniform ? ws0 : ws[static_cast<size_t>(j)];
            });
    });
    return c;
}

Tensor
MatMulW8A8PerTensor(const Tensor& a_q, float a_scale, const Tensor& w_q,
                    const std::vector<float>& w_scales)
{
    LLMNPU_CHECK(a_q.dtype() == DType::kI8);
    LLMNPU_CHECK(w_q.dtype() == DType::kI8);
    LLMNPU_CHECK_EQ(a_q.Cols(), w_q.Rows());
    LLMNPU_CHECK(w_scales.size() == 1 ||
                 w_scales.size() == static_cast<size_t>(w_q.Cols()));
    return MatMulW8A8PerTensorPacked(a_q, a_scale,
                                     PackWeightsI8(w_q, w_scales));
}

Tensor
MatMulW8A8RowCol(const Tensor& a_q, const std::vector<float>& a_scales,
                 const Tensor& w_q, const std::vector<float>& w_scales)
{
    LLMNPU_CHECK(a_q.dtype() == DType::kI8);
    LLMNPU_CHECK(w_q.dtype() == DType::kI8);
    LLMNPU_CHECK_EQ(a_q.Cols(), w_q.Rows());
    const int64_t m = a_q.Rows(), k = a_q.Cols(), n = w_q.Cols();
    LLMNPU_CHECK_EQ(a_scales.size(), static_cast<size_t>(m));
    LLMNPU_CHECK_EQ(w_scales.size(), static_cast<size_t>(n));
    const PackedWeightsI8 w = PackWeightsI8(w_q, w_scales);
    Tensor c({m, n}, DType::kF32);
    const int8_t* pa = a_q.Data<int8_t>();
    float* pc = c.Data<float>();
    const float* as = a_scales.data();
    const float* ws = w_scales.data();
    LLMNPU_TRACE_SPAN_TILE("matmul.w8a8_rowcol", "kernel", -1, -1, -1,
                           "m", static_cast<int>(m));
    RowParallel(m, k * n, [&](int64_t r0, int64_t r1) {
        LLMNPU_TRACE_SPAN_TILE("matmul.w8a8_rowcol.rows", "kernel", -1,
                               -1, -1, "rows", static_cast<int>(r1 - r0));
        TiledI8Rows(
            pa, k, w, pc, r0, r1,
            [&](int64_t row) { return as[static_cast<size_t>(row)]; },
            [&](int64_t j) { return ws[static_cast<size_t>(j)]; });
    });
    return c;
}

Tensor
MatMulPerGroup(const Tensor& a, const PerGroupWeights& w)
{
    LLMNPU_CHECK(a.dtype() == DType::kF32);
    const int64_t m = a.Rows(), k = a.Cols(), n = w.q.Cols();
    LLMNPU_CHECK_EQ(k, w.q.Rows());
    const int g_size = w.group_size;
    const int groups = w.num_groups;
    const int64_t panels = NumPanels(n);

    // Pack once per call: one byte per weight, amortized over M rows.
    const PackedWeightsI8 wp = PackWeightsI8(w.q, {1.0f});

    Tensor c({m, n}, DType::kF32);
    const float* pa = a.Data<float>();
    float* pc = c.Data<float>();

    LLMNPU_TRACE_SPAN_TILE("matmul.pergroup", "kernel", -1, -1, -1, "m",
                           static_cast<int>(m));
    RowParallel(m, k * n, [&](int64_t r0, int64_t r1) {
        LLMNPU_TRACE_SPAN_TILE("matmul.pergroup.rows", "kernel", -1, -1,
                               -1, "rows", static_cast<int>(r1 - r0));
        // Per-participant scratch: a kMR-row block is quantized up front,
        // then one pass over the panels, so the int8 panel widening inside
        // the micro-kernel is amortized over the whole row block.
        std::vector<int8_t> a_q(static_cast<size_t>(kMR * k));
        std::vector<float> a_scales(static_cast<size_t>(kMR * groups));
        int32_t acc[kMR * kPanelWidth];
        float cbuf[kMR * kPanelWidth];
        for (int64_t r = r0; r < r1; r += kMR) {
            const int mr = static_cast<int>(std::min<int64_t>(kMR, r1 - r));
            for (int rr = 0; rr < mr; ++rr) {
                const float* arow = pa + (r + rr) * k;
                int8_t* qrow = a_q.data() + rr * k;
                float* srow = a_scales.data() + rr * groups;
                for (int g = 0; g < groups; ++g) {
                    const int64_t k0 = static_cast<int64_t>(g) * g_size;
                    // Identical quantization math to the naive kernel.
                    float absmax = 0.0f;
                    for (int t = 0; t < g_size; ++t) {
                        absmax = std::max(absmax, std::abs(arow[k0 + t]));
                    }
                    const float a_scale =
                        absmax > 0.0f ? absmax / 127.0f : 1.0f;
                    const float inv = 1.0f / a_scale;
                    for (int t = 0; t < g_size; ++t) {
                        qrow[k0 + t] = static_cast<int8_t>(std::clamp(
                            std::nearbyint(arow[k0 + t] * inv), -127.0f,
                            127.0f));
                    }
                    srow[g] = a_scale;
                }
            }
            for (int64_t p = 0; p < panels; ++p) {
                const int8_t* bp = wp.data.data() + p * k * kPanelWidth;
                const int64_t j0 = p * kPanelWidth;
                const int64_t ncols = std::min<int64_t>(kPanelWidth, n - j0);
                for (int j = 0; j < mr * kPanelWidth; ++j) cbuf[j] = 0.0f;
                for (int g = 0; g < groups; ++g) {
                    const int64_t k0 = static_cast<int64_t>(g) * g_size;
                    switch (mr) {
                      case 4:
                        MicroKernelI8<4>(a_q.data(), k, bp, k0, k0 + g_size,
                                         acc);
                        break;
                      case 3:
                        MicroKernelI8<3>(a_q.data(), k, bp, k0, k0 + g_size,
                                         acc);
                        break;
                      case 2:
                        MicroKernelI8<2>(a_q.data(), k, bp, k0, k0 + g_size,
                                         acc);
                        break;
                      default:
                        MicroKernelI8<1>(a_q.data(), k, bp, k0, k0 + g_size,
                                         acc);
                        break;
                    }
                    for (int rr = 0; rr < mr; ++rr) {
                        const float as = a_scales[static_cast<size_t>(
                            rr * groups + g)];
                        const int32_t* arow = acc + rr * kPanelWidth;
                        float* crow = cbuf + rr * kPanelWidth;
                        for (int64_t j = 0; j < ncols; ++j) {
                            crow[j] += static_cast<float>(arow[j]) * as *
                                       w.GroupScale(g, j0 + j);
                        }
                    }
                }
                for (int rr = 0; rr < mr; ++rr) {
                    float* crow = pc + (r + rr) * n + j0;
                    const float* brow = cbuf + rr * kPanelWidth;
                    for (int64_t j = 0; j < ncols; ++j) crow[j] = brow[j];
                }
            }
        }
    });
    return c;
}

Tensor
MatMulRowSubset(const Tensor& a_sub, const Tensor& w,
                const std::vector<int>& rows)
{
    LLMNPU_CHECK(a_sub.dtype() == DType::kF32);
    LLMNPU_CHECK(w.dtype() == DType::kF32);
    LLMNPU_CHECK_EQ(a_sub.Cols(), static_cast<int64_t>(rows.size()));
    const int64_t m = a_sub.Rows(), n = w.Cols();
    const int64_t num_rows = static_cast<int64_t>(rows.size());
    // Validate the subset once, outside the hot loop.
    for (int row : rows) {
        LLMNPU_CHECK_GE(row, 0);
        LLMNPU_CHECK_LT(row, w.Rows());
    }
    Tensor c = Tensor::Zeros({m, n});
    const float* pa = a_sub.Data<float>();
    const float* pw = w.Data<float>();
    float* pc = c.Data<float>();
    const int* idx = rows.data();
    RowParallel(m, num_rows * n, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
            float* __restrict crow = pc + i * n;
            for (int64_t t = 0; t < num_rows; ++t) {
                const float av = pa[i * num_rows + t];
                if (av == 0.0f) continue;
                const float* __restrict wrow = pw + idx[t] * n;
                for (int64_t j = 0; j < n; ++j) crow[j] += av * wrow[j];
            }
        }
    });
    return c;
}

// ------------------------------------------------------------- attention

namespace {

#ifndef LLMNPU_VECTOR_EXT
#error "the attention primitives need GCC/Clang vector extensions"
#endif

/** Query rows a prefill tile computes per loaded K/V row. */
constexpr int kAttnRowBlock = 4;

/** The eight floats at p as one vector. A reference, not a value:
 *  vector arguments and returns would change the ABI in builds without
 *  AVX (-Wpsabi). */
const VecF32x8&
LoadF32x8(const float* p)
{
    return *reinterpret_cast<const VecF32x8*>(p);
}

/**
 * c + a * b for the scalar tails: one rounding where the target has FMA,
 * two otherwise. Spelled out because under -ffp-contract=fast the compiler
 * decides per loop whether to fuse: vectorizing a tail's j-loop as an
 * in-order reduction keeps the multiply separate, the scalar loop fuses
 * it, and the result would then depend on the run length.
 */
float
MulAdd(float a, float b, float c)
{
#if defined(__FMA__)
    return std::fma(a, b, c);
#else
    return c + a * b;
#endif
}

/** Sums the lanes in the fixed order documented in attention_kernel.h. */
float
ReduceLanes(const VecF32x8& s)
{
#if defined(__AVX__)
    // The same tree in three shuffles: GCC scalarizes the portable form.
    const __m256 v = s;
    const __m128 t = _mm_add_ps(_mm256_castps256_ps128(v),
                                _mm256_extractf128_ps(v, 1));
    const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
    return _mm_cvtss_f32(_mm_add_ss(u, _mm_movehdup_ps(u)));
#else
    const float t0 = s[0] + s[4];
    const float t1 = s[1] + s[5];
    const float t2 = s[2] + s[6];
    const float t3 = s[3] + s[7];
    return (t0 + t2) + (t1 + t3);
#endif
}

/**
 * Scores primitive: scores[r * ld + j] = scale * (q_r . k_j) for R query
 * rows (q_stride apart) against a run of n K rows (stride apart). Each K
 * row is loaded once for all R rows. The r loops are unrolled explicitly:
 * left as loops, GCC keeps the accumulator arrays on the stack.
 */
template <int R>
void
AttentionScoresRun(const float* q, int64_t q_stride, const float* k,
                   int64_t stride, int64_t n, int head_dim, float scale,
                   float* scores, int64_t ld)
{
    for (int64_t j = 0; j < n; ++j, k += stride) {
        VecF32x8 a0[R] = {};
        VecF32x8 a1[R] = {};
        int d = 0;
        for (; d + 16 <= head_dim; d += 16) {
            const VecF32x8 k0 = LoadF32x8(k + d);
            const VecF32x8 k1 = LoadF32x8(k + d + 8);
#pragma GCC unroll 4
            for (int r = 0; r < R; ++r) {
                a0[r] += LoadF32x8(q + r * q_stride + d) * k0;
                a1[r] += LoadF32x8(q + r * q_stride + d + 8) * k1;
            }
        }
        if (d + 8 <= head_dim) {
            const VecF32x8 k0 = LoadF32x8(k + d);
#pragma GCC unroll 4
            for (int r = 0; r < R; ++r) {
                a0[r] += LoadF32x8(q + r * q_stride + d) * k0;
            }
            d += 8;
        }
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const float* qr = q + r * q_stride;
            float dot = ReduceLanes(a0[r] + a1[r]);
            for (int t = d; t < head_dim; ++t) dot = MulAdd(qr[t], k[t], dot);
            scores[r * ld + j] = dot * scale;
        }
    }
}

/** out_r[c] += w_r[j] * v_j[c] over 8*V columns, j ascending; the R*V
 *  output vectors stay in registers for the whole run. */
template <int R, int V>
void
AccumulateColumns(const float* w, int64_t ld, const float* v,
                  int64_t stride, int64_t n, float* out, int64_t out_stride)
{
    VecF32x8 acc[R][V];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
        for (int c = 0; c < V; ++c) {
            acc[r][c] = LoadF32x8(out + r * out_stride + 8 * c);
        }
    }
    for (int64_t j = 0; j < n; ++j, v += stride) {
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const float wr = w[r * ld + j];
#pragma GCC unroll 8
            for (int c = 0; c < V; ++c) {
                acc[r][c] += wr * LoadF32x8(v + 8 * c);
            }
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
        for (int c = 0; c < V; ++c) {
            *reinterpret_cast<VecF32x8*>(out + r * out_stride + 8 * c) =
                acc[r][c];
        }
    }
}

/** Covers columns [d, head_dim) in blocks of V vectors, then V/2, ...,
 *  then one; advances d past the last whole vector. */
template <int R, int V>
void
AccumulateColumnBlocks(const float* w, int64_t ld, const float* v,
                       int64_t stride, int64_t n, int head_dim, int& d,
                       float* out, int64_t out_stride)
{
    for (; d + 8 * V <= head_dim; d += 8 * V) {
        AccumulateColumns<R, V>(w, ld, v + d, stride, n, out + d,
                                out_stride);
    }
    if constexpr (V > 1) {
        AccumulateColumnBlocks<R, V / 2>(w, ld, v, stride, n, head_dim, d,
                                         out, out_stride);
    }
}

/**
 * Accumulate primitive: out_r += w_r[j] * v_j for R output rows
 * (out_stride apart) over a run of n V rows (stride apart), j ascending.
 * Column blocks hold about eight vector chains in total, so the j-ordered
 * chains do not leave the FMA units waiting on latency.
 */
template <int R>
void
AttentionAccumulateRun(const float* w, int64_t ld, const float* v,
                       int64_t stride, int64_t n, int head_dim, float* out,
                       int64_t out_stride)
{
    int d = 0;
    AccumulateColumnBlocks<R, (R >= 4 ? 2 : 8 / R)>(w, ld, v, stride, n,
                                                    head_dim, d, out,
                                                    out_stride);
    for (int r = 0; r < R; ++r) {
        const float* wr = w + r * ld;
        float* o = out + r * out_stride;
        for (int t = d; t < head_dim; ++t) {
            float acc = o[t];
            for (int64_t j = 0; j < n; ++j) {
                acc = MulAdd(wr[j], v[j * stride + t], acc);
            }
            o[t] = acc;
        }
    }
}

/** Calls fn(j, k_row, v_row, len) for each page-contiguous run of the
 *  positions [j0, j1). */
template <typename Fn>
void
ForEachKvRun(const KvHeadRows& kv, int64_t j0, int64_t j1, const Fn& fn)
{
    for (int64_t j = j0; j < j1;) {
        const int64_t page = j / kv.page_size;
        const int64_t off = j - page * kv.page_size;
        const int64_t len = std::min(j1 - j, kv.page_size - off);
        fn(j, kv.k_pages[page] + off * kv.stride,
           kv.v_pages[page] + off * kv.stride, len);
        j += len;
    }
}

/**
 * Softmax over n scores, in place: max, exp, a double sum, then one
 * multiply by the float reciprocal per weight. The max is exact in any
 * order, so it runs eight lanes wide; the sum keeps four partial sums by
 * position mod 4, an order fixed by n alone.
 */
void
SoftmaxWeights(float* s, int64_t n)
{
    VecF32x8 lanes = {-1e30f, -1e30f, -1e30f, -1e30f,
                      -1e30f, -1e30f, -1e30f, -1e30f};
    const int64_t n8 = n / 8 * 8;
    for (int64_t j = 0; j < n8; j += 8) {
        const VecF32x8& x = LoadF32x8(s + j);
        lanes = x > lanes ? x : lanes;
    }
    float mx = -1e30f;
    for (int l = 0; l < 8; ++l) mx = std::max(mx, lanes[l]);
    for (int64_t j = n8; j < n; ++j) mx = std::max(mx, s[j]);
    for (int64_t j = 0; j < n; ++j) s[j] = std::exp(s[j] - mx);
    double part[4] = {0.0, 0.0, 0.0, 0.0};
    const int64_t n4 = n / 4 * 4;
    for (int64_t j = 0; j < n4; j += 4) {
        for (int l = 0; l < 4; ++l) part[l] += s[j + l];
    }
    for (int64_t j = n4; j < n; ++j) part[0] += s[j];
    const float inv =
        static_cast<float>(1.0 / ((part[0] + part[1]) + (part[2] + part[3])));
    for (int64_t j = 0; j < n; ++j) s[j] *= inv;
}

/**
 * R consecutive query rows; row r sees positions [0, visible + r). The
 * score pass covers the last row's window for all rows (entries past a
 * row's own window are never read); the accumulate pass covers the
 * positions every row sees for the whole block, then each row's ragged
 * tail on its own. Either way each output element is one j-ascending
 * chain, so the result equals computing the row alone.
 */
template <int R>
void
AttendRowBlock(const float* q, int64_t q_stride, int64_t visible,
               const KvHeadRows& kv, int head_dim, float scale,
               float* scores, int64_t ld, float* out, int64_t out_stride)
{
    ForEachKvRun(kv, 0, visible + R - 1,
                 [&](int64_t j, const float* k, const float*, int64_t len) {
                     AttentionScoresRun<R>(q, q_stride, k, kv.stride, len,
                                           head_dim, scale, scores + j, ld);
                 });
    for (int r = 0; r < R; ++r) {
        SoftmaxWeights(scores + r * ld, visible + r);
        std::fill(out + r * out_stride, out + r * out_stride + head_dim,
                  0.0f);
    }
    ForEachKvRun(kv, 0, visible,
                 [&](int64_t j, const float*, const float* v, int64_t len) {
                     AttentionAccumulateRun<R>(scores + j, ld, v, kv.stride,
                                               len, head_dim, out,
                                               out_stride);
                 });
    for (int r = 1; r < R; ++r) {
        float* w = scores + r * ld;
        float* o = out + r * out_stride;
        ForEachKvRun(
            kv, visible, visible + r,
            [&](int64_t j, const float*, const float* v, int64_t len) {
                AttentionAccumulateRun<1>(w + j, ld, v, kv.stride, len,
                                          head_dim, o, out_stride);
            });
    }
}

}  // namespace

void
CausalAttentionHead(const float* q, int64_t q_stride, int64_t rows,
                    int64_t first_pos, const KvHeadRows& kv, int head_dim,
                    float* out, int64_t out_stride)
{
    if (rows <= 0) return;
    LLMNPU_CHECK_GT(kv.page_size, 0);
    LLMNPU_CHECK_GE(first_pos, 0);
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    const int64_t ld = first_pos + rows;
    std::vector<float> scores(
        static_cast<size_t>(std::min<int64_t>(rows, kAttnRowBlock) * ld));
    int64_t r = 0;
    for (; r + kAttnRowBlock <= rows; r += kAttnRowBlock) {
        AttendRowBlock<kAttnRowBlock>(q + r * q_stride, q_stride,
                                      first_pos + r + 1, kv, head_dim, scale,
                                      scores.data(), ld,
                                      out + r * out_stride, out_stride);
    }
    const float* qr = q + r * q_stride;
    float* outr = out + r * out_stride;
    switch (rows - r) {
      case 3:
        AttendRowBlock<3>(qr, q_stride, first_pos + r + 1, kv, head_dim,
                          scale, scores.data(), ld, outr, out_stride);
        break;
      case 2:
        AttendRowBlock<2>(qr, q_stride, first_pos + r + 1, kv, head_dim,
                          scale, scores.data(), ld, outr, out_stride);
        break;
      case 1:
        AttendRowBlock<1>(qr, q_stride, first_pos + r + 1, kv, head_dim,
                          scale, scores.data(), ld, outr, out_stride);
        break;
      default: break;
    }
}

}  // namespace llmnpu
