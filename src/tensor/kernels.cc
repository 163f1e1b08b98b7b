/**
 * @file
 * Tiled, multi-threaded numeric-plane kernels: the public MatMul* entry
 * points of matmul.h, the explicit-level entry points of kernel_isa.h,
 * and QuantizePerTensorI8.
 *
 * Structure, for every kernel:
 *
 *  - Weights are packed panel-major (PackWeights*), kPanelWidth output
 *    columns per panel. f32 panels hold one 64-byte row per k; INT8 panels
 *    hold one 64-byte block per quad of k (layout, ISA levels and the
 *    exactness argument are in matmul.h).
 *  - A register-tiled micro-kernel computes an MR x kPanelWidth block of C
 *    with all accumulators in registers: unlike the naive saxpy form there
 *    are no loads/stores of C inside the K loop.
 *  - ParallelTiles hands each participant of the shared ThreadPool a range
 *    of rows, or of panels when m is small. Either way each output element
 *    is computed entirely by one thread with a fixed K-ascending
 *    accumulation order, so results do not depend on the thread count or
 *    the split (bitwise, for f32 and INT8 alike).
 *  - SelectedKernelIsa() picks a level once, from __builtin_cpu_supports,
 *    for the INT8 and the float kernels alike; each level is a plain or
 *    `target`-attributed function of this TU, and the tile loops are
 *    templates over the level.
 *  - The INT8 micro-kernel has three levels: AVX-512-VNNI, AVX2, scalar.
 *    Each participant first copies its activation rows into a zero-padded
 *    scratch in the level's encoding (u8 x ^ 0x80 for VNNI), so the 4-byte
 *    quad loads never read past a row and a zero byte contributes nothing
 *    at any level.
 *  - The f32 matmul and the attention primitives have the code this TU is
 *    compiled for (AVX2 + FMA with LLMNPU_KERNEL_SIMD) and, where that
 *    code has FMA, an AVX-512 level: 16 rows x one panel of zmm
 *    accumulators for the matmul, 16-lane vectors for attention. It runs
 *    the AVX2 code's multiply-adds, as the same `acc += a * b`
 *    expressions, in the same order, and reduces lanes with the same tree,
 *    so the two levels agree bit for bit (kernel_isa.h).
 *  - The exp of the attention softmax and of SiLU (SiluSpan) is std::exp
 *    below the AVX-512 level. There, it is glibc's expf algorithm eight
 *    lanes wide in double, bit for bit the same.
 *  - Each AVX-512 function that code of another level calls ends with
 *    _mm256_zeroupper(). GCC emits that vzeroupper itself only when
 *    optimizing; without it (-O0), the dirty upper zmm state makes every
 *    later SSE instruction, libm's among them, run many times slower.
 *
 * The attention inner loops (CausalAttentionHead, attention_kernel.h) live
 * here too, so PagedCausalAttention gets the same flags and levels.
 *
 * This file may be compiled with target SIMD flags (see LLMNPU_KERNEL_SIMD
 * in CMakeLists.txt) for the f32 and quantize paths; the INT8 and AVX-512
 * levels need no flags. The reference kernels in matmul.cc keep the
 * portable default flags and serve as the equivalence oracle.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#define LLMNPU_X86 1
#include <immintrin.h>
#endif

#if defined(LLMNPU_X86) && defined(__FMA__)
/**
 * The AVX-512 float level is written with the `acc += a * b` expressions
 * of the compiled float code, so the compiler treats both alike: fused
 * into FMAs in an optimized build, rounded twice where it does not
 * contract (-O0). It needs FMA in this TU: without it the compiled code
 * cannot contract, while AVX-512F code always can.
 */
#define LLMNPU_F32_AVX512 1
#endif

#include "src/obs/trace.h"
#include "src/tensor/attention_kernel.h"
#include "src/tensor/kernel_isa.h"
#include "src/tensor/matmul.h"
#include "src/tensor/quantize.h"
#include "src/tensor/row_parallel.h"
#include "src/util/threadpool.h"

namespace llmnpu {

namespace {

/** f32 rows per micro-kernel invocation. 4 x kPanelWidth f32 accumulators
 *  fill eight 256-bit registers — the sweet spot for FMA
 *  auto-vectorization. */
constexpr int kMR = 4;

/** Bytes of one packed INT8 block: kPanelWidth columns x kQuad k. */
constexpr int64_t kBlockBytes = kPanelWidth * kQuad;

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

/** From this many rows on, a matmul is split over rows: every participant
 *  then gets whole micro-kernel blocks. Below it, over panels. */
constexpr int64_t kRowSplitMinRows = 64;

/** Elements below which QuantizePerTensorI8 stays on one thread. */
constexpr int64_t kQuantizeGrain = 32 * 1024;

/**
 * Runs fn(r0, r1, p0, p1) over the output tiles [0, m) x [0, panels):
 * inline when small, else over the pool by rows (m >= kRowSplitMinRows)
 * or by panels. A decode matvec (m = 1) thus uses every thread.
 */
template <typename Fn>
void
ParallelTiles(int64_t m, int64_t panels, int64_t work_per_row, const Fn& fn)
{
    if (m <= 0 || panels <= 0) return;
    if (m * work_per_row < kParallelWorkCutoff) {
        fn(static_cast<int64_t>(0), m, static_cast<int64_t>(0), panels);
    } else if (m >= kRowSplitMinRows) {
        ThreadPool::Global().ParallelFor(m, 1, [&](int64_t r0, int64_t r1) {
            fn(r0, r1, static_cast<int64_t>(0), panels);
        });
    } else {
        ThreadPool::Global().ParallelFor(panels, 1,
                                         [&](int64_t p0, int64_t p1) {
            fn(static_cast<int64_t>(0), m, p0, p1);
        });
    }
}

/** Covers [i0, i1) (rows or panels) with blocks [i, i + B), calling
 *  fn(i, std::integral_constant<int, B>()): B = N while N items remain,
 *  then halving (7 = 4 + 2 + 1). */
template <int N, typename Fn>
void
ForEachBlock(int64_t i0, int64_t i1, const Fn& fn)
{
    int64_t i = i0;
    for (; i + N <= i1; i += N) fn(i, std::integral_constant<int, N>());
    if constexpr (N > 1) ForEachBlock<N / 2>(i, i1, fn);
}

int64_t
NumPanels(int64_t n)
{
    return (n + kPanelWidth - 1) / kPanelWidth;
}

/**
 * f32 micro-kernel: MR rows x NP consecutive packed panels.
 *
 * Accumulators live in registers for the whole K loop; the single store at
 * the end fully overwrites the C block (callers hand out uninitialized C).
 * Every variant adds each product into its element's own chain in k
 * order, so an element's bits depend on neither MR nor NP. MR * NP = kMR
 * keeps eight independent chains in flight, which a lone decode row
 * (MR = 1) needs to hide the FMA latency. Only the last panel may be
 * partial (ncols_last columns).
 */
template <int MR, int NP>
void
MicroKernelF32(const float* __restrict a, int64_t lda,
               const float* __restrict bp, int64_t k, float* __restrict c,
               int64_t ldc, int64_t ncols_last)
{
    const int64_t panel_stride = k * kPanelWidth;
#ifdef LLMNPU_VECTOR_EXT
    VecF32x8 acc[MR][2 * NP] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
        VecF32x8 b[2 * NP];
        for (int q = 0; q < NP; ++q) {
            const float* brow = bp + q * panel_stride + kk * kPanelWidth;
            b[2 * q] = *reinterpret_cast<const VecF32x8*>(brow);
            b[2 * q + 1] = *reinterpret_cast<const VecF32x8*>(brow + 8);
        }
        for (int r = 0; r < MR; ++r) {
            const float av = a[r * lda + kk];
            for (int v = 0; v < 2 * NP; ++v) acc[r][v] += av * b[v];
        }
    }
    for (int r = 0; r < MR; ++r) {
        for (int q = 0; q < NP; ++q) {
            float* crow = c + r * ldc + q * kPanelWidth;
            const VecF32x8& lo = acc[r][2 * q];
            const VecF32x8& hi = acc[r][2 * q + 1];
            const int64_t ncols = q + 1 < NP ? kPanelWidth : ncols_last;
            if (ncols == kPanelWidth) {
                *reinterpret_cast<VecF32x8*>(crow) = lo;
                *reinterpret_cast<VecF32x8*>(crow + 8) = hi;
            } else {
                for (int64_t j = 0; j < ncols; ++j) {
                    crow[j] = j < 8 ? lo[j] : hi[j - 8];
                }
            }
        }
    }
#else
    float acc[MR][NP * kPanelWidth] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
        for (int r = 0; r < MR; ++r) {
            const float av = a[r * lda + kk];
            for (int q = 0; q < NP; ++q) {
                const float* __restrict brow =
                    bp + q * panel_stride + kk * kPanelWidth;
                for (int j = 0; j < kPanelWidth; ++j) {
                    acc[r][q * kPanelWidth + j] += av * brow[j];
                }
            }
        }
    }
    const int64_t ncols = (NP - 1) * kPanelWidth + ncols_last;
    for (int r = 0; r < MR; ++r) {
        for (int64_t j = 0; j < ncols; ++j) c[r * ldc + j] = acc[r][j];
    }
#endif
}

/** Runs the f32 micro-kernel over rows [r0, r1) of A for panels [p0, p1).
 *  Whole kMR-row blocks go panel by panel, so the packed panel stays
 *  cache-hot across row blocks; the fewer than kMR rows left over take
 *  kMR / MR panels per call instead. */
void
TiledF32(const float* a, int64_t lda, const PackedWeightsF32& w, float* c,
         int64_t r0, int64_t r1, int64_t p0, int64_t p1)
{
    const int64_t k = w.k, n = w.n;
    const auto run = [&](int64_t r, auto rows, int64_t p, auto panels) {
        constexpr int mr = decltype(rows)::value;
        constexpr int np = decltype(panels)::value;
        const int64_t last_j0 = (p + np - 1) * kPanelWidth;
        MicroKernelF32<mr, np>(
            a + r * lda, lda, w.data.data() + p * k * kPanelWidth, k,
            c + r * n + p * kPanelWidth, n,
            std::min<int64_t>(kPanelWidth, n - last_j0));
    };
    const int64_t r_full = r0 + (r1 - r0) / kMR * kMR;
    for (int64_t p = p0; p < p1; ++p) {
        for (int64_t r = r0; r < r_full; r += kMR) {
            run(r, std::integral_constant<int, kMR>(), p,
                std::integral_constant<int, 1>());
        }
    }
    ForEachBlock<kMR / 2>(r_full, r1, [&](int64_t r, auto rows) {
        ForEachBlock<kMR / decltype(rows)::value>(
            p0, p1, [&](int64_t p, auto panels) { run(r, rows, p, panels); });
    });
}

#ifdef LLMNPU_F32_AVX512
/** Rows of A per AVX-512 f32 micro-kernel call: one zmm accumulator each,
 *  so an m = 16 decode step streams every weight panel once. */
constexpr int kWideRows = 16;

/** Fewest rows the AVX-512 f32 kernel takes in one block. Fewer rows keep
 *  too few chains in flight on one panel; they run the AVX2 kernel, whose
 *  small blocks span several panels. */
constexpr int kWideMinRows = 4;

/** Panel rows (one 64-byte k row each) the AVX-512 f32 kernel prefetches
 *  ahead of its loads, within the panel. */
constexpr int64_t kPrefetchRows = 32;

/**
 * AVX-512 f32 micro-kernel: MR rows x one packed panel, one zmm
 * accumulator per row. `at` holds the block's activations k-major
 * (at[kk * MR + r] = A[r][kk]), so every broadcast comes from one stream.
 * Each product enters its element's chain k ascending through the same
 * `acc += av * b` as MicroKernelF32, so both levels produce the same
 * bits.
 */
template <int MR>
__attribute__((target("avx512f"))) void
MicroKernelF32Avx512(const float* __restrict at, const float* __restrict bp,
                     int64_t k, float* __restrict c, int64_t ldc,
                     int64_t ncols)
{
    __m512 acc[MR];
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) acc[r] = _mm512_setzero_ps();
    for (int64_t kk = 0; kk < k; ++kk) {
        _mm_prefetch(reinterpret_cast<const char*>(
                         bp + std::min(kk + kPrefetchRows, k - 1) *
                                  kPanelWidth),
                     _MM_HINT_T0);
        const __m512 b = _mm512_loadu_ps(bp + kk * kPanelWidth);
        const float* ak = at + kk * MR;
#pragma GCC unroll 16
        for (int r = 0; r < MR; ++r) {
            acc[r] += _mm512_set1_ps(ak[r]) * b;
        }
    }
    const __mmask16 mask = static_cast<__mmask16>((1u << ncols) - 1);
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
        _mm512_mask_storeu_ps(c + r * ldc, mask, acc[r]);
    }
    _mm256_zeroupper();
}

/** MicroKernelF32Avx512<rows>, for kWideMinRows <= rows <= MR. */
template <int MR>
void
WideBlockF32(int64_t rows, const float* at, const float* bp, int64_t k,
             float* c, int64_t ldc, int64_t ncols)
{
    if (rows == MR) {
        MicroKernelF32Avx512<MR>(at, bp, k, c, ldc, ncols);
    } else if constexpr (MR > kWideMinRows) {
        WideBlockF32<MR - 1>(rows, at, bp, k, c, ldc, ncols);
    }
}

/**
 * TiledF32 at the AVX-512 level: rows [r0, r1) in blocks of kWideRows and
 * one last block of what remains. Each block is transposed k-major into a
 * small scratch, then runs against every panel of [p0, p1). A last block
 * of fewer than kWideMinRows rows (a whole decode matvec among them) runs
 * TiledF32.
 */
void
TiledF32Avx512(const float* a, int64_t lda, const PackedWeightsF32& w,
               float* c, int64_t r0, int64_t r1, int64_t p0, int64_t p1)
{
    const int64_t k = w.k, n = w.n;
    const int64_t tail = (r1 - r0) % kWideRows;
    const int64_t wide_end = tail >= kWideMinRows ? r1 : r1 - tail;
    std::vector<float> at(wide_end > r0 ? static_cast<size_t>(kWideRows * k)
                                        : 0);
    for (int64_t b0 = r0; b0 < wide_end; b0 += kWideRows) {
        const int64_t rows = std::min<int64_t>(kWideRows, wide_end - b0);
        for (int64_t r = 0; r < rows; ++r) {
            const float* arow = a + (b0 + r) * lda;
            for (int64_t kk = 0; kk < k; ++kk) at[kk * rows + r] = arow[kk];
        }
        for (int64_t p = p0; p < p1; ++p) {
            const int64_t j0 = p * kPanelWidth;
            WideBlockF32<kWideRows>(rows, at.data(),
                                    w.data.data() + p * k * kPanelWidth, k,
                                    c + b0 * n + j0, n,
                                    std::min<int64_t>(kPanelWidth, n - j0));
        }
    }
    TiledF32(a, lda, w, c, wide_end, r1, p0, p1);
}
#endif

/** q[i] = clamp(nearbyint(x[i] * inv), -127, 127), eight at a time where
 *  the TU has AVX2 (round-to-nearest-even, like nearbyint). */
void
QuantizeSpan(const float* x, int64_t n, float inv, int8_t* q)
{
    int64_t i = 0;
#if defined(__AVX2__)
    const __m256 vinv = _mm256_set1_ps(inv);
    const __m256 lo = _mm256_set1_ps(-127.0f);
    const __m256 hi = _mm256_set1_ps(127.0f);
    for (; i + 8 <= n; i += 8) {
        const __m256 r = _mm256_round_ps(
            _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        const __m256i v =
            _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(r, lo), hi));
        const __m128i v16 = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                            _mm256_extracti128_si256(v, 1));
        _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i),
                         _mm_packs_epi16(v16, v16));
    }
#endif
    for (; i < n; ++i) {
        q[i] = static_cast<int8_t>(
            std::clamp(std::nearbyint(x[i] * inv), -127.0f, 127.0f));
    }
}

// ------------------------------------------------------------- INT8 levels
//
// Every level has one signature: MR activation rows `a` (lda apart, in the
// level's encoding, whole quads), `quads` packed blocks from `bp`, and
// `col_sums` (the kPanelWidth column sums of w over the same k, read by
// VNNI only). It writes the exact int32 dot products to acc[MR][16].

/** The 4 activation bytes of quad q of a row, as one 32-bit lane. */
int32_t
LoadQuad(const int8_t* row, int64_t q)
{
    int32_t v;
    std::memcpy(&v, row + q * kQuad, sizeof(v));
    return v;
}

template <int MR>
void
MicroKernelI8Scalar(const int8_t* a, int64_t lda, const int8_t* bp,
                    int64_t quads, const int32_t* /*col_sums*/,
                    int32_t* acc)
{
    std::fill(acc, acc + MR * kPanelWidth, 0);
    for (int64_t q = 0; q < quads; ++q) {
        const int8_t* blk = bp + q * kBlockBytes;
        for (int r = 0; r < MR; ++r) {
            const int8_t* aq = a + r * lda + q * kQuad;
            int32_t* arow = acc + r * kPanelWidth;
            for (int j = 0; j < kPanelWidth; ++j) {
                for (int t = 0; t < kQuad; ++t) {
                    arow[j] += aq[t] * blk[j * kQuad + t];
                }
            }
        }
    }
}

#ifdef LLMNPU_X86
/**
 * AVX2: each quarter of a block (4 columns x 4 k) widens to 16 int16, and
 * `vpmaddwd` against the row's broadcast quad leaves two exact pair sums
 * per column. The pair partials are added once, after the K loop. Two
 * rows (eight accumulators) and the four widened weight vectors fit the
 * 16 registers.
 */
template <int MR>
__attribute__((target("avx2"))) void
MicroKernelI8Avx2(const int8_t* a, int64_t lda, const int8_t* bp,
                  int64_t quads, const int32_t* /*col_sums*/, int32_t* acc)
{
    __m256i sum[MR][4];
    for (int r = 0; r < MR; ++r) {
        for (int c = 0; c < 4; ++c) sum[r][c] = _mm256_setzero_si256();
    }
    for (int64_t q = 0; q < quads; ++q) {
        const int8_t* blk = bp + q * kBlockBytes;
        __m256i w[4];
        for (int c = 0; c < 4; ++c) {
            w[c] = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i*>(blk + 16 * c)));
        }
        for (int r = 0; r < MR; ++r) {
            const __m256i av = _mm256_cvtepi8_epi16(
                _mm_set1_epi32(LoadQuad(a + r * lda, q)));
            for (int c = 0; c < 4; ++c) {
                sum[r][c] =
                    _mm256_add_epi32(sum[r][c], _mm256_madd_epi16(w[c], av));
            }
        }
    }
    for (int r = 0; r < MR; ++r) {
        for (int c = 0; c < 4; c += 2) {
            // hadd gives columns (0 1 4 5 | 2 3 6 7) of the eight; the
            // 64-bit permute restores their order.
            const __m256i h = _mm256_hadd_epi32(sum[r][c], sum[r][c + 1]);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i*>(acc + r * kPanelWidth + 4 * c),
                _mm256_permute4x64_epi64(h, 0xD8));
        }
    }
}

/**
 * AVX-512-VNNI: one non-saturating `vpdpbusd` per quad and row adds the
 * four u8 x s8 products of every column to its int32 lane. The u8 side is
 * x + 128, so 128 * col_sums comes off at the end.
 */
template <int MR>
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
MicroKernelI8Vnni(const int8_t* a, int64_t lda, const int8_t* bp,
                  int64_t quads, const int32_t* col_sums, int32_t* acc)
{
    __m512i sum[MR];
    for (int r = 0; r < MR; ++r) sum[r] = _mm512_setzero_si512();
    for (int64_t q = 0; q < quads; ++q) {
        const __m512i w = _mm512_loadu_si512(bp + q * kBlockBytes);
        for (int r = 0; r < MR; ++r) {
            sum[r] = _mm512_dpbusd_epi32(
                sum[r], _mm512_set1_epi32(LoadQuad(a + r * lda, q)), w);
        }
    }
    const __m512i offset = _mm512_mullo_epi32(
        _mm512_loadu_si512(col_sums), _mm512_set1_epi32(128));
    for (int r = 0; r < MR; ++r) {
        _mm512_storeu_si512(acc + r * kPanelWidth,
                            _mm512_sub_epi32(sum[r], offset));
    }
    _mm256_zeroupper();
}
#endif

/** Rows per INT8 micro-kernel call at each level (register budget). */
template <KernelIsa kIsa>
constexpr int kI8Rows = kIsa == KernelIsa::kAvx512Vnni ? 8
                        : kIsa == KernelIsa::kAvx2     ? 2
                                                       : 4;

template <KernelIsa kIsa, int MR>
void
MicroKernelI8(const int8_t* a, int64_t lda, const int8_t* bp, int64_t quads,
              const int32_t* col_sums, int32_t* acc)
{
#ifdef LLMNPU_X86
    if constexpr (kIsa == KernelIsa::kAvx512Vnni) {
        MicroKernelI8Vnni<MR>(a, lda, bp, quads, col_sums, acc);
        return;
    } else if constexpr (kIsa == KernelIsa::kAvx2) {
        MicroKernelI8Avx2<MR>(a, lda, bp, quads, col_sums, acc);
        return;
    }
#endif
    MicroKernelI8Scalar<MR>(a, lda, bp, quads, col_sums, acc);
}

/** Copies n int8 activations (dst may equal src) in the level's encoding:
 *  u8 x + 128 for VNNI, unchanged otherwise. */
template <KernelIsa kIsa>
void
EncodeActivations(const int8_t* src, int64_t n, int8_t* dst)
{
    for (int64_t i = 0; i < n; ++i) {
        dst[i] = kIsa == KernelIsa::kAvx512Vnni
                     ? static_cast<int8_t>(static_cast<uint8_t>(src[i]) ^
                                           0x80u)
                     : src[i];
    }
}

/** Calls fn(std::integral_constant<KernelIsa, isa>()) for a runtime level
 *  the CPU supports. */
template <typename Fn>
void
WithKernelIsa(KernelIsa isa, const Fn& fn)
{
    LLMNPU_CHECK(isa <= SelectedKernelIsa());
    switch (isa) {
#ifdef LLMNPU_X86
      case KernelIsa::kAvx512Vnni:
        fn(std::integral_constant<KernelIsa, KernelIsa::kAvx512Vnni>());
        return;
      case KernelIsa::kAvx2:
        fn(std::integral_constant<KernelIsa, KernelIsa::kAvx2>());
        return;
#endif
      default:
        fn(std::integral_constant<KernelIsa, KernelIsa::kScalar>());
        return;
    }
}

KernelIsa
DetectKernelIsa()
{
#ifdef LLMNPU_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vnni")) {
        return KernelIsa::kAvx512Vnni;
    }
    if (__builtin_cpu_supports("avx2")) return KernelIsa::kAvx2;
#endif
    return KernelIsa::kScalar;
}

/**
 * Shared INT8 tile loop for rows [r0, r1) x panels [p0, p1). Writes
 * float(acc) * row_scale(row) * col_scale(col), the naive kernels' exact
 * expression; per-tensor and vector-wise kernels both route here.
 */
template <KernelIsa kIsa, typename RowScale, typename ColScale>
void
TiledI8(const int8_t* a, int64_t lda, const PackedWeightsI8& w, float* c,
        int64_t r0, int64_t r1, int64_t p0, int64_t p1,
        const RowScale& row_scale, const ColScale& col_scale)
{
    constexpr int kRows = kI8Rows<kIsa>;
    const int64_t n = w.n, quads = w.Quads();
    const int64_t lds = quads * kQuad;
    std::vector<int8_t> scratch(static_cast<size_t>((r1 - r0) * lds), 0);
    for (int64_t r = r0; r < r1; ++r) {
        EncodeActivations<kIsa>(a + r * lda, w.k,
                                scratch.data() + (r - r0) * lds);
    }
    int32_t acc[kRows * kPanelWidth];
    float wsc[kPanelWidth];
    for (int64_t p = p0; p < p1; ++p) {
        const int8_t* bp = w.data.data() + p * quads * kBlockBytes;
        const int64_t j0 = p * kPanelWidth;
        const int64_t ncols = std::min<int64_t>(kPanelWidth, n - j0);
        for (int64_t j = 0; j < ncols; ++j) wsc[j] = col_scale(j0 + j);
        ForEachBlock<kRows>(r0, r1, [&](int64_t r, auto rows) {
            constexpr int mr = decltype(rows)::value;
            MicroKernelI8<kIsa, mr>(scratch.data() + (r - r0) * lds, lds, bp,
                                    quads, w.col_sums.data() + j0, acc);
            for (int rr = 0; rr < mr; ++rr) {
                const float as = row_scale(r + rr);
                float* crow = c + (r + rr) * n + j0;
                const int32_t* arow = acc + rr * kPanelWidth;
                for (int64_t j = 0; j < ncols; ++j) {
                    crow[j] = static_cast<float>(arow[j]) * as * wsc[j];
                }
            }
        });
    }
}

/**
 * Per-group tile loop for rows [r0, r1) x panels [p0, p1). Group g's
 * activations sit in their own zero-padded run of whole quads at byte
 * seg[g] of each scratch row, so a group that starts or ends inside a
 * quad sees zeros for its neighbour's k; w.group_sums[g] holds the
 * matching VNNI column sums.
 */
template <KernelIsa kIsa>
void
TiledPerGroup(const float* a, const PackedPerGroupWeights& w, float* c,
              int64_t r0, int64_t r1, int64_t p0, int64_t p1)
{
    constexpr int kRows = kI8Rows<kIsa>;
    const PackedWeightsI8& wp = w.q;
    const int64_t k = wp.k, n = wp.n, quads = wp.Quads();
    const int64_t npad = NumPanels(n) * kPanelWidth;
    const int g_size = w.group_size;
    const int groups = w.num_groups;
    std::vector<int64_t> seg(static_cast<size_t>(groups) + 1, 0);
    for (int g = 0; g < groups; ++g) {
        const int64_t k0 = static_cast<int64_t>(g) * g_size;
        const int64_t span =
            (k0 + g_size + kQuad - 1) / kQuad - k0 / kQuad;
        seg[static_cast<size_t>(g) + 1] =
            seg[static_cast<size_t>(g)] + span * kQuad;
    }
    const int64_t lds = seg.back();
    std::vector<int8_t> scratch(static_cast<size_t>(kRows * lds));
    std::vector<float> a_scales(static_cast<size_t>(kRows * groups));
    int32_t acc[kRows * kPanelWidth];
    float cbuf[kRows * kPanelWidth];
    ForEachBlock<kRows>(r0, r1, [&](int64_t r, auto rows) {
        constexpr int mr = decltype(rows)::value;
        // Quantize the block's rows per group, with the naive kernel's
        // exact math, straight into their scratch runs.
        std::fill(scratch.begin(), scratch.end(), 0);
        for (int rr = 0; rr < mr; ++rr) {
            const float* arow = a + (r + rr) * k;
            for (int g = 0; g < groups; ++g) {
                const int64_t k0 = static_cast<int64_t>(g) * g_size;
                float absmax = 0.0f;
                for (int t = 0; t < g_size; ++t) {
                    absmax = std::max(absmax, std::abs(arow[k0 + t]));
                }
                const float a_scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
                int8_t* dst = scratch.data() + rr * lds +
                              seg[static_cast<size_t>(g)] + k0 % kQuad;
                QuantizeSpan(arow + k0, g_size, 1.0f / a_scale, dst);
                EncodeActivations<kIsa>(dst, g_size, dst);
                a_scales[static_cast<size_t>(rr * groups + g)] = a_scale;
            }
        }
        for (int64_t p = p0; p < p1; ++p) {
            const int8_t* bp = wp.data.data() + p * quads * kBlockBytes;
            const int64_t j0 = p * kPanelWidth;
            const int64_t ncols = std::min<int64_t>(kPanelWidth, n - j0);
            std::fill(cbuf, cbuf + mr * kPanelWidth, 0.0f);
            for (int g = 0; g < groups; ++g) {
                const size_t gi = static_cast<size_t>(g);
                const int64_t q0 = static_cast<int64_t>(g) * g_size / kQuad;
                MicroKernelI8<kIsa, mr>(
                    scratch.data() + seg[gi], lds, bp + q0 * kBlockBytes,
                    (seg[gi + 1] - seg[gi]) / kQuad,
                    w.group_sums.data() + static_cast<int64_t>(g) * npad +
                        j0,
                    acc);
                for (int rr = 0; rr < mr; ++rr) {
                    const float as =
                        a_scales[static_cast<size_t>(rr * groups + g)];
                    const int32_t* arow = acc + rr * kPanelWidth;
                    float* crow = cbuf + rr * kPanelWidth;
                    for (int64_t j = 0; j < ncols; ++j) {
                        crow[j] += static_cast<float>(arow[j]) * as *
                                   w.GroupScale(g, j0 + j);
                    }
                }
            }
            for (int rr = 0; rr < mr; ++rr) {
                std::copy(cbuf + rr * kPanelWidth,
                          cbuf + rr * kPanelWidth + ncols,
                          c + (r + rr) * n + j0);
            }
        }
    });
}

}  // namespace

// ------------------------------------------------------------ quantize

Tensor
QuantizePerTensorI8(const Tensor& x, float inv_scale)
{
    LLMNPU_CHECK(x.dtype() == DType::kF32);
    Tensor q(x.shape(), DType::kI8);
    const float* px = x.Data<float>();
    int8_t* pq = q.Data<int8_t>();
    ThreadPool::Global().ParallelFor(
        x.NumElements(), kQuantizeGrain, [&](int64_t i0, int64_t i1) {
            QuantizeSpan(px + i0, i1 - i0, inv_scale, pq + i0);
        });
    return q;
}

// ------------------------------------------------------------- dispatch

const char*
KernelIsaName(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::kAvx512Vnni: return "avx512_vnni";
      case KernelIsa::kAvx2: return "avx2";
      case KernelIsa::kScalar: break;
    }
    return "scalar";
}

KernelIsa
SelectedKernelIsa()
{
    static const KernelIsa isa = DetectKernelIsa();
    return isa;
}

std::vector<KernelIsa>
SupportedKernelIsas()
{
    std::vector<KernelIsa> levels;
    for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2,
                          KernelIsa::kAvx512Vnni}) {
        if (isa <= SelectedKernelIsa()) levels.push_back(isa);
    }
    return levels;
}

KernelIsa
FloatKernelIsa(KernelIsa isa)
{
#ifdef LLMNPU_F32_AVX512
    if (isa == KernelIsa::kAvx512Vnni) return KernelIsa::kAvx512Vnni;
#else
    (void)isa;
#endif
#if defined(__AVX2__) && defined(__FMA__)
    return KernelIsa::kAvx2;
#else
    return KernelIsa::kScalar;
#endif
}

// ---------------------------------------------------------------- packing

PackedWeightsF32
PackWeightsF32(const Tensor& w)
{
    LLMNPU_CHECK(w.dtype() == DType::kF32);
    PackedWeightsF32 packed;
    packed.k = w.Rows();
    packed.n = w.Cols();
    const int64_t k = packed.k, n = packed.n;
    packed.data.assign(
        static_cast<size_t>(NumPanels(n) * k * kPanelWidth), 0.0f);
    const float* src = w.Data<float>();
    for (int64_t p = 0; p < NumPanels(n); ++p) {
        const int64_t j0 = p * kPanelWidth;
        const int64_t ncols = std::min<int64_t>(kPanelWidth, n - j0);
        float* dst = packed.data.data() + p * k * kPanelWidth;
        for (int64_t kk = 0; kk < k; ++kk) {
            std::copy(src + kk * n + j0, src + kk * n + j0 + ncols,
                      dst + kk * kPanelWidth);
        }
    }
    return packed;
}

Tensor
UnpackWeightsF32(const PackedWeightsF32& w)
{
    const int64_t k = w.k, n = w.n;
    Tensor out({k, n}, DType::kF32);
    float* dst = out.Data<float>();
    for (int64_t p = 0; p < NumPanels(n); ++p) {
        const int64_t j0 = p * kPanelWidth;
        const int64_t ncols = std::min<int64_t>(kPanelWidth, n - j0);
        const float* src = w.data.data() + p * k * kPanelWidth;
        for (int64_t kk = 0; kk < k; ++kk) {
            std::copy(src + kk * kPanelWidth, src + kk * kPanelWidth + ncols,
                      dst + kk * n + j0);
        }
    }
    return out;
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
    LLMNPU_CHECK_LE(packed.k, kMaxPackedI8K);
    LLMNPU_CHECK(scales.size() == 1 ||
                 scales.size() == static_cast<size_t>(packed.n));
    const int64_t k = packed.k, n = packed.n, quads = packed.Quads();
    const int64_t panels = NumPanels(n);
    packed.data.assign(static_cast<size_t>(panels * quads * kBlockBytes), 0);
    packed.col_sums.assign(static_cast<size_t>(panels * kPanelWidth), 0);
    const int8_t* src = w_q.Data<int8_t>();
    for (int64_t p = 0; p < panels; ++p) {
        const int64_t j0 = p * kPanelWidth;
        const int64_t ncols = std::min<int64_t>(kPanelWidth, n - j0);
        int8_t* dst = packed.data.data() + p * quads * kBlockBytes;
        int32_t* sums = packed.col_sums.data() + j0;
        for (int64_t kk = 0; kk < k; ++kk) {
            const int8_t* row = src + kk * n + j0;
            int8_t* blk = dst + kk / kQuad * kBlockBytes + kk % kQuad;
            for (int64_t j = 0; j < ncols; ++j) {
                blk[j * kQuad] = row[j];
                sums[j] += row[j];
            }
        }
    }
    packed.scales = std::move(scales);
    return packed;
}

PackedPerGroupWeights
PackPerGroupWeights(const PerGroupWeights& w)
{
    PackedPerGroupWeights packed;
    packed.q = PackWeightsI8(w.q, {1.0f});
    const int64_t k = packed.q.k, n = packed.q.n;
    const int64_t npad = NumPanels(n) * kPanelWidth;
    packed.group_sums.assign(static_cast<size_t>(w.num_groups * npad), 0);
    const int8_t* pw = w.q.Data<int8_t>();
    for (int64_t kk = 0; kk < k; ++kk) {
        int32_t* sums = packed.group_sums.data() + kk / w.group_size * npad;
        for (int64_t j = 0; j < n; ++j) sums[j] += pw[kk * n + j];
    }
    packed.scales = w.scales;
    packed.group_size = w.group_size;
    packed.num_groups = w.num_groups;
    return packed;
}

// ---------------------------------------------------------------- matmuls

Tensor
MatMulF32PackedAt(KernelIsa isa, const Tensor& a, const PackedWeightsF32& w)
{
    LLMNPU_CHECK(isa <= SelectedKernelIsa());
    LLMNPU_CHECK(a.dtype() == DType::kF32);
    LLMNPU_CHECK_EQ(a.Cols(), w.k);
    const int64_t m = a.Rows(), k = w.k, n = w.n;
    // Uninitialized: the micro-kernels overwrite every element.
    Tensor c({m, n}, DType::kF32);
    const float* pa = a.Data<float>();
    float* pc = c.Data<float>();
    const bool wide = FloatKernelIsa(isa) == KernelIsa::kAvx512Vnni;
    LLMNPU_TRACE_SPAN_TILE("matmul.f32", "kernel", -1, -1, -1, "m",
                           static_cast<int>(m));
    ParallelTiles(m, NumPanels(n), k * n,
                  [&](int64_t r0, int64_t r1, int64_t p0, int64_t p1) {
        LLMNPU_TRACE_SPAN_TILE("matmul.f32.rows", "kernel", -1, -1, -1,
                               "rows", static_cast<int>(r1 - r0));
#ifdef LLMNPU_F32_AVX512
        if (wide) {
            TiledF32Avx512(pa, k, w, pc, r0, r1, p0, p1);
            return;
        }
#endif
        TiledF32(pa, k, w, pc, r0, r1, p0, p1);
    });
    (void)wide;
    return c;
}

Tensor
MatMulF32Packed(const Tensor& a, const PackedWeightsF32& w)
{
    return MatMulF32PackedAt(SelectedKernelIsa(), a, w);
}

Tensor
MatMulW8A8PerTensorPackedAt(KernelIsa isa, const Tensor& a_q, float a_scale,
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
    WithKernelIsa(isa, [&](auto level) {
        ParallelTiles(m, NumPanels(n), k * n,
                      [&](int64_t r0, int64_t r1, int64_t p0, int64_t p1) {
            LLMNPU_TRACE_SPAN_TILE("matmul.w8a8.rows", "kernel", -1, -1, -1,
                                   "rows", static_cast<int>(r1 - r0));
            TiledI8<decltype(level)::value>(
                pa, k, w, pc, r0, r1, p0, p1,
                [&](int64_t) { return a_scale; },
                [&](int64_t j) {
                    return uniform ? ws0 : ws[static_cast<size_t>(j)];
                });
        });
    });
    return c;
}

Tensor
MatMulW8A8PerTensorPacked(const Tensor& a_q, float a_scale,
                          const PackedWeightsI8& w)
{
    return MatMulW8A8PerTensorPackedAt(SelectedKernelIsa(), a_q, a_scale, w);
}

Tensor
MatMulW8A8RowColPackedAt(KernelIsa isa, const Tensor& a_q,
                         const std::vector<float>& a_scales,
                         const PackedWeightsI8& w)
{
    LLMNPU_CHECK(a_q.dtype() == DType::kI8);
    LLMNPU_CHECK_EQ(a_q.Cols(), w.k);
    const int64_t m = a_q.Rows(), k = w.k, n = w.n;
    LLMNPU_CHECK_EQ(a_scales.size(), static_cast<size_t>(m));
    LLMNPU_CHECK_EQ(w.scales.size(), static_cast<size_t>(n));
    Tensor c({m, n}, DType::kF32);
    const int8_t* pa = a_q.Data<int8_t>();
    float* pc = c.Data<float>();
    const float* as = a_scales.data();
    const float* ws = w.scales.data();
    LLMNPU_TRACE_SPAN_TILE("matmul.w8a8_rowcol", "kernel", -1, -1, -1,
                           "m", static_cast<int>(m));
    WithKernelIsa(isa, [&](auto level) {
        ParallelTiles(m, NumPanels(n), k * n,
                      [&](int64_t r0, int64_t r1, int64_t p0, int64_t p1) {
            LLMNPU_TRACE_SPAN_TILE("matmul.w8a8_rowcol.rows", "kernel", -1,
                                   -1, -1, "rows",
                                   static_cast<int>(r1 - r0));
            TiledI8<decltype(level)::value>(
                pa, k, w, pc, r0, r1, p0, p1,
                [&](int64_t row) { return as[static_cast<size_t>(row)]; },
                [&](int64_t j) { return ws[static_cast<size_t>(j)]; });
        });
    });
    return c;
}

Tensor
MatMulW8A8RowColPacked(const Tensor& a_q, const std::vector<float>& a_scales,
                       const PackedWeightsI8& w)
{
    return MatMulW8A8RowColPackedAt(SelectedKernelIsa(), a_q, a_scales, w);
}

Tensor
MatMulPerGroupPackedAt(KernelIsa isa, const Tensor& a,
                       const PackedPerGroupWeights& w)
{
    LLMNPU_CHECK(a.dtype() == DType::kF32);
    const int64_t m = a.Rows(), k = a.Cols(), n = w.q.n;
    LLMNPU_CHECK_EQ(k, w.q.k);
    Tensor c({m, n}, DType::kF32);
    const float* pa = a.Data<float>();
    float* pc = c.Data<float>();
    LLMNPU_TRACE_SPAN_TILE("matmul.pergroup", "kernel", -1, -1, -1, "m",
                           static_cast<int>(m));
    WithKernelIsa(isa, [&](auto level) {
        ParallelTiles(m, NumPanels(n), k * n,
                      [&](int64_t r0, int64_t r1, int64_t p0, int64_t p1) {
            LLMNPU_TRACE_SPAN_TILE("matmul.pergroup.rows", "kernel", -1, -1,
                                   -1, "rows", static_cast<int>(r1 - r0));
            TiledPerGroup<decltype(level)::value>(pa, w, pc, r0, r1, p0, p1);
        });
    });
    return c;
}

Tensor
MatMulPerGroupPacked(const Tensor& a, const PackedPerGroupWeights& w)
{
    return MatMulPerGroupPackedAt(SelectedKernelIsa(), a, w);
}

Tensor
MatMulRowSubset(const Tensor& a_sub, const PackedWeightsI8& w,
                const std::vector<int>& rows)
{
    LLMNPU_CHECK(a_sub.dtype() == DType::kF32);
    LLMNPU_CHECK_EQ(a_sub.Cols(), static_cast<int64_t>(rows.size()));
    const int64_t m = a_sub.Rows(), n = w.n;
    const int64_t num_rows = static_cast<int64_t>(rows.size());
    // Validate the subset once, outside the hot loop.
    for (int row : rows) {
        LLMNPU_CHECK_GE(row, 0);
        LLMNPU_CHECK_LT(row, w.k);
    }
    // Dequantize just the subset rows, compact [|rows| x N]: byte
    // 4j + kk % 4 of block kk / 4 of panel p is w[kk][16p + j].
    const bool uniform = w.scales.size() == 1;
    std::vector<float> w_sub(static_cast<size_t>(num_rows * n));
    for (int64_t t = 0; t < num_rows; ++t) {
        const int64_t kk = rows[static_cast<size_t>(t)];
        float* dst = w_sub.data() + t * n;
        for (int64_t p = 0; p < NumPanels(n); ++p) {
            const int8_t* blk = w.data.data() +
                                (p * w.Quads() + kk / kQuad) * kBlockBytes +
                                kk % kQuad;
            const int64_t j0 = p * kPanelWidth;
            const int64_t ncols = std::min<int64_t>(kPanelWidth, n - j0);
            for (int64_t j = 0; j < ncols; ++j) {
                dst[j0 + j] =
                    static_cast<float>(blk[j * kQuad]) *
                    w.scales[uniform ? 0 : static_cast<size_t>(j0 + j)];
            }
        }
    }
    Tensor c = Tensor::Zeros({m, n});
    const float* pa = a_sub.Data<float>();
    const float* pw = w_sub.data();
    float* pc = c.Data<float>();
    RowParallel(m, num_rows * n, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
            float* __restrict crow = pc + i * n;
            for (int64_t t = 0; t < num_rows; ++t) {
                const float av = pa[i * num_rows + t];
                if (av == 0.0f) continue;
                const float* __restrict wrow = pw + t * n;
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

#ifdef LLMNPU_F32_AVX512
// ---------------------------------------------- attention, AVX-512 level
//
// The same two primitives with 16-lane vectors. A zmm load at offset d
// holds the 8-float chunks d/8 and d/8 + 1: the a0 and the a1 chunk of the
// AVX2 level. One zmm accumulator [a0 | a1] per dot therefore takes every
// chunk into the lane the AVX2 level takes it into, with the same
// multiply-add, and the odd last chunk goes to its low half only (a
// blend keeps the high half). Its lo + hi is a0 + a1.
// Four levels of permute-and-add then reduce up to 16 such accumulators at
// once, each level adding the operand pairs of one step of ReduceLanes:
// (lo, hi), (i, i + 4), (i, i + 2), (0, 1). The head_dim % 8 tail stays
// scalar. The accumulate is one FMA chain per output element over j
// ascending at any vector width.

/** Dots (query rows x keys) one AVX-512 scores block reduces together. */
constexpr int kWideDots = 16;

/** Permute indices of the four reduction levels: row 2l picks the first
 *  and row 2l + 1 the second operand of each sum of level l from the 32
 *  lanes of a vector pair (a, b). */
alignas(64) constexpr int32_t kReduceIdx[8][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23},
    {8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29, 30, 31},
    {0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27},
    {4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31},
    {0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 28, 29},
    {2, 3, 6, 7, 10, 11, 14, 15, 18, 19, 22, 23, 26, 27, 30, 31},
    {0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30},
    {1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31},
};

/** One reduction level: v[i] = first + second operands picked from the
 *  pair (v[2i], v[2i + 1]), for the (N + 1) / 2 pairs of N vectors (an
 *  odd last vector pairs with itself). */
template <int N>
__attribute__((target("avx512f"), always_inline)) inline void
ReduceLevel(__m512* v, int level)
{
    const __m512i first = _mm512_load_si512(kReduceIdx[2 * level]);
    const __m512i second = _mm512_load_si512(kReduceIdx[2 * level + 1]);
#pragma GCC unroll 8
    for (int i = 0; i < (N + 1) / 2; ++i) {
        const __m512 a = v[2 * i];
        const __m512 b = v[2 * i + 1 < N ? 2 * i + 1 : 2 * i];
        v[i] = _mm512_add_ps(_mm512_permutex2var_ps(a, first, b),
                             _mm512_permutex2var_ps(a, second, b));
    }
}

/**
 * R query rows x KB keys of the scores primitive (R * KB <= kWideDots):
 * accumulator r * KB + j holds dot (r, j), and after the four levels lane
 * r * KB + j of acc[0] holds its reduced sum.
 */
template <int R, int KB>
__attribute__((target("avx512f"))) void
ScoresBlockAvx512(const float* q, int64_t q_stride, const float* k,
                  int64_t stride, int head_dim, float scale, float* scores,
                  int64_t ld)
{
    constexpr int N = R * KB;
    static_assert(N <= kWideDots, "one reduced vector per block");
    __m512 acc[N];
#pragma GCC unroll 16
    for (int i = 0; i < N; ++i) acc[i] = _mm512_setzero_ps();
    int d = 0;
    for (; d + 16 <= head_dim; d += 16) {
        __m512 qv[R];
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            qv[r] = _mm512_loadu_ps(q + r * q_stride + d);
        }
#pragma GCC unroll 16
        for (int j = 0; j < KB; ++j) {
            const __m512 kv = _mm512_loadu_ps(k + j * stride + d);
#pragma GCC unroll 4
            for (int r = 0; r < R; ++r) {
                acc[r * KB + j] += qv[r] * kv;
            }
        }
    }
    if (d + 8 <= head_dim) {
        const __mmask16 lo = 0x00FF;
        __m512 qv[R];
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            qv[r] = _mm512_maskz_loadu_ps(lo, q + r * q_stride + d);
        }
#pragma GCC unroll 16
        for (int j = 0; j < KB; ++j) {
            const __m512 kv = _mm512_maskz_loadu_ps(lo, k + j * stride + d);
#pragma GCC unroll 4
            for (int r = 0; r < R; ++r) {
                acc[r * KB + j] = _mm512_mask_blend_ps(
                    lo, acc[r * KB + j], acc[r * KB + j] + qv[r] * kv);
            }
        }
        d += 8;
    }
    ReduceLevel<N>(acc, 0);
    ReduceLevel<(N + 1) / 2>(acc, 1);
    ReduceLevel<(N + 3) / 4>(acc, 2);
    ReduceLevel<(N + 7) / 8>(acc, 3);
    alignas(64) float dots[kWideDots];
    if (d == head_dim) {
        _mm512_store_ps(dots, _mm512_mul_ps(acc[0], _mm512_set1_ps(scale)));
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            std::memcpy(scores + r * ld, dots + r * KB, KB * sizeof(float));
        }
        _mm256_zeroupper();
        return;
    }
    _mm512_store_ps(dots, acc[0]);
    _mm256_zeroupper();
    for (int r = 0; r < R; ++r) {
        const float* qr = q + r * q_stride;
        for (int j = 0; j < KB; ++j) {
            const float* kj = k + j * stride;
            float dot = dots[r * KB + j];
            for (int t = d; t < head_dim; ++t) dot = MulAdd(qr[t], kj[t], dot);
            scores[r * ld + j] = dot * scale;
        }
    }
}

/** out_r[c] += w_r[j] * v_j[c] over 16*V columns, j ascending. */
template <int R, int V>
__attribute__((target("avx512f"))) void
AccumulateColumnsAvx512(const float* w, int64_t ld, const float* v,
                        int64_t stride, int64_t n, float* out,
                        int64_t out_stride)
{
    __m512 acc[R][V];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
        for (int c = 0; c < V; ++c) {
            acc[r][c] = _mm512_loadu_ps(out + r * out_stride + 16 * c);
        }
    }
    for (int64_t j = 0; j < n; ++j, v += stride) {
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const __m512 wr = _mm512_set1_ps(w[r * ld + j]);
#pragma GCC unroll 8
            for (int c = 0; c < V; ++c) {
                acc[r][c] += wr * _mm512_loadu_ps(v + 16 * c);
            }
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
        for (int c = 0; c < V; ++c) {
            _mm512_storeu_ps(out + r * out_stride + 16 * c, acc[r][c]);
        }
    }
    _mm256_zeroupper();
}

/** AccumulateColumnBlocks with 16-lane vectors. */
template <int R, int V>
void
AccumulateColumnBlocksAvx512(const float* w, int64_t ld, const float* v,
                             int64_t stride, int64_t n, int head_dim, int& d,
                             float* out, int64_t out_stride)
{
    for (; d + 16 * V <= head_dim; d += 16 * V) {
        AccumulateColumnsAvx512<R, V>(w, ld, v + d, stride, n, out + d,
                                      out_stride);
    }
    if constexpr (V > 1) {
        AccumulateColumnBlocksAvx512<R, V / 2>(w, ld, v, stride, n, head_dim,
                                               d, out, out_stride);
    }
}

// ---------------------------------------------------- exp, AVX-512 level
//
// glibc's expf (2.28 and later, sysdeps/ieee754/flt-32/e_expf.c) eight
// lanes wide in double, in the FMA form that x86-64 glibc runs on every
// CPU with AVX-512, where GCC fuses the multiply into both uses of
// z = InvLn2N * x. With glibc's constants, each lane with |x| < 88 is
//   kd = fma(InvLn2N, x, Shift), ki = bits(kd), kd -= Shift,
//   r = fma(InvLn2N, x, -kd), s = asdouble(T[ki % 32] + (ki << 47)),
//   (float)(fma(fma(C0, r, C1), r * r, fma(C2, r, 1)) * s),
// which rounds exactly as std::exp(float) does. Lanes with |x| >= 88 or
// NaN (overflow, underflow, infinities: glibc's special path, which also
// sets errno) call std::exp. Every step is an explicit intrinsic, so no
// compiler contraction can change a rounding.

/** glibc's __exp2f_data.tab: bits(2^(i/32)) - (i << 47). */
alignas(64) constexpr uint64_t kExp2fTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

/** std::exp of the eight floats of x, bit for bit (see above). */
__attribute__((target("avx512f"), always_inline)) inline __m256
ExpF32x8(__m256 x)
{
    const __m512d inv_ln2_n = _mm512_set1_pd(0x1.71547652b82fep+0 * 32);
    const __m512d shift = _mm512_set1_pd(0x1.8p+52);
    // The maskz forms: GCC 12 reports the unmasked ones' undefined
    // pass-through operand as maybe-uninitialized.
    const __m512d xd = _mm512_maskz_cvtps_pd(0xff, x);
    const __m512d kd_shifted = _mm512_fmadd_pd(inv_ln2_n, xd, shift);
    const __m512i ki = _mm512_castpd_si512(kd_shifted);
    const __m512d r = _mm512_fmsub_pd(inv_ln2_n, xd,
                                      _mm512_sub_pd(kd_shifted, shift));
    // T[ki % 32]: each permute reads index bits 0-3 of a 16-entry half,
    // and bit 4 picks the half.
    const __m512i* table = reinterpret_cast<const __m512i*>(kExp2fTable);
    const __m512i t = _mm512_mask_blend_epi64(
        _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)),
        _mm512_permutex2var_epi64(_mm512_load_si512(table), ki,
                                  _mm512_load_si512(table + 1)),
        _mm512_permutex2var_epi64(_mm512_load_si512(table + 2), ki,
                                  _mm512_load_si512(table + 3)));
    const __m512d s = _mm512_castsi512_pd(
        _mm512_add_epi64(t, _mm512_maskz_slli_epi64(0xff, ki, 47)));
    const __m512d c0r_c1 =
        _mm512_fmadd_pd(_mm512_set1_pd(0x1.c6af84b912394p-5 / 32 / 32 / 32),
                        r, _mm512_set1_pd(0x1.ebfce50fac4f3p-3 / 32 / 32));
    const __m512d c2r_1 =
        _mm512_fmadd_pd(_mm512_set1_pd(0x1.62e42ff0c52d6p-1 / 32), r,
                        _mm512_set1_pd(1.0));
    const __m512d y = _mm512_mul_pd(
        _mm512_fmadd_pd(c0r_c1, _mm512_mul_pd(r, r), c2r_1), s);
    __m256 out = _mm512_maskz_cvtpd_ps(0xff, y);
    const __mmask8 special = _mm512_cmp_pd_mask(
        _mm512_abs_pd(xd), _mm512_set1_pd(88.0), _CMP_NLT_UQ);
    if (special != 0) {
        alignas(32) float xs[8];
        alignas(32) float ys[8];
        _mm256_store_ps(xs, x);
        _mm256_store_ps(ys, out);
        _mm256_zeroupper();  // std::exp runs SSE code
        for (int l = 0; l < 8; ++l) {
            if ((special >> l) & 1) ys[l] = std::exp(xs[l]);
        }
        out = _mm256_load_ps(ys);
    }
    return out;
}

/** out[i] = exp(x[i]) over the whole eights of [0, n) (out may be x);
 *  returns where they end. */
__attribute__((target("avx512f"))) int64_t
ExpAvx512(const float* x, int64_t n, float* out)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, ExpF32x8(_mm256_loadu_ps(x + i)));
    }
    _mm256_zeroupper();
    return i;
}

/** p[i] = p[i] / (1 + exp(-p[i])), times up[i] when `up` is set, over the
 *  whole eights of [0, n); returns where they end. The negation, add,
 *  divide and multiply are single IEEE operations at any width. */
__attribute__((target("avx512f"))) int64_t
SiluAvx512(float* p, const float* up, int64_t n)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    const __m256 one = _mm256_set1_ps(1.0f);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(p + i);
        __m256 a = _mm256_div_ps(
            v, _mm256_add_ps(one, ExpF32x8(_mm256_xor_ps(v, sign))));
        if (up != nullptr) a = _mm256_mul_ps(a, _mm256_loadu_ps(up + i));
        _mm256_storeu_ps(p + i, a);
    }
    _mm256_zeroupper();
    return i;
}
#endif

/**
 * The scores primitive of level kWide (AVX-512 when true) over a run of n
 * K rows. The AVX-512 level reduces R rows x kWideDots / R keys at once,
 * then halves the key block for the run's last keys.
 */
template <bool kWide, int R>
void
ScoresRun(const float* q, int64_t q_stride, const float* k, int64_t stride,
          int64_t n, int head_dim, float scale, float* scores, int64_t ld)
{
#ifdef LLMNPU_F32_AVX512
    if constexpr (kWide) {
        constexpr int kKeys = R == 3 ? 4 : kWideDots / R;
        ForEachBlock<kKeys>(0, n, [&](int64_t j, auto keys) {
            ScoresBlockAvx512<R, decltype(keys)::value>(
                q, q_stride, k + j * stride, stride, head_dim, scale,
                scores + j, ld);
        });
        return;
    }
#endif
    AttentionScoresRun<R>(q, q_stride, k, stride, n, head_dim, scale, scores,
                          ld);
}

/**
 * Accumulate primitive: out_r += w_r[j] * v_j for R output rows
 * (out_stride apart) over a run of n V rows (stride apart), j ascending.
 * Column blocks hold about eight vector chains in total, so the j-ordered
 * chains do not leave the FMA units waiting on latency. The AVX-512 level
 * covers whole 16-column blocks first; an 8-column chunk left over and the
 * head_dim % 8 tail run as at the AVX2 level.
 */
template <bool kWide, int R>
void
AttentionAccumulateRun(const float* w, int64_t ld, const float* v,
                       int64_t stride, int64_t n, int head_dim, float* out,
                       int64_t out_stride)
{
    constexpr int kChains = R >= 4 ? 2 : 8 / R;
    int d = 0;
#ifdef LLMNPU_F32_AVX512
    if constexpr (kWide) {
        AccumulateColumnBlocksAvx512<R, kChains>(w, ld, v, stride, n,
                                                 head_dim, d, out,
                                                 out_stride);
    }
#endif
    AccumulateColumnBlocks<R, kChains>(w, ld, v, stride, n, head_dim, d,
                                       out, out_stride);
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

/** out[i] = std::exp(x[i]) over [0, n) at level kWide (out may be x). */
template <bool kWide>
void
ExpSpan(const float* x, int64_t n, float* out)
{
    int64_t i = 0;
#ifdef LLMNPU_F32_AVX512
    if constexpr (kWide) i = ExpAvx512(x, n, out);
#endif
    for (; i < n; ++i) out[i] = std::exp(x[i]);
}

/**
 * Softmax over n scores, in place: max, exp, a double sum, then one
 * multiply by the float reciprocal per weight. The max is exact in any
 * order, so it runs eight lanes wide; the sum keeps four partial sums by
 * position mod 4, an order fixed by n alone. The exp is std::exp's, eight
 * lanes at a time at the AVX-512 level.
 */
template <bool kWide>
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
    for (int64_t j = 0; j < n; ++j) s[j] -= mx;
    ExpSpan<kWide>(s, n, s);
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
template <bool kWide, int R>
void
AttendRowBlock(const float* q, int64_t q_stride, int64_t visible,
               const KvHeadRows& kv, int head_dim, float scale,
               float* scores, int64_t ld, float* out, int64_t out_stride)
{
    ForEachKvRun(kv, 0, visible + R - 1,
                 [&](int64_t j, const float* k, const float*, int64_t len) {
                     ScoresRun<kWide, R>(q, q_stride, k, kv.stride, len,
                                         head_dim, scale, scores + j, ld);
                 });
    for (int r = 0; r < R; ++r) {
        SoftmaxWeights<kWide>(scores + r * ld, visible + r);
        std::fill(out + r * out_stride, out + r * out_stride + head_dim,
                  0.0f);
    }
    ForEachKvRun(kv, 0, visible,
                 [&](int64_t j, const float*, const float* v, int64_t len) {
                     AttentionAccumulateRun<kWide, R>(scores + j, ld, v,
                                                      kv.stride, len,
                                                      head_dim, out,
                                                      out_stride);
                 });
    for (int r = 1; r < R; ++r) {
        float* w = scores + r * ld;
        float* o = out + r * out_stride;
        ForEachKvRun(
            kv, visible, visible + r,
            [&](int64_t j, const float*, const float* v, int64_t len) {
                AttentionAccumulateRun<kWide, 1>(w + j, ld, v, kv.stride,
                                                 len, head_dim, o,
                                                 out_stride);
            });
    }
}

/** CausalAttentionHead at level kWide: row blocks of kAttnRowBlock, then
 *  the rows left over as one smaller block. */
template <bool kWide>
void
AttendRows(const float* q, int64_t q_stride, int64_t rows, int64_t first_pos,
           const KvHeadRows& kv, int head_dim, float* out,
           int64_t out_stride)
{
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    const int64_t ld = first_pos + rows;
    std::vector<float> scores(
        static_cast<size_t>(std::min<int64_t>(rows, kAttnRowBlock) * ld));
    int64_t r = 0;
    for (; r + kAttnRowBlock <= rows; r += kAttnRowBlock) {
        AttendRowBlock<kWide, kAttnRowBlock>(
            q + r * q_stride, q_stride, first_pos + r + 1, kv, head_dim,
            scale, scores.data(), ld, out + r * out_stride, out_stride);
    }
    const float* qr = q + r * q_stride;
    float* outr = out + r * out_stride;
    switch (rows - r) {
      case 3:
        AttendRowBlock<kWide, 3>(qr, q_stride, first_pos + r + 1, kv,
                                 head_dim, scale, scores.data(), ld, outr,
                                 out_stride);
        break;
      case 2:
        AttendRowBlock<kWide, 2>(qr, q_stride, first_pos + r + 1, kv,
                                 head_dim, scale, scores.data(), ld, outr,
                                 out_stride);
        break;
      case 1:
        AttendRowBlock<kWide, 1>(qr, q_stride, first_pos + r + 1, kv,
                                 head_dim, scale, scores.data(), ld, outr,
                                 out_stride);
        break;
      default: break;
    }
}

}  // namespace

void
CausalAttentionHeadAt(KernelIsa isa, const float* q, int64_t q_stride,
                      int64_t rows, int64_t first_pos, const KvHeadRows& kv,
                      int head_dim, float* out, int64_t out_stride)
{
    LLMNPU_CHECK(isa <= SelectedKernelIsa());
    if (rows <= 0) return;
    LLMNPU_CHECK_GT(kv.page_size, 0);
    LLMNPU_CHECK_GE(first_pos, 0);
    if (FloatKernelIsa(isa) == KernelIsa::kAvx512Vnni) {
        AttendRows<true>(q, q_stride, rows, first_pos, kv, head_dim, out,
                         out_stride);
    } else {
        AttendRows<false>(q, q_stride, rows, first_pos, kv, head_dim, out,
                          out_stride);
    }
}

void
CausalAttentionHead(const float* q, int64_t q_stride, int64_t rows,
                    int64_t first_pos, const KvHeadRows& kv, int head_dim,
                    float* out, int64_t out_stride)
{
    CausalAttentionHeadAt(SelectedKernelIsa(), q, q_stride, rows, first_pos,
                          kv, head_dim, out, out_stride);
}

// ------------------------------------------------------------- exp, SiLU

void
ExpF32At(KernelIsa isa, const float* x, int64_t n, float* out)
{
    LLMNPU_CHECK(isa <= SelectedKernelIsa());
    if (FloatKernelIsa(isa) == KernelIsa::kAvx512Vnni) {
        ExpSpan<true>(x, n, out);
    } else {
        ExpSpan<false>(x, n, out);
    }
}

void
SiluSpan(float* p, const float* up, int64_t n)
{
    int64_t i = 0;
#ifdef LLMNPU_F32_AVX512
    if (FloatKernelIsa(SelectedKernelIsa()) == KernelIsa::kAvx512Vnni) {
        i = SiluAvx512(p, up, n);
    }
#endif
    for (; i < n; ++i) {
        const float a = p[i] / (1.0f + std::exp(-p[i]));
        p[i] = up != nullptr ? a * up[i] : a;
    }
}

}  // namespace llmnpu
