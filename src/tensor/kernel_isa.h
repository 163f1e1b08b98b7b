/**
 * @file
 * Runtime ISA dispatch of the numeric-plane kernels (src/tensor/
 * kernels.cc): the INT8 micro-kernels and the float kernels (the f32
 * matmul, the attention primitives, and the exp of the softmax and of
 * SiLU).
 *
 * The level is chosen once, at the first kernel call, from
 * __builtin_cpu_supports; there is no override. Every INT8 level computes
 * the same exact int32 sums on the same packed layout (matmul.h). The
 * float kernels have two levels where kernels.cc is built with FMA: the
 * AVX2 code the TU is compiled for, and an AVX-512 level used when the CPU
 * passes the kAvx512Vnni check. The AVX-512 level keeps every output
 * element's chain of multiply-adds, written as the same expressions so the
 * compiler fuses both levels alike, and every reduction tree of the AVX2
 * level, so it agrees with it bit for bit. Its exp is glibc's expf
 * (2.28 and later) run eight lanes wide in double, so it returns
 * std::exp's bits where the AVX2 and scalar levels call std::exp; a libm
 * with another expf fails ExpMatchesStdExpBitwise (kernels_test) rather
 * than changing a result unnoticed. Built without FMA, the AVX2
 * code cannot fuse while AVX-512F code can, so the AVX-512 level is never
 * used. Either way the level changes speed only. The *At entry points run
 * one explicit level; they exist so tests can check every level the host
 * supports against the naive oracles and against each other.
 */
#ifndef LLMNPU_TENSOR_KERNEL_ISA_H
#define LLMNPU_TENSOR_KERNEL_ISA_H

#include <vector>

#include "src/tensor/attention_kernel.h"
#include "src/tensor/matmul.h"

namespace llmnpu {

/** Kernel levels, slowest first. */
enum class KernelIsa { kScalar, kAvx2, kAvx512Vnni };

/** "scalar", "avx2" or "avx512_vnni". */
const char* KernelIsaName(KernelIsa isa);

/** The level every public kernel runs: the best one the CPU has. */
KernelIsa SelectedKernelIsa();

/** Every level the CPU can run, from kScalar up to SelectedKernelIsa(). */
std::vector<KernelIsa> SupportedKernelIsas();

/**
 * The level the float kernels run when asked for `isa`: kAvx512Vnni
 * (AVX-512F code) where kernels.cc is built with FMA and isa is
 * kAvx512Vnni; below that, the code kernels.cc is compiled for: kAvx2 with
 * AVX2 and FMA, else kScalar (portable vector extensions).
 */
KernelIsa FloatKernelIsa(KernelIsa isa);

/** MatMulF32Packed at an explicit level. */
Tensor MatMulF32PackedAt(KernelIsa isa, const Tensor& a,
                         const PackedWeightsF32& w);

/** CausalAttentionHead at an explicit level. */
void CausalAttentionHeadAt(KernelIsa isa, const float* q, int64_t q_stride,
                           int64_t rows, int64_t first_pos,
                           const KvHeadRows& kv, int head_dim, float* out,
                           int64_t out_stride);

/**
 * out[i] = std::exp(x[i]) over [0, n) at an explicit level: the exp of the
 * attention softmax and of SiLU. The AVX-512 float level computes glibc's
 * expf algorithm eight lanes at a time, so it returns std::exp's bits.
 */
void ExpF32At(KernelIsa isa, const float* x, int64_t n, float* out);

/**
 * p[i] = p[i] / (1 + std::exp(-p[i])), then times up[i] unless `up` is
 * null, over [0, n) at the selected float level: the SiLU pass of
 * ActInPlace and GatedActInPlace (ops.h). Each level gives the same bits.
 */
void SiluSpan(float* p, const float* up, int64_t n);

/** MatMulW8A8PerTensorPacked at an explicit level. */
Tensor MatMulW8A8PerTensorPackedAt(KernelIsa isa, const Tensor& a_q,
                                   float a_scale, const PackedWeightsI8& w);

/** MatMulW8A8RowColPacked at an explicit level. */
Tensor MatMulW8A8RowColPackedAt(KernelIsa isa, const Tensor& a_q,
                                const std::vector<float>& a_scales,
                                const PackedWeightsI8& w);

/** MatMulPerGroupPacked at an explicit level. */
Tensor MatMulPerGroupPackedAt(KernelIsa isa, const Tensor& a,
                              const PackedPerGroupWeights& w);

}  // namespace llmnpu

#endif  // LLMNPU_TENSOR_KERNEL_ISA_H
