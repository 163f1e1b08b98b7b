/**
 * @file
 * Runtime ISA dispatch of the INT8 micro-kernels (src/tensor/kernels.cc).
 *
 * The level is chosen once, at the first INT8 matmul, from
 * __builtin_cpu_supports; there is no override. Every level computes the
 * same exact int32 sums on the same packed layout (matmul.h), so the level
 * changes speed only. The *At entry points run one explicit level; they
 * exist so tests can check every level the host supports against the
 * naive oracles.
 */
#ifndef LLMNPU_TENSOR_KERNEL_ISA_H
#define LLMNPU_TENSOR_KERNEL_ISA_H

#include <vector>

#include "src/tensor/matmul.h"

namespace llmnpu {

/** INT8 micro-kernel levels, slowest first. */
enum class KernelIsa { kScalar, kAvx2, kAvx512Vnni };

/** "scalar", "avx2" or "avx512_vnni". */
const char* KernelIsaName(KernelIsa isa);

/** The level every public INT8 kernel runs: the best one the CPU has. */
KernelIsa SelectedKernelIsa();

/** Every level the CPU can run, from kScalar up to SelectedKernelIsa(). */
std::vector<KernelIsa> SupportedKernelIsas();

/** MatMulW8A8PerTensorPacked at an explicit level. */
Tensor MatMulW8A8PerTensorPackedAt(KernelIsa isa, const Tensor& a_q,
                                   float a_scale, const PackedWeightsI8& w);

/** MatMulW8A8RowCol at an explicit level. */
Tensor MatMulW8A8RowColAt(KernelIsa isa, const Tensor& a_q,
                          const std::vector<float>& a_scales,
                          const Tensor& w_q,
                          const std::vector<float>& w_scales);

/** MatMulPerGroup at an explicit level. */
Tensor MatMulPerGroupAt(KernelIsa isa, const Tensor& a,
                        const PerGroupWeights& w);

}  // namespace llmnpu

#endif  // LLMNPU_TENSOR_KERNEL_ISA_H
