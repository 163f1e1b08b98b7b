/**
 * @file
 * The f32 row-subset matmul as MatMulRowSubset ran it before the shadow
 * term read INT8 panels: a serial loop over a row-major float weight
 * matrix. MatMulRowSubset on packed INT8 weights must match it bit for
 * bit when `w` is the DequantizePerColumn of the same weights.
 */
#ifndef LLMNPU_TESTS_SUPPORT_ROW_SUBSET_REFERENCE_H
#define LLMNPU_TESTS_SUPPORT_ROW_SUBSET_REFERENCE_H

#include <vector>

#include "src/tensor/tensor.h"

namespace llmnpu {

/**
 * C = A_sub @ W[rows, :] with W a [K x N] f32 matrix: each output a
 * k-ascending chain over the subset that skips zero activations. Built
 * with the flags of src/tensor/kernels.cc, so the compiler contracts its
 * multiply-adds exactly as it does the kernel's.
 */
Tensor ReferenceRowSubset(const Tensor& a_sub, const Tensor& w,
                          const std::vector<int>& rows);

/** Whether this file, built with the flags of src/tensor/kernels.cc, has
 *  FMA: the build condition of the AVX-512 float level (kernel_isa.h). */
bool KernelFlagsHaveFma();

}  // namespace llmnpu

#endif  // LLMNPU_TESTS_SUPPORT_ROW_SUBSET_REFERENCE_H
