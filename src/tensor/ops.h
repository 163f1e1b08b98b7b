/**
 * @file
 * Float transformer operators: the "orange" ops of Figure 5 that stay in
 * floating point in every quantized inference pipeline (Table 4) —
 * normalization, activation functions, RoPE. Attention is the fused
 * PagedCausalAttention (src/model/paged_attention.h).
 *
 * The norm, residual, activation and RoPE passes are row-parallel: each
 * splits its rows over ThreadPool::Global() through RowParallel
 * (row_parallel.h), inline below kParallelWorkCutoff elements. The passes
 * the transformer block runs back to back on the same rows are fused
 * (AddNormInPlace, GatedActInPlace, RopeTable::Apply over Q and K), so
 * each gap between two linears is one pass.
 *
 * Bitwise rule: every element keeps its exact expression and operand
 * order, whatever thread computes its row. The norms accumulate each row
 * serially in double; act(gate) is rounded to float before the multiply
 * by up. So results do not depend on the thread count, and equal the
 * per-element serial formulas (tests/support/epilogue_reference.h,
 * rope_reference.h). ops.cc keeps the portable compile flags on purpose:
 * with -mfma the compiler may contract RoPE's x0 * cos - x1 * sin into
 * one fused multiply-add, which rounds once instead of twice and changes
 * the bits. SiLU's pass is the exception: its span is SiluSpan
 * (kernel_isa.h), whose AVX-512 level computes std::exp's bits eight
 * lanes at a time, and it has no multiply-add to contract.
 */
#ifndef LLMNPU_TENSOR_OPS_H
#define LLMNPU_TENSOR_OPS_H

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace llmnpu {

/** Normalization operator used by a model (always float, Table 4):
 *  RMSNorm (gain, eps 1e-6) or LayerNorm (gain and bias, eps 1e-5). */
enum class NormKind { kRMSNorm, kLayerNorm };

/** FFN activation function: SiLU, or GeLU in its tanh approximation. */
enum class ActKind { kSiLU, kGeLU };

/**
 * Normalizes every row of rank-2 `x` over its last dimension with learned
 * gain `gamma`; `beta` is the LayerNorm bias, unread by RMSNorm.
 */
Tensor Norm(NormKind kind, const Tensor& x, const Tensor& gamma,
            const Tensor& beta);

/**
 * The residual add and the next norm in one pass: h += delta, then
 * @return Norm(kind, h, gamma, beta).
 */
Tensor AddNormInPlace(NormKind kind, Tensor& h, const Tensor& delta,
                      const Tensor& gamma, const Tensor& beta);

/** x = act(x), in place (the ungated FFN). */
void ActInPlace(ActKind act, Tensor& x);

/** gate = act(gate) * up, in place (the gated FFN). */
void GatedActInPlace(ActKind act, Tensor& gate, const Tensor& up);

/** Elementwise a += b. */
void AddInPlace(Tensor& a, const Tensor& b);

/**
 * Rotary position embedding factors for a stack of rows, each row at its
 * own position: the float cos/sin of every (row, frequency) pair, computed
 * once and then applied to any number of heads and tensors (the Q and K
 * of every layer of a forward step). The angles are the double-precision
 * pos * theta^(-2d/head_dim) of the per-element formula, so applying a
 * table is bitwise identical to evaluating that formula per element.
 */
class RopeTable
{
  public:
    /**
     * @param positions global position of each row.
     * @param head_dim per-head dimension (must be even).
     * @param theta RoPE base (10000 for all paper models).
     */
    RopeTable(const std::vector<int64_t>& positions, int head_dim,
              float theta = 10000.0f);

    /** Rotates every row of `q` and of `k` in place, in one pass (a
     *  forward step's Q and K, each packing its own head count of
     *  head_dim per row). */
    void Apply(Tensor& q, int q_heads, Tensor& k, int k_heads) const;

    int64_t
    Rows() const
    {
        return static_cast<int64_t>(cos_.size()) / (head_dim_ / 2);
    }

  private:
    /** Rotates rows [s0, s1) of `x` by the same rows of the table. */
    void Rotate(Tensor& x, int num_heads, int64_t s0, int64_t s1) const;

    int head_dim_;
    std::vector<float> cos_;  ///< [rows x head_dim/2]
    std::vector<float> sin_;  ///< [rows x head_dim/2]
};

}  // namespace llmnpu

#endif  // LLMNPU_TENSOR_OPS_H
