/**
 * @file
 * Float transformer operators: the "orange" ops of Figure 5 that stay in
 * floating point in every quantized inference pipeline (Table 4) —
 * normalization, attention, activation functions, RoPE.
 */
#ifndef LLMNPU_TENSOR_OPS_H
#define LLMNPU_TENSOR_OPS_H

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace llmnpu {

/** Row-wise numerically-stable softmax, in place, on a rank-2 f32 tensor. */
void SoftmaxRowsInPlace(Tensor& x);

/** LayerNorm over the last dimension with learned gain/bias. */
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

/** RMSNorm over the last dimension with learned gain (LlaMA-style). */
Tensor RMSNorm(const Tensor& x, const Tensor& gamma, float eps = 1e-6f);

/** SiLU (x * sigmoid(x)), in place. */
void SiluInPlace(Tensor& x);

/** GeLU (tanh approximation), in place. */
void GeluInPlace(Tensor& x);

/** Elementwise a + b. */
Tensor Add(const Tensor& a, const Tensor& b);

/** Elementwise a += b. */
void AddInPlace(Tensor& a, const Tensor& b);

/** Elementwise a * b. */
Tensor Mul(const Tensor& a, const Tensor& b);

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

    /** Rotates rows [row_begin, row_begin + Rows()) of `x` in place; `x`
     *  packs num_heads heads of head_dim per row. */
    void Apply(Tensor& x, int num_heads, int64_t row_begin = 0) const;

    int64_t
    Rows() const
    {
        return static_cast<int64_t>(cos_.size()) / (head_dim_ / 2);
    }

  private:
    int head_dim_;
    std::vector<float> cos_;  ///< [rows x head_dim/2]
    std::vector<float> sin_;  ///< [rows x head_dim/2]
};

/**
 * Applies rotary position embeddings in place.
 *
 * @param x [seq x (heads * head_dim)] packed Q or K rows.
 * @param num_heads number of heads packed into the row.
 * @param head_dim per-head dimension (must be even).
 * @param pos_offset global position of row 0 (for chunked prefill).
 * @param theta RoPE base (10000 for all paper models).
 */
void ApplyRope(Tensor& x, int num_heads, int head_dim, int64_t pos_offset,
               float theta = 10000.0f);

/**
 * ApplyRope restricted to rows [row_begin, row_begin + row_count) of `x`,
 * with row `row_begin` at global position `pos_offset`. Bitwise identical
 * to calling the whole-tensor overload on a copy of the segment.
 */
void ApplyRopeRows(Tensor& x, int64_t row_begin, int64_t row_count,
                   int num_heads, int head_dim, int64_t pos_offset,
                   float theta = 10000.0f);

/**
 * Causal multi-head attention with grouped-query support.
 *
 * The Q rows sit at global positions [q_pos_offset, q_pos_offset + q_len);
 * K/V hold *all* positions [0, kv_len). Row i of Q may attend to K/V
 * positions <= q_pos_offset + i — this is exactly the chunk-level causal
 * dependency that makes chunk-wise prefill equivalent to full prefill
 * (paper §3.2).
 *
 * @param q [q_len x (num_heads * head_dim)]
 * @param k [kv_len x (num_kv_heads * head_dim)]
 * @param v [kv_len x (num_kv_heads * head_dim)]
 * @return [q_len x (num_heads * head_dim)]
 */
Tensor CausalAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                       int num_heads, int num_kv_heads, int64_t q_pos_offset);

}  // namespace llmnpu

#endif  // LLMNPU_TENSOR_OPS_H
