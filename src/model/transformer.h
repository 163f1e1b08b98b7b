/**
 * @file
 * Reference decoder-only transformer with pluggable linear executors.
 *
 * The forward pass follows Figure 5: norms, RoPE and attention are always
 * computed in float ("orange" ops), while every linear projection is routed
 * through a LinearExecutor ("blue" ops) — the fp32 reference executor, any of
 * the baseline quantizers in src/quant, or llm.npu's shadow-outlier executor.
 * This is what makes accuracy comparisons apples-to-apples: all algorithms
 * share one forward implementation and differ only in the matmul kernel.
 */
#ifndef LLMNPU_MODEL_TRANSFORMER_H
#define LLMNPU_MODEL_TRANSFORMER_H

#include <memory>
#include <string>
#include <vector>

#include "src/model/batched_kv_cache.h"
#include "src/model/placement.h"
#include "src/model/weights.h"
#include "src/tensor/tensor.h"

namespace llmnpu {

class DecodeBackend;
class RopeTable;

/**
 * Segment boundaries of a stacked batch activation: rows
 * [segments[i], segments[i+1]) of the [sum(m_i) x k] tensor belong to
 * sequence i. Size B+1 with segments[0] == 0 and segments[B] == rows.
 */
using BatchSegments = std::vector<int64_t>;

/** Panics unless `segments` is a proper partition of x's rows (size >= 2,
 *  starts at 0, strictly increasing, ends at x.Rows()). Every ForwardBatch
 *  implementation that dereferences the segment bounds must call this. */
void CheckBatchSegments(const Tensor& x, const BatchSegments& segments);

/** Computes y = Linear(layer, kind)(x); implementations choose the kernel. */
class LinearExecutor
{
  public:
    virtual ~LinearExecutor() = default;

    /**
     * The one entry point every executor implements: `x` stacks B
     * sequences' activations row-block by row-block ([sum(m_i) x k],
     * boundaries in `segments`); @return the stacked [sum(m_i) x n]
     * outputs.
     *
     * Contract: rows of the result are bitwise identical to calling
     * ForwardBatch on each segment alone. Executors whose per-row math is
     * independent of the other rows (fp32, static-scale and per-row-scale
     * quantizers, the shadow executor's NPU term) run the stack as one
     * kernel call, so B concurrent m=1 matvecs become a single m=B tiled
     * matmul. An executor with batch-global dynamics (PerTensorExecutor
     * derives its activation scale from all rows of x) forwards each
     * segment alone — a stacked call would change every sequence's
     * quantization grid.
     */
    virtual Tensor ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                                const BatchSegments& segments) = 0;

    /** One-sequence call: ForwardBatch(layer, kind, x, {0, x.Rows()}).
     *  Executors do not override it; it is virtual only for the
     *  benchmark's tracing wrapper (benchmark/src/layers.h).
     *  @param x f32 activations [seq x k]; @return f32 [seq x n]. */
    virtual Tensor Forward(int layer, LinearKind kind, const Tensor& x);

    /** Algorithm name for reports ("FP16", "SmoothQuant", ...). */
    virtual std::string Name() const = 0;
};

/** Exact fp32 linear executor (the "FP16" baseline of Table 6). */
class Fp32LinearExecutor : public LinearExecutor
{
  public:
    explicit Fp32LinearExecutor(const ModelWeights& weights)
        : weights_(weights)
    {}

    /** One stacked matmul over the packed panels (rows are independent). */
    Tensor ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                        const BatchSegments& segments) override;
    std::string Name() const override { return "FP16"; }

  private:
    const ModelWeights& weights_;
};

/** One sequence's contribution to a batched forward step. */
struct BatchSeq {
    /** Sequence slot in the BatchedKvCache. */
    int seq = 0;
    /** Tokens this sequence runs this step: a prefill chunk (m_i > 1) or a
     *  single decode token (m_i == 1). */
    std::vector<int> tokens;
};

/**
 * The reference transformer.
 *
 * Chunk-exactness contract: Forward(tokens[0..n)) in one call produces
 * bit-comparable hidden states to any sequence of Forward calls over a
 * partition of the same tokens with the same cache (§3.2; verified by
 * tests/model_test.cc).
 */
class Transformer
{
  public:
    explicit Transformer(const ModelWeights& weights);

    const ModelConfig& config() const { return weights_.config; }
    const ModelWeights& weights() const { return weights_; }

    /** Creates an empty one-slot cache for Forward: MakeBatchedCache(1). */
    BatchedKvCache MakeCache() const;

    /** Creates an empty batched cache with `num_sequences` slots. */
    BatchedKvCache MakeBatchedCache(int num_sequences = 0) const;

    /** Embedding lookup: tokens -> [seq x hidden]. */
    Tensor Embed(const std::vector<int>& tokens) const;

    /**
     * Runs all blocks over `tokens`, appending K/V to the one slot of
     * `cache` (which must hold exactly one sequence, as MakeCache() does):
     * a one-slot ForwardBatch({{0, tokens}}).
     * Positions are cache.SeqLen(0) .. cache.SeqLen(0) + tokens.size() - 1.
     * @return final-norm hidden states [seq x hidden].
     */
    Tensor Forward(const std::vector<int>& tokens, BatchedKvCache& cache,
                   LinearExecutor& linears) const;

    /**
     * Batched forward: runs B sequences of possibly different lengths
     * through one set of stacked matmuls.
     *
     * The B row blocks are stacked into a single [sum(m_i) x hidden]
     * activation so every linear runs as one tiled matmul (batched decode
     * turns B concurrent m=1 matvecs into one m=B matmul); norms and
     * activations are row-wise; RoPE and causal attention run per sequence
     * with that sequence's cache length as its position offset, each
     * sequence appending to and reading only its own cache slot.
     *
     * Batch-exactness contract (extends the chunk-exactness contract):
     * segment i of the result is bitwise identical to calling Forward() on
     * sequence i alone with the same per-sequence cache state, for every
     * executor honoring the ForwardBatch contract. Verified by
     * tests/batched_test.cc across ragged shapes and executors.
     *
     * @param batch sequences to advance; distinct `seq` slots, each with at
     *        least one token.
     * @return stacked final-norm hidden states [sum(m_i) x hidden], row
     *         blocks in `batch` order.
     */
    Tensor ForwardBatch(const std::vector<BatchSeq>& batch,
                        BatchedKvCache& cache,
                        LinearExecutor& linears) const;

    /**
     * ForwardBatch with per-sequence placement routing: sequence i's
     * linears execute on `placements[i]` (the NPU W8A8 shadow path or the
     * CPU float path) via `backend` (src/model/decode_backend.h). Norms,
     * RoPE and attention stay on the CPU float path either way — that is
     * the CPU/NPU handoff boundary. Placement size must equal batch size.
     *
     * Inherits the batch-exactness contract: segment i is bitwise
     * identical to running sequence i alone through an executor of the
     * same placement.
     */
    Tensor ForwardBatchPlaced(const std::vector<BatchSeq>& batch,
                              const std::vector<DecodePlacement>& placements,
                              BatchedKvCache& cache,
                              DecodeBackend& backend) const;

    /** Logits from hidden states via the tied embedding: [seq x vocab]. */
    Tensor Logits(const Tensor& hidden) const;

    /** Greedy next token from the last row of `logits`. */
    int ArgmaxLastRow(const Tensor& logits) const;

    /**
     * Prefills `prompt` then greedily decodes `max_new_tokens`.
     * @return generated token ids.
     */
    std::vector<int> Generate(const std::vector<int>& prompt,
                              int max_new_tokens,
                              LinearExecutor& linears) const;

  private:
    /** Runs block `layer` over the residual stream `x`, in place. `rope`
     *  holds the rotation of every row of `x`, built once per forward step
     *  and shared by all layers. */
    void ForwardBlockBatch(int layer, Tensor& x,
                           const std::vector<BatchSeq>& batch,
                           const BatchSegments& segments,
                           const std::vector<int64_t>& pos_offsets,
                           const RopeTable& rope, BatchedKvCache& cache,
                           LinearExecutor& linears) const;

    const ModelWeights& weights_;
};

}  // namespace llmnpu

#endif  // LLMNPU_MODEL_TRANSFORMER_H
