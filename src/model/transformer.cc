#include "src/model/transformer.h"

#include <cstring>
#include <utility>

#include "src/model/decode_backend.h"
#include "src/model/paged_attention.h"
#include "src/obs/trace.h"
#include "src/tensor/matmul.h"
#include "src/tensor/ops.h"

namespace llmnpu {

namespace {

/** Stable trace-span name per linear kind (string literals: the tracer
 *  stores the pointer, not a copy). */
[[maybe_unused]] const char*
LinearSpanName(LinearKind kind)
{
    switch (kind) {
        case LinearKind::kWq: return "linear.wq";
        case LinearKind::kWk: return "linear.wk";
        case LinearKind::kWv: return "linear.wv";
        case LinearKind::kWo: return "linear.wo";
        case LinearKind::kFfnGate: return "linear.ffn_gate";
        case LinearKind::kFfnUp: return "linear.ffn_up";
        case LinearKind::kFfnDown: return "linear.ffn_down";
        default: return "linear.unknown";
    }
}

}  // namespace

void
CheckBatchSegments(const Tensor& x, const BatchSegments& segments)
{
    LLMNPU_CHECK_GE(segments.size(), 2u);
    LLMNPU_CHECK_EQ(segments.front(), 0);
    LLMNPU_CHECK_EQ(segments.back(), x.Rows());
    for (size_t i = 1; i < segments.size(); ++i) {
        LLMNPU_CHECK_GT(segments[i], segments[i - 1]);
    }
}

Tensor
LinearExecutor::Forward(int layer, LinearKind kind, const Tensor& x)
{
    return ForwardBatch(layer, kind, x, {0, x.Rows()});
}

Tensor
Fp32LinearExecutor::ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                                 const BatchSegments& segments)
{
    // The tiled f32 kernel computes every output row with a fixed
    // K-ascending accumulation that does not depend on the other rows, so
    // the whole stack runs as one matmul over the packed panels.
    (void)segments;
    return MatMulF32Packed(x, weights_.PackedLinear(layer, kind));
}

Transformer::Transformer(const ModelWeights& weights) : weights_(weights)
{
    LLMNPU_CHECK_EQ(static_cast<int>(weights.layers.size()),
                    weights.config.num_layers);
}

BatchedKvCache
Transformer::MakeCache() const
{
    return MakeBatchedCache(1);
}

BatchedKvCache
Transformer::MakeBatchedCache(int num_sequences) const
{
    const auto& c = weights_.config;
    return BatchedKvCache(c.num_layers,
                          static_cast<int64_t>(c.num_kv_heads) * c.head_dim,
                          num_sequences);
}

Tensor
Transformer::Embed(const std::vector<int>& tokens) const
{
    const auto& c = weights_.config;
    Tensor out({static_cast<int64_t>(tokens.size()), c.hidden_size},
               DType::kF32);
    const float* emb = weights_.embedding.Data<float>();
    float* p = out.Data<float>();
    for (size_t i = 0; i < tokens.size(); ++i) {
        LLMNPU_CHECK_GE(tokens[i], 0);
        LLMNPU_CHECK_LT(tokens[i], c.vocab_size);
        std::memcpy(p + i * static_cast<size_t>(c.hidden_size),
                    emb + static_cast<int64_t>(tokens[i]) * c.hidden_size,
                    static_cast<size_t>(c.hidden_size) * sizeof(float));
    }
    return out;
}

void
Transformer::ForwardBlockBatch(int layer, Tensor& x,
                               const std::vector<BatchSeq>& batch,
                               const BatchSegments& segments,
                               const std::vector<int64_t>& pos_offsets,
                               const RopeTable& rope, BatchedKvCache& cache,
                               LinearExecutor& linears) const
{
    const auto& c = weights_.config;
    const auto& lw = weights_.layers[static_cast<size_t>(layer)];
    const size_t b = batch.size();
    LLMNPU_TRACE_SPAN_TILE("transformer.block_batch", "model", -1, -1,
                           layer, "batch", static_cast<int>(b));
    // Span-per-linear: names the projection so a trace shows which linear
    // of which layer ran; does not touch the tensors.
    auto traced = [&](LinearKind kind, const Tensor& in) {
        LLMNPU_TRACE_SPAN_ID(LinearSpanName(kind), "linear", -1, -1, layer);
        return linears.ForwardBatch(layer, kind, in, segments);
    };
    // Span-per-epilogue: each float pass between two linears is one
    // row-parallel op (ops.h) under its own name.
    auto pass = [&](const char* name, const auto& fn) {
        LLMNPU_TRACE_SPAN_ID(name, "model", -1, -1, layer);
        return fn();
    };

    // --- Attention sub-block. The QKV projections run as stacked
    // matmuls; RoPE rotates every stacked row of Q and K by its own
    // sequence's position (one table per step), the cache appends are
    // per-sequence (own page table) but read the stacked tensors, and
    // attention is one fused tile-parallel kernel reading K/V straight out
    // of the pool pages.
    Tensor normed = pass("block.norm", [&] {
        return Norm(c.norm, x, lw.attn_norm_gamma, lw.attn_norm_beta);
    });
    Tensor q = traced(LinearKind::kWq, normed);
    Tensor k = traced(LinearKind::kWk, normed);
    Tensor v = traced(LinearKind::kWv, normed);

    pass("block.rope",
         [&] { rope.Apply(q, c.num_heads, k, c.num_kv_heads); });
    std::vector<int> seqs(b, 0);
    for (size_t i = 0; i < b; ++i) {
        const int64_t r0 = segments[i];
        cache.AppendRows(batch[i].seq, layer, k, v, r0, segments[i + 1] - r0);
        seqs[i] = batch[i].seq;
    }
    Tensor attn = PagedCausalAttention(q, segments, seqs, pos_offsets, cache,
                                       layer, c.num_heads, c.num_kv_heads);
    Tensor attn_out = traced(LinearKind::kWo, attn);

    // --- FFN sub-block: x becomes the residual h = x + attn_out in the
    // same pass that norms it, the activation runs in place, and the
    // down projection is added back into h.
    Tensor ffn_in = pass("block.residual_norm", [&] {
        return AddNormInPlace(c.norm, x, attn_out, lw.ffn_norm_gamma,
                              lw.ffn_norm_beta);
    });
    Tensor up = traced(LinearKind::kFfnUp, ffn_in);
    Tensor act;
    if (c.gated_ffn) {
        act = traced(LinearKind::kFfnGate, ffn_in);
        pass("block.act", [&] { GatedActInPlace(c.act, act, up); });
    } else {
        act = std::move(up);
        pass("block.act", [&] { ActInPlace(c.act, act); });
    }
    Tensor down = traced(LinearKind::kFfnDown, act);
    pass("block.residual", [&] { AddInPlace(x, down); });
}

Tensor
Transformer::ForwardBatch(const std::vector<BatchSeq>& batch,
                          BatchedKvCache& cache,
                          LinearExecutor& linears) const
{
    LLMNPU_CHECK(!batch.empty());
    const size_t b = batch.size();

    // Segment boundaries of the stacked activation, per-sequence position
    // offsets (captured before any append), and the stacked embedding.
    BatchSegments segments(b + 1, 0);
    std::vector<int64_t> pos_offsets(b, 0);
    std::vector<int64_t> positions;
    std::vector<int> stacked_tokens;
    for (size_t i = 0; i < b; ++i) {
        LLMNPU_CHECK(!batch[i].tokens.empty());
        for (size_t j = 0; j < i; ++j) {
            LLMNPU_CHECK_NE(batch[j].seq, batch[i].seq);
        }
        segments[i + 1] =
            segments[i] + static_cast<int64_t>(batch[i].tokens.size());
        pos_offsets[i] = cache.SeqLen(batch[i].seq);
        for (size_t t = 0; t < batch[i].tokens.size(); ++t) {
            positions.push_back(pos_offsets[i] + static_cast<int64_t>(t));
        }
        stacked_tokens.insert(stacked_tokens.end(), batch[i].tokens.begin(),
                              batch[i].tokens.end());
    }

    LLMNPU_TRACE_SPAN_TILE("transformer.forward_batch", "model", -1, -1,
                           -1, "rows", static_cast<int>(segments.back()));
    const RopeTable rope(positions, weights_.config.head_dim);
    Tensor x = Embed(stacked_tokens);
    for (int l = 0; l < weights_.config.num_layers; ++l) {
        ForwardBlockBatch(l, x, batch, segments, pos_offsets, rope, cache,
                          linears);
    }
    return Norm(weights_.config.norm, x, weights_.final_norm_gamma,
                weights_.final_norm_beta);
}

Tensor
Transformer::ForwardBatchPlaced(const std::vector<BatchSeq>& batch,
                                const std::vector<DecodePlacement>& placements,
                                BatchedKvCache& cache,
                                DecodeBackend& backend) const
{
    LLMNPU_CHECK_EQ(placements.size(), batch.size());
    backend.SetStepPlacements(placements);
    return ForwardBatch(batch, cache, backend);
}

Tensor
Transformer::Forward(const std::vector<int>& tokens, BatchedKvCache& cache,
                     LinearExecutor& linears) const
{
    LLMNPU_CHECK_EQ(cache.num_sequences(), 1);
    return ForwardBatch({{0, tokens}}, cache, linears);
}

Tensor
Transformer::Logits(const Tensor& hidden) const
{
    // Tied embedding: logits = hidden @ embedding^T, via the packed
    // transposed embedding built at load.
    return MatMulF32Packed(hidden, weights_.lm_head);
}

int
Transformer::ArgmaxLastRow(const Tensor& logits) const
{
    const int64_t rows = logits.Rows(), cols = logits.Cols();
    const float* p = logits.Data<float>() + (rows - 1) * cols;
    int best = 0;
    for (int64_t t = 1; t < cols; ++t) {
        if (p[t] > p[best]) best = static_cast<int>(t);
    }
    return best;
}

std::vector<int>
Transformer::Generate(const std::vector<int>& prompt, int max_new_tokens,
                      LinearExecutor& linears) const
{
    BatchedKvCache cache = MakeCache();
    Tensor hidden = Forward(prompt, cache, linears);
    Tensor logits = Logits(hidden.CopyRows(hidden.Rows() - 1, 1));
    std::vector<int> generated;
    int next = ArgmaxLastRow(logits);
    generated.push_back(next);
    for (int i = 1; i < max_new_tokens; ++i) {
        Tensor h = Forward({next}, cache, linears);
        logits = Logits(h);
        next = ArgmaxLastRow(logits);
        generated.push_back(next);
    }
    return generated;
}

}  // namespace llmnpu
