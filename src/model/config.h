/**
 * @file
 * Decoder-only transformer configurations for the five mobile-sized LLMs the
 * paper evaluates (§4.1), plus scaled-down proxy configs used by the
 * numeric accuracy harness.
 *
 * Shapes (hidden size, layer count, head layout, FFN width, vocabulary) match
 * the public model cards so that every matmul the timing plane prices has the
 * same dimensions as on the authors' testbed. Block wiring is normalized to
 * the standard pre-norm residual structure; per-model norm/activation/gating
 * flags are preserved.
 */
#ifndef LLMNPU_MODEL_CONFIG_H
#define LLMNPU_MODEL_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/ops.h"  // NormKind, ActKind
#include "src/util/check.h"

namespace llmnpu {

/** Identifies one linear (matmul) operator inside a transformer block. */
enum class LinearKind {
    kWq,
    kWk,
    kWv,
    kWo,
    kFfnGate,
    kFfnUp,
    kFfnDown,
};

/** Number of LinearKind values (dense 0..N-1 indexing). */
constexpr int kNumLinearKinds = static_cast<int>(LinearKind::kFfnDown) + 1;

/** Dense index of a LinearKind in 0..kNumLinearKinds-1 (declaration
 *  order), for per-kind tables. */
constexpr int
LinearKindIndex(LinearKind kind)
{
    return static_cast<int>(kind);
}

/** Human-readable name of a LinearKind ("q_proj", "up_proj", ...). */
std::string LinearKindName(LinearKind kind);

/** Shape of one linear operator: y[*, n] = x[*, k] @ W[k, n]. */
struct LinearSpec {
    LinearKind kind;
    int64_t k = 0;  ///< input features
    int64_t n = 0;  ///< output features
};

/** Architecture description of a decoder-only LLM. */
struct ModelConfig {
    std::string name;
    int64_t hidden_size = 0;
    int num_layers = 0;
    int num_heads = 0;
    int num_kv_heads = 0;
    int head_dim = 0;
    int64_t ffn_hidden = 0;
    int64_t vocab_size = 0;
    int64_t max_context = 0;
    NormKind norm = NormKind::kRMSNorm;
    ActKind act = ActKind::kSiLU;
    bool gated_ffn = true;

    /**
     * Panics unless the config is internally consistent: every dimension
     * positive, hidden_size divisible by num_heads (so head_dim is exact,
     * never silently truncated), head_dim matching that quotient, even
     * head_dim (RoPE rotates pairs), and num_heads divisible by
     * num_kv_heads (whole GQA groups). Called at weight-generation/load
     * time so a malformed config fails loudly before any kernel runs on
     * mis-shaped tensors.
     */
    void Validate() const;

    /** The per-layer linear operators in execution order. */
    std::vector<LinearSpec> LayerLinears() const;

    /** Parameters in one block's linear operators. */
    int64_t LayerLinearParams() const;

    /** Parameters in all blocks' linear operators (prefill matmul weights). */
    int64_t MatMulParams() const;

    /** Total parameters including embedding and norms (lm_head tied). */
    int64_t TotalParams() const;

    /** INT8 weight bytes streamed per forward pass of the blocks. */
    int64_t MatMulWeightBytesInt8() const { return MatMulParams(); }
};

/**
 * One value per (layer, linear) of a model: the layout of everything the
 * offline preparation keeps per linear (calibration stats, clip scales,
 * importance ranks, each executor's prepared weights). A flat
 * num_layers x kNumLinearKinds table; reading the slot of a layer out of
 * range, or of a kind the model lacks (the gate of an ungated FFN), panics.
 */
template <typename T>
class PerLinear
{
  public:
    PerLinear() = default;

    /** Fills t(l, spec.kind) = build(l, spec) for every layer and every
     *  spec of config.LayerLinears(), layer-major, in execution order. */
    template <typename Build>
    PerLinear(const ModelConfig& config, Build&& build)
        : num_layers_(config.num_layers),
          table_(static_cast<size_t>(config.num_layers) * kNumLinearKinds)
    {
        const std::vector<LinearSpec> specs = config.LayerLinears();
        for (const LinearSpec& spec : specs) {
            kinds_ |= 1u << LinearKindIndex(spec.kind);
        }
        for (int l = 0; l < num_layers_; ++l) {
            for (const LinearSpec& spec : specs) {
                (*this)(l, spec.kind) = build(l, spec);
            }
        }
    }

    T&
    operator()(int layer, LinearKind kind)
    {
        return table_[Slot(layer, kind)];
    }

    const T&
    operator()(int layer, LinearKind kind) const
    {
        return table_[Slot(layer, kind)];
    }

  private:
    size_t
    Slot(int layer, LinearKind kind) const
    {
        LLMNPU_CHECK_GE(layer, 0);
        LLMNPU_CHECK_LT(layer, num_layers_);
        LLMNPU_CHECK((kinds_ >> LinearKindIndex(kind)) & 1u);
        return static_cast<size_t>(layer) * kNumLinearKinds +
               static_cast<size_t>(LinearKindIndex(kind));
    }

    int num_layers_ = 0;
    uint32_t kinds_ = 0;  ///< bit LinearKindIndex(k) set if k is present
    std::vector<T> table_;
};

/** Qwen1.5-1.8B [27]: 24L, d=2048, 16 heads (MHA), FFN 5504, 32K context. */
ModelConfig Qwen15_1_8B();

/** Gemma-2B [9]: 18L, d=2048, 8 heads, MQA (1 KV head, d_h=256), FFN 16384. */
ModelConfig Gemma2B();

/** Phi-2-2.7B [16]: 32L, d=2560, 32 heads (MHA), FFN 10240, LayerNorm+GeLU. */
ModelConfig Phi2_2_7B();

/** LlaMA-2-7B [11]: 32L, d=4096, 32 heads (MHA), FFN 11008. */
ModelConfig Llama2_7B();

/** Mistral-7B [14]: 32L, d=4096, 32 heads, GQA (8 KV heads), FFN 14336. */
ModelConfig Mistral7B();

/** All five evaluation models, in the paper's order. */
std::vector<ModelConfig> PaperModels();

/** Looks up a paper model by name; fatal on unknown names. */
ModelConfig ModelByName(const std::string& name);

/** Tiny config for unit tests (runs a real forward pass in microseconds). */
ModelConfig TinyTestConfig();

/**
 * Scaled-down proxy of `base` for the numeric accuracy harness: preserves
 * the head layout ratio, FFN expansion ratio, norm/activation kinds, while
 * shrinking hidden size / layer count / vocabulary so a real forward pass is
 * cheap. Used by Table 6 / Figure 12 / Figure 16 benches.
 */
ModelConfig ScaledProxy(const ModelConfig& base, int64_t hidden,
                        int num_layers, int64_t vocab);

}  // namespace llmnpu

#endif  // LLMNPU_MODEL_CONFIG_H
