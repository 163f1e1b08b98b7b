/**
 * @file
 * Synthetic model weights with the activation-outlier structure the paper
 * measures on real LLMs (Figures 10-11).
 *
 * Substitution note (DESIGN.md §2): real trained checkpoints are not
 * available offline, so weights are generated with a fixed seed such that
 * (a) activations are well-scaled (unit-variance residual stream), and
 * (b) a small set of "hot" hidden channels carries large, token-dependent
 * activation outliers — the property that drives per-tensor quantization
 * error, and hence everything §3.3 is designed around.
 */
#ifndef LLMNPU_MODEL_WEIGHTS_H
#define LLMNPU_MODEL_WEIGHTS_H

#include <array>
#include <cstdint>
#include <vector>

#include "src/model/config.h"
#include "src/tensor/matmul.h"
#include "src/tensor/tensor.h"

namespace llmnpu {

/**
 * All parameters of one transformer block. Each linear is held once, as
 * the panel-major packed f32 panels (matmul.h) every CPU forward reads;
 * no row-major copy outlives weight generation.
 */
struct LayerWeights {
    Tensor attn_norm_gamma;
    Tensor attn_norm_beta;  ///< used only with LayerNorm models
    Tensor ffn_norm_gamma;
    Tensor ffn_norm_beta;
    /** Packed [k x n] linears, y = x @ W, indexed by LinearKindIndex; the
     *  kFfnGate entry is empty for non-gated FFN models. */
    std::array<PackedWeightsF32, kNumLinearKinds> linears;
};

/** A full model: config + embedding + blocks + final norm. */
struct ModelWeights {
    ModelConfig config;
    Tensor embedding;  ///< [vocab x hidden]; lm_head is tied (transposed)
    std::vector<LayerWeights> layers;
    Tensor final_norm_gamma;
    Tensor final_norm_beta;
    /** Ground-truth injected hot channels (ascending), for test oracles. */
    std::vector<int> hot_channels;
    /** Hot output columns of wv (make o_proj inputs outlier-prone). */
    std::vector<int> v_hot_channels;
    /** Hot output columns of w_up (make down_proj inputs outlier-prone). */
    std::vector<int> ffn_hot_channels;

    /** Packed transpose of `embedding` (the tied lm_head), [hidden x
     *  vocab]; built with the weights, like every packed linear. */
    PackedWeightsF32 lm_head;

    /** The packed panels of one linear; what every CPU forward reads. */
    const PackedWeightsF32& PackedLinear(int layer, LinearKind kind) const;

    /**
     * The [k x n] row-major f32 matrix of one linear, unpacked by value
     * from its panels (UnpackWeightsF32). Set-up only: the quantizers'
     * constructors read it once to build their own layouts.
     */
    Tensor Linear(int layer, LinearKind kind) const;
};

/** Generates deterministic synthetic weights for `config` from `seed`. */
ModelWeights GenerateSyntheticWeights(const ModelConfig& config,
                                      uint64_t seed = 0x11f);

}  // namespace llmnpu

#endif  // LLMNPU_MODEL_WEIGHTS_H
