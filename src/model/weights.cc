#include "src/model/weights.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"

namespace llmnpu {

namespace {

/** Fraction of hidden channels designated as outlier-prone ("hot"). */
constexpr double kHotChannelFrac = 0.03;
/** Mean multiplicative amplification of hot channels in the important
 *  linears. Real LLMs show outliers 20-100x the typical magnitude
 *  [33, 84]; SmoothQuant-style migration only absorbs ~sqrt of it. */
constexpr double kOutlierAmplitude = 40.0;
/** Probability a given token activates a given hot channel. */
constexpr double kTokenActivationProb = 0.4;

/** Gaussian matrix with std 1/sqrt(k) so y = x @ W keeps unit variance. */
Tensor
RandomLinear(Rng& rng, int64_t k, int64_t n)
{
    Tensor w({k, n}, DType::kF32);
    float* p = w.Data<float>();
    const double std = 1.0 / std::sqrt(static_cast<double>(k));
    for (int64_t i = 0; i < w.NumElements(); ++i) {
        p[i] = static_cast<float>(rng.Normal(0.0, std));
    }
    return w;
}

Tensor
OnesWithJitter(Rng& rng, int64_t n)
{
    Tensor t({1, n}, DType::kF32);
    float* p = t.Data<float>();
    for (int64_t i = 0; i < n; ++i) {
        p[i] = static_cast<float>(1.0 + rng.Normal(0.0, 0.02));
    }
    return t;
}

}  // namespace

const PackedWeightsF32&
ModelWeights::PackedLinear(int layer, LinearKind kind) const
{
    LLMNPU_CHECK_GE(layer, 0);
    LLMNPU_CHECK_LT(layer, static_cast<int>(layers.size()));
    const PackedWeightsF32& w = layers[static_cast<size_t>(layer)]
                                    .linears[static_cast<size_t>(
                                        LinearKindIndex(kind))];
    LLMNPU_CHECK(!w.Empty());  // kFfnGate of a non-gated FFN
    return w;
}

Tensor
ModelWeights::Linear(int layer, LinearKind kind) const
{
    return UnpackWeightsF32(PackedLinear(layer, kind));
}

ModelWeights
GenerateSyntheticWeights(const ModelConfig& config, uint64_t seed)
{
    config.Validate();  // fail loudly before any tensor gets a shape
    Rng rng(seed);
    ModelWeights mw;
    mw.config = config;

    const int64_t hidden = config.hidden_size;
    const int64_t vocab = config.vocab_size;

    // Pick the hot channels that will carry activation outliers (Figure 11:
    // <3% of channels contribute >80% of outliers).
    const int num_hot = std::max<int>(
        2, static_cast<int>(std::lround(kHotChannelFrac *
                                        static_cast<double>(hidden))));
    std::vector<int> all(static_cast<size_t>(hidden));
    for (int64_t i = 0; i < hidden; ++i) {
        all[static_cast<size_t>(i)] = static_cast<int>(i);
    }
    for (int i = 0; i < num_hot; ++i) {
        const auto j = static_cast<size_t>(
            rng.UniformInt(static_cast<uint64_t>(hidden - i))) +
            static_cast<size_t>(i);
        std::swap(all[static_cast<size_t>(i)], all[j]);
    }
    mw.hot_channels.assign(all.begin(), all.begin() + num_hot);
    std::sort(mw.hot_channels.begin(), mw.hot_channels.end());

    // Embedding rows are unit Gaussian; hot channels get a token-dependent
    // boost so outliers appear/disappear with the prompt content.
    mw.embedding = Tensor({vocab, hidden}, DType::kF32);
    {
        float* p = mw.embedding.Data<float>();
        for (int64_t i = 0; i < mw.embedding.NumElements(); ++i) {
            p[i] = static_cast<float>(rng.Normal());
        }
        for (int hot : mw.hot_channels) {
            for (int64_t t = 0; t < vocab; ++t) {
                if (rng.Bernoulli(kTokenActivationProb)) {
                    p[t * hidden + hot] *=
                        static_cast<float>(2.5 * std::exp(rng.Normal(0, 0.3)));
                }
            }
        }
    }

    // Outlier injection happens in the norm gains: norms run in float in
    // every quantization pipeline (Table 4), so amplified gains create
    // *activation* outliers at the quantized linears' inputs while all
    // weight matrices stay benign Gaussian — mirroring real LLMs, where
    // activation outliers (not weight outliers) are the quantization
    // obstacle [33, 84].
    //
    // The amplification follows the paper's importance profile (Figure 12):
    // importance spikes at a small subset of linears — concentrated near the
    // network's inputs and outputs and sparse within a layer — while most
    // linears' outliers barely exceed the quantization scale. That sparsity
    // is why pruning the ~85% least important linears is nearly free (§3.3).
    constexpr double kMildStrength = 0.035;
    auto layer_strength = [&](int layer) {
        const int from_end = std::min(layer, config.num_layers - 1 - layer);
        const double decay = std::exp(
            -static_cast<double>(from_end) /
            std::max(0.35, static_cast<double>(config.num_layers) / 16.0));
        return kMildStrength + (1.0 - kMildStrength) * decay;
    };
    // Alternate the strong side per layer: even layers spike the attention
    // input (q/k/v), odd layers the FFN input (gate/up).
    auto attn_strength = [&](int layer) {
        return layer % 2 == 0 ? layer_strength(layer) : kMildStrength;
    };
    auto ffn_strength = [&](int layer) {
        return layer % 2 == 1 ? layer_strength(layer) : kMildStrength;
    };
    auto amplify_hot = [&](Tensor& gamma, double strength) {
        float* p = gamma.Data<float>();
        for (int hot : mw.hot_channels) {
            p[hot] *= static_cast<float>(strength * kOutlierAmplitude *
                                         std::exp(rng.Normal(0.0, 0.35)));
        }
    };

    // Hot output columns of wv / w_up: the attention output (o_proj input)
    // and the FFN intermediate (down_proj input) then carry channel-
    // structured outliers too, matching Figure 10's per-operator counts.
    // Amplified *weight columns* are benign for weight quantization because
    // every int8 weight scheme here uses per-output-channel (or per-group)
    // scales; only the downstream *activation* quantization feels them.
    const int64_t kv_dim =
        static_cast<int64_t>(config.num_kv_heads) * config.head_dim;
    auto pick_channels = [&](int64_t dim, double frac) {
        const int count = std::max<int>(
            1, static_cast<int>(std::lround(frac * static_cast<double>(dim))));
        std::vector<int> chosen;
        for (int i = 0; i < count; ++i) {
            chosen.push_back(
                static_cast<int>(rng.UniformInt(static_cast<uint64_t>(dim))));
        }
        std::sort(chosen.begin(), chosen.end());
        chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
        return chosen;
    };
    mw.v_hot_channels = pick_channels(kv_dim, kHotChannelFrac * 0.7);
    mw.ffn_hot_channels =
        pick_channels(config.ffn_hidden, kHotChannelFrac * 0.3);

    auto amplify_columns = [&](Tensor& w, const std::vector<int>& cols,
                               double strength) {
        float* p = w.Data<float>();
        const int64_t n = w.Cols();
        for (int c : cols) {
            const float f = static_cast<float>(
                strength * kOutlierAmplitude *
                std::exp(rng.Normal(0.0, 0.3)));
            for (int64_t r = 0; r < w.Rows(); ++r) p[r * n + c] *= f;
        }
    };

    for (int l = 0; l < config.num_layers; ++l) {
        LayerWeights lw;
        lw.attn_norm_gamma = OnesWithJitter(rng, hidden);
        lw.attn_norm_beta = Tensor::Zeros({1, hidden});
        lw.ffn_norm_gamma = OnesWithJitter(rng, hidden);
        lw.ffn_norm_beta = Tensor::Zeros({1, hidden});
        amplify_hot(lw.attn_norm_gamma, attn_strength(l));
        amplify_hot(lw.ffn_norm_gamma, ffn_strength(l));
        for (const auto& spec : config.LayerLinears()) {
            Tensor w = RandomLinear(rng, spec.k, spec.n);
            if (spec.kind == LinearKind::kWv) {
                amplify_columns(w, mw.v_hot_channels, 0.04);
            } else if (spec.kind == LinearKind::kFfnUp) {
                amplify_columns(w, mw.ffn_hot_channels, 0.04);
            }
            // Packed as soon as it exists: the row-major matrix is
            // generation scratch, never resident.
            lw.linears[static_cast<size_t>(LinearKindIndex(spec.kind))] =
                PackWeightsF32(w);
        }
        mw.layers.push_back(std::move(lw));
    }

    mw.final_norm_gamma = OnesWithJitter(rng, hidden);
    mw.final_norm_beta = Tensor::Zeros({1, hidden});
    mw.lm_head = PackWeightsF32Transposed(mw.embedding);
    return mw;
}

}  // namespace llmnpu
