/**
 * @file
 * Tests for the model layer: configs match the public model cards, synthetic
 * weights carry the injected outlier structure, and — the core §3.2
 * property — chunked prefill is exactly equivalent to one-shot prefill.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/model/config.h"
#include "src/model/transformer.h"
#include "src/model/weights.h"
#include "src/tensor/ops.h"

namespace llmnpu {
namespace {

TEST(ConfigTest, PaperModelsPresent)
{
    const auto models = PaperModels();
    ASSERT_EQ(models.size(), 5u);
    EXPECT_EQ(models[0].name, "Qwen1.5-1.8B");
    EXPECT_EQ(models[4].name, "Mistral-7B");
}

TEST(ConfigTest, QwenParameterCountNearNominal)
{
    const ModelConfig qwen = Qwen15_1_8B();
    const double billions =
        static_cast<double>(qwen.TotalParams()) / 1e9;
    EXPECT_GT(billions, 1.4);
    EXPECT_LT(billions, 2.1);
}

TEST(ConfigTest, Llama7BParameterCountNearNominal)
{
    const double billions =
        static_cast<double>(Llama2_7B().TotalParams()) / 1e9;
    EXPECT_GT(billions, 6.2);
    EXPECT_LT(billions, 7.2);
}

TEST(ConfigTest, GemmaUsesMqa)
{
    const ModelConfig gemma = Gemma2B();
    EXPECT_EQ(gemma.num_kv_heads, 1);
    EXPECT_EQ(gemma.num_heads * gemma.head_dim, 2048);
}

TEST(ConfigTest, MistralUsesGqa)
{
    const ModelConfig mistral = Mistral7B();
    EXPECT_EQ(mistral.num_heads / mistral.num_kv_heads, 4);
}

TEST(ConfigTest, LayerLinearsShapesChain)
{
    for (const auto& config : PaperModels()) {
        const auto specs = config.LayerLinears();
        // Gated models have 7 linears; non-gated 6.
        EXPECT_EQ(specs.size(), config.gated_ffn ? 7u : 6u) << config.name;
        for (const auto& spec : specs) {
            EXPECT_GT(spec.k, 0) << config.name;
            EXPECT_GT(spec.n, 0) << config.name;
        }
    }
}

TEST(PerLinearTest, BuildsLayerMajorInLayerLinearsOrder)
{
    const ModelConfig config = TinyTestConfig();
    const std::vector<LinearSpec> specs = config.LayerLinears();
    std::vector<std::pair<int, LinearKind>> calls;
    const PerLinear<int> table(config, [&](int layer, const LinearSpec& spec) {
        calls.emplace_back(layer, spec.kind);
        return static_cast<int>(calls.size()) - 1;
    });
    ASSERT_EQ(calls.size(), static_cast<size_t>(config.num_layers) *
                                specs.size());
    int order = 0;
    for (int l = 0; l < config.num_layers; ++l) {
        for (const LinearSpec& spec : specs) {
            EXPECT_EQ(calls[static_cast<size_t>(order)].first, l);
            EXPECT_TRUE(calls[static_cast<size_t>(order)].second == spec.kind)
                << LinearKindName(spec.kind);
            EXPECT_EQ(table(l, spec.kind), order) << LinearKindName(spec.kind);
            ++order;
        }
    }
}

TEST(PerLinearDeathTest, OutOfRangeLayerOrMissingKindPanics)
{
    ModelConfig config = TinyTestConfig();
    config.gated_ffn = false;
    const PerLinear<int> table(config,
                               [](int, const LinearSpec&) { return 1; });
    EXPECT_EQ(table(config.num_layers - 1, LinearKind::kFfnUp), 1);
    EXPECT_DEATH(table(-1, LinearKind::kWq), "CHECK failed");
    EXPECT_DEATH(table(config.num_layers, LinearKind::kWq), "CHECK failed");
    EXPECT_DEATH(table(0, LinearKind::kFfnGate), "CHECK failed");
    const PerLinear<int> empty;
    EXPECT_DEATH(empty(0, LinearKind::kWq), "CHECK failed");
}

TEST(ConfigTest, MaxContextMatchesTable1)
{
    EXPECT_EQ(Qwen15_1_8B().max_context, 32768);  // Table 1: 32K
    EXPECT_EQ(Gemma2B().max_context, 8192);       // Table 1: 8K
    EXPECT_EQ(Phi2_2_7B().max_context, 2048);     // Table 1: 2K
}

TEST(ConfigTest, ModelByNameRoundTrips)
{
    for (const auto& config : PaperModels()) {
        EXPECT_EQ(ModelByName(config.name).hidden_size, config.hidden_size);
    }
}

TEST(ConfigTest, ScaledProxyPreservesStructure)
{
    for (const auto& base : PaperModels()) {
        const ModelConfig proxy = ScaledProxy(base, 256, 4, 512);
        EXPECT_EQ(proxy.num_layers, 4);
        EXPECT_EQ(proxy.hidden_size, 256);
        EXPECT_EQ(proxy.gated_ffn, base.gated_ffn);
        EXPECT_EQ(proxy.norm == NormKind::kRMSNorm,
                  base.norm == NormKind::kRMSNorm);
        EXPECT_EQ(proxy.num_heads / proxy.num_kv_heads,
                  base.num_heads / base.num_kv_heads)
            << base.name;
        // FFN expansion ratio approximately preserved.
        const double base_ratio = static_cast<double>(base.ffn_hidden) /
                                  static_cast<double>(base.hidden_size);
        const double proxy_ratio = static_cast<double>(proxy.ffn_hidden) /
                                   static_cast<double>(proxy.hidden_size);
        EXPECT_NEAR(proxy_ratio, base_ratio, 0.2) << base.name;
    }
}

TEST(WeightsTest, DeterministicGeneration)
{
    const ModelConfig config = TinyTestConfig();
    ModelWeights a = GenerateSyntheticWeights(config);
    ModelWeights b = GenerateSyntheticWeights(config);
    EXPECT_TRUE(a.embedding.BitEquals(b.embedding));
    EXPECT_TRUE(a.Linear(0, LinearKind::kWq)
                    .BitEquals(b.Linear(0, LinearKind::kWq)));
    EXPECT_EQ(a.hot_channels, b.hot_channels);
}

TEST(WeightsTest, DifferentSeedsDiffer)
{
    const ModelConfig config = TinyTestConfig();
    ModelWeights a = GenerateSyntheticWeights(config);
    ModelWeights b = GenerateSyntheticWeights(config, /*seed=*/99);
    EXPECT_FALSE(a.embedding.BitEquals(b.embedding));
}

TEST(WeightsTest, HotChannelsHaveAmplifiedNormGains)
{
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    ASSERT_FALSE(mw.hot_channels.empty());
    const float* gamma = mw.layers[0].attn_norm_gamma.Data<float>();
    double hot_mean = 0.0, cold_mean = 0.0;
    int cold_count = 0;
    for (int64_t c = 0; c < config.hidden_size; ++c) {
        const bool hot = std::find(mw.hot_channels.begin(),
                                   mw.hot_channels.end(),
                                   static_cast<int>(c)) !=
                         mw.hot_channels.end();
        if (hot) {
            hot_mean += std::abs(gamma[c]) /
                        static_cast<double>(mw.hot_channels.size());
        } else {
            cold_mean += std::abs(gamma[c]);
            ++cold_count;
        }
    }
    cold_mean /= cold_count;
    EXPECT_GT(hot_mean, 4.0 * cold_mean);
}

TEST(WeightsTest, LinearAccessorCoversAllKinds)
{
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    for (const auto& spec : config.LayerLinears()) {
        const Tensor w = mw.Linear(0, spec.kind);
        EXPECT_EQ(w.Rows(), spec.k) << LinearKindName(spec.kind);
        EXPECT_EQ(w.Cols(), spec.n) << LinearKindName(spec.kind);
    }
}

TEST(KvCacheTest, AppendAndReadBack)
{
    // Slot 0 of a one-slot cache (what Transformer::MakeCache() returns);
    // two 12-position chunks, so the second crosses the first page edge.
    // Chunks go to every layer in turn (Append enforces layer lockstep).
    BatchedKvCache cache(2, 8, 1);
    Tensor k = Tensor::Full({12, 8}, 1.0f);
    Tensor v = Tensor::Full({12, 8}, 2.0f);
    cache.Append(0, 0, k, v);
    EXPECT_EQ(cache.SeqLen(0, 0), 12);
    EXPECT_EQ(cache.SeqLen(0, 1), 0);
    EXPECT_EQ(cache.Keys(0, 0).At(11, 7), 1.0f);
    EXPECT_EQ(cache.Values(0, 0).At(0, 0), 2.0f);
    cache.Append(0, 1, k, v);
    cache.Append(0, 0, Tensor::Full({12, 8}, 3.0f),
                 Tensor::Full({12, 8}, 4.0f));
    cache.Append(0, 1, k, v);
    EXPECT_EQ(cache.SeqLen(0, 0), 24);
    EXPECT_EQ(cache.SeqLen(0, 1), 24);
    EXPECT_EQ(cache.Keys(0, 0).At(11, 0), 1.0f);
    EXPECT_EQ(cache.Keys(0, 0).At(23, 7), 3.0f);
    EXPECT_EQ(cache.Values(0, 0).At(12, 0), 4.0f);
    EXPECT_EQ(cache.Values(0, 1).At(23, 0), 2.0f);
    // Page-granular: 24 positions hold two kKvPageSize-position pages,
    // each with K and V for both layers.
    EXPECT_EQ(cache.SizeBytes(), 2 * 2 * 2 * kKvPageSize * 8 * 4);
}

class TransformerChunkTest : public ::testing::TestWithParam<int>
{};

TEST_P(TransformerChunkTest, ChunkedPrefillEqualsOneShot)
{
    // The enabling insight of §3.2: decoder-only models make chunked
    // prefill exact. Verified end-to-end through all blocks here, bit for
    // bit.
    const int chunk = GetParam();
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    Transformer model(mw);
    Fp32LinearExecutor fp32(mw);

    std::vector<int> tokens;
    for (int i = 0; i < 13; ++i) tokens.push_back((i * 37) % 256);

    BatchedKvCache full_cache = model.MakeCache();
    Tensor full = model.Forward(tokens, full_cache, fp32);

    BatchedKvCache chunk_cache = model.MakeCache();
    std::vector<Tensor> parts;
    for (size_t start = 0; start < tokens.size();
         start += static_cast<size_t>(chunk)) {
        const size_t len =
            std::min(static_cast<size_t>(chunk), tokens.size() - start);
        std::vector<int> part(tokens.begin() + static_cast<long>(start),
                              tokens.begin() + static_cast<long>(start + len));
        parts.push_back(model.Forward(part, chunk_cache, fp32));
    }

    int64_t row = 0;
    for (const Tensor& part : parts) {
        for (int64_t r = 0; r < part.Rows(); ++r, ++row) {
            EXPECT_TRUE(part.CopyRows(r, 1).BitEquals(full.CopyRows(row, 1)))
                << "chunk=" << chunk << " row=" << row;
        }
    }
    EXPECT_EQ(chunk_cache.SeqLen(0), full_cache.SeqLen(0));
}

INSTANTIATE_TEST_SUITE_P(ChunkLens, TransformerChunkTest,
                         ::testing::Values(1, 2, 4, 5, 13));

TEST(TransformerTest, GenerateIsDeterministic)
{
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    Transformer model(mw);
    Fp32LinearExecutor fp32(mw);
    const std::vector<int> prompt = {1, 2, 3, 4, 5};
    const auto a = model.Generate(prompt, 4, fp32);
    const auto b = model.Generate(prompt, 4, fp32);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 4u);
    for (int t : a) {
        EXPECT_GE(t, 0);
        EXPECT_LT(t, config.vocab_size);
    }
}

TEST(TransformerTest, LogitsShape)
{
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    Transformer model(mw);
    Fp32LinearExecutor fp32(mw);
    BatchedKvCache cache = model.MakeCache();
    Tensor hidden = model.Forward({1, 2, 3}, cache, fp32);
    Tensor logits = model.Logits(hidden);
    EXPECT_EQ(logits.Rows(), 3);
    EXPECT_EQ(logits.Cols(), config.vocab_size);
}

TEST(TransformerTest, ActivationOutliersAppearAtHotChannels)
{
    // End-to-end check of the synthetic outlier mechanism: post-norm
    // activations (the quantizer inputs) spike at the injected channels.
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    Transformer model(mw);

    std::vector<int> tokens;
    for (int i = 0; i < 24; ++i) tokens.push_back((i * 13 + 5) % 256);
    Tensor x = model.Embed(tokens);
    Tensor normed = Norm(NormKind::kRMSNorm, x, mw.layers[0].attn_norm_gamma,
                         mw.layers[0].attn_norm_beta);

    double hot_absmax = 0.0, cold_absmax = 0.0;
    for (int64_t r = 0; r < normed.Rows(); ++r) {
        for (int64_t c = 0; c < normed.Cols(); ++c) {
            const bool hot = std::find(mw.hot_channels.begin(),
                                       mw.hot_channels.end(),
                                       static_cast<int>(c)) !=
                             mw.hot_channels.end();
            const double a = std::abs(normed.At(r, c));
            if (hot) {
                hot_absmax = std::max(hot_absmax, a);
            } else {
                cold_absmax = std::max(cold_absmax, a);
            }
        }
    }
    EXPECT_GT(hot_absmax, 3.0 * cold_absmax);
}

}  // namespace
}  // namespace llmnpu
