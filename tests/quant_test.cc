/**
 * @file
 * Tests for the baseline quantization algorithms: calibration statistics,
 * per-algorithm numerics, and the Table 6 accuracy ordering on a model with
 * injected activation outliers.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "src/model/transformer.h"
#include "src/quant/baselines.h"
#include "src/quant/calibration.h"
#include "src/workloads/accuracy.h"
#include "src/workloads/corpus.h"
#include "tests/support/random.h"
#include "tests/support/tiny_model.h"

namespace llmnpu {
namespace {

/** Shared fixture: a tiny outlier-bearing model plus calibration data. */
class QuantFixture : public TinyModelTest
{
  protected:
    double
    Agreement(LinearExecutor& executor)
    {
        return EvaluateAgreement(*model_, executor, *eval_corpus_)
            .top1_agreement;
    }

    const ModelConfig* config_ = &tiny_.config;
    const ModelWeights* weights_ = &tiny_.weights;
    const Transformer* model_ = &tiny_.model;
    const CalibrationData* calib_ = &tiny_.calib;
    const std::vector<std::vector<int>>* eval_corpus_ = &tiny_.eval_corpus;
};

TEST_F(QuantFixture, CalibrationSeesEveryLinear)
{
    for (int l = 0; l < config_->num_layers; ++l) {
        for (const auto& spec : config_->LayerLinears()) {
            const auto& stats = calib_->Stats(l, spec.kind);
            EXPECT_GT(stats.rows_seen, 0) << LinearKindName(spec.kind);
            EXPECT_EQ(stats.channel_absmax.size(),
                      static_cast<size_t>(spec.k));
            EXPECT_GT(stats.tensor_absmax, 0.0f);
        }
    }
}

TEST_F(QuantFixture, CalibrationDetectsInjectedHotChannels)
{
    // The hot channels must dominate the qkv-input absmax profile.
    const auto& stats = calib_->Stats(0, LinearKind::kWq);
    const float q90 = stats.ChannelAbsmaxQuantile(0.90);
    int detected = 0;
    for (int hot : weights_->hot_channels) {
        if (stats.channel_absmax[static_cast<size_t>(hot)] > q90) ++detected;
    }
    EXPECT_GE(detected, static_cast<int>(weights_->hot_channels.size()) - 1);
}

TEST_F(QuantFixture, TapLinearInputsRunsEachSequenceAlone)
{
    struct Tap {
        int layer;
        LinearKind kind;
        Tensor x;
    };
    auto collect = [&](const std::vector<std::vector<int>>& corpus) {
        std::vector<Tap> taps;
        TapLinearInputs(*model_, corpus,
                        [&](int layer, LinearKind kind, const Tensor& x) {
                            taps.push_back({layer, kind, x});
                        });
        return taps;
    };
    const std::vector<int> first = {3, 1, 4, 1, 5};
    const std::vector<int> second = {9, 2, 6};
    const std::vector<Tap> both = collect({first, second});
    const std::vector<Tap> alone = collect({second});

    // One tap per (layer, linear) per sequence, layer by layer, each seeing
    // the whole sequence at the linear's input width.
    const std::vector<LinearSpec> specs = config_->LayerLinears();
    const size_t per_seq = static_cast<size_t>(config_->num_layers) *
                           specs.size();
    ASSERT_EQ(both.size(), 2 * per_seq);
    ASSERT_EQ(alone.size(), per_seq);
    for (size_t i = 0; i < both.size(); ++i) {
        const size_t seq_len = i < per_seq ? first.size() : second.size();
        const Tap& tap = both[i];
        EXPECT_EQ(tap.layer, static_cast<int>((i % per_seq) / specs.size()));
        EXPECT_EQ(tap.x.Rows(), static_cast<int64_t>(seq_len));
        bool known = false;
        for (const LinearSpec& spec : specs) {
            if (spec.kind != tap.kind) continue;
            known = true;
            EXPECT_EQ(tap.x.Cols(), spec.k) << LinearKindName(spec.kind);
        }
        EXPECT_TRUE(known);
    }
    // The second sequence sees no state of the first: its taps are bitwise
    // those of running it by itself.
    for (size_t i = 0; i < per_seq; ++i) {
        const Tap& a = both[per_seq + i];
        const Tap& b = alone[i];
        EXPECT_EQ(a.layer, b.layer);
        EXPECT_TRUE(a.kind == b.kind);
        ASSERT_EQ(a.x.shape(), b.x.shape());
        EXPECT_EQ(std::memcmp(a.x.Data<float>(), b.x.Data<float>(),
                              a.x.SizeBytes()),
                  0)
            << "layer " << a.layer << " " << LinearKindName(a.kind);
    }
}

TEST_F(QuantFixture, ChannelQuantileMonotone)
{
    const auto& stats = calib_->Stats(1, LinearKind::kFfnUp);
    EXPECT_LE(stats.ChannelAbsmaxQuantile(0.5),
              stats.ChannelAbsmaxQuantile(0.9));
    EXPECT_LE(stats.ChannelAbsmaxQuantile(0.9),
              stats.ChannelAbsmaxQuantile(1.0));
    EXPECT_NEAR(stats.ChannelAbsmaxQuantile(1.0), stats.tensor_absmax,
                stats.tensor_absmax * 0.25 + 1e-3);
}

TEST_F(QuantFixture, Fp32ReferenceAgreesWithItself)
{
    Fp32LinearExecutor fp32(*weights_);
    EXPECT_DOUBLE_EQ(Agreement(fp32), 1.0);
}

TEST_F(QuantFixture, PerGroupAccurateUnderOutliers)
{
    KQuantExecutor kquant(*weights_, 32);
    EXPECT_GE(Agreement(kquant), 0.8);
}

TEST_F(QuantFixture, AwqAccurate)
{
    AwqExecutor awq(*weights_, *calib_);
    EXPECT_GE(Agreement(awq), 0.8);
}

TEST_F(QuantFixture, LlmInt8Accurate)
{
    LlmInt8Executor int8(*weights_, *calib_);
    EXPECT_GE(Agreement(int8), 0.8);
}

TEST_F(QuantFixture, LlmInt8FindsOutlierColumns)
{
    LlmInt8Executor int8(*weights_, *calib_);
    // qkv input: the injected hot channels should be escalated to fp16.
    EXPECT_GE(int8.NumOutlierChannels(0, LinearKind::kWq), 1u);
    // And the split must stay sparse.
    EXPECT_LE(int8.NumOutlierChannels(0, LinearKind::kWq),
              static_cast<size_t>(config_->hidden_size / 4));
}

TEST_F(QuantFixture, NaivePerTensorDegradesUnderOutliers)
{
    // The §3.3 motivation: plain per-tensor activation quantization is
    // wrecked by outliers (they inflate the scale and crush normal values).
    PerTensorExecutor naive(*weights_);
    KQuantExecutor kquant(*weights_, 32);
    EXPECT_LE(Agreement(naive), Agreement(kquant));
}

TEST_F(QuantFixture, SmoothQuantWorstOfTheAccurateFamily)
{
    // Table 6: SmoothQuant (static per-tensor) trails K-Quant/LLM.Int8().
    SmoothQuantExecutor smooth(*weights_, *calib_);
    LlmInt8Executor int8(*weights_, *calib_);
    EXPECT_LE(Agreement(smooth), Agreement(int8) + 1e-9);
}

TEST_F(QuantFixture, ExecutorOutputShapes)
{
    Tensor x = Tensor::Zeros({3, config_->hidden_size});
    x.At(0, 0) = 1.0f;
    PerTensorExecutor naive(*weights_);
    KQuantExecutor kquant(*weights_, 32);
    SmoothQuantExecutor smooth(*weights_, *calib_);
    LlmInt8Executor int8(*weights_, *calib_);
    AwqExecutor awq(*weights_, *calib_);
    for (LinearExecutor* executor :
         std::initializer_list<LinearExecutor*>{&naive, &kquant, &smooth,
                                                &int8, &awq}) {
        Tensor y = executor->Forward(0, LinearKind::kFfnUp, x);
        EXPECT_EQ(y.Rows(), 3) << executor->Name();
        EXPECT_EQ(y.Cols(), config_->ffn_hidden) << executor->Name();
    }
}

TEST_F(QuantFixture, ExecutorNames)
{
    PerTensorExecutor naive(*weights_);
    EXPECT_EQ(naive.Name(), "PerTensor-W8A8");
    KQuantExecutor kquant(*weights_, 32);
    EXPECT_EQ(kquant.Name(), "K-Quant");
    SmoothQuantExecutor smooth(*weights_, *calib_);
    EXPECT_EQ(smooth.Name(), "SmoothQuant");
    LlmInt8Executor int8(*weights_, *calib_);
    EXPECT_EQ(int8.Name(), "LLM.Int8()");
    AwqExecutor awq(*weights_, *calib_);
    EXPECT_EQ(awq.Name(), "AWQ");
}

TEST_F(QuantFixture, KQuantPackedForwardBitwiseEqualsPerCallPacking)
{
    // The executor packs each linear once at construction; its forward
    // must equal quantizing and packing the same weights here.
    Rng rng(7);
    KQuantExecutor kquant(*weights_, 32);
    for (int64_t m : {1, 3, 16}) {
        for (const auto& spec : config_->LayerLinears()) {
            for (int l = 0; l < config_->num_layers; ++l) {
                const Tensor x = RandomTensor(rng, {m, spec.k});
                const Tensor repacked = MatMulPerGroupPacked(
                    x, PackPerGroupWeights(QuantizePerGroup(
                           weights_->Linear(l, spec.kind), 32)));
                EXPECT_TRUE(kquant.Forward(l, spec.kind, x).BitEquals(repacked))
                    << "layer " << l << " m=" << m;
            }
        }
    }
}

TEST_F(QuantFixture, KQuantGroupSizeRespected)
{
    KQuantExecutor kquant(*weights_, 16);
    EXPECT_EQ(kquant.group_size(), 16);
}

}  // namespace
}  // namespace llmnpu
