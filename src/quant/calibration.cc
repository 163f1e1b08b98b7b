#include "src/quant/calibration.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/matmul.h"

namespace llmnpu {

float
LinearStats::ChannelAbsmaxQuantile(double q) const
{
    LLMNPU_CHECK(!channel_absmax.empty());
    std::vector<float> sorted = channel_absmax;
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return static_cast<float>(sorted[lo] * (1.0 - frac) + sorted[hi] * frac);
}

namespace {

/** fp32 executor that shows each linear's input to a tap first. The corpus
 *  pass forwards one sequence at a time, so the tap sees one segment. */
class TapExecutor : public LinearExecutor
{
  public:
    TapExecutor(const ModelWeights& weights, const LinearInputTap& tap)
        : weights_(weights), tap_(tap)
    {}

    Tensor
    ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                 const BatchSegments& segments) override
    {
        LLMNPU_CHECK_EQ(segments.size(), 2u);
        tap_(layer, kind, x);
        return MatMulF32Packed(x, weights_.PackedLinear(layer, kind));
    }

    std::string Name() const override { return "fp32-tap"; }

  private:
    const ModelWeights& weights_;
    const LinearInputTap& tap_;
};

}  // namespace

void
TapLinearInputs(const Transformer& model,
                const std::vector<std::vector<int>>& corpus,
                const LinearInputTap& tap)
{
    TapExecutor executor(model.weights(), tap);
    for (const auto& tokens : corpus) {
        LLMNPU_CHECK(!tokens.empty());
        BatchedKvCache cache = model.MakeCache();
        model.Forward(tokens, cache, executor);
    }
}

CalibrationData
CalibrationData::Collect(const Transformer& model,
                         const std::vector<std::vector<int>>& corpus)
{
    CalibrationData data;
    data.stats_ = PerLinear<LinearStats>(
        model.config(), [](int, const LinearSpec& spec) {
            LinearStats stats;
            stats.channel_absmax.assign(static_cast<size_t>(spec.k), 0.0f);
            stats.channel_mean_abs.assign(static_cast<size_t>(spec.k), 0.0f);
            return stats;
        });
    TapLinearInputs(model, corpus, [&](int layer, LinearKind kind,
                                       const Tensor& x) {
        LinearStats& stats = data.stats_(layer, kind);
        const int64_t rows = x.Rows(), cols = x.Cols();
        LLMNPU_CHECK_EQ(static_cast<size_t>(cols), stats.channel_absmax.size());
        const float* p = x.Data<float>();
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t c = 0; c < cols; ++c) {
                const float a = std::abs(p[r * cols + c]);
                auto idx = static_cast<size_t>(c);
                stats.channel_absmax[idx] = std::max(stats.channel_absmax[idx],
                                                     a);
                stats.channel_mean_abs[idx] += a;
                stats.tensor_absmax = std::max(stats.tensor_absmax, a);
            }
        }
        stats.rows_seen += rows;
    });
    // Convert mean-abs accumulators into means.
    const ModelConfig& config = model.config();
    for (int l = 0; l < config.num_layers; ++l) {
        for (const auto& spec : config.LayerLinears()) {
            LinearStats& stats = data.stats_(l, spec.kind);
            if (stats.rows_seen == 0) continue;
            for (auto& v : stats.channel_mean_abs) {
                v /= static_cast<float>(stats.rows_seen);
            }
        }
    }
    return data;
}

}  // namespace llmnpu
