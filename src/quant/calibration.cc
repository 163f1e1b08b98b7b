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

/** fp32 executor that records activation stats before each matmul. */
class RecordingExecutor : public LinearExecutor
{
  public:
    RecordingExecutor(const ModelWeights& weights, CalibrationData& data)
        : weights_(weights), data_(data)
    {}

    Tensor
    Forward(int layer, LinearKind kind, const Tensor& x) override
    {
        LinearStats& stats = data_.MutableStats(layer, kind);
        const int64_t rows = x.Rows(), cols = x.Cols();
        if (stats.channel_absmax.empty()) {
            stats.channel_absmax.assign(static_cast<size_t>(cols), 0.0f);
            stats.channel_mean_abs.assign(static_cast<size_t>(cols), 0.0f);
        }
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
        return MatMulF32Packed(x, weights_.PackedLinear(layer, kind));
    }

    std::string Name() const override { return "calibration"; }

  private:
    const ModelWeights& weights_;
    CalibrationData& data_;
};

}  // namespace

CalibrationData
CalibrationData::Collect(const Transformer& model,
                         const std::vector<std::vector<int>>& corpus)
{
    CalibrationData data;
    data.per_layer_.assign(
        static_cast<size_t>(model.config().num_layers),
        std::vector<LinearStats>(static_cast<size_t>(kNumLinearKinds)));

    RecordingExecutor recorder(model.weights(), data);
    for (const auto& tokens : corpus) {
        LLMNPU_CHECK(!tokens.empty());
        BatchedKvCache cache = model.MakeCache();
        model.Forward(tokens, cache, recorder);
    }
    // Convert mean-abs accumulators into means.
    for (auto& layer : data.per_layer_) {
        for (auto& stats : layer) {
            if (stats.rows_seen == 0) continue;
            for (auto& v : stats.channel_mean_abs) {
                v /= static_cast<float>(stats.rows_seen);
            }
        }
    }
    return data;
}

const LinearStats&
CalibrationData::Stats(int layer, LinearKind kind) const
{
    return per_layer_[static_cast<size_t>(layer)]
                     [static_cast<size_t>(LinearKindIndex(kind))];
}

LinearStats&
CalibrationData::MutableStats(int layer, LinearKind kind)
{
    return per_layer_[static_cast<size_t>(layer)]
                     [static_cast<size_t>(LinearKindIndex(kind))];
}

}  // namespace llmnpu
