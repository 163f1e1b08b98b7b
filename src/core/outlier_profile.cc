#include "src/core/outlier_profile.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/tensor/matmul.h"

namespace llmnpu {

namespace {

/** fp32 executor that counts per-channel clip exceedances. */
class CountingExecutor : public LinearExecutor
{
  public:
    CountingExecutor(const ModelWeights& weights,
                     std::vector<std::vector<LinearOutlierProfile>>& profiles)
        : weights_(weights), profiles_(profiles)
    {}

    Tensor
    Forward(int layer, LinearKind kind, const Tensor& x) override
    {
        auto& profile = profiles_[static_cast<size_t>(layer)]
                                 [static_cast<size_t>(
                                     LinearKindIndex(kind))];
        const int64_t rows = x.Rows(), cols = x.Cols();
        if (profile.exceed_count.empty()) {
            profile.exceed_count.assign(static_cast<size_t>(cols), 0);
        }
        const float clip = profile.ClipValue();
        const float* p = x.Data<float>();
        for (int64_t r = 0; r < rows; ++r) {
            int64_t outliers_this_token = 0;
            for (int64_t c = 0; c < cols; ++c) {
                const float a = std::abs(p[r * cols + c]);
                if (a > clip) {
                    ++profile.exceed_count[static_cast<size_t>(c)];
                    ++outliers_this_token;
                }
                profile.importance = std::max(
                    profile.importance, static_cast<double>(a) / clip);
            }
            profile.mean_outliers_per_token +=
                static_cast<double>(outliers_this_token);
            profile.mean_outlier_fraction +=
                static_cast<double>(outliers_this_token) /
                static_cast<double>(cols);
        }
        profile.tokens_seen += rows;
        return MatMulF32Packed(x, weights_.PackedLinear(layer, kind));
    }

    std::string Name() const override { return "outlier-profiler"; }

  private:
    const ModelWeights& weights_;
    std::vector<std::vector<LinearOutlierProfile>>& profiles_;
};

}  // namespace

OutlierProfile
OutlierProfile::Collect(const Transformer& model, const CalibrationData& calib,
                        const std::vector<std::vector<int>>& corpus,
                        const Options& options)
{
    const ModelConfig& config = model.config();
    OutlierProfile out;
    out.per_layer_.assign(static_cast<size_t>(config.num_layers),
                          std::vector<LinearOutlierProfile>(7));
    out.rank_.assign(static_cast<size_t>(config.num_layers),
                     std::vector<int>(7, -1));

    // Derive the clip scale s per linear from the calibration pass: the
    // clip_quantile of the per-channel absmax distribution is the largest
    // "normal" magnitude; s maps it to 127 (Equation 1).
    for (int l = 0; l < config.num_layers; ++l) {
        for (const auto& spec : config.LayerLinears()) {
            const auto& stats = calib.Stats(l, spec.kind);
            auto& profile =
                out.per_layer_[static_cast<size_t>(l)]
                              [static_cast<size_t>(
                                  LinearKindIndex(spec.kind))];
            const float normal_max = std::max(
                1e-6f, stats.ChannelAbsmaxQuantile(options.clip_quantile));
            profile.clip_scale = normal_max / 127.0f;
        }
    }

    // Counting pass over the corpus.
    CountingExecutor counter(model.weights(), out.per_layer_);
    for (const auto& tokens : corpus) {
        BatchedKvCache cache = model.MakeCache();
        model.Forward(tokens, cache, counter);
    }

    // Finalize per-linear statistics and hot channel sets.
    struct Ranked {
        int layer;
        LinearKind kind;
        double importance;
    };
    std::vector<Ranked> ranked;
    for (int l = 0; l < config.num_layers; ++l) {
        for (const auto& spec : config.LayerLinears()) {
            auto& profile =
                out.per_layer_[static_cast<size_t>(l)]
                              [static_cast<size_t>(
                                  LinearKindIndex(spec.kind))];
            if (profile.tokens_seen > 0) {
                profile.mean_outliers_per_token /=
                    static_cast<double>(profile.tokens_seen);
                profile.mean_outlier_fraction /=
                    static_cast<double>(profile.tokens_seen);
            }
            // Hot channels: smallest prefix (by descending count) covering
            // hot_coverage of all exceedances.
            const int64_t total = std::accumulate(
                profile.exceed_count.begin(), profile.exceed_count.end(),
                static_cast<int64_t>(0));
            if (total > 0) {
                std::vector<int> order(profile.exceed_count.size());
                std::iota(order.begin(), order.end(), 0);
                std::sort(order.begin(), order.end(), [&](int a, int b) {
                    return profile.exceed_count[static_cast<size_t>(a)] >
                           profile.exceed_count[static_cast<size_t>(b)];
                });
                int64_t covered = 0;
                for (int c : order) {
                    if (profile.exceed_count[static_cast<size_t>(c)] == 0) {
                        break;
                    }
                    profile.hot_channels.push_back(c);
                    covered += profile.exceed_count[static_cast<size_t>(c)];
                    if (static_cast<double>(covered) >=
                        options.hot_coverage * static_cast<double>(total)) {
                        break;
                    }
                }
                profile.hot_coverage_achieved =
                    static_cast<double>(covered) / static_cast<double>(total);
            }
            ranked.push_back({l, spec.kind, profile.importance});
            ++out.num_linears_;
        }
    }

    // Importance ranking (0 = most important).
    std::sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                               const Ranked& b) {
        return a.importance > b.importance;
    });
    for (size_t i = 0; i < ranked.size(); ++i) {
        out.rank_[static_cast<size_t>(ranked[i].layer)]
                 [static_cast<size_t>(LinearKindIndex(ranked[i].kind))] =
            static_cast<int>(i);
    }
    return out;
}

const LinearOutlierProfile&
OutlierProfile::Stats(int layer, LinearKind kind) const
{
    return per_layer_[static_cast<size_t>(layer)]
                     [static_cast<size_t>(LinearKindIndex(kind))];
}

int
OutlierProfile::ImportanceRank(int layer, LinearKind kind) const
{
    const int rank = rank_[static_cast<size_t>(layer)]
                          [static_cast<size_t>(LinearKindIndex(kind))];
    LLMNPU_CHECK_GE(rank, 0);
    return rank;
}

bool
OutlierProfile::ShadowEnabled(int layer, LinearKind kind,
                              double pruning_rate) const
{
    LLMNPU_CHECK_GE(pruning_rate, 0.0);
    LLMNPU_CHECK_LE(pruning_rate, 1.0);
    const int kept = static_cast<int>(std::ceil(
        (1.0 - pruning_rate) * static_cast<double>(num_linears_)));
    return ImportanceRank(layer, kind) < kept;
}

double
OutlierProfile::MeanHotChannelFraction() const
{
    double sum = 0.0;
    int count = 0;
    for (const auto& layer : per_layer_) {
        for (const auto& profile : layer) {
            if (profile.exceed_count.empty()) continue;
            sum += static_cast<double>(profile.hot_channels.size()) /
                   static_cast<double>(profile.exceed_count.size());
            ++count;
        }
    }
    return count > 0 ? sum / count : 0.0;
}

}  // namespace llmnpu
