#include "src/core/outlier_profile.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace llmnpu {

namespace {

/** Channel-absmax quantile defining "normal" values; everything above is
 *  an outlier handled by the shadow path. It sits below the hot-channel
 *  fraction so the scale covers normal channels at full resolution and
 *  outliers exceed the clip. */
constexpr double kClipQuantile = 0.96;
/** Share of all exceedances the resident hot-channel set covers. */
constexpr double kHotCoverage = 0.85;

}  // namespace

OutlierProfile
OutlierProfile::Collect(const Transformer& model, const CalibrationData& calib,
                        const std::vector<std::vector<int>>& corpus)
{
    const ModelConfig& config = model.config();
    OutlierProfile out;

    // Derive the clip scale s per linear from the calibration pass: the
    // kClipQuantile of the per-channel absmax distribution is the largest
    // "normal" magnitude; s maps it to 127 (Equation 1).
    out.profiles_ = PerLinear<LinearOutlierProfile>(
        config, [&](int l, const LinearSpec& spec) {
            LinearOutlierProfile profile;
            const float normal_max = std::max(
                1e-6f,
                calib.Stats(l, spec.kind).ChannelAbsmaxQuantile(kClipQuantile));
            profile.clip_scale = normal_max / 127.0f;
            profile.exceed_count.assign(static_cast<size_t>(spec.k), 0);
            return profile;
        });

    // Counting pass over the corpus.
    TapLinearInputs(model, corpus, [&](int layer, LinearKind kind,
                                       const Tensor& x) {
        LinearOutlierProfile& profile = out.profiles_(layer, kind);
        const int64_t rows = x.Rows(), cols = x.Cols();
        LLMNPU_CHECK_EQ(static_cast<size_t>(cols), profile.exceed_count.size());
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
    });

    // Finalize per-linear statistics and hot channel sets.
    struct Ranked {
        int layer;
        LinearKind kind;
        double importance;
    };
    std::vector<Ranked> ranked;
    for (int l = 0; l < config.num_layers; ++l) {
        for (const auto& spec : config.LayerLinears()) {
            LinearOutlierProfile& profile = out.profiles_(l, spec.kind);
            if (profile.tokens_seen > 0) {
                profile.mean_outliers_per_token /=
                    static_cast<double>(profile.tokens_seen);
                profile.mean_outlier_fraction /=
                    static_cast<double>(profile.tokens_seen);
            }
            // Hot channels: smallest prefix (by descending count) covering
            // kHotCoverage of all exceedances.
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
                        kHotCoverage * static_cast<double>(total)) {
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
    out.rank_ = PerLinear<int>(config, [](int, const LinearSpec&) {
        return 0;
    });
    std::sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                               const Ranked& b) {
        return a.importance > b.importance;
    });
    for (size_t i = 0; i < ranked.size(); ++i) {
        out.rank_(ranked[i].layer, ranked[i].kind) = static_cast<int>(i);
    }
    return out;
}

int
OutlierProfile::ImportanceRank(int layer, LinearKind kind) const
{
    return rank_(layer, kind);
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

}  // namespace llmnpu
