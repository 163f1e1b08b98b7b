/**
 * @file
 * Offline outlier profiling (§3.3): per-linear clip thresholds (the `s` of
 * Equation 1), per-channel outlier frequencies (Figures 10-11), hot-channel
 * sets for the shadow-weight memory optimization, and per-linear outlier
 * importance for pruning (Figure 12).
 */
#ifndef LLMNPU_CORE_OUTLIER_PROFILE_H
#define LLMNPU_CORE_OUTLIER_PROFILE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "src/model/transformer.h"
#include "src/quant/calibration.h"

namespace llmnpu {

/** Profiled outlier behaviour of one linear operator. */
struct LinearOutlierProfile {
    /** Quantization scale s (Equation 1): values within [-127s, 127s] run
     *  on the NPU; the excess is shadow-executed. */
    float clip_scale = 1.0f;
    /** Clip threshold T = 127 * clip_scale. */
    float ClipValue() const { return 127.0f * clip_scale; }

    /** Times each input channel exceeded the clip (Figure 11). */
    std::vector<int64_t> exceed_count;
    /** Tokens observed during profiling. */
    int64_t tokens_seen = 0;
    /** Mean number of outlier channels per token (Figure 10 left). */
    double mean_outliers_per_token = 0.0;
    /** Mean fraction of channels that are outliers per token (Fig 10 right). */
    double mean_outlier_fraction = 0.0;
    /** Importance: largest observed |x| over the clip value (Figure 12:
     *  ratio between the largest outlier and the quantization scale). */
    double importance = 0.0;
    /** Channels covering >= 85% of exceedances, hottest first. */
    std::vector<int> hot_channels;

    /** Fraction of all exceedances covered by the hot channel set. */
    double hot_coverage_achieved = 0.0;
};

/** Whole-model outlier profile with pruning decisions. */
class OutlierProfile
{
  public:
    /**
     * Profiles the model over `corpus`: derives clip scales from `calib`,
     * then runs a counting pass over the corpus.
     */
    static OutlierProfile Collect(const Transformer& model,
                                  const CalibrationData& calib,
                                  const std::vector<std::vector<int>>& corpus);

    const LinearOutlierProfile&
    Stats(int layer, LinearKind kind) const
    {
        return profiles_(layer, kind);
    }

    /**
     * Importance rank of a linear: 0 = most important. Pruning at rate p
     * disables the shadow path for the floor(p * total) least important
     * linears (§3.3: default p = 0.85).
     */
    int ImportanceRank(int layer, LinearKind kind) const;

    /** Whether the shadow path stays enabled at a pruning rate. */
    bool ShadowEnabled(int layer, LinearKind kind, double pruning_rate) const;

    /** Linears profiled (layers x kinds present in the model). */
    int NumLinears() const { return num_linears_; }

  private:
    PerLinear<LinearOutlierProfile> profiles_;
    PerLinear<int> rank_;
    int num_linears_ = 0;
};

}  // namespace llmnpu

#endif  // LLMNPU_CORE_OUTLIER_PROFILE_H
