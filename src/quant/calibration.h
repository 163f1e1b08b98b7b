/**
 * @file
 * Offline activation calibration (the paper's "profiling a large corpora at
 * offline" step, §3.3).
 *
 * Runs the fp32 reference model over a calibration corpus and records, for
 * every linear operator, per-channel activation statistics. SmoothQuant-like
 * smoothing, LLM.Int8()-like outlier column detection, AWQ-like weight
 * scaling, and llm.npu's outlier threshold/importance/hot-channel profiling
 * are all derived from this one data structure.
 */
#ifndef LLMNPU_QUANT_CALIBRATION_H
#define LLMNPU_QUANT_CALIBRATION_H

#include <functional>
#include <vector>

#include "src/model/transformer.h"

namespace llmnpu {

/** Receives one linear's f32 input activation [rows x k]. */
using LinearInputTap =
    std::function<void(int layer, LinearKind kind, const Tensor& x)>;

/**
 * The offline corpus pass shared by calibration and outlier profiling:
 * runs each sequence of `corpus` (token ids, none empty) alone through the
 * fp32 model and hands every linear's input to `tap` before its packed
 * matmul, in forward order.
 */
void TapLinearInputs(const Transformer& model,
                     const std::vector<std::vector<int>>& corpus,
                     const LinearInputTap& tap);

/** Per-linear activation statistics gathered during calibration. */
struct LinearStats {
    /** Max |x| seen per input channel. */
    std::vector<float> channel_absmax;
    /** Mean |x| per input channel (AWQ-style importance). */
    std::vector<float> channel_mean_abs;
    /** Max |x| over the whole tensor. */
    float tensor_absmax = 0.0f;
    /** Number of activation rows (tokens) observed. */
    int64_t rows_seen = 0;

    /**
     * The q-quantile of the per-channel absmax distribution; used as the
     * "normal value" clip when deriving llm.npu's outlier threshold.
     */
    float ChannelAbsmaxQuantile(double q) const;
};

/** Calibration results for every (layer, linear kind). */
class CalibrationData
{
  public:
    /** Runs `corpus` (token-id sequences) through the fp32 model. */
    static CalibrationData Collect(const Transformer& model,
                                   const std::vector<std::vector<int>>& corpus);

    /** Stats of one linear operator. */
    const LinearStats&
    Stats(int layer, LinearKind kind) const
    {
        return stats_(layer, kind);
    }

  private:
    PerLinear<LinearStats> stats_;
};

}  // namespace llmnpu

#endif  // LLMNPU_QUANT_CALIBRATION_H
