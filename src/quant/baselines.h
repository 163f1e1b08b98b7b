/**
 * @file
 * Baseline quantization algorithms (Table 4): naive per-tensor, K-Quant-like
 * per-group, AWQ-like weight-only per-group, SmoothQuant-like smoothed
 * per-tensor, and LLM.Int8()-like mixed-precision decomposition.
 *
 * Each is a LinearExecutor, so accuracy comparisons (Table 6, Figure 4)
 * run the identical transformer forward pass and differ only in the linear
 * kernel — the same discipline the paper uses.
 */
#ifndef LLMNPU_QUANT_BASELINES_H
#define LLMNPU_QUANT_BASELINES_H

#include <memory>
#include <vector>

#include "src/quant/calibration.h"
#include "src/tensor/matmul.h"
#include "src/tensor/quantize.h"

namespace llmnpu {

/**
 * Naive per-tensor W8A8: dynamic per-tensor activation scale (max-min
 * symmetric [47]) + per-output-channel int8 weights. No outlier handling —
 * outliers blow up the activation scale and crush normal values, which is
 * the failure mode motivating §3.3.
 */
class PerTensorExecutor : public LinearExecutor
{
  public:
    explicit PerTensorExecutor(const ModelWeights& weights);

    /** Per segment: the dynamic per-tensor activation scale is computed
     *  from every row of its input, so a stacked call would couple the
     *  sequences' quantization grids. */
    Tensor ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                        const BatchSegments& segments) override;
    std::string Name() const override { return "PerTensor-W8A8"; }

  private:
    /** Per-column int8 weights, packed once at construction. */
    PerLinear<PackedWeightsI8> q_;
};

/**
 * K-Quant-like per-group W8A8 (group 32): per-group weight scales along K
 * and dynamic per-(row, group) activation scales, with the float sub-tensor
 * reduction of Figure 3(b). Accurate under outliers, NPU-hostile.
 */
class KQuantExecutor : public LinearExecutor
{
  public:
    KQuantExecutor(const ModelWeights& weights, int group_size = 32);

    /** Stacked: per-row dynamics only, so one kernel call is exact. */
    Tensor ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                        const BatchSegments& segments) override;
    std::string Name() const override { return "K-Quant"; }

    int group_size() const { return group_size_; }

  private:
    int group_size_;
    /** Per-group int8 weights, packed once at construction. */
    PerLinear<PackedPerGroupWeights> q_;
};

/**
 * AWQ-like: weight-only per-group quantization with activation-aware
 * per-channel weight scaling (salient channels protected by s_k derived
 * from calibration mean |x|). Activations stay float (Table 4).
 */
class AwqExecutor : public LinearExecutor
{
  public:
    AwqExecutor(const ModelWeights& weights, const CalibrationData& calib);

    /** Stacked: per-row dynamics only, so one kernel call is exact. */
    Tensor ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                        const BatchSegments& segments) override;
    std::string Name() const override { return "AWQ"; }

  private:
    /** Effective dequantized weights after scale/quant/unscale, packed. */
    PerLinear<PackedWeightsF32> w_eff_;
};

/**
 * SmoothQuant-like: offline smoothing s_k = max|x_k|^a / max|w_k|^(1-a)
 * migrates activation outliers into the weights, then *static* per-tensor
 * activation scales (from calibration) + per-column int8 weights.
 * Per-tensor and NPU-friendly, but accuracy suffers (Table 6).
 */
class SmoothQuantExecutor : public LinearExecutor
{
  public:
    SmoothQuantExecutor(const ModelWeights& weights,
                        const CalibrationData& calib);

    /** Stacked: per-row dynamics only, so one kernel call is exact. */
    Tensor ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                        const BatchSegments& segments) override;
    std::string Name() const override { return "SmoothQuant"; }

  private:
    struct SmoothedLinear {
        std::vector<float> inv_smooth;  ///< 1/s_k applied to activations
        PackedWeightsI8 weights;        ///< quantized smoothed weights
        float static_act_scale = 1.0f;  ///< offline-profiled per-tensor scale
    };
    PerLinear<SmoothedLinear> q_;
};

/**
 * LLM.Int8()-like mixed-precision decomposition: activation channels whose
 * calibrated absmax exceeds a threshold run in float; the rest use
 * vector-wise (per-row activation x per-column weight) int8 matmul.
 */
class LlmInt8Executor : public LinearExecutor
{
  public:
    LlmInt8Executor(const ModelWeights& weights, const CalibrationData& calib);

    /** Stacked: per-row dynamics only, so one kernel call is exact. */
    Tensor ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                        const BatchSegments& segments) override;
    std::string Name() const override { return "LLM.Int8()"; }

    /** Outlier channel count of one linear (for memory/latency analysis). */
    size_t NumOutlierChannels(int layer, LinearKind kind) const;

  private:
    struct DecomposedLinear {
        std::vector<int> outlier_channels;  ///< fp path (ascending)
        std::vector<int> normal_channels;   ///< int8 path (ascending)
        PackedWeightsF32 w_outlier;         ///< f32 [|outlier| x N]
        PackedWeightsI8 w_normal;           ///< int8 [|normal| x N]
    };
    PerLinear<DecomposedLinear> q_;
};

}  // namespace llmnpu

#endif  // LLMNPU_QUANT_BASELINES_H
