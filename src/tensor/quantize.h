/**
 * @file
 * Tensor-level quantization primitives: symmetric per-tensor and per-group
 * INT8 quantization (Figure 3 of the paper).
 *
 * The algorithm-level quantizers (K-Quant-like, AWQ-like, SmoothQuant-like,
 * LLM.Int8()-like, llm.npu's enhanced per-tensor scheme) in src/quant are
 * built on these primitives.
 */
#ifndef LLMNPU_TENSOR_QUANTIZE_H
#define LLMNPU_TENSOR_QUANTIZE_H

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace llmnpu {

/** Symmetric quantization parameters (zero point fixed at 0). */
struct QuantParams {
    float scale = 1.0f;  ///< real_value ~= scale * int8_value
};

/** Largest absolute value in an f32 tensor. */
float AbsMax(const Tensor& x);

/** Max-min symmetric scale so that absmax maps to 127 (paper ref [47]). */
QuantParams ComputeSymmetricScale(const Tensor& x);

/**
 * Quantizes f32 -> int8 with round-to-nearest and clamping to [-127, 127].
 *
 * Values beyond the representable range saturate; llm.npu's shadow outlier
 * execution (Equation 1) computes exactly the part lost to this clamp.
 */
Tensor QuantizeSymmetric(const Tensor& x, const QuantParams& params);

/**
 * The NPU input handoff: q[i] = clamp(nearbyint(x[i] * inv_scale), -127,
 * 127) with a float multiply and round half to even. Unlike
 * QuantizeSymmetric, the caller supplies the (offline) reciprocal scale.
 * SIMD and split over the thread pool (src/tensor/kernels.cc), and
 * bitwise equal to that scalar expression.
 */
Tensor QuantizePerTensorI8(const Tensor& x, float inv_scale);

/** Dequantizes int8 -> f32 with the given scale. */
Tensor Dequantize(const Tensor& q, const QuantParams& params);

/** Weights quantized with one symmetric scale per output column. */
struct PerColumnWeights {
    Tensor q;                   ///< int8 [K x N]
    std::vector<float> scales;  ///< [N]
};

/**
 * Per-output-channel symmetric quantization of a [K x N] weight matrix.
 * The NPU-friendly weight form: dequantization is a post-accumulation
 * per-column multiply (QNN supports this natively).
 */
PerColumnWeights QuantizePerColumn(const Tensor& w);

/** Dequantizes per-column weights back to f32 (for error analysis). */
Tensor DequantizePerColumn(const PerColumnWeights& w);

/**
 * Per-group quantization of a [K x N] weight matrix along the K dimension
 * (Figure 3(b)): each (group g, column n) block of `group_size` elements has
 * its own scale.
 */
struct PerGroupWeights {
    Tensor q;                   ///< int8 [K x N]
    std::vector<float> scales;  ///< [num_groups * N], scale of (g, n)
    int group_size = 0;
    int num_groups = 0;

    float GroupScale(int g, int64_t n) const
    {
        return scales[static_cast<size_t>(g) * static_cast<size_t>(q.Cols()) +
                      static_cast<size_t>(n)];
    }
};

/** Quantizes weights [K x N] per group along K. group_size must divide K. */
PerGroupWeights QuantizePerGroup(const Tensor& w, int group_size);

/** Dequantizes per-group weights back to f32 (for error analysis). */
Tensor DequantizePerGroup(const PerGroupWeights& w);

}  // namespace llmnpu

#endif  // LLMNPU_TENSOR_QUANTIZE_H
