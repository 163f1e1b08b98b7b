/**
 * @file
 * The float epilogue ops of a transformer block as serial per-element
 * loops, one op per pass: row norms with their double accumulation,
 * residual add, activation and the gated multiply. The row-parallel,
 * fused ops of src/tensor/ops.h must match these bit for bit at every
 * thread count.
 */
#ifndef LLMNPU_TESTS_SUPPORT_EPILOGUE_REFERENCE_H
#define LLMNPU_TESTS_SUPPORT_EPILOGUE_REFERENCE_H

#include <cmath>
#include <cstdint>

#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace llmnpu {

/** Norm(kind, x, gamma, beta), one row after the other. */
inline Tensor
ReferenceNorm(NormKind kind, const Tensor& x, const Tensor& gamma,
              const Tensor& beta)
{
    const int64_t rows = x.Rows(), cols = x.Cols();
    Tensor out({rows, cols}, DType::kF32);
    const float* in = x.Data<float>();
    const float* g = gamma.Data<float>();
    float* o = out.Data<float>();
    for (int64_t r = 0; r < rows; ++r) {
        const float* row = in + r * cols;
        if (kind == NormKind::kRMSNorm) {
            double ms = 0.0;
            for (int64_t c = 0; c < cols; ++c) {
                ms += static_cast<double>(row[c]) * row[c];
            }
            ms /= static_cast<double>(cols);
            const float inv = static_cast<float>(1.0 / std::sqrt(ms + 1e-6f));
            for (int64_t c = 0; c < cols; ++c) {
                o[r * cols + c] = row[c] * inv * g[c];
            }
            continue;
        }
        const float* b = beta.Data<float>();
        double mean = 0.0;
        for (int64_t c = 0; c < cols; ++c) mean += row[c];
        mean /= static_cast<double>(cols);
        double var = 0.0;
        for (int64_t c = 0; c < cols; ++c) {
            const double d = row[c] - mean;
            var += d * d;
        }
        var /= static_cast<double>(cols);
        const float inv = static_cast<float>(1.0 / std::sqrt(var + 1e-5f));
        for (int64_t c = 0; c < cols; ++c) {
            o[r * cols + c] =
                (row[c] - static_cast<float>(mean)) * inv * g[c] + b[c];
        }
    }
    return out;
}

/** Elementwise a + b into a new tensor. */
inline Tensor
ReferenceAdd(const Tensor& a, const Tensor& b)
{
    Tensor out(a.shape(), DType::kF32);
    const float* pa = a.Data<float>();
    const float* pb = b.Data<float>();
    float* po = out.Data<float>();
    for (int64_t i = 0; i < a.NumElements(); ++i) po[i] = pa[i] + pb[i];
    return out;
}

/** act(x), element by element, in place. */
inline void
ReferenceActInPlace(ActKind act, Tensor& x)
{
    constexpr float kSqrt2OverPi = 0.7978845608f;
    float* p = x.Data<float>();
    for (int64_t i = 0; i < x.NumElements(); ++i) {
        const float v = p[i];
        p[i] = act == ActKind::kSiLU
                   ? v / (1.0f + std::exp(-v))
                   : 0.5f * v *
                         (1.0f + std::tanh(kSqrt2OverPi *
                                           (v + 0.044715f * v * v * v)));
    }
}

/** act(gate) * up: the activation pass, then a separate multiply pass. */
inline Tensor
ReferenceGatedAct(ActKind act, Tensor gate, const Tensor& up)
{
    ReferenceActInPlace(act, gate);
    Tensor out(gate.shape(), DType::kF32);
    const float* pg = gate.Data<float>();
    const float* pu = up.Data<float>();
    float* po = out.Data<float>();
    for (int64_t i = 0; i < gate.NumElements(); ++i) po[i] = pg[i] * pu[i];
    return out;
}

}  // namespace llmnpu

#endif  // LLMNPU_TESTS_SUPPORT_EPILOGUE_REFERENCE_H
