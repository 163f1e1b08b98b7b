#include "src/quant/baselines.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/matmul.h"
#include "src/tensor/ops.h"

namespace llmnpu {

namespace {

/** Gathers columns `cols` of x into a compact [M x |cols|] tensor. */
Tensor
GatherColumns(const Tensor& x, const std::vector<int>& cols)
{
    const int64_t m = x.Rows(), k = x.Cols();
    Tensor out({m, static_cast<int64_t>(cols.size())}, DType::kF32);
    const float* px = x.Data<float>();
    float* po = out.Data<float>();
    for (int64_t r = 0; r < m; ++r) {
        for (size_t i = 0; i < cols.size(); ++i) {
            LLMNPU_CHECK_LT(cols[i], k);
            po[r * static_cast<int64_t>(cols.size()) +
               static_cast<int64_t>(i)] = px[r * k + cols[i]];
        }
    }
    return out;
}

/** Gathers rows `rows` of w into a compact [|rows| x N] tensor. */
Tensor
GatherRows(const Tensor& w, const std::vector<int>& rows)
{
    const int64_t n = w.Cols();
    Tensor out({static_cast<int64_t>(rows.size()), n}, DType::kF32);
    const float* pw = w.Data<float>();
    float* po = out.Data<float>();
    for (size_t i = 0; i < rows.size(); ++i) {
        LLMNPU_CHECK_LT(rows[i], w.Rows());
        for (int64_t c = 0; c < n; ++c) {
            po[static_cast<int64_t>(i) * n + c] =
                pw[static_cast<int64_t>(rows[i]) * n + c];
        }
    }
    return out;
}

/** AWQ's quantization group along K and its activation-importance
 *  exponent: s_k = mean|x_k|^alpha. */
constexpr int kAwqGroupSize = 32;
constexpr double kAwqAlpha = 0.5;
/** SmoothQuant's migration strength: s_k = max|x_k|^a / max|w_k|^(1-a). */
constexpr double kSmoothAlpha = 0.5;
/** LLM.Int8()'s outlier cut, in multiples of the median channel absmax. */
constexpr double kOutlierThreshold = 6.0;

/** Median of a copy of `v`. */
float
MedianOf(std::vector<float> v)
{
    LLMNPU_CHECK(!v.empty());
    std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                     v.end());
    return v[v.size() / 2];
}

}  // namespace

// --------------------------------------------------------------------------
// PerTensorExecutor
// --------------------------------------------------------------------------

PerTensorExecutor::PerTensorExecutor(const ModelWeights& weights)
    : q_(weights.config, [&](int l, const LinearSpec& spec) {
          const PerColumnWeights pc =
              QuantizePerColumn(weights.Linear(l, spec.kind));
          return PackWeightsI8(pc.q, pc.scales);
      })
{}

Tensor
PerTensorExecutor::ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                                const BatchSegments& segments)
{
    CheckBatchSegments(x, segments);
    const PackedWeightsI8& w = q_(layer, kind);
    auto forward = [&w](const Tensor& rows) {
        const QuantParams params = ComputeSymmetricScale(rows);
        return MatMulW8A8PerTensorPacked(QuantizeSymmetric(rows, params),
                                         params.scale, w);
    };
    if (segments.size() == 2) return forward(x);
    // Each segment quantized at its own scale, outputs scattered back:
    // bitwise identical to sequential execution by construction.
    Tensor out;
    for (size_t i = 0; i + 1 < segments.size(); ++i) {
        const int64_t r0 = segments[i];
        Tensor y = forward(x.CopyRows(r0, segments[i + 1] - r0));
        if (out.Rank() == 0) {
            out = Tensor({x.Rows(), y.Cols()}, DType::kF32);
        }
        out.PasteRows(y, r0);
    }
    return out;
}

// --------------------------------------------------------------------------
// KQuantExecutor
// --------------------------------------------------------------------------

KQuantExecutor::KQuantExecutor(const ModelWeights& weights, int group_size)
    : group_size_(group_size),
      q_(weights.config, [&](int l, const LinearSpec& spec) {
          return PackPerGroupWeights(
              QuantizePerGroup(weights.Linear(l, spec.kind), group_size));
      })
{}

Tensor
KQuantExecutor::ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                             const BatchSegments& segments)
{
    // Per-(row, group) activation scales never cross rows, so the stacked
    // per-group matmul is bitwise identical to per-segment calls.
    (void)segments;
    return MatMulPerGroupPacked(x, q_(layer, kind));
}

// --------------------------------------------------------------------------
// AwqExecutor
// --------------------------------------------------------------------------

AwqExecutor::AwqExecutor(const ModelWeights& weights,
                         const CalibrationData& calib)
{
    w_eff_ = PerLinear<PackedWeightsF32>(
        weights.config, [&](int l, const LinearSpec& spec) {
            const auto& stats = calib.Stats(l, spec.kind);
            LLMNPU_CHECK_EQ(stats.channel_mean_abs.size(),
                            static_cast<size_t>(spec.k));

            // Activation-aware channel scales, normalized to geomean 1.
            std::vector<double> s(static_cast<size_t>(spec.k));
            double log_sum = 0.0;
            for (int64_t kk = 0; kk < spec.k; ++kk) {
                const double a =
                    std::max(1e-5, static_cast<double>(
                                       stats.channel_mean_abs
                                           [static_cast<size_t>(kk)]));
                s[static_cast<size_t>(kk)] = std::pow(a, kAwqAlpha);
                log_sum += std::log(s[static_cast<size_t>(kk)]);
            }
            const double norm = std::exp(
                log_sum / static_cast<double>(spec.k));
            for (auto& v : s) v /= norm;

            // Scale weight rows, quantize per group, unscale: rows carrying
            // salient activations get finer effective resolution.
            Tensor w_scaled = weights.Linear(l, spec.kind);
            float* pw = w_scaled.Data<float>();
            for (int64_t kk = 0; kk < spec.k; ++kk) {
                for (int64_t c = 0; c < spec.n; ++c) {
                    pw[kk * spec.n + c] *=
                        static_cast<float>(s[static_cast<size_t>(kk)]);
                }
            }
            PerGroupWeights pg = QuantizePerGroup(w_scaled, kAwqGroupSize);
            Tensor w_deq = DequantizePerGroup(pg);
            float* pd = w_deq.Data<float>();
            for (int64_t kk = 0; kk < spec.k; ++kk) {
                for (int64_t c = 0; c < spec.n; ++c) {
                    pd[kk * spec.n + c] /=
                        static_cast<float>(s[static_cast<size_t>(kk)]);
                }
            }
            return PackWeightsF32(w_deq);
        });
}

Tensor
AwqExecutor::ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                          const BatchSegments& segments)
{
    // Weight-only quantization: activations stay float and the f32 kernel
    // computes each row with a fixed K-ascending order.
    (void)segments;
    return MatMulF32Packed(x, w_eff_(layer, kind));
}

// --------------------------------------------------------------------------
// SmoothQuantExecutor
// --------------------------------------------------------------------------

SmoothQuantExecutor::SmoothQuantExecutor(const ModelWeights& weights,
                                         const CalibrationData& calib)
{
    q_ = PerLinear<SmoothedLinear>(
        weights.config, [&](int l, const LinearSpec& spec) {
            Tensor w_smooth = weights.Linear(l, spec.kind);
            const auto& stats = calib.Stats(l, spec.kind);

            SmoothedLinear sl;
            sl.inv_smooth.resize(static_cast<size_t>(spec.k));
            float* pw = w_smooth.Data<float>();
            float smoothed_absmax = 0.0f;
            for (int64_t kk = 0; kk < spec.k; ++kk) {
                // Per-channel weight absmax.
                float w_absmax = 0.0f;
                for (int64_t c = 0; c < spec.n; ++c) {
                    w_absmax = std::max(w_absmax,
                                        std::abs(pw[kk * spec.n + c]));
                }
                const float x_absmax = std::max(
                    1e-5f, stats.channel_absmax[static_cast<size_t>(kk)]);
                const float s = std::max(
                    1e-5f,
                    static_cast<float>(
                        std::pow(x_absmax, kSmoothAlpha) /
                        std::pow(std::max(w_absmax, 1e-5f),
                                 1.0 - kSmoothAlpha)));
                sl.inv_smooth[static_cast<size_t>(kk)] = 1.0f / s;
                for (int64_t c = 0; c < spec.n; ++c) {
                    pw[kk * spec.n + c] *= s;
                }
                smoothed_absmax = std::max(smoothed_absmax, x_absmax / s);
            }
            const PerColumnWeights pc = QuantizePerColumn(w_smooth);
            sl.weights = PackWeightsI8(pc.q, pc.scales);
            // Static per-tensor activation scale, profiled offline — this
            // (plus outlier migration into weights) is SmoothQuant's
            // accuracy weakness the paper measures in Table 6.
            sl.static_act_scale = smoothed_absmax > 0.0f
                                      ? smoothed_absmax / 127.0f
                                      : 1.0f;
            return sl;
        });
}

Tensor
SmoothQuantExecutor::ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                                  const BatchSegments& segments)
{
    // Smoothing and the static activation scale are offline constants, so
    // quantization is element-wise and the stacked call is exact.
    (void)segments;
    const SmoothedLinear& sl = q_(layer, kind);
    Tensor x_smooth = x;
    float* px = x_smooth.Data<float>();
    const int64_t m = x.Rows(), k = x.Cols();
    LLMNPU_CHECK_EQ(static_cast<size_t>(k), sl.inv_smooth.size());
    for (int64_t r = 0; r < m; ++r) {
        for (int64_t c = 0; c < k; ++c) {
            px[r * k + c] *= sl.inv_smooth[static_cast<size_t>(c)];
        }
    }
    QuantParams params{sl.static_act_scale};
    Tensor x_q = QuantizeSymmetric(x_smooth, params);
    return MatMulW8A8PerTensorPacked(x_q, params.scale, sl.weights);
}

// --------------------------------------------------------------------------
// LlmInt8Executor
// --------------------------------------------------------------------------

LlmInt8Executor::LlmInt8Executor(const ModelWeights& weights,
                                 const CalibrationData& calib)
{
    q_ = PerLinear<DecomposedLinear>(
        weights.config, [&](int l, const LinearSpec& spec) {
            const Tensor w = weights.Linear(l, spec.kind);
            const auto& stats = calib.Stats(l, spec.kind);

            DecomposedLinear dl;
            const float median = MedianOf(stats.channel_absmax);
            const float cut = static_cast<float>(kOutlierThreshold) *
                              std::max(median, 1e-5f);
            for (int64_t kk = 0; kk < spec.k; ++kk) {
                if (stats.channel_absmax[static_cast<size_t>(kk)] > cut) {
                    dl.outlier_channels.push_back(static_cast<int>(kk));
                } else {
                    dl.normal_channels.push_back(static_cast<int>(kk));
                }
            }
            dl.w_outlier = PackWeightsF32(GatherRows(w, dl.outlier_channels));
            PerColumnWeights pc =
                QuantizePerColumn(GatherRows(w, dl.normal_channels));
            dl.w_normal = PackWeightsI8(pc.q, std::move(pc.scales));
            return dl;
        });
}

size_t
LlmInt8Executor::NumOutlierChannels(int layer, LinearKind kind) const
{
    return q_(layer, kind).outlier_channels.size();
}

Tensor
LlmInt8Executor::ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                              const BatchSegments& segments)
{
    // The outlier channel set is static (calibration-time) and activation
    // scales are per row, so the stacked decomposition is exact.
    (void)segments;
    const DecomposedLinear& dl = q_(layer, kind);
    const int64_t m = x.Rows();

    // Normal channels: vector-wise int8 (per-row activation scales).
    Tensor x_norm = GatherColumns(x, dl.normal_channels);
    std::vector<float> row_scales(static_cast<size_t>(m));
    Tensor x_q(x_norm.shape(), DType::kI8);
    {
        const float* px = x_norm.Data<float>();
        int8_t* pq = x_q.Data<int8_t>();
        const int64_t k = x_norm.Cols();
        for (int64_t r = 0; r < m; ++r) {
            float absmax = 0.0f;
            for (int64_t c = 0; c < k; ++c) {
                absmax = std::max(absmax, std::abs(px[r * k + c]));
            }
            const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
            row_scales[static_cast<size_t>(r)] = scale;
            const float inv = 1.0f / scale;
            for (int64_t c = 0; c < k; ++c) {
                pq[r * k + c] = static_cast<int8_t>(std::clamp(
                    std::nearbyint(px[r * k + c] * inv), -127.0f, 127.0f));
            }
        }
    }
    Tensor y = MatMulW8A8RowColPacked(x_q, row_scales, dl.w_normal);

    // Outlier channels: float path.
    if (!dl.outlier_channels.empty()) {
        Tensor x_out = GatherColumns(x, dl.outlier_channels);
        Tensor y_out = MatMulF32Packed(x_out, dl.w_outlier);
        AddInPlace(y, y_out);
    }
    return y;
}

}  // namespace llmnpu
