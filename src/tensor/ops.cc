#include "src/tensor/ops.h"

#include <cmath>
#include <vector>

#include "src/tensor/kernel_isa.h"
#include "src/tensor/row_parallel.h"

namespace llmnpu {

namespace {

constexpr float kRmsNormEps = 1e-6f;
constexpr float kLayerNormEps = 1e-5f;

/** Writes the norm of one row of `cols` floats to `out`: a serial double
 *  accumulation, then one float expression per element. */
void
NormRow(NormKind kind, const float* row, const float* g, const float* b,
        int64_t cols, float* out)
{
    if (kind == NormKind::kRMSNorm) {
        double ms = 0.0;
        for (int64_t c = 0; c < cols; ++c) {
            ms += static_cast<double>(row[c]) * row[c];
        }
        ms /= static_cast<double>(cols);
        const float inv = static_cast<float>(1.0 / std::sqrt(ms + kRmsNormEps));
        for (int64_t c = 0; c < cols; ++c) out[c] = row[c] * inv * g[c];
        return;
    }
    double mean = 0.0;
    for (int64_t c = 0; c < cols; ++c) mean += row[c];
    mean /= static_cast<double>(cols);
    double var = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
        const double d = row[c] - mean;
        var += d * d;
    }
    var /= static_cast<double>(cols);
    const float inv = static_cast<float>(1.0 / std::sqrt(var + kLayerNormEps));
    for (int64_t c = 0; c < cols; ++c) {
        out[c] = (row[c] - static_cast<float>(mean)) * inv * g[c] + b[c];
    }
}

inline float
Gelu(float v)
{
    constexpr float kSqrt2OverPi = 0.7978845608f;
    return 0.5f * v *
           (1.0f + std::tanh(kSqrt2OverPi * (v + 0.044715f * v * v * v)));
}

/** p[i] = Gelu(p[i]) * up[i] (or Gelu(p[i]) without `up`) over [0, n).
 *  SiLU's span is SiluSpan in kernels.cc; GeLU's stays here, where no
 *  multiply-add of its polynomial can be contracted. */
void
GeluSpan(float* p, const float* up, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        const float a = Gelu(p[i]);
        p[i] = up != nullptr ? a * up[i] : a;
    }
}

/** The shared body of Norm and AddNormInPlace: normalizes the rows of
 *  [rows x cols] `in` into a new tensor. With `delta`, each row first
 *  becomes in + delta, written to `sum` (which may be `in`). */
Tensor
NormRows(NormKind kind, const float* in, const float* delta, float* sum,
         int64_t rows, int64_t cols, const Tensor& gamma, const Tensor& beta)
{
    LLMNPU_CHECK_EQ(gamma.NumElements(), cols);
    const float* g = gamma.Data<float>();
    const float* b = nullptr;
    if (kind == NormKind::kLayerNorm) {
        LLMNPU_CHECK_EQ(beta.NumElements(), cols);
        b = beta.Data<float>();
    }
    Tensor out({rows, cols}, DType::kF32);
    float* o = out.Data<float>();
    RowParallel(rows, cols, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const float* row = in + r * cols;
            if (delta != nullptr) {
                float* s = sum + r * cols;
                const float* d = delta + r * cols;
                for (int64_t c = 0; c < cols; ++c) s[c] = row[c] + d[c];
                row = s;
            }
            NormRow(kind, row, g, b, cols, o + r * cols);
        }
    });
    return out;
}

/** The shared body of ActInPlace and GatedActInPlace. */
void
ActRows(ActKind act, Tensor& x, const float* up)
{
    LLMNPU_CHECK_EQ(x.Rank(), 2);
    const int64_t cols = x.Cols();
    float* p = x.Data<float>();
    RowParallel(x.Rows(), cols, [&](int64_t r0, int64_t r1) {
        float* span = p + r0 * cols;
        const float* up_span = up != nullptr ? up + r0 * cols : nullptr;
        const int64_t n = (r1 - r0) * cols;
        if (act == ActKind::kSiLU) {
            SiluSpan(span, up_span, n);
        } else {
            GeluSpan(span, up_span, n);
        }
    });
}

}  // namespace

Tensor
Norm(NormKind kind, const Tensor& x, const Tensor& gamma, const Tensor& beta)
{
    LLMNPU_CHECK_EQ(x.Rank(), 2);
    return NormRows(kind, x.Data<float>(), nullptr, nullptr, x.Rows(),
                    x.Cols(), gamma, beta);
}

Tensor
AddNormInPlace(NormKind kind, Tensor& h, const Tensor& delta,
               const Tensor& gamma, const Tensor& beta)
{
    LLMNPU_CHECK_EQ(h.Rank(), 2);
    LLMNPU_CHECK(h.shape() == delta.shape());
    float* ph = h.Data<float>();
    return NormRows(kind, ph, delta.Data<float>(), ph, h.Rows(), h.Cols(),
                    gamma, beta);
}

void
ActInPlace(ActKind act, Tensor& x)
{
    ActRows(act, x, nullptr);
}

void
GatedActInPlace(ActKind act, Tensor& gate, const Tensor& up)
{
    LLMNPU_CHECK(gate.shape() == up.shape());
    ActRows(act, gate, up.Data<float>());
}

void
AddInPlace(Tensor& a, const Tensor& b)
{
    LLMNPU_CHECK(a.shape() == b.shape());
    LLMNPU_CHECK_EQ(a.Rank(), 2);
    const int64_t cols = a.Cols();
    float* pa = a.Data<float>();
    const float* pb = b.Data<float>();
    RowParallel(a.Rows(), cols, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0 * cols; i < r1 * cols; ++i) pa[i] += pb[i];
    });
}

RopeTable::RopeTable(const std::vector<int64_t>& positions, int head_dim,
                     float theta)
    : head_dim_(head_dim)
{
    LLMNPU_CHECK_GT(head_dim, 0);
    LLMNPU_CHECK_EQ(head_dim % 2, 0);
    const int half = head_dim / 2;
    std::vector<double> freq(static_cast<size_t>(half));
    for (int d = 0; d < half; ++d) {
        freq[static_cast<size_t>(d)] =
            std::pow(static_cast<double>(theta),
                     -2.0 * static_cast<double>(d) / head_dim);
    }
    cos_.resize(positions.size() * static_cast<size_t>(half));
    sin_.resize(cos_.size());
    size_t i = 0;
    for (const int64_t position : positions) {
        const double pos = static_cast<double>(position);
        for (int d = 0; d < half; ++d, ++i) {
            const double angle = pos * freq[static_cast<size_t>(d)];
            cos_[i] = static_cast<float>(std::cos(angle));
            sin_[i] = static_cast<float>(std::sin(angle));
        }
    }
}

void
RopeTable::Rotate(Tensor& x, int num_heads, int64_t s0, int64_t s1) const
{
    const int half = head_dim_ / 2;
    const int64_t cols = x.Cols();
    float* p = x.Data<float>();
    for (int64_t s = s0; s < s1; ++s) {
        const float* cos_row = cos_.data() + s * half;
        const float* sin_row = sin_.data() + s * half;
        for (int h = 0; h < num_heads; ++h) {
            float* head = p + s * cols + static_cast<int64_t>(h) * head_dim_;
            for (int d = 0; d < half; ++d) {
                const float x0 = head[d];
                const float x1 = head[d + half];
                head[d] = x0 * cos_row[d] - x1 * sin_row[d];
                head[d + half] = x0 * sin_row[d] + x1 * cos_row[d];
            }
        }
    }
}

void
RopeTable::Apply(Tensor& q, int q_heads, Tensor& k, int k_heads) const
{
    for (const Tensor* x : {&q, &k}) {
        LLMNPU_CHECK_EQ(x->Rank(), 2);
        LLMNPU_CHECK_EQ(x->Rows(), Rows());
    }
    LLMNPU_CHECK_EQ(q.Cols(), static_cast<int64_t>(q_heads) * head_dim_);
    LLMNPU_CHECK_EQ(k.Cols(), static_cast<int64_t>(k_heads) * head_dim_);
    RowParallel(Rows(), q.Cols() + k.Cols(), [&](int64_t s0, int64_t s1) {
        Rotate(q, q_heads, s0, s1);
        Rotate(k, k_heads, s0, s1);
    });
}

}  // namespace llmnpu
