#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/tensor/attention_kernel.h"

namespace llmnpu {

void
SoftmaxRowsInPlace(Tensor& x)
{
    LLMNPU_CHECK_EQ(x.Rank(), 2);
    const int64_t rows = x.Rows(), cols = x.Cols();
    float* p = x.Data<float>();
    for (int64_t r = 0; r < rows; ++r) {
        float* row = p + r * cols;
        float mx = row[0];
        for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
        double sum = 0.0;
        for (int64_t c = 0; c < cols; ++c) {
            row[c] = std::exp(row[c] - mx);
            sum += row[c];
        }
        const float inv = static_cast<float>(1.0 / sum);
        for (int64_t c = 0; c < cols; ++c) row[c] *= inv;
    }
}

Tensor
LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps)
{
    LLMNPU_CHECK_EQ(x.Rank(), 2);
    const int64_t rows = x.Rows(), cols = x.Cols();
    LLMNPU_CHECK_EQ(gamma.NumElements(), cols);
    LLMNPU_CHECK_EQ(beta.NumElements(), cols);
    Tensor out({rows, cols}, DType::kF32);
    const float* in = x.Data<float>();
    const float* g = gamma.Data<float>();
    const float* b = beta.Data<float>();
    float* o = out.Data<float>();
    for (int64_t r = 0; r < rows; ++r) {
        const float* row = in + r * cols;
        double mean = 0.0;
        for (int64_t c = 0; c < cols; ++c) mean += row[c];
        mean /= static_cast<double>(cols);
        double var = 0.0;
        for (int64_t c = 0; c < cols; ++c) {
            const double d = row[c] - mean;
            var += d * d;
        }
        var /= static_cast<double>(cols);
        const float inv = static_cast<float>(1.0 / std::sqrt(var + eps));
        for (int64_t c = 0; c < cols; ++c) {
            o[r * cols + c] =
                (row[c] - static_cast<float>(mean)) * inv * g[c] + b[c];
        }
    }
    return out;
}

Tensor
RMSNorm(const Tensor& x, const Tensor& gamma, float eps)
{
    LLMNPU_CHECK_EQ(x.Rank(), 2);
    const int64_t rows = x.Rows(), cols = x.Cols();
    LLMNPU_CHECK_EQ(gamma.NumElements(), cols);
    Tensor out({rows, cols}, DType::kF32);
    const float* in = x.Data<float>();
    const float* g = gamma.Data<float>();
    float* o = out.Data<float>();
    for (int64_t r = 0; r < rows; ++r) {
        const float* row = in + r * cols;
        double ms = 0.0;
        for (int64_t c = 0; c < cols; ++c) {
            ms += static_cast<double>(row[c]) * row[c];
        }
        ms /= static_cast<double>(cols);
        const float inv = static_cast<float>(1.0 / std::sqrt(ms + eps));
        for (int64_t c = 0; c < cols; ++c) {
            o[r * cols + c] = row[c] * inv * g[c];
        }
    }
    return out;
}

void
SiluInPlace(Tensor& x)
{
    float* p = x.Data<float>();
    for (int64_t i = 0; i < x.NumElements(); ++i) {
        p[i] = p[i] / (1.0f + std::exp(-p[i]));
    }
}

void
GeluInPlace(Tensor& x)
{
    constexpr float kSqrt2OverPi = 0.7978845608f;
    float* p = x.Data<float>();
    for (int64_t i = 0; i < x.NumElements(); ++i) {
        const float v = p[i];
        p[i] = 0.5f * v *
               (1.0f + std::tanh(kSqrt2OverPi * (v + 0.044715f * v * v * v)));
    }
}

Tensor
Add(const Tensor& a, const Tensor& b)
{
    LLMNPU_CHECK(a.shape() == b.shape());
    Tensor out(a.shape(), DType::kF32);
    const float* pa = a.Data<float>();
    const float* pb = b.Data<float>();
    float* po = out.Data<float>();
    for (int64_t i = 0; i < a.NumElements(); ++i) po[i] = pa[i] + pb[i];
    return out;
}

void
AddInPlace(Tensor& a, const Tensor& b)
{
    LLMNPU_CHECK(a.shape() == b.shape());
    float* pa = a.Data<float>();
    const float* pb = b.Data<float>();
    for (int64_t i = 0; i < a.NumElements(); ++i) pa[i] += pb[i];
}

Tensor
Mul(const Tensor& a, const Tensor& b)
{
    LLMNPU_CHECK(a.shape() == b.shape());
    Tensor out(a.shape(), DType::kF32);
    const float* pa = a.Data<float>();
    const float* pb = b.Data<float>();
    float* po = out.Data<float>();
    for (int64_t i = 0; i < a.NumElements(); ++i) po[i] = pa[i] * pb[i];
    return out;
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
RopeTable::Apply(Tensor& x, int num_heads, int64_t row_begin) const
{
    LLMNPU_CHECK_EQ(x.Rank(), 2);
    LLMNPU_CHECK_EQ(x.Cols(), static_cast<int64_t>(num_heads) * head_dim_);
    LLMNPU_CHECK_GE(row_begin, 0);
    LLMNPU_CHECK_LE(row_begin + Rows(), x.Rows());
    const int half = head_dim_ / 2;
    const int64_t cols = x.Cols();
    float* p = x.Data<float>() + row_begin * cols;
    for (int64_t s = 0; s < Rows(); ++s) {
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
ApplyRope(Tensor& x, int num_heads, int head_dim, int64_t pos_offset,
          float theta)
{
    ApplyRopeRows(x, 0, x.Rows(), num_heads, head_dim, pos_offset, theta);
}

void
ApplyRopeRows(Tensor& x, int64_t row_begin, int64_t row_count, int num_heads,
              int head_dim, int64_t pos_offset, float theta)
{
    LLMNPU_CHECK_GE(row_count, 0);
    std::vector<int64_t> positions(static_cast<size_t>(row_count));
    std::iota(positions.begin(), positions.end(), pos_offset);
    RopeTable(positions, head_dim, theta).Apply(x, num_heads, row_begin);
}

Tensor
CausalAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                int num_heads, int num_kv_heads, int64_t q_pos_offset)
{
    LLMNPU_CHECK_EQ(q.Rank(), 2);
    LLMNPU_CHECK_EQ(k.Rank(), 2);
    LLMNPU_CHECK(k.shape() == v.shape());
    LLMNPU_CHECK_EQ(q.Cols() % num_heads, 0);
    LLMNPU_CHECK_EQ(k.Cols() % num_kv_heads, 0);
    LLMNPU_CHECK_EQ(num_heads % num_kv_heads, 0);
    const int head_dim = static_cast<int>(q.Cols()) / num_heads;
    LLMNPU_CHECK_EQ(static_cast<int>(k.Cols()) / num_kv_heads, head_dim);

    const int64_t q_len = q.Rows();
    const int64_t kv_len = k.Rows();
    LLMNPU_CHECK_GE(kv_len, q_pos_offset + q_len);
    const int heads_per_kv = num_heads / num_kv_heads;

    // Every element is written: each head's rows go through the shared
    // attention kernel, the whole K/V history as a single page.
    Tensor out({q_len, q.Cols()}, DType::kF32);
    const float* pq = q.Data<float>();
    float* po = out.Data<float>();
    for (int h = 0; h < num_heads; ++h) {
        const int64_t q_off = static_cast<int64_t>(h) * head_dim;
        const int64_t kv_off =
            static_cast<int64_t>(h / heads_per_kv) * head_dim;
        const float* k_page = k.Data<float>() + kv_off;
        const float* v_page = v.Data<float>() + kv_off;
        const KvHeadRows kv{&k_page, &v_page, kv_len, k.Cols()};
        CausalAttentionHead(pq + q_off, q.Cols(), q_len, q_pos_offset, kv,
                            head_dim, po + q_off, q.Cols());
    }
    return out;
}

}  // namespace llmnpu
