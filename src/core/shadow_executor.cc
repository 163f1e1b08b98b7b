#include "src/core/shadow_executor.h"

#include <cmath>
#include <cstdint>

#include "src/tensor/matmul.h"
#include "src/tensor/quantize.h"
#include "src/tensor/row_parallel.h"

namespace llmnpu {

NpuShadowExecutor::NpuShadowExecutor(const ModelWeights& weights,
                                     const OutlierProfile& profile,
                                     double pruning_rate)
    : weights_(weights), profile_(profile), pruning_rate_(pruning_rate)
{
    prepared_ = PerLinear<PreparedLinear>(
        weights.config, [&](int l, const LinearSpec& spec) {
            PreparedLinear pl;
            // The unpacked f32 matrix and its row-major quantized copy are
            // construction-only scratch: Forward reads the INT8 panels,
            // for the NPU term and the shadow term alike.
            const PerColumnWeights npu_weights =
                QuantizePerColumn(weights.Linear(l, spec.kind));
            pl.npu_packed = PackWeightsI8(npu_weights.q, npu_weights.scales);
            pl.shadow_enabled =
                profile.ShadowEnabled(l, spec.kind, pruning_rate);
            pl.is_hot.assign(static_cast<size_t>(spec.k), false);
            for (int hot : profile.Stats(l, spec.kind).hot_channels) {
                pl.is_hot[static_cast<size_t>(hot)] = true;
                ++pl.hot_rows;
            }
            return pl;
        });
}

void
NpuShadowExecutor::AddShadowTerm(const PreparedLinear& pl,
                                 const LinearOutlierProfile& op, const Tensor& x,
                                 const Tensor& x_q, int64_t r0, int64_t r1,
                                 Tensor& y)
{
    // Extract the channels where any row of [r0, r1) exceeded the clip and
    // compute the residual x - s*q at float precision on the CPU. One
    // row-major pass ORs per-channel flags (a branch-free loop the compiler
    // vectorizes); the channels then come out in ascending order.
    const float s = op.clip_scale;
    const float clip = op.ClipValue();
    const int64_t k = x.Cols();
    const float* px = x.Data<float>();
    std::vector<uint8_t> over(static_cast<size_t>(k), 0);
    for (int64_t r = r0; r < r1; ++r) {
        const float* row = px + r * k;
        uint8_t* flags = over.data();
        for (int64_t c = 0; c < k; ++c) {
            flags[c] |= static_cast<uint8_t>(std::fabs(row[c]) > clip);
        }
    }
    std::vector<int> extracted;
    for (int64_t c = 0; c < k; ++c) {
        if (over[static_cast<size_t>(c)]) {
            extracted.push_back(static_cast<int>(c));
        }
    }
    if (extracted.empty()) return;

    ++stats_.shadow_calls;
    stats_.extracted_channels += static_cast<int64_t>(extracted.size());
    for (int c : extracted) {
        if (pl.is_hot[static_cast<size_t>(c)]) {
            ++stats_.hot_hits;
        } else {
            ++stats_.cold_misses;
        }
    }

    // Compact residual tensor over the extracted channels.
    const int64_t m = r1 - r0;
    const int64_t num_extracted = static_cast<int64_t>(extracted.size());
    Tensor residual({m, num_extracted}, DType::kF32);
    {
        const int8_t* pq = x_q.Data<int8_t>();
        float* pr = residual.Data<float>();
        for (int64_t r = 0; r < m; ++r) {
            for (int64_t i = 0; i < num_extracted; ++i) {
                const int64_t c = extracted[static_cast<size_t>(i)];
                pr[r * num_extracted + i] =
                    px[(r0 + r) * k + c] -
                    s * static_cast<float>(pq[(r0 + r) * k + c]);
            }
        }
    }
    Tensor y_shadow = MatMulRowSubset(residual, pl.npu_packed, extracted);
    // Add into the segment's rows of the stacked output, row-parallel
    // (element-wise, so the split does not change a bit).
    const int64_t n = y.Cols();
    float* py = y.Data<float>() + r0 * n;
    const float* ps = y_shadow.Data<float>();
    RowParallel(m, n, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0 * n; i < i1 * n; ++i) py[i] += ps[i];
    });
}

Tensor
NpuShadowExecutor::ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                                const BatchSegments& segments)
{
    CheckBatchSegments(x, segments);
    const PreparedLinear& pl = prepared_(layer, kind);
    const auto& op = profile_.Stats(layer, kind);
    stats_.linear_calls += static_cast<int64_t>(segments.size()) - 1;

    const float s = op.clip_scale;

    // NPU part: per-tensor quantize with the offline clip scale, one packed
    // W8A8 matmul over the whole stack (element-wise quantization and
    // row-independent accumulation make this exact for every segment).
    const Tensor x_q = QuantizePerTensorI8(x, 1.0f / s);
    Tensor y = MatMulW8A8PerTensorPacked(x_q, s, pl.npu_packed);

    if (!pl.shadow_enabled) return y;

    // Shadow part, per sequence: the extracted channel set is a property of
    // one sequence's activations, so batching must not union it across
    // sequences (the residual of a non-outlier channel is its rounding
    // error, not zero — unioning would perturb other sequences).
    for (size_t i = 0; i + 1 < segments.size(); ++i) {
        AddShadowTerm(pl, op, x, x_q, segments[i], segments[i + 1], y);
    }
    return y;
}

int64_t
NpuShadowExecutor::ResidentShadowWeightBytes() const
{
    int64_t bytes = 0;
    const auto& config = weights_.config;
    for (int l = 0; l < config.num_layers; ++l) {
        for (const auto& spec : config.LayerLinears()) {
            const PreparedLinear& pl = prepared_(l, spec.kind);
            if (!pl.shadow_enabled) continue;
            bytes += pl.hot_rows * spec.n * 4;  // f32 rows for hot channels
        }
    }
    return bytes;
}

}  // namespace llmnpu
