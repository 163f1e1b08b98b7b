#include "src/engines/op_cost.h"

#include <algorithm>

#include "src/util/check.h"

namespace llmnpu {

namespace {

/** Applies the engine's speed multiplier / throughput cap to a latency. */
double
ApplyPolicy(double ms, double ops, const ExecPolicy& policy)
{
    double out = ms / policy.linear_speed_mult;
    if (policy.linear_tops_cap > 0.0) {
        const double cap_ms = ops / (policy.linear_tops_cap * 1e12) * 1e3;
        out = std::max(out, cap_ms);
    }
    return out;
}

}  // namespace

double
BlockLinearsMs(const ModelConfig& config, const ProcessorModel& proc,
               int64_t m, const ExecPolicy& policy)
{
    double total = 0.0;
    for (const auto& spec : config.LayerLinears()) {
        const MatMulShape shape{m, spec.k, spec.n};
        const double ms = proc.MatMulMs(shape, policy.linear_format,
                                        policy.group_size,
                                        /*square_optimized=*/false);
        total += ApplyPolicy(ms, shape.Ops(), policy) + proc.DispatchMs();
    }
    return total;
}

double
BlockFloatOpsMs(const ModelConfig& config, const ProcessorModel& proc,
                int64_t m, int64_t kv_len)
{
    const double hidden_elems =
        static_cast<double>(m) * static_cast<double>(config.hidden_size);
    const double ffn_elems =
        static_cast<double>(m) * static_cast<double>(config.ffn_hidden);
    double ms = 0.0;
    // Two norms (~8 flops/elem), RoPE (~6), residuals (1 each), activation
    // (~4 on the FFN intermediate), quantize+dequantize (~2 each).
    ms += 2.0 * proc.VectorOpMs(hidden_elems, 8.0);
    ms += proc.VectorOpMs(hidden_elems, 6.0);
    ms += 2.0 * proc.VectorOpMs(hidden_elems, 1.0);
    ms += proc.VectorOpMs(ffn_elems, 4.0);
    ms += 2.0 * proc.VectorOpMs(hidden_elems, 2.0);
    ms += proc.AttentionMs(m, kv_len, config.num_heads, config.head_dim);
    return ms;
}

double
SequentialPrefillMs(const ModelConfig& config, const ProcessorModel& proc,
                    int64_t prompt_len, const ExecPolicy& policy)
{
    LLMNPU_CHECK_GT(prompt_len, 0);
    double ms = 0.0;
    for (int l = 0; l < config.num_layers; ++l) {
        ms += BlockLinearsMs(config, proc, prompt_len, policy);
        ms += BlockFloatOpsMs(config, proc, prompt_len, prompt_len);
    }
    // Final norm + logits for the last position only.
    ms += proc.VectorOpMs(static_cast<double>(config.hidden_size), 8.0);
    ms += proc.MatMulMs({1, config.hidden_size, config.vocab_size},
                        policy.linear_format, policy.group_size,
                        /*square_optimized=*/false);
    return ms;
}

double
DecodeTokenMs(const ModelConfig& config, const ProcessorModel& proc,
              int64_t context_len, const ExecPolicy& policy)
{
    double ms = 0.0;
    for (int l = 0; l < config.num_layers; ++l) {
        ms += BlockLinearsMs(config, proc, 1, policy);
        ms += BlockFloatOpsMs(config, proc, 1, context_len);
    }
    ms += proc.MatMulMs({1, config.hidden_size, config.vocab_size},
                        policy.linear_format, policy.group_size,
                        /*square_optimized=*/false);
    return ms;
}

double
DecodeMs(const ModelConfig& config, const ProcessorModel& proc,
         int64_t prompt_len, int output_len, const ExecPolicy& policy)
{
    double ms = 0.0;
    for (int t = 0; t < output_len; ++t) {
        ms += DecodeTokenMs(config, proc, prompt_len + t, policy);
    }
    return ms;
}

int64_t
ActivationBytes(const ModelConfig& config, int64_t m)
{
    // Residual stream + QKV + attention scores workspace + FFN intermediate,
    // in f32. A coarse but consistent working-set estimate.
    const int64_t hidden = config.hidden_size;
    const int64_t q_dim = static_cast<int64_t>(config.num_heads) *
                          config.head_dim;
    const int64_t kv_dim = static_cast<int64_t>(config.num_kv_heads) *
                           config.head_dim;
    return 4 * (3 * m * hidden + m * (q_dim + 2 * kv_dim) +
                2 * m * config.ffn_hidden);
}

int64_t
KvCacheBytes(const ModelConfig& config, int64_t context_len)
{
    const int64_t kv_dim = static_cast<int64_t>(config.num_kv_heads) *
                           config.head_dim;
    return 4 * 2 * context_len * kv_dim * config.num_layers;
}

}  // namespace llmnpu
