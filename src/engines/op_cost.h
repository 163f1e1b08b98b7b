/**
 * @file
 * Shared operator-level cost helpers: price one transformer block's linears,
 * attention, norms and element-wise ops on a chosen processor/format, and
 * aggregate whole prefill/decode passes for single-processor engines.
 */
#ifndef LLMNPU_ENGINES_OP_COST_H
#define LLMNPU_ENGINES_OP_COST_H

#include "src/model/config.h"
#include "src/sim/processor.h"
#include "src/sim/soc.h"

namespace llmnpu {

/** How an engine executes the transformer's matmuls. */
struct ExecPolicy {
    ExecFormat linear_format = ExecFormat::kInt8PerTensor;
    int group_size = 32;
    /** Multiplier on linear throughput (engine kernel quality). */
    double linear_speed_mult = 1.0;
    /** Hard cap on effective linear throughput in TFLOPS/TOPS (0 = none);
     *  models engines whose kernels never scale with M (MLC-LLM on mobile). */
    double linear_tops_cap = 0.0;
};

/** Latency of all linear layers of ONE block over M rows. */
double BlockLinearsMs(const ModelConfig& config, const ProcessorModel& proc,
                      int64_t m, const ExecPolicy& policy);

/** Latency of one block's float side over M rows attending to kv_len:
 *  two norms, RoPE, attention, activation, residuals, quant/dequant. */
double BlockFloatOpsMs(const ModelConfig& config, const ProcessorModel& proc,
                       int64_t m, int64_t kv_len);

/**
 * Whole-model prefill on a single processor, sequential execution
 * (how llama.cpp / MNN / TFLite / MLC run): returns latency in ms.
 *
 * Attention cost uses the full running context (prompt processed in one
 * pass of M = prompt_len rows).
 */
double SequentialPrefillMs(const ModelConfig& config,
                           const ProcessorModel& proc, int64_t prompt_len,
                           const ExecPolicy& policy);

/** Per-token decode latency (matvec-dominated, bandwidth-bound). */
double DecodeTokenMs(const ModelConfig& config, const ProcessorModel& proc,
                     int64_t context_len, const ExecPolicy& policy);

/** Decode latency for `output_len` tokens starting at context prompt_len. */
double DecodeMs(const ModelConfig& config, const ProcessorModel& proc,
                int64_t prompt_len, int output_len, const ExecPolicy& policy);

/** Rough activation working-set bytes for a prefill pass (f32 interm.). */
int64_t ActivationBytes(const ModelConfig& config, int64_t m);

/** KV cache bytes for a context length (f32). */
int64_t KvCacheBytes(const ModelConfig& config, int64_t context_len);

}  // namespace llmnpu

#endif  // LLMNPU_ENGINES_OP_COST_H
