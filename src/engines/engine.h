/**
 * @file
 * Common interface of every simulated inference engine: the five baselines
 * of §4.1 (llama.cpp, MNN, TFLite, MLC-LLM, PowerInfer-V2) plus llm.npu
 * itself (src/core/llmnpu_engine.h).
 *
 * Engines price a (model, device, request) triple: prefill latency, decode
 * latency, energy, and memory — the four metrics of §4.1.
 */
#ifndef LLMNPU_ENGINES_ENGINE_H
#define LLMNPU_ENGINES_ENGINE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/model/config.h"
#include "src/model/placement.h"
#include "src/sim/soc.h"

namespace llmnpu {

/** One inference: a prompt and the tokens to decode after it. */
struct InferenceRequest {
    int prompt_len = 0;
    int output_len = 1;
};

/** Simulated outcome of one inference. */
struct EngineResult {
    /** One-time preparation latency (quantization, graph build/optimize).
     *  Amortized engines (llm.npu, TFLite) pay this before serving; the
     *  naive NPU path pays it per inference (it lands in prefill_ms). */
    double prepare_ms = 0.0;
    double prefill_ms = 0.0;
    double decode_ms = 0.0;
    /** Execution energy over prefill (Figure 15's metric). */
    double prefill_energy_mj = 0.0;
    double decode_energy_mj = 0.0;
    /** Peak inference memory footprint. */
    int64_t memory_bytes = 0;
    /** Busy ms per processor during prefill (diagnostics). */
    std::array<double, kNumUnits> prefill_busy_ms{};
    /** NPU idle fraction within its active span (Figure 13). */
    double npu_bubble_rate = 0.0;

    double EndToEndMs() const { return prefill_ms + decode_ms; }

    /** Prefill throughput; 0 for degenerate (empty/instant) prefills. */
    double PrefillTokensPerSec(int prompt_len) const
    {
        return prefill_ms > 0.0 ? prompt_len / (prefill_ms / 1e3) : 0.0;
    }

    /** Decode throughput; 0 for degenerate (empty/instant) decodes. */
    double DecodeTokensPerSec(int output_len) const
    {
        return decode_ms > 0.0 ? output_len / (decode_ms / 1e3) : 0.0;
    }

    /** Latency to the first emitted token: prefill plus one decode step
     *  (the serving layer's TTFT shares this definition). */
    double TimeToFirstTokenMs(int output_len) const
    {
        return prefill_ms +
               (output_len > 0 ? decode_ms / output_len : 0.0);
    }
};

/** Marginal cost of each extra batched decode stream on the CPU/GPU float
 *  processor, relative to the first (weights are streamed once per step;
 *  extra activations are cheap). */
constexpr double kDecodeBatchMarginal = 0.15;

/** The batched-step law of the float processor: a continuously batched
 *  CPU decode step of `batch` streams costs the one-stream step
 *  `token_ms`, each extra stream adding kDecodeBatchMarginal of it. */
inline double
CpuDecodeStepMs(double token_ms, int batch)
{
    return token_ms * (1.0 + (std::max(1, batch) - 1) * kDecodeBatchMarginal);
}

/**
 * Cost decomposition of one request into schedulable quanta, the contract
 * between engines and the serving layer (src/serving): prefill as a
 * sequence of accelerator-occupying chunks, decode as per-token steps.
 *
 * Invariant: PrefillMs() equals Run()'s prefill_ms and, on a CPU-placed
 * profile, IsolatedDecodeMs(output_len) equals Run()'s decode_ms. On a
 * CPU-placed profile serving one request at zero load therefore
 * reproduces the single-shot latency exactly; the serving simulator prices
 * an NPU step per step through the calibrated oracle instead
 * (ServingCostModel::StepMs, at a 64-token context bucket), so an
 * NPU-placed request only approximates it.
 */
struct ServingCostProfile {
    /** Accelerator occupancy of each prefill chunk, in execution order.
     *  Single-processor engines expose one monolithic chunk. */
    std::vector<double> chunk_ms;

    /**
     * Prefill/decode interference contract. While a prefill chunk is in
     * flight, concurrent decode is slowed by 1 / (1 - interference), where
     * which interference factor applies depends on where decode runs:
     *
     *  - `float_decode_interference`: decode on the CPU/GPU float
     *    processor (the paper's deployment). The chunk's float stages and
     *    shadow compensation hold this busy fraction of the float
     *    processor; decode shares the remainder.
     *  - `npu_decode_interference`: decode on the NPU itself. The chunk
     *    occupies the accelerator, so an NPU-resident decode step
     *    time-slices the NPU with the chunk; the factor is the chunk's NPU
     *    busy fraction (near 1 minus scheduling bubbles).
     *
     * The serving simulator applies the factor of the side the active
     * step runs on (the NPU's when any member is NPU-placed) and floors
     * the residual decode rate at 5%, so 1.0 (the single-processor
     * default: prefill and decode share one unit) means decode is
     * effectively blocked — a 20x slowdown — not an exact stall.
     */
    double float_decode_interference = 1.0;
    double npu_decode_interference = 1.0;
    DecodePlacement decode_placement = DecodePlacement::kCpuFloat;

    /** Per-token decode service time on the CPU/GPU float-processor path
     *  (packed int8-per-tensor linears) at the request's context length,
     *  the token price of CpuDecodeStepMs. Priced at every placement: the
     *  paper's deployment decodes here, the fault plane's circuit breaker
     *  and the placement predictor move NPU-placed members here
     *  mid-stream, and SLO deadlines are set from it. */
    double cpu_decode_token_ms = 0.0;

    double PrefillMs() const
    {
        double total = 0.0;
        for (double ms : chunk_ms) total += ms;
        return total;
    }

    /** Decode time of `output_len` tokens served alone on the float
     *  processor: the decode estimate of SLO deadlines, the queue order
     *  and brownout shedding, whatever `decode_placement` is. */
    double IsolatedDecodeMs(int output_len) const
    {
        return cpu_decode_token_ms * output_len;
    }
};

/** A simulated inference engine. */
class InferenceEngine
{
  public:
    virtual ~InferenceEngine() = default;

    /** Engine name as the paper abbreviates it ("llama.cpp-CPU", ...). */
    virtual std::string Name() const = 0;

    /** Whether the engine supports a model (§4.1: baselines often support
     *  only a subset of the five LLMs). */
    virtual bool SupportsModel(const ModelConfig& config) const
    {
        (void)config;
        return true;
    }

    /** Simulates one inference. */
    virtual EngineResult Run(const ModelConfig& config, const SocSpec& soc,
                             const InferenceRequest& request) = 0;

    /**
     * Decomposes one request into serving quanta (see ServingCostProfile).
     *
     * The default implementation derives a conservative profile from Run():
     * one monolithic prefill chunk, decode fully blocked by prefill (true
     * for the single-processor §4.1 baselines). Engines with chunked
     * pipelines override it with real per-chunk occupancy.
     */
    virtual ServingCostProfile ServingCosts(const ModelConfig& config,
                                            const SocSpec& soc,
                                            const InferenceRequest& request);

    /**
     * Prices one continuously batched decode step: `batch` streams at
     * context `kv_len`, every member placed on `placement`. This is the
     * one decode-step oracle: ServingCostModel forwards here, and the
     * simulator prices and PredictedPlacement decides through it.
     *
     * The default prices the float processor only: CpuDecodeStepMs over
     * the CPU token price of a one-token request at `kv_len`. Asking it
     * for the NPU fails loudly. Engines that decode on the NPU
     * (LlmNpuEngine's NpuDecodeStep) override.
     */
    virtual double DecodeStepMs(const ModelConfig& config, const SocSpec& soc,
                                DecodePlacement placement, int64_t kv_len,
                                int batch);
};

}  // namespace llmnpu

#endif  // LLMNPU_ENGINES_ENGINE_H
