/**
 * @file
 * Decode placement routing: which processor executes a step's linears.
 *
 * The paper runs prefill on the NPU and keeps decode on the CPU/GPU float
 * processor (§4.6). This module makes that a per-step, per-sequence choice:
 * a DecodeBackend wraps two LinearExecutors — the CPU float path (packed
 * fp32 matmuls) and the NPU quantized path (the W8A8 shadow executor:
 * static-clip-scale INT8 activations, static per-column INT8 weights, the
 * shadow outlier term per sequence) — and routes every linear of the
 * current step to one of them based on a placement per batch segment.
 *
 * The CPU/NPU handoff boundary is explicit: attention, RoPE, norms,
 * residuals and the lm-head always stay on the CPU float path (the
 * Transformer computes them outside the LinearExecutor), while a linear
 * routed to the NPU quantizes its f32 activations to INT8 on entry and
 * dequantizes the INT32 accumulators on exit — both real tensor ops inside
 * the shadow executor (x_q materialization, per-column scale multiply).
 * HandoffStats counts those boundary crossings so the timing plane's
 * handoff charges can be checked against what the numeric plane executed.
 */
#ifndef LLMNPU_MODEL_DECODE_BACKEND_H
#define LLMNPU_MODEL_DECODE_BACKEND_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/model/placement.h"
#include "src/model/transformer.h"

namespace llmnpu {

/** Boundary-crossing counters of the CPU/NPU handoff (per linear routed to
 *  the NPU: one f32->int8 quantize of the inputs, one accumulator
 *  dequantize of the outputs, one round trip). Each DecodeBackend holds its
 *  own; every increment also goes to the process-wide obs::MetricsRegistry
 *  ("handoff.*" counters), which sums all backends' traffic. */
struct HandoffStats {
    int64_t npu_linear_calls = 0;  ///< per-segment linears routed to the NPU
    int64_t cpu_linear_calls = 0;  ///< per-segment linears kept on the CPU
    int64_t handoffs = 0;          ///< CPU->NPU->CPU round trips (per run)
    int64_t quantized_elems = 0;   ///< f32 activations crossing into INT8
    int64_t dequantized_elems = 0; ///< accumulator outputs crossing back
};

/**
 * Routes each linear of a forward step to the CPU float path or the NPU
 * quantized path, per batch segment.
 *
 * The backend is itself a LinearExecutor, so Transformer::Forward /
 * ForwardBatch run through it unchanged; callers set one placement per
 * batch segment (SetStepPlacements, or Transformer::ForwardBatchPlaced)
 * before each step. A forward before any placement was set fails loudly:
 * there is no default processor.
 *
 * Bitwise contract: a segment routed to placement P produces rows bitwise
 * identical to forwarding that segment alone through P's executor — mixed
 * batches split into contiguous same-placement runs, and both underlying
 * executors honor the ForwardBatch per-segment contract. Verified by
 * tests/decode_npu_test.cc.
 */
class DecodeBackend : public LinearExecutor
{
  public:
    /** @param cpu_float the float path (typically Fp32LinearExecutor);
     *  @param npu_quant the quantized path (typically NpuShadowExecutor). */
    DecodeBackend(LinearExecutor& cpu_float, LinearExecutor& npu_quant);

    /**
     * Per-segment routing for the next ForwardBatch call(s): segment i of
     * the stacked activation executes on `placements[i]`. Size must match
     * the batch handed to ForwardBatch (checked there); Forward is a
     * one-segment ForwardBatch, so it needs exactly one placement.
     */
    void SetStepPlacements(std::vector<DecodePlacement> placements);

    Tensor ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                        const BatchSegments& segments) override;
    std::string Name() const override;

    /** This backend's handoff counters since construction / ResetStats(),
     *  whatever other backends in the process route. */
    const HandoffStats& stats() const { return stats_; }
    /** Zeroes stats(); the registry counters keep their totals. */
    void ResetStats() { stats_ = HandoffStats{}; }

  private:
    LinearExecutor& cpu_float_;
    LinearExecutor& npu_quant_;
    std::vector<DecodePlacement> step_placements_;  ///< one per segment
    HandoffStats stats_;
};

}  // namespace llmnpu

#endif  // LLMNPU_MODEL_DECODE_BACKEND_H
