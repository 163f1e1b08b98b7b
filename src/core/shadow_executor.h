/**
 * @file
 * llm.npu's quantized linear executor: NPU-friendly per-tensor W8A8 with
 * shadow outlier execution (§3.3, Equation 1).
 *
 * Numerically this computes
 *
 *   y = [ clamp(round(x/s), -127, 127) (i) W_q ] * s            on the NPU
 *     + [ extract(x - s * clamp(round(x/s))) (f) W_deq ]        on the CPU
 *
 * where (i) is the INT8 per-tensor matmul and (f) a compact float matmul
 * over only the channels whose activations exceeded the clip. With the
 * shadow term enabled the outlier channels are computed at float precision;
 * pruned layers simply clip them (the accuracy-speed dial of Figure 16).
 *
 * Each linear is resident once, as its packed INT8 panels. The W_deq rows
 * of the extracted channels, float(q) * scale per column, are dequantized
 * from those panels on every call (MatMulRowSubset); no float copy of the
 * weights is held.
 */
#ifndef LLMNPU_CORE_SHADOW_EXECUTOR_H
#define LLMNPU_CORE_SHADOW_EXECUTOR_H

#include <vector>

#include "src/core/outlier_profile.h"
#include "src/tensor/matmul.h"
#include "src/tensor/quantize.h"

namespace llmnpu {

/** Runtime counters of shadow extraction (drives the timing plane and the
 *  Figure 10 reproduction). */
struct ShadowRuntimeStats {
    int64_t linear_calls = 0;
    int64_t shadow_calls = 0;       ///< calls where the shadow path ran
    int64_t extracted_channels = 0; ///< compact-tensor channels, total
    int64_t hot_hits = 0;           ///< extracted channels in the hot set
    int64_t cold_misses = 0;        ///< extracted channels fetched from disk
};

/** The llm.npu linear executor (preparation output of Figure 6). */
class NpuShadowExecutor : public LinearExecutor
{
  public:
    /**
     * @param weights model weights; each linear is unpacked and quantized
     *        per column here, then held only as INT8 panels.
     * @param profile offline outlier profile (clip scales, hot channels,
     *        importance ranks).
     * @param pruning_rate fraction of least-important linears whose shadow
     *        path is disabled (paper default 0.85).
     */
    NpuShadowExecutor(const ModelWeights& weights,
                      const OutlierProfile& profile, double pruning_rate);

    /**
     * The NPU term (static clip scale, per-tensor INT8) is row-independent,
     * so the whole stack runs as one packed W8A8 matmul; outlier
     * extraction and the compact shadow matmul stay per sequence, since
     * the extracted channel set is a property of one sequence's
     * activations. Stats advance exactly as B one-segment calls would.
     * Bitwise identical to per-segment calls.
     */
    Tensor ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                        const BatchSegments& segments) override;

    std::string Name() const override { return "llm.npu"; }

    const ShadowRuntimeStats& stats() const { return stats_; }
    void ResetStats() { stats_ = ShadowRuntimeStats{}; }

    double pruning_rate() const { return pruning_rate_; }

    /**
     * The paper's modelled resident shadow-weight size: f32 rows for the
     * hot channels of unpruned linears (the Figure 17 "Ours-Outliers"
     * black segment, a hot-row cache). This executor holds no such cache,
     * since it dequantizes every extracted row from the INT8 panels, so
     * the value is the model's figure, not an allocation.
     */
    int64_t ResidentShadowWeightBytes() const;

  private:
    struct PreparedLinear;

    /** Extracts outlier channels over rows [r0, r1) of `x` and adds their
     *  compact float residual matmul into the same rows of `y`. */
    void AddShadowTerm(const PreparedLinear& pl,
                       const LinearOutlierProfile& op, const Tensor& x,
                       const Tensor& x_q, int64_t r0, int64_t r1, Tensor& y);

    struct PreparedLinear {
        /** int8 panels + per-column scales: the NPU term's weights, and
         *  the source of the shadow term's dequantized outlier rows. */
        PackedWeightsI8 npu_packed;
        bool shadow_enabled = false;
        std::vector<bool> is_hot;      ///< per input channel
        int64_t hot_rows = 0;
    };

    const ModelWeights& weights_;
    const OutlierProfile& profile_;
    double pruning_rate_;
    PerLinear<PreparedLinear> prepared_;
    ShadowRuntimeStats stats_;
};

}  // namespace llmnpu

#endif  // LLMNPU_CORE_SHADOW_EXECUTOR_H
