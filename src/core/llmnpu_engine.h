/**
 * @file
 * The llm.npu inference engine (timing plane): chunk-sharing graphs (§3.2) +
 * shadow outlier execution (§3.3) + out-of-order subgraph scheduling (§3.4)
 * on the simulated mobile SoC.
 *
 * Prefill always runs in fixed-length chunks on prebuilt, shared graphs;
 * `enable_shadow` and `enable_ooo` expose the rest of the Figure 19
 * ablation ladder (CPU and naive NPU are LlamaCppEngine and
 * NaiveNpuEngine):
 *   CPU -> naive NPU -> +chunk -> +outlier(shadow) -> +OoO (= full llm.npu)
 * and `use_gpu_float` the Figure 18 GPU-NPU coordination variant.
 */
#ifndef LLMNPU_CORE_LLMNPU_ENGINE_H
#define LLMNPU_CORE_LLMNPU_ENGINE_H

#include <array>
#include <string>
#include <vector>

#include "src/core/chunk_graph.h"
#include "src/core/scheduler.h"
#include "src/engines/engine.h"
#include "src/sim/npu_runtime.h"

namespace llmnpu {

/** Configuration of the llm.npu engine. */
struct LlmNpuOptions {
    /** Fixed chunk length (Figure 8: 256 is the paper's choice). */
    int chunk_len = 256;
    /** §3.3 per-tensor W8A8 + shadow outliers. When false the engine falls
     *  back to per-group INT8 on the NPU to preserve accuracy. */
    bool enable_shadow = true;
    /** §3.4 out-of-order scheduling (else naive in-order overlap). */
    bool enable_ooo = true;
    /** Fraction of least-important linears with the shadow path pruned. */
    double pruning_rate = 0.85;
    /** Run float subgraphs + decode on the GPU instead of the CPU (§4.6). */
    bool use_gpu_float = false;
    /** Where decode-step linears run: the CPU/GPU float processor (paper
     *  deployment, default) or the NPU via prebuilt M=B W8A8 decode graphs
     *  with shadow compensation and an explicit handoff boundary (the
     *  beyond-paper mode this reproduction adds; see NpuDecodeStep). */
    DecodePlacement decode_placement = DecodePlacement::kCpuFloat;
    /** Display label. */
    std::string label = "llm.npu (Ours)";
};

/** llm.npu on the simulated SoC. */
class LlmNpuEngine : public InferenceEngine
{
  public:
    explicit LlmNpuEngine(LlmNpuOptions options = LlmNpuOptions());

    std::string Name() const override { return options_.label; }
    EngineResult Run(const ModelConfig& config, const SocSpec& soc,
                     const InferenceRequest& request) override;

    /** Real per-chunk decomposition for the serving layer: NPU occupancy
     *  per prefill chunk (kv-growth aware) plus the float-processor share
     *  a concurrent decode contends with. */
    ServingCostProfile ServingCosts(const ModelConfig& config,
                                    const SocSpec& soc,
                                    const InferenceRequest& request) override;

    /** Calibrated step prices per placement: the NPU side runs through
     *  NpuDecodeStep's full decomposition regardless of where this
     *  engine's own profile places decode, so PredictedPlacement, asking
     *  through ServingCostModel, can price the road not taken. */
    double DecodeStepMs(const ModelConfig& config, const SocSpec& soc,
                        DecodePlacement placement, int64_t kv_len,
                        int batch) override;

    const LlmNpuOptions& options() const { return options_; }

    /** Full prefill simulation detail (timeline + tasks) for analyses. */
    struct PrefillDetail {
        std::vector<SimTask> tasks;
        TimelineResult timeline;
        double prepare_ms = 0.0;   ///< one-time graph prebuild (+ env setup)
        double prefill_ms = 0.0;   ///< execution; prepare_ms is offline
        int num_chunks = 0;
        int64_t memory_bytes = 0;
    };
    PrefillDetail SimulatePrefill(const ModelConfig& config,
                                  const SocSpec& soc, int prompt_len) const;

    /** Per-stage execution timings for one chunk (used by SimulatePrefill
     *  and the chunk-length study of Figure 8). */
    std::vector<StageTiming> ChunkStageTimings(const ModelConfig& config,
                                               const SocSpec& soc,
                                               int chunk_len, int64_t kv_len,
                                               double swap_ms_per_chunk) const;

    /**
     * Cost decomposition of one NPU-resident decode step: B sequences'
     * decode matvecs run as one M=B W8A8 matmul per linear through the
     * prebuilt decode graph, while norms/RoPE/attention stay on the float
     * processor and quantize/dequantize cross the handoff boundary once
     * per layer. The graph is prebuilt per batch bucket (like the prefill
     * chunk graphs), so dispatch is one graph invoke per step plus per-op
     * overhead — not a per-linear QNN execute call.
     */
    struct NpuDecodeStepCosts {
        double npu_matvec_ms = 0.0;   ///< W8A8 matvecs on the NPU
        double npu_dispatch_ms = 0.0; ///< graph invoke + per-op dispatch
        double float_ms = 0.0;        ///< norms/RoPE/attention/lm-head
        double handoff_ms = 0.0;      ///< boundary quant/dequant + sync
        double shadow_ms = 0.0;       ///< outlier compensation (float proc)

        double TotalMs() const
        {
            return npu_matvec_ms + npu_dispatch_ms + float_ms + handoff_ms +
                   shadow_ms;
        }
    };

    /** Prices one NPU decode step at context `kv_len` for `batch` rows.
     *  Per-token TPOT is TotalMs() / batch: the weight stream per step is
     *  shared across rows, so TPOT is non-increasing in the batch size
     *  (asserted by tests/property_test.cc). */
    NpuDecodeStepCosts NpuDecodeStep(const ModelConfig& config,
                                     const SocSpec& soc, int64_t kv_len,
                                     int batch) const;

  private:
    /** Shadow compensation cost of one NPU linear over M rows (§3.3):
     *  activation scan, compact float matmul over the extracted channels,
     *  miss-rate-weighted cold fetch, partial-sum sync. Shared by the
     *  prefill chunk path and the NPU decode path so the two planes can
     *  never drift apart. */
    double ShadowCompensationMs(const ProcessorModel& fproc, int64_t m,
                                int64_t k, int64_t n) const;

    /** Latency and per-unit busy time of decoding `request`'s output
     *  tokens one row per step at `placement`: NpuDecodeStep summed per
     *  token on the NPU, per-tensor INT8 matvecs on the float processor
     *  otherwise. */
    struct DecodeCost {
        double ms = 0.0;
        std::array<double, kNumUnits> busy_ms{};
    };
    DecodeCost RequestDecode(const ModelConfig& config, const SocSpec& soc,
                             const InferenceRequest& request,
                             DecodePlacement placement) const;

    /** Shadow-enabled linear count given the pruning rate. */
    int KeptShadowLinears(const ModelConfig& config) const;

    /** Whether layer `layer`'s linears rank among the kept (important)
     *  set; mirrors Figure 12's "ends of the network matter most". */
    bool LayerShadowEnabled(const ModelConfig& config, int layer) const;

    LlmNpuOptions options_;
};

}  // namespace llmnpu

#endif  // LLMNPU_CORE_LLMNPU_ENGINE_H
