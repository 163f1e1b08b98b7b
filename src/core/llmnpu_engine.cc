#include "src/core/llmnpu_engine.h"

#include <algorithm>
#include <cmath>

#include "src/engines/op_cost.h"
#include "src/sim/calibration.h"
#include "src/util/check.h"

namespace llmnpu {

namespace {

/** INT8 activation-function throughput on the NPU (LUT-based), elems/s. */
constexpr double kNpuActLutElemsPerSec = 50e9;

}  // namespace

LlmNpuEngine::LlmNpuEngine(LlmNpuOptions options) : options_(options)
{
    LLMNPU_CHECK_GT(options_.chunk_len, 0);
    LLMNPU_CHECK_GE(options_.pruning_rate, 0.0);
    LLMNPU_CHECK_LE(options_.pruning_rate, 1.0);
}

double
LlmNpuEngine::ShadowCompensationMs(const ProcessorModel& fproc, int64_t m,
                                   int64_t k, int64_t n) const
{
    // Scan the activations, run the compact float matmul, synchronize the
    // partial sum back (§3.3). Cold channels fetched from disk overlap the
    // NPU matmul; charge only the miss-rate-weighted latency.
    const int64_t k_out = std::max<int64_t>(
        1, static_cast<int64_t>(std::lround(cal::kShadowOutlierFrac *
                                            static_cast<double>(k))));
    double ms = fproc.VectorOpMs(static_cast<double>(m * k), 1.0);
    ms += fproc.MatMulMs({m, k_out, n}, ExecFormat::kFp32, 0, false);
    ms += cal::kShadowColdMissRate *
          (cal::kDiskLatencyMs +
           static_cast<double>(k_out * n) / (cal::kDiskReadGBs * 1e9) * 1e3);
    ms += cal::kShadowSyncMs;
    return ms;
}

int
LlmNpuEngine::KeptShadowLinears(const ModelConfig& config) const
{
    const int total = static_cast<int>(config.LayerLinears().size()) *
                      config.num_layers;
    return static_cast<int>(std::ceil((1.0 - options_.pruning_rate) *
                                      static_cast<double>(total)));
}

bool
LlmNpuEngine::LayerShadowEnabled(const ModelConfig& config, int layer) const
{
    // Offline profiling keeps the most important linears; importance is
    // highest near the network's inputs and outputs (Figure 12), so layers
    // are ranked by distance to the nearer end.
    const int linears_per_layer =
        static_cast<int>(config.LayerLinears().size());
    const int kept_layers =
        (KeptShadowLinears(config) + linears_per_layer - 1) /
        linears_per_layer;
    const int from_end = std::min(layer, config.num_layers - 1 - layer);
    // Layers sorted by from_end ascending: ends first. Layer qualifies when
    // its rank among that ordering is < kept_layers.
    int rank = 0;
    for (int l = 0; l < config.num_layers; ++l) {
        const int other = std::min(l, config.num_layers - 1 - l);
        if (other < from_end || (other == from_end && l < layer)) ++rank;
    }
    return rank < kept_layers;
}

std::vector<StageTiming>
LlmNpuEngine::ChunkStageTimings(const ModelConfig& config, const SocSpec& soc,
                                int chunk_len, int64_t kv_len,
                                double swap_ms_per_chunk) const
{
    const Unit float_unit =
        options_.use_gpu_float ? Unit::kGpu : Unit::kCpu;
    const ProcessorModel& fproc = soc.Processor(float_unit);
    const ProcessorModel& npu = soc.Processor(Unit::kNpu);

    const int64_t m = chunk_len;
    const int64_t hidden = config.hidden_size;
    const int64_t q_dim = static_cast<int64_t>(config.num_heads) *
                          config.head_dim;
    const int64_t kv_dim = static_cast<int64_t>(config.num_kv_heads) *
                           config.head_dim;
    const ExecFormat npu_fmt = options_.enable_shadow
                                   ? ExecFormat::kInt8PerTensor
                                   : ExecFormat::kInt8PerGroup;

    // Shadow compensation task pieces (per NPU linear stage).
    auto shadow_ms = [&](int64_t k, int64_t n) {
        return ShadowCompensationMs(fproc, m, k, n);
    };
    // §4 optimization (1): the preparation stage profiles equivalent
    // square input shapes.
    auto npu_matmul_ms = [&](const MatMulShape& shape) {
        return npu.MatMulMs(shape, npu_fmt, cal::kPerGroupSize,
                            /*square_optimized=*/true);
    };

    std::vector<StageTiming> timings(
        static_cast<size_t>(config.num_layers) * kStagesPerLayer);
    for (int l = 0; l < config.num_layers; ++l) {
        const bool shadow_on = options_.enable_shadow &&
                               options_.pruning_rate < 1.0 &&
                               LayerShadowEnabled(config, l);
        for (int s = 0; s < kStagesPerLayer; ++s) {
            const auto stage = static_cast<StageKind>(s);
            StageTiming t;
            t.unit = StageOnNpu(stage) ? Unit::kNpu : float_unit;
            t.shadow_unit = float_unit;
            switch (stage) {
              case StageKind::kAttnNorm:
              case StageKind::kFfnNorm:
                t.duration_ms =
                    fproc.VectorOpMs(static_cast<double>(m * hidden), 10.0) +
                    fproc.VectorOpMs(static_cast<double>(m * hidden), 2.0) +
                    fproc.DispatchMs();
                break;
              case StageKind::kQkvLinear:
                t.duration_ms =
                    npu_matmul_ms({m, hidden, q_dim + 2 * kv_dim}) +
                    npu.DispatchMs();
                if (shadow_on) {
                    t.shadow_ms = shadow_ms(hidden, q_dim + 2 * kv_dim);
                }
                break;
              case StageKind::kAttention: {
                double ms = fproc.VectorOpMs(
                    static_cast<double>(m * (q_dim + kv_dim)), 6.0);
                ms += fproc.AttentionMs(m, kv_len, config.num_heads,
                                        config.head_dim);
                ms += 2.0 * fproc.VectorOpMs(static_cast<double>(m * q_dim),
                                             2.0);
                t.duration_ms = ms + fproc.DispatchMs();
                break;
              }
              case StageKind::kOProj:
                t.duration_ms =
                    npu_matmul_ms({m, q_dim, hidden}) + npu.DispatchMs();
                if (shadow_on) t.shadow_ms = shadow_ms(q_dim, hidden);
                break;
              case StageKind::kFfn: {
                const int64_t up_n = (config.gated_ffn ? 2 : 1) *
                                     config.ffn_hidden;
                double ms = npu_matmul_ms({m, hidden, up_n});
                ms += npu_matmul_ms({m, config.ffn_hidden, hidden});
                ms += static_cast<double>(m * config.ffn_hidden) /
                      kNpuActLutElemsPerSec * 1e3;
                // Swapped-out graphs (NPU region overflow on 7B models)
                // remap on first touch each chunk; spread over FFN stages.
                ms += swap_ms_per_chunk / config.num_layers;
                t.duration_ms = ms + npu.DispatchMs();
                if (shadow_on) {
                    t.shadow_ms = shadow_ms(hidden, up_n) +
                                  shadow_ms(config.ffn_hidden, hidden) -
                                  cal::kShadowSyncMs;  // one merge per stage
                }
                break;
              }
            }
            timings[static_cast<size_t>(l * kStagesPerLayer + s)] = t;
        }
    }
    return timings;
}

LlmNpuEngine::NpuDecodeStepCosts
LlmNpuEngine::NpuDecodeStep(const ModelConfig& config, const SocSpec& soc,
                            int64_t kv_len, int batch) const
{
    LLMNPU_CHECK_GT(batch, 0);
    const Unit float_unit =
        options_.use_gpu_float ? Unit::kGpu : Unit::kCpu;
    const ProcessorModel& fproc = soc.Processor(float_unit);
    const ProcessorModel& npu = soc.Processor(Unit::kNpu);
    const ExecFormat npu_fmt = options_.enable_shadow
                                   ? ExecFormat::kInt8PerTensor
                                   : ExecFormat::kInt8PerGroup;
    const int64_t m = batch;

    NpuDecodeStepCosts costs;
    for (int l = 0; l < config.num_layers; ++l) {
        const bool shadow_on = options_.enable_shadow &&
                               options_.pruning_rate < 1.0 &&
                               LayerShadowEnabled(config, l);
        for (const auto& spec : config.LayerLinears()) {
            costs.npu_matvec_ms +=
                npu.MatMulMs({m, spec.k, spec.n}, npu_fmt,
                             cal::kPerGroupSize, /*square_optimized=*/true);
            // Ops run inside the prebuilt decode graph: per-op overhead,
            // not a per-linear QNN execute call.
            costs.npu_dispatch_ms += cal::kNpuOpDispatchMs;
            if (shadow_on) {
                costs.shadow_ms +=
                    ShadowCompensationMs(fproc, m, spec.k, spec.n);
            }
        }
        // Norms/RoPE/attention/residuals + boundary quantize/dequantize on
        // the float processor; one shared-buffer round trip per layer.
        costs.float_ms += BlockFloatOpsMs(config, fproc, m, kv_len);
        costs.handoff_ms += cal::kNpuDecodeHandoffMs;
    }
    // One prebuilt decode-graph invoke per step (graphs are built per
    // batch bucket at preparation time, like the prefill chunk graphs).
    costs.npu_dispatch_ms += npu.DispatchMs();
    // Final norm + lm-head stay on the float side of the boundary (the
    // numeric plane's Logits runs there too), priced at the decode format.
    costs.float_ms +=
        fproc.VectorOpMs(static_cast<double>(m * config.hidden_size), 8.0) +
        fproc.MatMulMs({m, config.hidden_size, config.vocab_size},
                       ExecFormat::kInt8PerTensor, 0, false);
    return costs;
}

LlmNpuEngine::PrefillDetail
LlmNpuEngine::SimulatePrefill(const ModelConfig& config, const SocSpec& soc,
                              int prompt_len) const
{
    LLMNPU_CHECK_GT(prompt_len, 0);
    PrefillDetail detail;

    const int chunk_len = options_.chunk_len;
    ChunkGraphPlan plan(config, chunk_len, /*share_static=*/true);
    const int num_chunks = plan.NumChunks(prompt_len);
    detail.num_chunks = num_chunks;

    // ---- Preparation: build + optimize the NPU graphs. Resident graphs
    // are placed FFN-first (§4 optimization (2)); overflow graphs remap
    // per chunk.
    NpuRuntime runtime;
    double prep_ms = runtime.EnvSetupMs();
    int64_t swapped_bytes = 0;
    auto graphs = plan.PreparationGraphs(num_chunks);
    // FFN graphs first: order by descending compute intensity.
    std::stable_sort(graphs.begin(), graphs.end(),
                     [](const NpuGraphDesc& a, const NpuGraphDesc& b) {
                         return a.const_bytes > b.const_bytes;
                     });
    for (const auto& desc : graphs) {
        if (runtime.FitsMemory(desc.const_bytes + desc.activation_bytes)) {
            prep_ms += runtime.EnsureBuilt(desc);
        } else {
            prep_ms += NpuRuntime::CostsFor(desc).TotalPrepareMs();
            swapped_bytes += desc.const_bytes;
        }
    }
    const double swap_ms_per_chunk =
        swapped_bytes > 0
            ? static_cast<double>(swapped_bytes) / (50e9) * 1e3 + 0.3
            : 0.0;

    // ---- Execution DAG.
    std::vector<std::vector<StageTiming>> chunk_timings;
    chunk_timings.reserve(static_cast<size_t>(num_chunks));
    for (int c = 0; c < num_chunks; ++c) {
        const int64_t kv_len = static_cast<int64_t>(c + 1) * chunk_len;
        chunk_timings.push_back(
            ChunkStageTimings(config, soc, chunk_len, kv_len,
                              swap_ms_per_chunk));
    }
    detail.tasks = BuildPrefillDag(chunk_timings, config.num_layers,
                                   /*strict_chunk_order=*/!options_.enable_ooo);
    detail.timeline = RunTimeline(detail.tasks, options_.enable_ooo
                                                    ? OooPicker()
                                                    : FifoPicker());

    detail.prepare_ms = prep_ms;
    detail.prefill_ms = detail.timeline.makespan_ms;

    // ---- Memory.
    const double kept_frac =
        options_.enable_shadow ? 1.0 - options_.pruning_rate : 0.0;
    const int64_t shadow_bytes = static_cast<int64_t>(
        kept_frac * cal::kShadowHotChannelFrac *
        static_cast<double>(config.MatMulParams()) * 4.0);
    detail.memory_bytes =
        plan.GraphMemoryBytes(num_chunks) +         // weights + graph buffers
        config.vocab_size * config.hidden_size +    // int8 embedding
        KvCacheBytes(config, num_chunks * static_cast<int64_t>(chunk_len)) /
            2 +                                     // fp16 KV
        shadow_bytes;
    return detail;
}

ServingCostProfile
LlmNpuEngine::ServingCosts(const ModelConfig& config, const SocSpec& soc,
                           const InferenceRequest& request)
{
    const PrefillDetail detail =
        SimulatePrefill(config, soc, request.prompt_len);
    ServingCostProfile profile;

    // Split the prefill makespan into per-chunk quanta proportional to each
    // chunk's stage work (later chunks attend to longer kv and cost more),
    // so the quanta sum to exactly the single-shot prefill latency.
    const int chunk_len = options_.chunk_len;
    std::vector<double> work(static_cast<size_t>(detail.num_chunks), 0.0);
    double total_work = 0.0;
    for (int c = 0; c < detail.num_chunks; ++c) {
        const int64_t kv_len = static_cast<int64_t>(c + 1) * chunk_len;
        for (const StageTiming& t :
             ChunkStageTimings(config, soc, chunk_len, kv_len, 0.0)) {
            work[static_cast<size_t>(c)] += t.duration_ms + t.shadow_ms;
        }
        total_work += work[static_cast<size_t>(c)];
    }
    profile.chunk_ms.resize(static_cast<size_t>(detail.num_chunks));
    for (int c = 0; c < detail.num_chunks; ++c) {
        profile.chunk_ms[static_cast<size_t>(c)] =
            detail.prefill_ms * work[static_cast<size_t>(c)] / total_work;
    }

    // Per-placement interference factors (see the engine.h contract).
    // While a chunk is in flight, its float stages and shadow kernels hold
    // the float-processor fraction a CPU/GPU-resident decode shares, and
    // its NPU subgraphs hold the accelerator fraction an NPU-resident
    // decode would time-slice.
    const Unit float_unit = options_.use_gpu_float ? Unit::kGpu : Unit::kCpu;
    const double makespan = detail.timeline.makespan_ms;
    auto busy_fraction = [&](Unit unit) {
        return makespan > 0.0
                   ? std::min(0.95,
                              detail.timeline.busy_ms[static_cast<size_t>(
                                  unit)] /
                                  makespan)
                   : 0.0;
    };
    profile.float_decode_interference = busy_fraction(float_unit);
    profile.npu_decode_interference = busy_fraction(Unit::kNpu);
    profile.decode_placement = options_.decode_placement;

    // The float-processor price is the only per-token one: an NPU step is
    // priced by the calibrated oracle (DecodeStepMs) at its batch and
    // context, never from a profile mean.
    profile.cpu_decode_token_ms =
        RequestDecode(config, soc, request, DecodePlacement::kCpuFloat).ms /
        std::max(1, request.output_len);
    return profile;
}

LlmNpuEngine::DecodeCost
LlmNpuEngine::RequestDecode(const ModelConfig& config, const SocSpec& soc,
                            const InferenceRequest& request,
                            DecodePlacement placement) const
{
    // Decode on the MLLM CPU backend (or GPU under §4.6 coordination), or
    // the NPU decode graphs when the placement asks for them.
    const Unit float_unit = options_.use_gpu_float ? Unit::kGpu : Unit::kCpu;
    DecodeCost cost;
    if (placement == DecodePlacement::kNpuQuant) {
        for (int t = 0; t < request.output_len; ++t) {
            const NpuDecodeStepCosts step =
                NpuDecodeStep(config, soc, request.prompt_len + t, 1);
            cost.ms += step.TotalMs();
            cost.busy_ms[static_cast<size_t>(Unit::kNpu)] +=
                step.npu_matvec_ms + step.npu_dispatch_ms;
            cost.busy_ms[static_cast<size_t>(float_unit)] +=
                step.float_ms + step.handoff_ms + step.shadow_ms;
        }
        return cost;
    }
    cost.ms = DecodeMs(config, soc.Processor(float_unit), request.prompt_len,
                       request.output_len,
                       ExecPolicy{ExecFormat::kInt8PerTensor});
    cost.busy_ms[static_cast<size_t>(float_unit)] = cost.ms;
    return cost;
}

double
LlmNpuEngine::DecodeStepMs(const ModelConfig& config, const SocSpec& soc,
                           DecodePlacement placement, int64_t kv_len,
                           int batch)
{
    if (placement == DecodePlacement::kNpuQuant) {
        return NpuDecodeStep(config, soc, kv_len, std::max(1, batch))
            .TotalMs();
    }
    return InferenceEngine::DecodeStepMs(config, soc, placement, kv_len,
                                         batch);
}

EngineResult
LlmNpuEngine::Run(const ModelConfig& config, const SocSpec& soc,
                  const InferenceRequest& request)
{
    PrefillDetail detail = SimulatePrefill(config, soc, request.prompt_len);

    EngineResult result;
    result.prepare_ms = detail.prepare_ms;
    result.prefill_ms = detail.prefill_ms;
    result.prefill_busy_ms = detail.timeline.busy_ms;
    result.npu_bubble_rate = detail.timeline.BubbleRate(Unit::kNpu);
    result.memory_bytes = detail.memory_bytes;
    result.prefill_energy_mj =
        soc.EnergyMj(detail.timeline.busy_ms, detail.timeline.makespan_ms,
                     cal::kCpuServicePowerW);

    const DecodeCost decode =
        RequestDecode(config, soc, request, options_.decode_placement);
    result.decode_ms = decode.ms;
    result.decode_energy_mj = soc.EnergyMj(decode.busy_ms, decode.ms);
    return result;
}

}  // namespace llmnpu
