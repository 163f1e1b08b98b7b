/**
 * @file
 * Every calibrated constant of the timing/energy plane, with the published
 * measurement it targets. This is the single place to audit the simulator
 * against the paper.
 *
 * Calibration anchors:
 *  - Table 3 (Redmi K70 Pro): INT8 matmul latencies. Key derived facts:
 *      * NPU INT8 at small flat M is ~0.63-0.65 effective TOPS;
 *        shapes with >=16 MB of weights are *weight-bandwidth bound* at
 *        ~11.3 GB/s (16.8 MB/1.5 ms, 22.5/2.0, 33.6/2.9, 45/4.1).
 *      * CPU INT8 ~0.13-0.3 TOPS; GPU FP16 ~0.3-0.4 TFLOPS at M=32..64.
 *      * NPU FP16 fits 19.2 GFLOPS * M/(M+512) across all six shapes.
 *  - Figure 2: QNN graph lifecycle (build 450/360 ms, optimize 3.30/11.54 s,
 *    free 149/108 ms for Qwen1.5-1.8B / Gemma-2B).
 *  - §4 prototype notes: square-reshaped inputs (32x32x2048 vs 1024x1x2048)
 *    are 1.62x faster on the NPU; Hexagon NPUs address a ~4 GB region.
 *  - §3.4: prompt 256 on Qwen1.5-1.8B: NPU busy ~315 ms, ~2x the CPU's.
 *  - Table 5 / Figure 14 end-to-end speeds back out the large-M effective
 *    throughput per engine (llama.cpp ~0.13 TOPS, TFLite ~2.4 TFLOPS,
 *    MLC ~0.12 TFLOPS, llm.npu ~2.5-4.6 TOPS depending on layer sizes).
 */
#ifndef LLMNPU_SIM_CALIBRATION_H
#define LLMNPU_SIM_CALIBRATION_H

namespace llmnpu {
namespace cal {

// ---------------------------------------------------------------- NPU INT8
/** Effective NPU INT8 TOPS vs batch rows M (square-optimized shapes),
 *  piecewise-linear in log2(M); see SquareOptTops(). */
inline constexpr double kNpuInt8TopsTable[][2] = {
    {16, 0.45}, {32, 0.70}, {64, 1.15}, {128, 1.90},
    {256, 2.70}, {512, 2.55}, {1024, 2.30}, {2048, 2.00},
};
/** Flat (unoptimized) shapes: capped at kNpuFlatFloorTops or square/1.62. */
inline constexpr double kNpuSquareSpeedup = 1.62;  // §4 optimization (1)
inline constexpr double kNpuFlatFloorTops = 0.66;  // Table 3, M=32/64

/** Weight-streaming bandwidth seen by the NPU (Table 3 bound shapes). */
inline constexpr double kNpuWeightBwGBs = 11.3;

/** Per-subgraph-invoke dispatch overhead on the NPU (QNN execute call). */
inline constexpr double kNpuDispatchMs = 0.25;
/** Per-op dispatch when ops run individually (micro-benchmarks). */
inline constexpr double kNpuOpDispatchMs = 0.03;

/** Size bonus: larger K/N tiles utilize the 1024-bit HVX lanes better.
 *  factor = clamp((geomean(K, N) / 3000)^0.5, lo, hi). */
inline constexpr double kNpuSizeFactorRef = 3000.0;
inline constexpr double kNpuSizeFactorExp = 0.5;
inline constexpr double kNpuSizeFactorLo = 0.70;
inline constexpr double kNpuSizeFactorHi = 1.60;

// ---------------------------------------------------------------- NPU FP16
/** NPU FP16 GFLOPS = base * M/(M+half): fits all Table 3 FP16 rows. */
inline constexpr double kNpuFp16GflopsBase = 19.2;
inline constexpr double kNpuFp16MHalf = 512.0;

// --------------------------------------------------------------- per-group
/** Utilization multiplier of each group-sized sub-tensor matmul. The NPU
 *  loses half its lanes on thin-K tiles; llama.cpp's CPU kernels are native
 *  per-group and barely penalized. */
inline constexpr double kNpuPerGroupSubUtil = 0.5;
inline constexpr double kCpuPerGroupSubUtil = 0.95;
inline constexpr double kGpuPerGroupSubUtil = 0.80;
/** Default quantization group size (K-Quant/AWQ-style). */
inline constexpr int kPerGroupSize = 32;

// --------------------------------------------------------------------- CPU
/** CPU INT8 TOPS = max * M/(M+half) (llama.cpp-class kernels, Table 3;
 *  large-M effective rate backed out of Table 5: ~26 s for ~1550 tokens
 *  on Qwen1.5-1.8B). */
inline constexpr double kCpuInt8TopsMax = 0.18;
inline constexpr double kCpuInt8MHalf = 24.0;
/** Matvec (decode) kernels stream weights and never drop below the
 *  utilization of this effective batch (Table 5: ~80 ms/token decode on
 *  Qwen1.5-1.8B => bandwidth-bound, not ALU-bound). */
inline constexpr double kCpuMatvecMFloor = 48.0;
inline constexpr double kGpuMatvecMFloor = 64.0;
/** CPU float GFLOPS (norm/quant/outlier shadow kernels, fp32 NEON). */
inline constexpr double kCpuFp32Gflops = 45.0;
/** CPU attention throughput: MLLM implements the KVCache operator in INT8
 *  (§4 implementation), so QK^T/AV run as blocked SDOT/i8mm kernels rather
 *  than fp32 vector code. Anchor: §3.4 reports CPU ~ half of the NPU's
 *  315 ms at prompt 256 on Qwen1.5-1.8B, and attention dominates that CPU
 *  share even at kv 1024. */
inline constexpr double kCpuAttentionGflops = 400.0;
/** CPU DRAM streaming bandwidth (decode matvec bound; Table 5 decode). */
inline constexpr double kCpuWeightBwGBs = 22.0;
inline constexpr double kCpuDispatchMs = 0.002;

// --------------------------------------------------------------------- GPU
/** Effective GPU FP16 TFLOPS vs M (TFLite-class tiling). */
inline constexpr double kGpuFp16TflopsTable[][2] = {
    {16, 0.12}, {32, 0.22}, {64, 0.33}, {128, 0.55},
    {256, 1.00}, {512, 1.70}, {1024, 2.20}, {2048, 2.60},
};
/** Micro-benchmark (flat) GPU shapes stay near the M=64 point (Table 3). */
inline constexpr double kGpuFlatFloorTflops = 0.30;
inline constexpr double kGpuWeightBwGBs = 18.0;
/** Decode matvec streaming bandwidth of the GPU (TFLite-GPU decode on
 *  Gemma-2B: ~63 ms/token over ~1.9 GB INT8 weights => ~30 GB/s). */
inline constexpr double kGpuDecodeBwGBs = 30.0;
inline constexpr double kGpuDispatchMs = 0.05;
inline constexpr double kGpuSizeFactorRef = 3000.0;
inline constexpr double kGpuSizeFactorExp = 0.3;
inline constexpr double kGpuSizeFactorLo = 0.80;
inline constexpr double kGpuSizeFactorHi = 1.25;

// ------------------------------------------------------------ QNN lifecycle
/** One-time NPU environment setup (Figure 2). */
inline constexpr double kNpuEnvSetupMs = 500.0;
/** Graph build: base + per-op cost (Qwen 450 ms @ ~312 ops, Gemma 360 ms
 *  @ ~234 ops). */
inline constexpr double kNpuBuildBaseMs = 30.0;
inline constexpr double kNpuBuildPerOpMs = 1.35;
/** Graph optimize: coef * (const GB)^exp (Qwen 3.30 s @ 1.52 GB,
 *  Gemma 11.54 s @ 2.42 GB). */
inline constexpr double kNpuOptimizeCoefS = 1.07;
inline constexpr double kNpuOptimizeExp = 2.7;
/** Graph free: per-op (Qwen 149 ms, Gemma 108 ms). */
inline constexpr double kNpuFreePerOpMs = 0.45;
/** Hexagon NPU addressable memory region (§4 optimization (2)). */
inline constexpr double kNpuMemoryRegionBytes = 4.0 * 1024 * 1024 * 1024;

// ----------------------------------------------------------- CPU<->NPU sync
/** Shared-buffer synchronization of a shadow-outlier partial sum (§3.3:
 *  un-pruned layers cost 29.7% e2e latency on Qwen1.5-1.8B at rate 0). */
inline constexpr double kShadowSyncMs = 0.55;
/** Mean fraction of input channels shadow-extracted per linear call
 *  (Figure 10: 0.1-0.3%). */
inline constexpr double kShadowOutlierFrac = 0.002;
/** Fraction of channels whose shadow weights stay resident (Figure 11:
 *  <3% of channels carry >80% of outliers). */
inline constexpr double kShadowHotChannelFrac = 0.03;
/** Extracted channels missing the resident set and fetched from disk
 *  (§3.3). */
inline constexpr double kShadowColdMissRate = 0.05;
/** Per-layer CPU<->NPU round trip of the prebuilt decode graph (quantized
 *  activations in, per-column-scaled accumulators out). Decode buffers are
 *  tiny (M <= 8 rows), so this is latency- not bandwidth-bound. Modeled,
 *  not paper-measured: the paper keeps decode on the float processor, so
 *  this is the boundary charge of our beyond-paper NPU-decode mode. */
inline constexpr double kNpuDecodeHandoffMs = 0.06;

// ------------------------------------------------------------------- disk
/** UFS 4.0 sequential read bandwidth (cold outlier weight fetch). */
inline constexpr double kDiskReadGBs = 1.5;
inline constexpr double kDiskLatencyMs = 0.15;

// ------------------------------------------------------------------ power
/** Busy power draws (W). Targets Figure 15's 35-59x CPU and 1.85-4.3x GPU
 *  energy ratios given the corresponding speedups. */
inline constexpr double kCpuBusyPowerW = 6.0;
inline constexpr double kGpuBusyPowerW = 4.5;
inline constexpr double kNpuBusyPowerW = 1.7;
inline constexpr double kSocBasePowerW = 0.6;
/** CPU draw when serving an NPU-driven pipeline: llm.npu's float stages
 *  run intermittently on 1-2 cores, unlike sequential CPU engines that
 *  saturate all cores (§4.2: "during the LLM prefill stage, all CPU cores
 *  are fully utilized, consuming the highest power"). */
inline constexpr double kCpuServicePowerW = 2.5;

// -------------------------------------------------------------- per-device
/** Snapdragon 8gen2 (Redmi K60 Pro) relative to 8gen3 (Redmi K70 Pro). */
inline constexpr double kGen2NpuScale = 0.78;
inline constexpr double kGen2CpuScale = 0.85;
inline constexpr double kGen2GpuScale = 0.82;

// ---------------------------------------------------------------- memory
/** MLLM/QNN per-operator activation buffers make llm.npu up to 1.32x the
 *  memory of llama.cpp (Figure 17); fraction of activation working set
 *  duplicated per framework. */
inline constexpr double kFrameworkActivationOverhead = 1.30;

}  // namespace cal
}  // namespace llmnpu

#endif  // LLMNPU_SIM_CALIBRATION_H
