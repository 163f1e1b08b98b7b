/**
 * @file
 * The numeric system under test, built exactly as a deployment would load
 * it: synthetic weights (packed at load), fp32 calibration and the outlier
 * profile over a fixed corpus, the W8A8 shadow executor at the paper's
 * pruning rate, and the CPU/NPU DecodeBackend over both executors.
 *
 * Weights, corpus and calibration use fixed seeds, so the program under
 * test is identical for every workload seed.
 */
#ifndef LLMNPU_BENCHMARK_SUT_H
#define LLMNPU_BENCHMARK_SUT_H

#include <memory>

#include "src/core/outlier_profile.h"
#include "src/core/shadow_executor.h"
#include "src/model/decode_backend.h"
#include "src/model/transformer.h"
#include "src/quant/calibration.h"

namespace llmnpu {
namespace bench {

/** Prefill chunk length (the paper's Figure 8 choice). */
constexpr int kChunkLen = 256;
/** Pool participants in every workload: half the host's four vCPUs. With
 *  a participant on every vCPU, one vCPU busy with anything else stalls
 *  every pool barrier (a busy vCPU slowed prefill by a third at four
 *  participants, by 2% at two). */
constexpr int kThreads = 2;
/** Shadow-path pruning rate (the paper's default). */
constexpr double kPruningRate = 0.85;

/** Qwen1.5-1.8B scaled to hidden 512, 4 layers, vocabulary 4096: MHA with
 *  4 heads of 128, FFN 1376. */
ModelConfig ProxyConfig();

/** Wall seconds of each set-up phase. */
struct SetupTimes {
    double weights_s = 0.0;    ///< synthetic weights + load-time packing
    double calibrate_s = 0.0;  ///< fp32 calibration pass over the corpus
    double profile_s = 0.0;    ///< outlier profile (clip scales, ranks)
    double executors_s = 0.0;  ///< INT8 weight prep + backend wiring

    double Total() const
    {
        return weights_s + calibrate_s + profile_s + executors_s;
    }
};

/** Everything a numeric workload runs. Members refer to each other, so
 *  the object is built in place and never moved. */
struct Sut {
    Sut() = default;
    Sut(const Sut&) = delete;
    Sut& operator=(const Sut&) = delete;

    ModelWeights weights;
    std::unique_ptr<Transformer> model;
    CalibrationData calib;
    OutlierProfile profile;
    std::unique_ptr<Fp32LinearExecutor> fp32;
    std::unique_ptr<NpuShadowExecutor> npu;
    std::unique_ptr<DecodeBackend> backend;
    SetupTimes times;
};

/** Builds the system under test, timing each phase. */
std::unique_ptr<Sut> BuildSut();

}  // namespace bench
}  // namespace llmnpu

#endif  // LLMNPU_BENCHMARK_SUT_H
