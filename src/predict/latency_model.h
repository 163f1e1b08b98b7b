/**
 * @file
 * Learned per-op latency model ("Latency Prediction for LLM Inference on
 * NPU Systems" direction, PAPERS.md).
 *
 * Each op class gets an independent linear-in-features model fitted by
 * non-negative ridge least squares from the repo's own measurements —
 * BENCH_results.json kernel GFLOP/s rows and the obs tracer's per-span
 * durations from replayed schedules (src/predict/training_data.h extracts
 * both). Non-negative slopes over features that are themselves
 * nondecreasing in every size dimension make every prediction monotone
 * (predicted matmul cost never drops when m, k or n grows), which the
 * predict test suite pins.
 *
 * Every class prices real host-side work in wall-clock ms: kernel
 * invocations (matmul, attention) and the handoff / chunk-dispatch spans
 * of a replayed schedule. The serving simulator does not consult this
 * model: it places and prices decode steps through the calibrated
 * ServingCostModel (src/serving/cost_model.h).
 */
#ifndef LLMNPU_PREDICT_LATENCY_MODEL_H
#define LLMNPU_PREDICT_LATENCY_MODEL_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace llmnpu {
namespace predict {

/** Op classes with independently fitted latency models. */
enum class OpClass {
    /** Packed f32 matmul on the CPU (tiled_packed kernel rows). */
    kMatMulCpu = 0,
    /** W8A8 per-tensor matmul on the shadow NPU executor. */
    kMatMulNpu,
    /** Fused paged causal attention over the ragged batch. */
    kAttention,
    /** CPU<->NPU handoff (quantize, dispatch, dequantize) per boundary. */
    kHandoff,
    /** Per-chunk prefill dispatch: one chunked forward pass. */
    kChunkDispatch,
};

inline constexpr int kNumOpClasses = 5;

/** Fixed feature width; unused trailing features are zero. */
inline constexpr int kNumFeatures = 4;

using Features = std::array<double, kNumFeatures>;

/** "matmul_cpu", "handoff", ... (METRIC rows, serialization). */
const char* OpClassName(OpClass op);

/** Inverse of OpClassName; false on an unknown name. */
bool ParseOpClass(const std::string& name, OpClass* out);

/**
 * Feature builders. Every feature is nondecreasing in every size argument
 * so non-negative coefficients imply monotone predictions. Work terms are
 * scaled (MFLOP-ish units) to keep the normal equations well-conditioned.
 */
Features MatMulFeatures(int64_t m, int64_t k, int64_t n);
/** `head_rows` = total query rows x model width (batch * hidden): the
 *  4*ctx*head_rows flop term of fused paged attention. */
Features AttentionFeatures(int64_t ctx, int64_t head_rows);
/** One CPU<->NPU boundary moving `rows` activation rows. */
Features HandoffFeatures(int64_t rows);
/** One prefill chunk dispatch of `tokens` tokens. */
Features ChunkDispatchFeatures(int64_t tokens);

/** One training/evaluation observation. */
struct OpSample {
    OpClass op = OpClass::kMatMulCpu;
    Features features{};
    double measured_ms = 0.0;
};

/** Prediction-error summary of one op class (the tracked METRIC). */
struct OpErrorStats {
    int samples = 0;
    double median_rel_err = 0.0;
    double mean_rel_err = 0.0;
    double max_rel_err = 0.0;
};

/** The fitted model: per-class non-negative linear coefficients. */
class LatencyModel
{
  public:
    /** Fits every op class that has at least one sample; classes absent
     *  from `samples` keep their previous state. Deterministic. */
    void Fit(const std::vector<OpSample>& samples);

    bool Fitted(OpClass op) const;

    /** Number of samples the class was fitted from (0 if unfitted). */
    int SampleCount(OpClass op) const;

    /** Predicted latency in ms; fatal if the class is unfitted. Always
     *  >= 0 (coefficients are constrained non-negative). */
    double PredictMs(OpClass op, const Features& features) const;

    /** Fitted coefficients of one class (fatal if unfitted). */
    const Features& Coefficients(OpClass op) const;

    /** Relative-error stats of the fitted class over `samples` (rows of
     *  other classes are ignored). */
    OpErrorStats Evaluate(OpClass op,
                          const std::vector<OpSample>& samples) const;

    /** Text serialization (llmnpu-latency-model-v1). Coefficients print
     *  with %.17g so Parse() round-trips bitwise. */
    std::string Serialize() const;

    /** Inverse of Serialize(); false + `error` on malformed input. */
    static bool Parse(const std::string& text, LatencyModel* out,
                      std::string* error);

  private:
    struct OpFit {
        bool fitted = false;
        int samples = 0;
        Features coef{};
    };
    std::array<OpFit, kNumOpClasses> fits_{};
};

}  // namespace predict
}  // namespace llmnpu

#endif  // LLMNPU_PREDICT_LATENCY_MODEL_H
