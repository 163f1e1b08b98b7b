#include "src/predict/latency_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/util/check.h"

namespace llmnpu {
namespace predict {

const char*
OpClassName(OpClass op)
{
    switch (op) {
      case OpClass::kMatMulCpu: return "matmul_cpu";
      case OpClass::kMatMulNpu: return "matmul_npu";
      case OpClass::kAttention: return "attention";
      case OpClass::kHandoff: return "handoff";
      case OpClass::kChunkDispatch: return "chunk_dispatch";
    }
    return "?";
}

bool
ParseOpClass(const std::string& name, OpClass* out)
{
    for (int i = 0; i < kNumOpClasses; ++i) {
        const OpClass op = static_cast<OpClass>(i);
        if (name == OpClassName(op)) {
            *out = op;
            return true;
        }
    }
    return false;
}

Features
MatMulFeatures(int64_t m, int64_t k, int64_t n)
{
    const double md = static_cast<double>(m);
    const double kd = static_cast<double>(k);
    const double nd = static_cast<double>(n);
    return {1.0, md * kd * nd * 1e-6, kd * nd * 1e-6, md * 1e-3};
}

Features
AttentionFeatures(int64_t ctx, int64_t head_rows)
{
    const double c = static_cast<double>(ctx);
    const double h = static_cast<double>(head_rows);
    return {1.0, c * h * 1e-6, c * 1e-3, 0.0};
}

Features
HandoffFeatures(int64_t rows)
{
    return {1.0, static_cast<double>(rows) * 1e-3, 0.0, 0.0};
}

Features
ChunkDispatchFeatures(int64_t tokens)
{
    return {1.0, static_cast<double>(tokens) * 1e-3, 0.0, 0.0};
}

namespace {

/**
 * Non-negative ridge least squares on the normal equations via projected
 * coordinate descent. With A = X'X + lambda*I positive semi-definite and
 * every coordinate update the exact constrained minimizer along its axis,
 * the sweep objective is non-increasing and the iterate converges to the
 * (unique for lambda > 0) non-negative minimizer. Deterministic: fixed
 * sweep order, fixed iteration cap.
 */
Features
SolveNonNegative(const std::array<std::array<double, kNumFeatures>,
                                  kNumFeatures>& a,
                 const Features& b)
{
    Features w{};
    for (int sweep = 0; sweep < 400; ++sweep) {
        double max_delta = 0.0;
        for (int j = 0; j < kNumFeatures; ++j) {
            if (a[j][j] <= 0.0) continue;  // feature identically zero
            double r = b[j];
            for (int l = 0; l < kNumFeatures; ++l) {
                if (l != j) r -= a[j][l] * w[l];
            }
            const double next = std::max(0.0, r / a[j][j]);
            max_delta = std::max(max_delta, std::fabs(next - w[j]));
            w[j] = next;
        }
        if (max_delta < 1e-14) break;
    }
    return w;
}

}  // namespace

void
LatencyModel::Fit(const std::vector<OpSample>& samples)
{
    for (int c = 0; c < kNumOpClasses; ++c) {
        const OpClass op = static_cast<OpClass>(c);
        std::vector<const OpSample*> rows;
        for (const OpSample& s : samples) {
            if (s.op == op) rows.push_back(&s);
        }
        if (rows.empty()) continue;

        // Column scaling: solve in max-normalized feature space so the
        // work terms (1e0..1e3 after the builders' pre-scaling) and the
        // intercept condition comparably, then unscale the coefficients.
        Features scale{};
        for (const OpSample* s : rows) {
            for (int j = 0; j < kNumFeatures; ++j) {
                scale[j] = std::max(scale[j], std::fabs(s->features[j]));
            }
        }

        std::array<std::array<double, kNumFeatures>, kNumFeatures> a{};
        Features b{};
        for (const OpSample* s : rows) {
            Features x{};
            for (int j = 0; j < kNumFeatures; ++j) {
                x[j] = scale[j] > 0.0 ? s->features[j] / scale[j] : 0.0;
            }
            for (int j = 0; j < kNumFeatures; ++j) {
                for (int l = 0; l < kNumFeatures; ++l) {
                    a[j][l] += x[j] * x[l];
                }
                b[j] += x[j] * s->measured_ms;
            }
        }
        // Tiny ridge: keeps collinear feature sets (e.g. every sample at
        // the same context) solvable without visibly biasing the fit.
        const double lambda = 1e-8 * static_cast<double>(rows.size());
        for (int j = 0; j < kNumFeatures; ++j) a[j][j] += lambda;

        const Features w = SolveNonNegative(a, b);
        OpFit& fit = fits_[c];
        fit.fitted = true;
        fit.samples = static_cast<int>(rows.size());
        for (int j = 0; j < kNumFeatures; ++j) {
            fit.coef[j] = scale[j] > 0.0 ? w[j] / scale[j] : 0.0;
        }
    }
}

bool
LatencyModel::Fitted(OpClass op) const
{
    return fits_[static_cast<int>(op)].fitted;
}

int
LatencyModel::SampleCount(OpClass op) const
{
    return fits_[static_cast<int>(op)].samples;
}

double
LatencyModel::PredictMs(OpClass op, const Features& features) const
{
    const OpFit& fit = fits_[static_cast<int>(op)];
    LLMNPU_CHECK(fit.fitted);
    double ms = 0.0;
    for (int j = 0; j < kNumFeatures; ++j) {
        ms += fit.coef[j] * features[j];
    }
    return ms;
}

const Features&
LatencyModel::Coefficients(OpClass op) const
{
    const OpFit& fit = fits_[static_cast<int>(op)];
    LLMNPU_CHECK(fit.fitted);
    return fit.coef;
}

OpErrorStats
LatencyModel::Evaluate(OpClass op,
                       const std::vector<OpSample>& samples) const
{
    OpErrorStats stats;
    std::vector<double> errs;
    for (const OpSample& s : samples) {
        if (s.op != op) continue;
        const double denom = std::max(s.measured_ms, 1e-9);
        errs.push_back(std::fabs(PredictMs(op, s.features) - s.measured_ms) /
                       denom);
    }
    if (errs.empty()) return stats;
    stats.samples = static_cast<int>(errs.size());
    double sum = 0.0;
    for (double e : errs) {
        sum += e;
        stats.max_rel_err = std::max(stats.max_rel_err, e);
    }
    stats.mean_rel_err = sum / static_cast<double>(errs.size());
    std::sort(errs.begin(), errs.end());
    const size_t mid = errs.size() / 2;
    stats.median_rel_err = errs.size() % 2 == 1
                               ? errs[mid]
                               : 0.5 * (errs[mid - 1] + errs[mid]);
    return stats;
}

std::string
LatencyModel::Serialize() const
{
    std::string out = "llmnpu-latency-model-v1\n";
    char buf[512];
    for (int c = 0; c < kNumOpClasses; ++c) {
        const OpFit& fit = fits_[c];
        if (!fit.fitted) continue;
        std::snprintf(buf, sizeof(buf),
                      "%s %d %.17g %.17g %.17g %.17g\n",
                      OpClassName(static_cast<OpClass>(c)), fit.samples,
                      fit.coef[0], fit.coef[1], fit.coef[2], fit.coef[3]);
        out += buf;
    }
    out += "end\n";
    return out;
}

bool
LatencyModel::Parse(const std::string& text, LatencyModel* out,
                    std::string* error)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != "llmnpu-latency-model-v1") {
        if (error != nullptr) *error = "bad header";
        return false;
    }
    LatencyModel model;
    bool saw_end = false;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (line == "end") {
            saw_end = true;
            break;
        }
        std::istringstream row(line);
        std::string name;
        OpClass op;
        OpFit fit;
        if (!(row >> name) || !ParseOpClass(name, &op) ||
            !(row >> fit.samples >> fit.coef[0] >> fit.coef[1] >>
              fit.coef[2] >> fit.coef[3])) {
            if (error != nullptr) *error = "bad row: " + line;
            return false;
        }
        fit.fitted = true;
        model.fits_[static_cast<int>(op)] = fit;
    }
    if (!saw_end) {
        if (error != nullptr) *error = "missing end marker";
        return false;
    }
    *out = model;
    return true;
}

}  // namespace predict
}  // namespace llmnpu
