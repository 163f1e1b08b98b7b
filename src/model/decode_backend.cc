#include "src/model/decode_backend.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace llmnpu {

namespace {

/** Registry handles for the CPU/NPU boundary counters, resolved once (the
 *  registry leaks, so process-lifetime caching is safe). */
struct HandoffCounters
{
    obs::Counter& npu_linear_calls =
        obs::MetricsRegistry::Global().GetCounter("handoff.npu_linear_calls");
    obs::Counter& cpu_linear_calls =
        obs::MetricsRegistry::Global().GetCounter("handoff.cpu_linear_calls");
    obs::Counter& handoffs =
        obs::MetricsRegistry::Global().GetCounter("handoff.round_trips");
    obs::Counter& quantized_elems =
        obs::MetricsRegistry::Global().GetCounter("handoff.quantized_elems");
    obs::Counter& dequantized_elems =
        obs::MetricsRegistry::Global().GetCounter("handoff.dequantized_elems");
};

HandoffCounters&
Counters()
{
    static HandoffCounters* c = new HandoffCounters();
    return *c;
}

/** Adds `delta` to one of a backend's own counters and to its
 *  process-wide registry twin. */
void
Add(int64_t& own, obs::Counter& global, int64_t delta)
{
    own += delta;
    global.Add(delta);
}

}  // namespace

DecodeBackend::DecodeBackend(LinearExecutor& cpu_float,
                             LinearExecutor& npu_quant)
    : cpu_float_(cpu_float), npu_quant_(npu_quant)
{}

void
DecodeBackend::SetStepPlacements(std::vector<DecodePlacement> placements)
{
    LLMNPU_CHECK(!placements.empty());
    step_placements_ = std::move(placements);
}

std::string
DecodeBackend::Name() const
{
    return "decode[" + cpu_float_.Name() + "|" + npu_quant_.Name() + "]";
}

Tensor
DecodeBackend::ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                            const BatchSegments& segments)
{
    CheckBatchSegments(x, segments);
    const size_t num_segments = segments.size() - 1;
    LLMNPU_CHECK_EQ(step_placements_.size(), num_segments);

    HandoffCounters& c = Counters();

    // Split into maximal contiguous same-placement runs, route each run's
    // sub-stack through its executor's ForwardBatch (bitwise per-segment by
    // both executors' contracts), scatter rows back. A run that spans the
    // whole stack passes x and segments on without a copy.
    Tensor out;
    for (size_t first = 0; first < num_segments;) {
        const DecodePlacement placement = step_placements_[first];
        size_t last = first + 1;
        while (last < num_segments && step_placements_[last] == placement) {
            ++last;
        }
        const bool whole = first == 0 && last == num_segments;
        const int64_t r0 = segments[first];
        Tensor sub;
        BatchSegments sub_segments;
        if (!whole) {
            sub = x.CopyRows(r0, segments[last] - r0);
            sub_segments.resize(last - first + 1);
            for (size_t i = first; i <= last; ++i) {
                sub_segments[i - first] = segments[i] - r0;
            }
        }
        const Tensor& run = whole ? x : sub;
        const BatchSegments& run_segments = whole ? segments : sub_segments;
        const auto run_length = static_cast<int64_t>(last - first);
        Tensor y;
        if (placement == DecodePlacement::kNpuQuant) {
            Add(stats_.npu_linear_calls, c.npu_linear_calls, run_length);
            Add(stats_.handoffs, c.handoffs, 1);
            Add(stats_.quantized_elems, c.quantized_elems, run.NumElements());
            LLMNPU_TRACE_SPAN_TILE(whole ? "handoff.npu_batch"
                                         : "handoff.npu_run",
                                   "handoff", -1, -1, layer, "rows",
                                   static_cast<int>(run.Rows()));
            y = npu_quant_.ForwardBatch(layer, kind, run, run_segments);
            Add(stats_.dequantized_elems, c.dequantized_elems,
                y.NumElements());
        } else {
            Add(stats_.cpu_linear_calls, c.cpu_linear_calls, run_length);
            y = cpu_float_.ForwardBatch(layer, kind, run, run_segments);
        }
        if (whole) return y;
        if (out.Rank() == 0) out = Tensor({x.Rows(), y.Cols()}, DType::kF32);
        out.PasteRows(y, r0);
        first = last;
    }
    return out;
}

}  // namespace llmnpu
