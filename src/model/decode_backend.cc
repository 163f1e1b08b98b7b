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

HandoffStats
RegistryTotals()
{
    HandoffCounters& c = Counters();
    HandoffStats s;
    s.npu_linear_calls = c.npu_linear_calls.value();
    s.cpu_linear_calls = c.cpu_linear_calls.value();
    s.handoffs = c.handoffs.value();
    s.quantized_elems = c.quantized_elems.value();
    s.dequantized_elems = c.dequantized_elems.value();
    return s;
}

}  // namespace

DecodeBackend::DecodeBackend(LinearExecutor& cpu_float,
                             LinearExecutor& npu_quant)
    : cpu_float_(cpu_float), npu_quant_(npu_quant), base_(RegistryTotals())
{}

HandoffStats
DecodeBackend::stats() const
{
    const HandoffStats now = RegistryTotals();
    HandoffStats s;
    s.npu_linear_calls = now.npu_linear_calls - base_.npu_linear_calls;
    s.cpu_linear_calls = now.cpu_linear_calls - base_.cpu_linear_calls;
    s.handoffs = now.handoffs - base_.handoffs;
    s.quantized_elems = now.quantized_elems - base_.quantized_elems;
    s.dequantized_elems = now.dequantized_elems - base_.dequantized_elems;
    return s;
}

void
DecodeBackend::ResetStats()
{
    base_ = RegistryTotals();
}

void
DecodeBackend::SetUniformPlacement(DecodePlacement placement)
{
    uniform_ = placement;
    step_placements_.clear();
}

void
DecodeBackend::SetStepPlacements(std::vector<DecodePlacement> placements)
{
    LLMNPU_CHECK(!placements.empty());
    step_placements_ = std::move(placements);
}

DecodePlacement
DecodeBackend::PlacementFor(size_t segment) const
{
    if (step_placements_.empty()) return uniform_;
    LLMNPU_CHECK_LT(segment, step_placements_.size());
    return step_placements_[segment];
}

std::string
DecodeBackend::Name() const
{
    return "decode[" + cpu_float_.Name() + "|" + npu_quant_.Name() + "]";
}

Tensor
DecodeBackend::Forward(int layer, LinearKind kind, const Tensor& x)
{
    return ForwardBatch(layer, kind, x, {0, x.Rows()});
}

Tensor
DecodeBackend::ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                            const BatchSegments& segments)
{
    CheckBatchSegments(x, segments);
    const size_t num_segments = segments.size() - 1;
    if (!step_placements_.empty()) {
        LLMNPU_CHECK_EQ(step_placements_.size(), num_segments);
    }

    HandoffCounters& c = Counters();

    // Uniform fast path: the whole stack goes to one executor.
    bool uniform = true;
    for (size_t i = 1; i < num_segments; ++i) {
        if (PlacementFor(i) != PlacementFor(0)) {
            uniform = false;
            break;
        }
    }
    if (uniform) {
        const DecodePlacement placement = PlacementFor(0);
        if (placement == DecodePlacement::kNpuQuant) {
            c.npu_linear_calls.Add(static_cast<int64_t>(num_segments));
            c.handoffs.Add(1);
            c.quantized_elems.Add(x.NumElements());
            LLMNPU_TRACE_SPAN_TILE("handoff.npu_batch", "handoff", -1, -1,
                                   layer, "rows", static_cast<int>(x.Rows()));
            Tensor y = npu_quant_.ForwardBatch(layer, kind, x, segments);
            c.dequantized_elems.Add(y.NumElements());
            return y;
        }
        c.cpu_linear_calls.Add(static_cast<int64_t>(num_segments));
        return cpu_float_.ForwardBatch(layer, kind, x, segments);
    }

    // Mixed step: split into maximal contiguous same-placement runs, route
    // each run's sub-stack through its executor's ForwardBatch (bitwise
    // per-segment by both executors' contracts), scatter rows back.
    Tensor out;
    for (size_t first = 0; first < num_segments;) {
        const DecodePlacement placement = PlacementFor(first);
        size_t last = first + 1;
        while (last < num_segments && PlacementFor(last) == placement) {
            ++last;
        }
        const int64_t r0 = segments[first];
        const int64_t rows = segments[last] - r0;
        Tensor sub = x.CopyRows(r0, rows);
        BatchSegments sub_segments(last - first + 1);
        for (size_t i = first; i <= last; ++i) {
            sub_segments[i - first] = segments[i] - r0;
        }
        Tensor y;
        if (placement == DecodePlacement::kNpuQuant) {
            c.npu_linear_calls.Add(static_cast<int64_t>(last - first));
            c.handoffs.Add(1);
            c.quantized_elems.Add(sub.NumElements());
            LLMNPU_TRACE_SPAN_TILE("handoff.npu_run", "handoff", -1, -1,
                                   layer, "rows", static_cast<int>(sub.Rows()));
            y = npu_quant_.ForwardBatch(layer, kind, sub, sub_segments);
            c.dequantized_elems.Add(y.NumElements());
        } else {
            c.cpu_linear_calls.Add(static_cast<int64_t>(last - first));
            y = cpu_float_.ForwardBatch(layer, kind, sub, sub_segments);
        }
        if (out.Rank() == 0) out = Tensor({x.Rows(), y.Cols()}, DType::kF32);
        out.PasteRows(y, r0);
        first = last;
    }
    return out;
}

}  // namespace llmnpu
