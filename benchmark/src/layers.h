/**
 * @file
 * Per-layer attribution for traced runs.
 *
 * The benchmark records spans from its own code around each call into a
 * layer (bench.request, bench.prefill_chunk, bench.decode_step,
 * bench.logits, bench.linear.<placement>.<kind>, bench.sim_run); the
 * program's own spans (transformer.*, linear.*, handoff.*,
 * attention.paged, matmul.*) nest under them. AnalyzeSpans
 * rebuilds that nesting from the tracer's rings and gives every span name
 * its total and self time, self time being a span's duration minus the
 * part its child spans cover.
 */
#ifndef LLMNPU_BENCHMARK_LAYERS_H
#define LLMNPU_BENCHMARK_LAYERS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/model/transformer.h"
#include "src/obs/trace.h"

namespace llmnpu {
namespace bench {

/** Static name of the span around one linear call ("bench.linear.npu.
 *  q_proj"): the tracer keeps the pointer, so names are literals. */
const char* LinearSpanName(DecodePlacement placement, LinearKind kind);

/**
 * LinearExecutor that forwards to `inner` inside a bench.linear span
 * carrying the layer and the row count, so a traced run can time each
 * placement and kind. Results are `inner`'s, bit for bit.
 */
class TracedLinear : public LinearExecutor
{
  public:
    TracedLinear(LinearExecutor& inner, DecodePlacement placement)
        : inner_(inner), placement_(placement)
    {}

    Tensor Forward(int layer, LinearKind kind, const Tensor& x) override;
    Tensor ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                        const BatchSegments& segments) override;
    std::string Name() const override { return inner_.Name(); }

  private:
    LinearExecutor& inner_;
    DecodePlacement placement_;
};

/** Totals of every span with one name. */
struct SpanStats {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    /** Sum of the spans' "rows"/"batch"/"m" argument. */
    int64_t extra_sum = 0;
    std::vector<double> durations_ms;
};

/** The nesting of one traced phase, aggregated by span name. */
struct SpanTable {
    std::map<std::string, SpanStats> by_name;
    /** Spans run by pool workers on behalf of a call (kernel row blocks,
     *  attention tiles); they are accounted as thread-pool busy time, not
     *  nested, since they may run on any thread. */
    int64_t tile_spans = 0;
    /** Call-level spans that overlap their enclosing span without being
     *  inside it — nonzero means a span ran off the calling thread and
     *  the self times are unreliable. */
    int64_t misnested = 0;

    /** Summed duration of the spans named `name` (0 when absent). */
    double TotalMs(const std::string& name) const;
    /** Summed durations of all spans whose name starts with `prefix`. */
    double TotalMsWithPrefix(const std::string& prefix) const;
    /** Summed self time of the spans named `name`. */
    double SelfMs(const std::string& name) const;
    const SpanStats* Find(const std::string& name) const;
};

/** True for spans a pool worker may record (names ending ".rows" and
 *  "attention.tile"). */
bool IsTileSpan(const char* name);

/** Rebuilds the span nesting of `events` (as Tracer::StoredEvents returns
 *  them) and aggregates it by name. */
SpanTable AnalyzeSpans(const std::vector<obs::TraceEvent>& events);

}  // namespace bench
}  // namespace llmnpu

#endif  // LLMNPU_BENCHMARK_LAYERS_H
