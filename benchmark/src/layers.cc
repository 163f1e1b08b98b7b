#include "benchmark/src/layers.h"

#include <algorithm>
#include <cstring>

namespace llmnpu {
namespace bench {

const char*
LinearSpanName(DecodePlacement placement, LinearKind kind)
{
    static const char* const kNpu[kNumLinearKinds] = {
        "bench.linear.npu.q_proj",    "bench.linear.npu.k_proj",
        "bench.linear.npu.v_proj",    "bench.linear.npu.o_proj",
        "bench.linear.npu.gate_proj", "bench.linear.npu.up_proj",
        "bench.linear.npu.down_proj"};
    static const char* const kCpu[kNumLinearKinds] = {
        "bench.linear.cpu.q_proj",    "bench.linear.cpu.k_proj",
        "bench.linear.cpu.v_proj",    "bench.linear.cpu.o_proj",
        "bench.linear.cpu.gate_proj", "bench.linear.cpu.up_proj",
        "bench.linear.cpu.down_proj"};
    const int index = static_cast<int>(kind);
    return placement == DecodePlacement::kNpuQuant ? kNpu[index]
                                                   : kCpu[index];
}

Tensor
TracedLinear::Forward(int layer, LinearKind kind, const Tensor& x)
{
    obs::ScopedSpan span(LinearSpanName(placement_, kind), "bench", -1, -1,
                         layer, "rows", static_cast<int>(x.Rows()));
    return inner_.Forward(layer, kind, x);
}

Tensor
TracedLinear::ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                           const BatchSegments& segments)
{
    obs::ScopedSpan span(LinearSpanName(placement_, kind), "bench", -1, -1,
                         layer, "rows", static_cast<int>(x.Rows()));
    return inner_.ForwardBatch(layer, kind, x, segments);
}

double
SpanTable::TotalMs(const std::string& name) const
{
    const SpanStats* stats = Find(name);
    return stats != nullptr ? stats->total_ms : 0.0;
}

double
SpanTable::TotalMsWithPrefix(const std::string& prefix) const
{
    double total = 0.0;
    for (auto it = by_name.lower_bound(prefix);
         it != by_name.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        total += it->second.total_ms;
    }
    return total;
}

double
SpanTable::SelfMs(const std::string& name) const
{
    const SpanStats* stats = Find(name);
    return stats != nullptr ? stats->self_ms : 0.0;
}

const SpanStats*
SpanTable::Find(const std::string& name) const
{
    auto it = by_name.find(name);
    return it != by_name.end() ? &it->second : nullptr;
}

bool
IsTileSpan(const char* name)
{
    const size_t len = std::strlen(name);
    return std::strcmp(name, "attention.tile") == 0 ||
           (len > 5 && std::strcmp(name + len - 5, ".rows") == 0);
}

SpanTable
AnalyzeSpans(const std::vector<obs::TraceEvent>& events)
{
    SpanTable table;
    std::vector<const obs::TraceEvent*> spans;
    for (const obs::TraceEvent& event : events) {
        if (event.phase != obs::TracePhase::kSpan) continue;
        if (IsTileSpan(event.name)) {
            ++table.tile_spans;
            continue;
        }
        spans.push_back(&event);
    }
    // Parents sort before their children: earlier start first, and on a
    // shared start the longer span first.
    std::sort(spans.begin(), spans.end(),
              [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                  if (a->t0_ns != b->t0_ns) return a->t0_ns < b->t0_ns;
                  return a->t1_ns > b->t1_ns;
              });

    std::vector<uint64_t> child_ns(spans.size(), 0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < spans.size(); ++i) {
        const obs::TraceEvent& span = *spans[i];
        while (!stack.empty() && spans[stack.back()]->t1_ns <= span.t0_ns) {
            stack.pop_back();
        }
        if (!stack.empty() && span.t1_ns > spans[stack.back()]->t1_ns) {
            ++table.misnested;
            while (!stack.empty() &&
                   span.t1_ns > spans[stack.back()]->t1_ns) {
                stack.pop_back();
            }
        }
        if (!stack.empty()) {
            child_ns[stack.back()] += span.t1_ns - span.t0_ns;
        }
        stack.push_back(i);
    }

    for (size_t i = 0; i < spans.size(); ++i) {
        const obs::TraceEvent& span = *spans[i];
        const uint64_t dur_ns = span.t1_ns - span.t0_ns;
        SpanStats& stats = table.by_name[span.name];
        ++stats.count;
        stats.total_ms += static_cast<double>(dur_ns) * 1e-6;
        stats.self_ms +=
            static_cast<double>(dur_ns - std::min(dur_ns, child_ns[i])) *
            1e-6;
        if (span.extra >= 0) stats.extra_sum += span.extra;
        stats.durations_ms.push_back(static_cast<double>(dur_ns) * 1e-6);
    }
    return table;
}

}  // namespace bench
}  // namespace llmnpu
