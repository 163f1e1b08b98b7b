/**
 * @file
 * Tracer overhead microbenchmark: what does an instrumented hot site cost?
 *
 * The obs plane promises "pay only when you look": a span macro at a site
 * that is not being traced must cost one relaxed atomic load and a
 * predictable branch. This bench measures a small fixed work loop (a few
 * dozen ns of arithmetic per iteration, roughly one packed-matmul row
 * strip) in four configurations:
 *
 *   baseline      the loop with no macro at all
 *   disabled      LLMNPU_TRACE_SPAN present, tracing runtime-disabled
 *   enabled_idle  the *uninstrumented* loop while tracing is enabled
 *                 elsewhere (enabling the tracer must not slow code that
 *                 carries no spans)
 *   enabled_hot   the instrumented loop actually recording one span per
 *                 iteration (two clock reads + a ring write)
 *
 * Each row reports median ns/iteration over repeated trials plus its
 * ratio to baseline. CI (bench/check_bench_metrics) asserts the
 * `disabled` ratio stays ~1: instrumentation that is not being observed
 * must be free. `enabled_hot` is informational — it is the price of
 * looking, dominated by the two steady_clock reads.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/trace.h"

namespace llmnpu {
namespace {

/** Fixed per-iteration work: enough arithmetic that the loop body is a
 *  realistic "site" (~tens of ns), little enough that macro overhead is
 *  visible. volatile sink keeps the compiler honest. */
inline double
WorkBody(double x)
{
    for (int i = 0; i < 16; ++i) {
        x = x * 1.000000119 + 0.25;
    }
    return x;
}

double
LoopPlain(size_t iters)
{
    double acc = 1.0;
    for (size_t i = 0; i < iters; ++i) {
        acc = WorkBody(acc);
    }
    return acc;
}

double
LoopTraced(size_t iters)
{
    double acc = 1.0;
    for (size_t i = 0; i < iters; ++i) {
        LLMNPU_TRACE_SPAN_TILE("obs_bench.site", "bench", -1, -1, -1,
                               "iter", static_cast<int>(i & 0xff));
        acc = WorkBody(acc);
    }
    return acc;
}

volatile double g_sink = 0.0;

/** Median ns/iteration of `fn(iters)` over `trials` runs. */
template <typename Fn>
double
MedianNsPerIter(Fn fn, size_t iters, int trials)
{
    std::vector<double> ns;
    ns.reserve(static_cast<size_t>(trials));
    for (int t = 0; t < trials; ++t) {
        const auto start = std::chrono::steady_clock::now();
        g_sink = g_sink + fn(iters);
        const auto end = std::chrono::steady_clock::now();
        ns.push_back(
            std::chrono::duration<double, std::nano>(end - start).count() /
            static_cast<double>(iters));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

void
EmitRow(const char* mode, double ns_per_site, double baseline_ns)
{
    std::printf("  %-14s %8.2f ns/site   %.3fx baseline\n", mode,
                ns_per_site, ns_per_site / baseline_ns);
    std::printf("METRIC {\"bench\": \"obs\", \"mode\": \"%s\", "
                "\"ns_per_site\": %.3f, \"overhead_ratio\": %.4f}\n",
                mode, ns_per_site, ns_per_site / baseline_ns);
}

void
Run()
{
    BenchHeader("Tracer overhead: span macro cost per hot-path site",
                "observability must not tax the numeric plane "
                "(disabled site == one relaxed atomic load)");

    const bool quick = QuickMode();
    const size_t iters = quick ? (1u << 16) : (1u << 20);
    const int trials = quick ? 5 : 9;

    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Disable();

    // Warm both code paths once so lazy init / page faults stay out of
    // the measured trials.
    g_sink = g_sink + LoopPlain(iters / 4) + LoopTraced(iters / 4);

    const double baseline = MedianNsPerIter(LoopPlain, iters, trials);
    const double disabled = MedianNsPerIter(LoopTraced, iters, trials);

    tracer.Enable();
    tracer.Reset();
    const double enabled_idle = MedianNsPerIter(LoopPlain, iters, trials);
    const double enabled_hot = MedianNsPerIter(LoopTraced, iters, trials);
    const uint64_t recorded = tracer.TotalRecorded();
    const uint64_t dropped = tracer.TotalDropped();
    tracer.Disable();

    std::printf("\n  %zu iterations/trial, median of %d trials\n\n", iters,
                trials);
    EmitRow("baseline", baseline, baseline);
    EmitRow("disabled", disabled, baseline);
    EmitRow("enabled_idle", enabled_idle, baseline);
    EmitRow("enabled_hot", enabled_hot, baseline);

    std::printf("\n  enabled_hot recorded %llu spans (%llu dropped by the "
                "flight-recorder ring, by design)\n",
                static_cast<unsigned long long>(recorded),
                static_cast<unsigned long long>(dropped));
    std::printf("  disabled-site cost above baseline: %+.2f ns "
                "(the runtime gate)\n",
                disabled - baseline);
}

}  // namespace
}  // namespace llmnpu

int
main()
{
    llmnpu::Run();
    return 0;
}
