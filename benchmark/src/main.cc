/**
 * @file
 * llmnpu_benchmark: wall-clock benchmark of the numeric plane and the
 * serving simulator on a Qwen1.5-1.8B proxy.
 *
 *   llmnpu_benchmark --workload NAME --seed N [--seconds S] [--trace FILE]
 *                    [--out FILE] [--smoke]
 *   llmnpu_benchmark compare PARENT.json CHANGE.json
 *
 * A run sets the system up three times, warms up untimed, then runs timed
 * rounds of the workload's fixed work until the next round would overrun
 * --seconds, runs the correctness checks and mechanism assertions
 * untimed, and prints METRIC rows followed by one JSON result line.
 * Untraced runs report the end-to-end metrics, each operation taken at its
 * fastest over the rounds. With --trace, half the time runs untraced, then
 * one round runs with the span tracer on and linear-timing wrappers in
 * place; that run reports the per-layer metrics, writes the Perfetto trace
 * to FILE and prints each span's self time.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>

#include "benchmark/src/compare.h"
#include "benchmark/src/layers.h"
#include "benchmark/src/report.h"
#include "benchmark/src/stats.h"
#include "benchmark/src/workloads.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/format.h"
#include "src/util/stats.h"
#include "src/util/threadpool.h"

namespace llmnpu {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double
SecondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Cli {
    std::string workload;
    uint64_t seed = 1;
    double seconds = kDefaultSeconds;
    std::string trace_path;
    std::string out_path;
    bool smoke = false;
};

int
Usage()
{
    std::fprintf(
        stderr,
        "usage: llmnpu_benchmark --workload NAME --seed N [--seconds S]\n"
        "                        [--trace FILE] [--out FILE] [--smoke]\n"
        "       llmnpu_benchmark compare PARENT.json CHANGE.json\n"
        "workloads: ui_automation decode_b16 sim_sweep\n");
    return 2;
}

bool
ParseCli(int argc, char** argv, Cli* cli)
{
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke") {
            cli->smoke = true;
        } else if (!has_value) {
            return false;
        } else if (arg == "--workload") {
            cli->workload = argv[++i];
        } else if (arg == "--seed") {
            char* end = nullptr;
            cli->seed = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0') return false;
            have_seed = true;
        } else if (arg == "--seconds") {
            char* end = nullptr;
            cli->seconds = std::strtod(argv[++i], &end);
            if (*end != '\0' || !(cli->seconds >= 0.0)) return false;
        } else if (arg == "--trace") {
            cli->trace_path = argv[++i];
        } else if (arg == "--out") {
            cli->out_path = argv[++i];
        } else {
            return false;
        }
    }
    const auto& names = WorkloadNames();
    return have_seed &&
           std::find(names.begin(), names.end(), cli->workload) != names.end();
}

/** The timed rounds of one phase. */
struct Phase {
    std::vector<std::vector<double>> op_ms;  ///< per round, per operation
    double items = 0.0;                      ///< work of one round
    int rounds = 0;
    int64_t operations = 0;
};

void
Absorb(Phase& phase, const Round& round)
{
    phase.op_ms.push_back(round.op_ms);
    phase.items = round.items;
    phase.operations += static_cast<int64_t>(round.op_ms.size());
    ++phase.rounds;
}

double
Sum(const std::vector<double>& values)
{
    double total = 0.0;
    for (double v : values) total += v;
    return total;
}

/** Summed operation time of each round (ms). */
std::vector<double>
RoundTimes(const Phase& phase)
{
    std::vector<double> times;
    for (const std::vector<double>& round : phase.op_ms) {
        times.push_back(Sum(round));
    }
    return times;
}

/** Runs the workload's set-up once and appends its wall time. */
SetupTimes
TimedSetup(Workload& workload, std::vector<double>& repeats_s)
{
    const auto t0 = Clock::now();
    const SetupTimes times = workload.Setup();
    repeats_s.push_back(SecondsSince(t0));
    return times;
}

/** Runs rounds until the next one, at the mean round time so far, would
 *  end past `budget_s`; at least `min_rounds`, at most `max_rounds`. The
 *  workload's SetupsPerRound() set-ups follow each round, untimed as far
 *  as the round is concerned, their times appended to `setup_repeats_s`. */
Phase
RunRounds(Workload& workload, double budget_s, int min_rounds,
          int max_rounds, std::vector<double>& setup_repeats_s)
{
    Phase phase;
    const auto t0 = Clock::now();
    while (phase.rounds < max_rounds) {
        Absorb(phase, workload.RunRound());
        for (int i = 0; i < workload.SetupsPerRound(); ++i) {
            TimedSetup(workload, setup_repeats_s);
        }
        const double elapsed = SecondsSince(t0);
        if (phase.rounds >= min_rounds &&
            elapsed * (phase.rounds + 1) / phase.rounds > budget_s) {
            break;
        }
    }
    return phase;
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

using CounterSnapshot = std::map<std::string, int64_t>;

CounterSnapshot
SnapshotCounters()
{
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    CounterSnapshot snapshot;
    for (const std::string& name : registry.CounterNames()) {
        snapshot[name] = registry.GetCounter(name).value();
    }
    return snapshot;
}

int64_t
Delta(const CounterSnapshot& before, const CounterSnapshot& after,
      const std::string& name)
{
    auto a = after.find(name);
    if (a == after.end()) return 0;
    auto b = before.find(name);
    return a->second - (b == before.end() ? 0 : b->second);
}

int64_t
DeltaWithPrefix(const CounterSnapshot& before, const CounterSnapshot& after,
                const std::string& prefix)
{
    int64_t total = 0;
    for (const auto& [name, value] : after) {
        if (name.compare(0, prefix.size(), prefix) == 0) {
            total += Delta(before, after, name);
        }
    }
    return total;
}

/** What the traced round measured. */
struct TracedRound {
    Round round;
    double wall_s = 0.0;
    SpanTable spans;
    CounterSnapshot before;
    CounterSnapshot after;
    double kv_pages_peak = 0.0;
};

/**
 * Runs one round with the tracer on and the linear wrappers in place.
 * The rings start at 2^18 events per thread; if the round overflows them,
 * it runs again with rings as large as everything the first attempt
 * recorded, so the analyzed round never drops an event.
 */
TracedRound
RunTracedRound(Workload& workload, Phase& all, Tally& tally)
{
    obs::Tracer& tracer = obs::Tracer::Global();
    obs::Gauge& used_pages =
        obs::MetricsRegistry::Global().GetGauge("kv_pool.used_pages");
    size_t capacity = size_t{1} << 18;
    TracedRound traced;
    for (int attempt = 0; attempt < 2; ++attempt) {
        tracer.Enable(capacity);
        tracer.Reset();
        workload.SetTraced(true);
        workload.BeginTracedRound();
        traced.before = SnapshotCounters();
        used_pages.ResetPeak();
        const auto t0 = Clock::now();
        traced.round = workload.RunRound();
        traced.wall_s = SecondsSince(t0);
        traced.after = SnapshotCounters();
        traced.kv_pages_peak = used_pages.peak();
        workload.SetTraced(false);
        tracer.Disable();
        Absorb(all, traced.round);
        if (tracer.TotalDropped() == 0) break;
        capacity = static_cast<size_t>(tracer.TotalRecorded()) * 5 / 4;
    }
    if (tracer.TotalDropped() != 0) {
        tally.MechanismFailed(
            StrFormat("trace: %llu events dropped",
                      static_cast<unsigned long long>(tracer.TotalDropped())));
    }
    traced.spans = AnalyzeSpans(tracer.StoredEvents());
    if (traced.spans.misnested != 0) {
        tally.MechanismFailed(StrFormat(
            "trace: %lld spans overlap their parent without nesting",
            static_cast<long long>(traced.spans.misnested)));
    }
    return traced;
}

/** Per-layer values derived from the spans and registry counters. */
LayerValues
TraceLayerValues(const TracedRound& traced, const ModelConfig* config,
                 const SetupTimes& setup, double untraced_round_ms)
{
    const SpanTable& spans = traced.spans;
    const double ops = static_cast<double>(traced.round.op_ms.size());
    LayerValues v;
    v["setup.weights_s"] = setup.weights_s;
    v["setup.calibrate_s"] = setup.calibrate_s;
    v["setup.profile_s"] = setup.profile_s;
    v["setup.executors_s"] = setup.executors_s;

    for (DecodePlacement placement :
         {DecodePlacement::kNpuQuant, DecodePlacement::kCpuFloat}) {
        const std::string side = DecodePlacementName(placement);
        double ms = 0.0, flops = 0.0;
        for (int k = 0; k < kNumLinearKinds; ++k) {
            const LinearKind kind = static_cast<LinearKind>(k);
            const SpanStats* stats =
                spans.Find(LinearSpanName(placement, kind));
            const double kind_ms = stats != nullptr ? stats->total_ms : 0.0;
            v["linear." + side + "." + LinearKindName(kind) + ".ms"] =
                kind_ms / ops;
            ms += kind_ms;
            if (stats == nullptr || config == nullptr) continue;
            for (const LinearSpec& spec : config->LayerLinears()) {
                if (spec.kind == kind) {
                    flops += 2.0 * static_cast<double>(stats->extra_sum) *
                             static_cast<double>(spec.k) *
                             static_cast<double>(spec.n);
                }
            }
        }
        v["linear." + side + ".ms"] = ms / ops;
        v["linear." + side + ".gflops"] = ms > 0.0 ? flops / ms * 1e-6 : 0.0;
    }

    const auto delta = [&](const std::string& name) {
        return static_cast<double>(Delta(traced.before, traced.after, name));
    };
    v["handoff.round_trips"] = delta("handoff.round_trips") / ops;
    // Bytes moved are computed from tensor sizes: f32 activations into
    // the quantizer, f32 outputs out of the dequantizer.
    v["handoff.quantized_mb"] =
        delta("handoff.quantized_elems") * 4.0 / 1e6 / ops;
    v["handoff.dequantized_mb"] =
        delta("handoff.dequantized_elems") * 4.0 / 1e6 / ops;

    const SpanStats* prefill = spans.Find("bench.prefill_chunk");
    const SpanStats* decode = spans.Find("bench.decode_step");
    v["model.prefill_chunk_ms_p50"] =
        prefill != nullptr ? Percentile(prefill->durations_ms, 50.0) : 0.0;
    v["model.decode_step_ms_p50"] =
        decode != nullptr ? Percentile(decode->durations_ms, 50.0) : 0.0;
    const double step_ms = (prefill != nullptr ? prefill->total_ms : 0.0) +
                           (decode != nullptr ? decode->total_ms : 0.0);
    const double linear_ms = spans.TotalMsWithPrefix("bench.linear.");
    v["model.float_side.ms"] = std::max(0.0, step_ms - linear_ms) / ops;
    v["model.attention.ms"] = spans.TotalMs("attention.paged") / ops;
    v["model.lm_head.ms"] = spans.TotalMs("bench.logits") / ops;

    v["kv.page_allocs"] = delta("kv_pool.alloc") / ops;
    v["kv.pages_peak"] = traced.kv_pages_peak;

    const double busy_ns = static_cast<double>(
        DeltaWithPrefix(traced.before, traced.after, "threadpool.busy_ns."));
    v["threadpool.busy_frac"] = busy_ns / (kThreads * traced.wall_s * 1e9);
    v["threadpool.jobs_per_step"] =
        traced.round.steps > 0
            ? delta("threadpool.jobs") / static_cast<double>(traced.round.steps)
            : 0.0;

    // Step spans: what the workload times as one forward step (or one
    // simulator run); their self time is time no child span explains.
    double step_total = 0.0, step_self = 0.0;
    for (const char* name :
         {"bench.prefill_chunk", "bench.decode_step", "bench.sim_run"}) {
        step_total += spans.TotalMs(name);
        step_self += spans.SelfMs(name);
    }
    v["trace.unattributed_share"] =
        step_total > 0.0 ? step_self / step_total : 0.0;
    v["trace.overhead_frac"] =
        Sum(traced.round.op_ms) / untraced_round_ms - 1.0;
    return v;
}

std::vector<SelfTimeRow>
SelfTimes(const SpanTable& spans, double ops)
{
    std::vector<SelfTimeRow> rows;
    for (const auto& [name, stats] : spans.by_name) {
        rows.push_back({name, static_cast<double>(stats.count) / ops,
                        stats.total_ms / ops, stats.self_ms / ops});
    }
    std::sort(rows.begin(), rows.end(),
              [](const SelfTimeRow& a, const SelfTimeRow& b) {
                  return a.self_ms_per_op > b.self_ms_per_op;
              });
    return rows;
}

SetupTimes
MedianSetup(const std::vector<SetupTimes>& repeats)
{
    const auto median = [&](double SetupTimes::*field) {
        std::vector<double> values;
        for (const SetupTimes& t : repeats) values.push_back(t.*field);
        return Percentile(values, 50.0);
    };
    SetupTimes t;
    t.weights_s = median(&SetupTimes::weights_s);
    t.calibrate_s = median(&SetupTimes::calibrate_s);
    t.profile_s = median(&SetupTimes::profile_s);
    t.executors_s = median(&SetupTimes::executors_s);
    return t;
}

int
RunWorkload(const Cli& cli)
{
    ScopedNumThreads threads(kThreads);
    RunResult result;
    result.workload = cli.workload;
    result.seed = cli.seed;
    result.seconds = cli.seconds;
    result.traced = !cli.trace_path.empty();
    result.smoke = cli.smoke;

    std::unique_ptr<Workload> workload =
        MakeWorkload(cli.workload, cli.seed, cli.smoke);

    // Set-up runs three times before the warm-up, and a workload whose
    // set-up is cheap repeats it after every round. The fastest repeat is
    // what is reported: other tenants slow the host for seconds at a time,
    // and the simulator's 3 ms set-ups, repeated 100 times back to back,
    // had a fastest of 2.7 ms in one process and 5.1 ms in the next.
    const int setups = cli.smoke ? 1 : 3;
    std::vector<SetupTimes> setup_phases;
    for (int i = 0; i < setups; ++i) {
        setup_phases.push_back(TimedSetup(*workload, result.setup_repeats_s));
    }
    const auto warmup_start = Clock::now();
    workload->Warmup();
    const double warmup_s = SecondsSince(warmup_start);

    const auto rounds_start = Clock::now();
    Tally tally;
    const int min_rounds = cli.smoke ? 1 : 3;
    const int max_rounds = cli.smoke ? 1 : 1 << 20;
    Phase phase = RunRounds(*workload,
                            result.traced ? cli.seconds / 2 : cli.seconds,
                            min_rounds, max_rounds, result.setup_repeats_s);
    result.rounds = phase.rounds;
    result.round_ms = RoundTimes(phase);
    // Other tenants of the host slow it for seconds to minutes at a time,
    // by up to 1.8x, so an operation's time is its fastest over the
    // rounds, the cost of the work itself; every round repeats the same
    // operations.
    result.fastest_op_ms = FastestPerOperation(phase.op_ms);

    if (!result.traced) {
        result.metrics = {
            {"setup_s", Percentile(result.setup_repeats_s, 0.0), "s"},
            {"op_ms_p50", Percentile(result.fastest_op_ms, 50.0), "ms"},
            {"throughput", phase.items / Sum(result.fastest_op_ms) * 1e3,
             "1/s"},
            {"peak_rss_mb", PeakRssMb(), "MB"},
        };
    } else {
        const double untraced_round_ms = Percentile(result.round_ms, 50.0);
        const TracedRound traced = RunTracedRound(*workload, phase, tally);
        LayerValues values =
            TraceLayerValues(traced, workload->config(),
                             MedianSetup(setup_phases), untraced_round_ms);
        const int64_t ops = static_cast<int64_t>(traced.round.op_ms.size());
        workload->EndTracedRound(traced.spans, ops, values, tally);
        for (const MetricSpec& spec : PerLayerMetrics()) {
            auto it = values.find(spec.name);
            result.metrics.push_back(
                {spec.name, it != values.end() ? it->second : 0.0,
                 spec.unit});
        }
        result.self_times = SelfTimes(traced.spans, static_cast<double>(ops));
        if (!obs::Tracer::Global().WriteChromeTrace(cli.trace_path)) {
            tally.MechanismFailed("trace: cannot write " + cli.trace_path);
        }
    }

    const double rounds_s = SecondsSince(rounds_start);

    const auto check_start = Clock::now();
    workload->Check(tally);
    workload->AssertMechanisms(tally);
    const double check_s = SecondsSince(check_start);
    tally.attempted = phase.operations;
    result.attempted = tally.attempted;
    result.failed = tally.failed;
    result.errors = tally.errors;
    result.correct = tally.failed == 0 && tally.mechanisms_ok;

    for (const std::string& error : result.errors) {
        std::fprintf(stderr, "%s: %s\n", cli.workload.c_str(), error.c_str());
    }
    std::fprintf(stderr,
                 "%s seed %llu: set-up %.4f s (fastest of %zu), warm-up "
                 "%.2f s, %d timed rounds of %zu operations in %.2f s "
                 "(round %.1f-%.1f ms), checks %.2f s\n",
                 cli.workload.c_str(),
                 static_cast<unsigned long long>(cli.seed),
                 Percentile(result.setup_repeats_s, 0.0),
                 result.setup_repeats_s.size(), warmup_s, result.rounds,
                 result.fastest_op_ms.size(), rounds_s,
                 Percentile(result.round_ms, 0.0),
                 Percentile(result.round_ms, 100.0), check_s);
    for (const SelfTimeRow& row : result.self_times) {
        std::printf("SELF %s %s %.4f ms/op (total %.4f ms/op, %.2f calls/op)"
                    "\n",
                    cli.workload.c_str(), row.span.c_str(),
                    row.self_ms_per_op, row.total_ms_per_op,
                    row.calls_per_op);
    }
    std::fputs(MetricRows(result).c_str(), stdout);
    if (!cli.out_path.empty()) {
        std::ofstream out(cli.out_path);
        out << ResultJson(result);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", cli.out_path.c_str());
            return 2;
        }
    }
    std::printf("%s\n", ResultLine(result).c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace llmnpu

int
main(int argc, char** argv)
{
    using namespace llmnpu::bench;
    if (argc >= 2 && std::strcmp(argv[1], "compare") == 0) {
        if (argc != 4) return Usage();
        return CompareRuns(argv[2], argv[3], LLMNPU_BENCHMARK_SPEC);
    }
    Cli cli;
    if (!ParseCli(argc, argv, &cli)) return Usage();
    return RunWorkload(cli);
}
