/**
 * @file
 * Trace walkthrough: turn an exported Chrome trace-event JSON (from
 * `run_all --trace`, `bench_serving --trace`, or any
 * Tracer::WriteChromeTrace call) into a readable per-request span tree
 * and a per-plane time breakdown — the terminal view of what Perfetto
 * shows graphically.
 *
 * With no argument the example generates its own demo trace first: a
 * small serving-simulator run (virtual-time plane) whose schedule is then
 * replayed on a tiny real transformer (wall-clock plane), so both planes
 * are populated and connected by request ids.
 *
 * Build: cmake -B build && cmake --build build
 * Run:   ./build/examples/trace_dump [trace.json]
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/llmnpu_engine.h"
#include "src/obs/trace.h"
#include "src/obs/trace_reader.h"
#include "src/serving/replay.h"
#include "src/workloads/corpus.h"

namespace {

using namespace llmnpu;

/** Runs sim + tiny-model replay under the tracer and returns the JSON. */
std::string
GenerateDemoTrace()
{
    obs::Tracer::Global().Enable();
    obs::Tracer::Global().Reset();

    LlmNpuEngine engine;
    ServingCostModel costs(engine, Qwen15_1_8B(), SocSpec::RedmiK70Pro());
    ServingOptions options;
    options.num_requests = 4;
    options.rate_rps = 100.0;
    options.seed = 7;
    const ServingResult served =
        ServingSimulator(costs, PaperDatasets(), options).Run();

    const ModelConfig tiny = TinyTestConfig();
    const ModelWeights weights = GenerateSyntheticWeights(tiny);
    const Transformer transformer(weights);
    Fp32LinearExecutor fp32(weights);
    ReplayOptions replay_options;
    replay_options.max_output_tokens = 8;
    replay_options.max_prompt_tokens = 16;
    replay_options.check_bitwise = false;
    ReplayServingTrace(served.replay_steps, served.records, transformer,
                       fp32, replay_options);

    const std::string json = obs::Tracer::Global().ChromeTraceJson();
    obs::Tracer::Global().Disable();
    return json;
}

std::string
ReadFileOrDie(const char* path)
{
    FILE* f = std::fopen(path, "rb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path);
        std::exit(1);
    }
    std::string text;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        text.append(buf, n);
    }
    std::fclose(f);
    return text;
}

int
ReqOf(const obs::ReadEvent& event)
{
    auto it = event.args.find("req");
    if (it == event.args.end()) return -1;
    return static_cast<int>(it->second.number);
}

/** Per-plane breakdown: wall plane by category, sim plane by lane. */
void
PrintPlaneBreakdown(const obs::ReadTrace& trace)
{
    std::map<std::string, double> wall_cat_us;
    std::map<std::string, int> wall_cat_count;
    std::map<int, double> sim_lane_us;
    std::map<int, int> sim_lane_count;
    for (const obs::ReadEvent& e : trace.events) {
        if (e.ph != "X") continue;
        if (e.pid == 1) {
            wall_cat_us[e.cat] += e.dur_us;
            ++wall_cat_count[e.cat];
        } else if (e.pid == 2) {
            sim_lane_us[e.tid] += e.dur_us;
            ++sim_lane_count[e.tid];
        }
    }

    std::printf("== per-plane time breakdown ==\n");
    auto plane_name = [&](int pid) {
        auto it = trace.process_names.find(pid);
        return it == trace.process_names.end() ? std::string("?")
                                               : it->second;
    };
    std::printf("[pid 1] %s\n", plane_name(1).c_str());
    for (const auto& [cat, us] : wall_cat_us) {
        std::printf("  %-12s %8.3f ms  (%d spans)\n", cat.c_str(),
                    us / 1e3, wall_cat_count[cat]);
    }
    if (wall_cat_us.empty()) std::printf("  (no wall-clock spans)\n");
    std::printf("[pid 2] %s\n", plane_name(2).c_str());
    for (const auto& [lane, us] : sim_lane_us) {
        auto it = trace.thread_names.find({2, lane});
        std::printf("  %-22s %8.3f virtual ms  (%d tasks)\n",
                    it == trace.thread_names.end() ? "?"
                                                   : it->second.c_str(),
                    us / 1e3, sim_lane_count[lane]);
    }
    if (sim_lane_us.empty()) std::printf("  (no simulator tasks)\n");
    std::printf("\n");
}

/** Chronological, containment-indented span tree for one request. */
void
PrintRequestTree(const obs::ReadTrace& trace, int req)
{
    // Sim-plane rows first (virtual time), then wall-plane rows.
    struct Row {
        double t0 = 0.0;
        double t1 = 0.0;
        const obs::ReadEvent* event = nullptr;
    };
    std::vector<Row> sim, wall;
    for (const obs::ReadEvent& e : trace.events) {
        if (ReqOf(e) != req || (e.ph != "X" && e.ph != "i")) continue;
        Row row{e.ts_us, e.ts_us + e.dur_us, &e};
        (e.pid == 2 ? sim : wall).push_back(row);
    }
    auto by_time = [](const Row& a, const Row& b) {
        if (a.t0 != b.t0) return a.t0 < b.t0;
        return a.t1 > b.t1;  // longer span first = parent before child
    };
    std::sort(sim.begin(), sim.end(), by_time);
    std::sort(wall.begin(), wall.end(), by_time);

    std::printf("request %d\n", req);
    std::printf(" serving plane (virtual ms):\n");
    for (const Row& row : sim) {
        if (row.event->ph == "X") {
            std::printf("  %9.3f  %-24s %.3f ms\n", row.t0 / 1e3,
                        row.event->name.c_str(),
                        (row.t1 - row.t0) / 1e3);
        } else {
            std::printf("  %9.3f  %s\n", row.t0 / 1e3,
                        row.event->name.c_str());
        }
    }
    if (sim.empty()) std::printf("  (none)\n");

    std::printf(" numeric plane (wall-clock ms):\n");
    std::vector<double> open_ends;  // enclosing span end times = indent
    for (const Row& row : wall) {
        while (!open_ends.empty() && row.t0 >= open_ends.back()) {
            open_ends.pop_back();
        }
        std::printf("  %9.3f  %*s%-24s", row.t0 / 1e3,
                    static_cast<int>(2 * open_ends.size()), "",
                    row.event->name.c_str());
        if (row.event->ph == "X") {
            std::printf(" %.3f ms", (row.t1 - row.t0) / 1e3);
            open_ends.push_back(row.t1);
        }
        auto seq = row.event->args.find("seq");
        if (seq != row.event->args.end()) {
            std::printf("  [seq %d]",
                        static_cast<int>(seq->second.number));
        }
        std::printf("\n");
    }
    if (wall.empty()) std::printf("  (none)\n");
    std::printf("\n");
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string json;
    if (argc > 1) {
        json = ReadFileOrDie(argv[1]);
    } else {
        std::printf("no trace given; generating a demo trace "
                    "(sim + tiny-model replay)...\n\n");
        json = GenerateDemoTrace();
    }

    obs::ReadTrace trace;
    std::string error;
    if (!obs::ReadChromeTrace(json, &trace, &error)) {
        std::fprintf(stderr, "not a valid Chrome trace: %s\n",
                     error.c_str());
        return 1;
    }

    std::printf("== trace ==\n%zu events", trace.events.size());
    if (trace.other_data.Has("recorded")) {
        std::printf("  (tracer recorded %.0f, dropped %.0f)",
                    trace.other_data.At("recorded").number,
                    trace.other_data.At("dropped").number);
    }
    std::printf("\n\n");

    PrintPlaneBreakdown(trace);

    std::set<int> requests;
    for (const obs::ReadEvent& e : trace.events) {
        const int req = ReqOf(e);
        if (req >= 0) requests.insert(req);
    }
    std::printf("== per-request span trees (%zu requests) ==\n",
                requests.size());
    for (int req : requests) PrintRequestTree(trace, req);
    if (requests.empty()) {
        std::printf("(no events carry request ids)\n");
    }
    return 0;
}
