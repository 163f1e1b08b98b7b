/**
 * @file
 * Verifies §3.4's claim that the online C-value scheduling decision costs
 * microseconds: times full out-of-order schedules of a realistic prefill
 * DAG on a steady clock and divides by the number of decisions (one per
 * task). Prints one "METRIC {json}" row of us_per_decision per picker and
 * chunk count, which bench_check holds under an absolute ceiling.
 *
 * LLMNPU_BENCH_QUICK=1 (set by `run_all --quick`) shortens each timing.
 */
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/llmnpu_engine.h"
#include "src/core/scheduler.h"

namespace llmnpu {
namespace {

std::vector<SimTask>
MakeDag(int num_chunks)
{
    const SocSpec soc = SocSpec::RedmiK70Pro();
    const ModelConfig qwen = Qwen15_1_8B();
    LlmNpuEngine probe;
    std::vector<std::vector<StageTiming>> timings;
    for (int c = 0; c < num_chunks; ++c) {
        timings.push_back(probe.ChunkStageTimings(
            qwen, soc, 256, static_cast<int64_t>(c + 1) * 256, 0.0));
    }
    return BuildPrefillDag(timings, qwen.num_layers, false);
}

/** Mean wall-clock microseconds per scheduling decision over repeated
 *  whole-DAG schedules. */
double
MicrosPerDecision(const std::vector<SimTask>& dag, const TaskPicker& picker)
{
    const auto schedule = [&] { Sink(RunTimeline(dag, picker)); };
    schedule();  // warm-up
    return SecondsPerCall(QuickMode() ? 0.02 : 0.5, schedule) * 1e6 /
           static_cast<double>(dag.size());
}

void
Run()
{
    BenchHeader("§3.4: online scheduling overhead",
                "microsecond-level scheduling decisions");
    const struct {
        const char* name;
        TaskPicker picker;
        int chunks;
    } cases[] = {{"ooo", OooPicker(), 2},
                 {"ooo", OooPicker(), 4},
                 {"ooo", OooPicker(), 8},
                 {"eq5", PaperEq5Picker(), 4}};
    for (const auto& c : cases) {
        const std::vector<SimTask> dag = MakeDag(c.chunks);
        std::printf("METRIC {\"bench\": \"scheduler_overhead\", "
                    "\"picker\": \"%s\", \"chunks\": %d, "
                    "\"decisions\": %zu, \"us_per_decision\": %.4f}\n",
                    c.name, c.chunks, dag.size(),
                    MicrosPerDecision(dag, c.picker));
    }
}

}  // namespace
}  // namespace llmnpu

int
main()
{
    llmnpu::Run();
    return 0;
}
