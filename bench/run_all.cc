/**
 * @file
 * Bench driver: runs every figure/table reproduction binary and writes a
 * machine-readable summary so each commit leaves a perf-trajectory sample.
 *
 * Usage: run_all [--bench-dir DIR] [--out FILE] [--filter PREFIX] [--quiet]
 *                [--quick] [--trace FILE] [--seed N]
 *   --bench-dir  directory scanned for bench_* binaries
 *                (default: the directory run_all itself lives in)
 *   --out        output JSON path (default: BENCH_results.json in the CWD)
 *   --filter     only run benches whose name starts with PREFIX
 *   --quiet      don't echo bench output (stdout is still piped through
 *                run_all to collect METRIC lines; stderr is discarded)
 *   --quick      exports LLMNPU_BENCH_QUICK=1 to the benches: smaller
 *                sweeps and iteration caps for CI smoke runs (the full
 *                sweep keeps the real sizes). The JSON records
 *                "quick": true so trajectory tooling never compares quick
 *                numbers against full runs.
 *   --trace      exports LLMNPU_TRACE_FILE=FILE: benches that know how to
 *                trace themselves (bench_serving) run one extra traced
 *                scenario and write Chrome trace-event JSON there
 *                (Perfetto-loadable; see examples/trace_dump).
 *   --seed       exports LLMNPU_SEED=N: seeded benches (bench_serving's
 *                arrival generation and fault injection) derive every
 *                stochastic choice from it, so a degraded-mode run is
 *                reproducible from the command line. Omitted = each
 *                bench's committed-baseline default.
 *
 * The JSON schema ("llmnpu-bench-v2") is one record per bench with its exit
 * status and wall time; downstream tooling diffs these files across commits
 * to track the simulator's own speed and catch benches that start failing.
 *
 * v2: benches may print lines of the form "METRIC {json-object}"; run_all
 * collects them verbatim into the bench's "metrics" array, so curve data
 * (e.g. bench_serving's throughput-vs-load rows) lands in the JSON without
 * any per-bench parsing here.
 */
#include <dirent.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

struct BenchOutcome {
    std::string name;
    int exit_code = -1;
    double wall_ms = 0.0;
    /** JSON objects from the bench's "METRIC {...}" stdout lines. */
    std::vector<std::string> metrics;
};

std::string
DirName(const std::string& path)
{
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

/** Single-quotes a path for the shell. */
std::string
ShellQuote(const std::string& path)
{
    std::string quoted = "'";
    for (char c : path) {
        if (c == '\'') {
            quoted += "'\\''";
        } else {
            quoted += c;
        }
    }
    quoted += "'";
    return quoted;
}

/** All bench_* binaries in `dir`, sorted by name — the build is the single
 *  source of truth for what counts as a bench (no list to keep in sync). */
std::vector<std::string>
DiscoverBenches(const std::string& dir)
{
    std::vector<std::string> names;
    DIR* handle = opendir(dir.c_str());
    if (handle == nullptr) return names;
    while (const dirent* entry = readdir(handle)) {
        if (std::strncmp(entry->d_name, "bench_", 6) == 0) {
            names.emplace_back(entry->d_name);
        }
    }
    closedir(handle);
    std::sort(names.begin(), names.end());
    return names;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string bench_dir = DirName(argv[0]);
    std::string out_path = "BENCH_results.json";
    std::string filter;
    bool quiet = false;
    bool quick = false;
    std::string trace_file;
    std::string seed;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--bench-dir") == 0 && i + 1 < argc) {
            bench_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
            filter = argv[++i];
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_file = argv[++i];
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: run_all [--bench-dir DIR] [--out FILE] "
                         "[--filter PREFIX] [--quiet] [--quick] "
                         "[--trace FILE] [--seed N]\n");
            return 2;
        }
    }
    if (quick) {
        // Benches that know a smaller configuration pick it up from the
        // environment (popen children inherit it).
        setenv("LLMNPU_BENCH_QUICK", "1", 1);
    }
    if (!trace_file.empty()) {
        setenv("LLMNPU_TRACE_FILE", trace_file.c_str(), 1);
    }
    if (!seed.empty()) {
        setenv("LLMNPU_SEED", seed.c_str(), 1);
    }

    std::vector<std::string> benches = DiscoverBenches(bench_dir);
    if (!filter.empty()) {
        benches.erase(
            std::remove_if(benches.begin(), benches.end(),
                           [&](const std::string& name) {
                               return name.compare(0, filter.size(),
                                                   filter) != 0;
                           }),
            benches.end());
    }
    if (benches.empty()) {
        std::fprintf(stderr, "run_all: no bench_* binaries in %s%s\n",
                     bench_dir.c_str(),
                     filter.empty() ? ""
                                    : (" matching " + filter).c_str());
        return 2;
    }

    std::vector<BenchOutcome> outcomes;
    int failures = 0;
    double total_ms = 0.0;
    for (const std::string& name : benches) {
        BenchOutcome outcome;
        outcome.name = name;
        // Read the bench's stdout through a pipe so METRIC lines can be
        // captured whether or not the run is quiet.
        const std::string cmd = ShellQuote(bench_dir + "/" + name) +
                                (quiet ? " 2> /dev/null" : "");
        if (!quiet) std::printf("\n### %s\n", name.c_str());
        std::fflush(stdout);
        const auto start = std::chrono::steady_clock::now();
        std::FILE* pipe = popen(cmd.c_str(), "r");
        int status = -1;
        if (pipe != nullptr) {
            // fgets returns fixed-size chunks; reassemble full lines so a
            // METRIC row longer than the buffer is never split (a torn
            // fragment would corrupt the JSON emitted below).
            char chunk[4096];
            std::string line;
            auto flush_line = [&]() {
                if (line.compare(0, 7, "METRIC ") == 0) {
                    std::string metric = line.substr(7);
                    while (!metric.empty() &&
                           (metric.back() == '\n' || metric.back() == '\r')) {
                        metric.pop_back();
                    }
                    outcome.metrics.push_back(metric);
                } else if (!quiet) {
                    std::fputs(line.c_str(), stdout);
                }
                line.clear();
            };
            while (std::fgets(chunk, sizeof(chunk), pipe) != nullptr) {
                line += chunk;
                if (!line.empty() && line.back() == '\n') flush_line();
            }
            if (!line.empty()) {
                line += '\n';  // bench ended without a trailing newline
                flush_line();
            }
            status = pclose(pipe);
        }
        const auto end = std::chrono::steady_clock::now();
        outcome.wall_ms =
            std::chrono::duration<double, std::milli>(end - start).count();
        outcome.exit_code =
            status < 0 ? status : (WIFEXITED(status) ? WEXITSTATUS(status)
                                                     : 128);
        total_ms += outcome.wall_ms;
        failures += outcome.exit_code == 0 ? 0 : 1;
        outcomes.push_back(outcome);
    }

    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "run_all: cannot write %s\n", out_path.c_str());
        return 2;
    }
    std::fprintf(out, "{\n  \"schema\": \"llmnpu-bench-v2\",\n");
    std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(out, "  \"bench_count\": %zu,\n", outcomes.size());
    std::fprintf(out, "  \"failures\": %d,\n", failures);
    std::fprintf(out, "  \"total_wall_ms\": %.1f,\n", total_ms);
    std::fprintf(out, "  \"benches\": [\n");
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const BenchOutcome& outcome = outcomes[i];
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"status\": \"%s\", "
                     "\"exit_code\": %d, \"wall_ms\": %.1f",
                     outcome.name.c_str(),
                     outcome.exit_code == 0 ? "ok" : "failed",
                     outcome.exit_code, outcome.wall_ms);
        if (!outcome.metrics.empty()) {
            std::fprintf(out, ",\n     \"metrics\": [\n");
            for (size_t m = 0; m < outcome.metrics.size(); ++m) {
                std::fprintf(out, "       %s%s\n",
                             outcome.metrics[m].c_str(),
                             m + 1 < outcome.metrics.size() ? "," : "");
            }
            std::fprintf(out, "     ]");
        }
        std::fprintf(out, "}%s\n", i + 1 < outcomes.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);

    std::printf("\nrun_all: %zu benches, %d failed, %.1f s total -> %s\n",
                outcomes.size(), failures, total_ms / 1000.0,
                out_path.c_str());
    return failures == 0 ? 0 : 1;
}
