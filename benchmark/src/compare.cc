#include "benchmark/src/compare.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "benchmark/src/stats.h"
#include "src/obs/trace_reader.h"

namespace llmnpu {
namespace bench {

namespace {

bool
ReadJsonFile(const std::string& path, obs::JsonValue* out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "compare: cannot open %s\n", path.c_str());
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    if (!obs::ParseJson(text.str(), out, &error)) {
        std::fprintf(stderr, "compare: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

/** One side's untraced runs, grouped by workload in file order. */
using RunsByWorkload = std::map<std::string, std::vector<obs::JsonValue>>;

bool
LoadRuns(const std::string& path, RunsByWorkload* runs)
{
    obs::JsonValue doc;
    if (!ReadJsonFile(path, &doc)) return false;
    std::vector<obs::JsonValue> items;
    if (doc.type == obs::JsonValue::Type::kArray) {
        items = doc.array;
    } else {
        items.push_back(doc);
    }
    for (const obs::JsonValue& run : items) {
        if (run.type != obs::JsonValue::Type::kObject ||
            !run.Has("workload") || !run.Has("metrics")) {
            std::fprintf(stderr, "compare: %s: not a benchmark result\n",
                         path.c_str());
            return false;
        }
        if (run.Has("trace") && run.At("trace").boolean) continue;
        (*runs)[run.At("workload").str].push_back(run);
    }
    return true;
}

std::vector<double>
Values(const std::vector<obs::JsonValue>& runs, const std::string& metric)
{
    std::vector<double> values;
    for (const obs::JsonValue& run : runs) {
        const obs::JsonValue& metrics = run.At("metrics");
        if (metrics.Has(metric)) {
            values.push_back(metrics.At(metric).At("value").number);
        }
    }
    return values;
}

void
SumFailures(const std::vector<obs::JsonValue>& runs, int64_t* failed,
            int64_t* attempted)
{
    *failed = 0;
    *attempted = 0;
    for (const obs::JsonValue& run : runs) {
        *failed += static_cast<int64_t>(run.At("failed").number);
        *attempted += static_cast<int64_t>(run.At("attempted").number);
    }
}

}  // namespace

int
CompareRuns(const std::string& parent_path, const std::string& change_path,
            const std::string& spec_path)
{
    obs::JsonValue spec;
    RunsByWorkload parent, change;
    if (!ReadJsonFile(spec_path, &spec) || !spec.Has("end_to_end") ||
        !LoadRuns(parent_path, &parent) || !LoadRuns(change_path, &change)) {
        return 2;
    }

    std::printf("%-14s %-12s %-38s %-38s %8s %5s  %s\n", "workload",
                "metric", "parent median [q1, q3]", "change median [q1, q3]",
                "worse", "wins", "verdict");
    bool regressed = false;
    for (const auto& [workload, parent_runs] : parent) {
        auto it = change.find(workload);
        if (it == change.end()) continue;
        const std::vector<obs::JsonValue>& change_runs = it->second;
        for (const obs::JsonValue& metric : spec.At("end_to_end").array) {
            const std::string& name = metric.At("name").str;
            const Comparison c =
                Compare(Values(parent_runs, name), Values(change_runs, name),
                        ParseBetter(metric.At("better").str),
                        metric.At("bound").number);
            regressed = regressed || c.verdict == Verdict::kRegressed;
            const std::string unit = metric.At("unit").str;
            char parent_text[64], change_text[64];
            std::snprintf(parent_text, sizeof(parent_text),
                          "%.4g [%.4g, %.4g] %s", c.parent.median,
                          c.parent.q1, c.parent.q3, unit.c_str());
            std::snprintf(change_text, sizeof(change_text),
                          "%.4g [%.4g, %.4g] %s", c.change.median,
                          c.change.q1, c.change.q3, unit.c_str());
            std::printf("%-14s %-12s %-38s %-38s %+7.1f%% %2d/%-2d  %s\n",
                        workload.c_str(), name.c_str(), parent_text,
                        change_text, 100.0 * c.worse_frac, c.wins, c.pairs,
                        VerdictName(c.verdict));
        }
        int64_t parent_failed, parent_attempted, change_failed,
            change_attempted;
        SumFailures(parent_runs, &parent_failed, &parent_attempted);
        SumFailures(change_runs, &change_failed, &change_attempted);
        const Verdict failures =
            CompareFailures(parent_failed, parent_attempted, change_failed,
                            change_attempted);
        regressed = regressed || failures == Verdict::kRegressed;
        std::printf("%-14s %-12s %-38s %-38s %8s %5s  %s\n",
                    workload.c_str(), "failed_frac",
                    (std::to_string(parent_failed) + "/" +
                     std::to_string(parent_attempted))
                        .c_str(),
                    (std::to_string(change_failed) + "/" +
                     std::to_string(change_attempted))
                        .c_str(),
                    "", "", VerdictName(failures));
    }
    return regressed ? 1 : 0;
}

}  // namespace bench
}  // namespace llmnpu
