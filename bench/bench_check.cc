#include "bench/bench_check.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "src/util/format.h"

namespace llmnpu {
namespace bench {

namespace {

using obs::JsonValue;
using Type = JsonValue::Type;

// Kernel GFLOP/s moves a lot between hosts: the band catches dropped SIMD
// flags and naive fallbacks, not noise.
constexpr double kKernelBand = 5.0;
// Decode placement, KV occupancy, shared-prefix capacity and zero-fault
// goodput are deterministic simulator outputs: any cost-model drift fails
// (update the committed baseline when a change means to move them).
constexpr double kSimulatorBand = 1.02;
// An unobserved trace site costs one relaxed atomic load.
constexpr double kObsOverheadMax = 1.5;
// Median relative error of the fitted latency classes trained from the
// committed baseline.
constexpr double kPredictErrorMax = 0.25;
// §3.4: an online scheduling decision costs microseconds.
constexpr double kSchedulerUsPerDecisionMax = 10.0;
// Dynamic placement must keep this share of the best static goodput.
constexpr double kDynamicShareOfBestStatic = 0.95;

enum class Band { kRelative, kAbsolute, kInvariant, kGroup };

/** One selected metric row: where it is, its key and its value field. */
struct Row {
    const JsonValue* json;
    std::string id;   ///< "bench_serving row 12 (kv_pool_pages=64)"
    std::string key;  ///< "kv_pool_pages=64"
    double value = 0.0;
};

/** Failure sink; `where` names the file, the table entry and the row. */
struct Ctx {
    std::string where;
    std::vector<std::string>* failures;

    Ctx
    Sub(const std::string& what) const
    {
        return {where + ": " + what, failures};
    }

    void
    Fail(const std::string& what) const
    {
        failures->push_back(where + ": " + what);
    }
};

using Filter = bool (*)(const Ctx&, const JsonValue&);
/** A rule over an entry's fresh rows; @return rows or groups checked. */
using Rule = int (*)(const Ctx&, const std::vector<Row>&);

struct Entry {
    const char* label;
    const char* bench;
    const char* mode;  ///< nullptr: every row of the bench
    Filter filter;     ///< nullptr: every row of the mode
    std::vector<const char*> keys;
    const char* value;  ///< numeric field; nullptr when the rule reads rows
    Band band;
    double limit;    ///< kRelative: factor either way; kAbsolute: ceiling
    Rule rule;       ///< kInvariant and kGroup
    bool every_key;  ///< kRelative: every baseline key must be fresh too
};

std::string
Text(const JsonValue& row, const char* field)
{
    return row.Has(field) ? row.At(field).str : "";
}

bool
Field(const Ctx& ctx, const JsonValue& row, const char* field, Type type,
      const JsonValue** out)
{
    if (!row.Has(field)) {
        ctx.Fail(StrFormat("lacks field '%s'", field));
        return false;
    }
    *out = &row.At(field);
    if ((*out)->type == type) return true;
    static const char* const kTypeNames[] = {"null",   "bool",  "number",
                                             "string", "array", "object"};
    ctx.Fail(StrFormat("field '%s' is not a %s", field,
                       kTypeNames[static_cast<int>(type)]));
    return false;
}

bool
Number(const Ctx& ctx, const JsonValue& row, const char* field, double* out)
{
    const JsonValue* v = nullptr;
    if (!Field(ctx, row, field, Type::kNumber, &v)) return false;
    *out = v->number;
    return true;
}

/** Shortest "%.Ng" text that reads back as `v` (keys compare exactly). */
std::string
NumberText(double v)
{
    std::string s = StrFormat("%.15g", v);
    if (std::strtod(s.c_str(), nullptr) != v) s = StrFormat("%.17g", v);
    return s;
}

/** Appends "field=value" to `key`; a missing or structured field fails. */
bool
AppendKey(const Ctx& ctx, const JsonValue& row, const char* field,
          std::string* key)
{
    const JsonValue* v = row.Has(field) ? &row.At(field) : nullptr;
    std::string text;
    if (v != nullptr && v->type == Type::kString) {
        text = v->str;
    } else if (v != nullptr && v->type == Type::kNumber) {
        text = NumberText(v->number);
    } else if (v != nullptr && v->type == Type::kBool) {
        text = v->boolean ? "true" : "false";
    } else {
        ctx.Fail(StrFormat("lacks key field '%s'", field));
        return false;
    }
    *key += (key->empty() ? "" : " ") + std::string(field) + "=" + text;
    return true;
}

/** The entry's rows of one results file; a malformed row is a failure and
 *  is left out, so it can never match a baseline key. */
std::vector<Row>
SelectRows(const Ctx& ctx, const JsonValue& doc, const Entry& e)
{
    std::vector<Row> rows;
    const JsonValue none;
    for (const JsonValue& bench :
         (doc.Has("benches") ? doc.At("benches") : none).array) {
        if (Text(bench, "name") != e.bench || !bench.Has("metrics")) continue;
        const std::vector<JsonValue>& metrics = bench.At("metrics").array;
        for (size_t i = 0; i < metrics.size(); ++i) {
            const JsonValue& json = metrics[i];
            if (e.mode != nullptr && Text(json, "mode") != e.mode) continue;
            Row row{&json, StrFormat("%s row %zu", e.bench, i), "", 0.0};
            const Ctx at = ctx.Sub(row.id);
            if (e.filter != nullptr && !e.filter(at, json)) continue;
            bool ok = true;
            for (const char* field : e.keys) {
                ok = AppendKey(at, json, field, &row.key) && ok;
            }
            if (e.value != nullptr) {
                ok = Number(at, json, e.value, &row.value) && ok;
            }
            if (ok && e.band == Band::kRelative && !(row.value > 0)) {
                at.Fail(StrFormat("non-positive %s=%g", e.value, row.value));
                ok = false;
            }
            if (!row.key.empty()) row.id += " (" + row.key + ")";
            if (ok) rows.push_back(row);
        }
    }
    if (rows.empty()) {
        ctx.Fail(StrFormat("no %s%s%s rows", e.bench,
                           e.mode != nullptr ? " mode=" : "",
                           e.mode != nullptr ? e.mode : ""));
    }
    return rows;
}

int
RelativeBand(const Ctx& ctx, const Entry& e, const std::vector<Row>& fresh,
             const std::vector<Row>& base)
{
    if (fresh.empty()) return 0;  // SelectRows reported the missing family
    std::map<std::string, double> baseline;
    for (const Row& row : base) baseline.emplace(row.key, row.value);
    std::set<std::string> seen;
    int matched = 0;
    for (const Row& row : fresh) {
        seen.insert(row.key);
        const auto it = baseline.find(row.key);
        if (it == baseline.end()) continue;
        ++matched;
        const char* side = row.value * e.limit < it->second   ? "below"
                           : row.value > it->second * e.limit ? "above"
                                                              : nullptr;
        if (side != nullptr) {
            ctx.Sub(row.id).Fail(
                StrFormat("%s=%g is more than %gx %s the baseline %g",
                          e.value, row.value, e.limit, side, it->second));
        }
    }
    if (matched == 0) {
        ctx.Fail("no key matches the baseline: the metric key schema "
                 "drifted; update the committed baseline");
    }
    for (const auto& kv : baseline) {
        if (e.every_key && seen.count(kv.first) == 0) {
            ctx.Fail("baseline row (" + kv.first + ") is missing");
        }
    }
    return matched;
}

// --------------------------------------------------------- row filters

bool
ZeroFaultRate(const Ctx& ctx, const JsonValue& row)
{
    double rate = 0.0;
    return Number(ctx, row, "fault_rate", &rate) && rate == 0.0;
}

bool
GatedObsMode(const Ctx&, const JsonValue& row)
{
    const std::string mode = Text(row, "mode");
    return mode == "disabled" || mode == "enabled_idle";
}

/** Placement-sweep rows; the admission rows report placement_flips -1. */
bool
PlacementSweepRow(const Ctx& ctx, const JsonValue& row)
{
    double flips = 0.0;
    return Number(ctx, row, "placement_flips", &flips) && flips >= 0;
}

/** Classes fitted from bench JSON; trace-sourced wall-clock classes are
 *  informational. */
bool
Banded(const Ctx& ctx, const JsonValue& row)
{
    const JsonValue* banded = nullptr;
    return Field(ctx, row, "banded", Type::kBool, &banded) && banded->boolean;
}

// --------------------------------------------------- per-row invariants

template <void (*Check)(const Ctx&, const Row&)>
int
EachRow(const Ctx& ctx, const std::vector<Row>& rows)
{
    for (const Row& row : rows) Check(ctx.Sub(row.id), row);
    return static_cast<int>(rows.size());
}

void
PositiveValue(const Ctx& ctx, const Row& row)
{
    if (!(row.value > 0)) ctx.Fail(StrFormat("non-positive %g", row.value));
}

void
PeakWithinPool(const Ctx& ctx, const Row& row)
{
    double peak = 0.0, pool = 0.0;
    if (Number(ctx, *row.json, "kv_pages_peak", &peak) &&
        Number(ctx, *row.json, "kv_pool_pages", &pool) && peak > pool) {
        ctx.Fail(StrFormat("kv_pages_peak=%g exceeds kv_pool_pages=%g",
                           peak, pool));
    }
}

void
ShrinkInsideLiveBudget(const Ctx& ctx, const Row& row)
{
    double pool = 0.0, live = 0.0, peak = 0.0, post = 0.0;
    const JsonValue& r = *row.json;
    if (!Number(ctx, r, "kv_pool_pages", &pool) ||
        !Number(ctx, r, "kv_pool_pages_live", &live) ||
        !Number(ctx, r, "kv_pages_peak", &peak) ||
        !Number(ctx, r, "kv_pages_peak_post_shrink", &post)) {
        return;
    }
    if (!(live > 0 && live < pool)) {
        ctx.Fail(StrFormat("live budget %g is not a shrink of pool %g", live,
                           pool));
    }
    if (post > live) {
        ctx.Fail(StrFormat("post-shrink peak %g exceeds the live budget %g",
                           post, live));
    }
    if (peak > pool) {
        ctx.Fail(StrFormat("peak %g exceeds the pool %g", peak, pool));
    }
}

void
NoFaultDrawn(const Ctx& ctx, const Row& row)
{
    double faults = 0.0;
    if (Number(ctx, *row.json, "faults", &faults) && faults != 0) {
        ctx.Fail(StrFormat("zero-rate injection drew faults=%g", faults));
    }
}

void
BitwiseRoundTrip(const Ctx& ctx, const Row& row)
{
    const JsonValue* bitwise = nullptr;
    if (Field(ctx, *row.json, "bitwise", Type::kBool, &bitwise) &&
        !bitwise->boolean) {
        ctx.Fail("model serialization is not a bitwise round trip");
    }
}

// ---------------------------------------------------------- group rules

/** Per pool, capacity never drops as the share fraction rises (rows come
 *  in ascending-fraction order), and the last fraction beats the first. */
int
MonotoneCapacityWin(const Ctx& ctx, const std::vector<Row>& rows)
{
    std::map<std::string, std::pair<double, double>> first_last;
    for (const Row& row : rows) {
        const auto it = first_last.emplace(
            row.key, std::make_pair(row.value, row.value)).first;
        if (row.value < it->second.second) {
            ctx.Sub(row.id).Fail(StrFormat("dropped to %g from %g", row.value,
                                           it->second.second));
        }
        it->second.second = row.value;
    }
    for (const auto& kv : first_last) {
        if (!(kv.second.second > kv.second.first)) {
            ctx.Fail(StrFormat("%s: no win at the last share fraction "
                               "(%g vs %g with sharing off)",
                               kv.first.c_str(), kv.second.second,
                               kv.second.first));
        }
    }
    return static_cast<int>(first_last.size());
}

/** At each offered load the predicted placement keeps
 *  kDynamicShareOfBestStatic of the best static placement's goodput. */
int
DynamicNearBestStatic(const Ctx& ctx, const std::vector<Row>& rows)
{
    std::map<std::string, std::pair<double, double>> loads;  // dyn, static
    for (const Row& row : rows) {
        const JsonValue* policy = nullptr;
        if (!Field(ctx.Sub(row.id), *row.json, "placement_policy",
                   Type::kString, &policy)) {
            continue;
        }
        auto& load = loads.emplace(row.key, std::make_pair(-1.0, 0.0))
                         .first->second;
        if (policy->str == "predicted") {
            load.first = row.value;
        } else {
            load.second = std::max(load.second, row.value);
        }
    }
    for (const auto& kv : loads) {
        const double dynamic = kv.second.first, best = kv.second.second;
        if (dynamic < 0 || !(best > 0)) {
            ctx.Fail(kv.first + ": lacks the predicted row or every static "
                                "row");
        } else if (dynamic < kDynamicShareOfBestStatic * best) {
            ctx.Fail(StrFormat("%s: dynamic goodput %g is below %gx the "
                               "best static %g",
                               kv.first.c_str(), dynamic,
                               kDynamicShareOfBestStatic, best));
        }
    }
    return static_cast<int>(loads.size());
}

/** The calibrated decode-step crossover keeps the paper's shape: the CPU
 *  is cheaper per token at batch 1 and the NPU at batch 32 (ties go to
 *  the CPU, as in PredictedPlacement). */
int
CrossoverShape(const Ctx& ctx, const std::vector<Row>& rows)
{
    std::string at_1, at_32;
    for (const Row& row : rows) {
        const Ctx at = ctx.Sub(row.id);
        double cpu = 0.0, npu = 0.0;
        if (!Number(at, *row.json, "cpu_tpot_ms", &cpu) ||
            !Number(at, *row.json, "npu_tpot_ms", &npu)) {
            continue;
        }
        const char* winner = npu < cpu ? "npu" : "cpu";
        if (row.value == 1) at_1 = winner;
        if (row.value == 32) at_32 = winner;
    }
    if (at_1 != "cpu" || at_32 != "npu") {
        ctx.Fail("batch-1 winner '" + at_1 + "' (want cpu), batch-32 winner '" +
                 at_32 + "' (want npu)");
    }
    return static_cast<int>(rows.size());
}

// ---------------------------------------------------------------- table

const std::vector<Entry>&
Table()
{
    static const std::vector<Entry> table = {
        {"kernel GFLOP/s", "bench_kernels", nullptr, nullptr,
         {"kernel", "variant", "m", "k", "n", "threads"}, "gflops",
         Band::kRelative, kKernelBand, nullptr, false},
        {"decode-placement tokens/s", "bench_table5_e2e", nullptr, nullptr,
         {"dataset", "model", "decode_placement"}, "decode_tokens_per_sec",
         Band::kRelative, kSimulatorBand, nullptr, true},
        {"paged-KV mean pages", "bench_serving", "paged_kv", nullptr,
         {"kv_pool_pages"}, "kv_pages_mean", Band::kRelative, kSimulatorBand,
         nullptr, false},
        {"paged-KV peak <= pool", "bench_serving", "paged_kv", nullptr,
         {"kv_pool_pages"}, nullptr, Band::kInvariant, 0,
         EachRow<PeakWithinPool>, false},
        {"shared-prefix served/100 pages", "bench_serving", "shared_prefix",
         nullptr, {"kv_pool_pages", "share_fraction"}, "served_per_100_pages",
         Band::kRelative, kSimulatorBand, nullptr, false},
        {"shared-prefix peak <= pool", "bench_serving", "shared_prefix",
         nullptr, {"kv_pool_pages", "share_fraction"}, nullptr,
         Band::kInvariant, 0, EachRow<PeakWithinPool>, false},
        {"shared-prefix monotone win", "bench_serving", "shared_prefix",
         nullptr, {"kv_pool_pages"}, "served_per_100_pages", Band::kGroup, 0,
         MonotoneCapacityWin, false},
        {"zero-fault goodput", "bench_serving", "faults", ZeroFaultRate,
         {"failover"}, "goodput_rps", Band::kRelative, kSimulatorBand,
         nullptr, true},
        {"zero fault rate draws no fault", "bench_serving", "faults",
         ZeroFaultRate, {"failover"}, nullptr, Band::kInvariant, 0,
         EachRow<NoFaultDrawn>, false},
        {"pool shrink inside live budget", "bench_serving", "fault_shrink",
         nullptr, {}, nullptr, Band::kInvariant, 0,
         EachRow<ShrinkInsideLiveBudget>, false},
        {"obs ns_per_site", "bench_obs", nullptr, nullptr, {"mode"},
         "ns_per_site", Band::kInvariant, 0, EachRow<PositiveValue>, false},
        {"scheduler us/decision", "bench_scheduler_overhead", nullptr,
         nullptr, {"picker", "chunks"}, "us_per_decision", Band::kAbsolute,
         kSchedulerUsPerDecisionMax, nullptr, false},
        {"obs overhead ratio", "bench_obs", nullptr, GatedObsMode,
         {"mode"}, "overhead_ratio", Band::kAbsolute, kObsOverheadMax,
         nullptr, false},
        {"dynamic vs best static placement", "bench_serving", "policy_sweep",
         PlacementSweepRow, {"offered_ratio"}, "goodput_rps", Band::kGroup, 0,
         DynamicNearBestStatic, false},
        {"predictor median_rel_err", "bench_predict", "fit_error", Banded,
         {"op"}, "median_rel_err", Band::kAbsolute, kPredictErrorMax, nullptr,
         false},
        {"predictor bitwise round trip", "bench_predict", "roundtrip",
         nullptr, {}, nullptr, Band::kInvariant, 0,
         EachRow<BitwiseRoundTrip>, false},
        {"decode-step crossover", "bench_serving", "decode_step", nullptr,
         {}, "batch", Band::kGroup, 0, CrossoverShape, false},
    };
    return table;
}

/** Reads and parses a results file; false with the I/O error or the
 *  parser's position in `error`. */
bool
Load(const std::string& path, JsonValue* doc, std::string* error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *error = path + ": cannot read";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!obs::ParseJson(text.str(), doc, error)) {
        *error = path + ": " + *error;
        return false;
    }
    if (!doc->Has("benches") || doc->At("benches").type != Type::kArray) {
        *error = path + ": no benches array";
        return false;
    }
    return true;
}

}  // namespace

BenchCheckReport
CheckBenchResults(const JsonValue& fresh, const JsonValue& baseline)
{
    BenchCheckReport report;
    for (const Entry& e : Table()) {
        const Ctx ctx{std::string("fresh: ") + e.label, &report.failures};
        const std::vector<Row> rows = SelectRows(ctx, fresh, e);
        int checked = 0;
        switch (e.band) {
          case Band::kRelative: {
            const Ctx base{std::string("baseline: ") + e.label,
                           &report.failures};
            checked = RelativeBand(ctx, e, rows, SelectRows(base, baseline, e));
            break;
          }
          case Band::kAbsolute:
            for (const Row& row : rows) {
                if (row.value > e.limit) {
                    ctx.Sub(row.id).Fail(StrFormat("%s=%g exceeds %g", e.value,
                                                   row.value, e.limit));
                }
            }
            checked = static_cast<int>(rows.size());
            break;
          case Band::kInvariant:
          case Band::kGroup:
            checked = e.rule(ctx, rows);
            break;
        }
        report.checked.emplace_back(e.label, checked);
    }
    return report;
}

int
RunBenchCheck(const std::string& fresh_path, const std::string& baseline_path,
              std::ostream& out)
{
    JsonValue fresh, baseline;
    std::string error;
    if (!Load(fresh_path, &fresh, &error) ||
        !Load(baseline_path, &baseline, &error)) {
        out << "check_bench_metrics: " << error << "\n";
        return 2;
    }
    const BenchCheckReport report = CheckBenchResults(fresh, baseline);
    for (const std::string& failure : report.failures) {
        out << "check_bench_metrics: FAIL " << failure << "\n";
    }
    for (const auto& entry : report.checked) {
        out << "check_bench_metrics: " << entry.first << ": " << entry.second
            << " checked\n";
    }
    out << "check_bench_metrics: " << report.failures.size()
        << " failure(s) against " << baseline_path << "\n";
    return report.failures.empty() ? 0 : 1;
}

}  // namespace bench
}  // namespace llmnpu
