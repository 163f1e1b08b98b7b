#include "benchmark/src/stats.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace llmnpu {
namespace bench {

std::vector<double>
FastestPerOperation(const std::vector<std::vector<double>>& rounds)
{
    if (rounds.empty()) return {};
    std::vector<double> fastest = rounds.front();
    for (const std::vector<double>& round : rounds) {
        LLMNPU_FATAL_IF(round.size() != fastest.size(),
                        "rounds must list the same operations");
        for (size_t i = 0; i < round.size(); ++i) {
            fastest[i] = std::min(fastest[i], round[i]);
        }
    }
    return fastest;
}

Quartiles
QuartilesOf(std::vector<double> values)
{
    Quartiles q;
    if (values.empty()) return q;
    std::sort(values.begin(), values.end());
    const int64_t ld = static_cast<int64_t>(values.size());
    if (ld == 1) {
        q.q1 = q.median = q.q3 = values[0];
        return q;
    }
    // statistics.quantiles(method='exclusive') with n=4: position
    // i*(ld+1)/4, clamped to [1, ld-1], interpolated in exact integer
    // arithmetic on the numerator.
    double cut[3];
    const int64_t m = ld + 1;
    for (int64_t i = 1; i <= 3; ++i) {
        int64_t j = i * m / 4;
        j = std::clamp<int64_t>(j, 1, ld - 1);
        const int64_t delta = i * m - j * 4;
        cut[i - 1] = (values[static_cast<size_t>(j - 1)] *
                          static_cast<double>(4 - delta) +
                      values[static_cast<size_t>(j)] *
                          static_cast<double>(delta)) /
                     4.0;
    }
    q.q1 = cut[0];
    q.median = cut[1];
    q.q3 = cut[2];
    return q;
}

Better
ParseBetter(const std::string& text)
{
    if (text == "lower") return Better::kLower;
    LLMNPU_FATAL_IF(text != "higher",
                    "metric direction must be \"lower\" or \"higher\", got \"" +
                        text + "\"");
    return Better::kHigher;
}

const char*
VerdictName(Verdict verdict)
{
    switch (verdict) {
        case Verdict::kImproved: return "improved";
        case Verdict::kWithinBound: return "within-bound";
        case Verdict::kUnresolved: return "unresolved";
        case Verdict::kRegressed: return "regressed";
    }
    return "?";
}

namespace {

/** > 0 when `a` reads better than `b`, < 0 when worse, 0 on a tie. */
int
BetterSign(double a, double b, Better better)
{
    if (a == b) return 0;
    const bool a_lower = a < b;
    return (a_lower == (better == Better::kLower)) ? 1 : -1;
}

}  // namespace

Comparison
Compare(const std::vector<double>& parent, const std::vector<double>& change,
        Better better, double bound)
{
    Comparison c;
    c.parent = QuartilesOf(parent);
    c.change = QuartilesOf(change);
    c.pairs = static_cast<int>(std::min(parent.size(), change.size()));
    for (int i = 0; i < c.pairs; ++i) {
        const int sign = BetterSign(change[static_cast<size_t>(i)],
                                    parent[static_cast<size_t>(i)], better);
        if (sign > 0) ++c.wins;
        if (sign < 0) ++c.losses;
    }
    c.win_frac = c.pairs > 0 ? static_cast<double>(c.wins) / c.pairs : 0.0;

    const double base = std::abs(c.parent.median);
    const double diff = c.change.median - c.parent.median;
    const double worse = better == Better::kLower ? diff : -diff;
    c.worse_frac = base > 0.0 ? worse / base
                   : worse > 0.0 ? HUGE_VAL
                   : worse < 0.0 ? -HUGE_VAL
                                 : 0.0;
    const double spread = c.parent.q3 - c.parent.q1;

    bool all_better = !parent.empty() && !change.empty();
    for (double p : parent) {
        for (double x : change) {
            if (BetterSign(x, p, better) <= 0) all_better = false;
        }
    }

    if (c.pairs > 0 && c.wins * 10 >= c.pairs * 9 && worse < 0.0 &&
        std::abs(diff) > spread) {
        c.verdict = Verdict::kImproved;
    } else if (c.worse_frac > bound) {
        // Checked before the spread: a noisy parent hides a small change,
        // not a median that moved past the bound.
        c.verdict = Verdict::kRegressed;
    } else if (base > 0.0 && spread / base > bound) {
        c.verdict = all_better ? Verdict::kWithinBound : Verdict::kUnresolved;
    } else {
        c.verdict = Verdict::kWithinBound;
    }
    return c;
}

Verdict
CompareFailures(int64_t parent_failed, int64_t parent_attempted,
                int64_t change_failed, int64_t change_attempted)
{
    // Cross-multiplied so equal shares compare exactly.
    const double parent_share =
        static_cast<double>(parent_failed) *
        static_cast<double>(std::max<int64_t>(change_attempted, 1));
    const double change_share =
        static_cast<double>(change_failed) *
        static_cast<double>(std::max<int64_t>(parent_attempted, 1));
    if (change_share > parent_share) return Verdict::kRegressed;
    if (change_share < parent_share) return Verdict::kImproved;
    return Verdict::kWithinBound;
}

}  // namespace bench
}  // namespace llmnpu
