/**
 * @file
 * Shared helpers for the per-table/per-figure reproduction benchmarks.
 *
 * Every binary prints the paper's reported numbers next to the values
 * measured on this simulator; absolute agreement is not the goal (the
 * substrate is a calibrated simulator, not the authors' phones) — the
 * *shape* is: who wins, by roughly what factor, where crossovers fall.
 */
#ifndef LLMNPU_BENCH_BENCH_UTIL_H
#define LLMNPU_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/util/format.h"
#include "src/util/table.h"

namespace llmnpu {

/** Prints the standard benchmark banner. */
inline void
BenchHeader(const std::string& experiment, const std::string& paper_claim)
{
    std::printf("==========================================================\n");
    std::printf("%s\n", experiment.c_str());
    std::printf("Paper: %s\n", paper_claim.c_str());
    std::printf("==========================================================\n");
}

/** Prints a one-line verdict comparing a measured ratio to a paper band. */
inline void
Verdict(const std::string& what, double measured, double paper_lo,
        double paper_hi)
{
    const bool in_band = measured >= paper_lo * 0.5 &&
                         measured <= paper_hi * 2.0;
    std::printf("  %-46s measured %7.2fx   paper %.2f-%.2fx   [%s]\n",
                what.c_str(), measured, paper_lo, paper_hi,
                in_band ? "shape holds" : "OUT OF BAND");
}

/** Whether `run_all --quick` asked for the short CI sweep. */
inline bool
QuickMode()
{
    return std::getenv("LLMNPU_BENCH_QUICK") != nullptr;
}

/** Mean wall-clock seconds per call of `fn`, called repeatedly for at
 *  least `min_seconds`. */
template <typename Fn>
double
SecondsPerCall(double min_seconds, const Fn& fn)
{
    int64_t calls = 0;
    double elapsed = 0.0;
    const auto start = std::chrono::steady_clock::now();
    do {
        fn();
        ++calls;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);
    return elapsed / static_cast<double>(calls);
}

/** Makes a timed call's result observable (an empty asm that reads its
 *  address and clobbers memory), so the call cannot be dropped. */
template <typename T>
inline void
Sink(const T& value)
{
    asm volatile("" : : "r"(&value) : "memory");
}

}  // namespace llmnpu

#endif  // LLMNPU_BENCH_BENCH_UTIL_H
