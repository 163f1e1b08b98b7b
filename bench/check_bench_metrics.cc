/**
 * @file
 * Checks a freshly produced BENCH_results.json against the committed
 * baseline with the bands in bench/bench_check.cc:
 *
 *   check_bench_metrics build/bench_smoke_results.json BENCH_results.json
 *
 * Prints every failed check; exit 0 = all passed, 1 = some check failed,
 * 2 = usage error or an unreadable / malformed file.
 */
#include <iostream>

#include "bench/bench_check.h"

int
main(int argc, char** argv)
{
    if (argc != 3) {
        std::cerr << "usage: check_bench_metrics <fresh.json> "
                     "<baseline.json>\n";
        return 2;
    }
    return llmnpu::bench::RunBenchCheck(argv[1], argv[2], std::cout);
}
