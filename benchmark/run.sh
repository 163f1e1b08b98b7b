#!/usr/bin/env bash
# Builds the wall-clock benchmark from this checkout and runs it.
#
#   bash benchmark/run.sh                 # every workload, seed 1
#   bash benchmark/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
#
# Prints "METRIC <workload> <name> <value> <unit>" rows and, as the last
# line of each run, a JSON result {"correct", "attempted", "failed",
# "metrics"}. --trace 1 reports the per-layer metrics instead of the
# end-to-end ones and keeps the Perfetto trace next to the results JSON in
# .bench_build/results/. Exits non-zero when a correctness check or a
# mechanism assertion fails. The build goes to .bench_build/ at the root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: $root holds no llm.npu sources to build" >&2
  exit 2
fi

workloads=()
seed=1
seconds=""
trace=0
while (($#)); do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if ((${#workloads[@]} == 0)); then
  workloads=(ui_automation decode_b16 sim_sweep)
fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target llmnpu_benchmark -j 4 >&2

mkdir -p "$build/results"
status=0
for workload in "${workloads[@]}"; do
  stem="$build/results/$workload-seed$seed"
  args=(--workload "$workload" --seed "$seed")
  [[ -n "$seconds" ]] && args+=(--seconds "$seconds")
  if [[ "$trace" == 1 ]]; then
    stem="$stem-traced"
    args+=(--trace "$stem.trace.json")
  fi
  "$build/llmnpu_benchmark" "${args[@]}" --out "$stem.json" || status=1
done
exit "$status"
