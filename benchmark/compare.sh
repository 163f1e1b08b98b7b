#!/usr/bin/env bash
# Paired comparison of two builds of the benchmark.
#
#   bash benchmark/compare.sh PARENT_BUILD CHANGE_BUILD [PAIRS]
#
# PARENT_BUILD and CHANGE_BUILD are benchmark build directories, such as
# the .bench_build that run.sh makes in each commit's checkout. For every
# workload it runs PAIRS pairs (default 10, the fewest a claim may rest
# on) with seeds 1..PAIRS, alternating which side runs first, each run as
# long as the benchmark's default run length. It then prints, per workload
# and end-to-end metric, both sides' median and quartiles, the change's win
# fraction and a verdict (improved, within-bound, unresolved or
# regressed), and compares failed operations with a zero bound. Runs are
# kept in .bench_compare/ in the current directory. Exits 1 when anything
# regressed.
set -euo pipefail

if (($# < 2)); then
  echo "usage: compare.sh PARENT_BUILD CHANGE_BUILD [PAIRS]" >&2
  exit 2
fi
parent="$1"
change="$2"
pairs="${3:-10}"
out=.bench_compare
workloads=(ui_automation decode_b16 sim_sweep)
mkdir -p "$out"

run() {  # side workload seed
  local dir="$parent"
  [[ "$1" == change ]] && dir="$change"
  "$dir/llmnpu_benchmark" --workload "$2" --seed "$3" \
    --out "$out/$1-$2-$3.json" > "$out/$1-$2-$3.log" 2>&1 || true
}

for workload in "${workloads[@]}"; do
  for ((seed = 1; seed <= pairs; seed++)); do
    if ((seed % 2)); then
      run parent "$workload" "$seed"
      run change "$workload" "$seed"
    else
      run change "$workload" "$seed"
      run parent "$workload" "$seed"
    fi
  done
done

# One JSON array per side, pairs in the same order on both sides; a pair
# where either run wrote no result is left out of both.
for side in parent change; do
  : > "$out/$side.json"
done
sep="["
for workload in "${workloads[@]}"; do
  for ((seed = 1; seed <= pairs; seed++)); do
    if [[ -s "$out/parent-$workload-$seed.json" &&
          -s "$out/change-$workload-$seed.json" ]]; then
      for side in parent change; do
        { printf '%s\n' "$sep"; cat "$out/$side-$workload-$seed.json"; } \
          >> "$out/$side.json"
      done
      sep=","
    else
      echo "compare.sh: $workload seed $seed: a run wrote no result" >&2
    fi
  done
done
for side in parent change; do
  [[ "$sep" == "[" ]] && printf '[' >> "$out/$side.json"
  printf ']\n' >> "$out/$side.json"
done

"$change/llmnpu_benchmark" compare "$out/parent.json" "$out/change.json"
