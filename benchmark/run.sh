#!/usr/bin/env bash
# Builds the svsim benchmark and runs it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
#                    [--runs N]
#
# Without --workload every workload in BENCHMARK.json runs, each in its own
# process. --seed defaults to the workload's default seed in
# benchmark/seeds.json; --runs N repeats each workload with seeds S..S+N-1.
# --seconds defaults to run_seconds in BENCHMARK.json; the benchmark
# format's command line passes it, and compare.py refuses to compare
# results taken at different lengths.
# Every run prints `workload metric value unit` lines and, last, one JSON
# object {"correct", "attempted", "failed", "metrics"}; the runs are also
# collected into one results JSON under .bench_build/results/ (its path is
# printed on stderr), which benchmark/compare.py reads. A run that crashes
# prints no result line, is recorded as wrong, and makes the exit status 1.
#
# --trace (or --trace 1) reports the per-layer metrics instead of the
# end-to-end ones and writes a Chrome trace and a per-layer summary per run
# next to the results JSON.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workload=""
seed=""
run_seconds=""
trace=0
runs=1
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) run_seconds="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ ! -f CMakeLists.txt ] || [ ! -d src ]; then
  echo "run.sh: the svsim sources are not in $root" >&2
  exit 2
fi

# Reads one value out of BENCHMARK.json or benchmark/seeds.json.
json_get() {
  python3 -c 'import json, sys
data = json.load(open(sys.argv[1]))
for key in sys.argv[2:]:
    data = data[key]
print(" ".join(w["name"] for w in data) if isinstance(data, list) else data)' "$@"
}

[ -n "$run_seconds" ] || run_seconds="$(json_get BENCHMARK.json run_seconds)"
if [ -n "$workload" ]; then
  workloads="$workload"
else
  workloads="$(json_get BENCHMARK.json workloads)"
fi

build_dir=.bench_build
if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  mkdir -p "$build_dir"
  if ! cmake -S benchmark -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
      > "$build_dir/configure.log" 2>&1; then
    tail -n 30 "$build_dir/configure.log" >&2
    rm -f "$build_dir/CMakeCache.txt"
    exit 3
  fi
fi
if ! cmake --build "$build_dir" --target svsim_benchmark -j "$(nproc)" \
    > "$build_dir/build.log" 2>&1; then
  tail -n 30 "$build_dir/build.log" >&2
  exit 3
fi

out_dir="$build_dir/results"
mkdir -p "$out_dir"
records=()
status=0
for w in $workloads; do
  first_seed="${seed:-$(json_get benchmark/seeds.json "$w" default)}"
  for ((i = 0; i < runs; i++)); do
    s=$((first_seed + i))
    run_status=0
    out="$("$build_dir/svsim_benchmark" --workload "$w" --seed "$s" \
      --seconds "$run_seconds" --trace "$trace" --out-dir "$out_dir")" ||
      run_status=$?
    if [ "$run_status" -eq 0 ]; then
      printf '%s\n' "$out"
      result="$(printf '%s\n' "$out" | tail -n 1)"
    else
      # A crashed run prints no result line; it is kept as a wrong one.
      echo "run.sh: $w seed $s exited with status $run_status" >&2
      result='{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}'
      status=1
    fi
    records+=("{\"workload\": \"$w\", \"seed\": $s, \"trace\": $trace, \"exit_status\": $run_status, \"result\": $result}")
  done
done

label="${workload:-all}-seed${seed:-default}-runs${runs}-trace${trace}"
results="$out_dir/results-$label.json"
{
  printf '{"seconds": %s, "runs": [\n' "$run_seconds"
  for ((i = 0; i < ${#records[@]}; i++)); do
    [ "$i" -eq 0 ] || printf ',\n'
    printf '%s' "${records[$i]}"
  done
  printf '\n]}\n'
} > "$results"
echo "run.sh: results in $results" >&2
exit "$status"
