#!/usr/bin/env bash
# Regenerates the recorded evaluation artifacts:
#   test_output.txt     — full ctest log
#   BENCH_results.json  — structured benchmark records (svsim_bench --all)
#   BENCH_results.jsonl — the same records as one JSONL line per case
#   bench_output.txt    — rendered tables (the human-readable view)
# and refreshes the smoke-tier baseline in bench/baselines/ for this host.
# Usage: scripts/regenerate_results.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"

cmake -B "$BUILD" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j

ctest --test-dir "$BUILD" 2>&1 | tee test_output.txt

# Full-tier structured results + rendered tables in one pass.
"$BUILD"/tools/svsim_bench --all \
  --json BENCH_results.json \
  --jsonl BENCH_results.jsonl \
  > bench_output.txt

# Validate what we just wrote, then refresh the smoke baseline used by
# scripts/bench_compare.py on this machine.
python3 scripts/check_schema.py bench \
  --json BENCH_results.json --jsonl BENCH_results.jsonl
python3 scripts/bench_compare.py --self-test BENCH_results.json

# The blocked-engine comparison (EXPERIMENTS.md "Fig. 1 (blocked)" /
# "Tab. 2 (blocked)") must be present in the refreshed records.
for id in fig1_blocked.k4.blocked.s fig1_blocked.k4.unblocked.s \
          fig1_blocked.k4.gates_per_traversal tab2_blocked.qv.blocked.s; do
  grep -q "\"$id\"" BENCH_results.json || {
    echo "missing blocked-engine record: $id" >&2; exit 1; }
done

# The plan-compiler weak-scaling comparison (EXPERIMENTS.md "Fig. 6
# (blocked)") must be present too, both in the .json and the .jsonl view.
for id in fig6_blocked_dist.d3.naive.exchanges \
          fig6_blocked_dist.d3.remap_blocked.windows \
          fig6_blocked_dist.d3.window_ratio \
          fig6_blocked_dist.d3.traversal_ratio \
          fig6_blocked_dist.d0.gates_per_traversal; do
  grep -q "\"$id\"" BENCH_results.json || {
    echo "missing plan-compiler record: $id" >&2; exit 1; }
  grep -q "\"$id\"" BENCH_results.jsonl || {
    echo "missing plan-compiler record in jsonl: $id" >&2; exit 1; }
done

# The service-throughput comparison (docs/SERVICE.md, "svc_throughput")
# must record both submission paths for both execution modes, plus the
# warm-cache worker-scaling sweep behind `svsim serve --threads N`.
for id in svc_throughput.sampled.cold.s svc_throughput.sampled.warm.s \
          svc_throughput.sampled.speedup svc_throughput.trajectory.warm.s \
          svc_throughput.trajectory.warm.shots_per_s \
          svc_throughput.workers.w1.jobs_per_s \
          svc_throughput.workers.w2.jobs_per_s \
          svc_throughput.workers.w4.jobs_per_s; do
  grep -q "\"$id\"" BENCH_results.json || {
    echo "missing service-throughput record: $id" >&2; exit 1; }
done
# The readout stage of a sampled job (docs/ARCHITECTURE.md "Readout") must
# record each of its four steps and their sum at both widths.
for n in 10 16; do
  for step in sample count label serialize total; do
    id="readout.n$n.$step.s"
    grep -q "\"$id\"" BENCH_results.json || {
      echo "missing readout record: $id" >&2; exit 1; }
  done
done
# The 4-worker scaling ratio only means something when the host can actually
# run 4 executors concurrently; on smaller machines the pool slices all
# degrade to one thread and the sweep merely must have run (checked above).
if [ "$(nproc)" -ge 4 ]; then
  python3 - <<'EOF'
import json, sys
recs = json.load(open("BENCH_results.json"))["records"]
scaling = recs["svc_throughput.workers.w4.scaling"]["value"]
if scaling < 2.0:
    sys.exit(f"svc_throughput.workers.w4.scaling: {scaling:.2f}x < 2.0x "
             "over one worker")
print(f"svc_throughput.workers.w4.scaling: {scaling:.2f}x over one worker")
EOF
fi

# The SIMD backend comparison (docs/ARCHITECTURE.md "sv/simd") must record
# every hand-vectorized class for the scalar reference and, via the derived
# speedup records, at least one vectorized backend. On an AVX2 host the
# hand-vectorized f32 Hadamard and Matrix1 kernels must beat scalar 1.3x.
for id in simd_kernels.scalar.hadamard.f64 simd_kernels.scalar.hadamard.f32 \
          simd_kernels.scalar.diag1.f64 simd_kernels.scalar.matrix1.f32 \
          simd_kernels.scalar.matrix2.f64; do
  grep -q "\"$id\"" BENCH_results.json || {
    echo "missing simd-kernel record: $id" >&2; exit 1; }
done
python3 - <<'EOF'
import json, sys
doc = json.load(open("BENCH_results.json"))
recs = doc["records"]
if not any(k.startswith("simd_kernels.speedup.") for k in recs):
    sys.exit("no simd_kernels speedup records: no vectorized backend ran")
if doc["env"].get("simd_backend") == "avx2":
    for cls in ("hadamard", "matrix1"):
        rid = f"simd_kernels.speedup.avx2.{cls}.f32"
        speedup = recs[rid]["value"]
        if speedup < 1.3:
            sys.exit(f"{rid}: {speedup:.2f}x < 1.3x over scalar")
        print(f"{rid}: {speedup:.2f}x over scalar")
EOF

# A serve transcript must validate against the service schema: drive the
# canned session (cache hit, trajectories, bad line, admission rejection),
# then the same session through four serve workers (results correlate by id;
# the summary's svc block must account every job to a worker).
python3 scripts/check_schema.py service \
  --emit-with "$BUILD"/tools/svsim --output "$BUILD"/service_schema_check.jsonl
python3 scripts/check_schema.py service --threads 4 \
  --emit-with "$BUILD"/tools/svsim \
  --output "$BUILD"/service_schema_check_w4.jsonl

# A profile report must come out of the plan-phase profiler: emit the
# blocked + simulated-distributed artifacts and validate them.
python3 scripts/check_schema.py profile \
  --emit-with "$BUILD"/tools/svsim --output-dir "$BUILD"
for artifact in profile_blocked.json profile_dist.json; do
  [ -s "$BUILD/$artifact" ] || {
    echo "profiler produced no $artifact" >&2; exit 1; }
done

mkdir -p bench/baselines
"$BUILD"/tools/svsim_bench --smoke --no-tables --json bench/baselines/smoke.json
python3 scripts/check_schema.py bench --json bench/baselines/smoke.json

# Gate an unmodified re-run against the baseline we just wrote. The margin is
# wide because run-to-run drift on shared/virtualized hosts reaches tens of
# percent for microsecond-scale records (see bench/baselines/README.md);
# 10% (the default) is for dedicated hardware.
"$BUILD"/tools/svsim_bench --smoke --no-tables --json "$BUILD"/bench_rerun.json
python3 scripts/bench_compare.py --margin 0.75 \
  bench/baselines/smoke.json "$BUILD"/bench_rerun.json

echo "wrote test_output.txt, BENCH_results.json(.jsonl), bench_output.txt,"
echo "and bench/baselines/smoke.json"
