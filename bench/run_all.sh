#!/usr/bin/env bash
# Runs every bench binary and collects the BENCH_<name>.json emitters into
# one place. Usage:
#   bench/run_all.sh [build-dir]          (default: ./build)
# Environment:
#   XRBENCH_THREADS  worker count for the SweepEngine benches
#                    (0 = serial baseline; unset = hardware concurrency)
set -euo pipefail

BUILD_DIR="${1:-build}"
if [[ ! -d "$BUILD_DIR" ]]; then
  echo "build dir '$BUILD_DIR' not found; run: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

cd "$BUILD_DIR"
mkdir -p bench_output
shopt -s nullglob
benches=(bench_*)
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "no bench_* binaries in $BUILD_DIR" >&2
  exit 1
fi

for b in "${benches[@]}"; do
  [[ -x $b && ! -d $b ]] || continue
  if [[ $b == bench_microbench ]]; then
    # google-benchmark harness: bounded repetitions, own output format
    echo "== $b"
    ./"$b" --benchmark_min_time=0.05 || echo "($b failed)" >&2
    continue
  fi
  echo "== $b"
  start_ns=$(date +%s%N)
  ./"$b" > "bench_output/${b}.log" 2>&1 || { echo "($b failed, see bench_output/${b}.log)" >&2; continue; }
  end_ns=$(date +%s%N)
  echo "   $(( (end_ns - start_ns) / 1000000 )) ms  (log: bench_output/${b}.log)"
done

echo "== xrbench_cli --sweep"
if [[ ! -x ./xrbench_cli ]]; then
  # The CLI sweep is the BENCH_cli_sweep.json emitter; a build without it
  # would silently drop that record — treat it as fatal, not as a skip.
  echo "FATAL: xrbench_cli missing from $BUILD_DIR" >&2
  exit 1
fi
./xrbench_cli --sweep > bench_output/cli_sweep.log 2>&1

echo
echo "== JSON perf records:"
ls -1 bench_output/BENCH_*.json

# Every study is expected to leave its BENCH_<name>.json perf record — a
# bench that crashed (logged above) or silently stopped emitting is an
# error, not a gap in the listing. bench_microbench is the one exception
# (google-benchmark owns its output format).
required=(
  ablation_dvfs ablation_scheduler ablation_score_params cli_sweep
  costmodel_layers fault_resilience figure5 figure6 figure7 figure8_rtscore
  fleet_load pareto program_ablation sweep_scaling table1_models
  table2_scenarios table5_accels
)
missing=0
for name in "${required[@]}"; do
  if [[ ! -f "bench_output/BENCH_${name}.json" ]]; then
    echo "MISSING bench_output/BENCH_${name}.json" >&2
    missing=1
  fi
done
if [[ $missing -ne 0 ]]; then
  echo "one or more expected bench emitters did not produce JSON" >&2
  exit 1
fi
echo "all ${#required[@]} expected JSON emitters present"
