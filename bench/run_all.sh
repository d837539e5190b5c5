#!/usr/bin/env bash
# Runs every bench binary and the CLI sweep, writing each one's output to
# bench_output/<name>.log. Exits non-zero when any of them fails. Usage:
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
if [[ ! -x ./xrbench_cli ]]; then
  echo "xrbench_cli missing from $BUILD_DIR" >&2
  exit 1
fi

failed=()
# run <log name> <command...>: logs stdout+stderr, records a failure.
run() {
  local name=$1
  shift
  echo "== $name  (log: bench_output/$name.log)"
  if ! "$@" > "bench_output/$name.log" 2>&1; then
    echo "   FAILED: $name" >&2
    failed+=("$name")
  fi
}

for b in "${benches[@]}"; do
  [[ -x $b && ! -d $b ]] || continue
  if [[ $b == bench_microbench ]]; then
    # google-benchmark harness: bounded repetitions, own output format
    run "$b" ./"$b" --benchmark_min_time=0.05
  else
    run "$b" ./"$b"
  fi
done
run cli_sweep ./xrbench_cli --sweep

if [[ ${#failed[@]} -ne 0 ]]; then
  echo "${#failed[@]} failed: ${failed[*]}" >&2
  exit 1
fi
echo "all runs passed"
