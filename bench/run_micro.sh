#!/usr/bin/env bash
# Builds and runs the micro benchmarks, recording the results to
# BENCH_micro.json (google-benchmark JSON format) for before/after
# comparisons. The harness carries both the kernel benchmarks and the
# query-level serving grid (BM_ServeThroughput: threads x shards x batch),
# so the JSON tracks end-to-end QPS alongside kernel wins.
#
# Usage:
#   bench/run_micro.sh [extra google-benchmark flags...]
# Env:
#   BUILD_DIR  build directory           (default: build)
#   OUT        output JSON path          (default: BENCH_micro.json)
#   RPQ_SIMD   kernel backend under test: scalar|avx2|avx512|neon
#              (default: the best the CPU supports)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$repo_root/build}"
OUT="${OUT:-$repo_root/BENCH_micro.json}"

cmake -B "$BUILD_DIR" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target bench_micro_kernels

"$BUILD_DIR/bench_micro_kernels" \
  --benchmark_out="$OUT" --benchmark_out_format=json "$@"

echo "wrote $OUT"
