#!/usr/bin/env bash
# Snapshots the kernel-layer microbenchmarks into BENCH_kernels.json so
# future PRs can track the perf trajectory of the word-parallel kernels
# against their scalar references.
#
# The artifact is an rdc.bench.report.v1 document (bench_micro --json):
# alongside the per-benchmark rows it records the run metadata — git
# revision, UTC date, thread count, compiler, and host context (CPU
# model, core count, selected SIMD backend) — so a snapshot is
# attributable to the commit and machine that produced it, and a
# rdc_perf_diff verdict can be sanity-checked against hardware drift.
#
# Usage: bench/run_bench_baseline.sh [build-dir] [output-json]
# Defaults: build-dir = build, output = BENCH_kernels.json (repo root).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
output="${2:-$repo_root/BENCH_kernels.json}"

bench_micro="$build_dir/bench/bench_micro"
if [[ ! -x "$bench_micro" ]]; then
  echo "bench_micro not found at $bench_micro — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j --target bench_micro" >&2
  exit 1
fi

# The binary bakes in the revision it was configured at; point RDC_GIT_REV
# at the current checkout so the snapshot names the commit actually built
# (a stale build dir would otherwise report the configure-time revision).
if git_rev="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null)"; then
  export RDC_GIT_REV="$git_rev"
fi

"$bench_micro" \
  --benchmark_filter='BM_(ExactErrorRate|ExactErrorRateScalar|NeighborTable|NeighborTableScalar|ComplexityFactor|ComplexityFactorScalar|ErrorRateKbit|SampledErrorRate)(/|$)' \
  --benchmark_repetitions=1 \
  --json "$output"

echo
echo "Kernel benchmark snapshot written to $output"

# Report the headline word-parallel vs scalar speedups when python3 is
# around (informational only; the JSON is the artifact).
if command -v python3 >/dev/null 2>&1; then
  python3 - "$output" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    data = json.load(fh)
meta = {k: data[k]
        for k in ("git_rev", "date", "threads", "compiler", "cpu", "cores",
                  "simd")
        if k in data}
print("\nrun metadata:", ", ".join(f"{k}={v}" for k, v in meta.items()))
times = {row["name"]: row["real_time"] for row in data["rows"]}
print("word-parallel speedup over scalar reference:")
for kernel in ("BM_ExactErrorRate", "BM_NeighborTable", "BM_ComplexityFactor"):
    for arg in (8, 10, 12, 14, 16, 20):
        fast = times.get(f"{kernel}/{arg}")
        slow = times.get(f"{kernel}Scalar/{arg}")
        if fast and slow:
            print(f"  {kernel}/{arg}: {slow / fast:.1f}x")
EOF
fi
