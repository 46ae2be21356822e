#!/usr/bin/env bash
# Regenerates the paper-harness goldens in tests/golden/: the stdout of
# each deterministic table/figure harness, one <harness>.txt per binary.
# With --check it diffs the harness output against the goldens instead and
# fails naming every harness whose output changed (scripts/check.sh runs
# this). A change that is meant to move results reruns the script without
# --check and commits the regenerated files, so the diff shows up in
# review.
#
# Usage: scripts/update_goldens.sh [--check] [build-dir]
# Defaults: build-dir = build (repo root).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
check=0
if [[ "${1:-}" == "--check" ]]; then
  check=1
  shift
fi
build_dir="${1:-$repo_root/build}"
golden_dir="$repo_root/tests/golden"

harnesses=(bench_table1 bench_table2 bench_table3 bench_fig4 bench_fig5
           bench_fig6 bench_multibit bench_cross_model)

for harness in "${harnesses[@]}"; do
  if [[ ! -x "$build_dir/bench/$harness" ]]; then
    echo "$harness not found in $build_dir/bench — build first:" >&2
    echo "  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
  fi
done

mkdir -p "$golden_dir"
failed=()
for harness in "${harnesses[@]}"; do
  golden="$golden_dir/$harness.txt"
  if [[ "$check" == 0 ]]; then
    "$build_dir/bench/$harness" > "$golden"
    continue
  fi
  if ! "$build_dir/bench/$harness" | diff -u "$golden" - ; then
    failed+=("$harness")
  fi
done

if [[ "$check" == 0 ]]; then
  echo "Regenerated ${#harnesses[@]} goldens in $golden_dir"
elif (( ${#failed[@]} > 0 )); then
  echo "golden mismatch: ${failed[*]} (tests/golden/<harness>.txt);" \
       "if the change is intended, rerun scripts/update_goldens.sh" >&2
  exit 1
fi
