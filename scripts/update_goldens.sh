#!/usr/bin/env bash
# Regenerates the goldens in tests/golden/:
#  * the stdout of each deterministic table/figure harness, one
#    <harness>.txt per binary;
#  * rdcsyn_cli_<fixture>.txt for each examples/fixtures/<fixture>.pla: the
#    result-cache key (`rdcsyn_cli cachekey`) and the flow report
#    (`rdcsyn_cli synth --pipeline ... --json`, timing keys stripped) of
#    "assign:ranking(0.5)@M | espresso | factor | aig | map:power |
#    analyze | E@M" for every fault model M and error-rate estimator E.
# With --check it diffs the output against the goldens instead and fails
# naming every golden whose output changed (scripts/check.sh runs this). A
# change that is meant to move results reruns the script without --check
# and commits the regenerated files, so the diff shows up in review.
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
cli="$build_dir/examples/rdcsyn_cli"

for binary in "${harnesses[@]/#/$build_dir/bench/}" "$cli"; do
  if [[ ! -x "$binary" ]]; then
    echo "$(basename "$binary") not found in $build_dir — build first:" >&2
    echo "  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
  fi
done

# "" is the default model (no annotation).
cli_models=("" "@bitflip(2)" "@bitflip(3)" "@stuckat")
cli_estimators=("error_rate" "error_rate:sampled(20000)")
report_json="$(mktemp)"
trap 'rm -f "$report_json"' EXIT

# Prints the rdcsyn_cli golden of one fixture.
cli_golden() {
  local pla="$1" model estimator pipeline
  for model in "${cli_models[@]}"; do
    for estimator in "${cli_estimators[@]}"; do
      pipeline="assign:ranking(0.5)$model | espresso | factor | aig |"
      pipeline+=" map:power | analyze | $estimator$model"
      echo "pipeline: $pipeline"
      echo "cachekey: $("$cli" cachekey "$pla" --pipeline "$pipeline")"
      "$cli" synth "$pla" --pipeline "$pipeline" --json "$report_json" \
        > /dev/null
      # Wall times and RDC_PERF hardware counters vary run to run; the
      # phase names and the metrics do not.
      python3 - "$report_json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
doc.pop("total_ms")
doc.pop("perf", None)
doc["phases"] = [phase["name"] for phase in doc["phases"]]
print(json.dumps(doc, indent=2))
EOF
    done
  done
}

# Writes or diffs one golden; $1 names it, the rest is the command.
mkdir -p "$golden_dir"
failed=()
golden() {
  local name="$1"
  shift
  if [[ "$check" == 0 ]]; then
    "$@" > "$golden_dir/$name.txt"
  elif ! "$@" | diff -u "$golden_dir/$name.txt" - ; then
    failed+=("$name")
  fi
}

count=0
for harness in "${harnesses[@]}"; do
  golden "$harness" "$build_dir/bench/$harness"
  count=$((count + 1))
done
for pla in "$repo_root"/examples/fixtures/*.pla; do
  golden "rdcsyn_cli_$(basename "$pla" .pla)" cli_golden "$pla"
  count=$((count + 1))
done

if [[ "$check" == 0 ]]; then
  echo "Regenerated $count goldens in $golden_dir"
elif (( ${#failed[@]} > 0 )); then
  echo "golden mismatch: ${failed[*]} (tests/golden/<name>.txt);" \
       "if the change is intended, rerun scripts/update_goldens.sh" >&2
  exit 1
fi
