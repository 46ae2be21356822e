#!/usr/bin/env bash
# Local CI: the tier-1 configure/build/ctest line from ROADMAP.md, with
# warnings as errors (run twice: once on the default SIMD dispatch, once
# pinned to the scalar backend with RDC_SIMD=scalar), then the whole unit-test binary once in a
# single process (ctest runs every test in its own process, which hides
# state one test leaks into the next), a build of perfbench (the
# end-to-end benchmark, which links the library's public API), a diff of
# the paper harnesses' stdout, the rdcsyn_cli fixture reports and the canonical-flow reports of
# the Table-1 circuits against the goldens in tests/golden/, followed
# by an ASan+UBSan build of the unit tests to catch memory and UB bugs the
# release build hides (the word-parallel kernels and the thread pool are
# exactly the kind of code sanitizers pay off on), a fuzz-corpus replay of
# the fuzz targets (parsers + journal replayer), a pipeline smoke
# (rdcsyn_cli --pipeline
# with a nondefault spec plus an rdc_batch fan-out over the examples/
# fixtures, reports validated with rdc_json_check), an rdcsyn_cli smoke
# (malformed or out-of-range assign and renode flags, a second input
# file, synth --pipeline with --delay or --resyn exit 2, a
# fault model that does not fit the spec fails a --pipeline with exit 2,
# a failed synth writes no
# file and exits 2 or 1, synth --json writes the report), and the §10
# fault-injection
# smoke: a
# bench_table1 run over a circuit list containing a malformed BLIF and a
# deadline-busting circuit, plus an RDC_FAULT espresso failure in
# bench_table1 and in rdc_batch (whose hit counts restart per job) — all
# must complete with error rows, not abort. A telemetry smoke validates the
# RDC_METRICS snapshotter, the RDC_EVENTS lifecycle log, and RDC_PERF
# degradation, and the rdc_perf_diff gate self-checks on the committed
# bench baseline plus a synthetic regression fixture that must fail.
# The §14 crash-safe batch smoke interrupts a fault-armed rdc_batch run
# mid-flight and asserts the journal-resumed report matches an
# uninterrupted one, that worker segfaults become INTERNAL rows with
# job.crash events, that --retries recovers every row from a segfaulted
# first attempt, that malformed numeric flags exit 2, and that SIGTERM
# produces an orderly shutdown in both the driver-owned (exit 4) and
# unowned-snapshotter (exit 143) paths.
# The §15 serving smoke exercises rdcsynd end to end on a unix socket:
# warm-cache request pair (byte-identical reply, serve.cache.hit counter),
# malformed frames and a slow-loris client answered with Status replies
# rather than crashes, overload shed with RESOURCE_EXHAUSTED, and SIGTERM
# during an in-flight request draining cleanly with exit 0 plus a
# serve.drain event.
#
# Usage: scripts/check.sh [--no-sanitizers]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

run_sanitizers=1
if [[ "${1:-}" == "--no-sanitizers" ]]; then
  run_sanitizers=0
fi

echo "== tier-1: configure + build + ctest =="
# Warnings fail the build: the library, tests, harnesses, examples, tools
# and fuzz targets all compile with -Wall -Wextra -Wshadow.
cmake -B build -S . -DRDC_ENABLE_FUZZERS=ON -DRDCSYN_WERROR=ON
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo
echo "== tier-1 rerun on the scalar SIMD backend =="
# The differential tests force each backend per test, but the whole suite
# must also hold with the dispatch pinned to the portable kernels — the
# configuration every non-x86 target runs.
(cd build && RDC_SIMD=scalar ctest --output-on-failure -j)

echo
echo "== perfbench build =="
# perfbench links the library's public API; building it here catches an
# API change that would break the benchmark.
cmake -S perfbench -B build-perfbench
cmake --build build-perfbench -j

echo
echo "== unit tests in one process =="
# Every test after every other in one process: a test that depends on
# state an earlier test left behind (thread-locals, globals, the
# environment) fails here even though it passes alone under ctest.
./build/tests/rdcsyn_tests --gtest_brief=1

echo
echo "== paper-harness and rdcsyn_cli goldens =="
# The stdout of the deterministic table/figure harnesses, the cache keys
# and flow reports rdcsyn_cli gives for examples/fixtures, and its
# canonical-flow report of every Table-1 circuit must match
# tests/golden/ byte for byte; a failure names the golden. A change meant
# to move results regenerates them with scripts/update_goldens.sh.
scripts/update_goldens.sh --check build

echo
echo "== observability smoke: traced --json harness run =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
RDC_TRACE="$smoke_dir/trace.json" \
  ./build/bench/bench_table1 --json "$smoke_dir/report.json" > /dev/null
./build/tools/rdc_json_check "$smoke_dir/report.json" \
  schema suite git_rev date threads compiler rows counters
./build/tools/rdc_json_check "$smoke_dir/trace.json" traceEvents
RDC_TRACE=summary ./build/bench/bench_table1 > /dev/null 2> "$smoke_dir/summary.txt"
grep -q "rdc::obs" "$smoke_dir/summary.txt" || {
  echo "RDC_TRACE=summary produced no summary table" >&2
  exit 1
}

# Replays every corpus file through a fuzz binary; with libFuzzer (clang)
# also runs a short time-boxed fuzzing session per target.
run_fuzzers() {
  local build_dir="$1"
  local target
  for target in pla blif aiger json pipeline_spec journal serve_frame; do
    local bin="$build_dir/fuzz/fuzz_$target"
    local corpus="fuzz/corpus/$target"
    [[ -x "$bin" ]] || { echo "missing fuzz binary $bin" >&2; return 1; }
    if "$bin" -help=1 2>/dev/null | grep -q libFuzzer; then
      # Real libFuzzer: replay the corpus, then fuzz for 30 s.
      "$bin" -runs=0 "$corpus" > /dev/null 2>&1
      "$bin" -max_total_time=30 "$corpus" > /dev/null 2>&1
    else
      "$bin" "$corpus"/* > /dev/null
    fi
  done
}

echo
echo "== fuzz corpus replay (release build) =="
run_fuzzers build

echo
echo "== pipeline smoke: rdcsyn_cli --pipeline / rdc_batch =="
# A nondefault spec (extract instead of factor|aig, delay mapping) through
# the single-circuit path, then an rdc_batch fan-out over the examples/
# fixtures; both reports must validate structurally.
./build/examples/rdcsyn_cli synth examples/fixtures/builtin.pla \
  --pipeline "assign:lcf(0.6,balanced) | espresso | extract | map:delay | analyze | error_rate" \
  --json "$smoke_dir/pipeline.json" > /dev/null
./build/tools/rdc_json_check "$smoke_dir/pipeline.json" \
  schema phases metrics metrics.error_rate metrics.gates metrics.area \
  metrics.delay_ps metrics.power_uw
./build/tools/rdc_batch examples/fixtures/*.pla \
  --pipeline "assign:ranking(0.75) | espresso | factor | aig | resyn | map:power | analyze | error_rate" \
  --json "$smoke_dir/batch.json" > /dev/null
./build/tools/rdc_json_check "$smoke_dir/batch.json" \
  schema suite git_rev date threads compiler rows meta.pipeline
# A malformed spec must fail with a position-annotated parse error.
if ./build/examples/rdcsyn_cli synth examples/fixtures/builtin.pla \
     --pipeline "espresso | nosuchpass" > /dev/null 2> "$smoke_dir/parse_err.txt"; then
  echo "pipeline smoke: malformed spec unexpectedly accepted" >&2
  exit 1
fi
grep -q "at offset" "$smoke_dir/parse_err.txt" || {
  echo "pipeline smoke: parse error lacks a byte offset" >&2
  cat "$smoke_dir/parse_err.txt" >&2
  exit 1
}

echo
echo "== rdcsyn_cli smoke: flag validation, failed flows, synth --json =="
# Runs "$@" and fails the check unless it exits with status $1.
expect_exit() {
  local want="$1" code=0
  shift
  "$@" > /dev/null 2>&1 || code=$?
  [[ "$code" == "$want" ]] || {
    echo "rdcsyn_cli smoke: '$*' exited $code, want $want" >&2; exit 1
  }
}
# assign: a value must parse whole and lie in range (fraction in [0, 1],
# threshold in (0, 1)), else exit 2.
for fraction in -0.5 nan 7 abc 0.5x; do
  expect_exit 2 ./build/examples/rdcsyn_cli assign \
    examples/fixtures/builtin.pla -o "$smoke_dir/assign.pla" \
    --fraction "$fraction"
done
for threshold in 5 0 1 abc; do
  expect_exit 2 ./build/examples/rdcsyn_cli assign \
    examples/fixtures/builtin.pla -o "$smoke_dir/assign.pla" \
    --policy lcf --threshold "$threshold"
done
# Every subcommand but cec takes one input file; a second one is a usage
# error, not silently dropped.
expect_exit 2 ./build/examples/rdcsyn_cli stats examples/fixtures/builtin.pla \
  examples/fixtures/parity4.pla
# renode: the same (0, 1) range for --threshold.
for threshold in 5 -1 0 1 abc; do
  expect_exit 2 ./build/examples/rdcsyn_cli renode \
    examples/fixtures/builtin.pla --threshold "$threshold"
done
# synth --pipeline runs a pipeline, which names its mapper and
# restructuring passes; --delay and --resyn would reach no pass, so they
# are refused rather than ignored.
expect_exit 2 ./build/examples/rdcsyn_cli synth examples/fixtures/builtin.pla \
  --pipeline "assign:zero | espresso" --delay
expect_exit 2 ./build/examples/rdcsyn_cli synth examples/fixtures/builtin.pla \
  --pipeline "assign:zero | espresso" --resyn
# An assign pass under a model wider than the spec (builtin.pla has 4
# inputs) is an invalid argument on every pipeline, not a silent no-op.
expect_exit 2 ./build/examples/rdcsyn_cli synth examples/fixtures/builtin.pla \
  --pipeline "assign:ranking(0.5)@bitflip(9) | espresso | error_rate"
# synth on the canonical flow: a failed flow writes no file and exits 2
# for invalid arguments, 1 for any other failure.
rm -f "$smoke_dir/synth_bad.v" "$smoke_dir/synth_bad_tb.v"
expect_exit 2 ./build/examples/rdcsyn_cli synth examples/fixtures/builtin.pla \
  --fraction -0.5 -o "$smoke_dir/synth_bad.v" --tb "$smoke_dir/synth_bad_tb.v"
RDC_FAULT=pipeline.pass:1 expect_exit 1 ./build/examples/rdcsyn_cli synth \
  examples/fixtures/builtin.pla -o "$smoke_dir/synth_bad.v"
if [[ -e "$smoke_dir/synth_bad.v" || -e "$smoke_dir/synth_bad_tb.v" ]]; then
  echo "rdcsyn_cli smoke: a failed synth wrote an output file" >&2; exit 1
fi
# synth --json writes the flow report.
./build/examples/rdcsyn_cli synth examples/fixtures/builtin.pla \
  --json "$smoke_dir/synth.json" > /dev/null
./build/tools/rdc_json_check "$smoke_dir/synth.json" \
  schema phases metrics metrics.error_rate metrics.gates metrics.area

echo
echo "== §16 cross-model smoke: fault models =="
# One fixture under the default bit-flip model and under stuck-at faults;
# both reports must validate and name the model that ran (rdc_json_check
# rejects unknown metrics.fault_model values for rdc.flow.report.v1).
xmodel_pipe_bitflip="assign:ranking(0.5)@bitflip | espresso | factor | aig | map:power | analyze | error_rate@bitflip"
xmodel_pipe_stuckat="assign:ranking(0.5)@stuckat | espresso | factor | aig | map:power | analyze | error_rate@stuckat"
./build/examples/rdcsyn_cli synth examples/fixtures/builtin.pla \
  --pipeline "$xmodel_pipe_bitflip" \
  --json "$smoke_dir/xmodel_bitflip.json" > /dev/null
./build/tools/rdc_json_check "$smoke_dir/xmodel_bitflip.json" \
  schema metrics.error_rate metrics.fault_model
grep -q '"fault_model": "bitflip"' "$smoke_dir/xmodel_bitflip.json" || {
  echo "cross-model smoke: bitflip report lacks the model label" >&2
  exit 1
}
./build/examples/rdcsyn_cli synth examples/fixtures/builtin.pla \
  --pipeline "$xmodel_pipe_stuckat" \
  --json "$smoke_dir/xmodel_stuckat.json" > /dev/null
./build/tools/rdc_json_check "$smoke_dir/xmodel_stuckat.json" \
  schema metrics.error_rate metrics.fault_model
grep -q '"fault_model": "stuckat"' "$smoke_dir/xmodel_stuckat.json" || {
  echo "cross-model smoke: stuckat report lacks the model label" >&2
  exit 1
}
# Serve-cache keys must differ across models for the same spec bytes —
# the annotation flows into the canonical pipeline string and the key.
key_bitflip=$(./build/examples/rdcsyn_cli cachekey examples/fixtures/builtin.pla \
  --pipeline "$xmodel_pipe_bitflip")
key_stuckat=$(./build/examples/rdcsyn_cli cachekey examples/fixtures/builtin.pla \
  --pipeline "$xmodel_pipe_stuckat")
if [ "$key_bitflip" = "$key_stuckat" ]; then
  echo "cross-model smoke: cache keys alias across fault models" >&2
  exit 1
fi

echo
echo "== §10 fault-isolation smoke =="
# Run A: one healthy circuit, one malformed BLIF, one circuit engineered to
# blow a per-circuit deadline. The harness must finish with one row each:
# OK, PARSE_ERROR, DEADLINE_EXCEEDED.
cat > "$smoke_dir/tiny.pla" <<'EOF'
.i 2
.o 1
11 1
.e
EOF
cat > "$smoke_dir/broken.blif" <<'EOF'
.model broken
.inputs a a
.outputs y
.names a y
1 1
.end
EOF
python3 - "$smoke_dir/slow.pla" <<'EOF'
# 16-input PLA with a dense pseudo-random on/dc structure: ESPRESSO takes
# well over the smoke deadline on it, deterministically.
import sys
path = sys.argv[1]
n = 16
with open(path, "w") as f:
    f.write(f".i {n}\n.o 1\n.type fd\n")
    state = 0x9E3779B97F4A7C15
    for m in range(0, 1 << n, 3):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        bits = format(m, f"0{n}b")
        f.write(bits + (" 1\n" if state & 2 else " -\n"))
    f.write(".e\n")
EOF
cat > "$smoke_dir/circuits.txt" <<EOF
$smoke_dir/tiny.pla
$smoke_dir/broken.blif
$smoke_dir/slow.pla
EOF
./build/bench/bench_table1 --circuits "$smoke_dir/circuits.txt" \
  --deadline-ms 150 --json "$smoke_dir/faults.json" > "$smoke_dir/faults.txt"
for expect in '"status": "OK"' '"status": "PARSE_ERROR"' \
              '"status": "DEADLINE_EXCEEDED"'; do
  grep -qF "$expect" "$smoke_dir/faults.json" || {
    echo "fault smoke: missing $expect in report" >&2
    cat "$smoke_dir/faults.txt" >&2
    exit 1
  }
done

# Run B: deterministic fault injection. Two healthy single-output circuits,
# RDC_FAULT=espresso:2 under one thread: circuit 1 minimizes fine, circuit
# 2's espresso call is the second hit and faults — one OK row, one
# FAULT_INJECTED row, run completes.
cp "$smoke_dir/tiny.pla" "$smoke_dir/tiny2.pla"
cat > "$smoke_dir/circuits2.txt" <<EOF
$smoke_dir/tiny.pla
$smoke_dir/tiny2.pla
EOF
RDC_THREADS=1 RDC_FAULT=espresso:2 \
  ./build/bench/bench_table1 --circuits "$smoke_dir/circuits2.txt" \
  --json "$smoke_dir/faults2.json" > /dev/null
grep -qF '"status": "OK"' "$smoke_dir/faults2.json" || {
  echo "fault smoke B: missing OK row" >&2; exit 1
}
grep -qF '"status": "FAULT_INJECTED"' "$smoke_dir/faults2.json" || {
  echo "fault smoke B: missing FAULT_INJECTED row" >&2; exit 1
}

# Run C: the same spec under rdc_batch. Every job attempt is its own
# worker process and hit counts are per process, so espresso:2 counts
# within one circuit: the two 2-output fixtures fault on their second
# output, the 1-output parity4 completes. Exit 3: rows failed.
code=0
RDC_FAULT=espresso:2 ./build/tools/rdc_batch examples/fixtures/*.pla \
  --pipeline "assign:zero | espresso" --json "$smoke_dir/faults3.json" \
  > /dev/null 2>&1 || code=$?
[[ "$code" == 3 ]] || {
  echo "fault smoke C: rdc_batch exited $code, want 3" >&2; exit 1
}
python3 - "$smoke_dir/faults3.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rows = json.load(f)["rows"]
faulted = [r["name"] for r in rows if r["status"] == "FAULT_INJECTED"]
ok = [r["name"] for r in rows if r["status"] == "OK"]
assert len(faulted) == 2 and ok == ["parity4"], rows
EOF

echo
echo "== telemetry smoke: live metrics + event log + perf spans =="
# One traced pipeline run with every telemetry sink armed: the metrics
# snapshotter must leave a complete final rdc.metrics.v1 document (no torn
# .tmp), the event log must be a valid rdc.events.v1 stream containing the
# pipeline lifecycle, and RDC_PERF=1 must either report hardware counters
# or degrade to wall-time-only — never fail the run.
RDC_PERF=1 \
RDC_METRICS="$smoke_dir/metrics.json:50" \
RDC_EVENTS="$smoke_dir/events.jsonl" \
  ./build/examples/rdcsyn_cli synth examples/fixtures/builtin.pla \
  --json "$smoke_dir/telemetry_flow.json" > /dev/null
# The recognized schema tag makes rdc_json_check enforce the full
# rdc.metrics.v1 key set; the greps pin the process-sampler gauge and a
# work counter (their snake.case names contain dots, so no dotted path).
./build/tools/rdc_json_check "$smoke_dir/metrics.json"
grep -q '"process.rss_bytes"' "$smoke_dir/metrics.json" || {
  echo "telemetry smoke: metrics snapshot lacks process.rss_bytes" >&2
  exit 1
}
grep -q '"espresso.calls"' "$smoke_dir/metrics.json" || {
  echo "telemetry smoke: metrics snapshot lacks espresso.calls counter" >&2
  exit 1
}
if [[ -e "$smoke_dir/metrics.json.tmp" ]]; then
  echo "telemetry smoke: torn metrics snapshot (.tmp left behind)" >&2
  exit 1
fi
./build/tools/rdc_json_check --events "$smoke_dir/events.jsonl"
grep -q '"event": "pass.begin"' "$smoke_dir/events.jsonl" || {
  echo "telemetry smoke: no pass.begin event in the log" >&2
  cat "$smoke_dir/events.jsonl" >&2
  exit 1
}
grep -q '"event": "pipeline.end"' "$smoke_dir/events.jsonl" || {
  echo "telemetry smoke: no pipeline.end event in the log" >&2
  exit 1
}
# Prometheus exposition variant of the snapshotter.
RDC_METRICS="$smoke_dir/metrics.prom" \
  ./build/examples/rdcsyn_cli synth examples/fixtures/builtin.pla > /dev/null
grep -q '# TYPE rdc_process_rss_bytes gauge' "$smoke_dir/metrics.prom" || {
  echo "telemetry smoke: no Prometheus gauge exposition" >&2
  exit 1
}

echo
echo "== §14 crash-safe batch smoke: faults, retry, journaled resume =="
# Fault-armed reference run: job:kill:0.3 injects deterministic worker
# crashes keyed by job identity; --retries 3 absorbs them. Exit 0 or 3 (row
# failures) are both completed batches.
batch_pipeline="assign:ranking(0.5) | espresso | factor | aig | map:power"
faulted_run() { # <journal> <json> [extra args...]
  local journal="$1" json="$2"
  shift 2
  RDC_FAULT=job:kill:0.3 ./build/tools/rdc_batch examples/fixtures/*.pla \
    --pipeline "$batch_pipeline" --retries 3 --backoff-ms 1 \
    --journal "$journal" --json "$json" "$@" > /dev/null 2>&1
}
code=0; faulted_run "$smoke_dir/fault_a.journal" "$smoke_dir/fault_a.json" \
  || code=$?
[[ "$code" == 0 || "$code" == 3 ]] || {
  echo "batch fault smoke: reference run exited $code" >&2; exit 1
}
# Interrupt the same batch after 2 completions (exit 4: resumable), then
# resume from its journal. The fault draws replay identically, so the
# stitched report must match the uninterrupted one modulo wall-clock
# values and attempt counts — and the journal must show every job reaching
# exactly one terminal state (none lost, none run twice).
code=0; faulted_run "$smoke_dir/fault_b.journal" "$smoke_dir/fault_b1.json" \
  --stop-after 2 || code=$?
[[ "$code" == 4 ]] || {
  echo "batch fault smoke: interrupted run exited $code, want 4" >&2; exit 1
}
code=0; faulted_run "$smoke_dir/fault_b.journal" "$smoke_dir/fault_b2.json" \
  --resume || code=$?
[[ "$code" == 0 || "$code" == 3 ]] || {
  echo "batch fault smoke: resumed run exited $code" >&2; exit 1
}
python3 - "$smoke_dir/fault_a.json" "$smoke_dir/fault_b2.json" <<'EOF'
import json, sys
drop = ("attempts", "wall_ms", "total_ms")
rows = []
for path in sys.argv[1:3]:
    with open(path) as f:
        doc = json.load(f)
    rows.append([{k: v for k, v in r.items() if k not in drop}
                 for r in doc["rows"]])
assert rows[0], "batch fault smoke compared empty row sets"
assert rows[0] == rows[1], "resumed report rows differ from uninterrupted run"
EOF
./build/tools/rdc_json_check --journal "$smoke_dir/fault_b.journal"

# A worker segfault must become an INTERNAL row plus a job.crash event
# while the batch completes (exit 3: finished with row failures).
code=0
RDC_FAULT=job:segv:1@1 RDC_EVENTS="$smoke_dir/fault_events.jsonl" \
  ./build/tools/rdc_batch examples/fixtures/*.pla \
  --pipeline "assign:zero | espresso" \
  --json "$smoke_dir/fault_segv.json" > /dev/null 2>&1 || code=$?
[[ "$code" == 3 ]] || {
  echo "batch fault smoke: segv batch exited $code, want 3" >&2; exit 1
}
grep -qF '"status": "INTERNAL"' "$smoke_dir/fault_segv.json" || {
  echo "batch fault smoke: no INTERNAL row for the segfaults" >&2; exit 1
}
grep -qF '"event": "job.crash"' "$smoke_dir/fault_events.jsonl" || {
  echo "batch fault smoke: no job.crash event" >&2; exit 1
}
./build/tools/rdc_json_check --events "$smoke_dir/fault_events.jsonl"

# Transient crash + retry: every first attempt dies, every retry succeeds.
RDC_FAULT=job:kill:1@1 ./build/tools/rdc_batch examples/fixtures/builtin.pla \
  --pipeline "assign:zero | espresso" --retries 2 --backoff-ms 1 \
  --json "$smoke_dir/fault_retry.json" > /dev/null 2>&1 || {
  echo "batch fault smoke: retry did not recover the killed first attempt" >&2
  exit 1
}

# A worker segfault on every first attempt is absorbed by --retries 2,
# and every row records it.
RDC_FAULT=job:segv:1@1 \
  ./build/tools/rdc_batch examples/fixtures/*.pla \
  --pipeline "assign:ranking(0.75) | espresso | factor | aig | resyn | map:power | analyze | error_rate" \
  --retries 2 --json "$smoke_dir/segv_retry.json" > /dev/null 2>&1 || {
  echo "batch fault smoke: rdc_batch did not recover the segfaults" >&2
  exit 1
}
python3 - "$smoke_dir/segv_retry.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rows = json.load(f)["rows"]
assert rows, "segv retry smoke: empty report"
assert all(r.get("attempts") == 2 for r in rows), rows
EOF

# Numeric flags must parse whole and fit their type: exit 2, no run.
for bad_flag in "--rss-mb inf" "--jobs 2x"; do
  code=0
  # shellcheck disable=SC2086  # flag and value split on purpose
  ./build/tools/rdc_batch examples/fixtures/builtin.pla \
    --pipeline "assign:zero | espresso" $bad_flag > /dev/null 2>&1 || code=$?
  [[ "$code" == 2 ]] || {
    echo "numeric-flag smoke: rdc_batch $bad_flag exited $code, want 2" >&2
    exit 1
  }
done

echo
echo "== §14 graceful-shutdown smoke: SIGTERM mid-batch =="
# Driver-owned: rdc_batch claims shutdown, kills its hung workers, leaves
# the journal resumable, and exits 4 after a process.shutdown event and a
# final metrics snapshot.
RDC_FAULT=job:hang:1 RDC_EVENTS="$smoke_dir/term_events.jsonl" \
RDC_METRICS="$smoke_dir/term_metrics.json:50" \
  ./build/tools/rdc_batch examples/fixtures/*.pla \
  --pipeline "assign:zero | espresso" --journal "$smoke_dir/term.journal" \
  --json "$smoke_dir/term.json" > /dev/null 2>&1 & batch_pid=$!
# rdc_batch claims shutdown before it forks, so TERM goes out as soon as
# the journal shows a worker running (up to 10 s, every 50 ms).
for _ in $(seq 200); do
  grep -qF '"state": "running"' "$smoke_dir/term.journal" 2> /dev/null \
    && break
  sleep 0.05
done
kill -TERM "$batch_pid"
code=0; wait "$batch_pid" || code=$?
[[ "$code" == 4 ]] || {
  echo "shutdown smoke: rdc_batch exited $code, want 4" >&2; exit 1
}
grep -qF '"event": "process.shutdown"' "$smoke_dir/term_events.jsonl" || {
  echo "shutdown smoke: no process.shutdown event from the driver" >&2
  exit 1
}
./build/tools/rdc_json_check "$smoke_dir/term_metrics.json"

# Unowned: nobody claims the signal, so the metrics snapshotter flushes a
# final snapshot plus the terminating event and re-raises — the process
# dies with the conventional 128+15 status. TERM goes out as soon as the
# first snapshot exists (the snapshotter is running), so the smoke does not
# depend on how long the run itself would take.
printf '%s\n' "$smoke_dir/slow.pla" > "$smoke_dir/slow_list.txt"
RDC_METRICS="$smoke_dir/unowned_metrics.json:50" \
RDC_EVENTS="$smoke_dir/unowned_events.jsonl" \
  ./build/bench/bench_table1 --circuits "$smoke_dir/slow_list.txt" \
  > /dev/null 2>&1 & bench_pid=$!
for _ in $(seq 200); do
  [[ -e "$smoke_dir/unowned_metrics.json" ]] && break
  sleep 0.05
done
kill -TERM "$bench_pid"
code=0; wait "$bench_pid" || code=$?
[[ "$code" == 143 ]] || {
  echo "shutdown smoke: unowned run exited $code, want 143" >&2; exit 1
}
grep -qF '"event": "process.shutdown"' "$smoke_dir/unowned_events.jsonl" || {
  echo "shutdown smoke: snapshotter wrote no process.shutdown event" >&2
  exit 1
}
./build/tools/rdc_json_check "$smoke_dir/unowned_metrics.json"

echo
echo "== §15 serving smoke: rdcsynd admission, cache, drain =="
# Daemon 1: single executor, short I/O timeout. A warm-cache request pair
# must return byte-identical reports; malformed frames and a slow-loris
# client must get Status replies while the daemon keeps serving; SIGTERM
# with a request in flight must drain cleanly (exit 0, serve.drain event,
# final metrics snapshot with the cache-hit counter).
serve_sock="$smoke_dir/rdcsynd.sock"
RDC_METRICS="$smoke_dir/serve_metrics.json:50" \
RDC_EVENTS="$smoke_dir/serve_events.jsonl" \
  ./build/tools/rdcsynd --socket "$serve_sock" --threads 1 \
  --io-timeout-ms 400 --drain-ms 1000 \
  2> "$smoke_dir/rdcsynd.log" & serve_pid=$!
./build/tools/rdcsyn_client ping --socket "$serve_sock" --wait-ms 10000 \
  > /dev/null
./build/tools/rdcsyn_client run examples/fixtures/builtin.pla \
  --socket "$serve_sock" --pipeline "assign:zero | espresso" \
  --json "$smoke_dir/serve_cold.json" > /dev/null
# Same request, pipeline spelled without spaces: canonicalization means it
# still hits, and the reply bytes must match the cold run exactly.
./build/tools/rdcsyn_client run examples/fixtures/builtin.pla \
  --socket "$serve_sock" --pipeline "assign:zero|espresso" \
  --json "$smoke_dir/serve_warm.json" > /dev/null
cmp "$smoke_dir/serve_cold.json" "$smoke_dir/serve_warm.json" || {
  echo "serving smoke: warm cache reply differs from the cold run" >&2
  exit 1
}
./build/tools/rdc_json_check "$smoke_dir/serve_cold.json" \
  schema phases metrics
# Malformed frame: the reply must be a framed kInvalidArgument (code 1),
# then a close — never a crash.
python3 - "$serve_sock" <<'EOF'
import socket, struct, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b"NOT A FRAME AT ALL")
s.settimeout(10)
reply = b""
while True:
    try:
        chunk = s.recv(4096)
    except socket.timeout:
        sys.exit("serving smoke: no reply to a malformed frame")
    if not chunk:
        break
    reply += chunk
assert reply[:4] == b"RDCS" and reply[4] == 1, reply[:16]
assert reply[5] == 3, f"want error-reply frame type 3, got {reply[5]}"
body = reply[10:10 + struct.unpack("<I", reply[6:10])[0]]
assert body[0] == 1, f"want INVALID_ARGUMENT (1), got {body[0]}"
EOF
# Slow-loris: a partial header must be cut on the read deadline with a
# framed kDeadlineExceeded (code 3), not held open forever.
python3 - "$serve_sock" <<'EOF'
import socket, struct, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b"RDCS")  # valid magic, then stall mid-header
s.settimeout(10)
reply = b""
while True:
    try:
        chunk = s.recv(4096)
    except socket.timeout:
        sys.exit("serving smoke: slow-loris connection was never cut")
    if not chunk:
        break
    reply += chunk
assert reply[:4] == b"RDCS" and reply[5] == 3, reply[:16]
body = reply[10:10 + struct.unpack("<I", reply[6:10])[0]]
assert body[0] == 3, f"want DEADLINE_EXCEEDED (3), got {body[0]}"
EOF
# Still serving after both attacks.
./build/tools/rdcsyn_client ping --socket "$serve_sock" --wait-ms 5000 \
  > /dev/null
# SIGTERM with a long request in flight: the drain lets it finish or
# cancels it at the deadline, and the daemon exits 0 either way.
./build/tools/rdcsyn_client run "$smoke_dir/slow.pla" \
  --socket "$serve_sock" --pipeline "assign:zero | espresso" --retries 1 \
  > /dev/null 2>&1 & slow_client_pid=$!
sleep 0.5
kill -TERM "$serve_pid"
code=0; wait "$serve_pid" || code=$?
[[ "$code" == 0 ]] || {
  echo "serving smoke: rdcsynd exited $code after SIGTERM, want 0" >&2
  cat "$smoke_dir/rdcsynd.log" >&2
  exit 1
}
wait "$slow_client_pid" || true
grep -qF '"event": "serve.drain"' "$smoke_dir/serve_events.jsonl" || {
  echo "serving smoke: no serve.drain event" >&2; exit 1
}
./build/tools/rdc_json_check --events "$smoke_dir/serve_events.jsonl"
./build/tools/rdc_json_check "$smoke_dir/serve_metrics.json"
grep -qF '"serve.cache.hit": 1' "$smoke_dir/serve_metrics.json" || {
  echo "serving smoke: final metrics snapshot lacks the cache hit" >&2
  exit 1
}
# Daemon 2: a zero-depth admission queue sheds every request with
# RESOURCE_EXHAUSTED — bounded rejection, not unbounded buffering.
./build/tools/rdcsynd --socket "$serve_sock" --queue 0 \
  2>> "$smoke_dir/rdcsynd.log" & serve_pid=$!
./build/tools/rdcsyn_client ping --socket "$serve_sock" --wait-ms 10000 \
  > /dev/null
code=0
./build/tools/rdcsyn_client run examples/fixtures/builtin.pla \
  --socket "$serve_sock" --pipeline "assign:zero | espresso" \
  > /dev/null 2> "$smoke_dir/serve_shed.txt" || code=$?
[[ "$code" == 3 ]] || {
  echo "serving smoke: shed request exited $code, want 3 (error reply)" >&2
  exit 1
}
grep -q "RESOURCE_EXHAUSTED" "$smoke_dir/serve_shed.txt" || {
  echo "serving smoke: shed reply is not RESOURCE_EXHAUSTED" >&2
  cat "$smoke_dir/serve_shed.txt" >&2
  exit 1
}
kill -TERM "$serve_pid"
code=0; wait "$serve_pid" || code=$?
[[ "$code" == 0 ]] || {
  echo "serving smoke: idle rdcsynd exited $code after SIGTERM, want 0" >&2
  exit 1
}

echo
echo "== perf-regression gate: rdc_perf_diff =="
# Identity self-check: the committed SIMD baseline diffed against itself
# must pass at threshold 0 (byte-deterministic comparator, strict '>').
./build/tools/rdc_perf_diff BENCH_simd.json BENCH_simd.json --threshold 0 \
  > /dev/null
# Synthetic ~25% slowdown fixture must fail at the 10% noise threshold.
if ./build/tools/rdc_perf_diff \
     tools/fixtures/perf_diff/baseline.json \
     tools/fixtures/perf_diff/regressed.json --threshold 10 > /dev/null; then
  echo "perf gate: synthetic regression fixture was not flagged" >&2
  exit 1
fi

echo
echo "== bench smoke: SIMD kernel and lower-half snapshots validate =="
# A cut-down run of the BENCH_simd.json recipe (the checked-in artifact is
# produced by bench/run_bench_baseline.sh build BENCH_simd.json): the
# snapshot must be a structurally valid rdc.bench.report.v1 document that
# records which backend produced it.
./build/bench/bench_micro \
  --benchmark_filter='BM_(ExactErrorRate|SampledErrorRate)/16$' \
  --benchmark_min_time=0.05 \
  --json "$smoke_dir/bench_simd.json" > /dev/null
./build/tools/rdc_json_check "$smoke_dir/bench_simd.json" \
  schema suite git_rev date threads compiler simd rows counters
# The lower half of the flow, one layer each: tree mapping, the netlist
# simulation behind `analyze`, and factoring.
./build/bench/bench_micro \
  --benchmark_filter='BM_(MapAig|NetProbabilities|Factor)/10$' \
  --benchmark_min_time=0.05 \
  --json "$smoke_dir/bench_lower.json" > /dev/null
./build/tools/rdc_json_check "$smoke_dir/bench_lower.json" \
  schema suite git_rev date threads compiler simd rows counters

if [[ "$run_sanitizers" == "1" ]]; then
  echo
  echo "== ASan+UBSan build of the unit tests =="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRDC_ENABLE_FUZZERS=ON \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
  cmake --build build-asan -j --target rdcsyn_tests \
    fuzz_pla fuzz_blif fuzz_aiger fuzz_json fuzz_pipeline_spec fuzz_journal \
    fuzz_serve_frame
  (cd build-asan && ctest --output-on-failure -j)
  echo
  echo "== fuzz corpus replay (ASan+UBSan build) =="
  run_fuzzers build-asan
fi

echo
echo "All checks passed."
