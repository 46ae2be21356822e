#!/usr/bin/env python3
"""End-to-end benchmark of rdcsyn: builds perfbench and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all          # every workload, in turn

Builds perfbench/ (a CMake project that compiles the repository's library
from source) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs the workload. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the library sources (CMakeLists.txt, src/) are missing from "
             f"{ROOT}; run from a checkout of the repository")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run_one(binary, spec, workload, seed, seconds, trace):
    """Runs one workload, forwards its output, returns its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # Its own process group, so a timeout also stops the batch workers the
    # run forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result.keys()) != ["attempted", "correct", "failed", "metrics"] \
            or sorted(result["metrics"]) != sorted(expected):
        fail(f"{workload}: result line does not match BENCHMARK.json")
    return result


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    binary = build()
    workloads = names if args.workload == "all" else [args.workload]
    correct = True
    for workload in workloads:
        result = run_one(binary, spec, workload, args.seed, args.seconds,
                         args.trace)
        correct = correct and result["correct"]
    return 0 if correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
