#!/usr/bin/env python3
"""Consensus benchmark command.

Builds chc_perfbench (Release) from the repository sources, runs one
workload and prints its metrics. Run from the repository root:

    python3 perfbench/run.py --workload svc-d2-mixed --seed 1 --seconds 50 --trace 0

Workloads: svc-d2-mixed and sim-d3-n8 (the two BENCHMARK.json gates), and
nemesis-fuzz-checked and live-loopback-d2 (same metrics, not gated).
With --trace 0 the last line is a JSON object holding the end-to-end
metrics named in BENCHMARK.json; with --trace 1 the per-layer ones. The
lines before it are the build stamp and every metric the run measured.
Default seed 1; seed 2 is held out for confirming claims.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root). Exit status: 0 when every output was correct,
1 on a wrong output or a build / run error, 2 on bad arguments.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("svc-d2-mixed", "sim-d3-n8", "nemesis-fuzz-checked",
             "live-loopback-d2")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "chc_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "chc_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    names = [m["name"] for m in
             manifest["per_layer" if args.trace else "end_to_end"]]

    binary = build()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran longer than {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"chc_perfbench exited with status {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
