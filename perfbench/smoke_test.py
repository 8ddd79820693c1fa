#!/usr/bin/env python3
"""Smoke self-test of the consensus benchmark at tiny sizes.

Runs every workload for a fraction of a second in both modes through
perfbench/run.py and asserts that each metric named in BENCHMARK.json is
printed with a unit, that failed_ratio is printed and 0, and that the run
reports no failed instance. Run from the repository root:

    python3 perfbench/smoke_test.py
"""
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "0.3"


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}"
    return proc.stdout.splitlines()


def table(lines):
    """The human-readable 'name value unit' lines."""
    rows = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            rows[parts[0]] = (float(parts[1]), parts[2])
    return rows


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        names = [m["name"] for m in manifest[section]]
        for workload in WORKLOADS:
            lines = run(workload, trace)
            assert lines[0].startswith("# build=Release"), lines[0]
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == names, result["metrics"].keys()
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
                assert m["unit"], f"{name} has no unit"
            if trace == 0:
                assert table(lines)["failed_ratio"] == (0.0, "ratio")
            print(f"ok  {workload:22s} trace={trace}  {len(names)} metrics")
    print("smoke test passed")


if __name__ == "__main__":
    main()
