"""Each benchmark workload, at its tiny size, checks every output it makes.

The harness compares traces, CSVs and DIMACS files against recorded
digests, so a byte change anywhere in them fails here as well as in the
benchmark run. Each workload also runs traced, with the per-layer tracer
wrapping the kcnf functions it names, so that a renamed or deleted one
fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload, trace", [
    param for w in WORKLOADS
    for param in (pytest.param(w, "0", id=w),
                  pytest.param(w, "1", id=f"{w}-traced"))])
def test_tiny_workload_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", trace, "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
