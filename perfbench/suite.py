#!/usr/bin/env python3
"""Run every workload in both trace modes, print every metric, check them.

    python3 perfbench/suite.py                        # smoke: tiny sizes, seconds
    python3 perfbench/suite.py --size full --seconds 30 --seed 1

Each workload runs in a fresh run.py process, untraced and traced. The
suite prints each run's lines (stage seconds, fail_ratio, counters) and
every metric of its result line by name and unit, and fails unless:

- the result line has exactly the keys correct, attempted, failed, metrics;
- every output check passed;
- the metric names and units are exactly those in BENCHMARK.json;
- a second traced run with the same seed repeats every work counter;
- a copy of only BENCHMARK.json and perfbench/ makes run.py fail without
  printing a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(root: Path, args, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace),
         "--size", args.size],
        cwd=root, capture_output=True, text=True, timeout=300)


def result(proc, what: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{what}: result keys {sorted(last)}")
    if not last["correct"] or last["failed"] or last["attempted"] < 1:
        raise SystemExit(f"{what}: output checks failed\n{proc.stderr}")
    for line in lines[:-1]:
        print(f"  {line}")
    for name, metric in last["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    return last


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("tiny", "full"), default="tiny")
    parser.add_argument("--seconds", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        counts = []
        for trace in (0, 1, 1):
            what = f"{workload} --trace {trace}"
            print(what)
            metrics = result(bench(ROOT, args, workload, trace), what)["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != wanted[trace]:
                raise SystemExit(f"{what}: metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(got) ^ set(wanted[trace]))}")
            if not all(isinstance(m["value"], (int, float))
                       for m in metrics.values()):
                raise SystemExit(f"{what}: a metric value is not a number")
            if trace:
                counts.append({n: m["value"] for n, m in metrics.items()
                               if m["unit"] != "s"})
        if counts[0] != counts[1]:
            raise SystemExit(f"{workload}: work counters differ between runs")
        print(f"ok {workload}: checks pass, counters repeat")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, args, "threshold", 0)
        if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
            raise SystemExit("without src/ the benchmark must fail, no result")
    finally:
        shutil.rmtree(bare)
    print("ok without src/ the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
