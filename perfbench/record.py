#!/usr/bin/env python3
"""Record the output digests the benchmark checks against.

    python3 perfbench/record.py

Runs every command of every workload at both sizes once, with every K of
the threshold trace windows, and writes perfbench/expected.json. The
invariant checks (pins, 1/e floor, required_s, widths, caps, UNSAT) still
run and must pass. Run it only at a commit whose outputs are known good:
the digests are what later commits are held to, byte for byte.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {}
    expected = workloads.Expected(digests, record=True)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        os.chdir(workdir)
        kcnf = run.import_kcnf()
        for size_name, sizes in workloads.SIZES.items():
            for workload in workloads.WORKLOADS:
                size = dict(sizes[workload])
                if "trace_windows" in size:
                    size["trace_windows"] = [
                        (k, k) for lo, hi in size["trace_windows"]
                        for k in range(lo, hi + 1)]
                inputs = workloads.SETUP[workload](kcnf, 0, size)
                tally = run.Tally(expected)
                tally.check(run.run_pass(kcnf, inputs.commands))
                if tally.failed:
                    print("\n".join(tally.messages), file=sys.stderr)
                    return 1
                print(f"{size_name} {workload}: {tally.attempted} commands")
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
