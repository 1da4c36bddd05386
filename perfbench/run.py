#!/usr/bin/env python3
"""kcnf benchmark: one workload, one process, one closed-loop caller.

Run from the root of a checkout (stdlib only, nothing to install):

    python3 perfbench/run.py --workload threshold --seed 1 --seconds 20 --trace 0

It imports kcnf from src/ and drives the CLI in-process through
kcnf.cli.run(argv), pass after pass, until --seconds have gone by; each
pass runs the workload's commands one after another and every output is
checked after the pass. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (job_s, setup_s,
peak_rss_mb). With --trace 1 untraced and traced passes alternate, and the
metrics are the per-layer ones from the traced passes plus the tracing
overhead. Lines before the last name the machine, the seed and the inputs,
each stage's seconds, fail_ratio and the deterministic work counters.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5
MIN_PASSES = 3

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_FUNCS = ("dp.f2_value", "dp.feasible", "dp.materialize",
          "calculus.serialize_trace", "calculus.parse_trace",
          "calculus.annotate_trace", "calculus.split", "calculus.compose",
          "formula.product", "formula.fresh_copy", "formula.occurrence_census",
          "constructions.lemma1_build", "constructions.lemma2_build",
          "dimacs.write_dimacs", "dimacs.read_dimacs",
          "solver.solve.witness", "solver.solve.block")
PER_LAYER = {}
for _f in _FUNCS:
    PER_LAYER[f"{_f}.calls"] = "count"
    PER_LAYER[f"{_f}.busy_s"] = "s"
for _f in ("dimacs.write_dimacs", "dimacs.read_dimacs"):
    PER_LAYER[f"{_f}.bytes"] = "bytes"
for _f in ("solver.solve.witness", "solver.solve.block"):
    PER_LAYER[f"{_f}.decisions"] = "count"
    PER_LAYER[f"{_f}.propagations"] = "count"
PER_LAYER.update({"trace.nodes": "count", "trace.split_nodes": "count",
                  "trace.compose_nodes": "count", "trace.bytes": "bytes",
                  "cli.run.calls": "count", "cli.run.self_s": "s"})
for _layer in LAYERS[1:]:     # the cli layer's self time is cli.run.self_s
    PER_LAYER[f"{_layer}.self_s"] = "s"
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.errors"] = "count"
PER_LAYER.update({"tracing.untraced_job_s": "s", "tracing.traced_job_s": "s",
                  "tracing.overhead_s": "s", "tracing.self_sum_s": "s"})


def import_kcnf():
    """Import kcnf afresh from this checkout's src/ (never an installed one)."""
    for name in [n for n in sys.modules if n == "kcnf" or n.startswith("kcnf.")]:
        del sys.modules[name]
    kcnf = importlib.import_module("kcnf")
    importlib.import_module("kcnf.cli")
    if Path(kcnf.__file__).resolve().parent != SRC / "kcnf":
        raise ImportError(f"kcnf imported from {kcnf.__file__}, not {SRC}")
    return kcnf


def run_pass(kcnf, commands, tracer=None):
    """Run every command once; [(command, seconds, rc, stdout, stderr)]."""
    gc.collect()
    results = []
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.family = cmd.family
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = kcnf.cli.run(cmd.argv)
        except Exception:   # a traceback out of the CLI is a failed operation
            rc = None
            err.write(traceback.format_exc())
        results.append((cmd, time.perf_counter() - t0, rc, out.getvalue(),
                        err.getvalue()))
    return results


class Tally:
    """Attempted and failed operations, plus the counters of the first pass."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.counters = None
        self.messages = []

    def check(self, results):
        counters = []
        for cmd, _, rc, stdout, stderr in results:
            self.attempted += 1
            try:
                if rc is None:
                    raise workloads.CheckFailure(f"raised\n{stderr}")
                counters.append([cmd.label, cmd.check(stdout, rc, self.expected)])
            except Exception as exc:   # any bad output fails this operation only
                self.failed += 1
                self.messages.append(f"{cmd.label}: {type(exc).__name__}: {exc}")
                counters.append([cmd.label, None])
        if self.counters is None:
            self.counters = counters
        elif counters != self.counters:
            self.failed += 1
            self.messages.append("work counters differ between passes")


def median_line(name, values, unit, what="passes"):
    return (f"{name} = {statistics.median(values):.6g} {unit} (median of "
            f"{len(values)} {what}, min {min(values):.6g}, max "
            f"{max(values):.6g})")


def machine(seed):
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "kcnf").glob("*.py")):
        src_digest.update(path.read_bytes())
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": git_commit(),
            "src_sha256": src_digest.hexdigest(), "seed": seed}


def git_commit():
    """HEAD from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(args, kcnf, inputs, tally):
    """The timed loop; returns the metrics for the result line."""
    stages = dict.fromkeys(cmd.stage for cmd in inputs.commands)
    deadline = time.perf_counter() + args.seconds
    untraced, traced, layers = [], [], []
    tracer = Tracer() if args.trace else None
    while (time.perf_counter() < deadline or len(untraced) < MIN_PASSES
           or (tracer and len(traced) < MIN_PASSES)):
        use_tracer = tracer is not None and len(traced) < len(untraced)
        if use_tracer:
            tracer.install()
            try:
                results = run_pass(kcnf, inputs.commands, tracer)
            finally:
                tracer.remove()
            traced.append(sum(r[1] for r in results))
            layers.append(tracer.take())
        else:
            results = run_pass(kcnf, inputs.commands)
            untraced.append(results)
        tally.check(results)

    for stage in stages:
        print(median_line(stage, [sum(r[1] for r in res if r[0].stage == stage)
                                  for res in untraced], "s"))
    jobs = [sum(r[1] for r in res) for res in untraced]
    print(median_line("job_s", jobs, "s"))
    if tracer is None:
        return {"job_s": statistics.median(jobs)}
    return layer_metrics(layers, jobs, traced, tally)


def layer_metrics(layers, untraced_jobs, traced_jobs, tally):
    """Per-layer medians over the traced passes, plus the tracing overhead."""
    metrics = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            metrics[name] = statistics.median(p.get(name, 0) for p in layers)
        else:   # work counters must repeat exactly
            metrics[name] = layers[0].get(name, 0)
            if any(p.get(name, 0) != metrics[name] for p in layers):
                tally.failed += 1
                tally.messages.append(f"{name} differs between traced passes")
    untraced = metrics["tracing.untraced_job_s"] = statistics.median(untraced_jobs)
    traced = metrics["tracing.traced_job_s"] = statistics.median(traced_jobs)
    overhead = metrics["tracing.overhead_s"] = traced - untraced
    self_sum = metrics["tracing.self_sum_s"] = statistics.median(
        sum(p.get(f"{layer}.self_s", 0) for layer in LAYERS) for p in layers)
    within = abs(self_sum - untraced) <= abs(overhead) + 0.02 * untraced
    print(f"self times: {self_sum:.6g} s summed over layers vs untraced job "
          f"{untraced:.6g} s; tracing overhead {overhead:.6g} s over "
          f"{len(traced_jobs)} traced passes: "
          f"{'within' if within else 'OUTSIDE'} the overhead")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny runs the smoke-check sizes")
    args = parser.parse_args(argv)

    if not (SRC / "kcnf" / "__init__.py").is_file():
        print(f"error: no kcnf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = workloads.Expected(json.load(fh))

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("machine: " + json.dumps(machine(args.seed)))
    size = workloads.SIZES[args.size][args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        os.chdir(workdir)
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            kcnf = import_kcnf()
            inputs = workloads.SETUP[args.workload](kcnf, args.seed, size)
            setups.append(time.perf_counter() - t0)
        print("inputs: " + json.dumps({**size, **inputs.notes}))
        tally = Tally(expected)
        metrics = measure(args, kcnf, inputs, tally)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    print(median_line("setup_s", setups, "s", "set-ups"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb = {rss_mb:.6g} MB")
    print(f"fail_ratio = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")
    print("counters: " + json.dumps(tally.counters))
    for message in tally.messages[:20]:
        print("FAIL " + message, file=sys.stderr)
    if not args.trace:
        metrics.update(setup_s=statistics.median(setups), peak_rss_mb=rss_mb)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
