"""Spans around calls into kcnf's public functions, recorded from outside.

No source file changes: install() swaps each traced function for a wrapper
in every kcnf module that holds a reference to it (the package re-exports
and the `from .x import y` names the CLI uses), and remove() swaps the
originals back. A span is (layer, name, start, end, parent, family,
error); spans stay in memory and are summarized once per pass.

A layer is a kcnf module. A span's self time is its duration minus the
time its child spans cover, so the self times of one pass add up to the
time spent inside cli.run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "dp", "calculus", "formula", "constructions", "dimacs",
          "solver")


def _solve_counts(args, result) -> Dict[str, int]:
    return {"decisions": result.decisions,
            "propagations": result.propagations}


def _trace_shape(args, result) -> Dict[str, int]:
    if result is None:
        return {}
    ops = [node.op for node in result.nodes]
    return {"trace.nodes": len(ops), "trace.split_nodes": ops.count("SPLIT"),
            "trace.compose_nodes": ops.count("COMPOSE")}


# (layer, function, counters(args, result) -> {name: count})
# Counter names without a dot are prefixed with the span's metric key.
TARGETS = [
    ("cli", "run", None),
    ("dp", "f2_value", None),
    ("dp", "feasible", _trace_shape),
    ("dp", "materialize", None),
    ("calculus", "serialize_trace",
     lambda args, result: {"trace.bytes": len(result)}),
    ("calculus", "parse_trace", None),
    ("calculus", "annotate_trace", None),
    ("calculus", "split", None),
    ("calculus", "compose", None),
    ("formula", "product", None),
    ("formula", "fresh_copy", None),
    ("formula", "occurrence_census", None),
    ("constructions", "lemma1_build", None),
    ("constructions", "lemma2_build", None),
    ("dimacs", "write_dimacs", lambda args, result: {"bytes": len(result)}),
    ("dimacs", "read_dimacs", lambda args, result: {"bytes": len(args[0])}),
    ("solver", "solve", _solve_counts),
    ("solver", "verify_instance", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.family: Optional[str] = None   # set by the caller per command
        self._swapped: List[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "kcnf" or name.startswith("kcnf.")]
        for layer, name, counters in TARGETS:
            orig = getattr(sys.modules[f"kcnf.{layer}"], name)
            wrapper = self._wrap(layer, name, orig, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._swapped.append((module, attr, orig))

    def remove(self) -> None:
        for module, attr, orig in reversed(self._swapped):
            setattr(module, attr, orig)
        self._swapped.clear()

    def _wrap(self, layer: str, name: str, fn: Callable,
              counters: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = [layer, name, time.perf_counter(), 0.0,
                    tracer.stack[-1] if tracer.stack else None,
                    tracer.family, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if layer == "cli" and result != 0:
                span[6] = True
            if counters is not None:
                key = _key(layer, name, span[5])
                for counter, value in counters(args, result).items():
                    full = counter if "." in counter else f"{key}.{counter}"
                    tracer.counts[full] += value
            return result

        return traced

    def take(self) -> Dict[str, float]:
        """Summarize and clear the spans recorded since the last take()."""
        child = [0.0] * len(self.spans)
        for layer, name, t0, t1, parent, family, error in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: Dict[str, float] = Counter()
        for i, (layer, name, t0, t1, parent, family, error) in \
                enumerate(self.spans):
            key = _key(layer, name, family)
            out[f"{key}.calls"] += 1
            out[f"{key}.busy_s"] += t1 - t0
            out[f"{key}.self_s"] += t1 - t0 - child[i]
            out[f"{layer}.self_s"] += t1 - t0 - child[i]
            out[f"{layer}.errors"] += error
        out.update(self.counts)
        self.spans.clear()
        self.counts.clear()
        return out


def _key(layer: str, name: str, family: Optional[str]) -> str:
    # solver work is split by input family so a change that helps one
    # family and costs the other shows up
    if layer == "solver" and name == "solve" and family:
        return f"solver.solve.{family}"
    return f"{layer}.{name}"
