"""The three workloads: inputs drawn from the seed, the CLI commands of one
pass, and the checks every command's output must pass.

Each workload stresses a different layer and leaves the others nearly idle:

  threshold  the frontier fixpoint (f2-table, f2 --emit-trace)
  refute     the CDCL solver (verify --solve) on two input families
  build      formula construction, DIMACS write/read and the census

A pass is the list of commands one user would run for that job. Every
command is checked after the pass, outside the timed region, against the
digests recorded at commit 15da0e6 in expected.json and against the
paper's invariants (pinned f2 values, the 1/e floor, required_s ==
f2(k)+1, width uniformity, occurrence caps, UNSAT).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# f2 pins from tests/test_dp.py: 1..3 classical, the rest cross-checked
# against the exhaustive oracle up to k = 6 and frozen beyond.
F2_PINS = {
    1: 1, 2: 2, 3: 4, 4: 8, 5: 14, 6: 26, 7: 44, 8: 80, 9: 134, 10: 244,
    11: 468, 12: 916, 14: 3282, 16: 12004, 20: 160866, 24: 2201716,
    28: 28824004, 32: 394115624, 64: 1010075240478515624,
    96: 2990436453502678619598885390,
}

# Sizes per workload. "full" is what the benchmark measures; "tiny" runs the
# same code paths in well under a second for the smoke check.
#   table_to        f2-table --k-from 1 --k-to table_to
#   trace_windows   one f2 --emit-trace K per window, K drawn by the seed;
#                   narrow windows keep the work nearly seed-independent
#   witnesses       (k, copies): the witness at s = f2(k)+1, relabelled
#                   `copies` times by the seed
#   blocks          (method, k, l): closed-form blocks, relabelled once
#   materialize     (k, s) witnesses built and verified
#   construct       (method, k) with the CLI's default l, built and verified
SIZES = {
    "full": {
        "threshold": {"table_to": 48,
                      "trace_windows": [(61, 64), (79, 82), (93, 96)]},
        "refute": {"witnesses": [(4, 1), (5, 6)],
                   "blocks": [("lemma1", 11, 3), ("lemma2", 9, 1)]},
        "build": {"materialize": [(7, 45)],
                  "construct": [("lemma1", 11), ("lemma2", 11)]},
    },
    "tiny": {
        "threshold": {"table_to": 12, "trace_windows": [(16, 17)]},
        "refute": {"witnesses": [(3, 1), (4, 2)],
                   "blocks": [("lemma1", 6, 2), ("lemma2", 6, 1)]},
        "build": {"materialize": [(5, 15)],
                  "construct": [("lemma1", 7), ("lemma2", 7)]},
    },
}

WORKLOADS = ("threshold", "refute", "build")

class CheckFailure(Exception):
    """A command's output disagrees with the recorded or derived truth."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Command:
    """One CLI invocation and the check its output must pass.

    check(stdout, rc, expected) raises CheckFailure or returns the
    deterministic work counters the output shows (n, m, bytes, nodes).
    label keys the recorded digests in expected.json.
    """

    stage: str                       # the stage metric it counts toward
    label: str
    argv: List[str]
    check: Callable[[str, int, "Expected"], Dict[str, int]]
    family: Optional[str] = None     # tags solver work in the traced run


@dataclass
class Inputs:
    """What set-up produced: the command list of one pass."""

    commands: List[Command] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailure(what)


class Expected:
    """Output digests recorded at a known-good commit, keyed by command label.

    With record=True (record.py) match() stores digests instead of
    comparing them.
    """

    def __init__(self, digests: Dict[str, Dict[str, str]], record: bool = False):
        self.digests = digests
        self.record = record

    def match(self, label: str, key: str, text: str) -> None:
        got = digest(text)
        if self.record:
            self.digests.setdefault(label, {})[key] = got
            return
        want = self.digests.get(label, {}).get(key)
        _expect(want is not None, f"{label}: no recorded {key} digest")
        _expect(want == got, f"{label}: {key} digest differs from the "
                f"recorded one")


def _rc0(label: str, rc: int) -> None:
    _expect(rc == 0, f"{label}: exit code {rc}")


def _dimacs_shape(text: str, k: int, cap: int, label: str) -> Dict[str, int]:
    """Independent width and occurrence scan of a DIMACS text."""
    occ: Dict[str, int] = {}
    n = m = None
    clauses = 0
    for line in text.splitlines():
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            _, _, n, m = line.split()
            continue
        lits = line.split()
        _expect(lits[-1] == "0", f"{label}: unterminated clause line")
        _expect(len(lits) - 1 == k, f"{label}: clause of width "
                f"{len(lits) - 1}, expected {k}")
        for lit in lits[:-1]:
            v = lit.lstrip("-")
            occ[v] = occ.get(v, 0) + 1
        clauses += 1
    _expect(m is not None and int(m) == clauses, f"{label}: header says "
            f"{m} clauses, body has {clauses}")
    worst = max(occ.values(), default=0)
    _expect(worst <= cap, f"{label}: a variable occurs {worst} times, "
            f"cap {cap}")
    return {"n": int(n), "m": clauses, "bytes": len(text), "max_occ": worst}


def _verify_lines(stdout: str) -> Dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# threshold


def _table_check(path: str, k_to: int):
    label = f"table:1-{k_to}"

    def check(stdout: str, rc: int, expected: Expected) -> Dict[str, int]:
        _rc0(label, rc)
        text = _read(path)
        rows = text.splitlines()[1:]
        _expect(len(rows) == k_to, f"{label}: {len(rows)} rows")
        for row in rows:
            k, f2, norm = row.split(",")[:3]
            k, f2 = int(k), int(f2)
            _expect(F2_PINS.get(k, f2) == f2, f"{label}: f2({k}) = {f2}, "
                    f"pinned {F2_PINS.get(k)}")
            _expect(f2 * k / 2 ** k >= 1 / math.e,
                    f"{label}: f2({k}) normalized {norm} is below 1/e")
        expected.match(label, "csv", text)
        return {"bytes": len(text), "rows": len(rows)}

    return check


def _trace_check(path: str, k: int, kcnf):
    label = f"f2:{k}"

    def check(stdout: str, rc: int, expected: Expected) -> Dict[str, int]:
        _rc0(label, rc)
        f2 = int(stdout.strip())
        _expect(F2_PINS.get(k, f2) == f2, f"{label}: f2 = {f2}, pinned "
                f"{F2_PINS.get(k)}")
        text = _read(path)
        trace = kcnf.calculus.parse_trace(text)
        ann = kcnf.calculus.annotate_trace(trace, k)
        _expect(ann.required_s == f2 + 1, f"{label}: trace needs "
                f"s = {ann.required_s}, expected f2 + 1 = {f2 + 1}")
        expected.match(label, "stdout", stdout)
        expected.match(label, "trace", text)
        ops = [node.op for node in trace.nodes]
        return {"nodes": len(ops), "split_nodes": ops.count("SPLIT"),
                "compose_nodes": ops.count("COMPOSE"), "bytes": len(text)}

    return check


def threshold(kcnf, seed: int, size: dict) -> Inputs:
    rng = random.Random(seed)
    ks = [rng.randint(lo, hi) for lo, hi in size["trace_windows"]]
    k_to = size["table_to"]
    inputs = Inputs(notes={"table_to": k_to, "trace_k": ks})
    inputs.commands.append(Command(
        "table_s", f"table:1-{k_to}",
        ["f2-table", "--k-from", "1", "--k-to", str(k_to), "--out", "table.csv"],
        _table_check("table.csv", k_to)))
    for k in ks:
        path = f"trace_{k}.txt"
        inputs.commands.append(Command(
            "trace_s", f"f2:{k}",
            ["f2", "--k", str(k), "--emit-trace", path],
            _trace_check(path, k, kcnf)))
    return inputs


# ---------------------------------------------------------------------------
# refute


def _relabel(kcnf, formula, rng: random.Random):
    """Permute variable ids; labels drive the solver's tie-breaks."""
    old = sorted(formula.vars)
    new = old[:]
    rng.shuffle(new)
    return kcnf.formula.rename(formula, dict(zip(old, new)))


def _verify_check(label: str, k: int, cap: int, solve: bool):
    def check(stdout: str, rc: int, expected: Expected) -> Dict[str, int]:
        report = _verify_lines(stdout)
        if solve:
            _expect(report.get("solver") == "UNSAT",
                    f"{label}: solver = {report.get('solver')}")
        _expect(report.get(f"width_uniform_k{k}") == "yes",
                f"{label}: not width-uniform at k = {k}")
        _expect(report.get("occurrence_cap") == f"{cap} (ok)",
                f"{label}: occurrence cap {cap} not met")
        _rc0(label, rc)
        expected.match(label, "stdout", stdout)
        return {"n": int(report["n"]), "m": int(report["m"])}

    return check


def refute(kcnf, seed: int, size: dict) -> Inputs:
    rng = random.Random(seed)
    inputs = Inputs()
    instances = []
    for k, copies in size["witnesses"]:
        s = kcnf.dp.f2_value(k) + 1
        formula = kcnf.dp.materialize(kcnf.dp.feasible(k, s), k, s)
        instances += [("witness", f"witness:{k}", k, s, formula)] * copies
    for method, k, l in size["blocks"]:
        if method == "lemma1":
            formula, stats = kcnf.constructions.lemma1_build(k, l)
        else:
            formula, stats = kcnf.constructions.lemma2_build(k, l)[-1]
        instances.append(("block", f"{method}:{k}:{l}", k,
                          stats.max_occurrence, formula))
    for i, (family, name, k, cap, formula) in enumerate(instances):
        path = f"refute_{i}.cnf"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(kcnf.dimacs.write_dimacs(_relabel(kcnf, formula, rng)))
        label = f"verify:{name}"
        inputs.commands.append(Command(
            f"refute_{family}_s", label,
            ["verify", path, "--k", str(k), "--max-occ", str(cap), "--solve"],
            _verify_check(label, k, cap, solve=True), family=family))
    inputs.notes["instances"] = [name for _, name, *_ in instances]
    return inputs


# ---------------------------------------------------------------------------
# build


def _built_check(label: str, path: str, k: int, cap: int):
    """Check a materialize/construct run: stats, file digest and shape."""
    def check(stdout: str, rc: int, expected: Expected) -> Dict[str, int]:
        _rc0(label, rc)
        stats = dict(line.split("=", 1) for line in stdout.splitlines()
                     if "=" in line)
        text = _read(path)
        shape = _dimacs_shape(text, k, cap, label)
        _expect(int(stats["n"]) == shape["n"] and int(stats["m"]) == shape["m"],
                f"{label}: reported n, m differ from the file")
        expected.match(label, "stdout", stdout)
        expected.match(label, "dimacs", text)
        return shape

    return check


def build(kcnf, seed: int, size: dict) -> Inputs:
    """The seed is unused: inputs are fixed by (k, s) and (method, k)."""
    inputs = Inputs()
    for k, s in size["materialize"]:
        path = f"witness_{k}_{s}.cnf"
        label = f"materialize:{k}:{s}"
        inputs.commands.append(Command(
            "materialize_s", label,
            ["materialize", "--k", str(k), "--s", str(s), "--out", path],
            _built_check(label, path, k, s)))
        inputs.commands.append(Command(
            "verify_s", f"verify:{label}",
            ["verify", path, "--k", str(k), "--max-occ", str(s)],
            _verify_check(f"verify:{label}", k, s, solve=False)))
    for method, k in size["construct"]:
        path = f"{method}_{k}.cnf"
        label = f"construct:{method}:{k}"
        cap = _construct_cap(kcnf, method, k)
        inputs.commands.append(Command(
            "construct_s", label,
            ["construct", "--method", method, "--k", str(k), "--out", path],
            _built_check(label, path, k, cap)))
        inputs.commands.append(Command(
            "verify_s", f"verify:{label}",
            ["verify", path, "--k", str(k), "--max-occ", str(cap)],
            _verify_check(f"verify:{label}", k, cap, solve=False)))
    return inputs


def _construct_cap(kcnf, method: str, k: int) -> int:
    """Closed-form occurrence bound at the l the CLI picks by default."""
    l = max(1, kcnf.constructions.recommended_l(k, method))
    if method == "lemma1":
        return kcnf.constructions.lemma1_stats(k, l).max_occurrence
    return kcnf.constructions.lemma2_stage_stats(k, l)[-1].max_occurrence


SETUP = {"threshold": threshold, "refute": refute, "build": build}
