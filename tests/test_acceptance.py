"""The acceptance gate: one test per criterion, reporting PASS or FAIL.

Each test prints a single `PASS`/`FAIL acceptance N: ...` line (visible with
-s, or in the failure output) and then asserts, so the -v test status is the
same verdict. Criterion 9's wall-clock budget assumes four cores; it is
normalized by the cores actually available, and its hard bound checks run
regardless of whether the table finished in time.
"""

import hashlib
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from kcnf.calculus import (
    CalculusError,
    annotate_trace,
    axiom,
    compose,
    split,
)
from kcnf.constructions import (
    lemma1_build,
    lemma2_build,
    lemma2_condition,
    lemma2_occurrence_bound,
    lll_lower_bound,
)
from kcnf.cli import run as cli_run
from kcnf.dp import f2_value, feasible, materialize, oracle_f2
from kcnf.formula import (
    Formula,
    VarAllocator,
    occurrence_census,
    product,
    width_partition,
)
from kcnf.solver import UNSAT, enumerate_models, solve

# upper bracket of e, enough digits that the 1/e comparison is exact
E_HI = Fraction(27182818284590452353602874713527, 10 ** 31)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} acceptance {num}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_01_exact_f2_values():
    bad = [f"k={k}" for k, want in ((1, 1), (2, 2), (3, 4))
           if f2_value(k) != want]
    bad += [f"oracle k={k}" for k in range(1, 7)
            if f2_value(k) != oracle_f2(k)]
    report(1, "exact f2 values, oracle-checked through k=6",
           not bad, "; ".join(bad))


def test_02_boundary_and_monotonicity():
    bad = []
    for k in range(1, 7):
        f2 = f2_value(k)
        if feasible(k, f2) is not None:
            bad.append(f"k={k} feasible at f2")
        if feasible(k, f2 + 1) is None:
            bad.append(f"k={k} infeasible at f2+1")
        for s in range(1, 2 ** k + 2):
            if (feasible(k, s) is not None) != (s > f2):
                bad.append(f"k={k} s={s} breaks monotone sweep")
    report(2, "thresholds sharp and monotone for k<=6",
           not bad, "; ".join(bad[:4]))


def test_03_soundness_rails():
    bad = [f"k={k}" for k in range(1, 65)
           if f2_value(k) < lll_lower_bound(k)]
    bad += [f"small k={k}" for k in range(1, 5) if f2_value(k) < k]
    report(3, "f2 above the local-lemma floor for k<=64",
           not bad, "; ".join(bad))


def test_04_block_construction():
    bad = []
    for k in range(1, 9):
        for l in range(1, k + 1):
            formula, stats = lemma1_build(k, l)
            u = k // l
            v = k - l * u
            n = k + u * (k - l)
            m = 2 ** v * (2 ** l - 1) ** u + u * 2 ** (k - l)
            s = 2 ** (k - l * u) * (2 ** l - 1) ** u + 2 ** (k - l)
            census = occurrence_census(formula)
            if not formula.is_width_uniform(k):
                bad.append(f"({k},{l}) width")
            got = (len(formula.vars), len(formula), census.max_occurrence)
            if got != (n, m, s):
                bad.append(f"({k},{l}) counts")
            if solve(formula).status != UNSAT:
                bad.append(f"({k},{l}) sat")
    f3, s3 = lemma1_build(3, 1)
    if (len(f3.vars), len(f3), s3.max_occurrence) != (9, 13, 5):
        bad.append("(3,1) spot check")
    report(4, "block construction exact and unsatisfiable for k<=8",
           not bad, "; ".join(bad[:4]))


def test_05_staged_construction():
    bad = []
    for k in range(1, 9):
        for l in range(0, k + 1):
            if not lemma2_condition(k, l):
                continue
            stages = lemma2_build(k, l)
            for j, (formula, stats) in enumerate(stages):
                if solve(formula).status != UNSAT:
                    bad.append(f"({k},{l}) stage {j} sat")
                if len(width_partition(formula, k).incomplete) > 2 ** (k - l):
                    bad.append(f"({k},{l}) stage {j} incomplete size")
            final_census = occurrence_census(stages[-1][0])
            if final_census.max_occurrence > lemma2_occurrence_bound(k, l):
                bad.append(f"({k},{l}) final occurrence")
    f4, s4 = lemma2_build(4, 1)[-1]
    if (len(f4.vars), len(f4), s4.max_occurrence) != (16, 33, 9):
        bad.append("(4,1) spot check")
    report(5, "staged construction within bounds and unsatisfiable for k<=8",
           not bad, "; ".join(bad[:4]))


def test_06_product_law():
    rng = random.Random(81)
    vars1, vars2 = [1, 2, 3, 4], [5, 6, 7, 8]
    joint = vars1 + vars2

    def sample(pool):
        clauses = []
        for _ in range(rng.randint(1, 4)):
            width = rng.randint(1, len(pool))
            chosen = rng.sample(pool, width)
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        return Formula(clauses)

    bad = 0
    for trial in range(200):
        f1, f2 = sample(vars1), sample(vars2)
        lhs = enumerate_models(product(f1, f2), joint)
        rhs = enumerate_models(f1, joint) | enumerate_models(f2, joint)
        if lhs != rhs:
            bad += 1
    report(6, "product models are the union of factor models (200 trials)",
           bad == 0, f"{bad} mismatches")


def test_07_composition_law():
    bad = []
    big = 10 ** 9
    for k in range(2, 6):
        for w1 in range(0, k - 1):
            for w2 in range(max(w1, 1), k):
                df1 = axiom(k)
                for _ in range(w1):
                    df1 = split(df1, big)
                alloc = VarAllocator()
                alloc.ensure_above(df1.formula.vars)
                df2 = axiom(k)
                for _ in range(w2):
                    df2 = split(df2, big, alloc=alloc)
                d = k - w2
                need = (2 ** d - 1) * df1.size + df2.size
                result = compose(df1, df2, big)
                if result.width < k and result.size != (2 ** d - 1) * df1.size:
                    bad.append(f"k={k} ({w1},{w2}) |G'|")
                # the d-variable guard block is allocated before the fresh
                # copies of df1, so it is the lowest-numbered new variables
                fresh = sorted(result.formula.vars
                               - df1.formula.vars - df2.formula.vars)
                census = occurrence_census(result.formula)
                if any(census.total[x] != need for x in fresh[:d]):
                    bad.append(f"k={k} ({w1},{w2}) block occurrence")
                if solve(result.formula).status != UNSAT:
                    bad.append(f"k={k} ({w1},{w2}) sat")

    # width-1 composed state at k=2, cap 3: the relaxed split overflows the
    # cap (shared variable reaches 4 occurrences) and the restricted rule
    # refuses it outright
    g = compose(axiom(2), split(axiom(2), 3), 3)
    overflow = split(g, 3, literal=True)
    if occurrence_census(overflow.formula).max_occurrence != 4:
        bad.append("counterexample census")
    try:
        split(g, 3)
        bad.append("restricted split accepted")
    except CalculusError:
        pass
    report(7, "composition sizes, block occurrences, and the split "
              "counterexample", not bad, "; ".join(bad[:4]))


def test_08_materialized_witnesses(tmp_path, capsys):
    bad = []
    for k in range(2, 6):
        s = f2_value(k) + 1
        trace = feasible(k, s)
        ann = annotate_trace(trace, k)
        if ann.required_s != s:
            bad.append(f"k={k} annotation requirement")
        # materialize checks every node's realized |F'| against the
        # annotation, so a successful build is the per-node equality proof
        try:
            materialize(trace, k, s)
        except Exception as exc:
            bad.append(f"k={k} materialize: {exc}")
        out = tmp_path / f"w{k}.cnf"
        code = cli_run(["materialize", "--k", str(k), "--s", str(s),
                        "--out", str(out)])
        if code != 0:
            bad.append(f"k={k} materialize exit {code}")
        code = cli_run(["verify", str(out), "--k", str(k),
                        "--max-occ", str(s), "--solve"])
        if code != 0:
            bad.append(f"k={k} verify exit {code}")
    capsys.readouterr()
    report(8, "witnesses at f2+1 build, verify, and refute for k=2..5",
           not bad, "; ".join(bad))


TABLE_512_SHA256 = \
    "4b207af0dde6df11d4e493effb193aa0f0bc5f1602beffadc8d5b6da8392408b"


def test_09_scale_and_performance(tmp_path):
    jobs = min(4, os.cpu_count() or 1)
    budget = 600.0 * 4 / jobs
    csv = tmp_path / "f2_512.csv"
    # the checkout's own package, whether or not the kcnf script is installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    completed = False
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kcnf", "f2-table", "--k-from", "1",
             "--k-to", "512", "--out", str(csv), "--jobs", str(jobs)],
            timeout=budget, capture_output=True, env=env)
        completed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        pass
    elapsed = time.monotonic() - t0

    rows = {}
    if csv.exists():
        for line in csv.read_text().splitlines()[1:]:
            fields = line.split(",")
            rows[int(fields[0])] = int(fields[1])
    reached = max(rows, default=0)

    hard_bad = []
    # the whole table, frozen from an earlier run; the same for every jobs
    if completed and hashlib.sha256(csv.read_bytes()).hexdigest() != \
            TABLE_512_SHA256:
        hard_bad.append("table sha256 differs")
    for k in (16, 64, 256, 512):
        f2 = rows.get(k)
        if f2 is None:
            f2 = f2_value(k)
        if Fraction(f2 * k, 2 ** k) < 1 / E_HI:
            hard_bad.append(f"k={k} below 1/e")
        norm = f2 * k / 2 ** k
        print(f"info acceptance 9: k={k} f2*k/2^k={norm:.4f} "
              f"delta_halflog={norm - (0.5 * math.log2(k) + 0.23):+.4f} "
              f"delta_8lnk={norm - 8 * math.log(k):+.4f}")

    runtime_ok = completed and elapsed <= budget
    report(9, "f2 table to k=512 within budget, as pinned, norms above 1/e",
           runtime_ok and not hard_bad,
           f"jobs={jobs} budget={budget:.0f}s elapsed={elapsed:.0f}s "
           f"reached k={reached} hard={hard_bad or 'ok'}")


def test_10_cli_determinism(tmp_path, capsys):
    bad = []

    def twice(name, argv_for):
        outputs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}_{tag}"
            code = cli_run(argv_for(str(path)))
            captured = capsys.readouterr()
            if code != 0:
                bad.append(f"{name} exit {code}")
            body = path.read_bytes() if path.exists() else b""
            outputs.append((body, captured.out.replace(str(path), "")))
        if outputs[0] != outputs[1]:
            bad.append(f"{name} differs")

    twice("construct1", lambda p: ["construct", "--method", "lemma1",
                                   "--k", "3", "--l", "1", "--out", p])
    twice("construct2", lambda p: ["construct", "--method", "lemma2",
                                   "--k", "4", "--l", "1", "--out", p])
    twice("trace", lambda p: ["f2", "--k", "6", "--emit-trace", p])
    twice("table", lambda p: ["f2-table", "--k-from", "1", "--k-to", "8",
                              "--out", p])
    twice("bounds", lambda p: ["bounds", "--k-from", "1", "--k-to", "8",
                               "--out", p])
    twice("materialize", lambda p: ["materialize", "--k", "4", "--s", "9",
                                    "--out", p])

    # verify writes no file; its report text must still be stable
    target = tmp_path / "construct1_a"
    texts = []
    for _ in range(2):
        cli_run(["verify", str(target), "--k", "3", "--solve"])
        texts.append(capsys.readouterr().out)
    if texts[0] != texts[1]:
        bad.append("verify differs")
    report(10, "repeated invocations are byte-identical",
           not bad, "; ".join(bad))
