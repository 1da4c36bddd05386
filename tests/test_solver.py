"""Solver behaviour: statuses, determinism, agreement with enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcnf.constructions import lemma1_build, lemma2_build
from kcnf.dp import f2_value, feasible, materialize
from kcnf.formula import Formula, almost_complete_formula, complete_formula
from kcnf.solver import (
    SAT,
    TIMEOUT,
    UNSAT,
    enumerate_models,
    satisfies,
    solve,
    verify_instance,
)


def test_empty_formula_is_sat():
    res = solve(Formula([]))
    assert res.status == SAT and res.witness == {}
    assert (res.decisions, res.propagations, res.conflicts) == (0, 0, 0)


def test_empty_clause_is_unsat():
    res = solve(Formula([[]]))
    assert res.status == UNSAT and res.decisions == 0


def test_unit_conflict_needs_no_decisions():
    res = solve(Formula([[1], [-1]]))
    assert res.status == UNSAT
    assert res.decisions == 0


def test_units_only_sat_with_zero_budget():
    res = solve(Formula([[1], [-2]]), budget=0)
    assert res.status == SAT
    assert res.witness == {1: True, 2: False}


def test_complete_formulas_unsat():
    for n in range(1, 9):
        res = solve(complete_formula(range(1, n + 1)))
        assert res.status == UNSAT


def test_almost_complete_witness_is_all_false():
    for n in range(1, 9):
        res = solve(almost_complete_formula(range(1, n + 1)))
        assert res.status == SAT
        assert res.witness == {v: False for v in range(1, n + 1)}
        assert satisfies(almost_complete_formula(range(1, n + 1)), res.witness)


def test_timeout_is_not_unsat():
    # K(6) needs decisions; a zero budget must say TIMEOUT, never UNSAT
    res = solve(complete_formula(range(1, 7)), budget=0)
    assert res.status == TIMEOUT
    assert res.witness is None


def test_budget_boundary_still_solves_small():
    assert solve(complete_formula([1, 2]), budget=10).status == UNSAT


def test_deterministic_reruns():
    f = almost_complete_formula([1, 2, 3, 4, 5])
    a = solve(f)
    b = solve(f)
    assert (a.status, a.witness, a.decisions, a.propagations) == (
        b.status, b.witness, b.decisions, b.propagations)


def test_agreement_with_enumeration_random_3cnf():
    # mixed widths 1-4; every fifth formula is units only, so one-variable
    # classes and learned unit clauses are exercised too
    rng = random.Random(987123)
    for trial in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 4 * n)
        widest = 1 if trial % 5 == 0 else min(4, n)
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), rng.randint(1, widest))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        f = Formula(clauses)
        models = enumerate_models(f, range(1, n + 1))
        res = solve(f)
        if models:
            assert res.status == SAT, f"trial {trial}"
            lifted = dict(res.witness)
            for v in range(1, n + 1):
                lifted.setdefault(v, False)
            assert satisfies(f, lifted)
        else:
            assert res.status == UNSAT, f"trial {trial}"


def _witness(k):
    s = f2_value(k) + 1
    return materialize(feasible(k, s), k, s)


def _witness5_minus_first_clause():
    w5 = _witness(5)
    return Formula(w5.clauses - {w5.canonical_clauses()[0]})


# (status, decisions, propagations, conflicts) of the unrelabelled inputs;
# a change to the solver's data structures must leave the search itself alone
PINNED_SEARCH = [
    ("witness k=2 s=3", lambda: _witness(2), UNSAT, 1, 7, 1),
    ("witness k=3 s=5", lambda: _witness(3), UNSAT, 16, 26, 9),
    ("witness k=4 s=9", lambda: _witness(4), UNSAT, 70, 87, 35),
    ("witness k=5 s=15", lambda: _witness(5), UNSAT, 898, 292, 116),
    ("witness k=6 s=27", lambda: _witness(6), UNSAT, 20403, 1558, 701),
    ("witness k=7 s=45", lambda: _witness(7), UNSAT, 106479, 12581, 5500),
    ("lemma1 k=11 l=3", lambda: lemma1_build(11, 3)[0], UNSAT, 1105, 2463, 1105),
    ("lemma2 k=9 l=1", lambda: lemma2_build(9, 1)[-1][0], UNSAT, 1179, 2312, 1151),
    ("witness k=5 minus a clause", _witness5_minus_first_clause, SAT, 323, 113, 41),
]


@pytest.mark.parametrize("build, status, decisions, propagations, conflicts",
                         [case[1:] for case in PINNED_SEARCH],
                         ids=[case[0] for case in PINNED_SEARCH])
def test_pinned_search(build, status, decisions, propagations, conflicts):
    f = build()
    res = solve(f)
    assert (res.status, res.decisions, res.propagations, res.conflicts) == (
        status, decisions, propagations, conflicts)
    if status == SAT:
        false_vars = {1, 2, 3, 4, 5, 67}
        assert res.witness == {v: v not in false_vars for v in range(1, 135)}
        assert satisfies(f, res.witness)


def _random_clause(rng, n, widths):
    vs = rng.sample(range(1, n + 1), rng.randint(*widths))
    return [v if rng.random() < 0.5 else -v for v in vs]


def _random_formulas():
    """24 formulas of 1-40 vars and widths 1-6, then 6 near-threshold 3-CNF."""
    rng = random.Random(3)
    out = []
    for _ in range(24):
        n = rng.randint(1, 40)
        lo = rng.randint(1, min(6, n))
        hi = rng.randint(lo, min(6, n))
        m = rng.randint(1, n << lo)
        out.append(Formula(_random_clause(rng, n, (lo, hi)) for _ in range(m)))
    for _ in range(6):
        n = rng.randint(30, 40)
        out.append(Formula(_random_clause(rng, n, (3, 3))
                           for _ in range(round(4.26 * n))))
    return out


# (status, decisions, propagations, conflicts, witness as 0/1 over sorted
# vars) of _random_formulas(), in order; small formulas put learned clauses
# into the class of an original clause and leave many one-clause classes
PINNED_RANDOM = [
    (UNSAT, 124, 612, 114, None),
    (UNSAT, 17, 179, 15, None),
    (SAT, 3, 6, 0, "101011111"),
    (SAT, 11, 18, 0, "1110011101111101111111001110110"),
    (SAT, 5, 4, 0, "1111111111011"),
    (SAT, 5, 1, 0, "111111"),
    (UNSAT, 2725, 23719, 2582, None),
    (SAT, 1, 7, 0, "111111010"),
    (SAT, 2, 10, 0, "110011111110101"),
    (UNSAT, 58, 196, 57, None),
    (SAT, 18, 50, 5, "111011111010111000001111001111101"),
    (SAT, 16, 10, 1, "1110111111111001100011101"),
    (SAT, 5, 32, 0, "1010111101100101110101110001110010001011"),
    (SAT, 3, 2, 0, "11111011111"),
    (SAT, 7, 10, 2, "1001010011"),
    (SAT, 6, 40, 3, "010100100001011001011100"),
    (SAT, 3, 5, 0, "11111101"),
    (SAT, 23, 5, 0, "111111111111111111111011011111111011111"),
    (SAT, 9, 19, 3, "1011100110101"),
    (SAT, 9, 13, 0, "101110011111111110111111111111111"),
    (SAT, 10, 42, 3, "110010101000110110100110001"),
    (UNSAT, 17, 193, 15, None),
    (UNSAT, 521, 3414, 500, None),
    (SAT, 45, 359, 32, "01111110101110001010001111111111"),
    (SAT, 40, 406, 32, "0000001011010111001111110011000100010"),
    (UNSAT, 11, 105, 11, None),
    (UNSAT, 34, 397, 30, None),
    (UNSAT, 36, 462, 32, None),
    (UNSAT, 19, 135, 14, None),
    (SAT, 9, 25, 0, "10110111001011100100111110110101111111"),
]


def test_pinned_random_search():
    _assert_pinned(_random_formulas(), PINNED_RANDOM)


def _class_formulas():
    """20 formulas whose clauses all lie over 2-8 shared sets of 3-5 vars."""
    rng = random.Random(12)
    out = []
    for _ in range(20):
        n = rng.randint(8, 20)
        clauses = []
        for _ in range(rng.randint(2, 8)):
            vs = rng.sample(range(1, n + 1), rng.randint(3, 5))
            full = 1 << len(vs)
            picks = rng.sample(range(full), rng.randint(full >> 1, full - 1))
            for signs in picks:
                clauses.append([-v if signs >> j & 1 else v
                                for j, v in enumerate(vs)])
        out.append(Formula(clauses))
    return out


# the same columns for _class_formulas(): every variable set carries half
# or more of its sign patterns, so classes are large and their open clauses
# disagree on the polarity of the last free variable, as in the blocks
PINNED_CLASSES = [
    (SAT, 12, 7, 2, "1111101011101"),
    (UNSAT, 6, 14, 5, None),
    (UNSAT, 8, 14, 6, None),
    (SAT, 4, 8, 3, "00101"),
    (SAT, 19, 29, 9, "01001011111100011"),
    (UNSAT, 9, 21, 7, None),
    (UNSAT, 7, 17, 7, None),
    (SAT, 8, 6, 2, "01111100"),
    (UNSAT, 9, 11, 4, None),
    (SAT, 6, 8, 3, "1101000"),
    (UNSAT, 14, 31, 12, None),
    (SAT, 6, 5, 1, "01110011"),
    (UNSAT, 6, 15, 6, None),
    (SAT, 3, 2, 0, "11110"),
    (UNSAT, 8, 14, 6, None),
    (SAT, 22, 43, 16, "01010101001101"),
    (SAT, 4, 3, 1, "101110"),
    (SAT, 7, 3, 1, "1111111100"),
    (UNSAT, 11, 27, 10, None),
    (SAT, 4, 4, 1, "110011"),
]


def _assert_pinned(formulas, pins):
    assert len(formulas) == len(pins)
    for i, (f, pin) in enumerate(zip(formulas, pins)):
        res = solve(f)
        witness = None if res.witness is None else "".join(
            "01"[res.witness[v]] for v in sorted(f.vars))
        assert (res.status, res.decisions, res.propagations, res.conflicts,
                witness) == pin, f"formula {i}"
        if res.status == SAT:
            assert satisfies(f, res.witness)


def test_pinned_class_search():
    _assert_pinned(_class_formulas(), PINNED_CLASSES)


@st.composite
def class_formula_st(draw):
    """Clauses over a few shared variable sets of at most 12 variables."""
    n = draw(st.integers(2, 12))
    var_sets = draw(st.lists(
        st.lists(st.integers(1, n), min_size=2, max_size=min(n, 5),
                 unique=True),
        min_size=1, max_size=6))
    clauses = []
    for vs in var_sets:
        full = 1 << len(vs)
        for signs in draw(st.sets(st.integers(0, full - 1),
                                  min_size=len(vs), max_size=full - 1)):
            clauses.append([-v if signs >> j & 1 else v
                            for j, v in enumerate(vs)])
    return Formula(clauses)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(class_formula_st())
def test_agreement_with_enumeration_shared_sets(f):
    res = solve(f)
    assert res.status == (SAT if enumerate_models(f) else UNSAT)
    if res.status == SAT:
        assert satisfies(f, res.witness)


def test_enumerate_models_cap():
    wide = Formula([[v] for v in range(1, 22)])
    with pytest.raises(ValueError):
        enumerate_models(wide)


def test_enumerate_models_requires_cover():
    with pytest.raises(ValueError):
        enumerate_models(Formula([[1, 2]]), [1])


def test_satisfies_requires_total_assignment():
    with pytest.raises(ValueError):
        satisfies(Formula([[1, 2]]), {1: False})


def test_verify_instance_uniform_unsat():
    f = complete_formula([1, 2, 3])
    rep = verify_instance(f, 3, s=8, run_solver=True)
    assert rep.width_uniform and rep.occ_ok and rep.result.status == UNSAT
    assert rep.n == 3 and rep.m == 8 and rep.max_occurrence == 8
    res = rep.result
    assert (res.decisions, res.propagations, res.conflicts) == (3, 7, 3)
    assert rep.ok


def test_verify_instance_sat_reported():
    rep = verify_instance(Formula([[1, 2, 3]]), 3, run_solver=True)
    assert rep.width_uniform
    assert rep.result.status == SAT
    assert not rep.ok


def test_verify_instance_mixed_width():
    rep = verify_instance(Formula([[1], [1, 2]]), 2)
    assert not rep.width_uniform
    assert rep.widths == (1, 2)
    assert not rep.ok


def test_verify_instance_occurrence_overflow():
    f = complete_formula([1, 2])
    rep = verify_instance(f, 2, s=3)
    assert rep.occ_ok is False
    assert not rep.ok
