"""Solver behaviour: statuses, determinism, agreement with enumeration."""

import random

import pytest

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
    # mixed widths 1-4; every fifth formula is units only, so single-literal
    # watches and learned unit clauses are exercised too
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


# (status, decisions, propagations) of the unrelabelled inputs; a change to
# the solver's data structures must leave the search itself alone
PINNED_SEARCH = [
    ("witness k=2 s=3", lambda: _witness(2), UNSAT, 1, 7),
    ("witness k=3 s=5", lambda: _witness(3), UNSAT, 16, 26),
    ("witness k=4 s=9", lambda: _witness(4), UNSAT, 70, 87),
    ("witness k=5 s=15", lambda: _witness(5), UNSAT, 898, 292),
    ("witness k=6 s=27", lambda: _witness(6), UNSAT, 20403, 1558),
    ("lemma1 k=11 l=3", lambda: lemma1_build(11, 3)[0], UNSAT, 1105, 2463),
    ("lemma2 k=9 l=1", lambda: lemma2_build(9, 1)[-1][0], UNSAT, 1179, 2312),
    ("witness k=5 minus a clause", _witness5_minus_first_clause, SAT, 323, 113),
]


@pytest.mark.parametrize("build, status, decisions, propagations",
                         [case[1:] for case in PINNED_SEARCH],
                         ids=[case[0] for case in PINNED_SEARCH])
def test_pinned_search(build, status, decisions, propagations):
    f = build()
    res = solve(f)
    assert (res.status, res.decisions, res.propagations) == (
        status, decisions, propagations)
    if status == SAT:
        false_vars = {1, 2, 3, 4, 5, 67}
        assert res.witness == {v: v not in false_vars for v in range(1, 135)}
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
    assert rep.width_uniform and rep.occ_ok and rep.status == UNSAT
    assert rep.n == 3 and rep.m == 8 and rep.max_occurrence == 8
    assert rep.ok


def test_verify_instance_sat_reported():
    rep = verify_instance(Formula([[1, 2, 3]]), 3, run_solver=True)
    assert rep.width_uniform
    assert rep.status == SAT
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
