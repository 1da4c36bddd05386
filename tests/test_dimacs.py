"""DIMACS golden strings, round trips, error handling and byte pins."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcnf.constructions import lemma1_build, recommended_l
from kcnf.dimacs import DimacsError, read_dimacs, write_dimacs
from kcnf.dp import feasible, materialize
from kcnf.formula import (
    Formula,
    almost_complete_formula,
    clause_sort_key,
    complete_formula,
)

GOLDEN_UNIT_PAIR = "p cnf 1 2\n1 0\n-1 0\n"
GOLDEN_EMPTY_CLAUSE = "p cnf 0 1\n0\n"


def test_write_golden_unit_pair():
    assert write_dimacs(Formula([[1], [-1]])) == GOLDEN_UNIT_PAIR


def test_write_golden_empty_clause():
    assert write_dimacs(Formula([[]])) == GOLDEN_EMPTY_CLAUSE


def test_write_empty_formula():
    assert write_dimacs(Formula([])) == "p cnf 0 0\n"


def test_positive_sorts_before_negative():
    # canonical clause order compares (var, polarity) with positive first
    text = write_dimacs(Formula([[-1, 2], [1, -2]]))
    assert text == "p cnf 2 2\n1 -2 0\n-1 2 0\n"


def test_renumber_map_in_comments():
    text = write_dimacs(Formula([[5, -9], [9]]))
    assert text.startswith("c map 5 -> 1\nc map 9 -> 2\n")
    assert read_dimacs(text) == Formula([[1, -2], [2]])


def test_round_trip_canonical_formulas():
    for f in (
        complete_formula([1, 2, 3]),
        almost_complete_formula([1, 2, 3, 4]),
        Formula([[]]),
        Formula([]),
        Formula([[1], [-1]]),
    ):
        assert read_dimacs(write_dimacs(f)) == f


def test_comments_before_and_after_header():
    text = "c leading\np cnf 2 1\nc inner\n1 -2 0\nc trailing\n"
    assert read_dimacs(text) == Formula([[1, -2]])


def test_clause_spanning_lines():
    assert read_dimacs("p cnf 3 1\n1 2\n3 0\n") == Formula([[1, 2, 3]])


def test_duplicate_literals_collapse():
    assert read_dimacs("p cnf 1 1\n1 1 0\n") == Formula([[1]])


def test_duplicate_clauses_collapse():
    assert len(read_dimacs("p cnf 1 2\n1 0\n1 0\n")) == 1


@pytest.mark.parametrize("text, message", [
    ("1 0\n", "line 1: clause before header"),
    ("c x\np cnf x 1\n1 0\n", "line 2: malformed header 'p cnf x 1'"),
    ("p dnf 1 1\n1 0\n", "line 1: malformed header 'p dnf 1 1'"),
    ("p cnf -1 1\n", "line 1: negative counts in header"),
    ("p cnf 1 1\nc\np cnf 1 1\n1 0\n", "line 3: duplicate header"),
    ("p cnf 2 1\n1 -2 0\n\n1 x 0\n", "line 4: bad token 'x'"),
    # every token is read before any bound is checked
    ("p cnf 1 2\n2 0\n1 y 0\n", "line 3: bad token 'y'"),
    ("p cnf 2 2\n1 0 -3\n2 0\n", "literal -3 exceeds declared variable count 2"),
    ("p cnf 2 1\n1 2 0\n2\n", "unterminated clause at end of input"),
    ("p cnf 2 1\n2 1\n-1 0\n", "tautological clause: contains both 1 and -1"),
    ("c only a comment\n", "missing 'p cnf' header"),
    # two faults: the one the reader meets first is named
    ("p cnf 1 1\n1 x 0\np cnf 1 1\n", "line 2: bad token 'x'"),
    ("p cnf 1 1\np cnf 1 1\n1 x 0\n", "line 2: duplicate header"),
    ("p cnf 2 1\n1 x\n3 0\n", "line 2: bad token 'x'"),
    ("p cnf 2 2\n1 -1 0\n3 0\n", "literal 3 exceeds declared variable count 2"),
    ("p cnf 3 2\n1 -1 0\n2 -2 0\n",
     "tautological clause: contains both 1 and -1"),
    ("p cnf x 1\n1 0\n", "line 1: malformed header 'p cnf x 1'"),
    ("p cnf 1 1\n2 0\n", "literal 2 exceeds declared variable count 1"),
    ("p cnf 1 1\n1\n", "unterminated clause at end of input"),
    ("p cnf 1 1\n1 -1 0\n", "tautological clause: contains both 1 and -1"),
    ("p cnf 1 1\np cnf 1 1\n1 0\n", "line 2: duplicate header"),
    ("", "missing 'p cnf' header"),
    # the clauses as written are counted, duplicates included
    ("p cnf 2 9\n1 2 0\n", "header declares 9 clauses, body has 1"),
    ("p cnf 2 1\n1 2 0\n1 0\n1 0\n",
     "header declares 1 clauses, body has 3"),
    # the count is checked last
    ("p cnf 2 3\n1 -1 0\n", "tautological clause: contains both 1 and -1"),
])
def test_read_error_messages(text, message):
    with pytest.raises(DimacsError) as info:
        read_dimacs(text)
    assert str(info.value) == message


def test_several_clauses_on_one_line():
    text = "p cnf 3 4\n1 -2 0 3 0\n-1\n2 0 0\n"
    assert read_dimacs(text) == Formula([[1, -2], [3], [-1, 2], []])


clause_st = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=4, unique=True
).flatmap(
    lambda vs: st.tuples(*[st.sampled_from([v, -v]) for v in vs])
)
formula_st = st.lists(clause_st, min_size=0, max_size=6)


@settings(max_examples=200, deadline=None)
@given(formula_st)
def test_round_trip_idempotent(clauses):
    f = Formula(clauses)
    canonical = read_dimacs(write_dimacs(f))
    assert read_dimacs(write_dimacs(canonical)) == canonical
    assert len(canonical) == len(f)


def reference_write_dimacs(f):
    """The per-literal writer: clause_sort_key plus a per-literal sort."""
    old_vars = sorted(f.vars)
    mapping = {old: new for new, old in enumerate(old_vars, start=1)}
    lines = []
    if any(old != new for old, new in mapping.items()):
        for old in old_vars:
            lines.append(f"c map {old} -> {mapping[old]}")
    lines.append(f"p cnf {len(old_vars)} {len(f)}")
    renumbered = sorted(
        (frozenset((1 if lit > 0 else -1) * mapping[abs(lit)] for lit in c)
         for c in f.clauses),
        key=clause_sort_key)
    for clause in renumbered:
        lits = sorted(clause, key=lambda lit: (abs(lit), 0 if lit > 0 else 1))
        lines.append(" ".join(map(str, lits)) + " 0" if clause else "0")
    return "\n".join(lines) + "\n"


def _signed(variables):
    return st.tuples(*[st.sampled_from([v, -v]) for v in variables])


# clauses of widths 0..6 over a pool of sparse variable ids up to 10^6
sparse_formula_st = st.lists(
    st.integers(min_value=1, max_value=10 ** 6), min_size=1, max_size=10,
    unique=True,
).flatmap(lambda pool: st.lists(
    st.lists(st.sampled_from(pool), max_size=6, unique=True).flatmap(_signed),
    max_size=24,
))


@settings(max_examples=300, deadline=None)
@given(sparse_formula_st)
def test_writer_matches_reference(clauses):
    f = Formula(clauses)
    assert write_dimacs(f) == reference_write_dimacs(f)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_materialized_witness_bytes_pinned():
    formula = materialize(feasible(7, 45), 7, 45)
    assert _sha256(write_dimacs(formula)) == (
        "df8d3d75b88524be2b084dede8a403602d033a7dbc495d463b456602f7248baa")


def test_block_construction_bytes_pinned():
    l = max(1, recommended_l(11, "lemma1"))  # the CLI's default l
    formula, _ = lemma1_build(11, l)
    assert _sha256(write_dimacs(formula)) == (
        "adfe7fa0781c9c910403932855c464f21597fa0f1f9f5a818927ab4802dcc698")
