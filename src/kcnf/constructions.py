"""Explicit unsatisfiable (k,s)-CNF families and the bounds table.

Two constructions are provided, both built from one step (_step): a core
K(z) x prod K^-(x_b) whose x-blocks guard renamed copies of a smaller
formula, each by formula.substitute, the step of the calculus rules. The
staged construction (lemma2_build) iterates the step l times, ending in a
(k, 2^(k-l+1))-CNF, under the condition l * 2^l <= log2(e) * (k - 2l).
The block construction (lemma1_build) is one step of the staged one, at
width k over K on k-l variables; it is simple and width-uniform at k but
its occurrence bound is far from optimal.

Occurrence bounds here are exact integers (arbitrary precision); the only
floating point is in the parameter pickers, where the conservative tie rule
below keeps a borderline condition from silently flipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .formula import (
    Formula,
    VarAllocator,
    WidthPartition,
    almost_complete_formula,
    complete_formula,
    occurrence_census,
    product,
    substitute,
    width_partition,
)

LOG2E = math.log2(math.e)

DEFAULT_CLAUSE_CAP = 2 ** 22

REL_TIE = 1e-9


class ConstructionSizeError(ValueError):
    """Materializing would exceed the clause cap."""


def _holds(lhs: float, rhs: float) -> bool:
    """Conservative 'lhs <= rhs': near-ties (rel 1e-9) count as failing."""
    if math.isclose(lhs, rhs, rel_tol=REL_TIE):
        return False
    return lhs <= rhs


@dataclass(frozen=True)
class ConstructionStats:
    """Exact counts for one constructed formula (or one stage of one)."""

    n: int
    m: int
    max_occurrence: int
    incomplete_size: int


# ---------------------------------------------------------------------------
# the substitution step both families are built from


def _base_stats(k: int, w: int) -> ConstructionStats:
    """Counts for K on w variables, the formula both families start from."""
    return ConstructionStats(n=w, m=2 ** w, max_occurrence=2 ** w,
                             incomplete_size=2 ** w if w < k else 0)


def _step_stats(k: int, kj: int, d: int,
                prev: ConstructionStats) -> ConstructionStats:
    """Closed-form counts of _step(k, kj, d, F) for an F counted by prev."""
    u = kj // d
    core = 2 ** (kj - u * d) * (2 ** d - 1) ** u      # clauses gluing all blocks
    return ConstructionStats(
        n=kj + u * prev.n,
        m=core + u * prev.m,
        max_occurrence=max(prev.max_occurrence, core + prev.incomplete_size),
        incomplete_size=core if kj < k else 0,
    )


def _step(k: int, kj: int, d: int, prev: WidthPartition) -> WidthPartition:
    """Substitute u = floor(kj/d) guarded copies of prev into a core.

    The core is K(z) x prod K^-(x_b) over a z-block of kj - u*d variables
    and u x-blocks of d variables, so its clauses have width kj. Copy b of
    prev keeps its width-k clauses and adds the all-positive clause on x_b
    to each of its narrower ones.

    Variable layout (ids ascending): the z-block, then the u x-blocks, then
    the u renamed copies of prev (sorted old id -> new id within each copy).
    """
    u = kj // d
    alloc = VarAllocator()
    z_block = alloc.fresh_block(kj - u * d)
    x_blocks = [alloc.fresh_block(d) for _ in range(u)]
    core = complete_formula(z_block)
    for xb in x_blocks:
        core = product(core, almost_complete_formula(xb))
    parts = (core, Formula([])) if kj < k else (Formula([]), core)
    return WidthPartition(k, *parts).union(
        *[substitute(prev, Formula([xb]), alloc) for xb in x_blocks])


def _check(part: WidthPartition, st: ConstructionStats, kj: int) -> Formula:
    """Assert st's exact counts and F' of width kj; return the formula."""
    formula = part.formula
    assert len(formula) == st.m, "clause collision in construction"
    assert len(formula.vars) == st.n
    assert occurrence_census(formula).max_occurrence == st.max_occurrence
    assert part.size == st.incomplete_size
    assert part.incomplete.is_width_uniform(kj)
    return formula


# ---------------------------------------------------------------------------
# block construction


def lemma1_stats(k: int, l: int) -> ConstructionStats:
    """Closed-form counts; no formula is materialized."""
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    return _step_stats(k, k, l, _base_stats(k, k - l))


def lemma1_build(k: int, l: int) -> Tuple[Formula, ConstructionStats]:
    """Materialize the block construction: one step over K on k-l variables.

    Variable layout (ids ascending): the v = k - l*u leftover variables,
    then the u = floor(k/l) x-blocks of size l, then the u y-blocks of size
    k-l, each a renamed copy of that K. The result is a width-uniform
    unsatisfiable k-CNF whose census matches lemma1_stats exactly
    (asserted here).
    """
    stats = lemma1_stats(k, l)
    if stats.m > DEFAULT_CLAUSE_CAP:
        raise ConstructionSizeError(
            f"k={k}, l={l} needs {stats.m} clauses (cap {DEFAULT_CLAUSE_CAP})")
    base = width_partition(complete_formula(range(1, k - l + 1)), k)
    return _check(_step(k, k, l, base), stats, k), stats


# ---------------------------------------------------------------------------
# staged construction


def lemma2_condition(k: int, l: int) -> bool:
    """Parameter condition l * 2^l <= log2(e) * (k - 2l), conservatively."""
    if l < 0 or k < 1:
        return False
    return _holds(l * 2 ** l, LOG2E * (k - 2 * l))


def lemma2_occurrence_bound(k: int, l: int) -> int:
    """The cap s = 2^(k-l+1) every stage must respect."""
    return 2 ** (k - l + 1)


def lemma2_stage_stats(k: int, l: int) -> List[ConstructionStats]:
    """Closed-form per-stage counts for stages j = 0..l."""
    if not lemma2_condition(k, l):
        raise ValueError(f"parameter condition fails for k={k}, l={l}")
    stats = [_base_stats(k, k - l)]
    for j in range(1, l + 1):
        stats.append(_step_stats(k, k - l + j, l - j + 1, stats[-1]))
    return stats


def lemma2_build(k: int, l: int) -> List[Tuple[Formula, ConstructionStats]]:
    """Materialize all stages of the staged construction.

    Stage 0 is the complete formula on k-l variables; stage j is the step
    at width k_j = k-l+j with x-blocks of size l-j+1 over stage j-1 (see
    _step for the variable layout). Each stage is checked against the
    closed form and against the occurrence cap 2^(k-l+1). Unsatisfiability
    of every stage is a solver fact, not re-proved here; see the tests and
    `kcnf verify --solve`.
    """
    expected = lemma2_stage_stats(k, l)
    worst = max(st.m for st in expected)
    if worst > DEFAULT_CLAUSE_CAP:
        raise ConstructionSizeError(f"k={k}, l={l} needs {worst} clauses in "
                                    f"one stage (cap {DEFAULT_CLAUSE_CAP})")
    s_bound = lemma2_occurrence_bound(k, l)

    part = width_partition(complete_formula(range(1, k - l + 1)), k)
    stages = [(part.formula, expected[0])]
    for j in range(1, l + 1):
        kj = k - l + j
        part = _step(k, kj, l - j + 1, part)
        stages.append((_check(part, expected[j], kj), expected[j]))
        assert expected[j].max_occurrence <= s_bound
    return stages


# ---------------------------------------------------------------------------
# parameter pickers


def recommended_l(k: int, scheme: str) -> int:
    """Largest l whose picker inequality holds (ties fail, see module doc).

    scheme 'lemma1': 2^l <= k * log2(e) / log2(k)^2, defined for k >= 4.
    scheme 'lemma2': 2^l <= log2(e) * k / (2 * log2(k)), defined for k >= 2.
    Over those ranges the bound is at least 1.28 (lemma1, least at k = 7)
    and 1.36 (lemma2, least at k = 3), so l = 0 always holds, and a
    larger l is returned only once its own test has passed.
    The reported l may be 0 even where a builder needs l >= 1; callers
    decide how to handle that (the CLI uses l=1, with a note, where the
    builder takes it).
    """
    if scheme == "lemma1":
        if k < 4:
            raise ValueError("the block-construction picker needs k >= 4")
        bound = k * LOG2E / math.log2(k) ** 2
    elif scheme == "lemma2":
        if k < 2:
            raise ValueError("the staged-construction picker needs k >= 2")
        bound = LOG2E * k / (2 * math.log2(k))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    l = 0
    while _holds(float(2 ** (l + 1)), bound):
        l += 1
    return l


# ---------------------------------------------------------------------------
# lower bound and the bounds table


@lru_cache(maxsize=None)
def _e_bracket(terms: int) -> Tuple[Fraction, Fraction]:
    fact = math.factorial(terms)
    num = sum(fact // math.factorial(i) for i in range(terms + 1))
    lo = Fraction(num, fact)
    hi = lo + Fraction(2, fact * (terms + 1))
    return lo, hi


def lll_lower_bound(k: int) -> int:
    """floor(2^k / (e k)), exact (e is bracketed until the floor is certain)."""
    if k < 1:
        raise ValueError("k must be positive")
    n = Fraction(2 ** k)
    terms = 32
    while True:
        e_lo, e_hi = _e_bracket(terms)
        lo = math.floor(n / (e_hi * k))
        hi = math.floor(n / (e_lo * k))
        if lo == hi:
            return lo
        terms *= 2


@dataclass(frozen=True)
class BoundsRow:
    k: int
    lll_lower: int
    lemma1_s: int
    lemma1_l: int
    lemma2_s: int
    lemma2_l: int


def bounds_row(k: int) -> BoundsRow:
    """Best occurrence bounds both constructions give at this k."""
    if k < 1:
        raise ValueError("k must be positive")
    best_l = min(range(1, k + 1),
                 key=lambda l: lemma1_stats(k, l).max_occurrence)
    l2 = max(l for l in range(0, k + 1) if lemma2_condition(k, l))
    return BoundsRow(
        k=k,
        lll_lower=lll_lower_bound(k),
        lemma1_s=lemma1_stats(k, best_l).max_occurrence,
        lemma1_l=best_l,
        lemma2_s=lemma2_occurrence_bound(k, l2),
        lemma2_l=l2,
    )


def sig6(x: float) -> str:
    """Six significant digits, the one float format used in CSV output."""
    return f"{x:.6g}"


def guide_columns(k: int) -> List[str]:
    """The guide-line CSV columns at k: line_a 1/e, line_b 8 ln k, and
    line_d, the paper's shape f2(k) k / 2^k ~ 0.5 log2 k + 0.23."""
    return [sig6(1.0 / math.e), sig6(8.0 * math.log(k)),
            sig6(0.5 * math.log2(k) + 0.23)]


BOUNDS_CSV_HEADER = "k,lll_lower,lemma1_s,lemma1_l,lemma2_s,lemma2_l,line_a,line_b,line_d"


def bounds_csv_row(row: BoundsRow) -> str:
    return ",".join([
        str(row.k),
        str(row.lll_lower),
        str(row.lemma1_s),
        str(row.lemma1_l),
        str(row.lemma2_s),
        str(row.lemma2_l),
        *guide_columns(row.k),
    ])
