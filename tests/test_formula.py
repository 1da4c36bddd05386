"""Clause/formula invariants, complete formulas, products, censuses."""

import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcnf.formula import (
    Formula,
    VarAllocator,
    WidthPartition,
    almost_complete_formula,
    complete_formula,
    fresh_copy,
    make_clause,
    occurrence_census,
    product,
    rename,
    substitute,
    width_partition,
)
from kcnf.solver import enumerate_models, verify_instance


def test_make_clause_rejects_zero():
    with pytest.raises(ValueError):
        make_clause([1, 0, 2])


def test_make_clause_rejects_tautology():
    with pytest.raises(ValueError):
        make_clause([1, -1])
    with pytest.raises(ValueError):
        make_clause([3, 5, -3])


def test_formula_validates_every_clause():
    with pytest.raises(ValueError, match="literal 0 is not allowed"):
        Formula([[0]])
    with pytest.raises(ValueError) as info:
        Formula([[2], [1, -1]])
    assert str(info.value) == "tautological clause: contains both 1 and -1"


def test_make_clause_collapses_duplicates():
    assert make_clause([2, 2, -7]) == frozenset({2, -7})


def test_formula_set_semantics():
    f = Formula([[1, 2], [2, 1], [1, 2]])
    assert len(f) == 1
    assert f == Formula([[2, 1]])


def test_complete_formula_counts():
    for n in range(9):
        vs = list(range(1, n + 1))
        kf = complete_formula(vs)
        assert len(kf) == 2 ** n
        census = occurrence_census(kf)
        for v in vs:
            assert census.total[v] == 2 ** n
        assert all(len(c) == n for c in kf.clauses)


def test_complete_formula_no_vars_is_empty_clause():
    f = complete_formula([])
    assert len(f) == 1
    assert frozenset() in f.clauses


def test_complete_formula_unsat_by_enumeration():
    for n in range(1, 8):
        kf = complete_formula(range(1, n + 1))
        assert enumerate_models(kf) == set()


def test_almost_complete_unique_model():
    for n in range(1, 8):
        vs = list(range(1, n + 1))
        km = almost_complete_formula(vs)
        assert len(km) == 2 ** n - 1
        models = enumerate_models(km)
        assert models == {frozenset((v, False) for v in vs)}


def test_almost_complete_needs_vars():
    with pytest.raises(ValueError):
        almost_complete_formula([])


def test_product_size_and_disjointness():
    f1 = complete_formula([1, 2])
    f2 = almost_complete_formula([3, 4, 5])
    p = product(f1, f2)
    assert len(p) == len(f1) * len(f2)
    with pytest.raises(ValueError, match="share variables"):
        product(f1, complete_formula([2, 3]))


def test_product_model_law_exhaustive():
    # models(f1 x f2) over the joint vars = lifted models(f1) | models(f2)
    rng = random.Random(20240817)
    for _ in range(25):
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 3)
        vs1 = list(range(1, n1 + 1))
        vs2 = list(range(n1 + 1, n1 + n2 + 1))
        f1 = _random_formula(rng, vs1)
        f2 = _random_formula(rng, vs2)
        joint = vs1 + vs2
        lifted = enumerate_models(f1, joint) | enumerate_models(f2, joint)
        assert enumerate_models(product(f1, f2), joint) == lifted


def _random_formula(rng, vs):
    clauses = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, len(vs))
        chosen = rng.sample(vs, size)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return Formula(clauses)


def test_product_identity_with_empty_clause_formula():
    # {{}} is the unit: it has one clause, the empty one
    unit = Formula([[]])
    f = complete_formula([1, 2])
    assert product(unit, f) == f


def test_width_partition_sums():
    f = Formula([[1, 2], [1, 2, 3], [-1, 2, -3]])
    part = width_partition(f, 3)
    assert part.formula == f and part.k == 3
    assert len(part.incomplete) + len(part.complete) == len(f)
    assert part.incomplete == Formula([[1, 2]])
    assert part.complete == Formula([[1, 2, 3], [-1, 2, -3]])


def test_width_partition_rejects_mixed_subwidth():
    with pytest.raises(ValueError, match=r"mixed widths \[1, 2\]"):
        width_partition(Formula([[1], [1, 2], [1, 2, 3], [-1, 2, -3]]), 3)


def test_width_partition_rejects_wide_clause():
    with pytest.raises(ValueError):
        width_partition(Formula([[1, 2, 3]]), 2)
    with pytest.raises(ValueError, match="k must be positive"):
        width_partition(Formula([[]]), 0)


def test_occurrence_census_split():
    f = Formula([[1], [1, 2], [1, 2, 3]])
    census = occurrence_census(f)
    assert census.total == {1: 3, 2: 2, 3: 1}
    assert census.max_occurrence == 3


def test_fresh_copy_is_disjoint_isomorph():
    f = almost_complete_formula([2, 5, 9])
    alloc = VarAllocator()
    g = fresh_copy(f, alloc)
    assert g.vars.isdisjoint(f.vars)
    assert len(g) == len(f)
    assert sorted(len(c) for c in g.clauses) == sorted(len(c) for c in f.clauses)


def test_fresh_copy_never_collides_even_with_stale_allocator():
    f = Formula([[10, 11]])
    alloc = VarAllocator()
    alloc.fresh_block(9)  # would hand out 10 next, colliding without the bump
    g = fresh_copy(f, alloc)
    assert g.vars.isdisjoint(f.vars)


def test_rename_rejects_non_injective():
    with pytest.raises(ValueError):
        rename(Formula([[1, 2]]), {1: 3, 2: 3})


@pytest.mark.parametrize("mapping", [{1: 0}, {1: -2, 2: 2}],
                         ids=["zero", "negative"])
def test_rename_rejects_nonpositive_images(mapping):
    with pytest.raises(ValueError):
        rename(Formula([[1, 2], [1], [-2]]), mapping)


def test_rename_rejects_a_mapping_that_misses_a_variable():
    with pytest.raises(ValueError, match=r"misses variable\(s\) \[3\]"):
        rename(Formula([[1, 2], [-1, 3]]), {1: 5, 2: 6})


def test_rename_maps_literals_with_their_sign():
    f = Formula([[1, -2], [2, 3], [-1]])
    assert rename(f, {1: 7, 2: 5, 3: 9}) == Formula([[7, -5], [5, 9], [-7]])


def _naive_census(f):
    total = {}
    for clause in f.clauses:
        for lit in clause:
            total[abs(lit)] = total.get(abs(lit), 0) + 1
    return total, max(total.values(), default=0)


def _signed(variables):
    return st.tuples(*[st.sampled_from([v, -v]) for v in variables])


sparse_formula_st = st.lists(
    st.integers(min_value=1, max_value=10 ** 6), min_size=1, max_size=10,
    unique=True,
).flatmap(lambda pool: st.lists(
    st.lists(st.sampled_from(pool), max_size=6, unique=True).flatmap(_signed),
    max_size=24,
))


@settings(max_examples=300, deadline=None)
@given(sparse_formula_st)
def test_census_matches_naive_count(clauses):
    f = Formula(clauses)
    census = occurrence_census(f)
    assert (census.total, census.max_occurrence) == _naive_census(f)


def _clauses_over(pool, width):
    return st.lists(st.lists(st.sampled_from(pool), min_size=width,
                             max_size=width, unique=True).flatmap(_signed),
                    max_size=8)


@st.composite
def substitution_st(draw):
    """(guard ids, state, G, allocator offset or None): the state's F' (one
    width w < k) and F'' (width k) draw on one part of the pool and the
    guards G (one width, at most k - w) on the rest, so the product's
    operands are disjoint."""
    pool = draw(st.lists(st.integers(min_value=1, max_value=10 ** 4),
                         min_size=2, max_size=12, unique=True))
    cut = draw(st.integers(min_value=1, max_value=len(pool) - 1))
    k = draw(st.integers(min_value=1, max_value=cut))
    w = draw(st.integers(min_value=0, max_value=k - 1))
    g = draw(st.integers(min_value=0, max_value=min(k - w, len(pool) - cut)))
    clauses = (draw(_clauses_over(pool[:cut], w))
               + draw(_clauses_over(pool[:cut], k)))
    return (pool[cut:], width_partition(Formula(clauses), k),
            Formula(draw(_clauses_over(pool[cut:], g))),
            draw(st.one_of(st.none(), st.integers(min_value=1, max_value=3))))


def _allocator_at(start):
    """An allocator whose next fresh id is start."""
    alloc = VarAllocator()
    alloc.ensure_above([start - 1])
    return alloc


@settings(max_examples=300, deadline=None)
@given(substitution_st())
def test_substitute_matches_product_then_union(case):
    guard_ids, part, g, offset = case
    incomplete, complete = part.incomplete, part.complete
    if offset is None:
        got = substitute(part, g)
        assert got.formula == product(incomplete, g).union(complete)
    else:
        # new ids start just above the guard ids, which may lie below the
        # old ids of F' and F'': substitute must not bump the allocator
        # past those
        start = max(guard_ids) + offset
        alloc = _allocator_at(start)
        got = substitute(part, g, alloc)
        old = sorted(incomplete.vars | complete.vars)
        mapping = dict(zip(old, range(start, start + len(old))))
        assert got.formula == product(rename(incomplete, mapping), g).union(
            rename(complete, mapping))
        assert alloc.fresh() == start + len(old)
    # the parts are those that splitting the joined formula would give
    again = width_partition(got.formula, part.k)
    assert (got.incomplete, got.complete) == (again.incomplete, again.complete)


def test_substitute_rejects_glued_widths_past_k():
    part = width_partition(Formula([[1], [-1], [1, 2, 3]]), 3)
    with pytest.raises(ValueError, match="one width <= k=3"):
        substitute(part, Formula([[4, 5, 6]]))
    with pytest.raises(ValueError, match="one width <= k=3"):
        substitute(part, Formula([[4], [5, 6]]))


def _scanned_vars(f):
    return frozenset(map(abs, chain.from_iterable(f.clauses)))


@settings(max_examples=300, deadline=None)
@given(substitution_st())
def test_carried_vars_are_exact(case):
    guard_ids, part, g, offset = case
    incomplete, complete = part.incomplete, part.complete
    empty, bottom = Formula([]), Formula([[]])
    old = sorted(incomplete.vars | complete.vars)
    mapping = dict(zip(old, reversed(range(max(guard_ids) + 1,
                                           max(guard_ids) + 1 + len(old)))))
    alloc = None if offset is None else _allocator_at(max(guard_ids) + offset)
    renamed = rename(incomplete, mapping)
    products = [product(a, b) for a in (renamed, empty, bottom)
                for b in (g, empty, bottom)]
    states = [
        substitute(part, g, alloc),
        substitute(WidthPartition(part.k, empty, complete), g, alloc),
        substitute(part, empty, alloc),
        substitute(WidthPartition(part.k, bottom, complete), g, alloc),
    ]
    results = [
        renamed,
        rename(complete, mapping),
        *products,
        # every operand of these unions has read its .vars, so each carries
        renamed.union(*products),
        complete.union(g, empty, bottom),
        *[f for state in states
          for f in (state.incomplete, state.complete, state.formula)],
    ]
    for f in results:
        assert f.vars == _scanned_vars(f)
        assert verify_instance(f, 4).n == len(f.vars)


def test_union_takes_any_number_of_formulas():
    f, g, h = Formula([[1]]), Formula([[2], [1]]), Formula([[-3]])
    assert f.union() == f
    assert f.union(g, h) == Formula([[1], [2], [-3]])
