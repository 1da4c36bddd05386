import hashlib
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from kcnf.calculus import DerivTrace, OP_AXIOM, TraceNode, annotate_trace
from kcnf.constructions import (
    BOUNDS_CSV_HEADER,
    ConstructionSizeError,
    LOG2E,
    _holds,
    bounds_csv_row,
    bounds_row,
    lemma1_build,
    lemma1_stats,
    lemma2_build,
    lemma2_condition,
    lemma2_occurrence_bound,
    lemma2_stage_stats,
    lll_lower_bound,
    recommended_l,
    sig6,
)
from kcnf.dimacs import write_dimacs
from kcnf.formula import complete_formula, occurrence_census, width_partition
from kcnf.solver import UNSAT, enumerate_models, solve


@pytest.mark.parametrize("call,match", [
    (lambda: annotate_trace(DerivTrace((TraceNode(OP_AXIOM, ()),), 0), 0),
     "k must be positive"),
    (lambda: lll_lower_bound(0), "k must be positive"),
    (lambda: bounds_row(0), "k must be positive"),
    (lambda: complete_formula([0]), "variables must be positive"),
    # without the check, -1 would build K over {1}
    (lambda: complete_formula([-1]), "variables must be positive"),
], ids=["annotate_trace", "lll_lower_bound", "bounds_row",
        "complete_formula_zero", "complete_formula_negative"])
def test_public_functions_validate_their_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestBlockConstruction:
    def test_params(self):
        with pytest.raises(ValueError):
            lemma1_stats(3, 0)
        with pytest.raises(ValueError):
            lemma1_stats(3, 4)

    def test_known_counts(self):
        st = lemma1_stats(3, 1)
        assert (st.n, st.m, st.max_occurrence) == (9, 13, 5)
        st = lemma1_stats(4, 2)
        assert (st.n, st.m, st.max_occurrence) == (8, 17, 13)
        st = lemma1_stats(1, 1)
        assert (st.n, st.m, st.max_occurrence) == (1, 2, 2)

    def test_l_equals_k_degenerates_to_complete(self):
        f, st = lemma1_build(3, 3)
        assert f == complete_formula(sorted(f.vars))
        assert (st.n, st.m, st.max_occurrence) == (3, 8, 8)

    @pytest.mark.parametrize("k,l", [(k, l) for k in range(1, 6)
                                     for l in range(1, k + 1)])
    def test_build_matches_stats_and_is_unsat(self, k, l):
        f, st = lemma1_build(k, l)
        census = occurrence_census(f)
        assert len(f) == st.m
        assert len(f.vars) == st.n
        assert census.max_occurrence == st.max_occurrence
        assert f.is_width_uniform(k)
        assert solve(f).status == UNSAT

    def test_build_unsat_by_enumeration(self):
        f, _ = lemma1_build(3, 1)
        assert enumerate_models(f) == set()

    def test_cap(self):
        with pytest.raises(ConstructionSizeError):
            lemma1_build(24, 24)


class TestStagedConstruction:
    def test_condition_table(self):
        assert lemma2_condition(4, 1)
        assert not lemma2_condition(3, 1)
        assert lemma2_condition(10, 2)
        assert not lemma2_condition(9, 2)
        for k in range(1, 20):
            assert lemma2_condition(k, 0)

    def test_condition_tie_rule(self):
        # near-equality counts as a failure in either direction
        assert not _holds(1.0, 1.0)
        assert not _holds(1.0, 1.0 + 1e-12)
        assert not _holds(1.0 + 1e-12, 1.0)
        assert _holds(1.0, 1.0 + 1e-6)
        assert not _holds(2.0, 1.0)

    def test_stage_stats_known(self):
        stats = lemma2_stage_stats(4, 1)
        assert [(s.n, s.m, s.max_occurrence, s.incomplete_size) for s in stats] \
            == [(3, 8, 8, 8), (16, 33, 9, 0)]
        final = lemma2_stage_stats(8, 1)[-1]
        assert (final.n, final.m, final.max_occurrence) == (64, 1025, 129)
        assert final.max_occurrence <= lemma2_occurrence_bound(8, 1) == 256

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            lemma2_stage_stats(3, 1)
        with pytest.raises(ValueError):
            lemma2_build(9, 2)
        # a negative l would pass the inequality: -0.5 <= log2(e) * 7
        for k, l in ((5, -1), (0, 1)):
            with pytest.raises(ValueError, match="parameter condition fails"):
                lemma2_stage_stats(k, l)

    def test_build_l0_is_complete_formula(self):
        stages = lemma2_build(2, 0)
        assert len(stages) == 1
        f, st = stages[0]
        assert f == complete_formula([1, 2])
        assert st.max_occurrence == 4 <= lemma2_occurrence_bound(2, 0) == 8

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_build_stages_check_out(self, k):
        s_bound = lemma2_occurrence_bound(k, 1)
        stages = lemma2_build(k, 1)
        expected = lemma2_stage_stats(k, 1)
        assert len(stages) == 2
        for j, ((f, st), want) in enumerate(zip(stages, expected)):
            assert st == want
            census = occurrence_census(f)
            assert len(f) == st.m and len(f.vars) == st.n
            assert census.max_occurrence == st.max_occurrence <= s_bound
            inc = width_partition(f, k).incomplete
            assert len(inc) == st.incomplete_size
            if inc.clauses:
                assert inc.is_width_uniform(k - 1 + j)
            assert solve(f).status == UNSAT

    def test_cap(self):
        with pytest.raises(ConstructionSizeError):
            lemma2_build(40, 0)


class TestOneStep:
    @pytest.mark.parametrize("k", range(4, 10))
    def test_block_construction_is_the_first_stage_at_l1(self, k):
        assert lemma1_build(k, 1) == lemma2_build(k, 1)[-1]

    def test_small_family_bytes_pinned(self):
        # recorded before both families were built by one shared step
        h = hashlib.sha256()
        for k in range(1, 9):
            for l in range(1, k + 1):
                h.update(write_dimacs(lemma1_build(k, l)[0]).encode())
        for k in range(1, 11):
            for l in range(k + 1):
                if lemma2_condition(k, l):
                    for f, _ in lemma2_build(k, l):
                        h.update(write_dimacs(f).encode())
        assert h.hexdigest() == (
            "367f64705d8aa6e29f29e76fe352f341357968e1ad42b77657853269a7dbe098")


class TestRecommendedL:
    def test_known_values(self):
        assert recommended_l(100, "lemma2") == 3
        assert recommended_l(2, "lemma2") == 0
        assert recommended_l(16, "lemma1") == 0

    def test_range_checks(self):
        with pytest.raises(ValueError):
            recommended_l(3, "lemma1")
        with pytest.raises(ValueError):
            recommended_l(1, "lemma2")
        with pytest.raises(ValueError):
            recommended_l(10, "lemma3")

    @pytest.mark.parametrize("scheme,k0", [("lemma1", 4), ("lemma2", 2)])
    def test_picker_is_the_largest_passing_l(self, scheme, k0):
        for k in range(k0, 300, 7):
            l = recommended_l(k, scheme)
            if scheme == "lemma1":
                bound = k * LOG2E / math.log2(k) ** 2
            else:
                bound = LOG2E * k / (2 * math.log2(k))
            if l > 0:
                assert _holds(float(2 ** l), bound)
            assert not _holds(float(2 ** (l + 1)), bound)

    def test_lemma2_picker_satisfies_the_condition(self):
        # the picker is strictly more conservative than the validity condition
        for k in range(2, 200):
            assert lemma2_condition(k, recommended_l(k, "lemma2"))


def _lll_oracle(k: int) -> int:
    """Independent recomputation via high-precision decimal exp(1)."""
    getcontext().prec = k + 30
    e = Decimal(1).exp()
    return int(Decimal(2 ** k) / (e * k))


class TestLowerBound:
    def test_known_values(self):
        assert lll_lower_bound(7) == 6
        assert lll_lower_bound(3) == 0
        assert lll_lower_bound(1) == 0
        assert lll_lower_bound(4) == 1
        assert lll_lower_bound(10) == 37

    @pytest.mark.parametrize("k", list(range(1, 30)) + [64, 100, 256, 512])
    def test_against_decimal_oracle(self, k):
        assert lll_lower_bound(k) == _lll_oracle(k)


class TestBoundsTable:
    def test_header(self):
        assert BOUNDS_CSV_HEADER == \
            "k,lll_lower,lemma1_s,lemma1_l,lemma2_s,lemma2_l,line_a,line_b,line_d"

    def test_row_k3(self):
        row = bounds_row(3)
        assert row.lll_lower == 0
        # candidates over l=1..3 are 5, 8, 8; the min is at l=1
        assert (row.lemma1_s, row.lemma1_l) == (5, 1)
        assert (row.lemma2_s, row.lemma2_l) == (16, 0)

    def test_row_k7_csv(self):
        assert bounds_csv_row(bounds_row(7)) == \
            "7,6,65,1,128,1,0.367879,15.5673,1.63368"

    def test_lemma1_column_is_the_min_over_l(self):
        for k in range(1, 12):
            row = bounds_row(k)
            best = min(lemma1_stats(k, l).max_occurrence for l in range(1, k + 1))
            assert row.lemma1_s == best
            assert lemma1_stats(k, row.lemma1_l).max_occurrence == best

    def test_columns_bracket_each_other(self):
        # lower bound below both construction bounds once k is past the noise
        for k in range(3, 20):
            row = bounds_row(k)
            assert row.lll_lower <= row.lemma1_s
            assert row.lll_lower <= row.lemma2_s

    def test_lemma2_column_uses_largest_valid_l(self):
        for k in range(1, 40):
            row = bounds_row(k)
            assert lemma2_condition(k, row.lemma2_l)
            assert not lemma2_condition(k, row.lemma2_l + 1)

    def test_sig6(self):
        assert sig6(1 / math.e) == "0.367879"
        assert sig6(0.0) == "0"
        assert sig6(15.567296) == "15.5673"
