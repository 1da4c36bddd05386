import dataclasses
import hashlib
import heapq
import multiprocessing
import re
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from kcnf.calculus import (
    CalculusError,
    DerivTrace,
    OP_AXIOM,
    OP_COMPOSE,
    OP_SPLIT,
    TraceNode,
    annotate_trace,
    parse_trace,
    serialize_trace,
)
import kcnf.dp
import kcnf.formula
from kcnf.cli import run
from kcnf.constructions import lemma1_build, lemma2_build
from kcnf.dp import (
    DEFAULT_CLAUSE_CAP,
    _capped_fixpoint,
    _frontier_threshold,
    _oracle_feasible,
    _search_witness,
    _start,
    _threshold_search,
    _trace_from_piece,
    F2_CSV_HEADER,
    MaterializeError,
    f2_csv_row,
    f2_norm_string,
    f2_table,
    f2_value,
    feasible,
    materialize,
    oracle_f2,
    staircase_threshold,
)
from kcnf.formula import occurrence_census
from kcnf.solver import UNSAT, solve

# regression pins; 1..3 are the classically known values, the rest were
# cross-checked against the exhaustive fixed-cap closure up to k = 6 and
# frozen from earlier runs beyond that
F2_RESTRICTED = {
    1: 1, 2: 2, 3: 4, 4: 8, 5: 14, 6: 26, 7: 44, 8: 80, 9: 134, 10: 244,
    11: 468, 12: 916, 14: 3282, 16: 12004, 20: 160866, 24: 2201716,
    28: 28824004, 32: 394115624,
}
F2_LITERAL = {1: 1, 2: 2, 3: 4, 4: 6, 5: 12, 6: 20, 12: 734, 16: 9606}
F2_128 = 10547015236413970699201107676743671056
F2_256 = int("19564847516806045430379739490280449663"
             "36542570295493468906814486630052008478")

# sha256 of serialize_trace(feasible(k, f2 + 1)), recorded before feasible
# bounded the frontier by the search's threshold; 64, 96 and literal 40,
# frontier witnesses all, before the frontier lost its bit-length prefilters
WITNESS_SHA256 = {
    (64, False):
        "ec8e419a262357827f7012c6f036ebacb82c3a8401fdb1fbf7d5599cc62bd20c",
    (96, False):
        "98447d4bc5b78bdcd145edc3dff3ca5149af0ae820a4b98e7b942040c018a4b5",
    (100, False):
        "84a65e488a1f5b45fba97a7df0c966d9f89db9b89db140f9ef02036b9fba9748",
    (128, False):
        "0f187ec3845f9d79d30fb4c0fe646e94764719a0ea551de8b0afd99ff923bce4",
    (40, True):
        "380efa56d7e0eefb76f7af0a1e168fa29a31e321837391e1cc833e83b85c9618",
    (63, True):
        "205c94dd6d2502c07fb328efde41a45e069477ccfb0b1151370965f96688f9ba",
    (70, True):
        "c1f2bd0e59ea65d5bb35b4c988f3c60fef30c30174aa7caa4cff015dab33cedb",
}

# sha256 of the frontier's heap ints in push order, one per line, under
# feasible's bound: a reorder inside a key tie keeps the push count but
# can change the witness
PUSH_ORDER_SHA256 = {
    (64, False):
        "1944f8389ceb3093adfa3734fdb9f1818470fb6f0aa247733252cb7a9d358d4a",
    (96, False):
        "cca2a2703f663f8b82a742408e2d3b4ace92f2e8182f2a6ffe3f2d14f10a0f20",
    (40, True):
        "fe58b78cec41a975dcc440ea44515f35136b96a10702a225d96ef07366850ac0",
}

# one sha256 over the serialized search witnesses, _search_witness(k,
# f2 + 1), for restricted k = 1..48 and then literal k = 1..48
SEARCH_WITNESS_SHA256 = \
    "b44c264e4c4cdc49252aa37882161b25fc78645661b036f109aa3925122e1e44"

# one sha256 over serialize_trace(feasible(k, f2 + 1)), the frontier
# witnesses, for restricted k = 1..48 and then literal k = 1..48
FRONTIER_WITNESS_SHA256 = \
    "bba1775b5924b13ac0630e3c8ea44a328335c107c915f911cfe48af10febeb11"


@pytest.fixture(scope="module")
def restricted_thresholds():
    """T(k) = f2(k) + 1 for restricted k = 1..160, index k - 1."""
    return [f2 + 1 for _, f2 in f2_table(1, 160)]


def _stair(d, w):
    """L_d(w) = (2^d - 1)^floor(w/d) 2^(w mod d), the cheapest size at width
    w built from d-blocks."""
    return ((1 << d) - 1) ** (w // d) << (w % d)


def _staircase_threshold(k):
    """(T, d) from the uniform-guard staircase closed form.

    c_d(k) is the cheapest step with guard width e that would reach width
    k - d + 1, the min over e = d..k - d + 1 of (2^e - 1) L_d(k - d + 1 - e)
    + L_d(k - e) (see _stair); T is the max of c_d(k) over every d whose e
    range is not empty, and d the one that attains it.
    """
    best = (0, 0)
    for d in range(1, (k + 1) // 2 + 1):
        c = min(((1 << e) - 1) * _stair(d, k - d + 1 - e) + _stair(d, k - e)
                for e in range(d, k - d + 2))
        if c > best[0]:
            best = (c, d)
    return best


def _certifies(k, s, low, literal):
    """Whether low[w] bounds from below the size of every piece of width w
    derivable within cap s >= 1 (an entry above s: none) and no finish fits
    within s.

    The bound is an inductive invariant of the piece rules: every chain
    that fits, the axiom included, is at least its entry, and every step
    whose cheapest operands fit lands below width k on an entry no larger
    than its output. The checker knows only the rules, not how low was
    found.
    """
    for w1, m1 in enumerate(low):
        if 1 << w1 <= s and m1 > 1 << w1:
            return False
        for d in range(1, k - w1 + 1):
            t = ((1 << d) - 1) * m1
            if t + low[k - d] <= s and (w1 + d == k or low[w1 + d] > t):
                return False
        # at width k - 1 the d = 1 self-compose above covers the split
        if literal and w1 < k - 1 and 2 * m1 <= s and low[w1 + 1] > 2 * m1:
            return False
    return True


def _frontier_witness(k, literal, t, bound):
    """The frontier's serialized witness, or None where feasible would
    fall back to the search's derivation; bound = 2^k is the unbounded
    run."""
    root = _frontier_threshold(k, literal, bound)
    if root is None:
        return None
    trace = _trace_from_piece(root)
    if annotate_trace(trace, k, literal).required_s != t:
        return None
    return serialize_trace(trace)


class TestF2Value:
    def test_small_known_values(self):
        for k, expect in F2_RESTRICTED.items():
            assert f2_value(k) == expect, k

    def test_literal_mode_values(self):
        for k, expect in F2_LITERAL.items():
            assert f2_value(k, literal=True) == expect, k

    def test_matches_oracle_both_modes(self):
        for k in range(1, 7):
            assert f2_value(k) == oracle_f2(k)
            assert f2_value(k, literal=True) == oracle_f2(k, literal=True)

    def test_literal_never_above_restricted(self):
        # every restricted step is also a legal unrestricted step
        for k in range(1, 13):
            assert f2_value(k, literal=True) <= f2_value(k)

    def test_larger_values_frozen(self):
        assert f2_value(64) == 1010075240478515624
        assert f2_value(96) == 2990436453502678619598885390

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            f2_value(0)

    def test_search_matches_frontier_both_modes(self):
        # f2_value is a bracketed fixed-cap search; the frontier fixpoint
        # shares no code with it and stays behind feasible's traces
        for literal in (False, True):
            for k in range(1, 49):
                trace = _trace_from_piece(_frontier_threshold(k, literal,
                                                              1 << k))
                assert (f2_value(k, literal)
                        == annotate_trace(trace, k, literal).required_s - 1), \
                    (k, literal)

    def test_both_fixpoints_return_the_finishing_piece(self):
        # the frontier under feasible's bound and one search check at cap
        # T(k) each hand back a step whose trace finishes at width k and
        # needs exactly T(k). At k = 1 the frontier's step is the split chain
        for literal in (False, True):
            for k in range(1, 49):
                t = f2_value(k, literal) + 1
                traces = [_trace_from_piece(_frontier_threshold(
                              k, literal, bound=t)),
                          _trace_from_piece(_search_witness(k, t, literal))]
                if k == 1:
                    assert serialize_trace(traces[0]) == \
                        "0 AXIOM\n1 SPLIT 0\nFINAL 1\n"
                for trace in traces:
                    ann = annotate_trace(trace, k, literal)
                    assert ann.nodes[trace.final].width == k \
                        and ann.required_s == t, (k, literal)

    def test_search_witness_bytes_pinned(self):
        # the search witness is feasible's fallback; the check's piece
        # bookkeeping decides its bytes
        digest = hashlib.sha256()
        for literal in (False, True):
            for k in range(1, 49):
                t = f2_value(k, literal) + 1
                digest.update(serialize_trace(_trace_from_piece(
                    _search_witness(k, t, literal))).encode())
        assert digest.hexdigest() == SEARCH_WITNESS_SHA256

    def test_frontier_witness_bytes_pinned(self):
        # feasible's witnesses for every small k; the frontier's operand
        # loops decide their bytes
        digest = hashlib.sha256()
        for literal in (False, True):
            for k in range(1, 49):
                f2 = f2_value(k, literal)
                digest.update(serialize_trace(
                    feasible(k, f2 + 1, literal)).encode())
        assert digest.hexdigest() == FRONTIER_WITNESS_SHA256

    def test_staircase_closed_form(self, restricted_thresholds):
        # T(k) in closed form, a uniform-guard staircase; observed, not
        # proven. k = 2 is the one exception: the form gives 2, T(2) = 3
        for k, t in enumerate(restricted_thresholds, start=1):
            expect = 2 if k == 2 else t
            assert _staircase_threshold(k)[0] == expect, k
        for k, f2 in ((64, 1010075240478515624),
                      (96, 2990436453502678619598885390),
                      (128, F2_128), (256, F2_256)):
            assert _staircase_threshold(k)[0] == f2 + 1, k
        assert [_staircase_threshold(k)[1] for k in (10, 32, 82, 128, 160)] \
            == [3, 4, 5, 5, 5]
        # the search's first probe scans d only to the bit length of k
        for k in [*range(1, 161), 256]:
            assert staircase_threshold(k) == _staircase_threshold(k)[0], k

    def test_values_are_certified(self, restricted_thresholds):
        # below T the sizes of one check at T - 1 are a lower certificate
        # that the checker above confirms and at T rejects; at T the
        # search's witness needs exactly T. The check at T - 1 rejects a
        # step of cost exactly T. The mutants raise the widest entry below
        # its chain (none at small k) or mark the widest reachable width
        # (an entry below T; the others hold their chain) empty, and the
        # checker must reject both
        cases = [(k, t, False) for k, t in
                 enumerate(restricted_thresholds, start=1)]
        cases += [(k, f2_value(k, True) + 1, True) for k in range(1, 91)]
        for k, t, literal in cases:
            low, req = _start(k)
            assert _capped_fixpoint(k, t - 1, low, req, 1, literal) == t
            assert _certifies(k, t - 1, low, literal), (k, literal)
            assert not _certifies(k, t, low, literal), (k, literal)
            below = [w for w in range(k) if low[w] < 1 << w]
            edits = [(w, low[w] + 1) for w in below[-1:]]
            edits.append((max(w for w in range(k) if low[w] < t), 1 << k))
            for w, value in edits:
                mutant = list(low)
                mutant[w] = value
                assert not _certifies(k, t - 1, mutant, literal), \
                    (k, literal, w)
            trace = _trace_from_piece(_search_witness(k, t, literal))
            assert annotate_trace(trace, k, literal).required_s == t

    def test_closed_form_staircase_certifies(self):
        # the lower certificate in closed form, L_{d*}: the d*-block
        # staircase up to width k - d*, the chain 2^w above it. The checker
        # confirms it at T - 1 and rejects it at T, the closed form's T,
        # which test_staircase_closed_form ties to the search. Without the
        # chain on top it fails at every k: at k = 10 (d* = 3) the axiom
        # under a d = 2 guard is a width-2 piece of size 3 < L(2) = 4, at
        # cost 3 + L(8) = 199 <= 244
        for k in range(3, 161):
            t, d = _staircase_threshold(k)
            bare = [_stair(d, w) for w in range(k)]
            low = bare[:k - d + 1] + [1 << w for w in range(k - d + 1, k)]
            assert _certifies(k, t - 1, low, False), k
            assert not _certifies(k, t, low, False), k
            assert not _certifies(k, t - 1, bare, False), k

    @pytest.mark.parametrize("literal", [False, True])
    def test_search_finishes_at_two_to_the_k(self, literal):
        # T(1) = 2 = 2^1: a check at cap 2 must still report that finish,
        # as the compose of the axiom with itself
        trace = _trace_from_piece(_search_witness(1, 2, literal))
        assert serialize_trace(trace) == "0 AXIOM\n1 COMPOSE 0 0\nFINAL 1\n"
        assert annotate_trace(trace, 1, literal).required_s == 2

    def test_guess_only_steers_the_search(self):
        # a wrong first probe, outside the bracket or on either side of
        # T, costs checks but never the value
        for literal in (False, True):
            for k in range(1, 33):
                t = f2_value(k, literal) + 1
                for probe in (0, 1, t // 3, t - 1, t, t + 1, 2 * t, 2 ** k):
                    assert _threshold_search(k, literal, probe) == t, \
                        (k, literal, probe)

    @staticmethod
    def _count_checks(monkeypatch):
        checks = []
        capped = kcnf.dp._capped_fixpoint

        def counted(*args):
            checks.append(args[1])
            return capped(*args)

        monkeypatch.setattr(kcnf.dp, "_capped_fixpoint", counted)
        return checks

    @pytest.mark.parametrize("k", [80, 128, 200, 256])
    def test_unguided_search_starts_near_the_threshold(self, k, monkeypatch):
        # the closed form is T(k) here, so the check at T - 1 rejects a
        # step of cost T and the check at T finishes
        t = staircase_threshold(k)
        checks = self._count_checks(monkeypatch)
        assert f2_value(k) + 1 == t == {128: F2_128 + 1,
                                         256: F2_256 + 1}.get(k, t)
        assert checks == [t - 1, t]

    def test_search_at_k2_starts_below_the_threshold(self, monkeypatch):
        # the form gives 2 against T(2) = 3; the check at cap 1 already
        # rejects a step of cost 3, and the check at 3 finishes
        checks = self._count_checks(monkeypatch)
        assert f2_value(2) + 1 == 3
        assert checks == [1, 3]

    def test_check_at_every_cap(self):
        # one number out: at most s exactly when a finish fits within s;
        # an infeasible check's least rejected cost c has s < c <= T, a
        # feasible check's requirement r has T <= r <= s
        cases = [(k, literal, True) for k in range(1, 7)
                 for literal in (False, True)]
        cases += [(k, False, False) for k in range(7, 11)]
        for k, literal, oracle in cases:
            t = f2_value(k, literal) + 1
            for s in range(1, t + 2):
                bound = _capped_fixpoint(k, s, *_start(k), 1, literal)
                if oracle:
                    assert (bound <= s) == _oracle_feasible(k, s, literal), \
                        (k, literal, s)
                if bound > s:
                    assert bound <= t, (k, literal, s)
                else:
                    assert t <= bound, (k, literal, s)

    def test_table_takes_two_checks_per_k(self, monkeypatch):
        # 1 check at k = 1 (T = 2 = 2^1 closes the bracket), 2 at k = 2
        # and at every k from there on
        checks = self._count_checks(monkeypatch)
        list(f2_table(1, 160))
        assert len(checks) == 319

    def test_cli_rejects_nonpositive_k_before_the_closed_form(self, capsys):
        # the closed form's shifts are taken only after k is validated
        for k in ("0", "-3"):
            assert run(["f2", "--k", k]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: k must be positive" in captured.err


class TestFeasible:
    def test_threshold_is_sharp(self):
        for k in range(1, 7):
            f2 = f2_value(k)
            assert feasible(k, f2) is None
            assert feasible(k, f2 + 1) is not None

    def test_sweep_matches_oracle(self):
        # feasibility is monotone in s and flips exactly past the oracle f2
        for k in range(1, 6):
            f2 = oracle_f2(k)
            for s in range(1, 2 ** k + 2):
                assert (feasible(k, s) is not None) == (s > f2), (k, s)

    def test_witness_does_not_depend_on_the_cap(self):
        # every cap from T(k) below 2^k gets the threshold witness
        for literal in (False, True):
            for k in range(2, 13):
                t = f2_value(k, literal) + 1
                expect = serialize_trace(feasible(k, t, literal))
                for s in (t + 1, 2 * t - 1, 2 ** k - 1):
                    if s < 2 ** k:
                        assert serialize_trace(feasible(k, s, literal)) \
                            == expect, (k, literal, s)

    def test_generous_cap_returns_split_chain(self):
        tr = feasible(3, 8)
        assert serialize_trace(tr) == (
            "0 AXIOM\n1 SPLIT 0\n2 SPLIT 1\n3 SPLIT 2\nFINAL 3\n")
        ann = annotate_trace(tr, 3)
        assert ann.required_s == 8

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_cap_of_two_to_the_k_is_the_split_chain(self, k):
        tr = feasible(k, 2 ** k)
        assert tr.nodes == (TraceNode(OP_AXIOM, ()),) + tuple(
            TraceNode(OP_SPLIT, (i,)) for i in range(k))
        assert tr.final == k

    def test_witness_annotates_to_exact_requirement(self):
        for k in (2, 3, 4, 5, 6, 8, 10, 16):
            f2 = f2_value(k)
            tr = feasible(k, f2 + 1)
            ann = annotate_trace(tr, k)
            assert ann.required_s == f2 + 1
            assert ann.nodes[tr.final].width == k

    def test_literal_witness_annotates_to_exact_requirement(self):
        for k in (4, 5, 6, 12):
            f2 = f2_value(k, literal=True)
            tr = feasible(k, f2 + 1, literal=True)
            ann = annotate_trace(tr, k, literal=True)
            assert ann.required_s == f2 + 1

    def test_literal_witness_meets_threshold_past_53_bits(self):
        # the frontier's 53-bit heap keys let a tie class settle out of
        # requirement order: in literal mode its witness at k = 63 needs
        # more than T(63), and at k = 70 it misses T(70) altogether
        for k in (63, 70):
            f2 = f2_value(k, literal=True)
            tr = feasible(k, f2 + 1, literal=True)
            ann = annotate_trace(tr, k, literal=True)
            assert ann.required_s == f2 + 1
            assert ann.nodes[tr.final].width == k
            assert feasible(k, f2, literal=True) is None

    def test_bounded_frontier_keeps_the_witness(self):
        # feasible bounds the frontier at the edge of T(k)'s 53-bit key
        # class; literal k = 60..72 crosses 53 bits and includes the k
        # where both runs fall back to the search's derivation
        fallbacks = []
        cases = [(k, False) for k in range(1, 65)]
        cases += [(k, True) for k in range(60, 73)]
        for k, literal in cases:
            t = f2_value(k, literal) + 1
            unbounded = _frontier_witness(k, literal, t, 1 << k)
            assert _frontier_witness(k, literal, t, bound=t) == unbounded, \
                (k, literal)
            if unbounded is None:
                fallbacks.append((k, literal))
        assert (63, True) in fallbacks and (70, True) in fallbacks

    @pytest.mark.parametrize("k,literal", sorted(WITNESS_SHA256))
    def test_witness_bytes_pinned(self, k, literal):
        f2 = f2_value(k, literal)
        text = serialize_trace(feasible(k, f2 + 1, literal=literal))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == WITNESS_SHA256[k, literal]

    @pytest.mark.parametrize("k,literal,pushes", [
        (64, False, 14650), (96, False, 52461), (40, True, 3887)])
    def test_frontier_heap_pushes_pinned(self, k, literal, pushes,
                                         monkeypatch):
        # the pushes the frontier makes under feasible's bound; a pruning
        # change that lets another candidate into the heap, or keeps one
        # out, shows here even where the witness stays the same, and so
        # does a reorder inside a key tie
        t = f2_value(k, literal) + 1
        items = []

        def heappush(heap, item):
            items.append(item)
            heapq.heappush(heap, item)

        monkeypatch.setattr(kcnf.dp, "heapq", types.SimpleNamespace(
            heappush=heappush, heappop=heapq.heappop, heapify=heapq.heapify))
        trace = _trace_from_piece(_frontier_threshold(k, literal, bound=t))
        assert annotate_trace(trace, k, literal).required_s == t
        assert len(items) == pushes
        text = "\n".join(map(str, items))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            PUSH_ORDER_SHA256[k, literal]

    def test_literal_witness_can_need_free_splits(self):
        # below the restricted threshold the witness must split something
        # that is not a plain chain, so restricted annotation rejects it
        tr = feasible(5, 13, literal=True)
        with pytest.raises(CalculusError):
            annotate_trace(tr, 5)

    def test_witness_is_deterministic(self):
        a = serialize_trace(feasible(6, 27))
        b = serialize_trace(feasible(6, 27))
        assert a == b
        assert parse_trace(a) == feasible(6, 27)

    def test_shared_reference_finish_occurs(self):
        # the k=6 witness closes by composing a node with itself
        tr = feasible(6, 27)
        final = tr.nodes[tr.final]
        assert final.op == OP_COMPOSE and final.args[0] == final.args[1]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            feasible(0, 3)
        with pytest.raises(ValueError):
            feasible(3, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=33))
    def test_any_returned_trace_fits_its_cap(self, k, s):
        tr = feasible(k, s)
        if tr is not None:
            ann = annotate_trace(tr, k)
            assert ann.required_s <= s
            assert ann.nodes[tr.final].width == k


class TestTraceClauseCounts:
    def test_chain_doubles(self):
        tr = feasible(3, 8)
        assert [n.clauses for n in annotate_trace(tr, 3).nodes] == [1, 2, 4, 8]

    def test_shared_nodes_counted_per_reference(self):
        # compose a width-1 piece with itself at k=2: d=1, so the final
        # formula holds one guarded copy of each operand expansion
        tr = DerivTrace((
            TraceNode(OP_AXIOM, ()),
            TraceNode(OP_SPLIT, (0,)),
            TraceNode(OP_COMPOSE, (1, 1)),
        ), 2)
        assert [n.clauses for n in annotate_trace(tr, 2).nodes] == [1, 2, 4]


def _deep_trace():
    """3,000 nested composes of the axiom onto a split, then a finish that
    expands the chain twice."""
    lines = ["0 AXIOM", "1 SPLIT 0"]
    lines += [f"{i} COMPOSE 0 {i - 1}" for i in range(2, 3000)]
    lines += ["3000 COMPOSE 2999 2999", "FINAL 3000"]
    return parse_trace("\n".join(lines) + "\n")


class TestMaterialize:
    def test_witnesses_build_verify_and_refute(self):
        for k in (2, 3, 4, 5):
            s = f2_value(k) + 1
            formula = materialize(feasible(k, s), k, s)
            assert formula.is_width_uniform(k)
            census = occurrence_census(formula)
            assert census.max_occurrence == s
            assert solve(formula).status == UNSAT

    @pytest.mark.parametrize("k", range(2, 9))
    def test_restricted_witnesses_are_tight(self, k):
        # the piece model charges what the formula really holds: both
        # witnesses at T = f2 + 1 build a variable in exactly T clauses
        t = f2_value(k) + 1
        for trace in (feasible(k, t),
                      _trace_from_piece(_search_witness(k, t, False))):
            formula = materialize(trace, k, t)
            assert (occurrence_census(formula).max_occurrence
                    == annotate_trace(trace, k).required_s == t)

    @pytest.mark.parametrize("build,base", [
        (lambda: materialize(_deep_trace(), 2, 3), 1),
        (lambda: lemma1_build(7, 2), 2 ** 5),
        (lambda: lemma2_build(10, 2), 2 ** 8),
    ], ids=["deep-trace", "lemma1", "lemma2"])
    def test_built_states_are_never_split_again(self, monkeypatch, build,
                                                base):
        # each state is built from its parts: only a formula from outside,
        # the one-clause axiom or the base K(k - l), reaches width_partition
        sizes = []
        original = kcnf.formula.width_partition

        def recording(f, k):
            sizes.append(len(f))
            return original(f, k)

        for name, module in list(sys.modules.items()):
            if ((name == "kcnf" or name.startswith("kcnf."))
                    and vars(module).get("width_partition") is original):
                monkeypatch.setattr(module, "width_partition", recording)
        build()
        assert set(sizes) <= {base}

    def test_literal_witness_overflows_cap(self):
        # the relaxed split rule admits traces whose textual execution
        # drives shared variables past the cap; building one detects it
        s = f2_value(4, literal=True) + 1
        tr = feasible(4, s, literal=True)
        with pytest.raises(MaterializeError):
            materialize(tr, 4, s, literal=True)

    def test_clause_total_matches_plan(self):
        k, s = 4, f2_value(4) + 1
        tr = feasible(k, s)
        formula = materialize(tr, k, s)
        assert len(formula) == annotate_trace(tr, k).nodes[tr.final].clauses

    def test_clause_count_checked_at_every_node(self, monkeypatch):
        self._check_wrong_annotation(
            monkeypatch, "clauses",
            "node 3 realized 4 clauses, annotation says 5")

    def test_size_checked_at_every_node(self, monkeypatch):
        self._check_wrong_annotation(
            monkeypatch, "size", "node 3 realized |F'| = 4, annotation says 5")

    def _check_wrong_annotation(self, monkeypatch, field, message):
        k, s = 3, 5
        tr = feasible(k, s)
        ann = annotate_trace(tr, k)
        nodes = list(ann.nodes)
        nodes[3] = dataclasses.replace(
            nodes[3], **{field: getattr(nodes[3], field) + 1})
        wrong = dataclasses.replace(ann, nodes=tuple(nodes))
        monkeypatch.setattr(kcnf.dp, "annotate_trace", lambda *a, **kw: wrong)
        with pytest.raises(MaterializeError, match=re.escape(message)):
            materialize(tr, k, s)

    def test_self_pair_expands_disjoint_copies(self):
        tr = DerivTrace((
            TraceNode(OP_AXIOM, ()),
            TraceNode(OP_SPLIT, (0,)),
            TraceNode(OP_COMPOSE, (1, 1)),
        ), 2)
        formula = materialize(tr, 2, 4)
        assert len(formula) == 4
        assert occurrence_census(formula).max_occurrence <= 4
        assert solve(formula).status == UNSAT

    def test_insufficient_cap_rejected(self):
        tr = feasible(3, 5)
        with pytest.raises(MaterializeError):
            materialize(tr, 3, 4)

    def test_expansion_cap_guards_blowup(self):
        k = 25
        tr = feasible(k, 2 ** k)
        assert 2 ** k > DEFAULT_CLAUSE_CAP
        with pytest.raises(MaterializeError):
            materialize(tr, k, 2 ** k)

    def test_mode_mismatch_detected(self):
        tr = feasible(5, 13, literal=True)
        with pytest.raises(CalculusError):
            materialize(tr, 5, 13, literal=False)


class TestOracle:
    def test_known_values(self):
        assert [oracle_f2(k) for k in range(1, 6)] == [1, 2, 4, 8, 14]

    def test_literal_known_values(self):
        assert [oracle_f2(k, literal=True) for k in range(1, 6)] == [1, 2, 4, 6, 12]

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            oracle_f2(0)


class TestTable:
    def test_norm_strings(self):
        assert f2_norm_string(8, 4) == "2"
        assert f2_norm_string(14, 5) == "2.1875"
        assert f2_norm_string(26, 6) == "2.4375"
        assert f2_norm_string(12004, 16) == "2.93066"
        # exceeds float range in the numerator, still six digits
        assert f2_norm_string(1010075240478515624, 64) == "3.50440"

    def test_csv_row_format(self):
        assert F2_CSV_HEADER == "k,f2,f2_norm,line_a,line_b,line_d"
        assert (f2_csv_row(*next(f2_table(7, 7)))
                == "7,44,2.40625,0.367879,15.5673,1.63368")
        assert f2_csv_row(*next(f2_table(1, 1))) == "1,1,0.5,0.367879,0,0.23"

    def test_table_streams_rows_in_order(self):
        assert list(f2_table(1, 8)) == list(zip(
            range(1, 9), [1, 2, 4, 8, 14, 26, 44, 80]))

    def test_parallel_table_matches_serial(self):
        serial = list(f2_table(1, 10))
        parallel = list(f2_table(1, 10, jobs=2))
        assert serial == parallel

    def test_parallel_table_spans_tasks(self):
        # more k than workers, and a range that starts past k = 1
        serial = list(f2_table(1, 40))
        assert list(f2_table(1, 40, jobs=2)) == serial
        assert list(f2_table(30, 40)) == serial[29:]

    def test_pool_never_outnumbers_chunks(self, monkeypatch):
        # a stand-in Pool that records its size and maps in this process:
        # one k takes the serial path, else min(jobs, number of k) workers
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        assert list(f2_table(5, 5, jobs=8)) == list(f2_table(5, 5))
        assert list(f2_table(1, 3, jobs=8)) == list(f2_table(1, 3))
        assert list(f2_table(1, 10, jobs=2)) == list(f2_table(1, 10))
        assert sizes == [3, 2]

    def test_threshold_at_most_doubles(self, restricted_thresholds):
        # T(k + 1) <= 2 T(k) for T = f2 + 1: observed, not proven
        for literal, ts in (
                (False, restricted_thresholds),
                (True, [f2_value(k, literal=True) + 1 for k in range(1, 41)])):
            over = [k for k, (a, b) in enumerate(zip(ts, ts[1:]), start=1)
                    if b > 2 * a]
            assert over == [], (literal, over)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            list(f2_table(0, 4))
        with pytest.raises(ValueError):
            list(f2_table(5, 4))
