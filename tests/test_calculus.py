import random

import pytest
from hypothesis import given, strategies as st

from kcnf.calculus import (
    CalculusError,
    DerivTrace,
    OP_AXIOM,
    OP_COMPOSE,
    OP_SPLIT,
    NodeInfo,
    TraceNode,
    _splittable,
    _summary,
    annotate_trace,
    axiom,
    compose,
    compose_step,
    parse_trace,
    serialize_trace,
    split,
    split_step,
)
from kcnf.formula import (Formula, VarAllocator, complete_formula, fresh_copy,
                          occurrence_census, width_partition)
from kcnf.solver import UNSAT, solve


def _clause_lists(top):
    """Lists of clauses over variables 1..top, sometimes all on one set."""
    clause = st.lists(st.integers(-top, top).filter(bool), max_size=4).filter(
        lambda c: not any(-l in c for l in c))

    def on_one_set(vs, signs):
        return [[v if sign else -v for v, sign in zip(sorted(vs), row)]
                for row in signs]

    rows = st.lists(st.lists(st.booleans(), min_size=top, max_size=top),
                    max_size=6)
    return st.one_of(st.lists(clause, max_size=6),
                     st.builds(on_one_set, st.sets(st.integers(1, top)), rows))


def _splittable_reference(incomplete, complete):
    """The per-variable definition: every F' variable in every F' clause,
    and no F' variable in F''."""
    if not incomplete.clauses:
        return True
    for v in incomplete.vars:
        if any(v not in {abs(l) for l in c} for c in incomplete.clauses):
            return False
    return not (incomplete.vars & complete.vars)


class TestDerivedState:
    def test_axiom(self):
        a = axiom(3)
        assert a.width == 0 and a.size == 1
        assert _splittable(a.incomplete, a.complete)
        assert a.formula == Formula([[]])

    def test_complete_formula_is_final(self):
        df = width_partition(complete_formula([1, 2]), 2)
        assert df.width == 2 and df.size == 0

    def test_mixed_subwidth_rejected(self):
        with pytest.raises(ValueError, match="mixed widths"):
            width_partition(Formula([[1], [2, 3]]), 3)

    def test_splittable_detection(self):
        def splittable(f, k):
            df = width_partition(f, k)
            return _splittable(df.incomplete, df.complete)

        # a pure chain prefix is splittable
        assert splittable(complete_formula([1, 2]), 3)
        # sub-width variable leaking into the width-k part is not
        assert not splittable(Formula([[-1], [1, 2], [1, -2]]), 2)
        # sub-width clause missing one of the sub-width variables is not
        assert not splittable(Formula([[1], [2]]), 2)

    @given(_clause_lists(4), _clause_lists(6))
    def test_splittable_matches_per_variable_definition(self, inc, comp):
        incomplete, complete = Formula(inc), Formula(comp)
        assert _splittable(incomplete, complete) == \
            _splittable_reference(incomplete, complete)


class TestSplit:
    def test_chain_builds_complete_formulas(self):
        alloc = VarAllocator()
        df = axiom(4)
        for w in range(1, 4):
            assert split_step(4, _summary(df)).requirement == 2 ** w
            df = split(df, 100, alloc=alloc)
            assert df.width == w and df.size == 2 ** w
            assert _splittable(df.incomplete, df.complete)
            assert df.formula == complete_formula(range(1, w + 1))
        df = split(df, 100, alloc=alloc)
        assert df.size == 0 and df.formula == complete_formula(range(1, 5))

    def test_requirement_enforced(self):
        df = split(axiom(3), 10)
        with pytest.raises(CalculusError):
            split(df, 3)  # needs 4
        assert split(df, 4).width == 2

    def test_fresh_variable_occurrence_is_exact(self):
        alloc = VarAllocator()
        df = split(axiom(5), 100, alloc=alloc)
        df = split(df, 100, alloc=alloc)
        before = df.size
        res = split(df, 100, alloc=alloc)
        (n0,) = res.formula.vars - df.formula.vars
        census = occurrence_census(res.formula)
        assert census.total[n0] == 2 * before

    def test_cannot_split_final(self):
        df = width_partition(complete_formula([1]), 1)
        with pytest.raises(CalculusError):
            split(df, 100)


class TestCompose:
    def worked_example(self):
        """The smallest interesting derivation: k=2 under cap 3."""
        alloc = VarAllocator()
        chain1 = split(axiom(2), 3, alloc=alloc)
        x1 = compose(axiom(2), chain1, 3, alloc=alloc)
        x1copy = width_partition(fresh_copy(x1.formula, alloc), 2)
        final = compose(x1, x1copy, 3, alloc=alloc)
        return x1, final

    def test_worked_example_exact(self):
        x1, final = self.worked_example()
        assert x1.formula == Formula([[-2], [-1, 2], [1, 2]])
        assert x1.width == 1 and x1.size == 1
        assert occurrence_census(x1.formula).max_occurrence == 3
        assert final.formula == Formula(
            [[-2, -5], [-1, 2], [1, 2], [-4, 5], [-3, 4], [3, 4]])
        assert final.size == 0
        assert len(final.formula) == 6 and len(final.formula.vars) == 5
        assert occurrence_census(final.formula).max_occurrence == 3
        assert solve(final.formula).status == UNSAT

    def test_split_needs_restriction_here(self):
        x1, _ = self.worked_example()
        # x1's sub-width variable also guards its width-2 clauses
        with pytest.raises(CalculusError):
            split(x1, 3)
        # the unrestricted version goes through but blows the cap
        lit = split(x1, 3, literal=True)
        assert occurrence_census(lit.formula).max_occurrence == 4

    def test_requirement_examples(self):
        def need(k, w1, w2, m1, m2):
            return compose_step(k, NodeInfo(w1, m1, 0, 0),
                                NodeInfo(w2, m2, 0, 0)).requirement

        assert need(3, 0, 1, 1, 2) == 5
        assert need(3, 1, 2, 1, 2) == 3
        assert need(2, 1, 1, 1, 1) == 2
        with pytest.raises(CalculusError, match=r"width\(left\)"):
            need(3, 2, 1, 1, 1)
        with pytest.raises(CalculusError, match="finished"):
            need(3, 1, 3, 1, 1)

    def test_state_rules_and_annotation_share_their_messages(self):
        chain1 = split(axiom(2), 100)
        done = split(chain1, 100)
        with pytest.raises(CalculusError,
                           match="^cannot split a finished derivation$"):
            split(done, 100)
        with pytest.raises(CalculusError,
                           match="^cannot compose a finished derivation$"):
            compose(axiom(2), done, 100)
        text = "0 AXIOM\n1 SPLIT 0\n2 SPLIT 1\n3 {} 2\nFINAL 3\n"
        with pytest.raises(CalculusError, match="^node 3: cannot split a "
                           "finished derivation$"):
            annotate_trace(parse_trace(text.format("SPLIT")), 2)
        with pytest.raises(CalculusError, match="^node 3: cannot compose a "
                           "finished derivation$"):
            annotate_trace(parse_trace(text.format("COMPOSE 2")), 2)

    def test_requirement_enforced(self):
        chain1 = split(axiom(3), 100)
        with pytest.raises(CalculusError):
            compose(axiom(3), chain1, 4)  # needs 3*1 + 2 = 5
        assert compose(axiom(3), chain1, 5).size == 3

    def test_copy_count_and_width(self):
        alloc = VarAllocator()
        chain1 = split(axiom(3), 100, alloc=alloc)
        g = compose(axiom(3), chain1, 100, alloc=alloc)
        # d = 2, so three copies of the axiom guarded by K^- over the block
        assert g.width == 2 and g.size == 3
        assert solve(g.formula).status == UNSAT
        gcopy = width_partition(fresh_copy(g.formula, alloc), 3)
        final = compose(g, gcopy, 100, alloc=alloc)
        assert final.size == 0
        assert solve(final.formula).status == UNSAT

    def test_operand_checks(self):
        a, b = axiom(2), axiom(3)
        with pytest.raises(CalculusError):
            compose(a, b, 100)
        chain1 = split(axiom(3), 100)
        with pytest.raises(CalculusError):
            compose(chain1, axiom(3), 100)  # width order violated
        with pytest.raises(CalculusError):
            compose(chain1, chain1, 100)  # shared variables
        done = width_partition(complete_formula([9]), 1)
        with pytest.raises(CalculusError):
            compose(done, done, 100)

    def test_width_one_operands(self):
        # width-1 operands at k=3 give d=2: three guarded copies of the left
        alloc = VarAllocator()
        left = split(axiom(3), 100, alloc=alloc)
        right = width_partition(fresh_copy(left.formula, alloc), 3)
        full = compose(left, right, 100, alloc=alloc)
        assert full.width == 3
        assert len(full.formula) == 8
        assert solve(full.formula).status == UNSAT

    def test_compose_at_its_exact_requirement(self):
        alloc = VarAllocator()
        chain1 = split(axiom(3), 100, alloc=alloc)
        wide = compose(axiom(3), chain1, 100, alloc=alloc)
        narrow = compose(axiom(3), wide, 100, alloc=alloc)
        assert narrow.width == 1 and narrow.size == 1
        other = split(axiom(3), 100, alloc=alloc)
        need = compose_step(3, _summary(narrow), _summary(other)).requirement
        assert need == 5
        assert compose(narrow, other, need, alloc=alloc).size == 0


class TestRandomDerivations:
    def test_accounting_matches_census(self):
        rng = random.Random(20240817)
        big = 10 ** 9
        for _ in range(30):
            k = rng.choice([2, 3, 4])
            alloc = VarAllocator()
            pool = [axiom(k)]
            for _ in range(rng.randint(2, 6)):
                roll = rng.random()
                open_states = [df for df in pool if df.size != 0]
                if roll < 0.3 or not open_states:
                    pool.append(axiom(k))
                elif roll < 0.6:
                    cands = [df for df in open_states
                             if _splittable(df.incomplete, df.complete)]
                    if not cands:
                        continue
                    df = rng.choice(cands)
                    before = df.size
                    res = split(df, big, alloc=alloc)
                    (n0,) = res.formula.vars - df.formula.vars
                    assert occurrence_census(res.formula).total[n0] \
                        == 2 * before
                    pool.append(res)
                else:
                    d1 = rng.choice(open_states)
                    wider = [df for df in open_states if df.width >= d1.width]
                    d2 = rng.choice(wider)
                    if d2.formula.vars & d1.formula.vars:
                        d2 = width_partition(fresh_copy(d2.formula, alloc), k)
                    d = k - d2.width
                    need = compose_step(k, _summary(d1),
                                        _summary(d2)).requirement
                    res = compose(d1, d2, big, alloc=alloc)
                    # the block is drawn first: the d least fresh ids
                    n0 = min(res.formula.vars - d1.formula.vars
                             - d2.formula.vars)
                    census = occurrence_census(res.formula)
                    for v in range(n0, n0 + d):
                        assert census.total[v] == need
                    if res.width < k:
                        assert res.size == (2 ** d - 1) * d1.size
                        assert res.width == d1.width + d
                    else:
                        assert d1.width == d2.width
                    pool.append(res)
            for df in pool:
                if len(df.formula) <= 200:
                    assert solve(df.formula).status == UNSAT


@st.composite
def trace_st(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    nodes = []
    for i in range(n):
        if i == 0:
            op = OP_AXIOM
        else:
            op = draw(st.sampled_from([OP_AXIOM, OP_SPLIT, OP_COMPOSE]))
        if op == OP_AXIOM:
            args = ()
        elif op == OP_SPLIT:
            args = (draw(st.integers(0, i - 1)),)
        else:
            args = (draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1)))
        nodes.append(TraceNode(op, args))
    final = draw(st.integers(0, n - 1))
    return DerivTrace(tuple(nodes), final)


class TestTraces:
    EXAMPLE = "0 AXIOM\n1 SPLIT 0\n2 AXIOM\n3 COMPOSE 2 1\n4 COMPOSE 3 3\nFINAL 4\n"

    def test_round_trip_example(self):
        tr = parse_trace(self.EXAMPLE)
        assert serialize_trace(tr) == self.EXAMPLE
        assert tr.nodes[3] == TraceNode(OP_COMPOSE, (2, 1))
        assert tr.final == 4

    @given(trace_st())
    def test_round_trip_random(self, tr):
        assert parse_trace(serialize_trace(tr)) == tr

    def test_parse_tolerates_blank_lines_and_spacing(self):
        text = "\n 0   AXIOM \n\n1 SPLIT 0\n\nFINAL  1\n\n"
        tr = parse_trace(text)
        assert len(tr.nodes) == 2 and tr.final == 1

    @pytest.mark.parametrize("text", [
        "",                                  # empty
        "0 AXIOM\n",                         # missing FINAL
        "FINAL 0\n",                         # final with no nodes
        "1 AXIOM\nFINAL 1\n",                # ids must start at 0
        "0 AXIOM\n2 AXIOM\nFINAL 0\n",       # gap in ids
        "0 SPLIT 0\nFINAL 0\n",              # self reference
        "0 AXIOM\n1 SPLIT 2\nFINAL 1\n",     # forward reference
        "0 AXIOM\nFINAL 1\n",                # final out of range
        "0 AXIOM\nFINAL 0\n1 AXIOM\n",       # content after FINAL
        "0 FROB\nFINAL 0\n",                 # unknown op
        "0 AXIOM\n1 SPLIT\nFINAL 1\n",       # missing argument
        "0 AXIOM\n1 COMPOSE 0\nFINAL 1\n",   # wrong arity
        "0 AXIOM\n1 SPLIT x\nFINAL 1\n",     # non-numeric ref
        "zero AXIOM\nFINAL 0\n",             # non-numeric id
        "0 AXIOM\nFINAL 0 0\n",              # FINAL arity
        "0\nFINAL 0\n",                      # id with no op
    ])
    def test_parse_errors(self, text):
        with pytest.raises(CalculusError):
            parse_trace(text)


class TestAnnotation:
    def test_worked_example_values(self):
        ann = annotate_trace(parse_trace(TestTraces.EXAMPLE), 2)
        assert [(i.width, i.size, i.requirement) for i in ann.nodes] == [
            (0, 1, 0), (1, 2, 2), (0, 1, 0), (1, 1, 3), (2, 0, 2)]
        assert ann.required_s == 3

    def test_pure_chain(self):
        text = "0 AXIOM\n1 SPLIT 0\n2 SPLIT 1\n3 SPLIT 2\nFINAL 3\n"
        ann = annotate_trace(parse_trace(text), 3)
        assert ann.required_s == 8
        assert ann.nodes[-1].width == 3 and ann.nodes[-1].size == 0

    def test_final_must_reach_width_k(self):
        with pytest.raises(CalculusError):
            annotate_trace(parse_trace("0 AXIOM\nFINAL 0\n"), 2)

    def test_unreachable_node_rejected(self):
        text = "0 AXIOM\n1 SPLIT 0\n2 AXIOM\nFINAL 1\n"
        with pytest.raises(CalculusError):
            annotate_trace(parse_trace(text), 1)

    def test_restricted_split_of_composed_rejected(self):
        # node 4 composes to width 1, node 5 splits that composed node
        text = ("0 AXIOM\n1 SPLIT 0\n2 SPLIT 1\n3 AXIOM\n4 COMPOSE 3 2\n"
                "5 SPLIT 4\n6 COMPOSE 5 5\nFINAL 6\n")
        with pytest.raises(CalculusError):
            annotate_trace(parse_trace(text), 3)
        ann = annotate_trace(parse_trace(text), 3, literal=True)
        assert ann.nodes[5].requirement == 2
        # the binding step is node 4: one axiom copy against the 4-chain
        assert ann.required_s == 5

    def test_width_order_checked(self):
        text = "0 AXIOM\n1 SPLIT 0\n2 AXIOM\n3 COMPOSE 1 2\nFINAL 3\n"
        with pytest.raises(CalculusError):
            annotate_trace(parse_trace(text), 3)

    def test_operations_on_finished_nodes_rejected(self):
        done_then_split = "0 AXIOM\n1 SPLIT 0\n2 SPLIT 1\nFINAL 2\n"
        assert annotate_trace(parse_trace(done_then_split), 2).required_s == 4
        with pytest.raises(CalculusError):
            annotate_trace(parse_trace(
                "0 AXIOM\n1 SPLIT 0\n2 SPLIT 1\n3 SPLIT 2\nFINAL 3\n"), 2)
        with pytest.raises(CalculusError):
            annotate_trace(parse_trace(
                "0 AXIOM\n1 SPLIT 0\n2 SPLIT 1\n3 COMPOSE 2 2\nFINAL 3\n"), 2)
