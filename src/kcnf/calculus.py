"""A two-rule calculus deriving unsatisfiable k-CNF under an occurrence cap.

A derivation state is an unsatisfiable formula F = F' u F'' where F'' is the
part already at width k and F' (never empty before the end) is width-uniform
at some w < k. It is held as a formula.WidthPartition of F' and F'', and
each rule builds the next one from its operands' parts by formula.substitute,
F' x G u F'' for a guard formula G. The state is summarized by (w, |F'|);
both rules below track exactly how many clauses each fresh variable lands
in, which is what makes the occurrence cap s checkable per step:

  split    F -> F' x {{x},{!x}} u F''        needs s >= 2|F'|
  compose  F1 (at w1), F2 (at w2), w1 <= w2 < k:
           glue 2^d - 1 fresh copies of F1 (d = k - w2), one per clause of
           K^-(X) over a fresh d-block X, plus F2' x {{X}} u F2''.
                                             needs s >= (2^d - 1)|F1'| + |F2'|

Each rule is stated once, on summaries, by split_step and compose_step:
they give the next (w, |F'|), the requirement and the clause total, and
reject a finished operand and, for compose, width(F1) > width(F2). split
and compose take their requirement and those checks from them, and
annotate_trace chains them over a trace.

Splitting is only sound under the cap when the split variables of F' do not
already occur elsewhere; the split rule enforces the structural condition
(every F'-variable in every F'-clause and in no F''-clause), which holds
exactly for the axiom and chains of splits; it is checked when a split is
applied, not when a state is made. With `literal` set, a split performs the
textual operation regardless, which lets one exhibit the occurrence
overflow that motivates the restriction.

Derivations are recorded as traces, a line-oriented format small enough to
diff: numbered nodes AXIOM / SPLIT <child> / COMPOSE <left> <right> and a
FINAL line naming the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .formula import (
    Formula,
    VarAllocator,
    WidthPartition,
    almost_complete_formula,
    complete_formula,
    substitute,
    width_partition,
)

class CalculusError(ValueError):
    """A rule application whose side conditions do not hold."""


def _splittable(incomplete: Formula, complete: Formula) -> bool:
    """Every F' variable is in every F' clause (all F' clauses share one
    variable set), and no F' variable is in F''."""
    return (len({frozenset(map(abs, c)) for c in incomplete.clauses}) <= 1
            and incomplete.vars.isdisjoint(complete.vars))


def axiom(k: int) -> WidthPartition:
    """The starting state: just the empty clause."""
    return width_partition(Formula([[]]), k)


def _ensure_alloc(alloc: Optional[VarAllocator],
                  *dfs: WidthPartition) -> VarAllocator:
    if alloc is None:
        alloc = VarAllocator()
    for df in dfs:
        alloc.ensure_above(df.incomplete.vars)
        alloc.ensure_above(df.complete.vars)
    return alloc


@dataclass(frozen=True)
class NodeInfo:
    width: int
    size: int          # |F'| after the step; 0 once width reaches k
    requirement: int   # occurrence load this step puts on its fresh variables
    clauses: int       # clauses the node expands to, one copy per reference


def split_step(k: int, child: NodeInfo) -> NodeInfo:
    """The split rule on summaries: its fresh variable lands in 2|F'|
    clauses, and each F' clause is doubled."""
    if child.width >= k:
        raise CalculusError("cannot split a finished derivation")
    w, m = child.width + 1, child.size
    return NodeInfo(width=w, size=0 if w == k else 2 * m, requirement=2 * m,
                    clauses=child.clauses + m)


def compose_step(k: int, left: NodeInfo, right: NodeInfo) -> NodeInfo:
    """The compose rule on summaries: 2^d - 1 copies of the left operand
    (d = k - width(right)), and each block variable in (2^d - 1)|F1'| +
    |F2'| clauses."""
    if left.width >= k or right.width >= k:
        raise CalculusError("cannot compose a finished derivation")
    if left.width > right.width:
        raise CalculusError(
            f"compose needs width(left) <= width(right), "
            f"got {left.width} > {right.width}")
    d = k - right.width
    w = left.width + d
    copies = 2 ** d - 1
    return NodeInfo(width=w, size=0 if w == k else copies * left.size,
                    requirement=copies * left.size + right.size,
                    clauses=copies * left.clauses + right.clauses)


def _summary(df: WidthPartition) -> NodeInfo:
    """The part of a state's summary that the rules read: width and |F'|."""
    return NodeInfo(df.width, df.size, 0, 0)


def split(df: WidthPartition, s: int, literal: bool = False,
          alloc: Optional[VarAllocator] = None) -> WidthPartition:
    """Apply the split rule with a fresh variable; see the module doc."""
    need = split_step(df.k, _summary(df)).requirement
    if need > s:
        raise CalculusError(f"split needs s >= {need}, have s = {s}")
    if not literal and not _splittable(df.incomplete, df.complete):
        raise CalculusError(
            "restricted split: F' variables must fill F' and avoid F''")
    alloc = _ensure_alloc(alloc, df)
    return substitute(df, complete_formula([alloc.fresh()]))


def compose(df1: WidthPartition, df2: WidthPartition, s: int,
            alloc: Optional[VarAllocator] = None) -> WidthPartition:
    """Apply the compose rule; operands must be variable-disjoint.

    One substitution of df1 per clause of K^- over the fresh block (the
    first on df1's own variables). Every fresh block variable ends up in
    exactly (2^d - 1)|F1'| + |F2'| clauses, which must be within s.
    """
    if df1.k != df2.k:
        raise CalculusError(f"mixed k: {df1.k} vs {df2.k}")
    k = df1.k
    need = compose_step(k, _summary(df1), _summary(df2)).requirement
    if not all(a.vars.isdisjoint(b.vars)
               for a in (df1.incomplete, df1.complete)
               for b in (df2.incomplete, df2.complete)):
        raise CalculusError("compose operands share variables")
    if need > s:
        raise CalculusError(f"compose needs s >= {need}, have s = {s}")
    alloc = _ensure_alloc(alloc, df1, df2)
    d = k - df2.width
    block = alloc.fresh_block(d)
    # join onto df2's state: its F'' is often the largest, so copy it first
    first, *rest = almost_complete_formula(block).canonical_clauses()
    return substitute(df2, Formula([block])).union(
        substitute(df1, Formula([first])),
        *[substitute(df1, Formula([guard]), alloc) for guard in rest])


# ---------------------------------------------------------------------------
# traces

OP_AXIOM = "AXIOM"
OP_SPLIT = "SPLIT"
OP_COMPOSE = "COMPOSE"
_ARITY = {OP_AXIOM: 0, OP_SPLIT: 1, OP_COMPOSE: 2}


@dataclass(frozen=True)
class TraceNode:
    op: str
    args: Tuple[int, ...]


@dataclass(frozen=True)
class DerivTrace:
    nodes: Tuple[TraceNode, ...]
    final: int


def serialize_trace(trace: DerivTrace) -> str:
    lines = []
    for i, node in enumerate(trace.nodes):
        lines.append(" ".join([str(i), node.op, *map(str, node.args)]))
    lines.append(f"FINAL {trace.final}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> DerivTrace:
    """Inverse of serialize_trace; blank lines are ignored."""
    nodes: List[TraceNode] = []
    final: Optional[int] = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if final is not None:
            raise CalculusError(f"line {ln}: content after FINAL")
        if tokens[0] == "FINAL":
            if len(tokens) != 2:
                raise CalculusError(f"line {ln}: FINAL takes one id")
            final = _parse_ref(tokens[1], len(nodes), ln)
            continue
        if len(tokens) < 2:
            raise CalculusError(f"line {ln}: expected '<id> <op> ...'")
        try:
            node_id = int(tokens[0])
        except ValueError:
            raise CalculusError(f"line {ln}: bad node id {tokens[0]!r}") from None
        if node_id != len(nodes):
            raise CalculusError(
                f"line {ln}: ids must be consecutive from 0, "
                f"expected {len(nodes)} got {node_id}")
        op = tokens[1]
        if op not in _ARITY:
            raise CalculusError(f"line {ln}: unknown operation {op!r}")
        args = tokens[2:]
        if len(args) != _ARITY[op]:
            raise CalculusError(
                f"line {ln}: {op} takes {_ARITY[op]} argument(s), got {len(args)}")
        refs = tuple(_parse_ref(a, node_id, ln) for a in args)
        nodes.append(TraceNode(op, refs))
    if final is None:
        raise CalculusError("missing FINAL line")
    return DerivTrace(tuple(nodes), final)


def _parse_ref(token: str, bound: int, ln: int) -> int:
    try:
        ref = int(token)
    except ValueError:
        raise CalculusError(f"line {ln}: bad reference {token!r}") from None
    if not 0 <= ref < bound:
        raise CalculusError(
            f"line {ln}: reference {ref} must name an earlier node (< {bound})")
    return ref


@dataclass(frozen=True)
class TraceAnnotation:
    nodes: Tuple[NodeInfo, ...]
    required_s: int    # max requirement over all nodes; each feeds FINAL


def annotate_trace(trace: DerivTrace, k: int,
                   literal: bool = False) -> TraceAnnotation:
    """Recompute (width, |F'|, clause total) bottom-up by split_step and
    compose_step and validate every side condition.

    This is pure arithmetic on the summaries; nothing is materialized, so
    annotating is cheap even when the sizes are astronomical. The final
    node must reach width k and every node must feed into it.
    """
    if k < 1:
        raise CalculusError("k must be positive")
    infos: List[NodeInfo] = []
    for i, node in enumerate(trace.nodes):
        try:
            if node.op == OP_AXIOM:
                info = NodeInfo(width=0, size=1, requirement=0, clauses=1)
            elif node.op == OP_SPLIT:
                (c,) = node.args
                info = split_step(k, infos[c])
                if not literal and trace.nodes[c].op == OP_COMPOSE:
                    raise CalculusError("restricted split of a composed node")
            else:
                a1, a2 = node.args
                info = compose_step(k, infos[a1], infos[a2])
        except CalculusError as e:
            raise CalculusError(f"node {i}: {e}") from None
        infos.append(info)
    if infos[trace.final].width != k:
        raise CalculusError(
            f"final node has width {infos[trace.final].width}, expected {k}")

    reached = [i == trace.final for i in range(len(infos))]
    for i in range(trace.final, -1, -1):    # references name earlier nodes
        if reached[i]:
            for a in trace.nodes[i].args:
                reached[a] = True
    orphans = [i for i, r in enumerate(reached) if not r]
    if orphans:
        raise CalculusError(f"unreachable node(s): {orphans}")
    required = max(info.requirement for info in infos)
    return TraceAnnotation(tuple(infos), required)
