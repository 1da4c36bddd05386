"""Core CNF machinery: clauses, formulas, products and occurrence counts.

Literals are nonzero ints (negative = negated variable), clauses are
frozensets of literals, and a Formula is an immutable set of clauses.
Everything downstream (constructions, the composition calculus, DIMACS I/O)
goes through this module, so the invariants are enforced here once:
no literal 0, no tautological clause, set semantics everywhere.

Where clauses come from outside a Formula, they are validated: the public
Formula(...) constructor checks every clause through make_clause, and
rename() checks its mapping (positive ids, injective) before it maps a
literal. The closed operations on valid formulas -- union of any number,
product of variable-disjoint operands, K^- as K minus a clause, the width
partition, and substitute (F' x G u F'', the step of both calculus rules
and both constructions) -- build their result with the private
Formula._of, used only in this module, which trusts its clauses: a subset
or union of valid clauses is valid, and so is c1 | c2 when c1 and c2 share
no variable. Checking them again would repeat the whole per-literal scan
at every step of a construction.

The same operations hand on the variable set, so a built formula is not
scanned again for it. product, rename and substitute always carry an
exact set: a renaming maps the variables of its operand, and every clause
of a product operand is in some product clause unless the other operand
has no clauses (the product is then empty). union carries the union of
its operands' sets only when each operand already knows its own; it never
scans to learn one. K^- and the pieces of a width partition learn theirs
on first use of .vars.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from operator import neg
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

Clause = FrozenSet[int]
Assignment = Dict[int, bool]


def make_clause(literals: Iterable[int]) -> Clause:
    """Build a clause, rejecting literal 0 and tautologies.

    Duplicate literals collapse silently (set semantics); a variable
    appearing in both polarities is an error, not a valid clause.
    """
    clause = frozenset(literals)
    if 0 in clause:
        raise ValueError("literal 0 is not allowed in a clause")
    if not clause.isdisjoint(map(neg, clause)):
        for lit in clause:
            if -lit in clause and lit > 0:
                raise ValueError(
                    f"tautological clause: contains both {lit} and {-lit}")
    return clause


def clause_sort_key(clause: Clause) -> Tuple[Tuple[int, int], ...]:
    """Canonical key: literals ordered by variable, positive before negative."""
    return tuple(sorted((abs(lit), 0 if lit > 0 else 1) for lit in clause))


class Formula:
    """An immutable CNF formula (a frozenset of clauses).

    Clause order is never significant; use canonical_clauses() when a
    deterministic order is needed for output.
    """

    __slots__ = ("clauses", "_vars")

    def __init__(self, clauses: Iterable[Iterable[int]]):
        self.clauses: FrozenSet[Clause] = frozenset(map(make_clause, clauses))
        self._vars: Optional[FrozenSet[int]] = None

    @classmethod
    def _of(cls, clauses: FrozenSet[Clause],
            variables: Optional[FrozenSet[int]] = None) -> "Formula":
        """Wrap clauses known to be valid (see the module doc), unchecked;
        variables, when given, must be exactly the variables they hold."""
        f = cls.__new__(cls)
        f.clauses = clauses
        f._vars = variables
        return f

    @property
    def vars(self) -> FrozenSet[int]:
        if self._vars is None:
            self._vars = frozenset(map(abs, chain.from_iterable(self.clauses)))
        return self._vars

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __contains__(self, clause) -> bool:
        return frozenset(clause) in self.clauses

    def __eq__(self, other) -> bool:
        return isinstance(other, Formula) and self.clauses == other.clauses

    def __hash__(self) -> int:
        return hash(self.clauses)

    def __repr__(self) -> str:
        return f"Formula({len(self.clauses)} clauses, {len(self.vars)} vars)"

    def canonical_clauses(self) -> List[Clause]:
        """Clauses in the canonical (lexicographic) order."""
        return sorted(self.clauses, key=clause_sort_key)

    def union(self, *others: "Formula") -> "Formula":
        variables = None
        if self._vars is not None and all(f._vars is not None for f in others):
            variables = self._vars.union(*[f._vars for f in others])
        return Formula._of(self.clauses.union(*[f.clauses for f in others]),
                           variables)

    def widths(self) -> FrozenSet[int]:
        return frozenset(map(len, self.clauses))

    def is_width_uniform(self, k: int) -> bool:
        return self.widths() <= {k}


def complete_formula(variables: Iterable[int]) -> Formula:
    """K(x1..xn): all 2^n clauses over the given variables.

    K() on no variables is {{}}, the formula holding just the empty clause.
    Unsatisfiable for every n, and every variable occurs 2^n times.
    """
    vs = sorted(set(variables))
    if any(v < 1 for v in vs):
        raise ValueError("variables must be positive ints")
    clauses: List[List[int]] = [[]]
    for v in vs:
        clauses = [c + [v] for c in clauses] + [c + [-v] for c in clauses]
    return Formula(clauses)


def almost_complete_formula(variables: Iterable[int]) -> Formula:
    """K^-(x1..xn): K minus the all-positive clause; unique model all-False."""
    vs = sorted(set(variables))
    if not vs:
        raise ValueError("K^- needs at least one variable")
    full = complete_formula(vs)
    return Formula._of(full.clauses - {frozenset(vs)})


def product(f1: Formula, f2: Formula) -> Formula:
    """All unions c1 | c2 of clauses from var-disjoint operands.

    Satisfied exactly by assignments satisfying f1 or f2, and
    |product| = |f1| * |f2| (disjointness keeps the unions distinct).
    """
    vars1, vars2 = f1.vars, f2.vars
    _check_disjoint(vars1, vars2)
    clauses = frozenset(c1 | c2 for c1 in f1.clauses for c2 in f2.clauses)
    # Disjointness makes collisions impossible; guard against regressions.
    assert len(clauses) == len(f1) * len(f2)
    return Formula._of(clauses, vars1 | vars2 if clauses else frozenset())


def _check_disjoint(vars1: FrozenSet[int], vars2: FrozenSet[int]) -> None:
    overlap = vars1 & vars2
    if overlap:
        raise ValueError(f"product operands share variables: {sorted(overlap)}")


@dataclass(frozen=True)
class WidthPartition:
    """A formula split at width k into F' (width < k) and F'' (width == k).

    This is the derivation state of the calculus and of the construction
    step: both act on F' and keep F'' as it is.
    """

    formula: Formula
    k: int
    incomplete: Formula     # F'
    complete: Formula       # F''

    @property
    def width(self) -> int:
        """Width of F' (uniform in a derivation state, which as_derived
        checks), or k once F' is empty."""
        return next(map(len, self.incomplete.clauses), self.k)

    @property
    def size(self) -> int:
        """|F'|, the quantity the occurrence requirements are charged on."""
        return len(self.incomplete)

    @property
    def is_final(self) -> bool:
        return not self.incomplete.clauses


def width_partition(f: Formula, k: int) -> WidthPartition:
    """Partition clauses into width < k and width == k; wider is an error."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    widths = list(map(len, f.clauses))  # a frozenset iterates in one order
    if max(widths, default=0) > k:
        wide = next(w for w in widths if w > k)
        raise ValueError(f"clause of width {wide} exceeds k={k}")
    narrow = compress(f.clauses, map(k.__gt__, widths))
    full = compress(f.clauses, map(k.__eq__, widths))
    return WidthPartition(formula=f, k=k,
                          incomplete=Formula._of(frozenset(narrow)),
                          complete=Formula._of(frozenset(full)))


@dataclass(frozen=True)
class OccurrenceCensus:
    """Per-variable occurrence totals and their maximum."""

    total: Dict[int, int]
    max_occurrence: int


def occurrence_census(f: Formula) -> OccurrenceCensus:
    """Count clause memberships per variable (each clause counts once)."""
    total = Counter(map(abs, chain.from_iterable(f.clauses)))
    return OccurrenceCensus(total=total,
                            max_occurrence=max(total.values(), default=0))


class VarAllocator:
    """Monotone source of fresh variable ids from 1, for one construction."""

    def __init__(self) -> None:
        self._next = 1

    def fresh(self) -> int:
        v = self._next
        self._next += 1
        return v

    def fresh_block(self, n: int) -> List[int]:
        return [self.fresh() for _ in range(n)]

    def ensure_above(self, variables: Iterable[int]) -> None:
        """Bump the counter past the given ids (collision defence)."""
        top = max(variables, default=0)
        if top >= self._next:
            self._next = top + 1


def fresh_copy(f: Formula, alloc: VarAllocator) -> Formula:
    """Rename f onto fresh variables, sorted old id -> next allocator id."""
    alloc.ensure_above(f.vars)  # never map onto ids already used by f
    mapping = {v: alloc.fresh() for v in sorted(f.vars)}
    return rename(f, mapping)


def rename(f: Formula, mapping: Dict[int, int]) -> Formula:
    """Apply an injective renaming of positive variable ids."""
    if not all(isinstance(v, int) and v > 0
               for v in chain(mapping, mapping.values())):
        raise ValueError("renaming must map positive ids to positive ids")
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("renaming is not injective")
    clauses = _renamed(f.clauses, _literal_table(mapping))
    if len(clauses) != len(f):
        raise ValueError("renaming collapsed clauses")
    return Formula._of(clauses, frozenset(map(mapping.__getitem__, f.vars)))


def _literal_table(mapping: Dict[int, int]) -> Dict[int, int]:
    """The renaming of variables as a renaming of both their literals."""
    table = {}
    for v, w in mapping.items():
        table[v] = w
        table[-v] = -w
    return table


def _renamed(clauses: FrozenSet[Clause],
             table: Dict[int, int]) -> FrozenSet[Clause]:
    return frozenset(frozenset(map(table.__getitem__, c)) for c in clauses)


def substitute(incomplete: Formula, complete: Formula, guards: Formula,
               alloc: Optional[VarAllocator] = None) -> Formula:
    """incomplete x guards u complete. With alloc, both parts are first
    renamed by one mapping, old ids ascending onto the allocator's next ids;
    unlike fresh_copy, the allocator is not bumped past the old ids. The
    renamed copy of incomplete is never built: each of its product clauses
    is one union of a guard clause with the renamed literals."""
    if alloc is None:
        return product(incomplete, guards).union(complete)
    mapping = {v: alloc.fresh()
               for v in sorted(incomplete.vars | complete.vars)}
    table = _literal_table(mapping)
    incomplete_vars = frozenset(map(mapping.__getitem__, incomplete.vars))
    _check_disjoint(incomplete_vars, guards.vars)
    glued = frozenset(g.union(map(table.__getitem__, c))
                      for c in incomplete.clauses for g in guards.clauses)
    # Disjointness makes collisions impossible; guard against regressions.
    assert len(glued) == len(incomplete) * len(guards)
    variables = frozenset(map(mapping.__getitem__, complete.vars))
    if glued:
        variables |= incomplete_vars | guards.vars
    return Formula._of(glued.union(_renamed(complete.clauses, table)),
                       variables)
