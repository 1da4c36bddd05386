"""Core CNF machinery: clauses, formulas, products and occurrence counts.

Literals are nonzero ints (negative = negated variable), clauses are
frozensets of literals, and a Formula is an immutable set of clauses.
Everything downstream (constructions, the composition calculus, DIMACS I/O)
goes through this module, so the invariants are enforced here once:
no literal 0, no tautological clause, set semantics everywhere.

Where clauses come from outside a Formula, they are validated: the public
Formula(...) constructor checks every clause through make_clause, and
rename() checks its mapping (positive ids, injective, covering every
variable) before it maps a literal. The closed operations on valid
formulas -- union of any number, product of variable-disjoint operands,
K^- as K minus a clause, the width partition, and substitute (F' x G u
F'', the step of both calculus rules and both constructions) -- build
their result with the private Formula._of, used only in this module, which
trusts its clauses: a subset or union of valid clauses is valid, and so is
c1 | c2 when c1 and c2 share no variable. Checking them again would repeat
the whole per-literal scan at every step of a construction.

The same operations hand on the variable set, so a built formula is not
scanned again for it. product, rename and substitute (for each part of the
state it returns) carry an exact set: a renaming maps the variables of its
operand, and every clause of a product operand is in some product clause
unless the other operand has no clauses (the product is then empty). union
carries the union of its operands' sets only when each operand knows its
own; it never scans to learn one. K^- and the parts that width_partition
splits off a formula from outside learn theirs on first use of .vars.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import neg
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Formula) and self.clauses == other.clauses

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
    """A derivation state, held as F' (width < k, one width) and F'' (k).

    The calculus rules and the construction step act on F' and keep F''.
    width_partition checks a formula from outside; substitute keeps the form.
    """

    k: int
    incomplete: Formula     # F'
    complete: Formula       # F''

    @property
    def formula(self) -> Formula:
        """F' u F'', joined on each call: a state keeps only its parts."""
        if not self.incomplete.clauses:
            return self.complete
        return self.incomplete.union(self.complete)

    @property
    def width(self) -> int:
        """Width of F', or k once F' is empty."""
        return next(map(len, self.incomplete.clauses), self.k)

    @property
    def size(self) -> int:
        """|F'|, the quantity the occurrence requirements are charged on."""
        return len(self.incomplete)

    def union(self, *others: "WidthPartition") -> "WidthPartition":
        return WidthPartition(
            self.k, self.incomplete.union(*[p.incomplete for p in others]),
            self.complete.union(*[p.complete for p in others]))


def width_partition(f: Formula, k: int) -> WidthPartition:
    """Split a formula from outside into a state: clauses of width < k,
    which must share one width, and of width == k; wider is an error."""
    if k < 1:
        raise ValueError("k must be positive")
    widths = f.widths()
    if max(widths, default=0) > k:
        raise ValueError(f"clause of width {max(widths)} exceeds k={k}")
    if len(widths - {k}) > 1:
        raise ValueError(f"F' has mixed widths {sorted(widths - {k})}")
    narrow = frozenset(c for c in f.clauses if len(c) < k)
    return WidthPartition(k, Formula._of(narrow),
                          Formula._of(f.clauses - narrow))


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
    """Apply an injective renaming of positive variable ids that covers
    every variable of f; such a renaming keeps the clauses distinct."""
    if not all(isinstance(v, int) and v > 0
               for v in chain(mapping, mapping.values())):
        raise ValueError("renaming must map positive ids to positive ids")
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("renaming is not injective")
    missing = f.vars.difference(mapping)
    if missing:
        raise ValueError(f"renaming misses variable(s) {sorted(missing)}")
    return Formula._of(_renamed(f.clauses, _literal_table(mapping)),
                       frozenset(map(mapping.__getitem__, f.vars)))


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


def substitute(part: WidthPartition, guards: Formula,
               alloc: Optional[VarAllocator] = None) -> WidthPartition:
    """The next state F' x G u F'': the glued clauses form the new F' below
    width k, and join F'' at k. With alloc, both parts are first renamed by
    one mapping, old ids ascending onto the allocator's next ids (unlike
    fresh_copy, without a bump past the old ids), and each glued clause is
    one union of a guard clause with the renamed literals of an F' clause."""
    incomplete, complete, k = part.incomplete, part.complete, part.k
    if alloc is None:
        glued = product(incomplete, guards)
    else:
        mapping = {v: alloc.fresh()
                   for v in sorted(incomplete.vars | complete.vars)}
        table = _literal_table(mapping)
        incomplete_vars = frozenset(map(mapping.__getitem__, incomplete.vars))
        _check_disjoint(incomplete_vars, guards.vars)
        clauses = frozenset(g.union(map(table.__getitem__, c))
                            for c in incomplete.clauses for g in guards.clauses)
        # Disjointness makes collisions impossible; guard against regressions.
        assert len(clauses) == len(incomplete) * len(guards)
        glued = Formula._of(clauses, incomplete_vars | guards.vars
                            if clauses else frozenset())
        complete = Formula._of(_renamed(complete.clauses, table), frozenset(
            map(mapping.__getitem__, complete.vars)))
    widths = glued.widths() or {k}
    if len(widths) > 1 or max(widths) > k:
        raise ValueError(f"glued clauses need one width <= k={k}, "
                         f"got {sorted(widths)}")
    if max(widths) < k:
        return WidthPartition(k, glued, complete)
    return WidthPartition(k, Formula([]), complete.union(glued))
