"""Satisfiability checking: a deterministic CDCL and brute-force enumeration.

The solver exists to certify unsatisfiability of constructed formulas, not
to compete on speed. It learns first-UIP clauses and groups clauses into
classes over one variable set; a count of each class's unassigned variables
finds the units and conflicts among its clauses. Decisions follow a pinned
order (conflict activity, then open clauses, then ascending variable id,
True first) and propagation takes units in a pinned order, so the search,
its counters and any SAT witness are reproducible; a decision budget turns
pathological inputs into TIMEOUT instead of a hang.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .formula import Assignment, Formula, occurrence_census

SAT = "SAT"
UNSAT = "UNSAT"
TIMEOUT = "TIMEOUT"

DEFAULT_BUDGET = 10_000_000
ENUMERATION_CAP = 20

Model = FrozenSet[Tuple[int, bool]]


@dataclass
class SolveResult:
    status: str
    witness: Optional[Assignment]
    decisions: int
    propagations: int
    conflicts: int   # conflicts analyzed, one learned clause each


def solve(f: Formula, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Conflict-driven clause learning with a deterministic branch order.

    Decisions pick the unassigned variable with the highest conflict
    activity, then the most open clauses (clauses with no true literal),
    then the smaller id, always trying True first; a variable with no open
    clause is never a decision. Occurrence counts alone are not enough on
    composed instances: every compose drags the finished parts of its dead
    copies along as satisfiable side clauses, and a plain DPLL wanders them
    for exponential stretches. First-UIP learning with backjumping makes
    each conflict prune that wandering for good.

    Clauses over one variable set form a class, which numbers its clauses
    as bits of an int: one mask of its open clauses (no true literal yet)
    and one per literal of the clauses holding it. A true literal closes
    the open clauses holding it in each class of its variable with one AND;
    backjump ORs the masks back. Each variable counts its open clauses,
    moved by the popcount of each AND. Each class also counts its unassigned
    variables. Every clause of a class holds one literal of each class
    variable, so an open clause has exactly as many unassigned literals as
    its class has free variables: when an assignment takes a class to one
    free variable, every clause still open in it has just become a unit on
    that variable, and at zero every one is all false. New units are queued
    in ascending clause index and a conflict reports the highest all-false
    clause index, which pins the propagation order. A learned clause joins
    the class of its variable set or starts one. Joining cannot leave a
    stale unit behind: after the backjump the class has one free variable,
    and propagation at that level had finished, so every clause of the
    class that turned unit there was closed by its unit literal and the
    learned clause is the only open one. Decisions come off a heap ordered
    by the decision key and rebuilt after each backjump, so a decision costs
    a few heap steps rather than a pass over every variable's clauses.

    The witness for SAT is a total assignment over f.vars, with any
    unconstrained variable set True. budget caps the number of decisions;
    exceeding it yields TIMEOUT, never a wrong SAT/UNSAT answer.
    """
    if frozenset() in f.clauses:
        return SolveResult(UNSAT, None, 0, 0, 0)

    # variable i is variables[i]; its literals are 2i (positive) and 2i + 1
    variables = sorted(f.vars)
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    clauses: List[List[int]] = []    # literals in formula order
    # a clause is open until it gains a true literal; the var that closed it
    # reopens it on backjump
    open_count = [0] * n    # open clauses holding each variable
    class_of: Dict[Tuple[int, ...], int] = {}   # sorted variables -> class
    class_vars: List[Tuple[int, ...]] = []
    class_clauses: List[List[int]] = []   # bit i -> the class's clause i
    class_open: List[int] = []   # bit i: the class's clause i is open
    class_free: List[int] = []   # unassigned variables of each class
    classes: List[List[int]] = [[] for _ in range(n)]   # per variable
    holds: List[Dict[int, int]] = [{} for _ in range(2 * n)]   # class -> mask
    # per var, the (class, mask, popcount) of the clauses it closed
    closed_by: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    value = [0] * (2 * n)   # per literal: 1 true, -1 false, 0 unassigned
    level = [0] * n
    reason: List[Optional[int]] = [None] * n
    trail: List[int] = []
    trail_lim: List[int] = []   # trail length at each decision
    activity = [0.0] * n
    act_inc = 1.0
    n_decisions = 0
    n_propagations = 0
    n_conflicts = 0
    # decision order: a heap of (-activity, -open count, var), rebuilt
    # after each backjump
    order: List[Tuple[float, int, int]] = []
    order_stale = True

    def add_clause(lits: List[int]) -> int:
        """Add a clause with no true literal; return its index."""
        ci = len(clauses)
        clauses.append(lits)
        key = tuple(sorted(lit >> 1 for lit in lits))
        c = class_of.get(key)
        if c is None:
            c = class_of[key] = len(class_vars)
            class_vars.append(key)
            class_clauses.append([])
            class_open.append(0)
            class_free.append(sum(not value[2 * u] for u in key))
            for u in key:
                classes[u].append(c)
        bit = 1 << len(class_clauses[c])
        class_clauses[c].append(ci)
        class_open[c] |= bit
        for lit in lits:
            masks = holds[lit]
            masks[c] = masks.get(c, 0) | bit
        for u in key:
            open_count[u] += 1
        return ci

    for c in f.clauses:
        add_clause([2 * index[abs(lit)] + (lit < 0) for lit in c])

    def set_var(lit: int, why: Optional[int],
                queue: List[Tuple[int, Optional[int]]]) -> Optional[int]:
        """Make lit true; queue the new units or return a conflicting clause."""
        v = lit >> 1
        false = lit ^ 1
        value[lit] = 1
        value[false] = -1
        level[v] = len(trail_lim)
        reason[v] = why
        trail.append(v)
        newly = closed_by[v] = []
        for c, mask in holds[lit].items():
            shut = class_open[c] & mask
            if shut:
                class_open[c] ^= shut
                drop = shut.bit_count()
                newly.append((c, shut, drop))
                for u in class_vars[c]:
                    open_count[u] -= drop
        # an open clause has one unassigned literal per free class variable
        units: List[Tuple[int, int]] = []
        conflict = -1
        for c in classes[v]:
            free = class_free[c] = class_free[c] - 1
            rest = class_open[c]
            if free > 1 or not rest:
                continue
            ids = class_clauses[c]
            if not free:
                conflict = max(conflict, ids[rest.bit_length() - 1])
                continue
            u = next(u for u in class_vars[c] if not value[2 * u])
            pos = holds[2 * u].get(c, 0)
            while rest:
                low = rest & -rest
                rest ^= low
                units.append((ids[low.bit_length() - 1],
                              2 * u + (not pos & low)))
        if conflict >= 0:
            return conflict
        units.sort()
        for ci, unit in units:
            queue.append((unit, ci))
        return None

    def backjump(to_level: int) -> None:
        nonlocal order_stale
        order_stale = True   # freed variables and reopened clauses raise keys
        mark = trail_lim[to_level]
        del trail_lim[to_level:]
        while len(trail) > mark:
            v = trail.pop()
            value[2 * v] = value[2 * v + 1] = 0
            for c in classes[v]:
                class_free[c] += 1
            for c, shut, drop in closed_by[v]:
                class_open[c] |= shut
                for u in class_vars[c]:
                    open_count[u] += drop

    def propagate(lit: int, why: Optional[int]) -> Optional[int]:
        """Make lit true, run unit propagation; return a conflict clause id.

        A queued unit whose literal is already set is skipped. It cannot be
        false: the set_var that falsified it took the last free variable of
        its clause's class while that clause was open, and so returned that
        clause as the conflict before the stale entry was popped.
        """
        nonlocal n_propagations
        queue = [(lit, why)]
        while queue:
            lit, why_ci = queue.pop()
            if value[lit]:
                continue
            if why_ci is not None:
                n_propagations += 1
            conflict = set_var(lit, why_ci, queue)
            if conflict is not None:
                return conflict
        return None

    def bump(v: int) -> None:
        nonlocal act_inc
        activity[v] += act_inc
        if activity[v] > 1e100:
            for u in range(n):
                activity[u] *= 1e-100
            act_inc *= 1e-100

    def analyze(conflict_ci: int) -> Tuple[List[int], int]:
        """First-UIP cut: learned clause, asserting literal first; backjump level."""
        cur = len(trail_lim)
        seen: Set[int] = set()
        lower: List[int] = []   # learned literals from levels below cur
        pending = 0             # current-level vars still to resolve away
        lits = clauses[conflict_ci]
        skip = -1               # var resolved on, excluded from its reason
        idx = len(trail) - 1
        while True:
            for lit in lits:
                v = lit >> 1
                if v == skip or v in seen or level[v] == 0:
                    continue
                seen.add(v)
                bump(v)
                if level[v] == cur:
                    pending += 1
                else:
                    lower.append(lit)
            while trail[idx] not in seen:
                idx -= 1
            uip = trail[idx]
            idx -= 1
            pending -= 1
            if pending == 0:
                break
            lits = clauses[reason[uip]]
            skip = uip
        asserting = 2 * uip + (value[2 * uip] > 0)
        back = max((level[lit >> 1] for lit in lower), default=0)
        return [asserting] + lower, back

    def next_decision() -> Optional[int]:
        """The free variable with an open clause that leads the order."""
        nonlocal order, order_stale
        if order_stale:
            order = [(-activity[v], -open_count[v], v) for v in range(n)
                     if open_count[v] and not value[2 * v]]
            heapq.heapify(order)
            order_stale = False
        # Between backjumps keys only fall: assignments close clauses and
        # activity changes only in conflict analysis. So each entry ranks
        # its variable no lower than its true key, and the top is exact
        # once its count is current.
        while order:
            neg_act, neg_count, v = order[0]
            count = open_count[v]
            if not count or value[2 * v]:
                heapq.heappop(order)
            elif count != -neg_count:
                heapq.heapreplace(order, (neg_act, -count, v))
            else:
                return v
        return None

    def resolve_conflict(conflict: Optional[int]) -> bool:
        """Learn and backjump until propagation settles; False means UNSAT."""
        nonlocal act_inc, n_conflicts
        while conflict is not None:
            if not trail_lim:
                return False
            n_conflicts += 1
            learned, back = analyze(conflict)
            backjump(back)
            act_inc /= 0.95
            conflict = propagate(learned[0], add_clause(learned))
        return True

    # top-level units before any decision
    for ci, lits in enumerate(clauses):
        if len(lits) == 1 and propagate(lits[0], ci) is not None:
            return SolveResult(UNSAT, None, 0, n_propagations, 0)

    while True:
        v = next_decision()
        if v is None:
            # every clause satisfied; conflicts fire during propagation, so
            # no unsatisfied clause can be fully assigned here
            witness = {u: value[2 * i] >= 0 for i, u in enumerate(variables)}
            return SolveResult(SAT, witness, n_decisions, n_propagations,
                               n_conflicts)
        if n_decisions >= budget:
            return SolveResult(TIMEOUT, None, n_decisions, n_propagations,
                               n_conflicts)
        n_decisions += 1
        trail_lim.append(len(trail))
        if not resolve_conflict(propagate(2 * v, None)):
            return SolveResult(UNSAT, None, n_decisions, n_propagations,
                               n_conflicts)


def satisfies(f: Formula, assignment: Assignment) -> bool:
    """Does a total assignment satisfy every clause?"""
    for clause in f.clauses:
        ok = False
        for lit in clause:
            v = abs(lit)
            if v not in assignment:
                raise ValueError(f"assignment missing variable {v}")
            if assignment[v] == (lit > 0):
                ok = True
                break
        if not ok:
            return False
    return True


def enumerate_models(f: Formula, variables: Optional[Iterable[int]] = None) -> Set[Model]:
    """All models of f over the given variable set (default: f.vars).

    Intended for small checks only; refuses more than 20 variables.
    Passing a superset of f.vars lifts the models to that set, which is
    how the product law is checked on a joint variable set.
    """
    vs = sorted(set(variables)) if variables is not None else sorted(f.vars)
    if not set(f.vars) <= set(vs):
        raise ValueError("variable set must cover the formula")
    if len(vs) > ENUMERATION_CAP:
        raise ValueError(f"enumeration over {len(vs)} > {ENUMERATION_CAP} variables")
    models: Set[Model] = set()
    for bits in itertools.product((False, True), repeat=len(vs)):
        assignment = dict(zip(vs, bits))
        if satisfies(f, assignment):
            models.add(frozenset(assignment.items()))
    return models


@dataclass
class VerifyReport:
    """What verify_instance found; ok summarizes the checked properties."""

    n: int
    m: int
    k: int
    widths: Tuple[int, ...]
    max_occurrence: int
    occ_cap: Optional[int] = None
    result: Optional[SolveResult] = None   # set when the solver ran

    @property
    def width_uniform(self) -> bool:
        return self.widths in ((), (self.k,))

    @property
    def occ_ok(self) -> Optional[bool]:
        """None without a cap, else whether every variable is within it."""
        if self.occ_cap is None:
            return None
        return self.max_occurrence <= self.occ_cap

    @property
    def ok(self) -> bool:
        if not self.width_uniform:
            return False
        if self.occ_ok is False:
            return False
        if self.result is not None and self.result.status != UNSAT:
            return False
        return True

    def lines(self) -> List[str]:
        out = [
            f"n = {self.n}",
            f"m = {self.m}",
            f"width_uniform_k{self.k} = {'yes' if self.width_uniform else 'no'}",
        ]
        if not self.width_uniform:
            out.append(f"widths = {','.join(map(str, self.widths))}")
        out.append(f"max_occurrence = {self.max_occurrence}")
        if self.occ_cap is not None:
            out.append(f"occurrence_cap = {self.occ_cap} "
                       f"({'ok' if self.occ_ok else 'exceeded'})")
        res = self.result
        if res is not None:
            out.append(f"solver = {res.status}")
            if res.status == SAT:
                lits = [v if val else -v for v, val in sorted(res.witness.items())]
                out.append("model = " + " ".join(map(str, lits)))
        return out


def verify_instance(f: Formula, k: int, s: Optional[int] = None,
                    run_solver: bool = False,
                    budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Check width uniformity, occurrence cap and (optionally) run the solver."""
    widths = tuple(sorted(f.widths()))
    census = occurrence_census(f)
    report = VerifyReport(
        n=len(census.total),   # the variables that occur
        m=len(f),
        k=k,
        widths=widths,
        max_occurrence=census.max_occurrence,
        occ_cap=s,
    )
    if run_solver:
        report.result = solve(f, budget=budget)
    return report
