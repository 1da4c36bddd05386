"""DIMACS CNF reading and writing.

Writing is canonical: variables renumbered 1..n (sorted by original id,
mapping emitted as comments when it is not the identity), literals within a
clause ordered by variable with positive polarity first, clauses sorted
lexicographically on that form. read_dimacs(write_dimacs(f)) == f whenever
f already uses contiguous 1..n variables.

The writer sorts integer ranks, not literals: the renumbered literal +v has
rank 2v and -v has rank 2v + 1. Rank order is (variable, positive first)
order, so a clause's sorted ranks list its literals in canonical order, and
two clauses compare as lists of ranks exactly as clause_sort_key compares
them (element by element, a proper prefix first). Each rank is then emitted
through a table of literal strings.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List

from .formula import Formula


class DimacsError(ValueError):
    pass


def write_dimacs(f: Formula) -> str:
    """Serialize a formula; empty clauses come out as a lone '0' line."""
    old_vars = sorted(f.vars)
    n = len(old_vars)
    lines: List[str] = []
    if old_vars and old_vars[-1] != n:  # not already 1..n
        lines += [f"c map {old} -> {new}"
                  for new, old in enumerate(old_vars, start=1)]
    lines.append(f"p cnf {n} {len(f)}")
    rank = {}
    token = ["", ""]  # ranks start at 2
    for new, old in enumerate(old_vars, start=1):
        rank[old] = 2 * new
        rank[-old] = 2 * new + 1
        token += (str(new), str(-new))
    rows = sorted(sorted(map(rank.__getitem__, c)) for c in f.clauses)
    lines += [" ".join([*map(token.__getitem__, row), "0"]) for row in rows]
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text.

    Comment lines may appear before and after the header. Duplicate
    literals and duplicate clauses collapse (set semantics). Raises
    DimacsError on a malformed or missing header, a variable index above
    the declared count, an unterminated final clause, a tautology, or,
    checked last, a count of clauses as written other than the header's.

    int() runs once per distinct clause token: a per-file table maps each
    token to its literal, and the bound on variable indices is checked
    over the table's values. Every error, its message and its line number
    are the same as those of a reader that parses every token.
    """
    header = None
    lit_of: Dict[str, int] = {}   # each distinct clause token, parsed once
    clauses: List[List[int]] = []
    current: List[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "c":
            continue
        if parts[0][0] == "p":
            line = raw.strip()
            if header is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            if header[0] < 0 or header[1] < 0:
                raise DimacsError(f"line {lineno}: negative counts in header")
            continue
        if header is None:
            raise DimacsError(f"line {lineno}: clause before header")
        try:
            lits = list(map(lit_of.__getitem__, parts))
        except KeyError:
            for tok in parts:
                if tok not in lit_of:
                    try:
                        lit_of[tok] = int(tok)
                    except ValueError:
                        raise DimacsError(f"line {lineno}: bad token {tok!r}")
            lits = list(map(lit_of.__getitem__, parts))
        if not current and lits[-1] == 0 and lits.index(0) == len(lits) - 1:
            lits.pop()  # the common line: exactly one whole clause
            clauses.append(lits)
            continue
        for tok in lits:
            if tok == 0:
                clauses.append(current)
                current = []
            else:
                current.append(tok)
    if header is None:
        raise DimacsError("missing 'p cnf' header")

    n_vars, n_clauses = header
    # every clause token is in lit_of, so its values bound every literal
    if max(map(abs, lit_of.values()), default=0) > n_vars:
        body = clauses + [current]  # every literal, in file order
        tok = next(t for t in chain.from_iterable(body) if abs(t) > n_vars)
        raise DimacsError(
            f"literal {tok} exceeds declared variable count {n_vars}")
    if current:
        raise DimacsError("unterminated clause at end of input")

    try:
        formula = Formula(clauses)
    except ValueError as exc:  # tautology or literal 0 inside Formula
        raise DimacsError(str(exc))
    if len(clauses) != n_clauses:
        raise DimacsError(f"header declares {n_clauses} clauses, "
                          f"body has {len(clauses)}")
    return formula
