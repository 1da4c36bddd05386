"""DIMACS CNF reading and writing.

Writing is canonical: variables renumbered 1..n (sorted by original id,
mapping emitted as comments when it is not the identity), literals within a
clause ordered by variable with positive polarity first, clauses sorted
lexicographically on that form. read_dimacs(write_dimacs(f)) == f whenever
f already uses contiguous 1..n variables.
"""

from __future__ import annotations

from typing import List

from .formula import Clause, Formula, clause_sort_key


class DimacsError(ValueError):
    pass


def _literal_order(clause: Clause) -> List[int]:
    return sorted(clause, key=lambda lit: (abs(lit), 0 if lit > 0 else 1))


def write_dimacs(f: Formula) -> str:
    """Serialize a formula; empty clauses come out as a lone '0' line."""
    old_vars = sorted(f.vars)
    mapping = {old: new for new, old in enumerate(old_vars, start=1)}
    lines: List[str] = []
    if any(old != new for old, new in mapping.items()):
        for old in old_vars:
            lines.append(f"c map {old} -> {mapping[old]}")
    lines.append(f"p cnf {len(old_vars)} {len(f)}")

    def translate(clause: Clause) -> Clause:
        return frozenset(
            (1 if lit > 0 else -1) * mapping[abs(lit)] for lit in clause
        )

    renumbered = sorted((translate(c) for c in f.clauses), key=clause_sort_key)
    for clause in renumbered:
        lines.append(" ".join(str(lit) for lit in _literal_order(clause)) + " 0"
                     if clause else "0")
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text.

    Comment lines may appear before and after the header. Duplicate
    literals and duplicate clauses collapse (set semantics). Raises
    DimacsError on a malformed or missing header, a variable index above
    the declared count, an unterminated final clause, or a tautology.
    """
    header = None
    tokens: List[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
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
        for tok in line.split():
            try:
                tokens.append(int(tok))
            except ValueError:
                raise DimacsError(f"line {lineno}: bad token {tok!r}")
    if header is None:
        raise DimacsError("missing 'p cnf' header")

    n_vars, _ = header
    clauses: List[List[int]] = []
    current: List[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(current)
            current = []
            continue
        if abs(tok) > n_vars:
            raise DimacsError(
                f"literal {tok} exceeds declared variable count {n_vars}")
        current.append(tok)
    if current:
        raise DimacsError("unterminated clause at end of input")

    try:
        return Formula(clauses)
    except ValueError as exc:  # tautology or literal 0 inside Formula
        raise DimacsError(str(exc))
