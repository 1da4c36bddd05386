"""Command-line surface for constructions, verification and bound tables.

Every invocation is deterministic: the same arguments produce byte-identical
files and standard output. File arguments accept `-` for standard input or
output. Commands that write a file print `key=value` stats lines followed by
the output path; with `-` the stats ride along as DIMACS comments so the
stream stays one well-formed document.

Exit codes: 0 success or property verified; 1 property violated (a check
that came back false, a missing derivation, a solver SAT or timeout where
unsatisfiability was claimed), or standard output closed by its reader
before the output was all written, which prints nothing; 2 usage or I/O
errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import (ContextManager, Iterable, List, Optional, Sequence,
                    TextIO, Tuple)

from .calculus import CalculusError, parse_trace, serialize_trace
from .constructions import (
    BOUNDS_CSV_HEADER,
    bounds_csv_row,
    bounds_row,
    lemma1_build,
    lemma2_build,
    lemma2_condition,
    recommended_l,
)
from .dimacs import read_dimacs, write_dimacs
from .dp import (
    F2_CSV_HEADER,
    MaterializeError,
    f2_csv_row,
    f2_table,
    f2_value,
    feasible,
    materialize,
)
from .solver import DEFAULT_BUDGET, verify_instance

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _open_out(path: str) -> ContextManager[TextIO]:
    """A text stream to write path through; `-` is standard output."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    with _open_out(path) as fh:
        fh.write(text)


def _write_table(path: str, header: str, lines: Iterable[str]) -> None:
    """Write a CSV to path, then print the path unless it is `-`.

    Rows are streamed and flushed one by one, so a long range shows
    progress and survives a kill.
    """
    with _open_out(path) as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")
            fh.flush()
    if path != "-":
        print(path)


def _emit_file(path: str, body: str, stats: Sequence[Tuple[str, object]]) -> None:
    """Write body to path, reporting stats per the module convention."""
    if path == "-":
        for key, value in stats:
            sys.stdout.write(f"c {key}={value}\n")
        sys.stdout.write(body)
    else:
        _write_text(path, body)
        for key, value in stats:
            print(f"{key}={value}")
        print(path)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_construct(args: argparse.Namespace) -> int:
    l = args.l
    if l is None:
        l = recommended_l(args.k, args.method)
        # lemma2 also takes l = 0, and l = 1 only where its condition holds
        if l < 1 and (args.method == "lemma1" or lemma2_condition(args.k, 1)):
            why = (" is below the block construction's minimum"
                   if args.method == "lemma1" else
                   ", but the staged condition also holds at l = 1")
            print(f"note: recommended l = {l}{why}, using l = 1",
                  file=sys.stderr)
            l = 1
    if args.method == "lemma1":
        formula, stats = lemma1_build(args.k, l)
    else:
        formula, stats = lemma2_build(args.k, l)[-1]
    pairs: List[Tuple[str, object]] = [] if args.compact else [
        ("method", args.method),
        ("k", args.k),
        ("l", l),
        ("n", stats.n),
        ("m", stats.m),
        ("s", stats.max_occurrence),
    ]
    _emit_file(args.out, write_dimacs(formula), pairs)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ValueError("k must be positive")
    if args.budget < 0:
        raise ValueError("budget must be nonnegative")
    if args.max_occ is not None and args.max_occ < 0:
        raise ValueError("max-occ must be nonnegative")
    formula = read_dimacs(_read_text(args.file))
    report = verify_instance(formula, args.k, s=args.max_occ,
                             run_solver=args.solve, budget=args.budget)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_f2(args: argparse.Namespace) -> int:
    value = f2_value(args.k, literal=args.paper_literal)
    if args.paper_literal:
        print("note: literal-split mode is for comparison only; its traces "
              "need not build within the cap", file=sys.stderr)
    if args.emit_trace is not None:
        trace = feasible(args.k, value + 1, literal=args.paper_literal)
        _write_text(args.emit_trace, serialize_trace(trace))
    print(value, file=sys.stderr if args.emit_trace == "-" else sys.stdout)
    return EXIT_OK


def _cmd_f2_table(args: argparse.Namespace) -> int:
    if not 1 <= args.k_from <= args.k_to:
        raise ValueError("need 1 <= k-from <= k-to")
    if args.jobs < 1:
        raise ValueError("jobs must be positive")
    rows = f2_table(args.k_from, args.k_to, jobs=args.jobs)
    _write_table(args.out, F2_CSV_HEADER,
                 (f2_csv_row(k, f2) for k, f2 in rows))
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    if not 1 <= args.k_from <= args.k_to:
        raise ValueError("need 1 <= k-from <= k-to")
    _write_table(args.out, BOUNDS_CSV_HEADER,
                 (bounds_csv_row(bounds_row(k))
                  for k in range(args.k_from, args.k_to + 1)))
    return EXIT_OK


def _cmd_materialize(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ValueError("k must be positive")
    if args.s < 1:
        raise ValueError("s must be positive")
    if args.trace is not None:
        trace = parse_trace(_read_text(args.trace))
    else:
        trace = feasible(args.k, args.s)
        if trace is None:
            print(f"error: no derivation at width {args.k} fits occurrence "
                  f"cap {args.s} (f2 = {f2_value(args.k)})", file=sys.stderr)
            return EXIT_VIOLATION
    try:
        formula = materialize(trace, args.k, args.s)
    except (MaterializeError, CalculusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit_file(args.out, write_dimacs(formula), [
        ("k", args.k),
        ("s", args.s),
        ("n", len(formula.vars)),
        ("m", len(formula)),
    ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcnf",
        description="Unsatisfiable k-CNF formulas with few occurrences per "
                    "variable: constructions, verification, exact bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "construct",
        help="build a block or staged construction and write DIMACS")
    p.add_argument("--method", choices=("lemma1", "lemma2"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=None,
                   help="block width; defaults to the method's recommendation")
    p.add_argument("--compact", action="store_true",
                   help="suppress the stats lines")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser(
        "verify",
        help="check width uniformity, occurrence cap, optionally run the solver")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-occ", type=int, default=None)
    p.add_argument("--solve", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("f2", help="print f2(k); optionally emit the witness trace")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-trace", default=None, metavar="FILE",
                   help="write the trace at s = f2(k) + 1 (on -, f2 goes to stderr)")
    p.add_argument("--paper-literal", action="store_true",
                   help="relax the split rule to any subformula (comparison only)")
    p.set_defaults(func=_cmd_f2)

    p = sub.add_parser("f2-table", help="write the f2 CSV for a range of k")
    p.add_argument("--k-from", type=int, required=True)
    p.add_argument("--k-to", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_f2_table)

    p = sub.add_parser(
        "bounds",
        help="write the constructions-vs-lower-bound CSV for a range of k")
    p.add_argument("--k-from", type=int, required=True)
    p.add_argument("--k-to", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "materialize",
        help="expand a derivation trace (default: the computed witness) to DIMACS")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="read this trace instead of computing the witness")
    p.set_defaults(func=_cmd_materialize)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and execute one invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse exits on errors and on --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader stopped early; point stdout at devnull, where it has a
        # descriptor, so that the flush at exit stays silent
        with contextlib.suppress(AttributeError, OSError):
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_VIOLATION
    except (OSError, ValueError) as exc:    # kcnf's own errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

