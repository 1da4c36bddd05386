"""List the statements in src/kcnf that the test suite never reaches.

Run from the repository root:

    PYTHONPATH=src python tools/line_trace.py [pytest arguments]

The suite runs in this process under a `sys.settrace` line hook, so only
the standard library and pytest are needed; code that a test starts in a
subprocess is not traced. Every executable line of src/kcnf that no test
reached is printed as `file:line: statement`, unless a
`# unreached: <reason>` note covers it. A note covers the line it ends,
or, on a line of its own, the statement below it; on a line of its own
between a module's docstring and its first statement, it covers the
whole module. The exit status is 1 when a line was printed or the suite
failed, else 0. Arguments go to pytest in place of the default `tests`
directory, so `tools/line_trace.py tests/test_dp.py` traces one file.
"""

import ast
import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kcnf"
NOTE = "# unreached:"


def executable_lines(code: CodeType) -> Iterator[int]:
    """Line numbers of every instruction in code and its nested code."""
    for _, _, line in code.co_lines():
        if line:                        # a module's line 0 is no statement
            yield line
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from executable_lines(const)


def noted(text: str) -> Set[int]:
    """Lines a note covers: its own line; the statement below a note on a
    line of its own; every line for such a note before the module's first
    statement after the docstring."""
    lines = text.splitlines()
    tree = ast.parse(text)
    body = tree.body[ast.get_docstring(tree) is not None:]
    first = body[0].lineno if body else len(lines) + 1
    alone = [i for i, line in enumerate(lines, 1)
             if line.strip().startswith(NOTE)]
    if any(i < first for i in alone):
        return set(range(1, len(lines) + 1))
    ends: Dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            ends[node.lineno] = max(ends.get(node.lineno, 0), node.end_lineno)
    covered = {i for i, line in enumerate(lines, 1) if NOTE in line}
    for i in alone:
        covered.update(range(i + 1, ends.get(i + 1, i) + 1))
    return covered


def run_traced(args: List[str]) -> Tuple[int, Dict[str, Set[int]]]:
    """Run pytest with a line hook on every file of src/kcnf."""
    hits: Dict[str, Set[int]] = {str(p): set() for p in SRC.glob("*.py")}
    local_for: Dict[str, object] = {}   # co_filename -> local hook or None

    def local_hook(seen: Set[int]):
        def hook(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return hook
        return hook

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return local_for[name]
        except KeyError:
            seen = hits.get(os.path.realpath(name))
            hook = local_for[name] = None if seen is None else local_hook(seen)
            return hook

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(args: List[str]) -> int:
    status, hits = run_traced(args)
    printed = 0
    for name in sorted(hits):
        path = Path(name)
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        wanted = set(executable_lines(compile(text, name, "exec")))
        missed = wanted - hits[name] - noted(text)
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
            printed += 1
    if status:
        print(f"line_trace: pytest exited {status}; the trace is incomplete",
              file=sys.stderr)
    return 1 if printed or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
