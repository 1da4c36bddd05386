"""Count the code lines of each module in src/kcnf.

Run from anywhere:

    python tools/code_lines.py

A code line holds at least one token that is not a comment, a docstring,
a line break or an indent. Each module's count is printed as `name count`,
then the total as `total count`.
"""

import ast
import io
import tokenize
from pathlib import Path
from typing import Set

SRC = Path(__file__).resolve().parents[1] / "src" / "kcnf"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> Set[int]:
    """Lines of the module's, each class's and each function's docstring."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docs = docstring_lines(ast.parse(text))
    lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(path.name, n)
    print("total", total)


if __name__ == "__main__":
    main()
