"""Source-level checks over the kcnf modules, read with ast, never imported."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kcnf"
MODULES = sorted(SRC.glob("*.py"))
# where a kcnf name may be used: the package, its tests and the benchmark
SEARCHED = sorted(p for d in (SRC, ROOT / "tests", ROOT / "perfbench")
                  for p in d.glob("*.py"))


def _imported_names(tree):
    """(bound name, line) for every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_package_reexports_nothing():
    # each public name is imported from its submodule
    body = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant)


def _top_level_definitions(tree):
    """(name, first line, last line) of each module-level def, class and
    assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in ast.walk(node):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    yield name.id, node.lineno, node.end_lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_name_is_used(path):
    # a plain-text search: a name counts as used when it appears in any
    # searched file outside the lines of its own definition
    texts = {p: p.read_text(encoding="utf-8") for p in SEARCHED}
    lines = texts[path].splitlines()
    unused = []
    for name, first, last in _top_level_definitions(ast.parse(texts[path])):
        word = re.compile(rf"\b{re.escape(name)}\b")
        elsewhere = "\n".join(lines[:first - 1] + lines[last:])
        if not word.search(elsewhere) and not any(
                word.search(text) for p, text in texts.items() if p != path):
            unused.append(f"{name} (line {first})")
    assert not unused, f"{path.name} defines but never names {unused}"


@pytest.mark.parametrize("path", [p for p in SEARCHED if p != SRC / "formula.py"],
                         ids=lambda p: p.parent.name + "/" + p.name)
def test_formula_constructor_stays_private(path):
    # Formula._of trusts its clauses and the variable set it is handed, so
    # only formula.py may build a formula through it or set that set
    tree = ast.parse(path.read_text(encoding="utf-8"))
    touched = [f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and node.attr in ("_of", "_vars")]
    assert not touched, f"{path.name} reaches into Formula: {touched}"


def _dataclass_fields(tree, name):
    (cls,) = [node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == name]
    return {node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign)}


def test_each_decision_has_one_encoding():
    # the split rule is chosen by the `literal` flag, never by a mode
    # string, and the verify report holds the solver's result rather than
    # copies of its fields
    with_mode = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = [a.arg for a in
                         args.posonlyargs + args.args + args.kwonlyargs]
                if "mode" in names:
                    with_mode.append(f"{path.name}:{node.name}")
    assert not with_mode, f"functions with a mode parameter: {with_mode}"
    solver = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    copied = (_dataclass_fields(solver, "VerifyReport")
              & _dataclass_fields(solver, "SolveResult"))
    assert not copied, f"VerifyReport copies SolveResult's {sorted(copied)}"
    # and it derives what follows from its own fields
    stored = (_dataclass_fields(solver, "VerifyReport")
              & {"width_uniform", "occ_ok"})
    assert not stored, f"VerifyReport stores derivable {sorted(stored)}"


def test_dp_steps_use_the_trace_ops():
    # a piece's last step is spelled with calculus's trace ops, so a tuple
    # that starts with a string (other than __slots__) is a second spelling
    tree = ast.parse((SRC / "dp.py").read_text(encoding="utf-8"))
    slots = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Assign)
             and [t.id for t in node.targets if isinstance(t, ast.Name)]
             == ["__slots__"]}
    tagged = [f"line {node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.Tuple) and id(node) not in slots
              and node.elts and isinstance(node.elts[0], ast.Constant)
              and isinstance(node.elts[0].value, str)]
    assert not tagged, f"dp.py tuples tagged with a string: {tagged}"
