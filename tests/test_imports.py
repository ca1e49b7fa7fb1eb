"""Every name a module of the package imports at top level is used there.

A stdlib-only stand-in for a linter's unused-import rule: a name counts as
used when it is read anywhere in the module (annotations included) or
re-exported through ``__all__``.  ``__init__.py`` is skipped, since
re-exporting is its purpose.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracchrom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _top_level_imports(tree):
    """(name, line) for each import outside function and class bodies."""
    out = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, node.lineno))
            continue
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if isinstance(child, ast.stmt)
                     or isinstance(child, ast.excepthandler))
    return out


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used |= _exported(tree)
    return sorted((line, name) for name, line in _top_level_imports(tree)
                  if name not in used)


def test_modules_found():
    assert {"cli.py", "sampler.py", "augment.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "import os, sys\n"
                   "from math import pi as PI, tau\n"
                   "__all__ = ['tau']\n"
                   "try:\n    import json\nexcept ImportError:\n    json = None\n"
                   "def f() -> 'x':\n    import re\n    return sys.argv, PI\n")
    assert unused_imports(src) == [(2, "os"), (6, "json")]
