"""Seven stdlib-only lint rules over the modules of the package, and a
guard for the names of the package that the benchmark reads.

Every name a module imports at top level is used there: a stand-in for a
linter's unused-import rule, where a name counts as used when it is read
anywhere in the module (annotations included) or re-exported through
``__all__``.  ``__init__.py`` is skipped, since re-exporting is its
purpose.

No module catches ``ImportError`` (or ``ModuleNotFoundError``) to fall
back to something else: a missing import fails loudly.

No module binds a dict, list or set at top level, apart from a short
allow-list of constant tables: a result worth keeping lives on the object
it was computed from (``Graph.derived``, ``TwoFactor.derived``), and
scratch state lives in a local that dies with the call.

Every private top-level function or class is referenced somewhere in the
package (read by name, as an attribute, or imported): a helper whose last
caller is gone is deleted with it.

No module holds an ``assert`` statement: ``python -O`` strips them, so a
runtime invariant is an ``if ...: raise`` that holds on every run.

Every name in a module's ``__all__`` is bound at the module's top level
(defined, assigned or imported there): an export whose definition is gone
goes out of ``__all__`` with it.

Indented JSON comes from one place, the CLI's renderer: ``cli.py`` holds
one ``json.dump``/``json.dumps``/``JSONEncoder`` call with an ``indent``,
and no other module holds any.  The standard encoder runs in pure Python
when it indents, so a second writer would be a second cost to watch.

Every name the benchmark in ``perfbench/`` reads from the package still
resolves: the probes of ``perfbench/layers.py`` and the ``from fracchrom
... import`` lines of ``perfbench/*.py``, leaving out an import that an
``ImportError`` handler guards.  The benchmark's tracer turns a probe
whose function is gone into metrics that read zero, and a worker whose
import fails into a failed run, so without this test a rename shows only
when the benchmark runs.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracchrom"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
PERFBENCH = PACKAGE.parent.parent / "perfbench"
_IMPORT_ERRORS = {"ImportError", "ModuleNotFoundError"}
_CONTAINER_DISPLAYS = (ast.Dict, ast.List, ast.Set,
                       ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                    "Counter", "deque"}
# constant tables, filled once at import and only read afterwards
_CONSTANT_TABLES = {"__all__", "EPSILON_BY_TYPE", "_COMMANDS", "_NAME_ALIASES"}


def _module_statements(tree):
    """Statements run at import time: those outside function and class
    bodies, including the bodies of top-level ``if``/``try``/``with``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if isinstance(child, ast.stmt)
                     or isinstance(child, ast.excepthandler))


def _top_level_imports(tree):
    """(name, line) for each import outside function and class bodies."""
    out = []
    for node in _module_statements(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, node.lineno))
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


def import_fallbacks(path):
    """Lines of the ``except`` handlers that catch an import failure."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and _catches_import_error(node)]


def _catches_import_error(handler):
    if handler.type is None:
        return False
    caught = (handler.type.elts if isinstance(handler.type, ast.Tuple)
              else [handler.type])
    return any(isinstance(c, ast.Name) and c.id in _IMPORT_ERRORS
               for c in caught)


def _is_container(value):
    if isinstance(value, _CONTAINER_DISPLAYS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        return name in _CONTAINER_CALLS
    return False


def _bindings(target, value):
    """(name, value) pairs bound by one assignment target, unpacking a
    tuple or list display on the right when the left matches it."""
    if isinstance(target, ast.Name):
        yield target.id, value
    elif isinstance(target, (ast.Tuple, ast.List)):
        if (isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(target.elts)):
            for t, v in zip(target.elts, value.elts):
                yield from _bindings(t, v)


def module_containers(path):
    """(line, name) for each top-level name bound to a dict, list or set
    that is not on the constant-table allow-list."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in _module_statements(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name, value in _bindings(target, node.value):
                if _is_container(value) and name not in _CONSTANT_TABLES:
                    out.append((node.lineno, name))
    return sorted(out)


def unreferenced_private_definitions(paths):
    """(file name, line, name) for each private top-level function or class
    of ``paths`` that no module of ``paths`` reads, by name, as an attribute
    or through an import."""
    defined = []
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.extend(
            (path.name, node.lineno, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(d for d in defined if d[2] not in used)


def assert_statements(path):
    """Lines of the ``assert`` statements of one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert))


def _top_level_names(tree):
    """Names bound by the top level of a module: definitions, imports and
    assignment targets."""
    names = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))}
    for node in _module_statements(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name))
    return names


def stale_exports(path):
    """Names of ``__all__`` that the module does not bind at top level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(_exported(tree) - _top_level_names(tree))


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


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_silent_import_fallback(path):
    assert import_fallbacks(path) == []


def test_checker_flags_an_import_fallback(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("try:\n    import fast\nexcept ImportError:\n    fast = None\n"
                   "try:\n    import a\nexcept (OSError, ModuleNotFoundError):\n"
                   "    a = None\n"
                   "try:\n    import b\nexcept ValueError:\n    pass\n"
                   "try:\n    import c\nexcept:\n    raise\n")
    assert import_fallbacks(src) == [3, 7]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_level_containers(path):
    assert module_containers(path) == []


def test_checker_flags_a_module_level_container(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import collections\n"
                   "__all__ = ['f']\n"
                   "CACHE = {}\n"
                   "_SEEN: set = set()\n"
                   "TABLE = [i for i in range(3)]\n"
                   "if True:\n    _MEMO = collections.defaultdict(list)\n"
                   "EPSILON_BY_TYPE = {}\n"
                   "a, b = [], 0\n"
                   "FROZEN = frozenset({1})\n"
                   "PAIRS = ((1, 2),)\n"
                   "def f():\n    local = {}\n    return local\n"
                   "class C:\n    attr = []\n")
    assert module_containers(src) == [
        (3, "CACHE"), (4, "_SEEN"), (5, "TABLE"), (7, "_MEMO"), (9, "a")]


def test_private_definitions_are_referenced():
    assert unreferenced_private_definitions(ALL_MODULES) == []


def test_checker_flags_an_unreferenced_private_definition(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("def _called():\n    pass\n"
                 "def _orphan():\n    pass\n"
                 "class _Imported:\n    pass\n"
                 "class _Unused:\n    def _method(self):\n        pass\n"
                 "def _by_attribute():\n    pass\n"
                 "def __getattr__(name):\n    pass\n"
                 "def public():\n    return _called()\n")
    b = tmp_path / "b.py"
    b.write_text("import a\nfrom a import _Imported\n"
                 "def f():\n    return a._by_attribute, _Imported\n")
    assert unreferenced_private_definitions([a, b]) == [
        ("a.py", 3, "_orphan"), ("a.py", 7, "_Unused")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path) == []


def test_checker_flags_an_assert_statement(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("assert True\n"
                   "def f(x):\n    if x % 2:\n        raise RuntimeError(x)\n"
                   "    assert x, 'even'\n    return 'assert x'\n"
                   "class C:\n    def g(self):\n        assert self\n")
    assert assert_statements(src) == [1, 5, 9]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_exports_are_bound(path):
    assert stale_exports(path) == []


def test_checker_flags_a_stale_export(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\n"
                   "from math import pi as PI\n"
                   "__all__ = ['os', 'PI', 'f', 'C', 'X', 'Y', 'Z', 'Gone',\n"
                   "           'nested']\n"
                   "X: int = 1\n"
                   "Y, Z = 2, 3\n"
                   "def f():\n    nested = 1\n    return nested\n"
                   "class C:\n    pass\n")
    assert stale_exports(src) == ["Gone", "nested"]


def indented_json_calls(path):
    """Lines of the ``dump``/``dumps``/``JSONEncoder`` calls of one module
    that pass an ``indent`` other than ``None``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in {"dump", "dumps", "JSONEncoder"} and any(
                k.arg == "indent" and not (isinstance(k.value, ast.Constant)
                                           and k.value.value is None)
                for k in node.keywords):
            out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_indented_json_encoder(path):
    assert len(indented_json_calls(path)) == (1 if path.name == "cli.py" else 0)


def test_checker_flags_an_indented_json_call(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import json\n"
                   "from json import dumps, JSONEncoder\n"
                   "a = json.dumps({}, indent=2, sort_keys=True)\n"
                   "b = json.dumps({}, sort_keys=True)\n"
                   "def f(x, out):\n"
                   "    json.dump(x, out, indent=None)\n"
                   "    return dumps(x,\n                 indent=4)\n"
                   "c = JSONEncoder(indent=1).encode\n"
                   "d = json.loads('{}')\n")
    assert indented_json_calls(src) == [3, 7, 9]


def benchmark_names(directory):
    """(module, name) for each name of the package that the benchmark in
    ``directory`` reads: the ``Probe(module, name)`` calls of its
    ``layers.py`` and the unguarded ``from fracchrom... import`` lines of
    its modules."""
    out = set()
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        guarded = {id(node) for attempt in ast.walk(tree)
                   if isinstance(attempt, ast.Try)
                   and any(map(_catches_import_error, attempt.handlers))
                   for stmt in attempt.body for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "fracchrom"
                    and id(node) not in guarded):
                out.update((node.module, alias.name) for alias in node.names)
            elif (path.name == "layers.py" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Probe"):
                out.add(tuple(arg.value for arg in node.args[:2]))
    return sorted(out)


def resolves(module, name):
    """True when ``name`` is an attribute or a submodule of ``module``."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    return (hasattr(mod, "__path__")
            and importlib.util.find_spec(module + "." + name) is not None)


def test_benchmark_names_resolve():
    names = benchmark_names(PERFBENCH)
    assert {("fracchrom.sampler", "_compute_law"),
            ("fracchrom.sampler", "_kernel_args"),
            ("fracchrom", "kernel_backend"),
            ("fracchrom", "_mcphases_py")} <= set(names)
    assert ("fracchrom", "_mcphases") not in names
    assert [(module, name) for module, name in names
            if not resolves(module, name)] == []


def test_checker_reads_probes_and_unguarded_imports(tmp_path):
    (tmp_path / "layers.py").write_text(
        "from tracer import Probe\n"
        "PROBES = (Probe('fracchrom.sampler', 'gone', None),\n"
        "          Probe('fracchrom.cli', 'run'))\n")
    (tmp_path / "worker.py").write_text(
        "import fracchrom\n"
        "from fracchrom import cli, kernel_backend\n"
        "def f():\n"
        "    from fracchrom.sampler import _kernel_args\n"
        "    try:\n        from fracchrom import _fast\n"
        "    except ImportError:\n        _fast = None\n"
        "    Probe('fracchrom.sampler', 'not_in_layers')\n")
    names = benchmark_names(tmp_path)
    assert names == [("fracchrom", "cli"), ("fracchrom", "kernel_backend"),
                     ("fracchrom.cli", "run"),
                     ("fracchrom.sampler", "_kernel_args"),
                     ("fracchrom.sampler", "gone")]
    assert [n for n in names if not resolves(*n)] == [
        ("fracchrom.sampler", "gone")]
