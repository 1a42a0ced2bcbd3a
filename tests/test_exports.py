"""Every exported name resolves, every public name is reached, and the
package root binds no name."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import modicalab

MODULES = sorted(info.name for info in pkgutil.iter_modules(modicalab.__path__))
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modicalab"
TESTS = ROOT / "tests"

# Public names that nothing in src/ or perfbench/ references, each kept on purpose.
UNREACHED_ON_PURPOSE = {
    # reads the lab's own GridField artifacts back (`save_gridfield` writes them)
    "fields.load_gridfield",
    # P-function residuals kept for the planned P-function verdicts on relaxed
    # GL grids (ROADMAP.md, "Estimates on solutions the lab computes")
    "estimates.gl_p_residual",
    "estimates.diagonal_p_residual",
    # the catalogs' id listings, for scripts that enumerate them
    "potentials.POTENTIAL_IDS",
    "fields.CATALOG_IDS",
}


def test_package_root_binds_no_name():
    """Every object has one import path, `modicalab.<module>.<name>`: the
    package's __init__ holds its docstring and nothing else."""
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant), (
        f"src/modicalab/__init__.py binds names: {[ast.unparse(node) for node in body[1:]]}"
    )


@pytest.mark.parametrize("module", [f"modicalab.{name}" for name in MODULES])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def _definitions(path: Path):
    """(qualified name, first line, last line) of the public module-level
    functions and classes of a module, the public methods of its classes, and
    the other names its __all__ lists."""
    tree = ast.parse(path.read_text())
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = {e.value for e in node.value.elts}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{sub.name}", sub.lineno, sub.end_lineno
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id in exported and t.id != "__all__":
                    yield f"{path.stem}.{t.id}", node.lineno, node.end_lineno


def _references(path: Path):
    """(identifier, line, is an attribute) for every name read in a file.
    A bare name counts only where the file binds it at module level, by a
    definition, an assignment or a from-import (read under its original
    name); a local variable of the same name is not a read.  Definitions,
    import aliases and the strings of __all__ are not reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.name
        elif isinstance(node, ast.Assign):
            bound.update({t.id: t.id for t in node.targets if isinstance(t, ast.Name)})
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bound.update({a.asname or a.name: a.name for a in node.names})
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            yield bound[node.id], node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True


def _unreached() -> set:
    """Public names of src/ that no code of src/ or perfbench/ reads, outside
    their own definition and outside other such names: a name is dropped and
    the scan repeats until every remaining name has a live reference."""
    defs = {}  # qualified name -> (file, first line, last line)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            for name, lo, hi in _definitions(path):
                defs[name] = (path, lo, hi)
    refs = {}  # identifier -> [(file, line, is an attribute)]
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        for ident, line, attr in _references(path):
            refs.setdefault(ident, []).append((path, line, attr))

    def inside(name, path, line):
        f, lo, hi = defs[name]
        return f == path and lo <= line <= hi

    dead = set()

    def live(name, path, line, attr):
        # a method is read as an attribute; no read inside the name's own
        # definition or inside a dead name counts
        if name.count(".") == 2 and not attr:
            return False
        return not inside(name, path, line) and not any(inside(d, path, line) for d in dead)

    while True:
        newly = {name for name in defs.keys() - dead
                 if not any(live(name, *r) for r in refs.get(name.rsplit(".", 1)[1], []))}
        if not newly:
            return dead
        dead |= newly


def test_every_public_name_is_reached():
    unreached = _unreached()
    extra = sorted(unreached - UNREACHED_ON_PURPOSE)
    assert not extra, f"public names nothing reaches: {extra}"
    stale = UNREACHED_ON_PURPOSE - unreached
    assert not stale, f"allowlisted names that are reached or gone: {sorted(stale)}"


# Settable values in src/: defaulted parameters, of lambdas too, plus the
# dataclass fields given a value on the class (a default or a field(...)
# spec).  A new knob has to raise this ratchet in the same change.
SETTABLE_VALUES = 60


def _settable_values(source: str, name: str) -> list:
    """'name:line' of each settable value in one module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            found += [f"{name}:{d.lineno}" for d in defaults]
        elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            found += [f"{name}:{st.lineno}" for st in node.body if isinstance(st, ast.AnnAssign) and st.value]
    return found


def test_settable_values_do_not_grow():
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in _settable_values(path.read_text(), path.name)]
    assert len(found) <= SETTABLE_VALUES, f"{len(found)} settable values, over {SETTABLE_VALUES}: {found}"


def test_the_settable_value_walk_counts_each_kind():
    source = (
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): return lambda x, y=3: x\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: dict = field(default_factory=dict)\n"
        "class Plain:\n"
        "    e: int = 0\n"
    )
    assert len(_settable_values(source, "m.py")) == 5


# Reductions over a trailing axis (np.sum, np.all, np.any and np.add.reduce,
# or the method forms, with axis=-1) in every module of the package.  numpy
# reduces a short value axis with one small loop per row, slower than one
# array operation per column, so the package sums it with
# potentials._sum_columns, whose fallback from 8 columns on is the one left.
# A new one has to raise this ratchet.
TRAILING_REDUCTIONS = 1


def _trailing_reductions(source: str, name: str) -> list:
    """'name:line' of each reduction over axis -1 in one module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = ast.unparse(node.func)
        if func in ("np.sum", "np.all", "np.any", "np.add.reduce"):
            axis = node.args[1:2]
        elif node.func.attr in ("sum", "all", "any"):
            axis = node.args[:1]
        else:
            continue
        axis += [kw.value for kw in node.keywords if kw.arg == "axis"]
        if any(ast.unparse(a) == "-1" for a in axis):
            found.append(f"{name}:{node.lineno}")
    return found


def test_trailing_axis_reductions_do_not_grow_in_the_sweep_modules():
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in _trailing_reductions(path.read_text(), path.name)]
    assert len(found) <= TRAILING_REDUCTIONS, f"{len(found)} trailing-axis reductions, over {TRAILING_REDUCTIONS}: {found}"


def test_the_trailing_reduction_walk_counts_each_form():
    source = (
        "np.sum(u * u, axis=-1)\n"
        "np.all(u, -1)\n"
        "np.any(u > 0, axis=-1, keepdims=True)\n"
        "np.add.reduce(u, axis=-1)\n"
        "u.sum(axis=-1) + u.all(-1)\n"
        "np.sum(u, axis=0) + np.sum(u) + u.sum(axis=(-2, -1)) + np.prod(u, axis=-1)\n"
    )
    assert len(_trailing_reductions(source, "m.py")) == 6


# The test functions that start a process, each with the reason it needs one:
# every other test runs the command line in this process, where warnings
# raise and a call costs no interpreter start.  A new one has to be added
# here in the same change.
CHILD_PROCESS_TESTS = {
    "test_cli.py::test_no_arguments_is_a_usage_error": "the `python -m modicalab.cli` entry point is under test",
    "test_cli.py::test_suite_runs_without_scipy": "its import blocker must be in place before the first import",
    "test_acceptance.py::test_c10_suite_is_deterministic_and_fast": "compares two runs that share no module cache",
    "test_counterexample.py::test_import_builds_no_table": "only a cold import shows what the import builds",
}

# the subprocess functions that start a process
_STARTS = {"run", "Popen", "call", "check_call", "check_output", "getoutput", "getstatusoutput"}


def _child_processes(source: str, name: str) -> list:
    """'name::function' of each function in a test module's source that starts
    a process, through subprocess or sys.executable, itself or through a
    function of the same module that it names."""
    functions = {node.name: node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    found = {f for f, node in functions.items() if any(
        isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
        and (sub.value.id, sub.attr) in {("sys", "executable"), *(("subprocess", s) for s in _STARTS)}
        for sub in ast.walk(node))}
    while more := {f for f, node in functions.items() if f not in found and any(
            isinstance(sub, ast.Name) and sub.id in found for sub in ast.walk(node))}:
        found |= more
    return sorted(f"{name}::{f}" for f in found)


def test_child_processes_are_the_listed_ones():
    found = {c for path in sorted(TESTS.rglob("*.py")) for c in _child_processes(path.read_text(), path.name)}
    new = sorted(found - CHILD_PROCESS_TESTS.keys())
    assert not new, f"tests that start a process, not in CHILD_PROCESS_TESTS with a reason: {new}"
    stale = sorted(CHILD_PROCESS_TESTS.keys() - found)
    assert not stale, f"CHILD_PROCESS_TESTS lists tests that start no process: {stale}"


def test_the_child_process_walk_counts_each_start():
    source = (
        "import subprocess, sys\n"
        "def test_child(): subprocess.run(['true'])\n"
        "def test_in_process(): return subprocess.CompletedProcess([], 0)\n"
    )
    assert _child_processes(source, "m.py") == ["m.py::test_child"]
    source = (
        "import sys\n"
        "def _spawn(code): return [sys.executable, '-c', code]\n"
        "def test_through_a_helper(): _spawn('pass')\n"
        "def test_without(): return 'sys.executable'\n"
    )
    assert _child_processes(source, "m.py") == ["m.py::_spawn", "m.py::test_through_a_helper"]
