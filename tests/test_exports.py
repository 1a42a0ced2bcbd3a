"""Every exported name resolves, and every public name is reached."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import modicalab

MODULES = sorted(info.name for info in pkgutil.iter_modules(modicalab.__path__))
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modicalab"

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


@pytest.mark.parametrize("module", ["modicalab"] + [f"modicalab.{name}" for name in MODULES])
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
