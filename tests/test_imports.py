"""Every module imports first in a fresh interpreter, reads every name it imports, and
every private module-level function or class is loaded somewhere in the package; every
test reference and private test helper is used.

The package imports none of its modules, so which one loads first
depends on the caller; an import cycle (certify and vit need each
other) stays safe only while one side defers its import.
"""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import patchcert

PACKAGE = Path(patchcert.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))


def test_every_module_is_listed():
    assert {"ablation", "certify", "cli", "vit"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import patchcert.{module}"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


# the imports no module reads: certbench's traced run wraps vit.ablation_set,
# train.column_ablation and train.block_ablation
UNREAD_IMPORTS = {("vit", "ablation_set"), ("train", "column_ablation"), ("train", "block_ablation")}


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    tree = _tree(module)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if targets == ["__all__"]:
            exported = set(ast.literal_eval(node.value))
    unread = imported - read - exported
    exempt = {name for m, name in UNREAD_IMPORTS if m == module}
    assert not unread - exempt, f"{module} imports names it never reads: {sorted(unread - exempt)}"
    assert exempt <= unread, f"stale UNREAD_IMPORTS entries for {module}: {sorted(exempt - unread)}"


def _definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _loaded_outside(tree, own=None):
    """The names tree loads, bare or read through a module (as in nx._LN_EPS), outside
    the definition own."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for top in tree.body if top is not own for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_private_definition_is_loaded():
    # a private helper that only the tests call is dead code in the package
    trees = {module: _tree(module) for module in MODULES}
    loaded = set().union(*map(_loaded_outside, trees.values()))
    dead = [f"{module}.{node.name}" for module, tree in trees.items() for node in _definitions(tree)
            if node.name.startswith("_") and node.name not in loaded]
    assert not dead, f"private definitions nothing in the package loads: {dead}"


TESTS = Path(__file__).parent
CERTBENCH = TESTS.parent / "certbench"


def test_every_test_helper_is_used():
    # a slow path stays written once, not once plus a dead copy: every reference is used
    # under tests/ or certbench/, and every private helper of a test module by that module
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(TESTS.glob("*.py")) + sorted(CERTBENCH.glob("*.py"))}
    references = trees[TESTS / "references.py"]
    dead = [f"references.{node.name}" for node in _definitions(references)
            if not any(node.name in _loaded_outside(tree, node) for tree in trees.values())]
    dead += [f"{path.stem}.{node.name}" for path, tree in trees.items()
             if path.parent == TESTS and path.name.startswith("test_")
             for node in _definitions(tree)
             if node.name.startswith("_") and node.name not in _loaded_outside(tree, node)]
    assert not dead, f"test helpers nothing uses: {dead}"
