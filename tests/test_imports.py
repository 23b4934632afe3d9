"""Every module imports first in a fresh interpreter, and reads every name it imports.

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


# the one import no module reads: certbench's traced run wraps vit.ablation_set
UNREAD_IMPORTS = {("vit", "ablation_set")}


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
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
    unread = {name for name in imported - read - exported if (module, name) not in UNREAD_IMPORTS}
    assert not unread, f"{module} imports names it never reads: {sorted(unread)}"
