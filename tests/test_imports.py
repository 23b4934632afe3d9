"""Every module imports first in a fresh interpreter.

The package imports none of its modules, so which one loads first
depends on the caller; an import cycle (certify and vit need each
other) stays safe only while one side defers its import.
"""

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
