"""Export lists name only what exists, so a deleted function cannot linger in one.

Importing the package also stays cheap: every CLI process pays for it.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dictolearn

PACKAGE = Path(dictolearn.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"dictolearn.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_are_exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"dictolearn.{node.module}").__all__
            unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert unlisted == []


@pytest.mark.parametrize("module", ["dictolearn", "dictolearn.cli"])
def test_import_loads_no_signal_or_stats(module):
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.signal', 'scipy.stats'))))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "[]"
