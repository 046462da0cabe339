"""Export lists name only what exists, so a deleted function cannot linger in one."""

import ast
import importlib
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
