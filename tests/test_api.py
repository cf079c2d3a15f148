"""Every public name the package declares resolves: a stale entry in a
module's __all__ only breaks ``from mzphase.<module> import *``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mzphase

MODULES = [
    module
    for module in (
        importlib.import_module(f"mzphase.{info.name}")
        for info in pkgutil.iter_modules(mzphase.__path__)
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    assert module.__all__
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(mzphase.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("." * node.level + node.module, "mzphase")
        for alias in node.names:
            assert getattr(mzphase, alias.asname or alias.name) is getattr(module, alias.name)
