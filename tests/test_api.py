"""The package's imports in mzphase/__init__.py are its one list of public
names: every name they import resolves, and no module keeps a second list
in an __all__."""

import ast
import importlib
import pkgutil
from pathlib import Path

import mzphase


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(mzphase.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("." * node.level + node.module, "mzphase")
        for alias in node.names:
            assert getattr(mzphase, alias.asname or alias.name) is getattr(module, alias.name)


def test_no_module_declares_all():
    modules = [mzphase] + [
        importlib.import_module(f"mzphase.{info.name}")
        for info in pkgutil.iter_modules(mzphase.__path__)
    ]
    assert len(modules) > 1
    assert [m.__name__ for m in modules if hasattr(m, "__all__")] == []
