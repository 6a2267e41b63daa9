"""Every exported name resolves.

A name left in a module's ``__all__`` or in the package's imports after
its definition is removed should fail here, by name, rather than as an
import error of every test module that imports the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "memfem"
# every module but __main__, which runs the command line when imported
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem not in ("__init__", "__main__"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"memfem.{name}")
    missing = [attr for attr in getattr(module, "__all__", [])
               if not hasattr(module, attr)]
    assert missing == []


def package_imports():
    """``(module, name)`` of every ``from .module import name`` in
    ``memfem/__init__.py``, read from its source."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_package_import_resolves():
    imports = package_imports()
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(f"memfem.{module}"),
                              name)]
    assert missing == []
    import memfem
    assert [name for _, name in imports if not hasattr(memfem, name)] == []
