import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import grainflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(grainflow.__path__))


def test_package_has_its_modules():
    assert {"cli", "energy", "grid", "model", "scheme", "thetastep", "verify",
            "vstep"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"grainflow.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    # every name grainflow/__init__.py imports exists in its source module
    # and on the package
    tree = ast.parse(Path(grainflow.__file__).read_text())
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"grainflow.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                assert hasattr(grainflow, alias.asname or alias.name)
                imported += 1
    assert imported > 0


def test_stencil_is_the_only_difference_operator():
    # grid.Stencil takes every difference in the package
    found = [f"{path.name}:{node.lineno} np.{node.attr}"
             for path in sorted(Path(grainflow.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("diff", "gradient")
             and isinstance(node.value, ast.Name) and node.value.id == "np"]
    assert found == []
