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


def test_grid_exports_have_program_callers():
    # every name grid.py exports is used by the program itself, by another
    # module of the package or by the benchmark, and not only by tests.  A
    # use is an imported name read in code, or an attribute read; an import
    # alone (a re-export in __init__.py), a docstring or a comment is none.
    from grainflow import grid

    package = Path(grainflow.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    paths = [p for p in package.glob("*.py") if p.name != "grid.py"]
    paths += sorted(perfbench.rglob("*.py"))
    assert any(p.is_relative_to(perfbench) for p in paths)
    used = set()
    for path in paths:
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported = {a.asname or a.name for n in nodes if isinstance(n, ast.ImportFrom)
                    for a in n.names}
        used |= {n.id for n in nodes if isinstance(n, ast.Name) and n.id in imported}
        used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    assert sorted(set(grid.__all__) - used) == []
