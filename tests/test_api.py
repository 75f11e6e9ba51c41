import ast
import dataclasses
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


def test_stencils_come_from_the_cached_constructor():
    # grid.stencil, one instance per (shape, dx, fields), is the package's
    # only call of Stencil(...)
    calls = []
    for path in sorted(Path(grainflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {id(n): d.name for d in ast.walk(tree) if isinstance(d, ast.FunctionDef)
                 for n in ast.walk(d)}
        calls += [f"{path.name}:{scope.get(id(n))}" for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and "Stencil" in (getattr(n.func, "id", None),
                                                               getattr(n.func, "attr", None))]
    assert calls == ["grid.py:stencil"]


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


def test_definitions_have_program_callers():
    # every public function or method defined in the package is read by the
    # program itself, in the package or the benchmark, and not only by tests.
    # A read is a name or an attribute loaded outside a def of that name, so
    # neither a def, a recursive call nor a same-named pass-through counts.
    package = Path(grainflow.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    paths = sorted(package.glob("*.py")) + sorted(perfbench.rglob("*.py"))
    assert any(p.is_relative_to(perfbench) for p in paths)
    # the subject of criterion 6; tests use it as the reference bound
    exempt = {"v_step_perturbation_bound"}
    defined, used = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text())
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        if path.parent == package:
            scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
            defined |= {f"{path.stem}.{n.name}" for body in scopes for n in body
                        if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
        inside = {id(m): d.name for d in defs for m in ast.walk(d) if m is not d}
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if (name is not None and isinstance(node.ctx, ast.Load)
                    and inside.get(id(node)) != name):
                used.add(name)
    unread = sorted(d for d in defined if d.split(".")[1] not in used | exempt)
    assert unread == []


def test_params_fields_are_set_by_the_program():
    # every init field of the three params dataclasses is set by keyword in
    # some call of the program, in the package or the benchmark, so none is a
    # setting only tests reach; and SchemeParams is the config's [scheme]
    # section, whose h_frac is h as a fraction of h*
    from grainflow.cli import CONFIG_KEYS
    from grainflow.scheme import SchemeParams
    from grainflow.thetastep import ThetaStepParams
    from grainflow.vstep import VStepParams

    package = Path(grainflow.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    classes = (SchemeParams, VStepParams, ThetaStepParams)
    init = {c.__name__: {f.name for f in dataclasses.fields(c) if f.init} for c in classes}
    set_by = {name: set() for name in init}
    for path in sorted(package.glob("*.py")) + sorted(perfbench.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in set_by:
                    set_by[name] |= {k.arg for k in node.keywords}
    assert {name: sorted(init[name] - set_by[name]) for name in init} == {
        name: [] for name in init}
    assert init["SchemeParams"] == CONFIG_KEYS["scheme"] - {"h_frac"}


def _program_sources():
    """The program's own source files: the package and the benchmark."""
    package = Path(grainflow.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    paths = sorted(package.glob("*.py")) + sorted(perfbench.rglob("*.py"))
    assert any(p.is_relative_to(perfbench) for p in paths)
    return package, paths


def test_defaulted_parameters_are_passed_by_the_program():
    # every parameter with a default, of a public function or method of the
    # package, is passed, by keyword or by position, by some call of the
    # program, so that no default is a setting only tests reach.  A call is
    # matched by the name it calls (import aliases resolved; a class call
    # stands for its __init__); a *args or **kwargs argument passes them all.
    exempt = {"cli.main.argv"}  # tests call the entry point with their own argv
    package, paths = _program_sources()
    defaulted = {}  # called name -> [(qualified parameter, position, keyword)]
    passed = {}  # called name -> [(positional count, keywords)]
    for path in paths:
        tree = ast.parse(path.read_text())
        alias = {a.asname: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                 for a in n.names if a.asname}
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords}
            passed.setdefault(alias.get(name, name), []).append(
                (float("inf") if starred else len(call.args),
                 None if None in keywords else keywords))
        if path.parent != package:
            continue
        scopes = [(None, tree.body)] + [(c.name, c.body) for c in tree.body
                                        if isinstance(c, ast.ClassDef)
                                        and not c.name.startswith("_")]
        for owner, body in scopes:
            for fn in body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("_") and fn.name != "__init__"):
                    continue
                args = fn.args.posonlyargs + fn.args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                if owner is not None and not static:
                    args = args[1:]  # self or cls
                called = owner if fn.name == "__init__" else fn.name
                qual = f"{path.stem}.{f'{owner}.' if owner else ''}{fn.name}"
                first = len(args) - len(fn.args.defaults)
                defaulted.setdefault(called, []).extend(
                    (f"{qual}.{a.arg}", i, a.arg) for i, a in enumerate(args) if i >= first)
                defaulted[called].extend(
                    (f"{qual}.{a.arg}", None, a.arg)
                    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None)

    def is_passed(called, position, keyword):
        return any(kws is None or keyword in kws or (position is not None and n_pos > position)
                   for n_pos, kws in passed.get(called, ()))

    never = sorted(qual for called, params in defaulted.items()
                   for qual, position, keyword in params
                   if qual not in exempt and not is_passed(called, position, keyword))
    assert never == []


def test_exception_types_are_caught_by_the_program():
    # every exception class the package defines is named in some except
    # clause of the program, so none is a distinction only tests draw
    package, paths = _program_sources()
    defined = set()
    for name in MODULES:
        module = importlib.import_module(f"grainflow.{name}")
        defined |= {n for n, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    caught = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {getattr(t, "id", getattr(t, "attr", None)) for t in types}
    assert sorted(defined - caught) == []
