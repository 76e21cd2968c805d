"""Package surface: every exported name resolves, test builders stay out,
no source or test file imports a name it never uses, and no private
function or class in the package is left without a reference."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil

import pytest

import shadowgeom
from shadowgeom.tolerances import Tolerances

MODULES = ["shadowgeom"] + sorted(
    f"shadowgeom.{info.name}" for info in pkgutil.iter_modules(shadowgeom.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_shape_builders_live_in_the_tests_only():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("shadowgeom.shapes")


ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/shadowgeom/*.py")) + sorted(ROOT.glob("tests/*.py"))


def _unused_imports(tree) -> list:
    """Names bound by an import and never read; `__future__` and
    `__all__` names are exempt."""
    bound, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {ast.literal_eval(e) for e in node.value.elts}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _is_abstract(body) -> bool:
    """A body that is a single `raise NotImplementedError`."""
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _unused_parameters(tree) -> list:
    """Function and lambda parameters their body never reads.

    `self` and `cls`, abstract bodies, and the `cmd_*` handlers (which
    share one signature for dispatch) are exempt.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            body, name = [node.body], "lambda"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("cmd_") or _is_abstract(node.body):
                continue
            body, name = node.body, node.name
        else:
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [f"line {node.lineno}: {name}({p.arg})" for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return found


PACKAGE_SOURCES = sorted(ROOT.glob("src/shadowgeom/*.py"))


@pytest.mark.parametrize("path", PACKAGE_SOURCES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_parameters(path):
    assert _unused_parameters(ast.parse(path.read_text(encoding="utf-8"))) == []


def _private_definitions(tree) -> dict:
    """Private (`_name`, not dunder) functions, methods and classes."""
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def test_every_private_definition_is_referenced():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE_SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [f"{path.name}:{line}: {name}" for path, tree in trees.items()
            for name, line in _private_definitions(tree).items() if name not in read] == []


def test_every_tolerance_has_a_reader():
    # a Tolerances field that no module outside tolerances.py reads is a
    # setting that changes nothing
    read = {node.attr for path in PACKAGE_SOURCES if path.name != "tolerances.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    assert [f.name for f in dataclasses.fields(Tolerances) if f.name not in read] == []


def test_rank_rule_and_svd_live_in_geometry_only():
    # the rank tolerance and the SVD are read in one module, so a change to
    # the rank rule is made in one place
    found = []
    for path in PACKAGE_SOURCES:
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("rank_tol", "svd"):
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno}: import {a.name}"
                          for a in node.names if a.name == "svd"]
    assert found == []
