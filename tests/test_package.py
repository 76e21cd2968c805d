"""Package surface: every exported name resolves, test builders stay out,
and no source or test file imports a name it never uses."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import shadowgeom

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
