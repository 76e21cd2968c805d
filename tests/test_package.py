"""Package surface: every exported name resolves; test builders stay out."""

import importlib
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
