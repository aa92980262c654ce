"""The public surface: every name in a module's ``__all__`` exists, so no
deleted name is left behind in an export list."""

import importlib
import pkgutil

import pytest

import affopers

MODULES = ["affopers"] + [f"affopers.{m.name}"
                          for m in pkgutil.iter_modules(affopers.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, missing


def test_every_module_is_checked():
    assert {"affopers.contour", "affopers.integrate", "affopers.oper_core",
            "affopers.affine_algebra", "affopers.miura",
            "affopers.coeffs"} <= set(MODULES)
