"""Every module of the package exports only names it defines."""

import importlib
import pkgutil

import pytest

import yamabe

MODULES = sorted(info.name for info in pkgutil.iter_modules(yamabe.__path__))


def test_the_modules_with_exports_are_found():
    assert {"benchmarks", "example1", "geometry", "solver", "symfun"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_succeeds(name):
    module = importlib.import_module(f"yamabe.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from yamabe.{name} import *", {})
