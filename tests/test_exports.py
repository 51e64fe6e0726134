"""Every exported name resolves, so that a deletion cannot leave an export
behind."""
import importlib
import pkgutil

import pytest

import pairfunc

MODULES = sorted(info.name for info in pkgutil.iter_modules(pairfunc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"pairfunc.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import_of_the_package():
    namespace = {}
    exec("from pairfunc import *", namespace)
    assert "get_model" in namespace
