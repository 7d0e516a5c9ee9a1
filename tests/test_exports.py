import importlib
import pkgutil

import pytest

import cqm

MODULES = sorted(m.name for m in pkgutil.iter_modules(cqm.__path__, "cqm."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
