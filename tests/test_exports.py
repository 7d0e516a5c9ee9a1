import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cqm

MODULES = sorted(m.name for m in pkgutil.iter_modules(cqm.__path__, "cqm."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_cli_import_leaves_scipy_and_the_thread_pool_unloaded():
    # setup_s rests on these loading at first use: scipy inside the Newton
    # solve and the chain, concurrent.futures inside a banded chain
    src = str(Path(cqm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, cqm.cli; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
