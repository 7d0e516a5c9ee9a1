import importlib
import json
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


def _fresh_modules(code: str, prefixes: tuple[str, ...]) -> list[str]:
    """Modules under any of ``prefixes`` that ``code`` leaves loaded in a
    fresh interpreter."""
    src = str(Path(cqm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code += (f"\nimport json\nprint(json.dumps(sorted(m for m in sys.modules if "
             f"any(m == p or m.startswith(p + '.') for p in {prefixes!r}))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_cli_import_leaves_scipy_and_the_thread_pool_unloaded():
    # setup_s rests on these loading at first use: scipy inside the Newton
    # solve and the splines, concurrent.futures inside a banded chain, and
    # numpy.fft inside the first transform
    assert _fresh_modules("import sys, cqm.cli", (
        "scipy", "concurrent.futures", "numpy.fft")) == []


def test_pathint_run_loads_no_scipy_fft():
    # the chain's transforms are numpy's pocketfft gufuncs
    code = ("import sys\n"
            "from cqm.bundle import ModelParams\n"
            "from cqm.experiments import run_experiment\n"
            "run_experiment('pathint', ModelParams(2, 1, [1.0, 2.0]), "
            "{'n_points': 64, 'n_slices': 4, 'n_points_2d': 32}, 1, None)")
    assert _fresh_modules(code, ("scipy.fft",)) == []
