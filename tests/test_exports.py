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
    # setup_s rests on these loading at first use or never: concurrent.futures
    # inside a banded chain, numpy.fft inside the first transform, and scipy,
    # which no module of cqm imports
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


def test_readme_run_loads_no_scipy(tmp_path):
    # the Newton solve, the principal-function spline and the boost resampler
    # are numpy kernels; scipy is only the tests' reference
    import runpy

    root = Path(__file__).resolve().parents[1]
    cfg = runpy.run_path(str(root / "scripts" / "oracle.py"),
                         run_name="oracle")["committed_configs"]()["readme-seed42"]
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    code = ("import sys\n"
            "from cqm.cli import main\n"
            f"assert main(['run', {str(tmp_path / 'config.json')!r}, '--out', "
            f"{str(tmp_path / 'out')!r}]) == 1  # the known red check\n")
    assert _fresh_modules(code, ("scipy",)) == []
    assert (tmp_path / "out" / "report.json").exists()


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_resolve(path):
    # loading a script runs its imports but not its main(): a library name
    # that a script imports and that is renamed or deleted fails here
    import runpy

    assert "main" in runpy.run_path(str(path), run_name="not_main")
