import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cqm

MODULES = sorted(m.name for m in pkgutil.iter_modules(cqm.__path__, "cqm."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def _env() -> dict:
    """The environment of a fresh interpreter that imports this cqm."""
    src = str(Path(cqm.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def _fresh(code: str, *args: str):
    """The JSON that ``code``, run with ``args`` in a fresh interpreter that
    imports this cqm, prints on its last line."""
    out = subprocess.run([sys.executable, "-c", code, *args], env=_env(), check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _fresh_modules(code: str, prefixes: tuple[str, ...]) -> list[str]:
    """Modules under any of ``prefixes`` that ``code`` leaves loaded in a
    fresh interpreter."""
    return _fresh(code + (
        f"\nimport json\nprint(json.dumps(sorted(m for m in sys.modules if "
        f"any(m == p or m.startswith(p + '.') for p in {prefixes!r}))))"))


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


# names that one run need not call, each with its reason
UNREACHED = {
    "pathint.read_kernel": "nothing reads a kernel back until the artifact "
                           "format records the anchor (ROADMAP item 6)",
    "bundle.ModelParams.to_dict": "the report's resolved config (ROADMAP item 7)",
    "bundle.GaugeField.to_dict": "the config round trip of a gauge field",
}

# traced in a fresh interpreter, the profiler installed before cqm is
# imported so that building REGISTRY counts: every function, dataclass
# constructor and public method or property that __all__ names, and that
# the run never called, printed as "module.qualname"
_REACH = """
import dataclasses, functools, importlib, json, sys, threading
called = set()
def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
sys.setprofile(profile)
threading.setprofile(profile)
from cqm.cli import main
rc = main(["run", sys.argv[1], "--out", sys.argv[2]])
sys.setprofile(None)
threading.setprofile(None)

def codes(owner, obj):
    if isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, functools.cached_property):
        obj = obj.func
    elif isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    if hasattr(obj, "__code__"):
        yield owner, obj.__code__
    elif isinstance(obj, type):
        if dataclasses.is_dataclass(obj):
            yield owner, obj.__init__.__code__
        for name, attr in vars(obj).items():
            if not name.startswith("_"):
                yield from codes(f"{owner}.{name}", attr)

missing = []
for module in sys.argv[3:]:
    mod = importlib.import_module(module)
    for name in mod.__all__:
        for owner, code in codes(f"{module[4:]}.{name}", getattr(mod, name)):
            if code not in called:
                missing.append(owner)
print(json.dumps({"rc": rc, "missing": sorted(missing)}))
"""


def test_one_run_reaches_every_public_name(tmp_path):
    # a check verifies a law only through the code it runs, so one small
    # `all` run with a configured gauge field calls everything exported
    field = {"times": [0.0, 0.5, 1.0], "values": [[0.0, 0.0], [0.2, -0.1], [0.0, 0.0]]}
    params = {"verify-cocycle": {"n_probes": 100},
              "classical": {"n_pairs": 2, "M": 20, "gauge_field": field},
              "hpf": {"nt": 8, "nx": 8}, "quantum": {"n_points": 64, "norm_steps": 10},
              "dress": {"n_probes": 2}, "frame": {"n_points": 32},
              "pathint": {"n_points": 64, "n_points_2d": 16}}
    cfg = {"model": {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 2.0]},
           "experiment": "all", "seed": 6, "params": params}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    result = _fresh(_REACH, str(tmp_path / "cfg.json"), str(tmp_path / "out"), *MODULES)
    assert result["rc"] == 1  # the known red check
    assert result["missing"] == sorted(UNREACHED)


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_resolve(path):
    # loading a script runs its imports but not its main(): a library name
    # that a script imports and that is renamed or deleted fails here
    import runpy

    assert "main" in runpy.run_path(str(path), run_name="not_main")


# each study's CSV header and row count: kernel_study sweeps 3 grids x 6 slice
# counts, boost_refinement 5 grids
STUDIES = {"kernel_study.py": ("n_points,n_slices,rel_l2_central,modulus_std_over_mean", 18),
           "boost_refinement.py": ("n_points,rel_l2_error", 5)}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_script_writes_its_table(tmp_path, name):
    # the studies reach private names (_write_csv, _l2) and the boost
    # resampler, which a library change can break without an import error
    header, n_rows = STUDIES[name]
    out = tmp_path / "table.csv"
    script = next(p for p in SCRIPTS if p.name == name)
    proc = subprocess.run([sys.executable, str(script), str(out)], env=_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    head, *rows = out.read_text().splitlines()
    assert head == header
    assert len(rows) == n_rows
    assert all(np.isfinite(float(v)) for row in rows for v in row.split(","))
