import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cqm
from cqm import pathint
from cqm.cli import ConfigError, load_config, main, run_from_config, validate_config
from cqm.experiments import REGISTRY

MINI_MODEL = {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 2.0], "hbar": 1.0}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name, exp in REGISTRY.items():
        assert name in out
        for p in exp.params:
            assert f"    {p.name}: " in out
            assert f"default {p.default!r}" in out
    assert "laws:" in out
    assert "all:" in out


def test_registry_laws_nonempty():
    for exp in REGISTRY.values():
        assert exp.laws


def test_run_single_suite(tmp_path, capsys):
    # an undeclared key is ignored with a warning that names it
    cfg = {"model": MINI_MODEL, "experiment": "verify-cocycle", "seed": 7,
           "params": {"verify-cocycle": {"n_probes": 300, "n_probe": 5}}}
    rc = main(["run", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "verify-cocycle.n_probe ignored" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert report["experiments"]["verify-cocycle"]["passed"] is True
    assert (tmp_path / "out" / "verify-cocycle" / "residuals.csv").exists()


def test_run_unreadable_config(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_run_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", str(p)]) == 2


def test_run_negative_tolerance(tmp_path):
    # JSON true loads as a bool, which Python counts as the integer 1; no
    # suite reads a tolerance key, so a positive one is rejected as well
    for tol in (-1.0, True, 1e-3):
        cfg = {"model": MINI_MODEL, "experiment": "verify-cocycle", "seed": 1,
               "params": {"verify-cocycle": {"tol_boost": tol}}}
        assert main(["run", str(_write(tmp_path, cfg))]) == 2
        with pytest.raises(ConfigError, match="tolerances are pinned"):
            validate_config(cfg)


def test_run_bad_tol_scale(tmp_path):
    # an infinite scale passed every check, the known red included
    cfg = {"model": MINI_MODEL, "experiment": "verify-cocycle", "seed": 1}
    for flag in ("-2", "inf", "nan"):
        assert main(["run", str(_write(tmp_path, cfg)), "--tol-scale", flag]) == 2
    # 10**400 is a JSON integer literal that no float holds
    for val in (True, float("inf"), float("nan"), 10 ** 400):
        cfg["tol_scale"] = val
        assert main(["run", str(_write(tmp_path, cfg))]) == 2


def test_missing_seed_rejected():
    with pytest.raises(ConfigError):
        validate_config({"model": MINI_MODEL, "experiment": "verify-cocycle"})
    with pytest.raises(ConfigError, match="integer"):
        validate_config({"model": MINI_MODEL, "experiment": "verify-cocycle",
                         "seed": True})


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ConfigError):
        validate_config({"model": MINI_MODEL, "experiment": "nonsense", "seed": 1})
    with pytest.raises(ConfigError, match="no-such-suite"):
        validate_config({"model": MINI_MODEL, "seed": 1,
                         "params": {"no-such-suite": {"n_probes": 10}}})
    # a misspelt top-level key was ignored, and a number as out_dir crashed
    for extra, match in (({"sede": 4}, "'sede'"), ({"out_dir": 5}, "out_dir")):
        cfg = dict({"model": MINI_MODEL, "experiment": "verify-cocycle", "seed": 1},
                   **extra)
        with pytest.raises(ConfigError, match=match):
            validate_config(cfg)
        assert main(["run", str(_write(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_suite_size_params_rejected(tmp_path):
    # zero probes and a single slice crashed the suites with no report
    bad = [("verify-cocycle", "n_probes", v) for v in (0, -3, 2.0, True, "10")]
    # zero pairs or probes checked nothing and still passed
    bad += [(name, key, v) for name, key in (("classical", "n_pairs"),
                                             ("dress", "n_probes"))
            for v in (0, -3, 2.5, True)]
    bad += [("pathint", "n_slices", v) for v in (1, 0, 8.0, True, None)]
    # grid axes below 8 points crashed the pathint suite the same way
    bad += [("pathint", key, v) for key in ("n_points", "n_points_2d")
            for v in (7, 3, 0, 64.0, True)]
    # one Newton interval, or two table rows or columns, crashed their suites
    bad += [("classical", "M", v) for v in (1, 0, 200.0)]
    bad += [("hpf", key, v) for key in ("nt", "nx") for v in (2, 0, 50.0)]
    for name, key, val in bad:
        cfg = {"model": MINI_MODEL, "experiment": name, "seed": 1,
               "params": {name: {key: val}}}
        out = tmp_path / "out"
        assert main(["run", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
    for name, key, val in (("verify-cocycle", "n_probes", 1),
                           ("classical", "n_pairs", 1), ("dress", "n_probes", 1),
                           ("pathint", "n_slices", 2), ("pathint", "n_points", 8),
                           ("pathint", "n_points_2d", 8),
                           ("quantum", "n_points", 8), ("frame", "n_points", 8),
                           ("frame", "T", 0.25), ("frame", "anchor_mass", 10),
                           ("classical", "M", 2), ("hpf", "nt", 3), ("hpf", "nx", 3),
                           ("quantum", "norm_steps", 1)):
        validate_config({"model": MINI_MODEL, "experiment": name, "seed": 1,
                         "params": {name: {key: val}}})
    # a single probe is a stack of one
    for name, key in (("verify-cocycle", "n_probes"), ("classical", "n_pairs"),
                      ("dress", "n_probes")):
        cfg = {"model": MINI_MODEL, "experiment": name, "seed": 1,
               "params": {name: {key: 1}}}
        main(["run", str(_write(tmp_path, cfg)), "--out", str(tmp_path / name)])
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert len(report["experiments"][name]["checks"]) > 1


@pytest.mark.parametrize("name, key, val", [
    ("frame", "n_points", 0), ("frame", "n_points", 7), ("frame", "n_points", 9),
    ("quantum", "n_points", 0), ("quantum", "n_points", 7),
    ("frame", "T", 0), ("frame", "T", -1), ("frame", "anchor_mass", 0),
    ("frame", "T", float("inf")), ("frame", "anchor_mass", float("nan")),
    ("quantum", "norm_steps", -5), ("quantum", "norm_steps", 0),
    pytest.param("frame", "T", 10 ** 400, id="frame-T-int-beyond-float"),
])
def test_frame_and_quantum_params_rejected(tmp_path, name, key, val):
    # each crashed its suite with "run failed" and exit 1, or (zero norm
    # steps) checked nothing and passed
    cfg = {"model": MINI_MODEL, "experiment": name, "seed": 1,
           "params": {name: {key: val}}}
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


def test_bad_model_rejected(tmp_path):
    inf = float("inf")
    for change in ({"n_particles": 0, "masses": []},
                   {"n_particles": 2.7},
                   {"n_particles": True},
                   {"spatial_dim": 1.0},
                   {"spatial_dim": False},
                   {"hbar": inf},
                   {"hbar": float("nan")},
                   {"masses": [1.0, inf]},
                   {"masses": [1.0, -2.0]},
                   {"hbar": True},
                   {"hbar": "1.5"},
                   {"masses": [True, 2.0]},
                   {"masses": [1.0, "2"]},
                   {"masses": [1.0, 10 ** 400]},
                   {"hbar_": 3.0},
                   {"mass": [1.0, 2.0]}):
        cfg = {"model": dict(MINI_MODEL, **change), "seed": 1}
        with pytest.raises(ConfigError):
            validate_config(cfg)
        path = _write(tmp_path, cfg)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_classical_suite_documents_known_red(tmp_path):
    # the M=200 analytic-match check sits below the second-order
    # discretisation floor (1.44e-6 > 1e-6) and is expected to fail
    cfg = {"model": MINI_MODEL, "experiment": "classical", "seed": 3,
           "params": {"classical": {"n_pairs": 5}}}
    rc = main(["run", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    failing = [c["name"] for c in report["experiments"]["classical"]["checks"]
               if not c["passed"]]
    assert failing == ["harmonic-node-error-M200"]


def test_tol_scale_loosens(tmp_path):
    cfg = {"model": MINI_MODEL, "experiment": "classical", "seed": 3,
           "params": {"classical": {"n_pairs": 5}}}
    rc = main(["run", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o2"),
               "--tol-scale", "10"])
    assert rc == 0


def test_seed_override(tmp_path):
    cfg = {"model": MINI_MODEL, "experiment": "verify-cocycle", "seed": 7,
           "params": {"verify-cocycle": {"n_probes": 100}}}
    r1 = run_from_config(load_config(_write(tmp_path, dict(cfg, seed=11))), None)
    r2 = run_from_config(load_config(_write(tmp_path, dict(cfg, seed=12))), None)
    c1 = r1["experiments"]["verify-cocycle"]["checks"][0]["residual"]
    c2 = r2["experiments"]["verify-cocycle"]["checks"][0]["residual"]
    assert c1 != c2  # different probe streams


def test_gauge_field_loadable_from_config(tmp_path):
    from cqm.bundle import GaugeField
    import numpy as np

    field = GaugeField.bump(np.array([0.5, -0.3]), 0.0, 1.0, n=17)
    cfg = {"model": MINI_MODEL, "experiment": "classical", "seed": 5,
           "params": {"classical": {"n_pairs": 3,
                                    "gauge_field": field.to_dict()}}}
    rep = run_from_config(cfg, None)
    names = [c["name"] for c in rep["experiments"]["classical"]["checks"]]
    assert "gauge-split-configured-field" in names
    check = next(c for c in rep["experiments"]["classical"]["checks"]
                 if c["name"] == "gauge-split-configured-field")
    assert check["passed"]
    # a field the loader cannot build is a config error, not a crashed suite;
    # an infinite sample overflowed the actions to NaN, which passed
    for bad in ({"times": [0, 1]}, [0.5], None,
                {"times": [0, 1], "values": [[1], [float("inf")]]},
                {"times": [0, float("nan")], "values": [[1], [0]]},
                {"times": [0.0, "1.0"], "values": [[1], [0]]},
                {"times": [0, 1], "values": [[True], [0]]},
                {"times": [0, 1], "values": [[1], ["0"]]},
                {"times": [False, 1], "values": [[1], [0]]}):
        cfg["params"]["classical"]["gauge_field"] = bad
        with pytest.raises(ConfigError, match="gauge_field"):
            validate_config(cfg)


def test_infinite_gauge_field_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, {"model": MINI_MODEL, "experiment": "classical", "seed": 1,
                            "params": {"classical": {"gauge_field": {
                                "times": [0, 1], "values": [[1], [float("inf")]]}}}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "samples must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suite, module, func, names", [
    ("verify-cocycle", "cocycle", "path_cocycle",
     ["phase-composition", "phase-unit-modulus"]),
    ("classical", "cocycle", "path_cocycle", ["boost-boundary-term"]),
    ("classical", "classical", "action_gauge_split", ["gauge-split-configured-field"]),
    ("dress", "dressing", "dressed_action",
     ["external-shift-invariance", "gauge-substitution-rule"]),
])
def test_nan_residual_fails_its_check(monkeypatch, suite, module, func, names):
    # Python's max(0.0, nan) is 0.0: a probe evaluating to NaN passed these
    import importlib

    import numpy as np

    from cqm.bundle import GaugeField, ModelParams
    from cqm.experiments import run_experiment

    mod = importlib.import_module(f"cqm.{module}")
    real = getattr(mod, func)

    def poisoned(model, *args):
        out = real(model, *args)
        if func == "path_cocycle":
            return mod.CocycleAccumulator.from_value(np.nan * out.real_value,
                                                     model.params.hbar)
        return np.nan * out

    monkeypatch.setattr(mod, func, poisoned)
    field = GaugeField.bump(np.array([0.5, -0.3]), 0.0, 1.0, n=17)
    params = {"n_probes": 100, "n_pairs": 2, "M": 20, "gauge_field": field.to_dict()}
    model = ModelParams(2, 1, np.array([1.0, 2.0]))
    # each suite reads only the keys it declares
    checks = {c.name: c for c in run_experiment(suite, model, params, 3, None)}
    for name in names:
        assert np.isnan(checks[name].residual)
        assert not checks[name].passed


def test_nan_residual_written_as_null(tmp_path, monkeypatch, capsys):
    import numpy as np

    from cqm import cocycle

    real = cocycle.path_cocycle

    def poisoned(model, *args):
        out = real(model, *args)
        return cocycle.CocycleAccumulator.from_value(np.nan * out.real_value,
                                                     model.params.hbar)

    monkeypatch.setattr(cocycle, "path_cocycle", poisoned)
    cfg = {"model": MINI_MODEL, "experiment": "verify-cocycle", "seed": 7,
           "params": {"verify-cocycle": {"n_probes": 100}}}
    rc = main(["run", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "FAIL verify-cocycle/phase-composition: residual nan" in capsys.readouterr().out

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = (tmp_path / "out" / "report.json").read_text()
    checks = {c["name"]: c for c in json.loads(text, parse_constant=reject)
              ["experiments"]["verify-cocycle"]["checks"]}
    assert checks["phase-composition"]["residual"] is None
    assert checks["phase-composition"]["passed"] is False


def test_report_determinism_single_suite(tmp_path):
    cfg = {"model": MINI_MODEL, "experiment": "dress", "seed": 21,
           "params": {"dress": {"n_probes": 10}}}
    reports = []
    for _ in range(2):
        rep = run_from_config(json.loads(json.dumps(cfg)), None)
        rep.pop("timing")
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]


def test_environment_recorded_under_timing(monkeypatch):
    cfg = {"model": MINI_MODEL, "experiment": "pathint", "seed": 9,
           "params": {"pathint": {"n_points": 64, "n_points_2d": 32}}}
    bodies = []
    for threads in (1, 3):
        monkeypatch.setattr(pathint, "_chain_threads", lambda: threads)
        rep = run_from_config(json.loads(json.dumps(cfg)), None)
        env = rep["timing"]["environment"]
        assert env["chain_threads"] == threads
        assert env["numpy"] == np.__version__
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS"}
        assert {"python", "affinity"} <= set(env)
        rep.pop("timing")
        bodies.append(json.dumps(rep, sort_keys=True))
    assert bodies[0] == bodies[1]


def test_pathint_suite_reports_kernel_check(tmp_path):
    # reduced 2-d grid keeps this quick; the kernel check itself runs at the
    # reference resolution (the 2-d fidelity check needs >= ~192 points and is
    # not asserted here)
    cfg = {"model": MINI_MODEL, "experiment": "pathint", "seed": 9,
           "params": {"pathint": {"n_points_2d": 64}}}
    rep = run_from_config(cfg, None)
    checks = {c["name"]: c for c in rep["experiments"]["pathint"]["checks"]}
    assert checks["kernel-vs-analytic"]["tol"] == 1e-2
    assert checks["kernel-vs-analytic"]["passed"]
    assert checks["kernel-modulus-uniformity"]["passed"]


def test_all_suites_run_at_hbar_2(tmp_path):
    # the stepped free evolutions of frame and pathint aborted this run on
    # the spectral kinetic phase bound, and no report was written
    cfg = {"model": dict(MINI_MODEL, hbar=2.0), "experiment": "all", "seed": 2}
    rc = main(["run", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    failing = [f"{name}/{c['name']}" for name, e in report["experiments"].items()
               for c in e["checks"] if not c["passed"]]
    assert failing == ["classical/harmonic-node-error-M200"]


def test_crashing_suite_is_a_failed_check(tmp_path, capsys):
    # 1024 points break quantum's fixed-step phase bound; every other suite
    # still runs and a report is written
    params = {"verify-cocycle": {"n_probes": 100}, "classical": {"n_pairs": 2, "M": 20},
              "hpf": {"nt": 8, "nx": 8}, "quantum": {"n_points": 1024, "norm_steps": 10},
              "dress": {"n_probes": 2}, "frame": {"n_points": 32},
              "pathint": {"n_points": 64, "n_points_2d": 16}}
    cfg = {"model": MINI_MODEL, "experiment": "all", "seed": 4, "params": params}
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, cfg)), "--out", str(out)]) == 1
    assert "FAIL quantum/suite-error: dt too large" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert set(report["experiments"]) == set(REGISTRY)
    quantum = report["experiments"]["quantum"]
    assert quantum["checks"] == [{"name": "suite-error", "law": "ValueError",
                                  "residual": 1.0, "tol": 0.0, "passed": False}]
    assert "spectral kinetic phase bound" in quantum["error"]
    for name in REGISTRY:
        if name != "quantum":
            alone = run_from_config(dict(cfg, experiment=name), None)
            assert report["experiments"][name] == alone["experiments"][name]
            assert "error" not in report["experiments"][name]


def test_all_expands_to_registry():
    from cqm.experiments import EXPERIMENT_KINDS
    assert set(EXPERIMENT_KINDS) == set(REGISTRY) | {"all"}


# every suite at a small size, so an `all` run takes about a second
SMALL_PARAMS = {"verify-cocycle": {"n_probes": 100}, "classical": {"n_pairs": 2, "M": 20},
                "hpf": {"nt": 8, "nx": 8}, "quantum": {"n_points": 64, "norm_steps": 10},
                "dress": {"n_probes": 2}, "frame": {"n_points": 32},
                "pathint": {"n_points": 64, "n_points_2d": 16}}


def _small_all(seed=6):
    return {"model": MINI_MODEL, "experiment": "all", "seed": seed,
            "params": json.loads(json.dumps(SMALL_PARAMS))}


def _body(report):
    return json.dumps({k: v for k, v in report.items() if k != "timing"},
                      sort_keys=True)


def test_concurrent_suites_give_the_serial_body(monkeypatch):
    # the suites share only the model; a short switch interval makes the
    # threads interleave often, and 3 workers are more than most CPU masks
    import sys

    bodies = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 2, 3):
            monkeypatch.setattr(pathint, "_chain_threads", lambda: workers)
            report = run_from_config(_small_all(), None)
            assert list(report["experiments"]) == list(REGISTRY)
            assert set(REGISTRY) <= set(report["timing"])
            bodies.append(_body(report))
    finally:
        sys.setswitchinterval(interval)
    assert bodies[0] == bodies[1] == bodies[2]


def test_one_worker_starts_no_thread(monkeypatch):
    import threading

    def refuse(self):
        raise AssertionError("a one-worker run started a thread")

    monkeypatch.setattr(pathint, "_chain_threads", lambda: 1)
    alive = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", refuse)
    report = run_from_config(_small_all(), None)
    assert threading.active_count() == alive
    assert all("error" not in e for e in report["experiments"].values())


def test_crash_in_a_concurrent_run(tmp_path, monkeypatch, capsys):
    from dataclasses import replace

    def crash(*args):
        raise RuntimeError("hpf crashed on purpose")

    monkeypatch.setitem(REGISTRY, "hpf", replace(REGISTRY["hpf"], fn=crash))
    monkeypatch.setattr(pathint, "_chain_threads", lambda: 1)
    serial = run_from_config(_small_all(), None)
    capsys.readouterr()
    monkeypatch.setattr(pathint, "_chain_threads", lambda: 3)
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, _small_all())), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("Traceback (most recent call last)") == 1
    assert "RuntimeError: hpf crashed on purpose" in captured.err
    assert "FAIL hpf/suite-error: hpf crashed on purpose" in captured.out
    report = json.loads((out / "report.json").read_text())
    assert report["experiments"]["hpf"]["checks"] == [
        {"name": "suite-error", "law": "RuntimeError", "residual": 1.0, "tol": 0.0,
         "passed": False}]
    assert _body(report) == _body(serial)


def test_report_body_independent_of_blas_threads(tmp_path):
    # the README config in fresh interpreters, OpenBLAS reading its thread
    # count as numpy loads; np.linalg.norm and np.vdot split their sums
    # across those threads, and the pathint residuals moved in the last digits
    cfg = _write(tmp_path, {"model": MINI_MODEL, "experiment": "all", "seed": 42,
                            "params": {"verify-cocycle": {"n_probes": 10000}}})
    src = str(Path(cqm.__file__).parents[1])
    bodies = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = tmp_path / f"blas{threads}"
        run = subprocess.run([sys.executable, "-m", "cqm.cli", "run", str(cfg),
                              "--out", str(out)], env=env, capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 1, run.stderr  # the known red check
        bodies.append(_body(json.loads((out / "report.json").read_text())))
    assert bodies[0] == bodies[1]
