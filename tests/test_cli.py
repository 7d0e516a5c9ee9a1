import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cqm
from cqm import pathint
from cqm.bundle import Config, ModelParams
from cqm.classical import hpf_table, solve_critical_path
from cqm.cli import ConfigError, load_config, main, run_from_config, validate_config
from cqm.cocycle import LagrangianModel
from cqm.experiments import (REGISTRY, _draw_stack, _harmonic_model, _path_draws,
                             _path_stack, _write_csv)
from cqm.pathint import read_kernel
from cqm.qgrid import read_wavegrid

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
        # every declared check with its law and gate
        for check, law, tol, *_ in exp.checks:
            assert f"    check {check} ({law}): residual < {tol!r}" in out
        for p in exp.params:
            assert f"    {p.name}: " in out
            assert f"default {p.default!r}" in out
    assert "residual < 1e-10, when gauge_field is set" in out
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
    # a negative seed validated, then every suite's generator raised
    with pytest.raises(ConfigError, match="non-negative integer"):
        validate_config({"model": MINI_MODEL, "experiment": "verify-cocycle",
                         "seed": -1})


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
                           ("classical", "M", 2), ("hpf", "nt", 8), ("hpf", "nx", 3),
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


def test_size_and_step_bounds():
    # a size or step count above its declared bound exits 2 before any suite
    # starts; these are checked through validation only, never run
    ints = [(name, p) for name, exp in REGISTRY.items() for p in exp.params
            if p.type is int]
    assert all(p.maximum >= p.default for _, p in ints)
    for name, p in ints:
        cfg = {"model": MINI_MODEL, "experiment": name, "seed": 1,
               "params": {name: {p.name: p.maximum}}}
        validate_config(cfg)
        cfg["params"][name][p.name] = p.maximum + 2  # stays even
        with pytest.raises(ConfigError, match=rf"{name}\.{p.name} .*\]"):
            validate_config(cfg)
    # observed: the first stepped without end, the second built 30000^2 grids
    for name, key, val in (("quantum", "norm_steps", 10 ** 22),
                           ("frame", "n_points", 30000)):
        cfg = {"model": MINI_MODEL, "experiment": name, "seed": 1,
               "params": {name: {key: val}}}
        with pytest.raises(ConfigError, match=f"{name}.{key}"):
            validate_config(cfg)


def test_classical_M_stops_below_the_el_rounding_floor(tmp_path):
    # the Euler-Lagrange residuals' rounding floor grows as M^2; both gates
    # first fail at M = 683, so the declared maximum is 500
    from cqm.experiments import run_experiment

    cfg = {"model": MINI_MODEL, "experiment": "classical", "seed": 3,
           "params": {"classical": {"M": 501}}}
    with pytest.raises(ConfigError, match=r"classical\.M .*\]"):
        validate_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    assert not (out / "report.json").exists()
    checks = {c.name: c for c in run_experiment(
        "classical", ModelParams(2, 1, np.array([1.0, 2.0])), {"M": 500}, 3, None)}
    assert checks["free-el-residual"].passed
    assert checks["harmonic-el-residual"].passed


def test_hpf_nt_starts_above_the_hamilton_jacobi_floor(tmp_path):
    # np.gradient's second-order error in t over the table's fixed time span
    # meets the 1e-6 gate of hamilton-jacobi-residual: nt 7 fails it at nx
    # 50, 301 and 1000 (1.30e-6 at 1000), so the declared minimum is 8
    from cqm.experiments import run_experiment

    cfg = {"model": MINI_MODEL, "experiment": "hpf", "seed": 3,
           "params": {"hpf": {"nt": 7}}}
    with pytest.raises(ConfigError, match=r"hpf\.nt .*\]"):
        validate_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    assert not (out / "report.json").exists()
    checks = run_experiment("hpf", ModelParams(2, 1, np.array([1.0, 2.0])),
                            {"nt": 8, "nx": 1000}, 3, None)
    assert [c.name for c in checks if not c.passed] == []


def test_quantum_n_points_stops_where_packet_spreading_can_see_the_stepper(tmp_path):
    # the step is half the phase bound on fine grids, so the spreading time
    # 2000 dt shrinks as h^2 and from about 7100 points packet-spreading
    # passes a stepper that does nothing; the declared maximum is 4096
    cfg = {"model": MINI_MODEL, "experiment": "quantum", "seed": 3,
           "params": {"quantum": {"n_points": 4097}}}
    with pytest.raises(ConfigError, match=r"quantum\.n_points .*\]"):
        validate_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


def test_packet_spreading_catches_a_no_op_stepper_at_the_maximum(monkeypatch):
    from cqm import qgrid
    from cqm.experiments import run_experiment

    n = next(p.maximum for p in REGISTRY["quantum"].params if p.name == "n_points")
    monkeypatch.setattr(qgrid, "evolve", lambda psi, H, dt, steps: psi)
    checks = {c.name: c for c in run_experiment(
        "quantum", ModelParams(2, 1, np.array([1.0, 2.0])), {"n_points": n}, 3, None)}
    assert not checks["packet-spreading"].passed


def test_documented_sizes_within_bounds():
    # every perfbench workload, and the pathint sizes of ROADMAP item 5
    import runpy

    root = Path(__file__).resolve().parents[1]
    workloads = runpy.run_path(str(root / "perfbench" / "workloads.py"))["WORKLOADS"]
    for make in workloads.values():
        for _, cfg in make(7):
            validate_config(cfg)
    validate_config({"model": MINI_MODEL, "experiment": "pathint", "seed": 3,
                     "params": {"pathint": {"n_points": 1024, "n_points_2d": 512}}})


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


def test_configured_field_check_needs_a_field():
    cfg = {"model": MINI_MODEL, "experiment": "classical", "seed": 5,
           "params": {"classical": {"n_pairs": 3, "M": 20}}}
    entry = run_from_config(cfg, None)["experiments"]["classical"]
    names = [c["name"] for c in entry["checks"]]
    assert "gauge-split-configured-field" not in names
    assert names == [check.format(M=20) for check, _, _, *needs
                     in REGISTRY["classical"].checks if not needs]


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
    # a negative override, from the command line or the file, exits 2
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, cfg)), "--seed", "-1",
                 "--out", str(out)]) == 2
    assert main(["run", str(_write(tmp_path, dict(cfg, seed=-1))),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_gauge_field_loadable_from_config(tmp_path):
    from cqm.bundle import GaugeField
    import numpy as np

    field = GaugeField.sine_modes([[0.5, -0.3]], 0.0, 1.0, n=17)
    cfg = {"model": MINI_MODEL, "experiment": "classical", "seed": 5,
           "params": {"classical": {"n_pairs": 3,
                                    "gauge_field": field.to_dict()}}}
    rep = run_from_config(cfg, None)
    names = [c["name"] for c in rep["experiments"]["classical"]["checks"]]
    # reported in its declared place, second
    assert names[:3] == ["gauge-split", "gauge-split-configured-field",
                         "boost-boundary-term"]
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
                {"times": [False, 1], "values": [[1], [0]]},
                # an unknown key was ignored, and a true support bound read as 1.0
                {"times": [0, 1], "values": [[0], [0]], "extra": 1},
                {"times": [0, 1], "values": [[0], [0]], "support": [0, True]},
                {"times": [0, 1], "values": [[0], [0]], "support": [0, 1, 2]},
                # a stack of fields is not one configured field
                {"times": [0, 1], "values": [[[0], [0]], [[0], [0]]]}):
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


@pytest.mark.parametrize("via", ["--out", "out_dir"])
@pytest.mark.parametrize("under", [False, True])
def test_uncreatable_out_dir_exits_2(tmp_path, capsys, via, under):
    # an existing file, or a path under one: one config error line, no suite runs
    blocker = tmp_path / "taken"
    blocker.write_text("")
    target = blocker / "sub" if under else blocker
    cfg = {"model": MINI_MODEL, "experiment": "verify-cocycle", "seed": 7,
           "params": {"verify-cocycle": {"n_probes": 10}}}
    argv = ["run"]
    if via == "out_dir":
        cfg["out_dir"] = str(target)
    else:
        argv += ["--out", str(target)]
    assert main(argv[:1] + [str(_write(tmp_path, cfg))] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot create output directory")
    assert captured.err.count("\n") == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize("field", ["amplitudes", "t"])
def test_quantum_read_back_mismatch_is_a_suite_error(tmp_path, monkeypatch, field):
    # the packet.cqmw round trip is an explicit check, so `python -O` keeps it
    from dataclasses import replace

    from cqm import qgrid

    real = qgrid.read_wavegrid

    def perturbed(fname):
        back = real(fname)
        if field == "t":
            return replace(back, t=back.t + 1e-12)
        return replace(back, amplitudes=back.amplitudes * (1 + 1e-15))

    monkeypatch.setattr(qgrid, "read_wavegrid", perturbed)
    cfg = {"model": MINI_MODEL, "experiment": "quantum", "seed": 5,
           "params": {"quantum": {"n_points": 64, "norm_steps": 10}}}
    quantum = run_from_config(cfg, tmp_path / "out")["experiments"]["quantum"]
    assert quantum["checks"] == [{"name": "suite-error", "law": "RuntimeError",
                                  "residual": 1.0, "tol": 0.0, "passed": False}]
    assert quantum["error"] == "packet.cqmw does not read back as written"


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
    field = GaugeField.sine_modes([[0.5, -0.3]], 0.0, 1.0, n=17)
    params = {"n_probes": 100, "n_pairs": 2, "M": 20, "gauge_field": field.to_dict()}
    model = ModelParams(2, 1, np.array([1.0, 2.0]))
    # each suite reads only the keys it declares
    checks = {c.name: c for c in run_experiment(suite, model, params, 3, None)}
    for name in names:
        assert np.isnan(checks[name].residual)
        assert not checks[name].passed


def _pathint_perturbations():
    from dataclasses import replace

    def split(real):
        return lambda kernel: real(replace(kernel, mass=kernel.mass * 1.001))

    def exact(real):
        return lambda grid, T, mass, hbar: real(grid, T, mass * 1.05, hbar)

    def weight(real):
        # a sawtooth at the grid's Nyquist: the chain's oversampled grid and
        # the reporting grid the halves are composed on weigh it differently.
        # A uniform scale cannot show, because both sides of the semigroup
        # carry M - 1 weighted integrations.
        return lambda grid: real(grid) * (1 + 0.01 * (-1.0) ** np.arange(grid.shape[0]))

    return [pytest.param(func, perturb, names, id=func) for func, perturb, names in (
        ("classical_split", split, ["classical-split-uniformity"]),
        ("free_kernel_exact", exact, ["kernel-vs-analytic", "relational-kernel-mass"]),
        ("quadrature_weight", weight, ["kernel-semigroup"]))]


@pytest.mark.parametrize("func, perturb, names", _pathint_perturbations())
def test_perturbed_pathint_function_turns_its_checks_red(monkeypatch, func, perturb,
                                                         names):
    # each pathint check reaches the public function it is named for
    from cqm.experiments import run_experiment

    model = ModelParams(2, 1, np.array([1.0, 2.0]))
    params = {"n_points": 512, "n_slices": 4, "n_points_2d": 16}

    def failing():
        return {c.name for c in run_experiment("pathint", model, params, 3, None)
                if not c.passed}

    assert failing().isdisjoint(names)
    monkeypatch.setattr(pathint, func, perturb(getattr(pathint, func)))
    assert set(names) <= failing()


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
        build = np.show_config(mode="dicts")
        assert env["simd"] == build["SIMD Extensions"]
        assert env["blas"] == {key: build["Build Dependencies"]["blas"][key]
                               for key in ("name", "version")}
        json.dumps(env, allow_nan=False)
        peak = rep["timing"]["peak_rss_mib"]
        assert isinstance(peak, float) and peak > 0
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
    # 20 slices need more internal points than the chain may build; every
    # other suite still runs and a report is written
    params = {"verify-cocycle": {"n_probes": 100}, "classical": {"n_pairs": 2, "M": 20},
              "hpf": {"nt": 8, "nx": 8}, "quantum": {"n_points": 64, "norm_steps": 10},
              "dress": {"n_probes": 2}, "frame": {"n_points": 32},
              "pathint": {"n_points": 64, "n_slices": 20, "n_points_2d": 16}}
    cfg = {"model": MINI_MODEL, "experiment": "all", "seed": 4, "params": params}
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, cfg)), "--out", str(out)]) == 1
    assert ("FAIL pathint/suite-error: internal quadrature budget exceeded"
            in capsys.readouterr().out)
    report = json.loads((out / "report.json").read_text())
    assert set(report["experiments"]) == set(REGISTRY)
    pathint = report["experiments"]["pathint"]
    assert pathint["checks"] == [{"name": "suite-error", "law": "ValueError",
                                  "residual": 1.0, "tol": 0.0, "passed": False}]
    assert "internal quadrature budget" in pathint["error"]
    for name in REGISTRY:
        if name != "pathint":
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


def _table(path, header, n_rows) -> list[list[str]]:
    """The data rows of a CSV artifact, after checking its CRLF line ends,
    its header and its row count."""
    raw = path.read_bytes()
    assert raw.count(b"\n") == raw.count(b"\r\n") == 1 + n_rows
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) == 1 + n_rows
    return rows[1:]


def _columns(rows, start=0) -> np.ndarray:
    """The fields from column ``start`` on, each read with ``float``, by column."""
    return np.array([[float(v) for v in r[start:]] for r in rows]).T


def test_table_artifacts(tmp_path):
    # every CSV table of a run, read back against the data it was written from
    out = tmp_path / "out"
    report = run_from_config(_small_all(), out)
    residual = {f"{name}/{c['name']}": c["residual"]
                for name, e in report["experiments"].items() for c in e["checks"]}

    rows = _table(out / "verify-cocycle" / "residuals.csv", ["stat", "value"], 3)
    assert [r[0] for r in rows] == ["max", "mean", "p99"]
    top, mean, p99 = _columns(rows, 1)[0]
    assert top == residual["verify-cocycle/composition-identity"]
    assert mean <= top and p99 <= top

    rows = _table(out / "boost" / "boost_errors.csv", ["n", "error"], 3)
    assert [r[0] for r in rows] == ["512", "1024", "2048"]
    assert float(rows[1][1]) == residual["boost/boost-covariance-1024"]

    M = SMALL_PARAMS["classical"]["M"]
    crit = solve_critical_path(_harmonic_model(), Config(0.0, [0.0]),
                               Config(np.pi / 2, [1.0]), M, tol=1e-11)
    tau, t, x = _columns(_table(out / "classical" / "harmonic_critical_path.csv",
                                ["tau", "t", "x_1"], M + 1))
    assert np.array_equal(tau, crit.tau) and np.array_equal(t, crit.t)
    assert np.array_equal(x, crit.x[:, 0])
    assert np.abs(x - np.sin(t)).max() == residual[f"classical/harmonic-node-error-M{M}"]

    nt, nx = SMALL_PARAMS["hpf"]["nt"], SMALL_PARAMS["hpf"]["nx"]
    hpf = hpf_table(LagrangianModel(ModelParams(1, 1, np.array([1.0]))), Config(0.0, [0.0]),
                    np.linspace(10.0, 11.0, nt), np.linspace(-1.0, 1.0, nx), M=16)
    t, x, S = _columns(_table(out / "hpf" / "hpf.csv", ["t", "x", "S"], nt * nx)).reshape(3, nt, nx)
    assert np.array_equal(t, np.broadcast_to(hpf.t_grid[:, None], (nt, nx)))
    assert np.array_equal(x, np.broadcast_to(hpf.x_grid, (nt, nx)))
    assert np.array_equal(S, hpf.S)

    n = SMALL_PARAMS["quantum"]["n_points"]
    psi = read_wavegrid(out / "quantum" / "packet.cqmw")
    h = psi.spec.spacing(0)
    rows = _table(out / "quantum" / "packet_density.csv", ["axis", "x", "density"], n)
    assert {r[0] for r in rows} == {"0"}
    x, dens = _columns(rows, 1)
    assert np.array_equal(x, psi.spec.coords(0))
    assert np.array_equal(dens, np.abs(psi.amplitudes) ** 2 * psi.spec.cell_volume / h)
    assert dens.sum() * h == pytest.approx(1.0, abs=1e-10)

    n = SMALL_PARAMS["pathint"]["n_points"]
    kernel = read_kernel(out / "pathint" / "kernel.cqmk")
    rows = _table(out / "pathint" / "kernel_slices.csv", ["which", "x", "abs_K", "arg_K"], 2 * n)
    assert [r[0] for r in rows] == ["row"] * n + ["col"] * n
    x, mod, arg = _columns(rows, 1)
    slices = np.concatenate((kernel.matrix[n // 2, :], kernel.matrix[:, n // 2]))
    assert np.array_equal(x, np.tile(kernel.grid.coords(0), 2))
    assert np.array_equal(mod, np.abs(slices))
    assert np.array_equal(arg, np.log(slices).imag)
    assert np.abs(arg - np.angle(slices)).max() <= 4 * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**63, 2**63 - 1),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)), max_size=20))
def test_write_csv_round_trip(tmp_path_factory, rows):
    fname = tmp_path_factory.mktemp("csv") / "table.csv"
    floats, ints, texts = (list(c) for c in zip(*rows)) if rows else ([], [], [])
    _write_csv(fname, ["f", "i", "s"], floats, ints, texts)
    back = _table(fname, ["f", "i", "s"], len(rows))
    # float.hex tells -0.0 from 0.0 and keeps every subnormal bit
    assert [float(r[0]).hex() for r in back] == [v.hex() for v in floats]
    assert [int(r[1]) for r in back] == ints
    assert [r[2] for r in back] == texts


@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("dim", [1, 2, 6])
@pytest.mark.parametrize("k", [0, 1, 4, 8])
def test_path_stack_is_the_per_probe_draw(n, dim, k):
    # one rng.normal call gives the normals of n per-probe draws, bit for
    # bit, and leaves the generator where the loop leaves it
    for seed in (0, 3, 2**40 + 7):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        new = _path_stack(rng, n, dim, k)
        old = _draw_stack(n, lambda: (*_path_draws(ref, dim), ref.normal(size=(k, dim))))
        assert len(new) == len(old) == 3
        for a, b in zip(new, old):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state


def _reference_csv(fname, header, *columns) -> None:
    """The table writer before each value was formatted once: the csv module."""
    with open(fname, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [header, *zip(*(np.asarray(c).tolist() for c in columns), strict=True)])


_NAN_PAYLOAD = np.array([0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64).view(float)
_CSV_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, *_NAN_PAYLOAD])
_CSV_INTS = st.integers(-2**63, 2**63 - 1) | st.sampled_from([-2**63, 2**63 - 1, 0, -1])
_CSV_TEXTS = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from(',"\r\n '),
                     max_size=6)


@st.composite
def _csv_tables(draw):
    """A header and columns of floats, int64s or strings, each column drawn
    from a few values so that values repeat."""
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "str"]), max_size=4))
    header = draw(st.lists(_CSV_TEXTS, min_size=len(kinds), max_size=len(kinds)))
    columns = []
    for kind in kinds:
        pool = draw(st.lists({"float": _CSV_FLOATS, "int": _CSV_INTS, "str": _CSV_TEXTS}[kind],
                             min_size=1, max_size=4))
        column = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
        columns.append({"float": lambda c: np.array(c, dtype=float),
                        "int": lambda c: np.array(c, dtype=np.int64),
                        "str": list}[kind](column))
    return header, columns


@settings(max_examples=300, deadline=None)
@given(table=_csv_tables())
def test_write_csv_is_the_csv_module(tmp_path_factory, table):
    header, columns = table
    folder = tmp_path_factory.mktemp("csv")
    _write_csv(folder / "new.csv", header, *columns)
    _reference_csv(folder / "old.csv", header, *columns)
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "table.csv", ["a", "b"], [1.0, 2.0], [3.0])


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


def test_all_run_keeps_pathint_on_the_calling_thread(monkeypatch):
    # pathint's large matrices stay in the calling thread's malloc arena; two
    # workers whatever the CPU mask
    import threading
    from dataclasses import replace

    threads = {}

    def recording(name, fn):
        def run(*args):
            threads[name] = threading.get_ident()
            return fn(*args)
        return run

    for name, exp in list(REGISTRY.items()):
        monkeypatch.setitem(REGISTRY, name, replace(exp, fn=recording(name, exp.fn)))
    monkeypatch.setattr(pathint, "_chain_threads", lambda: 2)
    report = run_from_config(_small_all(), None)
    assert set(threads) == set(REGISTRY)
    assert threads.pop("pathint") == threading.get_ident()
    assert threading.get_ident() not in threads.values()
    monkeypatch.setattr(pathint, "_chain_threads", lambda: 1)
    assert _body(report) == _body(run_from_config(_small_all(), None))


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


@pytest.mark.parametrize("change, culprit", [("extra", "undeclared-check"),
                                             ("missing", "static-endpoint-action")])
def test_suite_returning_other_checks_is_a_suite_error(monkeypatch, change, culprit):
    from dataclasses import replace

    real = REGISTRY["hpf"].fn

    def altered(*args):
        residuals = real(*args)
        if change == "extra":
            residuals[culprit] = 0.0
        else:
            del residuals[culprit]
        return residuals

    monkeypatch.setattr(pathint, "_chain_threads", lambda: 1)
    intact = run_from_config(_small_all(), None)["experiments"]
    monkeypatch.setitem(REGISTRY, "hpf", replace(REGISTRY["hpf"], fn=altered))
    report = run_from_config(_small_all(), None)["experiments"]
    entry = report.pop("hpf")
    assert [c["name"] for c in entry["checks"]] == ["suite-error"]
    assert entry["checks"][0]["law"] == "ValueError"
    assert "'hpf'" in entry["error"] and culprit in entry["error"]
    # the other suites of the run are unaffected
    del intact["hpf"]
    assert report == intact


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


@pytest.mark.parametrize("n_points", [1010, 1024])
def test_quantum_step_follows_a_fine_grid(n_points):
    # a fixed 1e-3 step broke the spectral phase bound from about 1010 points
    cfg = {"model": MINI_MODEL, "experiment": "quantum", "seed": 3,
           "params": {"quantum": {"n_points": n_points, "norm_steps": 100}}}
    quantum = run_from_config(cfg, None)["experiments"]["quantum"]
    assert "error" not in quantum
    assert [c["name"] for c in quantum["checks"]] == [
        name for name, *_ in REGISTRY["quantum"].checks]
    assert all(c["passed"] for c in quantum["checks"])
