import copy
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
oracle = runpy.run_path(str(REPO / "scripts" / "oracle.py"), run_name="oracle")

MODEL = {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 2.0], "hbar": 1.0}
SMALL = {
    "verify-cocycle": {"model": MODEL, "experiment": "verify-cocycle", "seed": 5,
                       "params": {"verify-cocycle": {"n_probes": 50}}},
    "quantum": {"model": MODEL, "experiment": "quantum", "seed": 5,
                "params": {"quantum": {"n_points": 64, "norm_steps": 10}}},
}


def test_committed_config_list():
    configs = oracle["committed_configs"]()
    workloads = runpy.run_path(str(REPO / "perfbench" / "workloads.py"))
    assert {f"probe-heavy-{name}" for name in workloads["PROBE_HEAVY"]} <= set(configs)
    assert configs["readme-seed7"]["seed"] == 7
    assert configs["all-hbar0.7"]["model"]["hbar"] == 0.7


def test_oracle_same_tree_twice_agrees(tmp_path, capsys):
    first, second = (oracle["run_configs"](REPO, SMALL) for _ in range(2))
    assert oracle["diff_manifests"](first, second) == []
    entry = first["configs"]["quantum"]
    assert entry["exit"] == 0
    assert set(entry["artifacts"]) == {"quantum/packet.cqmw",
                                       "quantum/packet_density.csv"}
    assert entry["checks"]["quantum/norm-drift"][1] is True

    moved = copy.deepcopy(second)
    residual, _ = moved["configs"]["verify-cocycle"]["checks"]["verify-cocycle/phase-composition"]
    moved["configs"]["verify-cocycle"]["checks"]["verify-cocycle/phase-composition"][0] = 2 * residual
    lines = oracle["diff_manifests"](first, moved)
    assert lines == [f"verify-cocycle: verify-cocycle/phase-composition "
                     f"{residual!r} (pass) -> {2 * residual!r} (pass)"]

    paths = []
    for name, manifest in (("a", first), ("b", second), ("c", moved)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(manifest))
    capsys.readouterr()
    assert oracle["main"](["diff", str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out == "2 configs, 0 differences\n"
    assert oracle["main"](["diff", str(paths[0]), str(paths[2])]) == 1
    assert capsys.readouterr().out == "\n".join(lines + ["2 configs, 1 differences"]) + "\n"


# NPY_DISABLE_CPU_FEATURES per SIMD level: the full level, AVX2 without
# AVX-512, and the X86_V2 baseline
LEVELS = {"full": "", "X86_V3": "X86_V4 AVX512_ICL AVX512_SPR",
          "X86_V2": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


@pytest.mark.skipif(
    "X86_V4" not in np.show_config(mode="dicts")["SIMD Extensions"].get("found", []),
    reason="needs a CPU with X86_V4 (AVX-512) to compare levels")
def test_readme_config_across_simd_levels(tmp_path, monkeypatch):
    cfg = oracle["committed_configs"]()["readme-seed42"]
    entries, reports = {}, {}
    for level, features in LEVELS.items():
        monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", features)
        entries[level] = oracle["run_config"](REPO, cfg, tmp_path / level)
        reports[level] = json.loads((tmp_path / level / "out" / "report.json").read_text())
    # each child really ran at its level
    found = {level: set(report["timing"]["environment"]["simd"].get("found", []))
             for level, report in reports.items()}
    assert "X86_V4" in found["full"]
    assert "X86_V3" in found["X86_V3"] and "X86_V4" not in found["X86_V3"]
    assert "X86_V3" not in found["X86_V2"]

    # AVX2 and AVX-512 machines write the same bytes: body, residuals, artifacts
    full, v3, v2 = (entries[level] for level in LEVELS)
    assert len(full["artifacts"]) == 10
    assert oracle["diff_manifests"]({"configs": {"readme": full}},
                                    {"configs": {"readme": v3}}) == []

    # below AVX2 the verdicts and the exit code hold, and each residual stays
    # within 1e-3 of its gate
    tol = {f"{suite}/{c['name']}": c["tol"]
           for suite, e in reports["full"]["experiments"].items() for c in e["checks"]}
    assert v2["exit"] == full["exit"] == 1  # the known red check
    assert v2["checks"].keys() == full["checks"].keys()
    for name, (residual, passed) in full["checks"].items():
        assert v2["checks"][name][1] == passed, name
        assert abs(v2["checks"][name][0] - residual) <= 1e-3 * tol[name], name


@pytest.mark.skipif(
    "X86_V4" not in np.show_config(mode="dicts")["SIMD Extensions"].get("found", []),
    reason="needs a CPU with X86_V4 (AVX-512) to compare levels")
def test_probe_heavy_frame_config_across_simd_levels(tmp_path, monkeypatch):
    # the frame suite's symmetric state at 384 points went through real
    # np.exp, whose AVX-512 loop moved symmetric-state-frame-flip
    cfg = oracle["committed_configs"]()["probe-heavy-frame"]
    entries = {}
    for level in ("full", "X86_V3"):
        monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", LEVELS[level])
        entries[level] = oracle["run_config"](REPO, cfg, tmp_path / level)
    assert entries["full"]["exit"] == 0
    assert "frame/symmetric-state-frame-flip" in entries["full"]["checks"]
    assert oracle["diff_manifests"]({"configs": {"frame": entries["full"]}},
                                    {"configs": {"frame": entries["X86_V3"]}}) == []


def test_reach_lists_the_statements_no_config_executes():
    import ast
    import inspect

    from cqm import pathint, qgrid

    missed = {path.name: statements
              for path, statements in oracle["unreached"](REPO, SMALL).items()}
    assert set(missed) == {p.name for p in (REPO / "src" / "cqm").glob("*.py")}

    def first_line(fn, text):
        lines, start = inspect.getsourcelines(fn)
        return start + next(i for i, line in enumerate(lines) if text in line)

    # the quantum suite steps; neither config reaches a sliced propagator
    step = first_line(qgrid.evolve, "_apply_kinetic(")
    assert step not in missed["qgrid.py"]
    chain = first_line(pathint.sliced_propagator, "hbar = model.params.hbar")
    assert missed["pathint.py"][chain] == "hbar = model.params.hbar"

    for name, statements in missed.items():
        tree = ast.parse((REPO / "src" / "cqm" / name).read_text())
        # statements that run at import: module and class bodies
        at_import = {node.lineno for node in tree.body}
        at_import |= {node.lineno for cls in tree.body if isinstance(cls, ast.ClassDef)
                      for node in cls.body}
        assert not at_import & statements.keys(), name
        for text in statements.values():
            assert not text.startswith(("raise ", '"""')), (name, text)
