import copy
import json
import runpy
from pathlib import Path

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
