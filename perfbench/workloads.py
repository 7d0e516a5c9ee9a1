"""Workload definitions: each workload is a list of `cqm run` configs.

A workload seed becomes the config seed, so the probe streams (and nothing
else) change with it; the amount of work per pass is the same for every seed.
"""
from __future__ import annotations

MODEL = {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 2.0], "hbar": 1.0}

# One single-suite run per suite except `pathint`, each sized up from its
# default so per-call Python work dominates, but kept to about a second so a
# run repeats every invocation several times.  `classical.M` stays 200 (the
# documented red check keeps showing) and `quantum.norm_steps` stays at 10000
# (at 40000 `norm-drift` exceeds its 1e-12 gate through accumulated rounding).
# `frame` needs about 0.3 steps per grid point: 512 points in 50 steps fail
# the spectral kinetic phase bound.
PROBE_HEAVY = {
    "verify-cocycle": {"n_probes": 15000},
    "classical": {"n_pairs": 1000},
    "hpf": {"nt": 70, "nx": 70},
    "dress": {"n_probes": 200},
    "quantum": {"norm_steps": 10000},
    "frame": {"n_points": 384, "steps": 120},
    "boost": {},
}


def _config(experiment: str, seed: int, params: dict | None = None) -> dict:
    cfg = {"model": dict(MODEL), "experiment": experiment, "seed": seed}
    if params:
        cfg["params"] = params
    return cfg


def default_all(seed: int) -> list[tuple[str, dict]]:
    """The README / scripts/run_suite.py config: every suite at its defaults."""
    return [("all", _config("all", seed))]


def probe_heavy(seed: int) -> list[tuple[str, dict]]:
    return [(name, _config(name, seed, {name: params} if params else None))
            for name, params in PROBE_HEAVY.items()]


def pathint_coarse(seed: int) -> list[tuple[str, dict]]:
    """Coarse slicing: oversampling factor 1 (mass 1) and 2 (mass 2).

    Run by hand only: BENCHMARK.json leaves it out to fit its time budget.
    """
    return [("pathint", _config("pathint", seed,
                                {"pathint": {"n_points": 1024, "n_slices": 4}}))]


WORKLOADS = {
    "default-all": default_all,
    "probe-heavy": probe_heavy,
    "pathint-coarse": pathint_coarse,
}

