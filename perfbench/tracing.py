"""Per-layer spans recorded from outside the program.

`traced(tracer)` wraps the public functions of each `cqm` module and patches
every name through which the program looks them up: the defining module's
globals, every other `cqm` module that imported the function by name (the
`cli` module imports `run_experiment`, `dressing` imports `action`, ...), the
package namespace, the suite functions held in `experiments.REGISTRY`, and a
few methods.  Nothing under `src/` changes.  Spans (name, start, end, parent)
go into flat arrays in memory; the per-layer metrics are derived from them
after the pass.

The program is synchronous single-process Python: no layer waits on another,
so there is no wait time to record, only busy (self) time and work counts.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("bundle", "cocycle", "classical", "dressing", "qgrid", "pathint",
          "experiments", "cli")
# In `cli` only the entry point is wrapped, so `cli.main.self_s` covers the
# config I/O, validation, report assembly and report write.
WRAP_ONLY = {"cli": ("main",)}
METHODS = (("bundle", "GaugeField", "value_at"),)
SUITES = ("verify-cocycle", "classical", "hpf", "quantum", "boost", "dress",
          "frame", "pathint")

WAIT_NOTE = ("cqm is synchronous single-process Python: no layer waits on "
             "another, so no wait time is recorded")


def _sliced_info(a: dict) -> dict:
    model, scheme = a["model"], a["scheme"]
    mass = a["mass"]
    if mass is None:
        mass = float(model.params.masses[0])
    hbar = float(model.params.hbar)
    return {"key": (float(mass), scheme.dt, scheme.n_slices, scheme.grid.axes, hbar),
            "M": scheme.n_slices, "n_out": scheme.grid.shape[0]}


# Arguments recorded for the spans whose work counts are computed from them.
CAPTURE = {
    "pathint.free_kernel_exact": lambda a: {"n": a["grid"].shape[0]},
    "pathint.sliced_propagator": _sliced_info,
    "qgrid.evolve": lambda a: {"point_steps": a["psi"].amplitudes.size * a["steps"]},
    "classical.hpf_table": lambda a: {"entries": len(a["t_grid"]) * len(a["x_grid"])},
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.ids: dict[str, int] = {}   # span name -> name id, in wrap order
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, dict] = {}
        self.errors: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = self.ids.setdefault(name, len(self.ids))
        module = name.split(".")[0]
        capture = CAPTURE.get(name)
        sig = inspect.signature(fn) if capture else None
        stack = self._stack

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            if capture is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.info[idx] = capture(bound.arguments)
            stack.append(idx)
            self.start[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced_call

    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start).copy(), np.frombuffer(self.end).copy())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time covered by its child spans.

    Calls are synchronous, so the children of one span never overlap and the
    covered time is the sum of their durations.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def chain_gflop(n_int: int, n_out: int, n_slices: int) -> float:
    """Dense chain work: (M-1) complex (n_int x n_int)(n_int x n_out) products.

    One complex multiply-add is 8 real flops.
    """
    return 8.0 * n_int * n_int * n_out * max(n_slices - 1, 0) / 1e9


def _public_functions(mod):
    only = WRAP_ONLY.get(mod.__name__.rsplit(".", 1)[-1])
    for attr, val in vars(mod).items():
        if attr.startswith("_") or not inspect.isfunction(val):
            continue
        if val.__module__ != mod.__name__ or (only and attr not in only):
            continue
        yield attr, val


@contextmanager
def traced(tracer: Tracer):
    """Patch every lookup of every public `cqm` function to record spans."""
    import cqm.cli  # noqa: F401  (loads every layer)

    holders = [m for n, m in list(sys.modules.items())
               if n == "cqm" or n.startswith("cqm.")]
    registry = sys.modules["cqm.experiments"].REGISTRY
    saved = dict(registry)
    undo = []
    try:
        for layer in LAYERS:
            mod = sys.modules[f"cqm.{layer}"]
            for attr, fn in list(_public_functions(mod)):
                wrapped = tracer.wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for name, val in list(vars(holder).items()):
                        if val is fn:
                            undo.append((holder, name, fn))
                            setattr(holder, name, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"cqm.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            undo.append((cls, meth, fn))
            setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", fn))
        for name, exp in saved.items():
            registry[name] = dataclasses.replace(
                exp, fn=tracer.wrap(f"experiments.{name}", exp.fn))
        yield tracer
    finally:
        registry.update(saved)
        for holder, name, fn in reversed(undo):
            setattr(holder, name, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (seconds are per pass)."""
    nid, parent, start, end = tracer.spans()
    self_s = self_times(start, end, parent)
    dur = end - start
    ids = tracer.ids

    def sel(name):
        return nid == ids[name] if name in ids else np.zeros(nid.size, bool)

    def calls(name):
        return float(np.count_nonzero(sel(name)))

    def self_sum(name):
        return float(self_s[sel(name)].sum())

    def incl_sum(name):
        return float(dur[sel(name)].sum())

    def info_sum(name, key):
        return float(sum(tracer.info[i][key] for i in np.flatnonzero(sel(name))))

    m: dict[str, float] = {}
    for suite in SUITES:
        m[f"experiments.{suite}.s"] = incl_sum(f"experiments.{suite}")
    m["cli.main.self_s"] = self_sum("cli.main")

    # pathint: the chain's inner size is the grid of the one-step kernel
    # built inside each sliced_propagator call
    n_int_of: dict[int, int] = {}
    mentries = 0.0
    kernel_mib = 0.0
    for i in np.flatnonzero(sel("pathint.free_kernel_exact")):
        n = tracer.info[i]["n"]
        mentries += n * n / 1e6
        kernel_mib = max(kernel_mib, n * n * 16 / 2 ** 20)
        n_int_of[int(parent[i])] = n
    steps = gflop = 0.0
    keys = set()
    chains = np.flatnonzero(sel("pathint.sliced_propagator"))
    for i in chains:
        inf = tracer.info[i]
        keys.add(inf["key"])
        if inf["M"] > 1:
            steps += inf["M"] - 1
            gflop += chain_gflop(n_int_of.get(int(i), 0), inf["n_out"], inf["M"])
    sp_self = self_sum("pathint.sliced_propagator")
    m.update({
        "pathint.sliced_propagator.calls": float(chains.size),
        "pathint.sliced_propagator.self_s": sp_self,
        "pathint.free_kernel_exact.calls": calls("pathint.free_kernel_exact"),
        "pathint.free_kernel_exact.self_s": self_sum("pathint.free_kernel_exact"),
        "pathint.free_kernel_exact.mentries": mentries,
        "pathint.relational_propagator.calls": calls("pathint.relational_propagator"),
        "pathint.compose_kernels.self_s": self_sum("pathint.compose_kernels"),
        "pathint.classical_split.self_s": self_sum("pathint.classical_split"),
        "pathint.propagate_wavefunction.self_s": self_sum("pathint.propagate_wavefunction"),
        "pathint.write_kernel.self_s": self_sum("pathint.write_kernel"),
        "pathint.chain.steps": steps,
        "pathint.chain.gflop": gflop,
        "pathint.chain.gflop_per_s": gflop / sp_self if sp_self > 0 else 0.0,
        "pathint.chain.unique_ratio": len(keys) / chains.size if chains.size else 0.0,
        "pathint.kernel_mib_max": kernel_mib,
    })

    ev_self = self_sum("qgrid.evolve")
    point_steps = info_sum("qgrid.evolve", "point_steps")
    m.update({
        "qgrid.evolve.calls": calls("qgrid.evolve"),
        "qgrid.evolve.self_s": ev_self,
        "qgrid.evolve.point_steps": point_steps,
        "qgrid.evolve.ns_per_point_step": 1e9 * ev_self / point_steps if point_steps else 0.0,
    })
    for fn in ("boost_covariance_check", "dress_wavefunction", "frame_change",
               "write_wavegrid"):
        m[f"qgrid.{fn}.self_s"] = self_sum(f"qgrid.{fn}")
    m["qgrid.momentum_apply.calls"] = calls("qgrid.momentum_apply")

    probes = calls("cocycle.cocycle_property_residual")
    probe_s = incl_sum("cocycle.cocycle_property_residual")
    for fn in ("cocycle_property_residual", "cocycle_density", "path_cocycle"):
        m[f"cocycle.{fn}.calls"] = calls(f"cocycle.{fn}")
        m[f"cocycle.{fn}.self_s"] = self_sum(f"cocycle.{fn}")
    for fn in ("pointwise_cocycle", "linear_cocycle"):
        m[f"cocycle.{fn}.calls"] = calls(f"cocycle.{fn}")
    m["cocycle.probes_per_s"] = probes / probe_s if probe_s > 0 else 0.0

    for fn in ("solve_critical_path", "hpf_table", "action"):
        m[f"classical.{fn}.calls"] = calls(f"classical.{fn}")
        m[f"classical.{fn}.self_s"] = self_sum(f"classical.{fn}")
    m["classical.hpf_table.entries"] = info_sum("classical.hpf_table", "entries")
    m["classical.el_residual.self_s"] = self_sum("classical.el_residual")

    m["dressing.identity_suite.calls"] = calls("dressing.identity_suite")
    m["dressing.identity_suite.self_s"] = self_sum("dressing.identity_suite")
    m["dressing.dress_path.calls"] = calls("dressing.dress_path")
    m["dressing.dressed_critical_path.self_s"] = self_sum("dressing.dressed_critical_path")

    for fn in ("right_action", "GaugeField.value_at"):
        m[f"bundle.{fn}.calls"] = calls(f"bundle.{fn}")
        m[f"bundle.{fn}.self_s"] = self_sum(f"bundle.{fn}")

    for layer in LAYERS:
        m[f"{layer}.errors"] = float(tracer.errors[layer])
    return m


def top_self_times(tracer: Tracer, k: int = 12) -> list[tuple[str, float, int]]:
    """The k span names with the largest summed self time: (name, s, calls)."""
    nid, parent, start, end = tracer.spans()
    self_s = self_times(start, end, parent)
    names = list(tracer.ids)
    tot = np.bincount(nid, weights=self_s, minlength=len(names))
    cnt = np.bincount(nid, minlength=len(names))
    order = np.argsort(tot)[::-1][:k]
    return [(names[i], float(tot[i]), int(cnt[i])) for i in order]
