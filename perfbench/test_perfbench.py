"""Fast self-test of the benchmark's own arithmetic and gate.

    python3 -m pytest perfbench -q
"""
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from gate import KNOWN_RED, Verdict, report_body  # noqa: E402
from run import E2E_UNITS, layer_unit, pass_time  # noqa: E402
from tracing import Tracer, chain_gflop, layer_metrics, self_times, traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_of_nested_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_tracer_records_parents_and_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_t = tracer.wrap("mod.inner", inner)
    outer_t = tracer.wrap("mod.outer", lambda x: inner_t(x) + inner_t(x))
    assert outer_t(2) == 4
    with pytest.raises(ValueError):
        outer_t(-1)
    nid, parent, start, end = tracer.spans()
    names = list(tracer.ids)
    assert [names[i] for i in nid] == ["mod.outer", "mod.inner", "mod.inner",
                                              "mod.outer", "mod.inner"]
    assert parent.tolist() == [-1, 0, 0, -1, 3]
    assert np.all(end >= start)
    assert tracer.errors["mod"] == 2  # inner and outer both raised
    assert np.all(self_times(start, end, parent) >= 0)


def test_metric_names_and_units_match_contract():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == E2E_UNITS
    emitted = set(layer_metrics(Tracer())) | {"trace.overhead_s"}
    assert emitted == set(layers)
    for name, unit in layers.items():
        assert layer_unit(name) == unit
    for name in [*e2e, *layers, *(w["name"] for w in SPEC["workloads"])]:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_pass_time_is_sum_of_per_invocation_medians():
    # three passes over two invocations; a slow stretch hits one invocation
    # of each of two passes and is ignored by both medians
    passes = [[1.0, 5.0], [9.0, 2.0], [1.2, 2.2]]
    assert pass_time(passes) == pytest.approx(1.2 + 2.2)
    assert pass_time([[3.0, 4.0]]) == pytest.approx(7.0)


def _report(failing=()):
    checks = {"classical": [("harmonic-node-error-M200", False), ("gauge-split", True)],
              "hpf": [("hamilton-jacobi-residual", True)]}
    return {"experiments": {
        suite: {"checks": [{"name": n, "residual": 0.5 if ok and n not in failing else 2.0,
                            "tol": 1.0, "passed": ok and n not in failing}
                           for n, ok in cs]}
        for suite, cs in checks.items()}, "timing": {"total": 1.0}}


def test_gate_accepts_only_the_known_red():
    v = Verdict()
    v.judge("x", ["classical", "hpf"], 1, _report())
    assert v.unexpected == []
    assert (v.attempted, v.passed) == (3, 2)
    assert v.check_pass_ratio == pytest.approx(2 / 3)
    assert v.worst_margin == 0.5


def test_gate_rejects_unexpected_failure():
    v = Verdict()
    v.judge("x", ["classical", "hpf"], 1, _report(failing=("hamilton-jacobi-residual",)))
    assert len(v.unexpected) == 1 and "hamilton-jacobi-residual" in v.unexpected[0]
    assert v.check_pass_ratio == pytest.approx(1 / 3)


def test_gate_rejects_passing_red_missing_report_and_drift():
    rep = _report()
    rep["experiments"]["classical"]["checks"][0]["passed"] = True
    v = Verdict()
    v.judge("x", ["classical", "hpf"], 0, rep)
    assert any(KNOWN_RED[1] in msg for msg in v.unexpected)

    v = Verdict()
    v.judge("x", ["classical", "hpf"], 1, None)
    assert v.unexpected and v.attempted == 2 and v.check_pass_ratio == 0.0

    ref = report_body(_report())
    drifted = _report()
    drifted["experiments"]["hpf"]["checks"][0]["residual"] = 0.5000000000000001
    retimed = _report()
    retimed["timing"]["total"] = 2.0
    v = Verdict()
    v.judge("x", ["classical", "hpf"], 1, retimed, ref)
    assert v.unexpected == []
    v.judge("x", ["classical", "hpf"], 1, drifted, ref)
    assert v.mismatches == 1 and "differs" in v.unexpected[0]


def test_chain_gflop_of_tiny_scheme():
    import cqm.pathint as pathint
    from cqm.bundle import ModelParams
    from cqm.cocycle import LagrangianModel
    from cqm.qgrid import GridSpec

    model = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    # box 8, dt 1/2: the alias bound needs ceil(0.75*64/(pi/2)) = 31 points,
    # so the 8-point grid is oversampled 4x to n_int = 32
    scheme = pathint.SliceScheme(2, GridSpec(((-4.0, 4.0, 8),)), 0.0, 1.0)
    tracer = Tracer()
    original = pathint.free_kernel_exact
    with traced(tracer):
        assert pathint.free_kernel_exact is not original
        pathint.sliced_propagator(model, scheme)
    assert pathint.free_kernel_exact is original
    m = layer_metrics(tracer)
    assert m["pathint.free_kernel_exact.mentries"] == pytest.approx(32 * 32 / 1e6)
    assert m["pathint.chain.steps"] == 1
    assert chain_gflop(32, 8, 2) == pytest.approx(8 * 32 * 32 * 8 / 1e9)
    assert m["pathint.chain.gflop"] == pytest.approx(chain_gflop(32, 8, 2))
    assert m["pathint.chain.unique_ratio"] == 1.0


def test_traced_patches_names_imported_elsewhere():
    import cqm.cli
    import cqm.dressing
    from cqm.experiments import REGISTRY

    before = (cqm.cli.run_experiment, cqm.dressing.action, REGISTRY["hpf"].fn)
    with traced(Tracer()):
        during = (cqm.cli.run_experiment, cqm.dressing.action, REGISTRY["hpf"].fn)
        assert all(a is not b for a, b in zip(before, during))
    assert (cqm.cli.run_experiment, cqm.dressing.action, REGISTRY["hpf"].fn) == before
