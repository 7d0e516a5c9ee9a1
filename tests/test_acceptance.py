"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 3's harmonic
node comparison is a known red: any path whose central-difference
Euler-Lagrange residual is below 1e-8 coincides with the discrete solution of
the second-order scheme, and at M=200 on [0, pi/2] that solution deviates
from sin t by 1.442e-6, above the 1e-6 gate.  The check is asserted as
specified rather than loosened.
"""
import json
import time

import numpy as np
import pytest

from cqm.bundle import Config, GaugeField, ModelParams
from cqm.classical import (DiscretePath, action, action_gauge_split,
                           action_gauge_transformed, el_residual,
                           flat_connection, flat_connection_curl, free_hpf,
                           hpf_table, shift_path_nodes, solve_critical_path)
from cqm.cli import run_from_config
from cqm.cocycle import (LagrangianModel, cocycle_property_residual,
                         path_cocycle, pointwise_cocycle)
from cqm.dressing import (dress_path, dressed_critical_path, frame_shift,
                          identity_suite)
from cqm.pathint import (SliceScheme, classical_split, free_kernel_exact,
                         quadrature_weight, relational_propagator,
                         sliced_propagator)
from cqm.qgrid import (GridSpec, HamiltonianSpec, WaveGrid,
                       boost_covariance_check, commutator_expectation,
                       dress_wavefunction, evolve, frame_change,
                       gaussian_packet)


def _report(num: int, label: str, ok: bool, detail: str, elapsed: float,
            budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {label}: {status} ({detail}; {elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_cocycle_identity():
    t0 = time.perf_counter()
    model = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        p = Config(rng.uniform(-1, 1), rng.normal(size=2))
        v, X, Y = (rng.normal(size=2) for _ in range(3))
        res = cocycle_property_residual(model, p, v, X, Y)
        scale = (1.0 + abs(pointwise_cocycle(model, p, v, X))
                 + abs(pointwise_cocycle(model, p, v, Y)))
        worst = max(worst, res / scale)
    _report(1, "cocycle-identity", worst < 1e-10,
            f"max relative residual {worst:.2e} < 1e-10 over 10^4 probes",
            time.perf_counter() - t0, 5.0)


def test_criterion_02_action_gauge_split():
    t0 = time.perf_counter()
    model = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(100):
        t = np.linspace(0, 1, 49)
        x = rng.normal(size=(1, 2)) + np.cumsum(rng.normal(scale=0.2, size=(49, 2)), axis=0)
        path = DiscretePath.from_nodes(t, x)
        G = GaugeField.sine_modes(rng.normal(size=(4, 2)), -0.2, 1.2)
        direct = action_gauge_transformed(model, path, G)
        split = action_gauge_split(model, path, G)
        worst = max(worst, abs(direct - split) / (1.0 + abs(direct)))
    _report(2, "action-gauge-split", worst < 1e-10,
            f"max relative disagreement {worst:.2e} < 1e-10 over 100 pairs",
            time.perf_counter() - t0, 5.0)


def test_criterion_03_variational_principle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    harmonic = LagrangianModel(
        ModelParams(1, 1, np.array([1.0])),
        potential=lambda x: 0.5 * np.sum(x * x, axis=-1),
        potential_grad=lambda x: x,
        potential_hess=lambda x: np.ones(x.shape + (1,)))

    straight = solve_critical_path(free1, Config(0.0, [0.0]), Config(1.0, [1.0]), 200)
    free_node = float(np.abs(straight.x[:, 0] - straight.t).max())
    free_el = float(np.abs(el_residual(free1, straight)).max())

    crit = solve_critical_path(harmonic, Config(0.0, [0.0]),
                               Config(np.pi / 2, [1.0]), 200, tol=1e-11)
    harm_el = float(np.abs(el_residual(harmonic, crit)).max())
    harm_node = float(np.abs(crit.x[:, 0] - np.sin(crit.t)).max())

    stat = 0.0
    for path, model in ((straight, free1), (crit, harmonic)):
        for _ in range(20):
            chi = GaugeField.sine_modes(rng.normal(size=(4, 1)), path.t[0], path.t[-1])
            chin = chi.value_at(path.t)
            eps = 1e-6
            fd = (action(model, shift_path_nodes(path, eps * chin))
                  - action(model, shift_path_nodes(path, -eps * chin))) / (2 * eps)
            stat = max(stat, abs(fd))

    ok = (free_node < 1e-6 and free_el < 1e-10 and harm_el < 1e-8
          and stat < 1e-6 and harm_node < 1e-6)
    _report(3, "variational-principle", ok,
            f"free node {free_node:.1e}, free EL {free_el:.1e}, "
            f"harmonic EL {harm_el:.1e}, stationarity {stat:.1e}, "
            f"harmonic node {harm_node:.3e} (gate 1e-6; discretisation "
            f"floor 1.44e-6 at M=200, see notes)",
            time.perf_counter() - t0, 30.0)


def test_criterion_04_hpf_hamilton_jacobi():
    t0 = time.perf_counter()
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    p0 = Config(0.0, [0.0])
    t_grid = np.linspace(10.0, 11.0, 50)
    x_grid = np.linspace(-1.0, 1.0, 50)
    hpf = hpf_table(free1, p0, t_grid, x_grid, M=16)
    closed = free_hpf(free1, p0, t_grid[:, None],
                      x_grid[None, :, None] * np.ones((50, 50, 1)))
    table_err = float(np.abs(hpf.S - closed).max())
    S_t = np.gradient(hpf.S, t_grid, axis=0)
    S_x = np.gradient(hpf.S, x_grid, axis=1)
    hj = float(np.abs((S_t + 0.5 * S_x ** 2))[1:-1, 1:-1].max())
    curl = flat_connection_curl(flat_connection(hpf, 1.0))
    ok = table_err < 1e-8 and hj < 1e-6 and curl < 1e-6
    _report(4, "hpf-hamilton-jacobi", ok,
            f"table {table_err:.1e} < 1e-8, HJ {hj:.1e} < 1e-6, curl {curl:.1e} < 1e-6",
            time.perf_counter() - t0, 60.0)


def test_criterion_05_dressing_identities():
    t0 = time.perf_counter()
    model = LagrangianModel(ModelParams(3, 1, np.array([1.0, 2.0, 0.5])))
    mp = model.params
    rng = np.random.default_rng(45)
    worst = 0.0
    for _ in range(100):
        t = np.linspace(0, 1, 41)
        x = rng.normal(size=(1, 3)) + np.cumsum(rng.normal(scale=0.2, size=(41, 3)), axis=0)
        path = DiscretePath.from_nodes(t, x)
        i, j = rng.choice(3, size=2, replace=False)
        G = GaugeField.sine_modes(rng.normal(size=(4, 3)), 0.0, 1.0)
        worst = max(worst, max(identity_suite(model, path, int(i), int(j), G).values()))

    lag_worst = 0.0
    for _ in range(20):
        t = np.linspace(0, 1, 41)
        x = np.cumsum(rng.normal(scale=0.2, size=(41, 3)), axis=0)
        path = DiscretePath.from_nodes(t, x)
        i, j = 0, 2
        rel_i = dress_path(mp, path, i)
        vi = rel_i.velocities()
        z = frame_shift(mp, path, i, j)
        dz = np.diff(z, axis=0) / np.diff(t)[:, None]
        dens = (0.5 * (vi * vi) @ mp.mass_vector
                + (vi * dz + 0.5 * dz * dz) @ mp.mass_vector)
        v = path.velocities()
        target = np.zeros(len(dens))
        for k in range(3):
            dvk = v[:, k:k + 1] - v[:, j:j + 1]
            target += 0.5 * mp.masses[k] * np.sum(dvk * dvk, axis=1)
        lag_worst = max(lag_worst, float(np.abs(dens - target).max()
                                         / (1.0 + np.abs(target).max())))
    ok = worst < 1e-9 and lag_worst < 1e-12
    _report(5, "dressing-identities", ok,
            f"max identity residual {worst:.2e} < 1e-9 over 100 probes, "
            f"relational density {lag_worst:.1e} < 1e-12",
            time.perf_counter() - t0, 10.0)


def test_criterion_06_relational_variational_consistency():
    t0 = time.perf_counter()
    model = LagrangianModel(ModelParams(3, 1, np.array([1.0, 2.0, 0.5])))
    p0 = Config(0.0, [0.3, -0.2, 1.0])
    p1 = Config(1.0, [0.9, 0.4, -0.5])
    bare = solve_critical_path(model, p0, p1, 100)
    worst = 0.0
    for anchor in range(3):
        rel = dressed_critical_path(model, p0, p1, 100, anchor)
        dressed = dress_path(model.params, bare, anchor)
        worst = max(worst, float(np.abs(rel.x - dressed.x).max()))
    _report(6, "relational-variational-consistency", worst < 1e-8,
            f"max nodewise deviation {worst:.2e} < 1e-8 over all anchors",
            time.perf_counter() - t0, 10.0)


def test_criterion_07_quantum_invariants():
    t0 = time.perf_counter()
    spec = GridSpec(((-20.0, 20.0, 512),))
    H = HamiltonianSpec((1.0,))
    psi = gaussian_packet(spec, 0.0, 1.0)
    drift = abs(evolve(psi, H, 1e-3, 1000).norm() - 1.0)
    out = evolve(psi, H, 1e-3, 2000)
    x = spec.coords(0)
    dens = np.abs(out.amplitudes) ** 2 * spec.cell_volume
    var = float(np.sum(x ** 2 * dens) - np.sum(x * dens) ** 2)
    spread_err = abs(var - (1.0 + (1.0 * 2.0 / (2 * 1.0 * 1.0)) ** 2))
    comm_err = abs(commutator_expectation(psi) - 1j)
    ok = drift < 1e-12 and spread_err < 1e-4 and comm_err < 1e-8
    _report(7, "quantum-invariants", ok,
            f"norm drift {drift:.1e} < 1e-12, spreading {spread_err:.1e} < 1e-4, "
            f"commutator {comm_err:.1e} < 1e-8",
            time.perf_counter() - t0, 60.0)


def test_criterion_08_boost_covariance():
    t0 = time.perf_counter()
    H = HamiltonianSpec((1.0,))
    errs = {}
    for n in (512, 1024, 2048):
        spec = GridSpec(((-20.0, 20.0, n),))
        errs[n] = boost_covariance_check(gaussian_packet(spec, 0.0, 1.0), 1.0, 1.0, H)
    ok = errs[1024] < 1e-4 and errs[1024] < errs[512] and errs[2048] < errs[1024]
    _report(8, "boost-covariance", ok,
            f"err(1024) {errs[1024]:.1e} < 1e-4, refinement "
            f"{errs[512]:.1e} -> {errs[1024]:.1e} -> {errs[2048]:.1e}",
            time.perf_counter() - t0, 60.0)


def test_criterion_09_frame_change_unitarity():
    t0 = time.perf_counter()
    free2 = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    n = 512
    spec = GridSpec(((-20.0, 20.0, n),))
    x = spec.coords(0)
    psi = WaveGrid(spec, 0.0, np.exp(-(x - 1.5) ** 2 / 4 + 0.6j * x),
                   anchor=0).normalized()
    t = np.linspace(0, 1, 33)
    bare = DiscretePath.from_nodes(t, np.stack([0.1 * t, 0.3 + 0.4 * t], axis=1))
    rel0 = dress_path(free2.params, bare, 0)
    rel1 = dress_path(free2.params, bare, 1)
    ph01 = path_cocycle(free2, rel0, frame_shift(free2.params, bare, 0, 1))
    ph10 = path_cocycle(free2, rel1, frame_shift(free2.params, bare, 1, 0))
    swapped = frame_change(psi, 1, ph01)
    flip = (-np.arange(n)) % n
    mod_err = float(np.abs(np.abs(swapped.amplitudes)
                           - np.abs(psi.amplitudes[flip])).max())
    back = frame_change(swapped, 0, ph10)
    fid = abs(back.inner(psi)) / (back.norm() * psi.norm())
    ok = mod_err < 1e-12 and fid > 1 - 1e-8
    _report(9, "frame-change-unitarity", ok,
            f"modulus preservation {mod_err:.1e} < 1e-12, round-trip fidelity "
            f"1-{1 - fid:.1e} > 1-1e-8",
            time.perf_counter() - t0, 10.0)


def test_criterion_10_dress_evolve_commutation():
    t0 = time.perf_counter()
    n = 256
    spec2 = GridSpec(((-20.0, 20.0, n), (-20.0, 20.0, n)))
    x = spec2.coords(0)
    X0, X1 = np.meshgrid(x, x, indexing="ij")
    rel = (X1 - X0 + 20.0) % 40.0 - 20.0
    psi2 = WaveGrid(spec2, 0.0,
                    np.exp(-rel ** 2 / (4 * 2.0 ** 2) + 1j * rel)).normalized()
    # heavy anchor: the relational mass convention matches the bare relative
    # dynamics up to O(m_other/m_anchor)
    H2 = HamiltonianSpec((2000.0, 1.0))
    T, steps = 0.5, 50
    bare = evolve(psi2, H2, T / steps, steps)
    lhs = dress_wavefunction(bare, 0)
    rel0 = dress_wavefunction(psi2, 0)
    H_rel = HamiltonianSpec((1.0,), anchor=0)
    rhs = evolve(rel0, H_rel, T / steps, steps)
    err = float(np.linalg.norm(lhs.amplitudes - rhs.amplitudes)
                / np.linalg.norm(rhs.amplitudes))
    _report(10, "dress-evolve-commutation", err < 1e-3,
            f"relative L2 {err:.2e} < 1e-3 (anchor mass 2000)",
            time.perf_counter() - t0, 120.0)


def test_criterion_11_path_integral():
    t0 = time.perf_counter()
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    grid = GridSpec(((-15.0, 15.0, 512),))
    x = grid.coords(0)
    cen = np.abs(x) <= 7.5
    scheme = SliceScheme(8, grid, 0.0, 1.0)
    kernel = sliced_propagator(free1, scheme)
    exact = free_kernel_exact(grid, 1.0, 1.0, 1.0)
    Kc = kernel.matrix[np.ix_(cen, cen)]
    Ec = exact[np.ix_(cen, cen)]
    rel_err = float(np.linalg.norm(Kc - Ec) / np.linalg.norm(Ec))
    mod = np.abs(Kc)
    uni = float(mod.std() / mod.mean())
    split_dev = classical_split(kernel)["max_rel_deviation"]
    h1 = sliced_propagator(free1, SliceScheme(4, grid, 0.0, 0.5))
    h2 = sliced_propagator(free1, SliceScheme(4, grid, 0.5, 1.0))
    semi = h2.matrix @ (quadrature_weight(grid)[:, None] * h1.matrix)
    semi_err = float(np.linalg.norm((semi - kernel.matrix)[np.ix_(cen, cen)])
                     / np.linalg.norm(Kc))
    free2 = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    relk = relational_propagator(free2, scheme, anchor=0)
    exact2 = free_kernel_exact(grid, 1.0, 2.0, 1.0)
    rel2_err = float(np.linalg.norm((relk.matrix - exact2)[np.ix_(cen, cen)])
                     / np.linalg.norm(exact2[np.ix_(cen, cen)]))
    ok = (rel_err < 1e-2 and uni < 1e-3 and split_dev < 1e-3
          and semi_err < 1e-3 and rel2_err < 1e-2)
    _report(11, "path-integral", ok,
            f"kernel {rel_err:.1e} < 1e-2, |K| uniformity {uni:.1e} < 1e-3, "
            f"split {split_dev:.1e} < 1e-3, semigroup {semi_err:.1e} < 1e-3, "
            f"relational {rel2_err:.1e} < 1e-2",
            time.perf_counter() - t0, 120.0)


def test_criterion_12_determinism():
    t0 = time.perf_counter()
    cfg = {
        "model": {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 2.0],
                  "hbar": 1.0},
        "experiment": "all",
        "seed": 42,
        "params": {
            "verify-cocycle": {"n_probes": 2000},
            "classical": {"n_pairs": 25},
            "hpf": {"nt": 20, "nx": 20},
            "quantum": {"n_points": 256, "norm_steps": 200},
            "dress": {"n_probes": 25},
            "frame": {"n_points": 128},
        },
    }
    blobs = []
    for _ in range(2):
        rep = run_from_config(json.loads(json.dumps(cfg)), None)
        rep.pop("timing")
        blobs.append(json.dumps(rep, sort_keys=True).encode())
    _report(12, "report-determinism", blobs[0] == blobs[1],
            "two seeded runs of the full suite are byte-identical "
            "(timing excluded)",
            time.perf_counter() - t0, 600.0)


def test_registry_covers_required_laws():
    from cqm.experiments import REGISTRY

    required = {
        "cocycle-defining-identity", "cocycle-linearity",
        "u1-cocycle-composition", "group-action-law",
        "action-gauge-split", "boost-quasi-invariance",
        "action-infinitesimal-variation", "variational-stationarity",
        "euler-lagrange-residual", "noether-charge-conservation",
        "hamilton-principal-function", "hamilton-jacobi-equation",
        "flat-connection-closedness", "momentum-prescription",
        "schrodinger-unitarity", "packet-spreading", "canonical-commutator",
        "covariant-constancy", "meta-action-stationarity",
        "boost-wavefunction-phase", "dressed-cocycle-transformations",
        "relational-lagrangian-form", "dressing-external-invariance",
        "dressing-substitution-rule", "dressed-variational-consistency",
        "frame-change-unitarity", "relational-wavefunction",
        "relational-schrodinger", "kernel-analytic-free",
        "kernel-modulus-uniformity", "kernel-classical-split",
        "kernel-semigroup", "kernel-wave-propagation",
        "relational-kernel-mass",
    }
    covered = set()
    for exp in REGISTRY.values():
        covered.update(exp.laws)
    assert required <= covered, sorted(required - covered)
