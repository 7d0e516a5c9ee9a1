from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqm import classical
from cqm.bundle import Config, GaugeField, ModelParams, Shift
from cqm.classical import (DiscretePath, HPFSample, action,
                           action_gauge_split, action_gauge_transformed,
                           el_residual, flat_connection, flat_connection_curl,
                           free_hpf, hpf_table, hpf_value,
                           noether_charge, shift_path_nodes,
                           solve_critical_path)
from cqm.cocycle import LagrangianModel, path_cocycle
from conftest import random_path


def test_action_straight_line(free1):
    path = DiscretePath.straight(Config(0.0, [0.0]), Config(1.0, [1.0]), 100)
    assert action(free1, path) == pytest.approx(0.5, abs=1e-12)


def test_action_static_path(free1):
    t = np.linspace(0, 1, 11)
    path = DiscretePath.from_nodes(t, np.full((11, 1), 0.7))
    assert action(free1, path) == 0.0


def test_action_reparametrization_invariance(free1):
    tau = np.linspace(0.0, 0.5, 33)
    t = 2.0 * tau
    x = np.sin(t)[:, None]
    par = DiscretePath(tau, t, x)
    dep = DiscretePath.from_nodes(t, x)
    assert abs(action(free1, par) - action(free1, dep)) < 1e-12


def test_deparametrized_is_derived(free1):
    # t == tau is read off the arrays; the time-derivative laws need it
    tau = np.linspace(0.0, 0.5, 9)
    par = DiscretePath(tau, 2.0 * tau, np.zeros((9, 1)))
    assert not par.deparametrized
    assert DiscretePath(tau, tau.copy(), np.zeros((9, 1))).deparametrized
    with pytest.raises(ValueError, match="el_residual requires a deparametrized"):
        el_residual(free1, par)
    with pytest.raises(ValueError, match="noether_charge requires a deparametrized"):
        noether_charge(free1, par, Shift(np.array([1.0])))


def test_action_degenerate_grid(free1):
    with pytest.raises(ValueError):
        DiscretePath.from_nodes([0.0, 0.0, 1.0], np.zeros((3, 1)))


def test_gauge_split_agreement(free2, rng):
    for _ in range(30):
        path = random_path(rng, 2)
        G = GaugeField.sine_modes(rng.normal(size=(4, 2)), -0.2, 1.2)
        direct = action_gauge_transformed(free2, path, G)
        split = action_gauge_split(free2, path, G)
        assert abs(direct - split) < 1e-10 * (1 + abs(direct))


def test_gauge_split_zero_field(free2, rng):
    path = random_path(rng, 2)
    G = GaugeField([0.0, 1.0], np.zeros((2, 2)))
    assert action_gauge_transformed(free2, path, G) == pytest.approx(
        action(free2, path), abs=1e-14)


def test_gauge_split_with_potential(rng):
    from cqm.bundle import ModelParams
    from cqm.cocycle import LagrangianModel

    model = LagrangianModel(
        ModelParams(2, 1, np.array([1.0, 2.0])),
        potential=lambda z: np.cos(z[..., 1] - z[..., 0]))
    for _ in range(10):
        path = random_path(rng, 2)
        G = GaugeField.sine_modes(rng.normal(size=(4, 2)), -0.2, 1.2)
        direct = action_gauge_transformed(model, path, G)
        split = action_gauge_split(model, path, G)
        assert abs(direct - split) < 1e-10 * (1 + abs(direct))


def test_critical_action_shift_is_cocycle(free1, rng):
    # gauge moves off the critical path cost exactly the cocycle integral
    crit = solve_critical_path(free1, Config(0.0, [0.0]), Config(1.0, [1.0]), 50)
    G = GaugeField.sine_modes(rng.normal(size=(4, 1)), 0.0, 1.0)
    lhs = action_gauge_transformed(free1, crit, G) - action(free1, crit)
    rhs = path_cocycle(free1, crit, G).real_value
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


def test_el_residual_straight(free1):
    path = DiscretePath.straight(Config(0.0, [0.0]), Config(1.0, [2.0]), 20)
    assert np.abs(el_residual(free1, path)).max() < 1e-12


def test_el_residual_parabola(free1):
    t = np.linspace(0, 1, 41)
    path = DiscretePath.from_nodes(t, (t ** 2)[:, None])
    res = el_residual(free1, path)
    assert np.allclose(res, 2.0, atol=1e-8)


def test_el_residual_directional_derivative(harmonic, rng):
    # d/de S[path + e*chi] = -sum <chi, residual> dt for endpoint-fixed chi
    t = np.linspace(0, 1, 81)
    path = DiscretePath.from_nodes(t, np.sin(2 * t)[:, None])
    chi = GaugeField.sine_modes(rng.normal(size=(4, 1)), 0.0, 1.0)
    chin = chi.value_at(t)
    eps = 1e-5
    fd = (action(harmonic, shift_path_nodes(path, eps * chin))
          - action(harmonic, shift_path_nodes(path, -eps * chin))) / (2 * eps)
    res = el_residual(harmonic, path)
    dt = t[1] - t[0]
    inner = -np.sum(chin[1:-1, 0] * res[:, 0]) * dt
    assert abs(fd - inner) < 1e-8 * (1 + abs(inner))


def test_el_residual_needs_three_nodes(free1):
    path = DiscretePath.from_nodes([0.0, 1.0], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        el_residual(free1, path)


def test_solve_free_straight(free1):
    crit = solve_critical_path(free1, Config(0.0, [0.0]), Config(1.0, [1.0]), 50)
    assert np.allclose(crit.x[:, 0], crit.t, atol=1e-14)
    assert action(free1, crit) == pytest.approx(0.5, abs=1e-13)


def test_solve_free_static(free1):
    crit = solve_critical_path(free1, Config(0.0, [0.4]), Config(1.0, [0.4]), 20)
    assert np.abs(crit.x - 0.4).max() == 0.0
    assert action(free1, crit) == 0.0


def test_solve_harmonic(harmonic):
    # tol sits above the M=400 rounding floor of the discrete residual
    crit = solve_critical_path(harmonic, Config(0.0, [0.0]),
                               Config(np.pi / 2, [1.0]), 400, tol=1e-10)
    assert np.abs(el_residual(harmonic, crit)).max() < 1e-10
    assert np.abs(crit.x[:, 0] - np.sin(crit.t)).max() < 1e-6
    assert abs(action(harmonic, crit)) < 1e-6


def test_solve_rejects_bad_times(free1):
    with pytest.raises(ValueError):
        solve_critical_path(free1, Config(1.0, [0.0]), Config(0.0, [1.0]), 10)


def test_richardson_orders(harmonic):
    errs_el = []
    errs_S = []
    for M in (50, 100, 200):
        t = np.linspace(0, np.pi / 2, M + 1)
        exact = DiscretePath.from_nodes(t, np.sin(t)[:, None])
        errs_el.append(np.abs(el_residual(harmonic, exact)).max())
        errs_S.append(abs(action(harmonic, exact)))
    for errs in (errs_el, errs_S):
        for k in range(2):
            assert errs[k] / errs[k + 1] == pytest.approx(4.0, rel=0.15)


def test_noether_constant_on_critical(free2):
    crit = solve_critical_path(free2, Config(0.0, [0.0, 1.0]),
                               Config(1.0, [2.0, -1.0]), 50)
    _, q = noether_charge(free2, crit, Shift(np.array([1.0, 0.5])))
    assert np.ptp(q) < 1e-12


def test_noether_static_zero(free1):
    t = np.linspace(0, 1, 11)
    path = DiscretePath.from_nodes(t, np.full((11, 1), 2.0))
    _, q = noether_charge(free1, path, Shift(np.array([1.0])))
    assert np.abs(q).max() == 0.0


def test_noether_discrete_balance(free1, rng):
    # charge differences across nodes reproduce <chi, m x''> for the free model
    path = random_path(rng, 1)
    chi = Shift(np.array([0.7]))
    t_mid, q = noether_charge(free1, path, chi)
    res = el_residual(free1, path)
    dq = np.diff(q) / np.diff(t_mid)
    assert np.abs(dq - 0.7 * res[:, 0]).max() < 1e-9 * (1 + np.abs(dq).max())


def test_hpf_value_example(free1):
    p0 = Config(0.0, [0.0])
    assert hpf_value(free1, p0, Config(1.0, [2.0]), M=16) == pytest.approx(2.0, abs=1e-12)
    assert hpf_value(free1, p0, Config(3.0, [0.0]), M=16) == 0.0


def test_hpf_table_matches_closed_form(free1):
    p0 = Config(0.0, [0.0])
    t_grid = np.linspace(10.0, 11.0, 12)
    x_grid = np.linspace(-1.0, 1.0, 9)
    hpf = hpf_table(free1, p0, t_grid, x_grid, M=8)
    expected = free_hpf(free1, p0, t_grid[:, None],
                        x_grid[None, :, None] * np.ones((12, 9, 1)))
    assert np.abs(hpf.S - expected).max() < 1e-10


def test_hpf_table_rejects_early_times(free1):
    with pytest.raises(ValueError):
        hpf_table(free1, Config(1.0, [0.0]), [0.5, 2.0], [0.0, 1.0])


def _hpf_loop(model, p0, t_grid, x_grid, M):
    return np.array([[hpf_value(model, p0, Config(tv, [xv]), M=M) for xv in x_grid]
                     for tv in t_grid])


@pytest.mark.parametrize("M", [1, 5, 8, 16, 200])
def test_free_hpf_table_equals_entry_loop(M):
    for mass, t0, x0 in [(0.7, 0.0, 0.0), (1.0, 0.3, -0.4), (2.0, -2.0, 1.7)]:
        model = LagrangianModel(ModelParams(1, 1, np.array([mass])))
        p0 = Config(t0, [x0])
        t_grid = np.linspace(t0 + 0.05, t0 + 3.0, 9)
        x_grid = np.linspace(-2.5, 2.5, 8)
        hpf = hpf_table(model, p0, t_grid, x_grid, M=M)
        assert np.array_equal(hpf.S, _hpf_loop(model, p0, t_grid, x_grid, M))


def _increasing(start, steps):
    return start + np.cumsum(steps)


@settings(max_examples=60, deadline=None)
@given(mass=st.floats(0.1, 10.0), t0=st.floats(-5.0, 5.0), x0=st.floats(-5.0, 5.0),
       M=st.integers(1, 64),
       t_steps=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=7),
       x_steps=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=8),
       x_start=st.floats(-5.0, 5.0), block_bytes=st.sampled_from([1, 1 << 20]))
def test_free_hpf_table_is_the_entry_loop(mass, t0, x0, M, t_steps, x_steps,
                                          x_start, block_bytes):
    # non-uniform grids with nt != nx, so a transposed fill cannot pass; one
    # row per block and the default blocks give the same bits
    if len(t_steps) == len(x_steps):
        x_steps = x_steps + [0.5]
    model = LagrangianModel(ModelParams(1, 1, np.array([mass])))
    p0 = Config(t0, [x0])
    t_grid = _increasing(t0, t_steps)
    x_grid = _increasing(x_start, x_steps)
    with mock.patch.object(classical, "_TABLE_BLOCK_BYTES", block_bytes):
        hpf = hpf_table(model, p0, t_grid, x_grid, M=M)
    assert hpf.S.shape == (t_grid.size, x_grid.size)
    assert np.array_equal(hpf.S, _hpf_loop(model, p0, t_grid, x_grid, M))


@pytest.mark.parametrize("p0, t_grid, x_grid, M", [
    (Config(0.0, [0.0]), [1.0, np.nan], [0.0], 8),
    (Config(0.0, [0.0]), [1.0, np.inf], [0.0], 8),
    (Config(0.0, [0.0]), [1.0], [0.0, np.nan], 8),
    (Config(0.0, [0.0]), [1.0], [-np.inf, 0.0], 8),
    (Config(1.0, [0.0]), [2.0, 1.0], [0.0], 8),
    (Config(0.0, [0.0]), [1.0], [0.0], 0),
    (Config(0.0, [0.0]), [1.0], [0.0], -1),
    (Config(1.0, [0.0]), [2.0, np.nextafter(1.0, 2.0)], [0.0], 64),
    (Config(0.0, [0.0, 0.0]), [1.0], [0.0], 8),
])
def test_free_hpf_table_rejects_what_the_entry_loop_rejects(free1, p0, t_grid, x_grid, M):
    with pytest.raises(ValueError):
        _hpf_loop(free1, p0, t_grid, x_grid, M)
    with pytest.raises(ValueError):
        hpf_table(free1, p0, t_grid, x_grid, M=M)


@pytest.mark.parametrize("t_grid, x_grid", [
    (np.full((2, 3), 2.0), [0.0, 1.0]), (2.0, [0.0]), ([2.0], 1.0), ([2.0], np.zeros((2, 2))),
])
def test_hpf_table_grids_must_be_one_dimensional(free1, harmonic, t_grid, x_grid):
    for model in (free1, harmonic):
        with pytest.raises(ValueError, match="one-dimensional"):
            hpf_table(model, Config(0.0, [0.0]), t_grid, x_grid, M=4)


def test_hpf_table_refuses_a_potential(harmonic):
    # the table is the free model's; hpf_value still solves each entry
    p0 = Config(0.2, [0.1])
    with pytest.raises(ValueError, match="free model, not one with a potential"):
        hpf_table(harmonic, p0, np.linspace(0.7, 1.3, 3), np.linspace(-0.5, 0.5, 4), M=16)
    assert np.isfinite(hpf_value(harmonic, p0, Config(1.0, [0.5]), M=16))


@pytest.mark.parametrize("M", [0, -1])
def test_paths_need_an_interval(free1, harmonic, M):
    p0, p1 = Config(0.0, [0.0]), Config(1.0, [1.0])
    with pytest.raises(ValueError):
        DiscretePath.straight(p0, p1, M)
    for model in (free1, harmonic):
        with pytest.raises(ValueError):
            solve_critical_path(model, p0, p1, M)
        with pytest.raises(ValueError):
            hpf_value(model, p0, p1, M=M)
        with pytest.raises(ValueError):
            hpf_table(model, p0, [1.0], [1.0], M=M)


def test_hamilton_jacobi_residual(free1):
    p0 = Config(0.0, [0.0])
    hpf = hpf_table(free1, p0, np.linspace(10, 11, 40), np.linspace(-1, 1, 40), M=8)
    S_t = np.gradient(hpf.S, hpf.t_grid, axis=0)
    S_x = np.gradient(hpf.S, hpf.x_grid, axis=1)
    hj = S_t + 0.5 * S_x ** 2
    assert np.abs(hj[1:-1, 1:-1]).max() < 1e-6


def test_flat_connection_momentum_and_curl(free1):
    p0 = Config(0.0, [0.0])
    hpf = hpf_table(free1, p0, np.linspace(10, 11, 25), np.linspace(-1, 1, 25), M=8)
    conn = flat_connection(hpf, free1.params.hbar)
    pi = hpf.x_grid[None, :] / hpf.t_grid[:, None]
    assert np.abs(conn.coeff_x - (-1j * pi))[1:-1, 1:-1].max() < 1e-6
    assert flat_connection_curl(conn) < 1e-6


def test_flat_connection_constant_region():
    hpf = HPFSample(0.0, np.array([0.0]), np.linspace(1, 2, 5),
                    np.linspace(-1, 1, 5), np.full((5, 5), 3.3))
    conn = flat_connection(hpf, 1.0)
    assert np.abs(conn.coeff_t).max() == 0.0
    assert np.abs(conn.coeff_x).max() == 0.0


def test_flat_connection_grid_too_small():
    hpf = HPFSample(0.0, np.array([0.0]), np.linspace(1, 2, 2),
                    np.linspace(-1, 1, 5), np.zeros((2, 5)))
    with pytest.raises(ValueError):
        flat_connection(hpf, 1.0)


def test_newton_solve_coupled_quadratic():
    # V = x.A.x/2 couples the coordinates, so the banded Hessian has entries
    # off its diagonal.  The discrete Euler-Lagrange system is linear, so one
    # Newton step with the right Hessian solves it: compare with a dense solve.
    from cqm.bundle import ModelParams
    from cqm.cocycle import LagrangianModel

    A = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.4], [-0.2, 0.4, 0.5]])
    model = LagrangianModel(ModelParams(3, 1, np.array([1.0, 2.0, 0.5])),
                            potential=lambda x: 0.5 * np.sum((x @ A) * x, axis=-1),
                            potential_grad=lambda x: x @ A,
                            potential_hess=lambda x: np.broadcast_to(A, x.shape + (3,)))
    p0, p1, M = Config(0.0, [0.2, -0.5, 1.0]), Config(1.0, [1.0, 0.3, -0.4]), 20
    crit = solve_critical_path(model, p0, p1, M, max_iter=1)

    h, mv, n = 1.0 / M, model.params.mass_vector, M - 1
    second = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    K = np.kron(second, np.diag(mv) / h) - h * np.kron(np.eye(n), A)
    rhs = np.zeros((n, 3))
    rhs[0], rhs[-1] = mv * p0.x / h, mv * p1.x / h
    inner = np.linalg.solve(K, rhs.ravel()).reshape(n, 3)
    assert np.abs(crit.x[1:-1] - inner).max() < 1e-12
    assert np.array_equal(crit.x[[0, -1]], [p0.x, p1.x])


def test_solver_reports_nonconvergence():
    from cqm.bundle import ModelParams
    from cqm.cocycle import LagrangianModel

    rough = LagrangianModel(
        ModelParams(1, 1, np.array([1.0])),
        potential=lambda x: np.cos(3 * x[..., 0]),
        potential_grad=lambda x: -3 * np.sin(3 * x),
        potential_hess=lambda x: -9 * np.cos(3 * x)[..., None])
    with pytest.raises(RuntimeError, match="did not converge|residual"):
        solve_critical_path(rough, Config(0.0, [0.0]), Config(1.0, [4.0]),
                            40, tol=1e-12, max_iter=1)


@pytest.mark.parametrize("M", [400, 1000, 10000])
def test_classical_suite_runs_past_the_rounding_floor(M):
    # from M = 400 the harmonic Newton solve stalls above tol = 1e-11, at the
    # rounding floor of its second differences, and the suite ended in
    # "variational solver did not converge"; at 1000 the floor exceeds the
    # Euler-Lagrange gates, which then fail as checks
    from cqm.experiments import run_experiment

    checks = {c.name: c for c in run_experiment(
        "classical", ModelParams(2, 1, np.array([1.0, 2.0])), {"M": M}, 3, None)}
    # the node error stays the second-order discretisation error, 1.442e-6
    # at M = 200: the solve's own error (about eps M^2) is refined away
    assert checks[f"harmonic-node-error-M{M}"].residual == pytest.approx(
        1.4421e-6 * (200 / M) ** 2, rel=1e-3)
    assert checks["harmonic-el-residual"].residual < 4 * np.finfo(float).eps * (
        M / (np.pi / 2)) ** 2
    if M == 400:
        assert all(c.passed for c in checks.values())


def _banded_form(lower, diag, upper):
    """``solve_banded``'s (l, u) and matrix for the block-tridiagonal system."""
    n, d = diag.shape[:2]
    band = 2 * d - 1
    ab = np.zeros((2 * band + 1, n * d))
    k, p, q = np.meshgrid(np.arange(n), np.arange(d), np.arange(d), indexing="ij")
    for blocks, offset in ((lower, -1), (diag, 0), (upper, 1)):
        keep = (k + offset >= 0) & (k + offset < n)
        i, j = k * d + p, (k + offset) * d + q
        ab[(band + i - j)[keep], j[keep]] = blocks[keep]
    return (band, band), ab


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 255, 1000])
def test_block_tridiagonal_solve_matches_solve_banded(rng, dim, n):
    from scipy.linalg import solve_banded

    from cqm.classical import _solve_block_tridiagonal

    lower, upper = (rng.normal(size=(n, dim, dim)) for _ in range(2))
    diag = rng.normal(size=(n, dim, dim)) + 4 * dim * np.eye(dim)
    rhs = rng.normal(size=(n, dim, 3))
    # the corner blocks outside the matrix are never read
    lower[0] = upper[-1] = np.nan
    got = _solve_block_tridiagonal(lower, diag, upper, rhs)
    lower[0] = upper[-1] = 0.0
    ref = solve_banded(*_banded_form(lower, diag, upper), rhs.reshape(n * dim, 3))
    assert np.abs(got.reshape(n * dim, 3) - ref).max() < 1e-13 * np.abs(ref).max()


def _table_grid(n, lo, hi, uniform):
    s = np.linspace(0.0, 1.0, n)
    if not uniform:
        s = s + 0.25 * np.sin(np.pi * s) * s  # monotone, clustered at the start
    return lo + (hi - lo) * s


@pytest.mark.parametrize("nt, nx", [(2, 2), (2, 6), (3, 3), (3, 9), (6, 2),
                                    (4, 4), (5, 3), (12, 17), (50, 50)])
@pytest.mark.parametrize("uniform", [True, False])
def test_hpf_spline_matches_rect_bivariate_spline(rng, nt, nx, uniform):
    from scipy.interpolate import RectBivariateSpline

    t_grid = _table_grid(nt, 1.0, 2.0, uniform)
    x_grid = _table_grid(nx, -1.0, 1.5, uniform)
    S = (np.sin(3 * t_grid)[:, None] * np.cos(2 * x_grid)
         + np.outer(t_grid, x_grid ** 2) + np.exp(x_grid / t_grid[:, None]))
    hpf = HPFSample(0.0, np.zeros(1), t_grid, x_grid, S)
    x = np.sort(np.concatenate([rng.uniform(-1.0, 1.5, 40), x_grid]))
    if min(nt, nx) < 4:
        # a cubic needs 4 points per axis: FITPACK refuses the table too
        with pytest.raises(Exception, match=r"m[xy]>k[xy]"):
            RectBivariateSpline(t_grid, x_grid, S)
        with pytest.raises(ValueError, match="at least 4 points"):
            hpf.spline(1.5, x)
        return
    ref = RectBivariateSpline(t_grid, x_grid, S)
    for t in (1.0, rng.uniform(1.0, 2.0), t_grid[nt // 2], 2.0):
        S_val, S_t, S_x = hpf.spline(t, x)
        assert np.abs(S_val - ref(t, x)[0]).max() < 1e-13
        assert np.abs(S_t - ref(t, x, dx=1)[0]).max() < 1e-11
        assert np.abs(S_x - ref(t, x, dy=1)[0]).max() < 1e-11


def test_hpf_spline_needs_four_points_per_axis():
    for n in (1, 2, 3):
        short = np.linspace(1.0, 2.0, n)
        for t_grid, x_grid in ((short, np.linspace(-1, 1, 5)),
                               (np.linspace(1, 2, 5), short)):
            hpf = HPFSample(0.0, np.zeros(1), t_grid, x_grid,
                            np.zeros((t_grid.size, x_grid.size)))
            with pytest.raises(ValueError, match=f"at least 4 points, got {n}"):
                hpf.spline(1.5, np.array([0.0]))


# configured gauge fields: none, one of the model's dimension, and a 1-D one,
# which the suite checks on a unit-mass model of its own
CONFIGURED_FIELDS = [
    None,
    {"times": [0.0, 0.25, 0.5, 0.75, 1.0],
     "values": [[0, 0], [0.3, -0.2], [0.1, 0.4], [-0.5, 0.2], [0, 0]],
     "support": [0.0, 1.0]},
    {"times": [-0.2, 0.4, 1.3], "values": [[0.0], [0.5], [-0.25]]},
]


def test_classical_suite_matches_per_path_loop():
    for field in CONFIGURED_FIELDS:
        _classical_suite_matches_per_path_loop(field)


def _classical_suite_matches_per_path_loop(field):
    # the suite evaluates its random probes as stacks; this is the loop that
    # draws and evaluates one path at a time, on the same stream
    from conftest import suite_path, suite_rng
    from cqm.cocycle import path_linear_cocycle
    from cqm.experiments import _harmonic_model, run_experiment

    mp = ModelParams(2, 1, np.array([1.0, 2.0]))
    model = LagrangianModel(mp)
    checks = {c.name: c.residual for c in run_experiment(
        "classical", mp, {"n_pairs": 20, "gauge_field": field}, 7, None)}
    rng = suite_rng("classical", 7)
    split = cfg = boost = var = stat = 0.0
    for _ in range(20):
        path = suite_path(rng, 2)
        G = GaugeField.sine_modes(rng.normal(size=(4, 2)), -0.1, 1.1)
        direct = action_gauge_transformed(model, path, G)
        split = max(split, abs(direct - action_gauge_split(model, path, G))
                    / (1.0 + abs(direct)))
    if field is not None:
        G = GaugeField.from_dict(field)
        m_cfg = model if G.dim == 2 else LagrangianModel(ModelParams(1, 1, np.ones(1)))
        for _ in range(10):
            path = suite_path(rng, G.dim)
            direct = action_gauge_transformed(m_cfg, path, G)
            cfg = max(cfg, abs(direct - action_gauge_split(m_cfg, path, G))
                      / (1.0 + abs(direct)))
        assert checks["gauge-split-configured-field"] == cfg
        assert cfg > 0
    else:
        assert "gauge-split-configured-field" not in checks
    for _ in range(20):
        path = suite_path(rng, 2)
        v = rng.normal(size=2)
        c = path_cocycle(model, path, GaugeField.boost(v, -0.5, 1.5)).real_value
        delta = [float(np.dot(mp.mass_vector * p.x, v)
                       + 0.5 * np.dot(mp.mass_vector * v, v) * p.t)
                 for p in path.endpoint_configs()]
        boost = max(boost, abs(c - (delta[1] - delta[0])) / (1.0 + abs(c)))
    eps = 1e-6
    for _ in range(20):
        path = suite_path(rng, 2)
        chi = GaugeField.sine_modes(rng.normal(size=(4, 2)), 0.0, 1.0)
        chin = chi.value_at(path.t)
        fd = (action(model, shift_path_nodes(path, eps * chin))
              - action(model, shift_path_nodes(path, -eps * chin))) / (2 * eps)
        lin = path_linear_cocycle(model, path, chi)
        var = max(var, abs(fd - lin) / (1.0 + abs(lin)))
    harm = _harmonic_model()
    crit = solve_critical_path(harm, Config(0.0, [0.0]), Config(np.pi / 2, [1.0]),
                               200, tol=1e-11)
    for _ in range(20):
        chi = GaugeField.sine_modes(rng.normal(size=(4, 1)), 0.0, np.pi / 2)
        chin = chi.value_at(crit.t)
        stat = max(stat, abs((action(harm, shift_path_nodes(crit, eps * chin))
                              - action(harm, shift_path_nodes(crit, -eps * chin)))
                             / (2 * eps)))
    assert checks["gauge-split"] == split
    assert checks["boost-boundary-term"] == boost
    assert checks["infinitesimal-gauge-variation"] == var
    assert checks["harmonic-stationarity"] == stat
    assert split > 0 and var > 0 and stat > 0
