"""Deterministic verification suites behind the command line front end.

Each experiment draws its probes from a generator seeded by (seed, registry
index), evaluates a batch of identities and returns one residual per identity,
keyed by check name.  Its registry entry declares each check once, with its
law and pinned tolerance, and ``run_experiment`` pairs the two in declared
order.  Artifacts (CSV tables, binary snapshots, residual reports) are written
to the experiment's own subdirectory when requested.
Every suite draws its random probes first, in the order a per-probe loop
would (a stack of probes drawn only from normals is one ``rng.normal`` call,
split into views), and evaluates each identity on the whole batch or stack
of paths in one call; no suite loops over random probes.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import bundle, classical, cocycle, dressing, pathint, qgrid
from .bundle import Config, GaugeField, ModelParams, Shift
from .classical import DiscretePath
from .cocycle import LagrangianModel
from .qgrid import _infidelity, _l2

__all__ = ["Check", "Experiment", "Param", "REGISTRY", "EXPERIMENT_KINDS", "run_experiment"]


@dataclass(frozen=True)
class Check:
    """One verified identity: measured residual against its tolerance."""

    name: str
    law: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tol

    def to_dict(self) -> dict:
        """JSON-ready entry; a NaN or infinite residual is written as null."""
        residual = self.residual if np.isfinite(self.residual) else None
        return {"name": self.name, "law": self.law, "residual": residual,
                "tol": self.tol, "passed": self.passed}


@dataclass(frozen=True)
class Param:
    """A suite parameter: an ``int`` in [``minimum``, ``maximum``] (even if
    ``even``; ``maximum`` lies far beyond any run that can finish, or below
    the size where a check's rounding floor reaches its gate), a finite
    ``float`` > ``minimum``, or a ``dict`` that ``build`` accepts."""

    name: str
    type: type
    default: object
    minimum: float | None = None
    maximum: int | None = None
    even: bool = False
    build: Callable | None = None


@dataclass(frozen=True)
class Experiment:
    """A suite: ``fn(model_params, params, rng, out)`` returns its residuals
    keyed by check name, and ``checks`` declares each check once, in report
    order, as ``(name, law, tol)``, or ``(name, law, tol, param)`` for one
    that applies only when ``param`` is set; a name may be a ``str.format``
    template over the suite's parameters."""

    description: str
    checks: tuple[tuple, ...]
    fn: Callable
    params: tuple[Param, ...] = ()

    @property
    def laws(self) -> tuple[str, ...]:
        """The declared laws in order of first appearance."""
        return tuple(dict.fromkeys(law for _, law, *_ in self.checks))


def _path_draws(rng: np.random.Generator, dim: int, M=48):
    """Start offset (1, dim) and random-walk steps (M+1, dim) of one history."""
    return (rng.normal(scale=1.0, size=(1, dim)),
            rng.normal(scale=0.15, size=(M + 1, dim)))


def _path_stack(rng: np.random.Generator, n: int, dim: int, extra: int = 0, M=48):
    """Start offsets (n, 1, dim), walk steps (n, M+1, dim) and ``extra``
    further normal rows (n, extra, dim) of n histories, as views of one draw.

    The same normals in the same order as n calls of ``_path_draws`` each
    followed by ``rng.normal(size=(extra, dim))``, and the generator ends in
    the same state.  ``rng.normal(scale=0.15)`` returns 0 + 0.15 z for the
    same standard normals z, so scaling the drawn step rows in place gives
    its bits (the 0 + only turns a -0.0 product into 0.0, and a drawn
    normal is never -0.0).
    """
    z = rng.normal(size=(n, M + 2 + extra, dim))
    steps = z[:, 1:M + 2]
    steps *= 0.15
    return z[:, :1], steps, z[:, M + 2:]


def _walk(start: np.ndarray, steps: np.ndarray) -> DiscretePath:
    """The history start + cumsum(steps) on [0, 1], or a stack of them."""
    t = np.linspace(0.0, 1.0, steps.shape[-2])
    return DiscretePath.from_nodes(t, start + np.cumsum(steps, axis=-2))


def _configured_field(obj) -> GaugeField:
    """The classical suite's configured gauge field: one field, not a stack."""
    if (field := GaugeField.from_dict(obj)).values.ndim != 2:
        raise ValueError("values must have shape (n_samples, dim)")
    return field


def _draw_stack(n: int, draw: Callable[[], tuple]) -> list[np.ndarray]:
    """Call ``draw`` n times and stack each array it returns along a new axis 0.

    The generator is consumed in the order of a loop that draws each probe
    and evaluates it before the next; the probes are then evaluated at once.
    Used where other draws come between the normals (``dress``'s
    ``rng.choice``); a stack drawn only from normals is ``_path_stack``.
    """
    return [np.stack(field) for field in zip(*(draw() for _ in range(n)))]


def _worst(residuals) -> float:
    """The largest residual, NaN if any is NaN (Python's max drops a NaN
    that is not its first argument, and a NaN residual must fail)."""
    return float(np.max(residuals))


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_text(value) -> str:
    """One field as the csv module's default dialect writes it: a float as
    its repr, anything else as its str, in double quotes (inner quotes
    doubled) if it holds a comma, a quote, CR or LF."""
    text = repr(value) if isinstance(value, float) else str(value)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_fields(column) -> list[str]:
    """The fields of ``np.asarray(column).tolist()``.  A float64 column with
    repeated values formats each distinct value once, keyed by its bit
    pattern (so -0.0 and 0.0, and NaN payloads, stay apart), and an integer
    column goes through ``str``; neither ever needs quotes."""
    a = np.asarray(column)
    values = a.tolist()
    if a.ndim == 1 and a.dtype == np.float64:
        keys = a.view(np.uint64).tolist()
        text = dict(zip(keys, values))
        if len(text) == len(keys):
            return list(map(repr, values))
        text = dict(zip(text, map(repr, text.values())))
        return list(map(text.__getitem__, keys))
    if a.ndim == 1 and a.dtype.kind in "iu":
        return list(map(str, values))
    return [_csv_text(v) for v in values]


def _write_csv(fname, header, *columns) -> None:
    """Write a table: the header row, then row k of every column.

    The bytes ``csv.writer`` writes in its default dialect (RFC 4180) for
    columns of numbers and strings: floats as their shortest repr, which
    reads back exactly, fields quoted where needed, commas and CRLF line
    ends.  The file is written in one call.
    """
    head = [_csv_text(h) for h in header]
    fields = [_csv_fields(c) for c in columns]
    # a row of one empty field is written as "", so that it reads as a row
    if len(head) == 1:
        head = [head[0] or '""']
    if len(fields) == 1:
        fields = [[f or '""' for f in fields[0]]]
    lines = [",".join(head), *map(",".join, zip(*fields, strict=True))]
    with open(fname, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


# ----------------------------------------------------------------------
# cocycle suite

def _suite_verify_cocycle(model_params: ModelParams, params: dict,
                          rng: np.random.Generator, out: Path | None):
    model = LagrangianModel(model_params)
    n_probes = params["n_probes"]
    dim = model_params.dim

    # each probe family is drawn and checked as one (n, dim) batch
    p = Config(rng.uniform(-1, 1), rng.normal(size=(n_probes, dim)))
    v, X, Y = rng.normal(size=(3, n_probes, dim))
    res = cocycle.cocycle_property_residual(model, p, v, X, Y)
    cx = np.abs(cocycle.pointwise_cocycle(model, p, v, X))
    cy = np.abs(cocycle.pointwise_cocycle(model, p, v, Y))
    residuals = res / (1.0 + cx + cy)
    checks = {"composition-identity": residuals.max(initial=0.0)}

    v, chi1, chi2 = rng.normal(size=(3, 1000, dim))
    a, b = rng.normal(size=(2, 1000, 1))
    lhs = cocycle.linear_cocycle(model, v, a * chi1 + b * chi2)
    rhs = (a[:, 0] * cocycle.linear_cocycle(model, v, chi1)
           + b[:, 0] * cocycle.linear_cocycle(model, v, chi2))
    lin_worst = np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs)))
    checks["linearity"] = lin_worst

    v, chi = rng.normal(size=(2, 50, dim))
    eps = 1e-7
    fd = (cocycle.cocycle_density(model, v, eps * chi)
          - cocycle.cocycle_density(model, v, -eps * chi)) / (2 * eps)
    fd_worst = np.max(np.abs(fd - cocycle.linear_cocycle(model, v, chi))
                      / (1.0 + np.abs(fd)))
    checks["linearization-limit"] = fd_worst

    # per path: a random path and the mode amplitudes of two random bumps
    start, steps, modes = _path_stack(rng, 20, dim, 8)
    paths = _walk(start, steps)
    X = GaugeField.sine_modes(modes[:, :4], 0.0, 1.0)
    Y = GaugeField.sine_modes(modes[:, 4:], 0.0, 1.0)
    cX = cocycle.path_cocycle(model, paths, X)
    cXY = cocycle.path_cocycle(model, paths, X.value_at(paths.t) + Y.value_at(paths.t))
    cY_moved = cocycle.path_cocycle(model, classical.gauge_transform_path(paths, X), Y)
    a, b, c = cX.phase, cY_moved.phase, cXY.phase
    # c - a*b, the product rounded as for one complex scalar (numpy's array
    # multiply may fuse multiply-adds and differ in the last bit); moduli as
    # hypot, which abs() of one complex scalar is (see _suite_dress)
    d_re = c.real - (a.real * b.real - a.imag * b.imag)
    d_im = c.imag - (a.real * b.imag + a.imag * b.real)
    checks["phase-composition"] = _worst(np.hypot(d_re, d_im))
    checks["phase-unit-modulus"] = _worst(np.abs(np.hypot(c.real, c.imag) - 1.0))

    p = Config(rng.uniform(-1, 1), rng.normal(size=(500, dim)))
    X = Shift(rng.normal(size=(500, dim)))
    Y = Shift(rng.normal(size=(500, dim)))
    one = bundle.right_action(bundle.right_action(p, X), Y)
    two = bundle.right_action(p, X + Y)
    checks["translation-group-law"] = np.abs(one.x - two.x).max()

    if out is not None:
        _write_csv(out / "residuals.csv", ["stat", "value"], ["max", "mean", "p99"],
                   [residuals.max(), residuals.mean(), np.quantile(residuals, 0.99)])
    return checks


# ----------------------------------------------------------------------
# classical suite

def _harmonic_model(m: float = 1.0) -> LagrangianModel:
    params = ModelParams(1, 1, np.array([m]))
    return LagrangianModel(
        params,
        potential=lambda x: 0.5 * np.sum(x * x, axis=-1),
        potential_grad=lambda x: x,
        potential_hess=lambda x: np.ones(x.shape + (1,)),
    )


def _suite_classical(model_params: ModelParams, params: dict,
                     rng: np.random.Generator, out: Path | None):
    model = LagrangianModel(model_params)
    dim = model_params.dim

    # per pair: a random path and the four mode amplitudes of a random bump
    start, steps, modes = _path_stack(rng, params["n_pairs"], dim, 4)
    paths = _walk(start, steps)
    Gn = GaugeField.sine_modes(modes, -0.1, 1.1).value_at(paths.t)
    direct = classical.action_gauge_transformed(model, paths, Gn)
    split = classical.action_gauge_split(model, paths, Gn)
    checks = {"gauge-split":
              float(np.max(np.abs(direct - split) / (1.0 + np.abs(direct))))}

    if params["gauge_field"] is not None:
        # user-supplied field from the config, exercised on random paths
        G_cfg = _configured_field(params["gauge_field"])
        m_cfg = model if G_cfg.dim == dim else LagrangianModel(
            ModelParams(G_cfg.dim, 1, np.ones(G_cfg.dim)))
        start, steps, _ = _path_stack(rng, 10, G_cfg.dim)
        paths = _walk(start, steps)
        direct = classical.action_gauge_transformed(m_cfg, paths, G_cfg)
        split = classical.action_gauge_split(m_cfg, paths, G_cfg)
        checks["gauge-split-configured-field"] = _worst(
            np.abs(direct - split) / (1.0 + np.abs(direct)))

    # per path: a random path and a boost velocity
    start, steps, vel = _path_stack(rng, 20, dim, 1)
    vel = vel[:, 0]
    paths = _walk(start, steps)
    c = cocycle.path_cocycle(model, paths, GaugeField.boost(vel, -0.5, 1.5)).real_value
    p0, p1 = paths.endpoint_configs()
    delta = (cocycle.boost_boundary_term(model, p1, vel)
             - cocycle.boost_boundary_term(model, p0, vel))
    checks["boost-boundary-term"] = _worst(np.abs(c - delta) / (1.0 + np.abs(c)))

    start, steps, modes = _path_stack(rng, 20, dim, 4)
    paths = _walk(start, steps)
    chi = GaugeField.sine_modes(modes, 0.0, 1.0)
    eps = 1e-6
    chin = chi.value_at(paths.t)
    s_plus = classical.action(model, classical.shift_path_nodes(paths, eps * chin))
    s_minus = classical.action(model, classical.shift_path_nodes(paths, -eps * chin))
    fd = (s_plus - s_minus) / (2 * eps)
    lin = cocycle.path_linear_cocycle(model, paths, chi)
    checks["infinitesimal-gauge-variation"] = float(
        np.max(np.abs(fd - lin) / (1.0 + np.abs(lin))))

    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    M200 = params["M"]
    straight = classical.solve_critical_path(
        free1, Config(0.0, [0.0]), Config(1.0, [1.0]), M200)
    checks["free-critical-action"] = abs(classical.action(free1, straight) - 0.5)
    checks["free-el-residual"] = float(
        np.abs(classical.el_residual(free1, straight)).max())

    harm = _harmonic_model()
    crit = classical.solve_critical_path(
        harm, Config(0.0, [0.0]), Config(np.pi / 2, [1.0]), M200, tol=1e-11)
    checks["harmonic-el-residual"] = float(
        np.abs(classical.el_residual(harm, crit)).max())
    checks[f"harmonic-node-error-M{M200}"] = float(
        np.abs(crit.x[:, 0] - np.sin(crit.t)).max())

    # the mode amplitudes of twenty random bumps in one draw: the same
    # normals in the same order as twenty draws of shape (4, 1)
    chi = GaugeField.sine_modes(rng.normal(size=(20, 4, 1)), 0.0, np.pi / 2)
    chin = chi.value_at(crit.t)
    s_p = classical.action(harm, classical.shift_path_nodes(crit, eps * chin))
    s_m = classical.action(harm, classical.shift_path_nodes(crit, -eps * chin))
    checks["harmonic-stationarity"] = float(np.max(np.abs((s_p - s_m) / (2 * eps))))

    # same geometric curve on a doubled parameter grid
    tau = np.linspace(0.0, 0.5, 41)
    t = 2.0 * tau
    x = np.sin(t)[:, None]
    par = DiscretePath(tau, t, x)
    dep = DiscretePath.from_nodes(t, x)
    checks["reparametrization-invariance"] = abs(
        classical.action(free1, par) - classical.action(free1, dep))

    _, q = classical.noether_charge(free1, straight, Shift(np.array([1.0])))
    checks["noether-constancy"] = float(np.ptp(q))

    errs = []
    for M in (50, 100, 200):
        tgrid = np.linspace(0.0, np.pi / 2, M + 1)
        path = DiscretePath.from_nodes(tgrid, np.sin(tgrid)[:, None])
        errs.append(np.abs(classical.el_residual(harm, path)).max())
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    checks["el-residual-order"] = float(max(abs(r - 4.0) for r in ratios))

    if out is not None:
        _write_csv(out / "harmonic_critical_path.csv",
                   ["tau", "t"] + [f"x_{i + 1}" for i in range(crit.dim)],
                   crit.tau, crit.t, *crit.x.T)
    return checks


# ----------------------------------------------------------------------
# principal function suite

def _suite_hpf(model_params: ModelParams, params: dict,
               rng: np.random.Generator, out: Path | None):
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0]),
                                        hbar=model_params.hbar))
    p0 = Config(0.0, [0.0])
    nt, nx = params["nt"], params["nx"]
    t_grid = np.linspace(10.0, 11.0, nt)
    x_grid = np.linspace(-1.0, 1.0, nx)
    hpf = classical.hpf_table(free1, p0, t_grid, x_grid, M=16)

    closed = classical.free_hpf(free1, p0, t_grid[:, None],
                                x_grid[None, :, None] * np.ones((nt, nx, 1)))
    checks = {"free-table-closed-form": float(np.abs(hpf.S - closed).max())}

    S_t = np.gradient(hpf.S, t_grid, axis=0)
    S_x = np.gradient(hpf.S, x_grid, axis=1)
    hj = S_t + 0.5 * S_x ** 2
    checks["hamilton-jacobi-residual"] = float(np.abs(hj[1:-1, 1:-1]).max())

    conn = classical.flat_connection(hpf, free1.params.hbar)
    checks["flat-connection-curl"] = classical.flat_connection_curl(conn)

    pi_exact = (x_grid[None, :] - 0.0) / (t_grid[:, None] - 0.0)
    target = -1j / free1.params.hbar * pi_exact
    checks["connection-momentum-coefficient"] = float(
        np.abs(conn.coeff_x - target)[1:-1, 1:-1].max())
    checks["static-endpoint-action"] = abs(
        classical.hpf_value(free1, p0, Config(0.5, [0.0]), M=8))

    if out is not None:
        _write_csv(out / "hpf.csv", ["t", "x", "S"], np.repeat(t_grid, nx),
                   np.tile(x_grid, nt), hpf.S.ravel())
    return checks


# ----------------------------------------------------------------------
# quantum suite

def _suite_quantum(model_params: ModelParams, params: dict,
                   rng: np.random.Generator, out: Path | None):
    hbar = model_params.hbar
    n = params["n_points"]
    spec = qgrid.GridSpec(((-20.0, 20.0, n),))
    H = qgrid.HamiltonianSpec((1.0,), hbar=hbar)
    psi0 = qgrid.gaussian_packet(spec, 0.0, 1.0)

    # 1e-3, or half of evolve's bound 2 m h^2 / (pi hbar) where 1e-3 breaks
    # it (a fine grid or a large hbar); the step counts stay the same
    bound = 2 * H.masses[0] * spec.spacing(0) ** 2 / (np.pi * hbar)
    dt = 1e-3 if 1e-3 < bound else 0.5 * bound
    steps = params["norm_steps"]
    spread_steps = 2000
    # one run serves both checks: evolve is a deterministic per-step loop, so
    # continuing from the shorter count is bit for bit the longer run
    first = qgrid.evolve(psi0, H, dt, min(steps, spread_steps))
    second = replace(qgrid.evolve(first, H, dt, abs(steps - spread_steps)),
                     t=psi0.t + max(steps, spread_steps) * dt)
    evolved, spread = (first, second) if steps <= spread_steps else (second, first)
    checks = {"norm-drift": abs(evolved.norm() - 1.0)}

    sigma0 = 1.0
    T = spread_steps * dt
    x = spec.coords(0)
    dens = np.abs(spread.amplitudes) ** 2 * spec.cell_volume
    mean = float(np.sum(x * dens))
    var = float(np.sum((x - mean) ** 2 * dens))
    var_exact = sigma0 ** 2 + (hbar * T / (2 * 1.0 * sigma0)) ** 2
    checks["packet-spreading"] = abs(var - var_exact)

    flat = qgrid.WaveGrid(spec, 0.0, np.ones(spec.shape, dtype=complex))
    still = qgrid.evolve(flat, H, dt, steps=100)
    checks["zero-momentum-invariance"] = float(
        np.abs(still.amplitudes - flat.amplitudes).max())

    k_id = 2 * np.pi * 8 / 40.0
    plane = qgrid.WaveGrid(spec, 0.0, np.exp(1j * k_id * x))
    applied = qgrid.momentum_apply(plane, hbar)
    checks["momentum-plane-wave"] = float(
        np.abs(applied.amplitudes - hbar * k_id * plane.amplitudes).max())
    checks["momentum-constant"] = float(
        np.abs(qgrid.momentum_apply(flat, hbar).amplitudes).max())

    phi = qgrid.gaussian_packet(spec, 1.0, 1.5, 0.7)
    lhs = phi.inner(qgrid.momentum_apply(psi0, hbar))
    rhs = qgrid.momentum_apply(phi, hbar).inner(psi0)
    checks["momentum-hermiticity"] = abs(lhs - rhs)

    comm = qgrid.commutator_expectation(psi0, hbar)
    checks["canonical-commutator"] = abs(comm - 1j * hbar)

    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0]), hbar=hbar))
    p0 = Config(0.0, [0.0])
    hpf = classical.hpf_table(free1, p0, np.linspace(19.6, 20.4, 41),
                              np.linspace(-10.5, 10.5, 61), M=8)
    wspec = qgrid.GridSpec(((-10.0, 10.0, 4096),))
    wx = wspec.coords(0)
    dts = 0.02
    series = [qgrid.WaveGrid(wspec, tv,
                             np.exp(1j / hbar * classical.free_hpf(
                                 free1, p0, tv, wx[:, None])))
              for tv in (20.0 - dts, 20.0, 20.0 + dts)]
    rx, rt = qgrid.covariant_derivative_residual(series, hpf, hbar)
    checks["covariant-dx-residual"] = rx
    checks["covariant-dt-residual"] = rt

    meta = abs(qgrid.meta_action(series, hpf, (1.0, 0.3), hbar))
    checks["meta-action-solution"] = meta
    # one phase-noise draw per snapshot, drawn at once in the same order
    noise = rng.normal(scale=0.3, size=(len(series),) + wspec.shape)
    scrambled = [qgrid.WaveGrid(wspec, s.t, s.amplitudes * np.exp(1j * z))
                 for s, z in zip(series, noise)]
    meta_bad = abs(qgrid.meta_action(scrambled, hpf, (1.0, 0.3), hbar))
    checks["meta-action-contrast"] = 10.0 * meta / max(meta_bad, 1e-300)

    if out is not None:
        qgrid.write_wavegrid(out / "packet.cqmw", spread)
        _write_csv(out / "packet_density.csv", ["axis", "x", "density"],
                   np.zeros(n, int), x, dens / spec.spacing(0))
        back = qgrid.read_wavegrid(out / "packet.cqmw")
        if not (back.spec == spread.spec and back.t == spread.t
                and np.array_equal(back.amplitudes, spread.amplitudes)):
            raise RuntimeError("packet.cqmw does not read back as written")
    return checks


# ----------------------------------------------------------------------
# boost suite

def _suite_boost(model_params: ModelParams, params: dict,
                 rng: np.random.Generator, out: Path | None):
    hbar = model_params.hbar
    errs = {}
    for n in (512, 1024, 2048):
        spec = qgrid.GridSpec(((-20.0, 20.0, n),))
        H = qgrid.HamiltonianSpec((1.0,), hbar=hbar)
        psi0 = qgrid.gaussian_packet(spec, 0.0, 1.0)
        errs[n] = qgrid.boost_covariance_check(psi0, 1.0, 1.0, H)
    checks = {"boost-covariance-1024": errs[1024],
              "boost-refinement-decrease":
                  float(max(errs[1024] / errs[512], errs[2048] / errs[1024]))}
    if out is not None:
        _write_csv(out / "boost_errors.csv", ["n", "error"], list(errs),
                   list(errs.values()))
    return checks


# ----------------------------------------------------------------------
# dressing suite

def _suite_dress(model_params: ModelParams, params: dict,
                 rng: np.random.Generator, out: Path | None):
    if model_params.n_particles >= 2:
        mp = model_params
    else:
        mp = ModelParams(3, 1, np.array([1.0, 2.0, 3.0]), model_params.hbar)
    model = LagrangianModel(mp)
    dim = mp.dim
    n_probes = params["n_probes"]

    # per probe: a random path, two distinct anchors and a random bump
    start, steps, anchors, modes = _draw_stack(n_probes, lambda: (
        *_path_draws(rng, dim), rng.choice(mp.n_particles, size=2, replace=False),
        rng.normal(size=(4, dim))))
    residuals = dressing.identity_suite(
        model, _walk(start, steps), anchors[:, 0], anchors[:, 1],
        GaugeField.sine_modes(modes, 0.0, 1.0))
    agg = {name: float(res.max()) for name, res in residuals.items()}
    checks = dict(agg)

    # per path: two distinct anchors and an external boost velocity
    start, steps, anchors, vel = _draw_stack(20, lambda: (
        *_path_draws(rng, dim), rng.choice(mp.n_particles, size=2, replace=False),
        rng.normal(size=mp.spatial_dim)))
    paths = _walk(start, steps)
    i, j = anchors[:, 0], anchors[:, 1]
    rel_j = dressing.dress_path(mp, paths, j)
    v = rel_j.velocities()
    dens_direct = 0.5 * (v * v) @ mp.mass_vector
    rel_i = dressing.dress_path(mp, paths, i)
    vi = rel_i.velocities()
    z = dressing.frame_shift(mp, paths, i, j)
    dz = np.diff(z, axis=-2) / np.diff(paths.t)[:, None]
    dens_frame = (0.5 * (vi * vi) @ mp.mass_vector
                  + (vi * dz + 0.5 * dz * dz) @ mp.mass_vector)
    lag_worst = float(np.abs(dens_direct - dens_frame).max())

    ext = GaugeField.boost(mp.replicate(vel), -0.5, 1.5)
    moved = classical.gauge_transform_path(paths, ext)
    s_dressed = dressing.dressed_action(model, paths, i)
    ext_worst = _worst([
        np.abs(dressing.dress_path(mp, moved, i).x - rel_i.x).max(),
        np.max(np.abs(dressing.dressed_action(model, moved, i) - s_dressed))])

    s_bare = classical.action(model, paths)
    c_u = cocycle.path_cocycle(
        model, paths, dressing.dressing_field_along(mp, paths, i))
    dphase = np.exp(-1j * ((s_dressed - s_bare) / mp.hbar)) - c_u.phase
    # |dphase| as hypot, which abs() of one complex scalar is; np.abs of a
    # complex array may take a SIMD loop that differs in the last bit
    rule_worst = _worst([np.max(np.abs(s_dressed - (s_bare + c_u.real_value))),
                         np.max(np.hypot(dphase.real, dphase.imag))])
    checks["relational-lagrangian-pointwise"] = lag_worst
    checks["external-shift-invariance"] = ext_worst
    checks["gauge-substitution-rule"] = rule_worst

    n3 = LagrangianModel(ModelParams(3, 1, np.array([1.0, 2.0, 0.5])))
    p0 = Config(0.0, [0.3, -0.2, 1.0])
    p1 = Config(1.0, [0.9, 0.4, -0.5])
    bare_crit = classical.solve_critical_path(n3, p0, p1, 80)
    anchor = 1
    rel_crit = dressing.dressed_critical_path(n3, p0, p1, 80, anchor)
    dressed_bare = dressing.dress_path(n3.params, bare_crit, anchor)
    checks["dressed-variational-consistency"] = float(
        np.abs(rel_crit.x - dressed_bare.x).max())

    free2 = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    rel = dressing.dressed_critical_path(
        free2, Config(0.0, [0.0, 0.0]), Config(1.0, [0.0, 1.0]), 50, 0)
    checks["dressed-free-action"] = abs(classical.action(free2, rel) - 1.0)

    if out is not None:
        report = {name: {"max_residual": res, "probes": n_probes}
                  for name, res in sorted(agg.items())}
        with open(out / "identity_residuals.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return checks


# ----------------------------------------------------------------------
# frame suite (relational quantum states)

def _relative_state(spec2: qgrid.GridSpec, sigma: float, k0: float) -> qgrid.WaveGrid:
    """Normalised exp(-r^2 / (4 sigma^2) + i k0 r) of the periodic relative
    coordinate r = x_1 - x_0 on a square two-particle grid.

    Built in place: one real and one complex grid at the peak, with the
    operations, and so the bits, of the meshgrid form
    ``r = (X1 - X0 + L) % (2 L) - L``,
    ``exp(-r ** 2 / (4 sigma ** 2) + 1j * k0 * r)`` and ``normalized()``.
    """
    x = spec2.coords(0)
    L = 0.5 * (spec2.axes[0][1] - spec2.axes[0][0])
    rel = x[None, :] - x[:, None]
    rel += L
    rel %= 2 * L
    rel -= L
    amp = (1j * k0) * rel
    np.square(rel, out=rel)
    np.negative(rel, out=rel)
    rel /= 4 * sigma ** 2
    amp += rel
    del rel
    np.exp(amp, out=amp)
    amp /= qgrid.WaveGrid(spec2, 0.0, amp).norm()
    return qgrid.WaveGrid(spec2, 0.0, amp)


def _suite_frame(model_params: ModelParams, params: dict,
                 rng: np.random.Generator, out: Path | None):
    hbar = model_params.hbar
    n = params["n_points"]

    # two-particle relational state; frame change is the coordinate flip
    spec1 = qgrid.GridSpec(((-20.0, 20.0, n),))
    x = spec1.coords(0)
    amp = np.exp(-(x - 1.3) ** 2 / 4 + 0.4j * x)
    psi_rel = qgrid.WaveGrid(spec1, 0.0, amp, anchor=0).normalized()

    free2 = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0]), hbar))
    t = np.linspace(0, 1, 33)
    nodes = np.stack([np.zeros(33), 0.3 + 0.5 * t], axis=1)
    bare_path = DiscretePath.from_nodes(t, nodes)
    rel_path = dressing.dress_path(free2.params, bare_path, 0)
    z01 = dressing.frame_shift(free2.params, rel_path, 0, 1)
    phase01 = cocycle.path_cocycle(free2, rel_path, z01)
    swapped = qgrid.frame_change(psi_rel, 1, phase01)
    flip_idx = (-np.arange(n)) % n
    checks = {
        "frame-change-modulus": float(np.abs(
            np.abs(swapped.amplitudes) - np.abs(psi_rel.amplitudes[flip_idx])).max()),
        "frame-change-isometry": abs(swapped.norm() - psi_rel.norm())}

    rel_path_j = dressing.dress_path(free2.params, bare_path, 1)
    z10 = dressing.frame_shift(free2.params, rel_path_j, 1, 0)
    phase10 = cocycle.path_cocycle(free2, rel_path_j, z10)
    back = qgrid.frame_change(swapped, 0, phase10)
    checks["frame-roundtrip-fidelity"] = _infidelity(back.amplitudes, psi_rel.amplitudes)

    # complex exp: real np.exp rounds differently in its AVX-512 loop
    sym = qgrid.WaveGrid(spec1, 0.0, np.exp((-(x * x) / 4).astype(complex)),
                         anchor=0).normalized()
    sswap = qgrid.frame_change(sym, 1, phase01)
    align = sym.inner(sswap) / abs(sym.inner(sswap))
    checks["symmetric-state-frame-flip"] = float(
        np.abs(sswap.amplitudes / align - sym.amplitudes).max())

    # slicing a separable relative state reproduces the profile exactly
    spec2 = qgrid.GridSpec(((-20.0, 20.0, n), (-20.0, 20.0, n)))
    f = _relative_state(spec2, 2.0, 1.0)
    sliced = qgrid.dress_wavefunction(f, 0)
    i0 = int(np.argmin(np.abs(x)))
    checks["dressing-slice-change-of-variables"] = float(
        np.abs(sliced.amplitudes - f.amplitudes[i0, :]).max())
    direct_norm = float(np.sqrt(np.sum(np.abs(f.amplitudes[i0, :]) ** 2)
                                * spec1.cell_volume))
    checks["dressing-slice-norm"] = abs(sliced.norm() - direct_norm)

    # heavy anchor: dressing commutes with evolution (m_rel -> m_other)
    m_anchor = float(params["anchor_mass"])
    H2 = qgrid.HamiltonianSpec((m_anchor, 1.0), hbar=hbar)
    T = float(params["T"])
    # f is read no more: it is propagated in place, and only its slice kept
    slice_after = qgrid.dress_wavefunction(
        qgrid._free_propagate(f, H2, T, out=f.amplitudes), 0)
    del f
    H_rel = qgrid.HamiltonianSpec((1.0,), hbar=hbar, anchor=0)
    evolved_rel = qgrid._free_propagate(sliced, H_rel, T)
    checks["dress-evolve-commutation"] = _l2(
        slice_after.amplitudes - evolved_rel.amplitudes) / _l2(evolved_rel.amplitudes)

    if out is not None:
        qgrid.write_wavegrid(out / "relational_state.cqmw", evolved_rel)
    return checks


# ----------------------------------------------------------------------
# path integral suite

def _suite_pathint(model_params: ModelParams, params: dict,
                   rng: np.random.Generator, out: Path | None):
    hbar = model_params.hbar
    n, M = params["n_points"], params["n_slices"]
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0]), hbar))
    grid = qgrid.GridSpec(((-15.0, 15.0, n),))
    scheme = pathint.SliceScheme(M, grid, 0.0, 1.0)
    # the suite owns the half kernel's matrix Kh and weights it in place for
    # the semigroup check
    if M % 2 == 0 and M >= 4:
        # same step: one _chain call builds both, bit for bit as built alone
        Kh, K = pathint._chain(grid, scheme.dt, 1.0, hbar, (M // 2, M))
        kernel = pathint.PropagatorKernel(K, grid, 0.0, 1.0, 1.0, hbar)
        del K  # the kernel holds it
    else:
        kernel = pathint.sliced_propagator(free1, scheme)
        Kh = pathint.sliced_propagator(
            free1, pathint.SliceScheme(M // 2, grid, 0.0, 0.5)).matrix
    x = grid.coords(0)
    cen = np.abs(x) <= 7.5
    central = np.ix_(cen, cen)
    # the closed forms are read-only Toeplitz views; only their central
    # blocks are copied
    exact = pathint.free_kernel_exact(grid, 1.0, 1.0, hbar)
    Kc = kernel.matrix[central]
    Ec = exact[central]
    # Kc - Ec subtracted into Ec, once its norm is taken
    norm_Ec = _l2(Ec)
    np.subtract(Kc, Ec, out=Ec)
    checks = {"kernel-vs-analytic": _l2(Ec) / norm_Ec}
    mod = np.abs(Kc)
    checks["kernel-modulus-uniformity"] = float(mod.std() / mod.mean())
    # each dense matrix goes once its checks are taken, so the chains below
    # start with less memory held
    del Ec, mod

    checks["classical-split-uniformity"] = (
        pathint.classical_split(kernel)["max_rel_deviation"])

    # all that reads the whole kernel, which then goes before the semigroup
    # product: the wave-propagation residual and the artifacts
    psi0 = qgrid.gaussian_packet(grid, 0.0, 1.0, 0.5)
    via_kernel = pathint.propagate_wavefunction(kernel, psi0)
    H1 = qgrid.HamiltonianSpec((1.0,), hbar=hbar)
    via_phase = qgrid._free_propagate(psi0, H1, 1.0)
    checks["kernel-wave-propagation"] = (
        _l2(via_kernel.amplitudes - via_phase.amplitudes) / _l2(via_phase.amplitudes))
    del via_kernel, via_phase
    if out is not None:
        # the central row and column of |K| and arg K; the phase as the
        # imaginary part of the complex log, which has libm's bits at every
        # SIMD level (np.angle's AVX-512 loop rounds differently)
        slices = np.concatenate((kernel.matrix[n // 2, :], kernel.matrix[:, n // 2]))
        _write_csv(out / "kernel_slices.csv", ["which", "x", "abs_K", "arg_K"],
                   ["row"] * n + ["col"] * n, np.tile(x, 2), np.abs(slices),
                   np.log(slices).imag)
        pathint.write_kernel(out / "kernel.cqmk", kernel)
    del kernel

    # half2 @ (w * half1) with half2 the half moved to 0.5..1 (the free
    # kernel depends on the times only through the duration), its central
    # rows only (restricting the columns too would reorder the sums)
    rows = Kh[cen]
    np.multiply(pathint.quadrature_weight(grid)[:, None], Kh, out=Kh)
    Sc = (rows @ Kh)[:, cen]
    checks["kernel-semigroup"] = _l2(Sc - Kc) / _l2(Kc)
    del Kh, rows, Sc

    one = pathint.sliced_propagator(free1, pathint.SliceScheme(1, grid, 0.0, 1.0))
    np.subtract(one.matrix, exact, out=one.matrix)
    checks["one-slice-exactness"] = float(np.abs(one.matrix).max())
    del one, exact

    delta = pathint.PropagatorKernel.delta(grid, 0.0, 1.0, hbar)
    ident = pathint.propagate_wavefunction(delta, psi0)
    checks["delta-limit"] = float(np.abs(ident.amplitudes - psi0.amplitudes).max())
    del delta, ident

    # the relational kernel anchored on particle 0, only the central block
    # window..n - window that holds cen and its mirror i -> n - i (a rounded
    # x = +-7.5 can leave cen one index short of symmetric)
    free2 = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0]), hbar))
    mass2 = pathint._relative_mass(free2, 0)
    first, last = np.flatnonzero(cen)[[0, -1]]
    window = int(min(first, n - last))
    (rel,) = pathint._chain(grid, scheme.dt, mass2, hbar, (M,), window=window)
    inner = np.ix_(cen[window:n - window + 1], cen[window:n - window + 1])
    E2c = pathint.free_kernel_exact(grid, 1.0, mass2, hbar)[central]
    checks["relational-kernel-mass"] = _l2(rel[inner] - E2c) / _l2(E2c)
    del E2c

    # anchored on particle 1 the reduced coordinate carries mass 1: the bare
    # chain, so Kc is the central block of that relational kernel; the index
    # flip i -> -i mod n reverses the block
    xc = x[cen]
    aligned = rel[::-1, ::-1][inner] * np.exp(
        1j * (free2.params.masses[0] - free2.params.masses[1])
        * (xc[:, None] - xc[None, :]) ** 2 / (2 * hbar * 1.0))
    checks["anchor-swap-fidelity"] = _infidelity(aligned, Kc)
    del Kc, rel, aligned

    # dressed propagation vs dressing the bare evolution (heavy anchor)
    n2 = params["n_points_2d"]
    spec2 = qgrid.GridSpec(((-15.0, 15.0, n2), (-15.0, 15.0, n2)))
    heavy = LagrangianModel(ModelParams(2, 1, np.array([2000.0, 1.0]), hbar))
    psi_b = _relative_state(spec2, 1.5, 0.5)
    H2 = qgrid.HamiltonianSpec((2000.0, 1.0), hbar=hbar)
    Tq = 0.5
    bare_ev = qgrid._free_propagate(psi_b, H2, Tq)
    lhs = qgrid.dress_wavefunction(bare_ev, 0)
    grid2 = qgrid.GridSpec(((-15.0, 15.0, n2),))
    relk = pathint.relational_propagator(
        heavy, pathint.SliceScheme(4, grid2, 0.0, Tq), anchor=0)
    rhs = pathint.propagate_wavefunction(relk, qgrid.dress_wavefunction(psi_b, 0))
    checks["dressed-bare-propagation-fidelity"] = _infidelity(lhs.amplitudes,
                                                              rhs.amplitudes)
    return checks


_DRESSED = "dressed-cocycle-transformations"

REGISTRY: dict[str, Experiment] = {
    "verify-cocycle": Experiment(
        "composition law, linearity and U(1) lift of the translation cocycle",
        (("composition-identity", "cocycle-defining-identity", 1e-10),
         ("linearity", "cocycle-linearity", 1e-12),
         ("linearization-limit", "cocycle-linearity", 1e-6),
         ("phase-composition", "u1-cocycle-composition", 1e-10),
         ("phase-unit-modulus", "u1-cocycle-composition", 1e-14),
         ("translation-group-law", "group-action-law", 1e-13)),
        _suite_verify_cocycle, (Param("n_probes", int, 10000, 1, 10**6),)),
    "classical": Experiment(
        "action transformation law, variational principle, conserved charge",
        (("gauge-split", "action-gauge-split", 1e-10),
         ("gauge-split-configured-field", "action-gauge-split", 1e-10, "gauge_field"),
         ("boost-boundary-term", "boost-quasi-invariance", 1e-12),
         ("infinitesimal-gauge-variation", "action-infinitesimal-variation", 1e-6),
         ("free-critical-action", "variational-stationarity", 1e-12),
         ("free-el-residual", "euler-lagrange-residual", 1e-10),
         ("harmonic-el-residual", "euler-lagrange-residual", 1e-10),
         # second-order discretisation floor at M=200 is 1.44e-6; documented red
         ("harmonic-node-error-M{M}", "variational-stationarity", 1e-6),
         ("harmonic-stationarity", "variational-stationarity", 1e-6),
         ("reparametrization-invariance", "action-gauge-split", 1e-12),
         ("noether-constancy", "noether-charge-conservation", 1e-12),
         ("el-residual-order", "euler-lagrange-residual", 0.5)),
        _suite_classical,
        # the EL residuals' rounding floor grows as M^2 and first reaches
        # their 1e-10 gates at M = 683; up to 500 both stay below 7.8e-11
        (Param("n_pairs", int, 100, 1, 10**5), Param("M", int, 200, 2, 500),
         Param("gauge_field", dict, None, build=_configured_field))),
    "hpf": Experiment(
        "principal function table, Hamilton-Jacobi residual, flat connection",
        (("free-table-closed-form", "hamilton-principal-function", 1e-8),
         ("hamilton-jacobi-residual", "hamilton-jacobi-equation", 1e-6),
         ("flat-connection-curl", "flat-connection-closedness", 1e-6),
         ("connection-momentum-coefficient", "momentum-prescription", 1e-6),
         ("static-endpoint-action", "hamilton-principal-function", 1e-12)),
        _suite_hpf, (Param("nt", int, 50, 8, 1000), Param("nx", int, 50, 3, 1000))),
    "quantum": Experiment(
        "spectral propagation, momentum operator, covariant constancy",
        (("norm-drift", "schrodinger-unitarity", 1e-12),
         ("packet-spreading", "packet-spreading", 1e-4),
         ("zero-momentum-invariance", "schrodinger-unitarity", 1e-12),
         ("momentum-plane-wave", "momentum-prescription", 1e-12),
         ("momentum-constant", "momentum-prescription", 1e-12),
         ("momentum-hermiticity", "momentum-prescription", 1e-10),
         ("canonical-commutator", "canonical-commutator", 1e-8),
         ("covariant-dx-residual", "covariant-constancy", 1e-6),
         ("covariant-dt-residual", "covariant-constancy", 1e-6),
         ("meta-action-solution", "meta-action-stationarity", 1e-5),
         ("meta-action-contrast", "meta-action-stationarity", 1.0)),
        _suite_quantum,
        (Param("n_points", int, 512, 8, 4096), Param("norm_steps", int, 1000, 1, 10**6))),
    "boost": Experiment(
        "Galilean boost covariance of free evolution",
        (("boost-covariance-1024", "boost-wavefunction-phase", 1e-4),
         ("boost-refinement-decrease", "boost-wavefunction-phase", 1.0)),
        _suite_boost),
    "dress": Experiment(
        "relational dressing identities and the dressed variational principle",
        # dressing.identity_suite's residuals, sorted by name
        (("dressed-action-frame-covariance", _DRESSED, 1e-9),
         ("dressed-action-internal-shift", _DRESSED, 1e-9),
         ("dressing-cocycle-external-shift", _DRESSED, 1e-9),
         ("dressing-cocycle-frame-shift", _DRESSED, 1e-9),
         ("dressing-cocycle-internal-shift", _DRESSED, 1e-9),
         ("dressing-cocycle-internal-shift-expanded", _DRESSED, 1e-9),
         ("frame-cocycle-internal-shift", _DRESSED, 1e-9),
         ("frame-shift-internal-transform", _DRESSED, 1e-9),
         ("relational-lagrangian-pointwise", "relational-lagrangian-form", 1e-12),
         ("external-shift-invariance", "dressing-external-invariance", 1e-10),
         ("gauge-substitution-rule", "dressing-substitution-rule", 1e-10),
         ("dressed-variational-consistency", "dressed-variational-consistency", 1e-8),
         ("dressed-free-action", "relational-lagrangian-form", 1e-10)),
        _suite_dress, (Param("n_probes", int, 100, 1, 10**4),)),
    "frame": Experiment(
        "relational wave functions, anchor changes, dressed evolution",
        (("frame-change-modulus", "frame-change-unitarity", 1e-12),
         ("frame-change-isometry", "frame-change-unitarity", 1e-12),
         ("frame-roundtrip-fidelity", "frame-change-unitarity", 1e-8),
         ("symmetric-state-frame-flip", "frame-change-unitarity", 1e-10),
         ("dressing-slice-change-of-variables", "relational-wavefunction", 1e-12),
         ("dressing-slice-norm", "relational-wavefunction", 1e-8),
         ("dress-evolve-commutation", "relational-schrodinger", 1e-3)),
        _suite_frame,
        # frame_change maps the anchor flip onto the grid by index
        (Param("n_points", int, 256, 8, 4096, even=True), Param("T", float, 0.5, 0),
         Param("anchor_mass", float, 2000.0, 0))),
    "pathint": Experiment(
        "time-sliced propagators, classical splitting, relational kernel",
        (("kernel-vs-analytic", "kernel-analytic-free", 1e-2),
         ("kernel-modulus-uniformity", "kernel-modulus-uniformity", 1e-3),
         ("classical-split-uniformity", "kernel-classical-split", 1e-3),
         ("kernel-semigroup", "kernel-semigroup", 1e-3),
         ("one-slice-exactness", "kernel-analytic-free", 1e-12),
         ("kernel-wave-propagation", "kernel-wave-propagation", 1e-2),
         ("delta-limit", "kernel-wave-propagation", 1e-12),
         ("relational-kernel-mass", "relational-kernel-mass", 1e-2),
         ("anchor-swap-fidelity", "relational-kernel-mass", 1e-3),
         ("dressed-bare-propagation-fidelity", "relational-kernel-mass", 1e-3)),
        _suite_pathint,
        (Param("n_points", int, 512, 8, 4096), Param("n_slices", int, 8, 2, 1024),
         Param("n_points_2d", int, 256, 8, 2048))),
}

EXPERIMENT_KINDS = tuple(REGISTRY) + ("all",)


def run_experiment(name: str, model_params: ModelParams, params: dict,
                   seed: int, out: Path | None) -> list[Check]:
    """Run one registered experiment; declared defaults fill in ``params``.

    The suite's residuals become its declared checks, in declared order.  A
    ``ValueError`` names the suite and both name sets unless the suite
    returned exactly the declared names that apply to ``params``.
    """
    exp = REGISTRY[name]
    params = {**{p.name: p.default for p in exp.params}, **params}
    idx = list(REGISTRY).index(name)
    rng = np.random.default_rng([seed, idx])
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    residuals = exp.fn(model_params, params, rng, out)
    declared = [(check.format(**params), law, tol)
                for check, law, tol, *needs in exp.checks
                if all(params[p] is not None for p in needs)]
    if set(residuals) != {check for check, _, _ in declared}:
        raise ValueError(f"suite {name!r} returned checks {sorted(residuals)}, "
                         f"declared {[check for check, _, _ in declared]}")
    return [Check(check, law, residuals[check], tol) for check, law, tol in declared]
