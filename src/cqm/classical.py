"""Discrete variational mechanics on the configuration bundle.

Histories are sampled on a parameter grid; the action uses per-interval
midpoint velocities for the kinetic term and the trapezoid rule for the
potential.  With this pairing the gauge transformation law of the action,

    S[gauge-transformed path] = S[path] + (path cocycle of the shift),

holds exactly at the discrete level, and the critical path solves the
central-difference Euler-Lagrange system (damped Newton on the gradient of
the discretised action, a banded linear system per step).

``action``, ``shift_path_nodes`` and ``gauge_transform_path`` also take a
stack of histories on one shared time grid (``x`` of shape (n, M+1, dim)):
a stack gives the per-history values, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bundle import Config, GaugeField, Shift, _frozen_array
from .cocycle import (LagrangianModel, _field_at_nodes, _float_or_array,
                      path_cocycle)

__all__ = [
    "DiscretePath",
    "HPFSample",
    "FlatCocyclicConnection",
    "action",
    "gauge_transform_path",
    "shift_path_nodes",
    "action_gauge_transformed",
    "action_gauge_split",
    "el_residual",
    "solve_critical_path",
    "noether_charge",
    "hpf_value",
    "hpf_table",
    "free_hpf",
    "flat_connection",
    "flat_connection_curl",
]


@dataclass(frozen=True)
class DiscretePath:
    """A kinematical history sampled at M+1 parameter nodes.

    ``x`` has shape (M+1, dim), or (n, M+1, dim) for a stack of n histories
    on the shared grid.  ``deparametrized`` means t coincides with the
    parameter grid; ``anchor`` marks relational paths (coordinates relative
    to that particle, whose block is identically zero; a stack carries one
    anchor per history).
    """

    tau: np.ndarray
    t: np.ndarray
    x: np.ndarray
    deparametrized: bool = True
    anchor: int | np.ndarray | None = None

    def __post_init__(self):
        tau, t, x = (_frozen_array(a) for a in (self.tau, self.t, self.x))
        if x.ndim not in (2, 3) or x.shape[-2] != t.size or tau.size != t.size:
            raise ValueError("inconsistent path arrays")
        if not np.all(np.diff(tau) > 0):
            raise ValueError("parameter grid must be strictly increasing")
        if not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if self.deparametrized and not np.array_equal(tau, t):
            raise ValueError("deparametrized path requires t == tau")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)

    @property
    def n_intervals(self) -> int:
        return self.t.size - 1

    @property
    def dim(self) -> int:
        return self.x.shape[-1]

    def node(self, k: int) -> Config:
        return Config(self.t[k], self.x[..., k, :])

    def endpoint_configs(self) -> tuple[Config, Config]:
        return self.node(0), self.node(-1)

    def velocities(self) -> np.ndarray:
        """Per-interval midpoint velocities dx/dt, shape (..., M, dim)."""
        return np.diff(self.x, axis=-2) / np.diff(self.t)[:, None]

    @classmethod
    def from_nodes(cls, t: Sequence[float], x: np.ndarray, anchor: int | None = None) -> "DiscretePath":
        t = np.asarray(t, dtype=float)
        return cls(t, t, np.asarray(x, dtype=float), True, anchor)

    @classmethod
    def straight(cls, p0: Config, p1: Config, M: int) -> "DiscretePath":
        """Uniform straight path from p0 to p1; an (n, dim) batch p1.x gives
        the (n, M+1, dim) stack of paths to each of its rows."""
        if not p1.t > p0.t:
            raise ValueError("endpoint times must satisfy t1 > t0")
        if M < 1:
            raise ValueError("a path needs at least one interval (M >= 1)")
        t = np.linspace(p0.t, p1.t, M + 1)
        s = ((t - p0.t) / (p1.t - p0.t))[:, None]
        x = p0.x[None, :] + s * (p1.x - p0.x)[..., None, :]
        x[..., -1, :] = p1.x
        return cls.from_nodes(t, x)


def shift_path_nodes(path: DiscretePath, values: np.ndarray) -> DiscretePath:
    """New path with node positions shifted by (M+1, dim) or (n, M+1, dim) samples.

    A single path shifted by a stack of samples gives a stack, and a single
    set of samples shifts every path of a stack.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (2, 3) or values.shape[-2:] != path.x.shape[-2:]:
        raise ValueError("shift samples do not match path nodes")
    return replace(path, x=path.x + values)


def gauge_transform_path(path: DiscretePath,
                         G: GaugeField | np.ndarray) -> DiscretePath:
    """Apply a time-dependent shift nodewise: x_k -> x_k + X(t_k).

    ``G`` is a GaugeField or its node samples, as for ``path_cocycle``.
    """
    return shift_path_nodes(path, _field_at_nodes(G, path.t, path.dim))


def action(model: LagrangianModel, path: DiscretePath) -> float | np.ndarray:
    """Discrete action: midpoint-velocity kinetic term, trapezoid potential.

    A float for one history, an (n,) array for a stack.  Each history's terms
    are summed as one row of a C-contiguous (n, M) array, which is the
    pairwise sum ``np.sum`` takes on a single history.
    """
    if path.n_intervals < 1:
        raise ValueError("path needs at least 2 nodes")
    dt = np.diff(path.t)
    if np.any(dt <= 0):
        raise ValueError("degenerate grid: repeated times")
    dx = np.diff(path.x, axis=-2)
    mv = model.params.mass_vector
    S = ((0.5 * (dx * dx) @ mv) / dt).sum(axis=-1)
    if model.potential is not None:
        V = model.potential_values(path.x)
        S = S - (0.5 * (V[..., :-1] + V[..., 1:]) * dt).sum(axis=-1)
    return _float_or_array(S)


def action_gauge_transformed(model: LagrangianModel, path: DiscretePath,
                             G: GaugeField | np.ndarray) -> float | np.ndarray:
    """Action of the gauge-transformed path, evaluated directly."""
    return action(model, gauge_transform_path(path, G))


def action_gauge_split(model: LagrangianModel, path: DiscretePath,
                       G: GaugeField | np.ndarray) -> float | np.ndarray:
    """Right-hand side of the transformation law: S[path] + cocycle integral."""
    return action(model, path) + path_cocycle(model, path, G).real_value


def el_residual(model: LagrangianModel, path: DiscretePath) -> np.ndarray:
    """Euler-Lagrange residual m x'' + grad V at interior nodes, shape (M-1, dim).

    Second derivatives are three-point central differences (the nonuniform
    formula reduces to (x[k+1] - 2x[k] + x[k-1])/dt^2 on uniform grids).
    """
    if path.t.size < 3:
        raise ValueError("need at least 3 nodes for interior residuals")
    if not path.deparametrized:
        raise ValueError("el_residual requires a deparametrized path")
    t, x = path.t, path.x
    h0 = np.diff(t)[:-1][:, None]
    h1 = np.diff(t)[1:][:, None]
    xpp = 2 * (h0 * x[2:] - (h0 + h1) * x[1:-1] + h1 * x[:-2]) / (h0 * h1 * (h0 + h1))
    res = model.params.mass_vector[None, :] * xpp
    if model.potential is not None:
        res = res + model.gradient(x[1:-1])
    return res


def _newton_banded(model: LagrangianModel, t: np.ndarray, x: np.ndarray,
                   tol: float, max_iter: int) -> np.ndarray:
    """Damped Newton on the interior gradient of the discrete action."""
    from scipy.linalg import solve_banded

    dim = x.shape[1]
    h = t[1] - t[0]
    mv = model.params.mass_vector

    def grad(xf):
        inner = xf[1:-1]
        g = mv[None, :] * (2 * inner - xf[2:] - xf[:-2]) / h
        g -= h * model.gradient(inner)
        return g.ravel()

    def resid(xf):
        gi = grad(xf).reshape(-1, dim)
        return np.abs(gi / h).max()

    xf = x.copy()
    n_int = x.shape[0] - 2
    nz = n_int * dim
    # banded Hessian, half-bandwidth dim: coordinate i = k*dim + c of node k
    # couples to the other coordinates of node k (the potential's Hessian)
    # and to the same coordinate of nodes k - 1 and k + 1 (the kinetic term)
    i = np.arange(nz).reshape(n_int, dim)
    rows = dim + i[:, :, None] - i[:, None, :]
    cols = np.broadcast_to(i[:, None, :], rows.shape)
    for _ in range(max_iter):
        g = grad(xf)
        if np.abs(g / h).max() < tol:
            return xf
        hess = model.hessian(xf[1:-1])
        ab = np.zeros((2 * dim + 1, nz))
        ab[rows, cols] = -h * hess
        ab[dim] = (2 * mv / h - h * np.diagonal(hess, axis1=-2, axis2=-1)).ravel()
        ab[0, dim:] = ab[2 * dim, :-dim] = np.tile(-mv / h, n_int - 1)
        step = solve_banded((dim, dim), ab, -g).reshape(n_int, dim)
        base = np.abs(g).max()
        alpha = 1.0
        for _ in range(30):
            trial = xf.copy()
            trial[1:-1] += alpha * step
            if np.abs(grad(trial)).max() < base:
                xf = trial
                break
            alpha *= 0.5
        else:
            break  # stalled at the rounding floor; final check below decides
    if resid(xf) < tol:
        return xf
    raise RuntimeError(
        f"variational solver did not converge; residual {resid(xf):.3e}")


def solve_critical_path(model: LagrangianModel, p0: Config, p1: Config, M: int,
                        tol: float = 1e-10, max_iter: int = 60) -> DiscretePath:
    """Critical path of the discrete action with endpoints fixed.

    The free model returns the straight line; with a potential a damped Newton
    iteration drives the central-difference Euler-Lagrange residual below tol.
    """
    if not p1.t > p0.t:
        raise ValueError("endpoint times must satisfy t1 > t0")
    path = DiscretePath.straight(p0, p1, M)
    if model.potential is None:
        return path
    xf = _newton_banded(model, path.t, path.x.copy(), tol, max_iter)
    return DiscretePath.from_nodes(path.t, xf)


def noether_charge(model: LagrangianModel, path: DiscretePath, chi: Shift):
    """Translation charge <chi, m x'> per interval.

    Returns (midpoint times, charges); constant along critical paths of the
    free model.
    """
    if not path.deparametrized:
        raise ValueError("noether_charge requires a deparametrized path")
    v = path.velocities()
    q = (v * model.params.mass_vector[None, :]) @ chi.v
    t_mid = 0.5 * (path.t[:-1] + path.t[1:])
    return t_mid, q


def hpf_value(model: LagrangianModel, p0: Config, p1: Config, M: int = 64,
              tol: float = 1e-10) -> float:
    """Action of the critical path from p0 to p1."""
    return action(model, solve_critical_path(model, p0, p1, M, tol=tol))


def free_hpf(model: LagrangianModel, p0: Config, t, x) -> np.ndarray:
    """Closed-form principal function of the free model, sum_k m_k |dx_k|^2 / 2T."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = x - p0.x
    quad = (dx * dx) @ model.params.mass_vector if x.ndim > 1 else float(
        np.dot(model.params.mass_vector * dx, dx))
    return 0.5 * quad / (t - p0.t)


@dataclass(frozen=True)
class HPFSample:
    """Principal-function table S(t, x) from a fixed start configuration."""

    t0: float
    x0: np.ndarray
    t_grid: np.ndarray
    x_grid: np.ndarray
    S: np.ndarray

    def spline(self):
        """Bicubic RectBivariateSpline; use (dx=, dy=) for partial derivatives."""
        from scipy.interpolate import RectBivariateSpline

        kx = min(3, self.t_grid.size - 1)
        ky = min(3, self.x_grid.size - 1)
        return RectBivariateSpline(self.t_grid, self.x_grid, self.S, kx=kx, ky=ky)


def hpf_table(model: LagrangianModel, p0: Config, t_grid, x_grid, M: int = 64,
              tol: float = 1e-10) -> HPFSample:
    """Tabulate the principal function over a rectangular (t, x) grid.

    One-dimensional configuration space only (the table is a surface).  With
    a potential each entry re-solves the boundary-value problem.  A free
    model's critical paths are the straight lines of ``DiscretePath.straight``,
    so each table time's row is one ``action`` of the stack of straight paths
    to every ``x_grid`` point, bit-identical to ``hpf_value`` per entry.
    """
    if model.params.dim != 1 or p0.dim != 1:
        raise ValueError("hpf_table requires a one-dimensional configuration space")
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if t_grid.ndim != 1 or x_grid.ndim != 1:
        raise ValueError("table grids must be one-dimensional")
    if not (np.all(np.isfinite(t_grid)) and np.all(np.isfinite(x_grid))):
        raise ValueError("configuration entries must be finite")
    if np.any(t_grid <= p0.t):
        raise ValueError("table times must exceed the start time")
    if model.potential is not None:
        S = np.empty((t_grid.size, x_grid.size))
        for i, tv in enumerate(t_grid):
            for j, xv in enumerate(x_grid):
                S[i, j] = hpf_value(model, p0, Config(tv, [xv]), M=M, tol=tol)
    else:
        S = np.array([action(model, DiscretePath.straight(
            p0, Config(tv, x_grid[:, None]), M)) for tv in t_grid])
    return HPFSample(p0.t, p0.x, t_grid, x_grid, S)


@dataclass(frozen=True)
class FlatCocyclicConnection:
    """Coefficients of -(i/hbar) dS on the principal-function grid."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    coeff_t: np.ndarray
    coeff_x: np.ndarray
    hbar: float


def flat_connection(hpf: HPFSample, hbar: float) -> FlatCocyclicConnection:
    """Central-difference gradient of S scaled by -i/hbar."""
    if hpf.t_grid.size < 3 or hpf.x_grid.size < 3:
        raise ValueError("principal-function grid must be at least 3x3")
    dS_dt = np.gradient(hpf.S, hpf.t_grid, axis=0)
    dS_dx = np.gradient(hpf.S, hpf.x_grid, axis=1)
    scale = -1j / hbar
    return FlatCocyclicConnection(hpf.t_grid, hpf.x_grid, scale * dS_dt,
                                  scale * dS_dx, hbar)


def flat_connection_curl(conn: FlatCocyclicConnection) -> float:
    """Max interior mixed-partial antisymmetry |d_x w_t - d_t w_x| (flatness)."""
    d_x_wt = np.gradient(conn.coeff_t, conn.x_grid, axis=1)
    d_t_wx = np.gradient(conn.coeff_x, conn.t_grid, axis=0)
    return float(np.abs(d_x_wt - d_t_wx)[1:-1, 1:-1].max())
