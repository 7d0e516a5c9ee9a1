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
    on the shared grid.  ``deparametrized`` tells whether t coincides with
    the parameter grid; ``anchor`` marks relational paths (coordinates relative
    to that particle, whose block is identically zero; a stack carries one
    anchor per history), and only dressing sets it (``dressing.dress_path``,
    ``dressing.dressed_critical_path``).  Non-finite samples, and an anchor
    whose block is not exactly zero at every node, raise ValueError; the
    path does not know the particles' spatial dimension d, so the block is
    the anchor's for some d that divides ``dim``.
    """

    tau: np.ndarray
    t: np.ndarray
    x: np.ndarray
    anchor: int | np.ndarray | None = None

    def __post_init__(self):
        tau, t, x = (_frozen_array(a) for a in (self.tau, self.t, self.x))
        if x.ndim not in (2, 3) or x.shape[-2] != t.size or tau.size != t.size:
            raise ValueError("inconsistent path arrays")
        for name, a in (("tau", tau), ("t", t), ("x", x)):
            if not np.isfinite(a).all():
                raise ValueError(f"path {name} must be finite")
        if self.anchor is not None:
            i = np.asarray(self.anchor)
            if (i.dtype.kind not in "iu" or np.any(i < 0)
                    or (i.ndim and (x.ndim != 3 or i.shape != x.shape[:1]))):
                raise ValueError(f"anchor must be a particle index, or one per "
                                 f"history of a stack, got {self.anchor!r}")
            # block i, or block i[k] of history k, for each block width d
            # that divides dim and has a block i
            dim = x.shape[-1]
            for d in range(1, dim + 1):
                if dim % d or np.any(i >= dim // d):
                    continue
                blocks = x.reshape(x.shape[:-1] + (dim // d, d))
                if not np.any(blocks[..., i, :] if i.ndim == 0
                              else blocks[np.arange(i.size), ..., i, :]):
                    break
            else:
                raise ValueError(f"anchor {self.anchor!r} has no exactly zero block")
        if not np.all(np.diff(tau) > 0):
            raise ValueError("parameter grid must be strictly increasing")
        if not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)

    @property
    def deparametrized(self) -> bool:
        return np.array_equal(self.tau, self.t)

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
    def from_nodes(cls, t: Sequence[float], x: np.ndarray) -> "DiscretePath":
        t = np.asarray(t, dtype=float)
        return cls(t, t, np.asarray(x, dtype=float))

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


def _kinetic_terms(dx: np.ndarray, dt: np.ndarray, mv: np.ndarray) -> np.ndarray:
    """Per-interval kinetic terms (m |dx|^2 / 2) / dt, shape (..., M), from
    node differences ``dx`` (..., M, dim), which are overwritten."""
    dx *= dx
    dx *= 0.5
    kin = dx @ mv
    kin /= dt
    return kin


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
    S = _kinetic_terms(np.diff(path.x, axis=-2), dt, model.params.mass_vector).sum(axis=-1)
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


def _solve_block_tridiagonal(lower: np.ndarray, diag: np.ndarray,
                             upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lower[k] y[k-1] + diag[k] y[k] + upper[k] y[k+1] = rhs[k].

    Blocks have shape (n, d, d) and ``rhs`` (n, d, r); ``lower[0]`` and
    ``upper[-1]`` are never read.  Block cyclic reduction: each level
    eliminates the odd rows with one batched ``np.linalg.solve`` and halves
    the system, so the work is O(n) numpy calls over log2(n) levels and the
    memory O(n).  No pivoting across blocks, which suits the symmetric
    definite systems of the Newton step and the splines' diagonally dominant
    ones.
    """
    n, d = diag.shape[0], diag.shape[-1]
    if n == 1:
        return np.linalg.solve(diag, rhs)
    n_even, n_odd = (n + 1) // 2, n // 2
    # diag[odd]^-1 applied to that row's lower block, upper block and rhs
    inv = np.linalg.solve(diag[1::2], np.concatenate(
        [lower[1::2], upper[1::2], rhs[1::2]], axis=-1))
    inv_l, inv_u, inv_r = inv[..., :d], inv[..., d:2 * d], inv[..., 2 * d:]
    # even row e sees odd rows e - 1 (as its lower neighbour) and e + 1
    left, right = lower[2::2], upper[0:2 * n_odd:2]
    red_lower = np.zeros((n_even, d, d))
    red_upper = np.zeros((n_even, d, d))
    red_diag = diag[::2].copy()
    red_rhs = rhs[::2].copy()
    red_diag[1:] -= left @ inv_u[:n_even - 1]
    red_rhs[1:] -= left @ inv_r[:n_even - 1]
    red_lower[1:] = -(left @ inv_l[:n_even - 1])
    red_diag[:n_odd] -= right @ inv_l
    red_rhs[:n_odd] -= right @ inv_r
    red_upper[:n_odd] = -(right @ inv_u)
    even = _solve_block_tridiagonal(red_lower, red_diag, red_upper, red_rhs)
    odd = inv_r - inv_l @ even[:n_odd]
    odd[:n_even - 1] -= inv_u[:n_even - 1] @ even[1:]
    out = np.empty_like(red_rhs, shape=(n,) + red_rhs.shape[1:])
    out[::2], out[1::2] = even, odd
    return out


def _newton_banded(model: LagrangianModel, t: np.ndarray, x: np.ndarray,
                   tol: float, max_iter: int) -> np.ndarray:
    """Damped Newton on the interior gradient of the discrete action.

    Iterates until the Euler-Lagrange residual |g/h| is below ``tol``.  When
    the line search stalls or the iterations run out first, the path is
    accepted if the residual is below its rounding floor: the second
    difference m (x[k+1] - 2 x[k] + x[k-1]) / h^2 of nodes each held to half
    an ulp is off by up to 2 eps m |x| / h^2, which grows as M^2 (harmonic
    solves stalled at 0.7 to 1.0 eps m |x| / h^2 for M from 400 to 10^5).
    The residual cannot see the error of a step itself, about cond * eps
    with cond ~ M^2, so the iteration does not stop at the floor but goes
    on refining until it stalls.
    """
    dim = x.shape[1]
    h = t[1] - t[0]
    mv = model.params.mass_vector

    def grad(xf):
        inner = xf[1:-1]
        g = mv[None, :] * (2 * inner - xf[2:] - xf[:-2]) / h
        g -= h * model.gradient(inner)
        return g

    xf = x.copy()
    n_int = x.shape[0] - 2
    # block-tridiagonal Hessian: node k's dim x dim block couples its
    # coordinates (the potential's Hessian), and the kinetic term couples
    # each coordinate to itself at nodes k - 1 and k + 1
    off = np.broadcast_to(np.diag(-mv / h), (n_int, dim, dim))
    kinetic = np.diag(2 * mv / h)
    for _ in range(max_iter):
        g = grad(xf)
        if np.abs(g / h).max() < tol:
            return xf
        diag = kinetic - h * model.hessian(xf[1:-1])
        step = _solve_block_tridiagonal(off, diag, off, -g[..., None])[..., 0]
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
    resid = np.abs(grad(xf) / h).max()
    floor = 2 * np.finfo(float).eps * mv.max() * np.abs(xf).max() / (h * h)
    if resid < max(tol, floor):
        return xf
    raise RuntimeError(f"variational solver did not converge; residual {resid:.3e}")


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


def hpf_value(model: LagrangianModel, p0: Config, p1: Config, M: int = 64) -> float:
    """Action of the critical path from p0 to p1."""
    return action(model, solve_critical_path(model, p0, p1, M))


def free_hpf(model: LagrangianModel, p0: Config, t, x) -> np.ndarray:
    """Closed-form principal function of the free model, sum_k m_k |dx_k|^2 / 2T."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = x - p0.x
    quad = (dx * dx) @ model.params.mass_vector if x.ndim > 1 else float(
        np.dot(model.params.mass_vector * dx, dx))
    return 0.5 * quad / (t - p0.t)


def _not_a_knot(knots: np.ndarray, y: np.ndarray,
                q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and first derivatives at ``q`` (m,) of the interpolating cubic
    through each column of ``y`` (n, r) on ``knots`` (n,): two (m, r) arrays.

    Not-a-knot ends (de Boor, "A Practical Guide to Splines", ch. IV), which
    need n >= 4.  The knot slopes solve one tridiagonal system; each piece
    is then evaluated in Hermite form, the end pieces extended.
    """
    n = knots.size
    if n < 4:
        raise ValueError(f"a not-a-knot spline axis needs at least 4 points, got {n}")
    dx = np.diff(knots)
    slope = np.diff(y, axis=0) / dx[:, None]
    lower, diag, upper = np.zeros(n), np.ones(n), np.zeros(n)
    rhs = np.empty_like(y)
    lower[1:-1], diag[1:-1], upper[1:-1] = dx[1:], 2 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs[1:-1] = 3 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    d0, d1 = knots[2] - knots[0], knots[-1] - knots[-3]
    diag[0], upper[0] = dx[1], d0
    rhs[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] * dx[0] * slope[1]) / d0
    diag[-1], lower[-1] = dx[-2], d1
    rhs[-1] = (dx[-1] * dx[-1] * slope[-2]
               + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    s = _solve_block_tridiagonal(lower[:, None, None], diag[:, None, None],
                                 upper[:, None, None], rhs[:, None, :])[:, 0, :]
    k = np.clip(np.searchsorted(knots, q, side="right") - 1, 0, n - 2)
    s0, s1, m, w = s[k], s[k + 1], slope[k], dx[k, None]
    c2 = (3 * m - 2 * s0 - s1) / w
    c3 = (s0 + s1 - 2 * m) / (w * w)
    u = (q - knots[k])[:, None]
    return (y[k] + u * (s0 + u * (c2 + u * c3)),
            s0 + u * (2 * c2 + 3 * u * c3))


@dataclass(frozen=True)
class HPFSample:
    """Principal-function table S(t, x) from a fixed start configuration.

    ``S[i, j]`` is S at ``t_grid[i]``, ``x_grid[j]``; ``spline`` interpolates
    it, with its first partial derivatives, in numpy alone.
    """

    t0: float
    x0: np.ndarray
    t_grid: np.ndarray
    x_grid: np.ndarray
    S: np.ndarray

    def spline(self, t: float, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """S, dS/dt and dS/dx at time ``t`` on the 1-D array of points ``x``.

        The tensor-product interpolant of the table: a cubic along t for
        every x column, then one along x through that row and its t
        derivatives, each with not-a-knot ends (the interpolant
        ``RectBivariateSpline`` fits with s = 0 and degree 3).  An axis of
        fewer than 4 points raises ``ValueError``.  Outside the table the
        end pieces extrapolate.
        """
        row, row_t = _not_a_knot(self.t_grid, self.S, np.array([float(t)]))
        vals, ders = _not_a_knot(self.x_grid, np.stack([row[0], row_t[0]], axis=1),
                                 np.asarray(x, dtype=float))
        return vals[:, 0], vals[:, 1], ders[:, 0]


# bytes of straight-path nodes a free hpf_table block holds
_TABLE_BLOCK_BYTES = 1 << 20


def hpf_table(model: LagrangianModel, p0: Config, t_grid, x_grid, M: int = 64
              ) -> HPFSample:
    """Tabulate the principal function over a rectangular (t, x) grid.

    Free models on a one-dimensional configuration space only (the table is
    a surface); a model with a potential raises ``ValueError``.  A free
    model's critical paths are the straight lines of ``DiscretePath.straight``,
    so a block of table rows is one whole-array pass over the (rows, nx, M+1)
    stack of straight paths to its grid points, bit-identical to ``hpf_value``
    per entry: each row's times are its own ``np.linspace``, and each entry's
    kinetic terms are summed as one row of a C-contiguous array, as
    ``action`` sums them.  A block holds at most ``_TABLE_BLOCK_BYTES`` of
    path nodes, so a table of up to about 7700 entries at M = 16 is one
    block.  A grid the entries would refuse (repeated times, non-finite
    nodes) raises ``ValueError``.
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
        raise ValueError("principal-function tables are implemented for the "
                         "free model, not one with a potential")
    if M < 1:
        raise ValueError("a path needs at least one interval (M >= 1)")
    S = np.empty((t_grid.size, x_grid.size))
    # DiscretePath.straight for every entry of a block of rows: t (rows, M+1),
    # x (rows, nx, M+1, 1)
    rows = max(1, _TABLE_BLOCK_BYTES // (8 * max(1, x_grid.size) * (M + 1)))
    for i in range(0, t_grid.size, rows):
        t1 = t_grid[i:i + rows]
        t = np.linspace(p0.t, t1, M + 1, axis=-1)
        dt = np.diff(t, axis=-1)
        if not (np.all(np.isfinite(t)) and np.all(dt > 0)):
            raise ValueError("times must be strictly increasing")
        t -= p0.t
        t /= (t1 - p0.t)[:, None]
        x = t[:, None, :, None] * (x_grid - p0.x)[:, None, None]
        x += p0.x
        x[:, :, -1, 0] = x_grid
        if not np.all(np.isfinite(x)):
            raise ValueError("path x must be finite")
        dx = np.diff(x, axis=-2)
        del x
        S[i:i + rows] = _kinetic_terms(dx, dt[:, None, :],
                                       model.params.mass_vector).sum(axis=-1)
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
