"""The Lagrangian-induced translation cocycle and its U(1) lift.

For the free N-particle Lagrangian, translating a configuration with velocity
v by a shift whose velocity is W changes the Lagrangian density by

    c(v, W) = sum_k m_k ( <v_k, W_k> + |W_k|^2 / 2 ),

which satisfies the defining composition law c(p, X+Y) = c(p, X) + c(p+X, Y)
once the velocity at the translated point is taken to be v + W(X).  Integrated
over a discretised history the value lifts to the unit-modulus phase
exp(-i c / hbar) that multiplies wave functions under gauge transformations.

Discrete convention: path integrals of the cocycle use per-interval finite
differences of both the positions and the shift samples at the path's own
nodes, so the composition law, the action splitting and the boost boundary
term all hold exactly in exact arithmetic (roundoff only in floating point).
The path integrals take one history or a stack of histories on a shared time
grid (``x`` of shape (n, M+1, dim)); a stack gives the per-history values,
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundle import Config, GaugeField, ModelParams, Shift

__all__ = [
    "LagrangianModel",
    "CocycleAccumulator",
    "cocycle_density",
    "pointwise_cocycle",
    "cocycle_property_residual",
    "linear_cocycle",
    "path_cocycle",
    "path_linear_cocycle",
    "boost_boundary_term",
]


@dataclass(frozen=True)
class LagrangianModel:
    """Free kinetic model, optionally with a potential V(x).

    The potential and its derivatives act on whole arrays of configurations:
    ``potential`` maps an (..., dim) array to (...), ``potential_grad`` to
    (..., dim) and ``potential_hess`` to (..., dim, dim); any other shape
    raises ValueError.  Without ``potential_grad`` (``potential_hess``) the
    gradient (Hessian) is a central difference of the potential (gradient),
    taken in one evaluation.
    """

    params: ModelParams
    potential: Callable[[np.ndarray], np.ndarray] | None = None
    potential_grad: Callable[[np.ndarray], np.ndarray] | None = None
    potential_hess: Callable[[np.ndarray], np.ndarray] | None = None

    def potential_values(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate V on an array of configurations, shape (..., dim) -> (...).

        The values come back in C order: the action and cocycle sums take
        numpy's pairwise sum along contiguous rows only.
        """
        xs = np.asarray(xs, dtype=float)
        return _shaped(self.potential(xs), xs.shape[:-1], "potential")

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient of V at (..., dim) configurations, shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        if self.potential_grad is not None:
            return _shaped(self.potential_grad(x), x.shape, "potential_grad")
        # central differences, adequate for smooth test potentials
        eps = 1e-6
        step = eps * np.eye(x.shape[-1])
        x = x[..., None, :]
        return (self.potential_values(x + step)
                - self.potential_values(x - step)) / (2 * eps)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of V at (..., dim) configurations, shape (..., dim, dim)."""
        x = np.asarray(x, dtype=float)
        if self.potential_hess is not None:
            return _shaped(self.potential_hess(x), x.shape + x.shape[-1:],
                           "potential_hess")
        eps = 1e-5
        step = eps * np.eye(x.shape[-1])
        x = x[..., None, :]
        h = (self.gradient(x + step) - self.gradient(x - step)) / (2 * eps)
        return 0.5 * (h + np.swapaxes(h, -1, -2))


def _shaped(values, shape: tuple, name: str) -> np.ndarray:
    """``values`` as a C-order float array, or ValueError if not of ``shape``."""
    values = np.asarray(values, dtype=float, order="C")
    if values.shape != shape:
        raise ValueError(f"{name} must return shape {shape}, got {values.shape}")
    return values


@dataclass(frozen=True)
class CocycleAccumulator:
    """Path-integrated cocycle value and its unit-modulus phase.

    For a stack of paths ``real_value`` and ``phase`` are (n,) arrays.
    """

    real_value: float | np.ndarray
    phase: complex | np.ndarray

    @classmethod
    def from_value(cls, value, hbar: float) -> "CocycleAccumulator":
        value = _float_or_array(np.asarray(value, dtype=float))
        # divide before going complex: for a float this is the exponent
        # -1j * value / hbar rounds to, while numpy's complex division of an
        # array multiplies by 1/hbar and rounds differently
        return cls(value, np.exp(-1j * (value / hbar)))

    @property
    def inverse_phase(self) -> complex:
        return np.conj(self.phase)


def _float_or_array(values: np.ndarray) -> float | np.ndarray:
    """One path's value as a float, a stack's as its array."""
    return float(values) if values.ndim == 0 else values


def _as_vec(v, dim: int) -> np.ndarray:
    v = v.v if isinstance(v, Shift) else np.asarray(v, dtype=float)
    if v.shape[-1:] != (dim,):
        raise ValueError(f"last axis must have length {dim}, got shape {v.shape}")
    return v


# The pointwise functions below take (dim,) probes or (n, dim) batches (p.x
# too) and reduce over the last axis: a batch gives the stacked probe values.

def cocycle_density(model: LagrangianModel, v, W) -> float | np.ndarray:
    """Kinetic cocycle density sum_k m_k(<v_k, W_k> + |W_k|^2/2)."""
    v = _as_vec(v, model.params.dim)
    W = _as_vec(W, model.params.dim)
    mv = model.params.mass_vector
    return np.sum(mv * v * W, axis=-1) + 0.5 * np.sum(mv * W * W, axis=-1)


def pointwise_cocycle(model: LagrangianModel, p: Config, v, X) -> float | np.ndarray:
    """Cocycle density at a configuration, including the potential difference.

    The shift X doubles as the velocity it induces; with a potential the
    density picks up -(V(x + X) - V(x)).
    """
    val = cocycle_density(model, v, X)
    if model.potential is not None:
        X = _as_vec(X, model.params.dim)
        val -= model.potential_values(p.x + X) - model.potential_values(p.x)
    return val


def cocycle_property_residual(model: LagrangianModel, p: Config, v, X,
                              Y) -> float | np.ndarray:
    """Residual of c(p, X+Y) = c(p, X) + c(p+X, Y).

    The density at the translated point uses the transformed velocity v + X.
    Identically zero in exact arithmetic; the return value is pure rounding.
    """
    v = _as_vec(v, model.params.dim)
    X = _as_vec(X, model.params.dim)
    Y = _as_vec(Y, model.params.dim)
    lhs = pointwise_cocycle(model, p, v, X + Y)
    shifted = Config(p.t, p.x + X)
    rhs = pointwise_cocycle(model, p, v, X) + pointwise_cocycle(model, shifted, v + X, Y)
    return abs(lhs - rhs)


def linear_cocycle(model: LagrangianModel, v, chi) -> float | np.ndarray:
    """Linearised cocycle sum_k m_k <v_k, chi_k> (the classical anomaly density)."""
    v = _as_vec(v, model.params.dim)
    chi = _as_vec(chi, model.params.dim)
    return np.sum(model.params.mass_vector * v * chi, axis=-1)


def _field_at_nodes(field, t: np.ndarray, dim: int) -> np.ndarray:
    """Resolve a gauge field or an array of node samples to path-node values."""
    if isinstance(field, GaugeField):
        return field.value_at(t)
    values = np.asarray(field, dtype=float)
    if values.ndim not in (2, 3) or values.shape[-2:] != (t.size, dim):
        raise ValueError("sampled shift does not match path nodes")
    return values


# The path integrals below act on the last two axes of path.x and of the
# field's node samples: either may be one history or an (n, M+1, dim) stack,
# and a single field applies to every path of a stack.  Each path's terms are
# summed as one row of a C-contiguous (n, M) array, the pairwise sum np.sum
# takes on a single path, so a stack reproduces the per-path values exactly.

def path_cocycle(model: LagrangianModel, path, field) -> CocycleAccumulator:
    """Integrate the cocycle of a time-dependent shift along a discrete path.

    ``field`` may be a GaugeField (a stack of them too) or an (M+1, dim) or
    (n, M+1, dim) array of node samples, such as a dressing field or a frame
    shift.
    Velocities of both the path and the shift are per-interval finite
    differences at the path nodes.
    """
    t = np.asarray(path.t, dtype=float)
    x = np.asarray(path.x, dtype=float)
    if t.size < 2:
        raise ValueError("path needs at least 2 samples")
    Xn = _field_at_nodes(field, t, model.params.dim)
    dt = np.diff(t)
    dx = np.diff(x, axis=-2)
    dX = np.diff(Xn, axis=-2)
    mv = model.params.mass_vector
    value = (((dx * dX + 0.5 * dX * dX) @ mv) / dt).sum(axis=-1)
    if model.potential is not None:
        g = -(model.potential_values(x + Xn) - model.potential_values(x))
        value = value + (0.5 * (g[..., :-1] + g[..., 1:]) * dt).sum(axis=-1)
    return CocycleAccumulator.from_value(value, model.params.hbar)


def path_linear_cocycle(model: LagrangianModel, path, field) -> float | np.ndarray:
    """Integral of the linearised cocycle sum_k m_k <x'_k, chi'_k> along a path."""
    t = np.asarray(path.t, dtype=float)
    x = np.asarray(path.x, dtype=float)
    chin = _field_at_nodes(field, t, model.params.dim)
    dt = np.diff(t)
    dx = np.diff(x, axis=-2)
    dchi = np.diff(chin, axis=-2)
    return _float_or_array(
        (((dx * dchi) @ model.params.mass_vector) / dt).sum(axis=-1))


def boost_boundary_term(model: LagrangianModel, p: Config, vboost) -> float | np.ndarray:
    """Boundary term sum_k m_k (<x_k, v_k> + |v_k|^2 t / 2) of a rigid boost.

    The path cocycle of the boost X(t) = v*t is this term's difference
    between the path's end and start; exp(i term / hbar) is the phase by
    which wave functions transform under the boost.  An (n, dim) batch p.x
    with (dim,) or (n, dim) velocities gives the (n,) per-row terms, bit for
    bit: ``np.vecdot`` takes each row's dot product as ``np.dot`` does.
    """
    v = _as_vec(vboost, model.params.dim)
    mv = model.params.mass_vector
    return _float_or_array(np.vecdot(mv * p.x, v) + 0.5 * np.vecdot(mv * v, v) * p.t)
