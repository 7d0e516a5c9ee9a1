"""Trivial configuration bundle over the time line.

The configuration of N point particles in d spatial dimensions at time t is a
point (t, x) with x a flat vector of d*N coordinates, blocked per particle.
The translation group R^{dN} acts by adding a shift to x at fixed t; a
time-dependent shift X(t) is a gauge field (extended Galilean transformation,
covering boosts X(t) = v*t and accelerations).  The shift group splits into an
"external" diagonal part (all particles moved identically) and an "internal"
remainder.  ``decompose_shift`` is that split, anchored on one particle, and
it is the one place that knows the per-particle block layout: dressing on
particle i is its anchored split of the configuration (internal part: the
relational coordinates; external part: -u_i, with u_i the dressing field).
A relational configuration or path is only ever such a dressing.  A
GaugeField may hold a stack of fields on one sample grid, evaluated at once
for a stack of paths.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ModelParams",
    "Config",
    "Shift",
    "GaugeField",
    "right_action",
    "decompose_shift",
]


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ModelParams:
    """Particle count, spatial dimension, masses and hbar."""

    n_particles: int
    spatial_dim: int
    masses: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "masses", _frozen_array(self.masses))
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.spatial_dim < 1:
            raise ValueError("spatial_dim must be >= 1")
        if self.masses.shape != (self.n_particles,):
            raise ValueError("need one mass per particle")
        if not np.all(np.isfinite(self.masses) & (self.masses > 0)):
            raise ValueError("masses must be finite and positive")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be finite and positive")

    @property
    def dim(self) -> int:
        return self.n_particles * self.spatial_dim

    @cached_property
    def mass_vector(self) -> np.ndarray:
        """Per-coordinate masses, shape (dim,)."""
        return _frozen_array(np.repeat(self.masses, self.spatial_dim))

    def block(self, i: int) -> slice:
        """Coordinate slice of particle i (0-based)."""
        i = _particle_index(i, self.n_particles, "particle index")
        d = self.spatial_dim
        return slice(i * d, (i + 1) * d)

    def replicate(self, a: np.ndarray) -> np.ndarray:
        """Tile single-particle vectors (..., d) across all N blocks: (..., dim)."""
        a = np.asarray(a, dtype=float)
        if a.shape[-1:] != (self.spatial_dim,):
            raise ValueError("expected single-particle vectors")
        return np.tile(a, self.n_particles)

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelParams":
        unknown = sorted(set(obj) - {"n_particles", "spatial_dim", "masses", "hbar"})
        if unknown:
            raise ValueError(f"unknown model keys {unknown}")
        for key in ("n_particles", "spatial_dim"):
            if type(obj[key]) is not int:  # bool too
                raise TypeError(f"{key} must be an integer, got {obj[key]!r}")
        # JSON numbers only: float() would take a string
        masses, hbar = obj["masses"], obj.get("hbar", 1.0)
        if not (isinstance(masses, (list, tuple)) and all(map(_is_number, masses))):
            raise TypeError(f"masses must be a list of numbers, got {masses!r}")
        if not _is_number(hbar):
            raise TypeError(f"hbar must be a number, got {hbar!r}")
        return cls(
            n_particles=obj["n_particles"],
            spatial_dim=obj["spatial_dim"],
            masses=np.asarray(masses, dtype=float),
            hbar=float(hbar),
        )

    def to_dict(self) -> dict:
        return {
            "n_particles": self.n_particles,
            "spatial_dim": self.spatial_dim,
            "masses": self.masses.tolist(),
            "hbar": self.hbar,
        }


@dataclass(frozen=True)
class Config:
    """A point (t, x) of the trivialised bundle, or an (n, dim) batch x at one t."""

    t: float
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x))
        if not np.isfinite(self.t) or not np.all(np.isfinite(self.x)):
            raise ValueError("configuration entries must be finite")

    @property
    def dim(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class Shift:
    """An element of R^{dN} (also its Lie algebra), or an (n, dim) batch of them."""

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _frozen_array(self.v))
        if not np.all(np.isfinite(self.v)):
            raise ValueError("shift entries must be finite")

    @property
    def dim(self) -> int:
        return self.v.size

    def __add__(self, other: "Shift") -> "Shift":
        return Shift(self.v + other.v)


def right_action(p: Config, X: Shift) -> Config:
    """Translate a configuration: (t, x) -> (t, x + X), row by row on batches."""
    # compare the last axes: batches of different widths would broadcast
    if p.x.shape[-1:] != X.v.shape[-1:]:
        raise ValueError(f"dimension mismatch: config shape {p.x.shape} vs "
                         f"shift shape {X.v.shape}")
    return Config(p.t, p.x + X.v)


def _particle_index(value, n: int, name: str, stacked: bool = False
                    ) -> int | np.ndarray:
    """``value`` as one of n particles: an int, or with ``stacked`` also an
    integer array of them.  A bool, a float (1.7 or NaN), an array where one
    index is wanted, or an index outside 0..n - 1 raises ValueError naming
    ``name``."""
    i = np.asarray(value)
    if i.dtype.kind not in "iu" or (i.ndim and not stacked):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if np.any((i < 0) | (i >= n)):
        raise ValueError(f"{name} {value} is not a particle of {n}")
    return i if i.ndim else int(i)


def _anchor_index(anchor, params: ModelParams) -> int | np.ndarray:
    """One anchor as an int, or an integer array of anchors (one per row)."""
    return _particle_index(anchor, params.n_particles, "anchor", stacked=True)


def decompose_shift(params: ModelParams, values, anchor: int | np.ndarray = 0
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Split (..., dim) values into (internal, external) parts along the last axis.

    ``values`` is a shift, a configuration, a path's node samples or an
    (n, M+1, dim) stack of them.  With an integer anchor i the external part
    replicates particle i's block, so the internal part has an exactly zero
    block i; an (n,) integer array gives one anchor per stacked row.  The
    internal part is ``values - external``, one rounding.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (params.dim,):
        raise ValueError("shift dimension does not match model")
    blocks = values.reshape(values.shape[:-1]
                            + (params.n_particles, params.spatial_dim))
    i = _anchor_index(anchor, params)
    if not isinstance(i, int) and (values.ndim < 2 or i.shape != values.shape[:1]):
        raise ValueError(f"anchors of shape {i.shape} do not give one "
                         f"per row of values of shape {values.shape}")
    # block i of every row, or block i[k] of stacked row k
    a = (blocks[..., i, :] if isinstance(i, int)
         else blocks[np.arange(i.size), ..., i, :])
    external = params.replicate(a)
    return values - external, external


@dataclass(frozen=True)
class GaugeField:
    """A sampled time-dependent shift X(t), interpolated linearly.

    ``values`` has shape (n_samples, dim), or (n, n_samples, dim) for a stack
    of n fields on one shared sample grid.  If ``support=(t0, t1)`` is given,
    the field vanishes identically at and outside the window (samples there
    must be exactly zero); this realises the subgroup of transformations
    frozen at the path endpoints.  Outside the sample range without a support
    window the edge value is held constant.
    """

    times: np.ndarray
    values: np.ndarray
    support: tuple[float, float] | None = None

    def __post_init__(self):
        times = _frozen_array(self.times)
        values = _frozen_array(self.values)
        if values.ndim not in (2, 3) or values.shape[-2] != times.size:
            raise ValueError("values must have shape (n_samples, dim) or "
                             "(n, n_samples, dim)")
        if times.size == 0:
            raise ValueError("gauge field needs at least one sample")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("gauge field samples must be finite")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if self.support is not None:
            t0, t1 = self.support
            if not t0 < t1:
                raise ValueError("support window must satisfy t0 < t1")
            outside = (times <= t0) | (times >= t1)
            if np.any(values[..., outside, :] != 0.0):
                raise ValueError("samples at/outside the support window must be zero")
            object.__setattr__(self, "support", (float(t0), float(t1)))

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def value_at(self, t) -> np.ndarray:
        """Evaluate X(t); scalar t gives (..., dim), array t gives (..., nt, dim).

        The leading ``...`` is the stack axis of a stacked field, else empty.
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        # np.interp's arithmetic on every column at once: the sample value at
        # or beyond either end and at a sample time, else slope * (t - t_j)
        # + f_j on the bracket t_j <= t < t_{j+1}
        j = np.searchsorted(self.times, t_arr, side="right") - 1
        k = np.clip(j, 0, self.times.size - 1)
        out = np.take(self.values, k, axis=-2)
        lin = (j >= 0) & (j < self.times.size - 1) & (self.times[k] != t_arr)
        k = k[lin]
        slope = (np.diff(self.values, axis=-2)[..., k, :]
                 / np.diff(self.times)[k, None])
        out[..., lin, :] = (slope * (t_arr[lin] - self.times[k])[:, None]
                            + self.values[..., k, :])
        if self.support is not None:
            t0, t1 = self.support
            out[..., (t_arr <= t0) | (t_arr >= t1), :] = 0.0
        return out[..., 0, :] if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    @classmethod
    def boost(cls, v: np.ndarray, t0: float, t1: float) -> "GaugeField":
        """Linear-in-time field X(t) = v * t, sampled at t0 and t1 (exact
        under linear interpolation).

        An (m, dim) array of velocities gives a stack of m fields.
        """
        v = np.asarray(v, dtype=float)
        times = np.linspace(t0, t1, 2)
        return cls(times, times[:, None] * v[..., None, :])

    @classmethod
    def sine_modes(cls, coeffs, t0: float, t1: float, n: int = 65) -> "GaugeField":
        """Superposition sum_k sin(k pi s) c_k / k, supported on (t0, t1).

        ``coeffs`` holds the amplitudes c_k as an (n_modes, dim) array, or an
        (m, n_modes, dim) stack of them, which gives a stack of m fields.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        times = np.linspace(t0, t1, n)
        s = (times - t0) / (t1 - t0)
        values = np.zeros(coeffs.shape[:-2] + (n, coeffs.shape[-1]))
        for k in range(1, coeffs.shape[-2] + 1):
            values += np.sin(k * np.pi * s)[:, None] * (coeffs[..., k - 1, None, :] / k)
        values[..., 0, :] = 0.0
        values[..., -1, :] = 0.0
        return cls(times, values, support=(t0, t1))

    @classmethod
    def from_dict(cls, obj: dict) -> "GaugeField":
        unknown = sorted(set(obj) - {"times", "values", "support"})
        if unknown:
            raise ValueError(f"unknown gauge field keys {unknown}")
        support = obj.get("support")
        if support is not None and _number_array("support", support).shape != (2,):
            raise ValueError(f"support must be two numbers, got {support!r}")
        return cls(
            _number_array("times", obj["times"]),
            _number_array("values", obj["values"]),
            tuple(support) if support is not None else None,
        )

    def to_dict(self) -> dict:
        out = {"times": self.times.tolist(), "values": self.values.tolist()}
        if self.support is not None:
            out["support"] = list(self.support)
        return out


def _is_number(val) -> bool:
    """Whether ``val`` is a JSON number a float can hold: a float, or an int
    short of float overflow; not a bool or str."""
    # JSON true/false load as bool, a subclass of int; JSON has no bound on an
    # integer literal, and float(10**400) raises OverflowError
    if type(val) is int:
        try:
            float(val)
        except OverflowError:
            return False
        return True
    return type(val) is float


def _number_array(name: str, obj) -> np.ndarray:
    """Float array of ``obj``, nested lists of JSON numbers only."""
    stack = [obj]
    while stack:
        val = stack.pop()
        if isinstance(val, (list, tuple)):
            stack.extend(val)
        elif not _is_number(val):
            raise TypeError(f"{name} must hold numbers only, got {val!r}")
    return np.asarray(obj, dtype=float)
