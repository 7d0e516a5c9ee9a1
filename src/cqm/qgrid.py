"""Grid wave functions and spectral Schrödinger propagation.

Wave functions live on periodic rectangular grids (one axis per configuration
coordinate).  Evolution is Strang-split: exact spectral kinetic steps between
half potential steps, so the L2 norm is preserved to roundoff.  The steps run
in two reused buffers, bit for bit the same as `ifftn(expK * fftn(amp))`
with its fresh arrays, every complex product taken in one operand order
(phase first) whatever the array size.  The transforms call numpy's pocketfft
gufuncs directly (`_fft_plan`), the calls `np.fft.fft`/`ifft` end in, without
their per-call argument work; `momentum_apply` and the path-integral chain
use the same layer.  A free evolution (no potential) is
one exact spectral phase exp(-i E_k T / hbar) rather than a run of steps; the
`frame`, `pathint` and `boost` suites propagate that way, and `evolve` is
left to the `quantum` suite, whose norm check gates the stepper itself.  The
same grids carry the relational states, those with an ``anchor`` (the
reference particle); dressing a bare N-particle state restricts it to the
zero-anchor slice, and changing the anchor is an exact index permutation of
the reduced grid times a unit-modulus phase.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .classical import HPFSample
from .cocycle import CocycleAccumulator

__all__ = [
    "GridSpec",
    "WaveGrid",
    "HamiltonianSpec",
    "gaussian_packet",
    "evolve",
    "momentum_apply",
    "position_apply",
    "commutator_expectation",
    "covariant_derivative_residual",
    "boost_covariance_check",
    "dress_wavefunction",
    "frame_change",
    "meta_action",
    "write_wavegrid",
    "read_wavegrid",
]

_MAGIC = b"CQMW"
_VERSION = 1


# The residual forms of every suite.  Their sums are np.sum over a contiguous
# ravel, not BLAS reductions, whose threads would move the last bits.
def _l2(a: np.ndarray) -> float:
    """Euclidean norm, as a sum of squares."""
    a = np.ravel(a)
    return float(np.sqrt(np.sum(a.real * a.real + a.imag * a.imag)))


def _infidelity(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - |<a, b>|/(|a| |b|)`` as ``|â - u b̂|²/2``, which does not cancel:
    â, b̂ are the unit vectors and u the unit phase aligning b̂ to â."""
    a, b = np.ravel(a) / _l2(a), np.ravel(b) / _l2(b)
    # <â, b̂> in real arithmetic, so that it is exactly real for b = a
    re = np.sum(a.real * b.real + a.imag * b.imag)
    im = np.sum(a.real * b.imag - a.imag * b.real)
    return 0.5 * _l2(a - np.exp(-1j * np.arctan2(im, re)) * b) ** 2


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid, one (lo, hi, n) triple per axis."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        axes = tuple((float(lo), float(hi), int(n)) for lo, hi, n in self.axes)
        for lo, hi, n in axes:
            if not hi > lo:
                raise ValueError("axis needs hi > lo")
            if not np.isfinite(hi - lo):  # an infinite bound or width
                raise ValueError("axis needs finite bounds and a finite width")
            if n < 8:
                raise ValueError("axis needs at least 8 points")
        object.__setattr__(self, "axes", axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n for _, _, n in self.axes)

    def coords(self, axis: int) -> np.ndarray:
        lo, hi, n = self.axes[axis]
        return np.linspace(lo, hi, n, endpoint=False)

    def spacing(self, axis: int) -> float:
        lo, hi, n = self.axes[axis]
        return (hi - lo) / n

    @property
    def cell_volume(self) -> float:
        return float(np.prod([self.spacing(a) for a in range(self.ndim)]))

    def kvec(self, axis: int) -> np.ndarray:
        _, _, n = self.axes[axis]
        return 2 * np.pi * np.fft.fftfreq(n, d=self.spacing(axis))

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*[self.coords(a) for a in range(self.ndim)],
                                indexing="ij"))


def _check_anchor(anchor: int | None, n_axes: int) -> None:
    """Relational on n_axes axes: n_axes + 1 particles, the anchor one of them."""
    if anchor is not None and not 0 <= anchor <= n_axes:
        raise ValueError(f"anchor {anchor} is not a particle of {n_axes + 1}")


@dataclass(frozen=True)
class WaveGrid:
    """Complex amplitudes on a grid at one time, bare or anchored."""

    spec: GridSpec
    t: float
    amplitudes: np.ndarray
    anchor: int | None = None

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != self.spec.shape:
            raise ValueError("amplitude shape does not match grid")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amp)
        _check_anchor(self.anchor, self.spec.ndim)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)
                             * self.spec.cell_volume))

    def normalized(self) -> "WaveGrid":
        return replace(self, amplitudes=self.amplitudes / self.norm())

    def inner(self, other: "WaveGrid") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes)
                       * self.spec.cell_volume)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Per-axis masses plus an optional grid-sampled real potential."""

    masses: tuple[float, ...]
    potential: np.ndarray | None = None
    hbar: float = 1.0
    anchor: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        _check_anchor(self.anchor, len(self.masses))
        if not all(np.isfinite(m) and m > 0 for m in self.masses):
            raise ValueError("masses must be finite and positive")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be finite and positive")
        if self.potential is not None:
            pot = np.asarray(self.potential, dtype=float)
            object.__setattr__(self, "potential", pot)


def gaussian_packet(spec: GridSpec, centers, sigmas, k0=None) -> WaveGrid:
    """Normalised Gaussian packet exp(-(x-c)^2/(4 sigma^2) + i k0 x) per axis."""
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    k0 = np.zeros(spec.ndim) if k0 is None else np.atleast_1d(np.asarray(k0, float))
    mesh = spec.meshgrid()
    amp = np.ones(spec.shape, dtype=complex)
    for a, X in enumerate(mesh):
        amp = amp * np.exp(-(X - centers[a]) ** 2 / (4 * sigmas[a] ** 2)
                           + 1j * k0[a] * X)
    psi = WaveGrid(spec, 0.0, amp)
    return psi.normalized()


def _kinetic_phase(spec: GridSpec, H: HamiltonianSpec, dt: float) -> np.ndarray:
    ks = [spec.kvec(a) for a in range(spec.ndim)]
    kin = np.zeros(spec.shape)
    for a, k in enumerate(ks):
        shape = [1] * spec.ndim
        shape[a] = k.size
        kin = kin + (H.hbar ** 2 * k.reshape(shape) ** 2) / (2 * H.masses[a])
    return np.exp(-1j * kin * dt / H.hbar)


def _check_hamiltonian(psi: WaveGrid, H: HamiltonianSpec) -> None:
    if psi.spec.ndim > 3:
        raise ValueError("propagation supports at most 3 grid axes")
    if len(H.masses) != psi.spec.ndim:
        raise ValueError("one mass per grid axis required")
    if H.anchor != psi.anchor:
        raise ValueError("Hamiltonian anchor does not match the state")


def _fft_plan(shape: tuple[int, ...]):
    """numpy's pocketfft gufuncs ``fft``, ``ifft`` and, last axis first (the
    order of fftn and ifftn), each axis's ``(axes, 1/n)`` arguments.

    ``np.fft.fft(a, axis=ax, out=o)`` ends in ``fft(a, 1, axes=axes, out=o)``
    and ``np.fft.ifft`` in ``ifft(a, 1/n, axes=axes, out=o)``, after dtype,
    axis, norm and shape work that a step loop would repeat every step.  The
    axes count from the last, so a plan of shape ``(L,)`` also transforms the
    rows of an ``(m, L)`` block.  The module is imported here, at first use:
    importing cqm loads no numpy.fft.
    """
    from numpy.fft import _pocketfft_umath as pocketfft

    per_axis = [([(ax,), (), (ax,)], 1 / shape[ax])
                for ax in range(-1, -len(shape) - 1, -1)]
    return pocketfft.fft, pocketfft.ifft, per_axis


def _apply_kinetic(amp: np.ndarray, phase: np.ndarray, spectrum: np.ndarray,
                   out: np.ndarray, plan=None) -> None:
    """out = ifftn(phase * fftn(amp)), by per-axis transforms into `spectrum`.

    `out` may be `amp` or `spectrum`; `plan` is ``_fft_plan(amp.shape)``,
    made here if not given.  The product is always
    ``np.multiply(phase, spectrum)``: the SIMD complex multiply is not bitwise
    commutative, so one operand order keeps the bits independent of size.
    """
    fft, ifft, per_axis = plan or _fft_plan(amp.shape)
    src = amp
    for axes, _ in per_axis:
        fft(src, 1, axes=axes, out=spectrum)
        src = spectrum
    np.multiply(phase, spectrum, out=spectrum)
    for axes, inv_n in per_axis:
        ifft(src, inv_n, axes=axes, out=out)
        src = out


def _free_propagate(psi: WaveGrid, H: HamiltonianSpec, T: float) -> WaveGrid:
    """Exact free propagation over T: one multiply by exp(-i E_k T / hbar).

    For a Hamiltonian without a potential a Strang step is this phase at
    dt, so ``steps`` steps are the same operator with ``steps`` times the
    rounding and a dt bound.  The input amplitudes are not written to.
    """
    _check_hamiltonian(psi, H)
    if H.potential is not None:
        raise ValueError("exact propagation holds for the free Hamiltonian")
    if not T > 0:
        raise ValueError("T must be positive")
    # the phase's temporaries are freed before the one work array exists, so
    # the peak holds one complex grid fewer; that array is spectrum and result
    expK = _kinetic_phase(psi.spec, H, T)
    amp = np.empty_like(psi.amplitudes)
    _apply_kinetic(psi.amplitudes, expK, amp, amp)
    return replace(psi, t=psi.t + T, amplitudes=amp)


def evolve(psi: WaveGrid, H: HamiltonianSpec, dt: float, steps: int) -> WaveGrid:
    """Strang-split spectral propagation over ``steps`` steps of size dt.

    The steps run in two buffers allocated once, the amplitudes and their
    spectrum, and give the same bits as
    ``expV * ifftn(expK * fftn(expV * amp))`` per step, each product taken
    with the phase as its first operand; the input amplitudes are not written
    to.
    """
    spec = psi.spec
    _check_hamiltonian(psi, H)
    if not dt > 0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if H.potential is not None and H.potential.shape != spec.shape:
        raise ValueError("potential shape does not match grid")
    e_max = sum((H.hbar * (np.pi / spec.spacing(a))) ** 2 / (2 * H.masses[a])
                for a in range(spec.ndim))
    if dt * e_max / H.hbar >= np.pi:
        raise ValueError("dt too large for the spectral kinetic phase bound")
    expK = _kinetic_phase(spec, H, dt)
    expV = None if H.potential is None else np.exp(-0.5j * dt * H.potential / H.hbar)
    amp = psi.amplitudes.copy()
    spectrum = np.empty_like(amp)
    plan = _fft_plan(spec.shape)
    for _ in range(steps):
        if expV is not None:
            np.multiply(expV, amp, out=amp)
        _apply_kinetic(amp, expK, spectrum, amp, plan)
        if expV is not None:
            np.multiply(expV, amp, out=amp)
    return replace(psi, t=psi.t + steps * dt, amplitudes=amp)


def momentum_apply(psi: WaveGrid, hbar: float = 1.0, axis: int = 0) -> WaveGrid:
    """Spectral momentum operator -i hbar d/dx along one axis."""
    k = psi.spec.kvec(axis)
    shape = [1] * psi.spec.ndim
    shape[axis] = k.size
    amp = np.empty_like(psi.amplitudes)
    _apply_kinetic(psi.amplitudes, hbar * k.reshape(shape), amp, amp)
    return replace(psi, amplitudes=amp)


def position_apply(psi: WaveGrid, axis: int = 0) -> WaveGrid:
    mesh = psi.spec.meshgrid()
    return replace(psi, amplitudes=mesh[axis] * psi.amplitudes)


def commutator_expectation(psi: WaveGrid, hbar: float = 1.0, axis: int = 0) -> complex:
    """<psi| [x, p] |psi> for a normalised state; i*hbar for compact support."""
    x_p = position_apply(momentum_apply(psi, hbar, axis), axis)
    p_x = momentum_apply(position_apply(psi, axis), hbar, axis)
    return psi.inner(replace(psi, amplitudes=x_p.amplitudes - p_x.amplitudes))


def _covariant_derivatives(psi_series: list[WaveGrid], hpf: HPFSample,
                           hbar: float) -> tuple[WaveGrid, np.ndarray, np.ndarray]:
    """Middle slice psi of a one-axis series with (d_x - (i/hbar) dS/dx) psi
    and (d_t - (i/hbar) dS/dt) psi.

    d_x is the non-wrapping central difference (one-sided at the two edge
    points), d_t the central difference across the neighbouring slices.  The
    table must cover the middle slice's time and every grid point, because
    its spline would extrapolate silently.
    """
    if len(psi_series) < 3:
        raise ValueError("need at least 3 time slices")
    mid = len(psi_series) // 2
    psi = psi_series[mid]
    if psi.spec.ndim != 1:
        raise ValueError("covariant derivatives are defined on one-axis grids")
    x = psi.spec.coords(0)
    if not hpf.t_grid[0] <= psi.t <= hpf.t_grid[-1]:
        raise ValueError("principal-function table does not cover the slice time")
    if x[0] < hpf.x_grid[0] or x[-1] > hpf.x_grid[-1]:
        raise ValueError("principal-function table does not cover the grid")
    amp = psi.amplitudes
    before, after = psi_series[mid - 1], psi_series[mid + 1]
    dpsi_dx = np.gradient(amp, psi.spec.spacing(0))
    dpsi_dt = (after.amplitudes - before.amplitudes) / (after.t - before.t)
    _, S_t, S_x = hpf.spline(psi.t, x)
    return (psi, dpsi_dx - 1j / hbar * S_x * amp,
            dpsi_dt - 1j / hbar * S_t * amp)


def covariant_derivative_residual(psi_series: list[WaveGrid], hpf: HPFSample,
                                  hbar: float = 1.0) -> tuple[float, float]:
    """Residuals of covariant constancy for a phase-carrying test state.

    For psi = psi0 * exp(i S / hbar) with slowly varying psi0 and S the
    principal function, reports

        dx_residual = ||(d_x - (i/hbar) dS/dx) psi|| / ||psi||
        dt_residual = ||(d_t - (i/hbar) dS/dt) psi|| / ||psi||

    evaluated at the middle slice of the series (one spatial axis).  The two
    boundary points carry one-sided stencils and are excluded from the norms.
    """
    psi, dx_psi, dt_psi = _covariant_derivatives(psi_series, hpf, hbar)
    nrm = _l2(psi.amplitudes[1:-1])
    return _l2(dx_psi[1:-1]) / nrm, _l2(dt_psi[1:-1]) / nrm


def _periodic_resample(spec: GridSpec, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Periodic cubic-spline resampling of a one-axis grid function.

    The spline's B-spline coefficients are the samples' spectrum divided by
    the symbol (4 + 2 cos 2 pi k/n)/6 of the sampled cubic B-spline (Unser,
    Aldroubi & Eden, IEEE Trans. Signal Process. 41, 1993); each point then
    sums its four nearest coefficients, wrapped around the box, with the
    cubic B-spline weights.  Real and imaginary parts are divided and
    weighted as real arrays, and cubes are products, so the bits do not
    depend on numpy's SIMD loops.
    """
    n = spec.axes[0][2]
    symbol = (4 + 2 * np.exp(2j * np.pi * np.arange(n) / n).real) / 6
    spectrum = np.fft.fft(values).view(float).reshape(n, 2) / symbol[:, None]
    coef = np.fft.ifft(spectrum.view(complex)[:, 0]).view(float).reshape(n, 2)
    s = (points - spec.axes[0][0]) / spec.spacing(0)
    cell = np.floor(s)
    u = s - cell
    v = 1 - u
    uu, vv = u * u, v * v
    i = cell.astype(int)
    out = ((vv * v / 6)[:, None] * coef[(i - 1) % n]
           + (2 / 3 - uu + 0.5 * uu * u)[:, None] * coef[i % n]
           + (2 / 3 - vv + 0.5 * vv * v)[:, None] * coef[(i + 1) % n]
           + (uu * u / 6)[:, None] * coef[(i + 2) % n])
    return out.view(complex)[:, 0]


def boost_covariance_check(psi0: WaveGrid, vboost: float, T: float,
                           H: HamiltonianSpec) -> float:
    """Relative L2 discrepancy between boost-then-evolve and evolve-then-boost.

    Free dynamics, one axis.  Route A evolves and then applies the boost
    transform (resample at x - vT, multiply by the boundary-term phase);
    route B boosts the initial state and evolves.  Free evolution over T is
    the single exact spectral phase exp(-i E_k T / hbar).  The resampling is
    the periodic cubic spline of ``_periodic_resample`` (B-spline
    coefficients from one FFT division), so the discrepancy decreases as h^4.
    """
    if psi0.spec.ndim != 1:
        raise ValueError("boost check is defined on one-axis grids")
    psi_T = _free_propagate(psi0, H, T).amplitudes
    lo, hi, _ = psi0.spec.axes[0]
    if abs(vboost * T) >= 0.5 * (hi - lo):
        raise ValueError("boost displacement exceeds half the box")
    m = H.masses[0]
    hbar = H.hbar
    x = psi0.spec.coords(0)

    shifted = _periodic_resample(psi0.spec, psi_T, x - vboost * T)
    phase = np.exp(1j * m * (vboost * x - 0.5 * vboost ** 2 * T) / hbar)
    route_a = phase * shifted

    boosted0 = np.exp(1j * m * vboost * x / hbar) * psi0.amplitudes
    route_b = _free_propagate(replace(psi0, amplitudes=boosted0), H, T).amplitudes

    return _l2(route_a - route_b) / _l2(route_b)


def dress_wavefunction(psi: WaveGrid, anchor: int) -> WaveGrid:
    """Relational state seen from the anchor particle.

    Restricts the bare amplitudes to the slice where the anchor coordinate is
    zero (the relational chart), keeping the remaining axes in particle
    order: the pure composition form.
    """
    if psi.anchor is not None:
        raise ValueError("dress_wavefunction expects a bare state")
    if psi.spec.ndim < 2:
        raise ValueError("need at least two particle axes to dress")
    if not 0 <= anchor < psi.spec.ndim:
        raise IndexError("anchor axis out of range")
    x = psi.spec.coords(anchor)
    idx0 = int(np.argmin(np.abs(x)))
    if abs(x[idx0]) > 1e-12 * max(1.0, abs(x).max()):
        raise ValueError("grid axis must contain the origin for slicing")
    amp = np.take(psi.amplitudes, idx0, axis=anchor)
    axes = tuple(ax for a, ax in enumerate(psi.spec.axes) if a != anchor)
    return WaveGrid(GridSpec(axes), psi.t, amp, anchor=anchor)


def frame_change(psi: WaveGrid, new_anchor: int,
                 z_phase: CocycleAccumulator) -> WaveGrid:
    """Re-anchor a relational state on another particle.

    The coordinate relabeling xbar^j_k = xbar^i_k - xbar^i_j is an exact
    index permutation on matching symmetric periodic grids (the old anchor
    axis reappears as -xbar^i_j), followed by the inverse frame-change phase.
    Unit-modulus phase and permutation make this an exact L2 isometry.
    """
    if psi.anchor is None:
        raise ValueError("frame_change expects a relational state")
    i = psi.anchor
    ndim = psi.spec.ndim
    n_particles = ndim + 1
    if not 0 <= new_anchor < n_particles:
        raise IndexError("new anchor out of range")
    j = new_anchor
    if j == i:
        return replace(psi, amplitudes=psi.amplitudes * z_phase.inverse_phase)
    lo, hi, n = psi.spec.axes[0]
    if any(ax != (lo, hi, n) for ax in psi.spec.axes):
        raise ValueError("frame change needs identical axes")
    if abs(lo + hi) > 1e-12 * (hi - lo) or n % 2:
        raise ValueError("frame change needs symmetric axes with even point count")

    old_particles = [p for p in range(n_particles) if p != i]
    new_particles = [p for p in range(n_particles) if p != j]
    new_axis_of = {p: a for a, p in enumerate(new_particles)}

    # new coordinates y_q = x_q - x_j; the old ones are xbar_q = x_q - x_i,
    # so xbar_j = -y_i and xbar_q = y_q - y_i.  On x_r = lo + r h with
    # lo = -hi these are the exact index maps n - r_i and r_q - r_i + n/2
    # (mod n).
    grids = np.meshgrid(*[np.arange(n)] * ndim, indexing="ij")
    r_yi = grids[new_axis_of[i]]
    old_index = []
    for q in old_particles:
        if q == j:
            old_index.append((n - r_yi) % n)
        else:
            old_index.append((grids[new_axis_of[q]] - r_yi + n // 2) % n)
    amp = psi.amplitudes[tuple(old_index)] * z_phase.inverse_phase
    return WaveGrid(psi.spec, psi.t, amp, anchor=j)


def meta_action(psi_series: list[WaveGrid], hpf: HPFSample, direction,
                hbar: float = 1.0) -> complex:
    """Expectation of the direction-contracted covariant derivative.

    ``direction = (xi_t, xi_x)`` must have a nonzero time component.  Zero on
    states of the form psi0 * exp(i S / hbar) with constant psi0; used as a
    stationarity diagnostic.
    """
    xi_t, xi_x = float(direction[0]), float(direction[1])
    if xi_t == 0.0:
        raise ValueError("direction must not be vertical (zero time component)")
    psi, dx_psi, dt_psi = _covariant_derivatives(psi_series, hpf, hbar)
    d_contracted = xi_t * dt_psi + xi_x * dx_psi
    # interior quadrature: the edge stencils are one-sided
    return complex(np.vdot(psi.amplitudes[1:-1], d_contracted[1:-1])
                   * psi.spec.cell_volume)


# Binary layout of both artifacts (little-endian): "CQMW", u32 version, one
# grid block per axis set {u32 ndim, per axis (f64 lo, f64 hi, u32 n), f64 t},
# f64 scalars, then the row-major complex payload over every block's axes.
# A snapshot is one block and no scalars; a kernel is (grid, t1), (grid, t0)
# and (mass, hbar).

def _write_artifact(fname, blocks, scalars, payload) -> None:
    """Write ``blocks`` ((GridSpec, t) pairs), f64 ``scalars`` and ``payload``."""
    with open(fname, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<I", _VERSION))
        for spec, t in blocks:
            fh.write(struct.pack("<I", spec.ndim))
            for lo, hi, n in spec.axes:
                fh.write(struct.pack("<ddI", lo, hi, n))
            fh.write(struct.pack("<d", t))
        fh.write(struct.pack(f"<{len(scalars)}d", *scalars))
        fh.write(np.ascontiguousarray(payload).astype("<c16").tobytes())


def _read_artifact(fname, n_blocks: int, n_scalars: int):
    """Read ``(blocks, scalars, payload)``; the payload's shape is the blocks'
    grid shapes concatenated, and anything after it is an error."""
    with open(fname, "rb") as fh:
        def take(fmt):
            size = struct.calcsize(fmt)
            data = fh.read(size)
            if len(data) != size:
                raise ValueError(f"truncated file: expected {size} bytes at "
                                 f"offset {fh.tell() - len(data)}, got {len(data)}")
            return struct.unpack(fmt, data)

        if fh.read(4) != _MAGIC:
            raise ValueError("not a cqm binary file")
        (version,) = take("<I")
        if version != _VERSION:
            raise ValueError(f"unsupported format version {version}")
        blocks = []
        for _ in range(n_blocks):
            (ndim,) = take("<I")
            axes = tuple(take("<ddI") for _ in range(ndim))
            (t,) = take("<d")
            blocks.append((GridSpec(axes), t))
        scalars = take(f"<{n_scalars}d")
        shape = sum((spec.shape for spec, _ in blocks), ())
        (data,) = take(f"<{16 * int(np.prod(shape))}s")
        extra = len(fh.read())
        if extra:
            raise ValueError(f"{extra} trailing bytes after the payload")
    return blocks, scalars, np.frombuffer(data, dtype="<c16").reshape(shape).copy()


def write_wavegrid(fname, psi: WaveGrid) -> None:
    """Binary snapshot: header and one grid block, then the amplitudes."""
    _write_artifact(fname, [(psi.spec, psi.t)], (), psi.amplitudes)


def read_wavegrid(fname) -> WaveGrid:
    [(spec, t)], _, amplitudes = _read_artifact(fname, 1, 0)
    return WaveGrid(spec, t, amplitudes)
