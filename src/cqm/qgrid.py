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
same grids carry the relational (anchored) states; dressing a bare
N-particle state restricts it to the zero-anchor slice, and changing the
anchor is an exact index permutation of the reduced grid times a
unit-modulus phase.
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
    "density_csv",
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


@dataclass(frozen=True)
class WaveGrid:
    """Complex amplitudes on a grid at one time, bare or anchored."""

    spec: GridSpec
    t: float
    amplitudes: np.ndarray
    frame: str = "bare"
    anchor: int | None = None

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != self.spec.shape:
            raise ValueError("amplitude shape does not match grid")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amp)
        if self.frame not in ("bare", "relational"):
            raise ValueError("frame must be 'bare' or 'relational'")
        if self.frame == "relational" and self.anchor is None:
            raise ValueError("relational frame needs an anchor")

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
    frame: str = "bare"
    anchor: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
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
    if H.frame != psi.frame or H.anchor != psi.anchor:
        raise ValueError("Hamiltonian frame does not match the state")


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
    spline = hpf.spline()
    amp = psi.amplitudes
    before, after = psi_series[mid - 1], psi_series[mid + 1]
    dpsi_dx = np.gradient(amp, psi.spec.spacing(0))
    dpsi_dt = (after.amplitudes - before.amplitudes) / (after.t - before.t)
    S_x = spline(psi.t, x, dx=0, dy=1)[0]
    S_t = spline(psi.t, x, dx=1, dy=0)[0]
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
    """Cubic-spline resampling of a one-axis grid function, periodic wrap."""
    from scipy.interpolate import CubicSpline

    lo, hi, _ = spec.axes[0]
    x = np.concatenate([spec.coords(0), [hi]])
    q = (points - lo) % (hi - lo) + lo

    def resample(part):
        wrapped = np.concatenate([part, [part[0]]])
        return CubicSpline(x, wrapped, bc_type="periodic")(q)

    return resample(values.real) + 1j * resample(values.imag)


def boost_covariance_check(psi0: WaveGrid, vboost: float, T: float,
                           H: HamiltonianSpec) -> float:
    """Relative L2 discrepancy between boost-then-evolve and evolve-then-boost.

    Free dynamics, one axis.  Route A evolves and then applies the boost
    transform (resample at x - vT, multiply by the boundary-term phase);
    route B boosts the initial state and evolves.  Free evolution over T is
    the single exact spectral phase exp(-i E_k T / hbar).  The resampling is
    a periodic cubic spline, so the discrepancy decreases as h^4.
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


def _zero_index(spec: GridSpec, axis: int) -> int:
    x = spec.coords(axis)
    idx = int(np.argmin(np.abs(x)))
    if abs(x[idx]) > 1e-12 * max(1.0, abs(x).max()):
        raise ValueError("grid axis must contain the origin for slicing")
    return idx


def dress_wavefunction(psi: WaveGrid, anchor: int) -> WaveGrid:
    """Relational state seen from the anchor particle.

    Restricts the bare amplitudes to the slice where the anchor coordinate is
    zero (the relational chart), keeping the remaining axes in particle
    order: the pure composition form.
    """
    if psi.frame != "bare":
        raise ValueError("dress_wavefunction expects a bare state")
    if psi.spec.ndim < 2:
        raise ValueError("need at least two particle axes to dress")
    if not 0 <= anchor < psi.spec.ndim:
        raise IndexError("anchor axis out of range")
    idx0 = _zero_index(psi.spec, anchor)
    amp = np.take(psi.amplitudes, idx0, axis=anchor)
    axes = tuple(ax for a, ax in enumerate(psi.spec.axes) if a != anchor)
    return WaveGrid(GridSpec(axes), psi.t, amp, frame="relational", anchor=anchor)


def _compatible_symmetric_axes(spec: GridSpec) -> tuple[float, float, int]:
    lo, hi, n = spec.axes[0]
    for ax in spec.axes:
        if ax != (lo, hi, n):
            raise ValueError("frame change needs identical axes")
    if abs(lo + hi) > 1e-12 * (hi - lo) or n % 2:
        raise ValueError("frame change needs symmetric axes with even point count")
    return lo, hi, n


def frame_change(psi: WaveGrid, new_anchor: int,
                 z_phase: CocycleAccumulator) -> WaveGrid:
    """Re-anchor a relational state on another particle.

    The coordinate relabeling xbar^j_k = xbar^i_k - xbar^i_j is an exact
    index permutation on matching symmetric periodic grids (the old anchor
    axis reappears as -xbar^i_j), followed by the inverse frame-change phase.
    Unit-modulus phase and permutation make this an exact L2 isometry.
    """
    if psi.frame != "relational":
        raise ValueError("frame_change expects a relational state")
    i = psi.anchor
    ndim = psi.spec.ndim
    n_particles = ndim + 1
    if not 0 <= new_anchor < n_particles:
        raise IndexError("new anchor out of range")
    j = new_anchor
    if j == i:
        return replace(psi, amplitudes=psi.amplitudes * z_phase.inverse_phase)
    lo, hi, n = _compatible_symmetric_axes(psi.spec)

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
    return WaveGrid(psi.spec, psi.t, amp, frame="relational", anchor=j)


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


# Binary layout shared by .cqmw and .cqmk (little-endian): "CQMW", u32
# version, then a grid block {u32 ndim, per axis (f64 lo, f64 hi, u32 n),
# f64 t}; a kernel file adds a second grid block and its own fields.

def _write_grid_block(fh, spec: GridSpec, t: float) -> None:
    fh.write(struct.pack("<I", spec.ndim))
    for lo, hi, n in spec.axes:
        fh.write(struct.pack("<ddI", lo, hi, n))
    fh.write(struct.pack("<d", t))


def _write_header(fh, spec: GridSpec, t: float) -> None:
    fh.write(_MAGIC)
    fh.write(struct.pack("<I", _VERSION))
    _write_grid_block(fh, spec, t)


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"truncated file: expected {size} bytes at offset "
                         f"{fh.tell() - len(data)}, got {len(data)}")
    return data


def _unpack(fh, fmt: str) -> tuple:
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))


def _read_grid_block(fh) -> tuple[GridSpec, float]:
    (ndim,) = _unpack(fh, "<I")
    axes = tuple(_unpack(fh, "<ddI") for _ in range(ndim))
    (t,) = _unpack(fh, "<d")
    return GridSpec(axes), t


def _read_header(fh) -> tuple[GridSpec, float]:
    if fh.read(4) != _MAGIC:
        raise ValueError("not a cqm binary file")
    (version,) = _unpack(fh, "<I")
    if version != _VERSION:
        raise ValueError(f"unsupported format version {version}")
    return _read_grid_block(fh)


def _read_amplitudes(fh, shape: tuple[int, ...]) -> np.ndarray:
    """Read the payload that ends every file; anything after it is an error."""
    data = _read_exact(fh, 16 * int(np.prod(shape)))
    extra = len(fh.read())
    if extra:
        raise ValueError(f"{extra} trailing bytes after the payload")
    return np.frombuffer(data, dtype="<c16").reshape(shape).copy()


def write_wavegrid(fname, psi: WaveGrid) -> None:
    """Binary snapshot: header, then interleaved re/im f64 amplitudes."""
    with open(fname, "wb") as fh:
        _write_header(fh, psi.spec, psi.t)
        fh.write(np.ascontiguousarray(psi.amplitudes).astype("<c16").tobytes())


def read_wavegrid(fname) -> WaveGrid:
    with open(fname, "rb") as fh:
        spec, t = _read_header(fh)
        return WaveGrid(spec, t, _read_amplitudes(fh, spec.shape))


def density_csv(fname, psi: WaveGrid) -> None:
    """Per-axis |psi|^2 marginals (integrated over the other axes)."""
    import csv as _csv

    with open(fname, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["axis", "x", "density"])
        dens = np.abs(psi.amplitudes) ** 2
        for a in range(psi.spec.ndim):
            other = tuple(b for b in range(psi.spec.ndim) if b != a)
            marg = dens.sum(axis=other) * psi.spec.cell_volume / psi.spec.spacing(a)
            for xv, dv in zip(psi.spec.coords(a), marg):
                w.writerow([a, repr(float(xv)), repr(float(dv))])
