"""Time-sliced propagators for the free model and their relational form.

The kernel between two time slices is built by composing exact one-step free
kernels with grid quadrature.  The Fresnel integrand is violently oscillatory,
so the composition runs on an internally oversampled copy of the grid (chosen
so that quadrature-alias stationary points fall outside the box) with a
smooth taper on the outermost part of each intermediate integration; the
result is sampled back onto the reporting grid.  On the uniform grid the
one-step kernel K1 is a chirp in k - l, so the two-slice kernel K1 W K1 is a
chirp in each index times a Hankel matrix in k + l, whose generating sequence
is one chirp-z transform of the taper (Bluestein's convolution).  The chain
advances two slices per step, each step one circular convolution by FFT
(Golub & Van Loan, Matrix Computations, sec. 4.7) through numpy's pocketfft
gufuncs (`qgrid._fft_plan`) at an 11-smooth length; an even slice count starts
from the closed-form two-slice kernel, an odd one from K1.  The chain
K = K1 W K1 ... W K1 is complex symmetric (K = K^T), because K1 is symmetric
Toeplitz and the taper W diagonal.  The taper is even about the box centre and
vanishes at the first grid point, so the reflection K[i, j] = K[n - i, n - j]
holds exactly for i, j >= 1; only the n//2 + 1 columns 0..n//2 are
propagated.  A chain of fewer slices of the same step and parity is a
snapshot of a longer one on the way.  The propagated columns evolve
independently, so they run in row bands, one thread per CPU in the process's
affinity mask (limit it with e.g. ``taskset``), and each band takes its rows
a block of about 1 MiB at a time; the bits depend on neither the band count
nor the block size.  Comparisons against the closed-form kernel are meaningful
on the central half-box, away from wrap-around artifacts.  A kernel with an
``anchor`` is relational; it meets only kernels and states of that anchor.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classical import HPFSample
from .cocycle import LagrangianModel
from .qgrid import (GridSpec, WaveGrid, _check_anchor, _fft_plan,
                    _read_artifact, _write_artifact)

__all__ = [
    "SliceScheme",
    "PropagatorKernel",
    "free_kernel_exact",
    "sliced_propagator",
    "relational_propagator",
    "compose_kernels",
    "classical_split",
    "propagate_wavefunction",
    "write_kernel",
    "read_kernel",
]


@dataclass(frozen=True)
class SliceScheme:
    """Slice count, spatial grid and the time window of the propagator."""

    n_slices: int
    grid: GridSpec
    t0: float
    t1: float

    def __post_init__(self):
        if self.n_slices < 1:
            raise ValueError("need at least one slice")
        if not self.t1 > self.t0:
            raise ValueError("need t1 > t0")
        if self.grid.ndim != 1:
            raise ValueError("sliced propagators support one-axis grids")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.n_slices


@dataclass(frozen=True)
class PropagatorKernel:
    """Complex kernel matrix K[x, x0] between the t0 and t1 grids, bare or anchored."""

    matrix: np.ndarray
    grid: GridSpec
    t0: float
    t1: float
    mass: float
    hbar: float
    anchor: int | None = None

    def __post_init__(self):
        _check_anchor(self.anchor, self.grid.ndim)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @classmethod
    def delta(cls, grid: GridSpec, t: float, mass: float, hbar: float) -> "PropagatorKernel":
        """Zero-duration limit: the discrete delta (identity / cell volume)."""
        n = grid.shape[0]
        return cls(np.eye(n, dtype=complex) / grid.spacing(0), grid, t, t,
                   mass, hbar)


def _free_kernel_row(grid: GridSpec, T: float, mass: float, hbar: float) -> np.ndarray:
    """Generating row g[k] = K(x_k, x_0) of the closed-form free kernel
    sqrt(m/2 pi i hbar T) exp(i m dx^2 / 2 hbar T)."""
    x = grid.coords(0)
    dx = x - x[0]
    pref = np.sqrt(mass / (2j * np.pi * hbar * T))
    return pref * np.exp(1j * mass * dx ** 2 / (2 * hbar * T))


def _symmetric_toeplitz(g: np.ndarray) -> np.ndarray:
    """Read-only view T[i, j] = g[|i - j|]: row i is the window of the row
    mirrored about 0, ``concat(g[:0:-1], g)``, that starts at n - 1 - i."""
    mirrored = np.concatenate((g[:0:-1], g))
    return sliding_window_view(mirrored, g.size)[::-1]


def free_kernel_exact(grid: GridSpec, T: float, mass: float, hbar: float) -> np.ndarray:
    """Closed-form free kernel matrix, the symmetric Toeplitz K[i, j] = g[|i - j|]."""
    return _symmetric_toeplitz(_free_kernel_row(grid, T, mass, hbar)).copy()


def _quadrature_weight(grid: GridSpec) -> np.ndarray:
    """Tapered quadrature weights of an intermediate integration, shape (n,).

    Cell width times a quintic smoothstep that falls from 1 at 80% of the
    half-box to 0 at 98.5%.
    """
    lo, hi, _ = grid.axes[0]
    r = np.abs(grid.coords(0) - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
    s = np.clip((r - 0.80) / (0.985 - 0.80), 0.0, 1.0)
    # s * s * s, not s ** 3: np.power's AVX-512 loop rounds differently
    taper = 1.0 - s * s * s * (6 * s ** 2 - 15 * s + 10)
    return taper * grid.spacing(0)


def _alias_safe_oversampling(n_out: int, box: float, dt: float, mass: float,
                             hbar: float) -> int:
    # quadrature aliases of the one-step Fresnel factor have stationary points
    # displaced by pi*hbar*dt/(mass*h); keep them outside 0.75*box
    n_min = int(np.ceil(0.75 * box * box * mass / (np.pi * hbar * dt)))
    factor = max(1, -(-n_min // n_out))
    n_int = n_out * factor
    if n_int > _N_INT_CAP:
        raise ValueError(
            f"internal quadrature budget exceeded (needs {n_int} points); "
            "use thicker slices or a smaller box")
    return n_int


# largest oversampled grid the chain may build
_N_INT_CAP = 8192
# bytes of the row block each band of the chain works through at a time
_CHAIN_BLOCK_BYTES = 1 << 20


def _next_fast_len(target: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= target: the 11-smooth lengths that
    pocketfft transforms fastest (``scipy.fft.next_fast_len`` for complex
    input)."""
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _chain_threads() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _chain(grid: GridSpec, dt: float, mass: float, hbar: float,
           counts: tuple[int, ...]) -> list[np.ndarray]:
    """Kernel matrices of the chains of m slices of step dt, for each m >= 2
    in the ascending counts.

    On the fine grid (spacing h, n points), with alpha = mass h^2 / (2 hbar dt),
    p = sqrt(mass / (2 pi i hbar dt)) and indices counted from the box centre,
    k' = k - n/2, K1[k, l] = p exp(i alpha (k' - l')^2) and the two-slice
    kernel is chirp times Hankel:
    K2[k, j] = p^2 exp(i alpha (k'^2 + j'^2)) F(k' + j'), with
    F(s) = sum_l w_l exp(2 i alpha l'^2) exp(-2 i alpha l' s) from one
    Bluestein convolution.  So (K2 W v)[k] = p^2 exp(i alpha k'^2)
    sum_j F(k' + j') exp(i alpha j'^2) w_j v_j is one circular convolution,
    and one FFT pair advances the chain two slices.  Even counts start from
    K2's closed-form columns, odd counts from K1's; the counts of one parity
    are snapshots of one run, so the kernel of m slices is the same bits
    whatever else is requested.  Only columns 0..n_out//2 are propagated; the
    others come from K[i, j] = K[n_out - i, n_out - j] and row 0 from K = K^T
    (see the module docstring).  The centred chirps are even under that
    reflection, so the rounding of their phases keeps it.

    The propagated columns run in contiguous row bands, one thread per CPU in
    the affinity mask (``_chain_threads``; a tool such as ``taskset`` limits
    it), inline when there is one band.  Each band takes its rows in blocks
    of ``_CHAIN_BLOCK_BYTES`` (no more rows than the largest band), runs
    both parities on each block in its own block buffer, allocated here with
    every other buffer, and writes the block's columns of each K.  Every
    column sees the same operations in the same order, so the bits depend on
    neither the band count nor the block size.
    """
    lo, hi, n_out = grid.axes[0]
    n = _alias_safe_oversampling(n_out, hi - lo, dt, mass, hbar)
    fine = GridSpec(((lo, hi, n),))
    stride = n // n_out
    alpha = mass * fine.spacing(0) ** 2 / (2 * hbar * dt)
    p2 = mass / (2j * np.pi * hbar * dt)
    weight = _quadrature_weight(fine)

    def chirp(u):
        # exp(i alpha (u/2)^2), u = 2k' an integer also for odd n
        return np.exp(1j * (0.25 * alpha * u.astype(float) ** 2))

    # F(k' + j') = exp(-i alpha (k' + j')^2)
    #              sum_l (w_l exp(i alpha l'^2)) exp(i alpha (k' + j' - l')^2),
    # held as F[s] at s = k + j = 0..2n - 2: a linear convolution over
    # s - l = -(n - 1)..2n - 2, which a circular length of 3n - 2 keeps free
    # of wrap-around
    s = np.arange(2 * n - 1)
    centred = chirp(2 * s[:n] - n)
    L3 = _next_fast_len(3 * n - 2)
    fft, ifft, ((axes, inv_L3),) = _fft_plan((L3,))
    a = np.zeros(L3, dtype=complex)
    a[:n] = weight * centred
    b = np.zeros(L3, dtype=complex)
    b[:2 * n - 1] = chirp(2 * s - n)
    b[L3 - n + 1:] = chirp(2 * np.arange(1 - n, 0) - n)
    fft(a, 1, axes=axes, out=a)
    fft(b, 1, axes=axes, out=b)
    np.multiply(a, b, out=a)
    ifft(a, inv_L3, axes=axes, out=a)
    F = a[:2 * n - 1] * chirp(2 * s - 2 * n).conj()

    # a column held reversed (u_j at n - 1 - j) convolved with
    # hank[t] = F[n - 1 + t], t = -(n - 1)..n - 1, gives sum_j F[k + j] u_j
    # at k; one held in order needs hank[-t] and comes out reversed, so the
    # orientation flips with every pair.  L >= 2n - 1 keeps 0..n - 1 clean.
    L = _next_fast_len(2 * n - 1)
    _, _, ((axes, inv_L),) = _fft_plan((L,))
    hank = np.zeros(L, dtype=complex)
    hank[:n] = F[n - 1:]
    hank[L - n + 1:] = F[:n - 1]
    to_normal = fft(hank, 1, axes=axes, out=hank)
    to_reversed = to_normal[-np.arange(L) % L]
    # between pairs the buffer holds y = K2 W v without its output chirp
    # p^2 exp(i alpha k'^2), which joins the next step's taper; the zeros
    # past n clear the wrap-around
    diag = np.zeros(L, dtype=complex)
    diag[:n] = p2 * weight * centred ** 2
    diag_rev = np.zeros(L, dtype=complex)
    diag_rev[:n] = diag[n - 1::-1]
    out_chirp = p2 * centred[::stride]

    # column c of the chain is row c here, so the FFTs run along the last
    # axis; every buffer is allocated here, and each band runs its rows
    # through its own block buffer
    h = n_out // 2 + 1
    n_bands = min(_chain_threads(), h)
    bounds = [h * i // n_bands for i in range(n_bands + 1)]
    block = max(1, min(_CHAIN_BLOCK_BYTES // (16 * L),
                       max(b - a for a, b in zip(bounds, bounds[1:]))))
    buffers = np.empty((n_bands, block, L), dtype=complex)
    found = {m: np.empty((n_out, n_out), dtype=complex) for m in counts}
    runs = []
    for first in (1, 2):
        wanted = [m for m in counts if m % 2 == first % 2]
        if not wanted:
            continue
        if first == 1:
            # K1[k, c] = g[|k - c|] is a window of the row mirrored about 0;
            # these columns hold v itself, so the first step takes
            # w_j exp(i alpha j'^2)
            start = _symmetric_toeplitz(
                _free_kernel_row(fine, dt, mass, hbar))[::stride][:h]
            step = np.zeros(L, dtype=complex)
            step[:n] = weight * centred
        else:
            # K2's columns without their row chirp: exp(i alpha c'^2) F[k + c]
            start = sliding_window_view(F, n)[::stride][:h]
            step = diag
        runs.append((first, wanted, start, step))

    def run_band(buf: np.ndarray, band_lo: int, band_hi: int) -> None:
        for lo in range(band_lo, band_hi, block):
            hi = min(lo + block, band_hi)
            for first, wanted, start, step in runs:
                rows = buf[:hi - lo]
                rows[:, n:] = 0.0
                if first == 1:
                    rows[:, :n] = start[lo:hi]
                else:
                    np.multiply(centred[stride * lo:stride * hi:stride, None],
                                start[lo:hi], out=rows[:, :n])
                flipped = False
                for m in range(first, wanted[-1] + 1, 2):
                    if m > first:
                        rows *= step
                        # in place on the C-contiguous rows
                        fft(rows, 1, axes=axes, out=rows)
                        rows *= to_normal if flipped else to_reversed
                        ifft(rows, inv_L, axes=axes, out=rows)
                        flipped = not flipped
                        step = diag_rev if flipped else diag
                    if m in wanted:
                        snap = rows[:, n - 1::-stride] if flipped else rows[:, :n:stride]
                        np.multiply(snap, out_chirp, out=found[m][:, lo:hi].T)

    if n_bands == 1:
        run_band(buffers[0], 0, h)
    else:
        from concurrent.futures import ThreadPoolExecutor

        # numpy's FFTs and ufunc loops release the GIL
        with ThreadPoolExecutor(n_bands) as pool:
            list(pool.map(run_band, buffers, bounds[:-1], bounds[1:]))
    for K in found.values():
        K[1:, h:] = K[:0:-1, n_out - h:0:-1]
        K[0, h:] = K[h:, 0]
    return [found[m] for m in counts]


def sliced_propagator(model: LagrangianModel, scheme: SliceScheme,
                      mass: float | None = None) -> PropagatorKernel:
    """Compose exact one-step free kernels into the bare propagator.

    Free model only; ``mass`` defaults to a one-dimensional model's.  One
    slice returns the exact one-step kernel sampled on the grid; more slices
    run the quadrature chain on the oversampled grid, two slices per FFT pair
    from the closed-form two-slice kernel (even counts) or the one-step kernel
    (odd counts), holding n_out/2 + 1 propagated columns in O(n_out * n_int)
    memory.
    """
    if model.potential is not None:
        raise ValueError("sliced propagators are implemented for the free model")
    hbar = model.params.hbar
    if mass is None:
        if model.params.dim != 1:
            raise ValueError("bare slicing needs a one-dimensional configuration")
        mass = float(model.params.masses[0])
    M = scheme.n_slices
    if M == 1:
        K = free_kernel_exact(scheme.grid, scheme.dt, mass, hbar)
    else:
        (K,) = _chain(scheme.grid, scheme.dt, mass, hbar, (M,))
    return PropagatorKernel(K, scheme.grid, scheme.t0, scheme.t1, mass, hbar)


def relational_propagator(model: LagrangianModel, scheme: SliceScheme,
                          anchor: int) -> PropagatorKernel:
    """Sliced propagator of the anchored relational dynamics (two particles).

    The reduced coordinate carries the non-anchor particle's mass, matching
    the kinetic term of the relational Lagrangian.
    """
    params = model.params
    if params.n_particles != 2 or params.spatial_dim != 1:
        raise ValueError("relational slicing is implemented for N=2, d=1")
    if not 0 <= anchor < 2:
        raise IndexError("anchor out of range")
    kernel = sliced_propagator(model, scheme, mass=float(params.masses[1 - anchor]))
    return replace(kernel, anchor=anchor)


def compose_kernels(later: PropagatorKernel, earlier: PropagatorKernel) -> PropagatorKernel:
    """Chain two kernels over the shared intermediate grid (tapered quadrature)."""
    for name in ("grid", "mass", "hbar", "anchor"):
        if getattr(later, name) != getattr(earlier, name):
            raise ValueError(f"kernels must share the {name}")
    if abs(later.t0 - earlier.t1) > 1e-12:
        raise ValueError("kernels are not contiguous in time")
    K = later.matrix @ (_quadrature_weight(later.grid)[:, None] * earlier.matrix)
    return replace(later, matrix=K, t0=earlier.t0)


def classical_split(kernel: PropagatorKernel, hpf: HPFSample | None = None):
    """Split K = normalization * exp(i S_c / hbar) against the critical action.

    Returns (S_c field, normalization field, stats).  The free critical action
    between grid points is closed-form; stats report the normalization's
    spread over the central half-box, where it should be a constant.  If a
    principal-function table anchored at one grid column is supplied, that
    column of S_c is cross-checked over the grid points the table covers and
    the deviation reported; the table must start at the kernel's start time,
    from a grid point (to 1e-9 of a grid step), and cover the kernel's end
    time.
    """
    x = kernel.grid.coords(0)
    T = kernel.duration
    if T <= 0:
        raise ValueError("classical split needs a finite duration")
    S_c = kernel.mass * (x[:, None] - x[None, :]) ** 2 / (2 * T)
    # kernel.matrix * exp(-i S_c / hbar), in one complex buffer
    normalization = -1j * S_c / kernel.hbar
    np.exp(normalization, out=normalization)
    np.multiply(kernel.matrix, normalization, out=normalization)
    lo, hi, _ = kernel.grid.axes[0]
    center = 0.5 * (lo + hi)
    cen = np.abs(x - center) <= 0.25 * (hi - lo)
    block = normalization[np.ix_(cen, cen)]
    mean = block.mean()
    stats = {
        "normalization_mean": complex(mean),
        "max_rel_deviation": float(np.abs(block - mean).max() / np.abs(mean)),
    }
    if hpf is not None:
        if hpf.t0 != kernel.t0:
            raise ValueError(f"principal-function table starts at t = {hpf.t0!r}, "
                             f"the kernel at t = {kernel.t0!r}")
        if not hpf.t_grid[0] <= kernel.t1 <= hpf.t_grid[-1]:
            raise ValueError("principal-function table does not cover the end time")
        j = int(np.argmin(np.abs(x - hpf.x0[0])))
        if abs(x[j] - hpf.x0[0]) > 1e-9 * (x[1] - x[0]):
            raise ValueError(f"principal-function table starts at x = "
                             f"{float(hpf.x0[0])!r}, not a grid point")
        covered = (x >= hpf.x_grid[0]) & (x <= hpf.x_grid[-1])
        col = hpf.spline(kernel.t1, x[covered])[0]
        stats["hpf_column_deviation"] = float(
            np.abs(S_c[covered, j] - col).max())
    return S_c, normalization, stats


def propagate_wavefunction(kernel: PropagatorKernel, psi0: WaveGrid) -> WaveGrid:
    """Quadrature of K(x, x0) psi0(x0) over the initial grid."""
    if psi0.spec != kernel.grid:
        raise ValueError("state grid does not match the kernel grid")
    if psi0.anchor != kernel.anchor:
        raise ValueError("state anchor does not match the kernel anchor")
    h = kernel.grid.spacing(0)
    amp = kernel.matrix @ psi0.amplitudes * h
    return WaveGrid(kernel.grid, kernel.t1, amp, anchor=kernel.anchor)


def write_kernel(fname, kernel: PropagatorKernel) -> None:
    """Binary layout: the output grid with t1, the input grid with t0, mass
    and hbar, then the row-major complex matrix (README "File formats")."""
    _write_artifact(fname, [(kernel.grid, kernel.t1), (kernel.grid, kernel.t0)],
                    (kernel.mass, kernel.hbar), kernel.matrix)


def read_kernel(fname) -> PropagatorKernel:
    [(grid, t1), (grid_in, t0)], (mass, hbar), matrix = _read_artifact(fname, 2, 2)
    if grid_in != grid:
        raise ValueError("kernel input grid does not match its output grid")
    return PropagatorKernel(matrix, grid, t0, t1, mass, hbar)
