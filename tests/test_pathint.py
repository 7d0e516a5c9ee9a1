import struct
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cqm import pathint
from cqm.bundle import Config, ModelParams
from cqm.classical import hpf_table
from cqm.cocycle import LagrangianModel
from cqm.experiments import run_experiment
from cqm.pathint import (PropagatorKernel, SliceScheme, _alias_safe_oversampling,
                         _chain, _free_kernel_row, _next_fast_len,
                         _quadrature_weight,
                         classical_split, compose_kernels, free_kernel_exact,
                         propagate_wavefunction,
                         read_kernel, relational_propagator,
                         sliced_propagator, write_kernel)
from cqm.qgrid import (GridSpec, HamiltonianSpec, WaveGrid, _fft_plan, evolve,
                       gaussian_packet, read_wavegrid, write_wavegrid)


@pytest.fixture(scope="module")
def grid256():
    return GridSpec(((-15.0, 15.0, 256),))


@pytest.fixture(scope="module")
def kernel256(grid256):
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    return sliced_propagator(free1, SliceScheme(8, grid256, 0.0, 1.0))


def _central(grid):
    x = grid.coords(0)
    return np.abs(x) <= 7.5


def test_kernel_matches_analytic(grid256, kernel256):
    cen = _central(grid256)
    exact = free_kernel_exact(grid256, 1.0, 1.0, 1.0)
    num = np.linalg.norm((kernel256.matrix - exact)[np.ix_(cen, cen)])
    den = np.linalg.norm(exact[np.ix_(cen, cen)])
    assert num / den < 1e-2


def test_kernel_modulus_uniform(grid256, kernel256):
    cen = _central(grid256)
    mod = np.abs(kernel256.matrix[np.ix_(cen, cen)])
    assert mod.std() / mod.mean() < 1e-3


def test_single_slice_is_exact(grid256):
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    one = sliced_propagator(free1, SliceScheme(1, grid256, 0.0, 1.0))
    exact = free_kernel_exact(grid256, 1.0, 1.0, 1.0)
    assert np.abs(one.matrix - exact).max() < 1e-13


def _closed_form(grid, T, mass, hbar=1.0):
    x = grid.coords(0)
    return np.sqrt(mass / (2j * np.pi * hbar * T)) * np.exp(
        1j * mass * (x[:, None] - x[None, :]) ** 2 / (2 * hbar * T))


@pytest.mark.parametrize("n", [512, 3584])
def test_free_kernel_exact_matches_closed_form(n):
    grid = GridSpec(((-15.0, 15.0, n),))
    K = free_kernel_exact(grid, 1.0 / 8, 2.0, 1.0)
    E = _closed_form(grid, 1.0 / 8, 2.0)
    assert np.abs(K - E).max() <= 1e-11 * np.abs(E).max()
    assert np.array_equal(K, K.T)
    # a C-order copy of the window view, the same bits as the gather
    g = _free_kernel_row(grid, 1.0 / 8, 2.0, 1.0)
    k = np.arange(n)
    assert np.array_equal(K, g[np.abs(k[:, None] - k[None, :])])
    assert K.flags.c_contiguous and K.flags.writeable


def _dense_chain(n_out, M, T, mass):
    """The chain K1 @ (w * cols) with dense K1 on the oversampled grid,
    sampled back onto n_out points."""
    n_int = _alias_safe_oversampling(n_out, 30.0, T / M, mass, 1.0)
    fine = GridSpec(((-15.0, 15.0, n_int),))
    K1 = _closed_form(fine, T / M, mass)
    stride = n_int // n_out
    cols = K1[:, ::stride]
    w = _quadrature_weight(fine)[:, None]
    for _ in range(M - 1):
        cols = K1 @ (w * cols)
    return cols[::stride, :]


@pytest.mark.parametrize("n_out, M, T", [
    (128, 4, 1.0),   # oversampled: n_int 896
    (256, 3, 3.0),   # factor 1: n_int = n_out
    (257, 3, 1.0),   # prime n_out: the circulant is padded past 2 n_int - 1
    (128, 2, 1.0),   # the closed-form two-slice kernel, no FFT step
])
def test_fft_chain_matches_dense(n_out, M, T):
    grid = GridSpec(((-15.0, 15.0, n_out),))
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    K = sliced_propagator(free1, SliceScheme(M, grid, 0.0, T)).matrix
    dense = _dense_chain(n_out, M, T, 1.0)
    assert np.abs(K - dense).max() <= 1e-11 * np.abs(dense).max()


@pytest.mark.parametrize("M", [2, 3, 4])
def test_fft_chain_matches_dense_mass_two(M):
    # n_int 896, 1408 and 1792: the chirps run to twice mass 1's phases
    grid = GridSpec(((-15.0, 15.0, 128),))
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    K = sliced_propagator(free1, SliceScheme(M, grid, 0.0, 1.0), mass=2.0).matrix
    dense = _dense_chain(128, M, 1.0, 2.0)
    assert np.abs(K - dense).max() <= 1e-11 * np.abs(dense).max()


def _single_step_chain(grid, dt, mass, hbar, counts):
    """The chain one slice per FFT pair: K1 applied as a Toeplitz convolution
    through its circulant embedding, from K1's columns, every count a
    snapshot of one run."""
    from scipy.fft import fft, ifft, next_fast_len

    lo, hi, n_out = grid.axes[0]
    n_int = _alias_safe_oversampling(n_out, hi - lo, dt, mass, hbar)
    fine = GridSpec(((lo, hi, n_int),))
    stride = n_int // n_out
    g = _free_kernel_row(fine, dt, mass, hbar)
    L = next_fast_len(2 * n_int - 1)
    circ = np.zeros(L, dtype=complex)
    circ[:n_int] = g
    circ[L - n_int + 1:] = g[:0:-1]
    G = fft(circ)
    h = n_out // 2 + 1
    k = np.arange(n_int)
    cols = np.zeros((h, L), dtype=complex)
    cols[:, :n_int] = g[np.abs(k[None, :] - stride * np.arange(h)[:, None])]
    weight = _quadrature_weight(fine)
    kernels = []
    for m in range(2, counts[-1] + 1):
        cols[:, :n_int] *= weight
        cols[:, n_int:] = 0.0
        cols = ifft(fft(cols, axis=-1) * G, axis=-1)
        if m in counts:
            K = np.empty((n_out, n_out), dtype=complex)
            K[:, :h] = cols[:, :n_int:stride].T
            K[1:, h:] = K[:0:-1, n_out - h:0:-1]
            K[0, h:] = K[h:, 0]
            kernels.append(K)
    return kernels


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    targets = range(1, 40001)
    assert [_next_fast_len(t) for t in targets] == [next_fast_len(t) for t in targets]


@pytest.mark.parametrize("L", [4096, 7168])
def test_chain_block_transforms_match_numpy_fft(L):
    # the chain transforms (block, L) rows in place with a plan of shape (L,)
    rng = np.random.default_rng(L)
    rows = rng.standard_normal((3, L)) + 1j * rng.standard_normal((3, L))
    fft, ifft, ((axes, inv_L),) = _fft_plan((L,))
    buf = rows.copy()
    assert fft(buf, 1, axes=axes, out=buf) is buf
    assert np.array_equal(buf, np.fft.fft(rows, axis=-1))
    want = np.fft.ifft(buf, axis=-1)
    assert np.array_equal(ifft(buf, inv_L, axes=axes, out=buf), want)


@pytest.mark.parametrize("n_out, dt, mass, counts", [
    (512, 1.0 / 8, 2.0, (2, 3, 4, 8)),   # n_int 3584, the relational chain
    (128, 1.0 / 6, 1.0, (3, 6)),         # both parities in one call
    (256, 1.0, 1.0, (2, 3, 4, 5)),       # factor 1: n_int = n_out
    (257, 1.0 / 3, 1.0, (2, 3, 4, 5)),   # prime n_out
])
def test_two_slice_chain_matches_single_step(n_out, dt, mass, counts):
    grid = GridSpec(((-15.0, 15.0, n_out),))
    got = _chain(grid, dt, mass, 1.0, counts)
    ref = _single_step_chain(grid, dt, mass, 1.0, counts)
    for K, R in zip(got, ref, strict=True):
        assert np.abs(K - R).max() <= 1e-11 * np.abs(R).max()


@pytest.mark.parametrize("mass", [1.0, 2.0])
def test_two_slice_kernel_closed_form(mass):
    # K2[k, j] = p^2 exp(i alpha (k^2 + j^2)) F(k + j) against K1 @ (w * K1)
    grid = GridSpec(((-15.0, 15.0, 64),))
    (K2,) = _chain(grid, 0.5, mass, 1.0, (2,))
    dense = _dense_chain(64, 2, 1.0, mass)
    assert np.abs(K2 - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("counts", [(4, 8), (3, 6), (2, 3, 5, 8)])
def test_kernel_bits_do_not_depend_on_other_counts(counts):
    grid = GridSpec(((-15.0, 15.0, 128),))
    together = _chain(grid, 1.0 / 8, 1.0, 1.0, counts)
    for m, K in zip(counts, together, strict=True):
        (alone,) = _chain(grid, 1.0 / 8, 1.0, 1.0, (m,))
        assert np.array_equal(K, alone)


@pytest.mark.parametrize("n_out, counts", [(128, (4, 8)), (128, (3, 6)),
                                           (128, (2, 3, 5, 8)), (9, (2, 3))])
def test_kernel_bits_do_not_depend_on_band_count(monkeypatch, n_out, counts):
    # each propagated column evolves on its own, so splitting the columns
    # into row bands, and each band into row blocks, moves no bit; n_out = 9
    # has 5 columns, fewer than the last band count asked for.  The blocks
    # are one row, a size that divides no band evenly, the default, and
    # larger than any band.
    grid = GridSpec(((-15.0, 15.0, n_out),))
    n_int = _alias_safe_oversampling(n_out, 30.0, 1.0 / 8, 1.0, 1.0)
    row_bytes = 16 * _next_fast_len(2 * n_int - 1)
    h = n_out // 2 + 1
    runs = []
    for bands, rows in ((1, None), (2, None), (3, None), (h + 1, None),
                        (1, 1), (2, 3), (3, 4), (2, h + 7)):
        monkeypatch.setattr(pathint, "_chain_threads", lambda: bands)
        if rows is not None:
            monkeypatch.setattr(pathint, "_CHAIN_BLOCK_BYTES", rows * row_bytes)
        alive = threading.active_count()
        runs.append(_chain(grid, 1.0 / 8, 1.0, 1.0, counts))
        assert threading.active_count() == alive
        monkeypatch.undo()
    for banded in runs[1:]:
        for K, serial in zip(banded, runs[0], strict=True):
            assert np.array_equal(K, serial)


def test_one_band_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("a one-band chain started a thread")

    monkeypatch.setattr(pathint, "_chain_threads", lambda: 1)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    _chain(GridSpec(((-15.0, 15.0, 64),)), 1.0 / 8, 1.0, 1.0, (3, 4))


@pytest.mark.parametrize("n_out", [128, 257])
def test_chain_symmetries(n_out):
    # K = K^T, and the reflection i -> n - i for i, j >= 1: half the columns
    # are propagated, the other half and row 0 are filled from them
    grid = GridSpec(((-15.0, 15.0, n_out),))
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    K = sliced_propagator(free1, SliceScheme(6, grid, 0.0, 1.0)).matrix
    scale = np.abs(K).max()
    assert np.abs(K - K.T).max() <= 1e-13 * scale
    assert np.abs(K[1:, 1:] - K[:0:-1, :0:-1]).max() <= 1e-13 * scale


def test_half_chain_is_a_snapshot():
    grid = GridSpec(((-15.0, 15.0, 128),))
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    half, full = _chain(grid, 1.0 / 8, 1.0, 1.0, (4, 8))
    assert np.array_equal(
        half, sliced_propagator(free1, SliceScheme(4, grid, 0.0, 0.5)).matrix)
    assert np.array_equal(
        full, sliced_propagator(free1, SliceScheme(8, grid, 0.0, 1.0)).matrix)


@pytest.mark.parametrize("M", [8, 5])
def test_suite_semigroup_matches_separate_halves(M):
    # even M takes the half chain from the full run, odd M builds it apart;
    # either way the check equals composing two independently built halves
    params = {"n_points": 256, "n_slices": M, "n_points_2d": 32}
    model = ModelParams(2, 1, np.array([1.0, 2.0]))
    checks = run_experiment("pathint", model, params, seed=1, out=None)
    (semi,) = [c for c in checks if c.name == "kernel-semigroup"]
    grid = GridSpec(((-15.0, 15.0, 256),))
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    full = sliced_propagator(free1, SliceScheme(M, grid, 0.0, 1.0))
    h1 = sliced_propagator(free1, SliceScheme(M // 2, grid, 0.0, 0.5))
    h2 = sliced_propagator(free1, SliceScheme(M // 2, grid, 0.5, 1.0))
    comp = compose_kernels(h2, h1)
    cen = _central(grid)
    Kc = full.matrix[np.ix_(cen, cen)]
    expected = (np.linalg.norm(comp.matrix[np.ix_(cen, cen)] - Kc)
                / np.linalg.norm(Kc))
    assert abs(semi.residual - expected) <= 1e-12


def test_semigroup():
    # the composition quadrature needs the finer reporting grid: alias
    # stationary points must fall outside the box
    grid = GridSpec(((-15.0, 15.0, 512),))
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    full = sliced_propagator(free1, SliceScheme(8, grid, 0.0, 1.0))
    h1 = sliced_propagator(free1, SliceScheme(4, grid, 0.0, 0.5))
    h2 = sliced_propagator(free1, SliceScheme(4, grid, 0.5, 1.0))
    comp = compose_kernels(h2, h1)
    cen = _central(grid)
    num = np.linalg.norm((comp.matrix - full.matrix)[np.ix_(cen, cen)])
    den = np.linalg.norm(full.matrix[np.ix_(cen, cen)])
    assert num / den < 1e-3


def test_compose_validates_times(grid256, kernel256):
    with pytest.raises(ValueError):
        compose_kernels(kernel256, kernel256)


def test_classical_split(kernel256):
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    hpf = hpf_table(free1, Config(0.0, [kernel256.grid.coords(0)[128]]),
                    np.linspace(0.9, 1.1, 5), np.linspace(-7.0, 7.0, 41), M=8)
    S_c, normalization, stats = classical_split(kernel256, hpf)
    assert stats["max_rel_deviation"] < 1e-3
    # the constant matches the closed-form prefactor
    expected = np.sqrt(1.0 / (2j * np.pi * 1.0))
    assert abs(stats["normalization_mean"] - expected) < 1e-3 * abs(expected)
    assert stats["hpf_column_deviation"] < 1e-8
    recon = normalization * np.exp(1j * S_c / kernel256.hbar)
    assert np.abs(recon - kernel256.matrix).max() < 1e-12


def test_classical_split_needs_table_time(kernel256):
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    hpf = hpf_table(free1, Config(0.0, [kernel256.grid.coords(0)[128]]),
                    np.linspace(1.2, 1.4, 5), np.linspace(-7.0, 7.0, 41), M=8)
    with pytest.raises(ValueError, match="end time"):
        classical_split(kernel256, hpf)


@pytest.mark.parametrize("dx0, t0", [(0.5, 0.0), (0.4, 0.0), (0.0, 0.1)])
def test_classical_split_needs_table_start(kernel256, dx0, t0):
    # a start off the grid compared the table with the nearest column and
    # reported a deviation of 0.41 (half a step) or 0.33 (0.4 of a step)
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    x = kernel256.grid.coords(0)
    hpf = hpf_table(free1, Config(t0, [x[128] + dx0 * (x[1] - x[0])]),
                    np.linspace(0.9, 1.1, 5), np.linspace(-7.0, 7.0, 41), M=8)
    with pytest.raises(ValueError, match="not a grid point|starts at t"):
        classical_split(kernel256, hpf)


def test_propagate_matches_evolve(grid256, kernel256):
    psi0 = gaussian_packet(grid256, 0.0, 1.0, 0.5)
    via_k = propagate_wavefunction(kernel256, psi0)
    via_e = evolve(psi0, HamiltonianSpec((1.0,)), 1.0 / 128, 128)
    err = (np.linalg.norm(via_k.amplitudes - via_e.amplitudes)
           / np.linalg.norm(via_e.amplitudes))
    assert err < 1e-2
    assert via_k.t == pytest.approx(1.0)


def test_propagate_semigroup(grid256):
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    psi0 = gaussian_packet(grid256, 0.0, 1.2, 0.3)
    h1 = sliced_propagator(free1, SliceScheme(4, grid256, 0.0, 0.5))
    h2 = sliced_propagator(free1, SliceScheme(4, grid256, 0.5, 1.0))
    full = sliced_propagator(free1, SliceScheme(8, grid256, 0.0, 1.0))
    two = propagate_wavefunction(h2, propagate_wavefunction(h1, psi0))
    one = propagate_wavefunction(full, psi0)
    err = np.linalg.norm(two.amplitudes - one.amplitudes) / np.linalg.norm(one.amplitudes)
    assert err < 1e-3


def test_delta_limit(grid256):
    delta = PropagatorKernel.delta(grid256, 0.0, 1.0, 1.0)
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    out = propagate_wavefunction(delta, psi0)
    assert np.abs(out.amplitudes - psi0.amplitudes).max() < 1e-12


def test_relational_kernel_mass(grid256):
    free2 = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    scheme = SliceScheme(8, grid256, 0.0, 1.0)
    rel = relational_propagator(free2, scheme, anchor=0)
    assert rel.anchor == 0
    assert rel.mass == 2.0
    exact = free_kernel_exact(grid256, 1.0, 2.0, 1.0)
    cen = _central(grid256)
    num = np.linalg.norm((rel.matrix - exact)[np.ix_(cen, cen)])
    assert num / np.linalg.norm(exact[np.ix_(cen, cen)]) < 1e-2


def test_relational_kernel_small_time_delta():
    # shrinking T drives the reduced kernel towards the discrete delta; the
    # comparison stays on the central half-box where one-step quadrature
    # aliases cannot reach for these durations
    grid = GridSpec(((-15.0, 15.0, 512),))
    free2 = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    psi0 = WaveGrid(grid, 0.0, gaussian_packet(grid, 0.0, 1.0).amplitudes, anchor=0)
    cen = _central(grid)
    errs = []
    for T in (0.8, 0.5, 0.3):
        rel = relational_propagator(free2, SliceScheme(1, grid, 0.0, T), anchor=0)
        out = propagate_wavefunction(rel, psi0)
        errs.append(np.linalg.norm((out.amplitudes - psi0.amplitudes)[cen])
                    / np.linalg.norm(psi0.amplitudes[cen]))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.06


_GRID8 = GridSpec(((-4.0, 4.0, 8),))
_BARE8 = PropagatorKernel.delta(_GRID8, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("build", [
    # an anchor names one of the ndim + 1 particles
    pytest.param(lambda: WaveGrid(GridSpec(_GRID8.axes * 2), 0.0, np.ones((8, 8)),
                                  anchor=-1), id="state-anchor-not-a-particle"),
    # a relational Hamiltonian's anchor is checked where it is stored
    pytest.param(lambda: HamiltonianSpec((1.0,), anchor=2),
                 id="hamiltonian-anchor-not-a-particle"),
    # and a kernel's where it is built, not at its first use
    pytest.param(lambda: PropagatorKernel(np.eye(8), _GRID8, 0.0, 1.0, 1.0, 1.0,
                                          anchor=2), id="kernel-anchor-not-a-particle"),
    pytest.param(lambda: propagate_wavefunction(replace(_BARE8, anchor=0),
                                                WaveGrid(_GRID8, 0.0, np.ones(8))),
                 id="relational-kernel-on-bare-state"),
    pytest.param(lambda: compose_kernels(_BARE8, replace(_BARE8, anchor=0)),
                 id="compose-bare-with-relational"),
    # frame_change looks the anchor up among the particles
    pytest.param(lambda: WaveGrid(_GRID8, 0.0, np.ones(8), anchor=5),
                 id="anchor-5-on-one-axis"),
])
def test_mismatched_anchors_are_refused(build):
    with pytest.raises(ValueError, match="anchor"):
        build()


@pytest.mark.parametrize("field", ["mass", "hbar"])
def test_compose_requires_equal_mass_and_hbar(field):
    with pytest.raises(ValueError, match=f"share the {field}"):
        compose_kernels(_BARE8, replace(_BARE8, **{field: 2.0}))


def test_anchor_swap_alignment(grid256):
    free2 = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    scheme = SliceScheme(8, grid256, 0.0, 1.0)
    k0 = relational_propagator(free2, scheme, anchor=0)
    k1 = relational_propagator(free2, scheme, anchor=1)
    x = grid256.coords(0)
    n = x.size
    flip = (-np.arange(n)) % n
    dm = free2.params.masses[0] - free2.params.masses[1]
    aligned = k0.matrix[np.ix_(flip, flip)] * np.exp(
        1j * dm * (x[:, None] - x[None, :]) ** 2 / 2.0)
    cen = _central(grid256)
    a = aligned[np.ix_(cen, cen)]
    b = k1.matrix[np.ix_(cen, cen)]
    fid = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert fid > 1 - 1e-3


def test_anchor_one_kernel_is_the_bare_mass_one_chain(grid256, kernel256):
    # anchored on particle 1 the reduced coordinate carries masses[0] = 1, so
    # the pathint suite reuses its bare kernel instead of a second chain
    free2 = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    k1 = relational_propagator(free2, SliceScheme(8, grid256, 0.0, 1.0), anchor=1)
    assert np.array_equal(k1.matrix, kernel256.matrix)
    assert (k1.mass, k1.anchor) == (1.0, 1)


def test_refinement_levels_stay_converged():
    # simultaneous grid/slice refinement: the free composition is exact in the
    # slice count, so every level sits on the same quadrature floor (~5e-6),
    # far below the 1e-2 gate; assert sub-gate accuracy and a bounded floor
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    errs = []
    for n, M in ((128, 2), (256, 4), (512, 8)):
        grid = GridSpec(((-15.0, 15.0, n),))
        x = grid.coords(0)
        cen = np.abs(x) <= 7.5
        exact = free_kernel_exact(grid, 1.0, 1.0, 1.0)
        K = sliced_propagator(free1, SliceScheme(M, grid, 0.0, 1.0))
        errs.append(np.linalg.norm((K.matrix - exact)[np.ix_(cen, cen)])
                    / np.linalg.norm(exact[np.ix_(cen, cen)]))
    assert max(errs) < 1e-2
    assert max(errs) < 2.5 * min(errs)


def test_sliced_propagator_rejects_potential(grid256):
    model = LagrangianModel(ModelParams(1, 1, np.array([1.0])),
                            potential=lambda z: np.sum(z * z, axis=-1))
    with pytest.raises(ValueError):
        sliced_propagator(model, SliceScheme(4, grid256, 0.0, 1.0))


def test_scheme_validation(grid256):
    with pytest.raises(ValueError):
        SliceScheme(0, grid256, 0.0, 1.0)
    with pytest.raises(ValueError):
        SliceScheme(4, grid256, 1.0, 0.5)
    spec2 = GridSpec(((-1.0, 1.0, 16), (-1.0, 1.0, 16)))
    with pytest.raises(ValueError):
        SliceScheme(4, spec2, 0.0, 1.0)


def test_kernel_binary_roundtrip(tmp_path, kernel256):
    f = tmp_path / "kernel.cqmk"
    write_kernel(f, kernel256)
    back = read_kernel(f)
    assert back.grid == kernel256.grid
    assert back.t0 == kernel256.t0
    assert back.t1 == kernel256.t1
    assert back.mass == kernel256.mass
    assert np.array_equal(back.matrix, kernel256.matrix)


def test_binary_header_layout(tmp_path, kernel256):
    # README "File formats": "CQMW", u32 version, u32 ndim, per axis
    # (f64 lo, f64 hi, u32 n), f64 t; a kernel adds u32 ndim, axes, f64 t0,
    # f64 mass, f64 hbar before the matrix
    spec = GridSpec(((-2.0, 3.0, 8), (-1.0, 1.0, 16)))
    f = tmp_path / "state.cqmw"
    write_wavegrid(f, WaveGrid(spec, 0.75, np.ones(spec.shape, dtype=complex)))
    head = struct.unpack("<4sII" + "ddI" * 2 + "d", f.read_bytes()[:60])
    assert head == (b"CQMW", 1, 2, -2.0, 3.0, 8, -1.0, 1.0, 16, 0.75)
    assert f.stat().st_size == 60 + 16 * 8 * 16

    f = tmp_path / "kernel.cqmk"
    write_kernel(f, kernel256)
    (lo, hi, n), = kernel256.grid.axes
    grid_block = (1, lo, hi, n)
    head = struct.unpack("<4sI" + "IddId" * 2 + "dd", f.read_bytes()[:88])
    assert head == ((b"CQMW", 1) + grid_block + (kernel256.t1,) + grid_block
                    + (kernel256.t0, kernel256.mass, kernel256.hbar))
    assert f.stat().st_size == 88 + 16 * n * n


def test_kernel_truncated_file(tmp_path, kernel256):
    f = tmp_path / "kernel.cqmk"
    write_kernel(f, kernel256)
    data = f.read_bytes()
    for cut in (50, 80, len(data) - 16):
        f.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=r"expected \d+ bytes.*got \d+"):
            read_kernel(f)


def test_kernel_is_not_a_wave_snapshot(tmp_path, kernel256):
    # both formats share the header; the kernel's extra blocks are trailing
    # bytes to the wave reader
    f = tmp_path / "kernel.cqmk"
    write_kernel(f, kernel256)
    with pytest.raises(ValueError, match="trailing bytes"):
        read_wavegrid(f)


def test_kernel_grid_blocks_must_match(tmp_path, kernel256):
    f = tmp_path / "kernel.cqmk"
    write_kernel(f, kernel256)
    data = bytearray(f.read_bytes())
    struct.pack_into("<d", data, 44, -14.0)  # lo of the second grid block
    f.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="input grid"):
        read_kernel(f)


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _ordered_pair():
    return st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2,
                    unique=True).map(sorted)


@st.composite
def kernels(draw):
    # version 1 keeps no anchor: bare kernels only, until version 2
    lo, hi = draw(_ordered_pair())
    grid = GridSpec(((lo, hi, draw(st.integers(8, 10))),))
    t0, t1 = draw(_ordered_pair())
    n = grid.shape[0]
    matrix = draw(arrays(np.complex128, (n, n), elements=st.complex_numbers(
        allow_nan=False, allow_infinity=False)))
    return PropagatorKernel(matrix, grid, t0, t1, draw(positive), draw(positive))


@settings(max_examples=40, deadline=None)
@given(kernels(), st.data())
def test_kernel_roundtrip_property(tmp_path_factory, kernel, data):
    f = tmp_path_factory.mktemp("cqmk") / "kernel.cqmk"
    write_kernel(f, kernel)
    back = read_kernel(f)
    # repr tells -0.0 from 0.0: every field comes back exactly
    for name in ("grid", "t0", "t1", "mass", "hbar", "anchor"):
        assert repr(getattr(back, name)) == repr(getattr(kernel, name))
    assert np.array_equal(back.matrix.view(np.uint64), kernel.matrix.view(np.uint64))
    raw = f.read_bytes()
    f.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(ValueError):
        read_kernel(f)
    k = data.draw(st.integers(1, 64), label="appended")
    f.write_bytes(raw + bytes(k))
    with pytest.raises(ValueError, match=f"^{k} trailing bytes"):
        read_kernel(f)


def test_relational_split_normalization(grid256):
    # the reduced kernel's split constant carries the non-anchor mass
    free2 = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    rel = relational_propagator(free2, SliceScheme(8, grid256, 0.0, 1.0), anchor=0)
    _, _, stats = classical_split(rel)
    expected = np.sqrt(2.0 / (2j * np.pi * 1.0))
    assert abs(stats["normalization_mean"] - expected) < 1e-3 * abs(expected)
    assert stats["max_rel_deviation"] < 1e-3
