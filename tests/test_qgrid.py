import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cqm.bundle import Config
from cqm.classical import DiscretePath, HPFSample, free_hpf, hpf_table
from cqm.cocycle import CocycleAccumulator, path_cocycle
from cqm.dressing import frame_shift
from cqm.qgrid import (GridSpec, HamiltonianSpec, WaveGrid,
                       boost_covariance_check, commutator_expectation,
                       dress_wavefunction, evolve, frame_change,
                       gaussian_packet, meta_action, momentum_apply,
                       read_wavegrid, write_wavegrid, _fft_plan,
                       _free_propagate, _infidelity, _kinetic_phase, _l2,
                       _periodic_resample)


@pytest.fixture
def spec512():
    return GridSpec(((-20.0, 20.0, 512),))


@pytest.fixture
def H1():
    return HamiltonianSpec((1.0,))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(((-1.0, 1.0, 4),))
    with pytest.raises(ValueError, match="hi > lo"):
        GridSpec(((1.0, -1.0, 16),))
    inf = float("inf")
    for lo, hi in ((-inf, 0.0), (0.0, inf), (-inf, inf), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite bounds"):
            GridSpec(((-1.0, 1.0, 16), (lo, hi, 16)))
    with pytest.raises(ValueError, match="hi > lo"):
        GridSpec(((inf, inf, 16),))


# the first axis's lo at -inf, then its hi at +inf
@pytest.mark.parametrize("offset, bound", [(12, -np.inf), (20, np.inf)])
def test_wavegrid_with_an_infinite_bound_fails_to_read(tmp_path, spec512, offset, bound):
    import struct

    f = tmp_path / "state.cqmw"
    write_wavegrid(f, gaussian_packet(spec512, 0.0, 1.0))
    raw = bytearray(f.read_bytes())
    # magic and version, the block's axis count, then its (lo, hi, n) triples
    assert struct.unpack_from("<dd", raw, 12) == spec512.axes[0][:2]
    raw[offset:offset + 8] = struct.pack("<d", bound)
    f.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="finite bounds"):
        read_wavegrid(f)


def test_norm_preservation(spec512, H1):
    psi = gaussian_packet(spec512, 0.0, 1.0)
    out = evolve(psi, H1, dt=1e-3, steps=1000)
    assert abs(out.norm() - 1.0) < 1e-12


def test_free_packet_spreading(spec512, H1):
    psi = gaussian_packet(spec512, 0.0, 1.0)
    out = evolve(psi, H1, dt=1e-3, steps=2000)
    x = spec512.coords(0)
    dens = np.abs(out.amplitudes) ** 2 * spec512.cell_volume
    var = float(np.sum(x ** 2 * dens) - np.sum(x * dens) ** 2)
    assert abs(var - (1.0 + (2.0 / 2.0) ** 2)) < 1e-4


def test_flat_state_invariant(spec512, H1):
    flat = WaveGrid(spec512, 0.0, np.ones(spec512.shape, dtype=complex))
    out = evolve(flat, H1, dt=1e-3, steps=50)
    assert np.abs(out.amplitudes - flat.amplitudes).max() < 1e-13


def test_evolve_with_potential_norm(spec512):
    x = spec512.coords(0)
    H = HamiltonianSpec((1.0,), potential=0.5 * x ** 2)
    psi = gaussian_packet(spec512, 1.0, 1.0)
    out = evolve(psi, H, dt=1e-3, steps=500)
    assert abs(out.norm() - 1.0) < 1e-12


def test_evolve_validation(spec512, H1):
    psi = gaussian_packet(spec512, 0.0, 1.0)
    with pytest.raises(ValueError):
        evolve(psi, H1, dt=-1e-3, steps=10)
    with pytest.raises(ValueError):
        evolve(psi, H1, dt=1.0, steps=1)  # kinetic phase bound
    with pytest.raises(ValueError):
        evolve(psi, H1, dt=1e-3, steps=-5)
    spec4 = GridSpec((( -1.0, 1.0, 8),) * 4)
    psi4 = WaveGrid(spec4, 0.0, np.ones(spec4.shape, dtype=complex))
    with pytest.raises(ValueError):
        evolve(psi4, HamiltonianSpec((1.0,) * 4), dt=1e-4, steps=1)
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve(psi, H1, dt=float("nan"), steps=10)
    column = HamiltonianSpec((1.0,), potential=np.zeros((512, 1)))
    with pytest.raises(ValueError, match="potential shape"):
        evolve(psi, column, dt=1e-3, steps=1)


@pytest.mark.parametrize("hbar", [0.0, -1.0, float("nan"), float("inf")])
def test_hamiltonian_rejects_hbar(hbar):
    with pytest.raises(ValueError, match="hbar"):
        HamiltonianSpec((1.0,), hbar=hbar)


@pytest.mark.parametrize("mass", [0.0, -1.0, float("nan"), float("inf")])
def test_hamiltonian_rejects_mass(mass):
    with pytest.raises(ValueError, match="masses"):
        HamiltonianSpec((1.0, mass))


def _fftn_loop(psi, H, dt, steps):
    """The spectral step written with fftn/ifftn and fresh arrays.

    Each product is an explicit np.multiply(phase, array): the `*` operator
    lets numpy elide a temporary of 256 KiB or more into `tmp *= phase`,
    which swaps the operands of a multiply that is not bitwise commutative.
    """
    expK = _kinetic_phase(psi.spec, H, dt)
    amp = psi.amplitudes
    if H.potential is None:
        for _ in range(steps):
            amp = np.fft.ifftn(np.multiply(expK, np.fft.fftn(amp)))
    else:
        expV = np.exp(-0.5j * dt * H.potential / H.hbar)
        for _ in range(steps):
            kicked = np.fft.fftn(np.multiply(expV, amp))
            amp = np.multiply(expV, np.fft.ifftn(np.multiply(expK, kicked)))
    return amp


# 512 points is 8 KiB, below numpy's 256 KiB temporary-elision size; 256^2 is
# 1 MiB, above it: one operand order at both sizes
@pytest.mark.parametrize("shape", [(512,), (256, 256), (16, 12, 10)])
@pytest.mark.parametrize("with_potential", [False, True])
@pytest.mark.parametrize("steps", [0, 1, 37])
def test_evolve_matches_fftn_loop(shape, with_potential, steps):
    spec = GridSpec(tuple((-20.0, 20.0, n) for n in shape))
    ndim = len(shape)
    psi = gaussian_packet(spec, [0.5] * ndim, [1.5] * ndim, [0.8] * ndim)
    before = psi.amplitudes.copy()
    pot = (0.05 * sum(X ** 2 for X in spec.meshgrid())
           if with_potential else None)
    H = HamiltonianSpec(tuple(1.0 + 0.5 * a for a in range(ndim)),
                        potential=pot, hbar=0.8)
    out = evolve(psi, H, 1e-3, steps)
    assert np.array_equal(out.amplitudes, _fftn_loop(psi, H, 1e-3, steps))
    assert out.t == steps * 1e-3
    assert np.array_equal(psi.amplitudes, before)
    assert not np.shares_memory(out.amplitudes, psi.amplitudes)


def _random_complex(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# the plan's gufunc calls are what the public transforms end in, bit for bit;
# a numpy release that changes those gufuncs fails here
@pytest.mark.parametrize("shape", [(512,), (9,), (256, 256), (16, 12, 10)])
def test_fft_plan_matches_numpy_fft(shape):
    a = _random_complex(shape)
    fft, ifft, per_axis = _fft_plan(shape)
    out = np.empty_like(a)
    for ax, (axes, inv_n) in zip(range(a.ndim - 1, -1, -1), per_axis,
                                 strict=True):
        assert np.array_equal(fft(a, 1, axes=axes, out=out),
                              np.fft.fft(a, axis=ax))
        assert np.array_equal(ifft(a, inv_n, axes=axes, out=out),
                              np.fft.ifft(a, axis=ax))
    # all axes, last first, in place after the first: fftn and ifftn
    spectrum, src = np.empty_like(a), a
    for axes, _ in per_axis:
        fft(src, 1, axes=axes, out=spectrum)
        src = spectrum
    assert np.array_equal(spectrum, np.fft.fftn(a))
    back = np.empty_like(a)
    for axes, inv_n in per_axis:
        ifft(src, inv_n, axes=axes, out=back)
        src = back
    assert np.array_equal(back, np.fft.ifftn(spectrum))


@pytest.mark.parametrize("shape", [(512,), (384,), (64, 48), (256, 256),
                                   (16, 12, 10)])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_momentum_apply_matches_fftn(shape, hbar):
    spec = GridSpec(tuple((-20.0, 20.0, n) for n in shape))
    psi = WaveGrid(spec, 0.0, _random_complex(shape))
    for axis in range(len(shape)):
        k = spec.kvec(axis).reshape([-1 if a == axis else 1
                                     for a in range(len(shape))])
        want = np.fft.ifftn(hbar * k * np.fft.fftn(psi.amplitudes))
        assert np.array_equal(momentum_apply(psi, hbar, axis).amplitudes, want)


def test_momentum_plane_wave(spec512):
    x = spec512.coords(0)
    k = 2 * np.pi * 5 / 40.0
    plane = WaveGrid(spec512, 0.0, np.exp(1j * k * x))
    out = momentum_apply(plane)
    assert np.abs(out.amplitudes - k * plane.amplitudes).max() < 1e-12


def test_momentum_constant_zero(spec512):
    const = WaveGrid(spec512, 0.0, np.ones(spec512.shape, dtype=complex))
    assert np.abs(momentum_apply(const).amplitudes).max() < 1e-12


def test_momentum_hermitian(spec512, rng):
    psi = gaussian_packet(spec512, 0.0, 1.0, 0.5)
    phi = gaussian_packet(spec512, 1.0, 2.0, -0.3)
    lhs = phi.inner(momentum_apply(psi))
    rhs = momentum_apply(phi).inner(psi)
    assert abs(lhs - rhs) < 1e-10


def test_commutator_expectation(spec512):
    psi = gaussian_packet(spec512, 0.0, 1.0)
    assert abs(commutator_expectation(psi) - 1j) < 1e-8


def _wkb_series(model, p0, wspec, t_mid, dt):
    x = wspec.coords(0)
    return [WaveGrid(wspec, tv, np.exp(1j * free_hpf(model, p0, tv, x[:, None])))
            for tv in (t_mid - dt, t_mid, t_mid + dt)]


@pytest.fixture
def wkb_setup(free1):
    p0 = Config(0.0, [0.0])
    hpf = hpf_table(free1, p0, np.linspace(19.6, 20.4, 41),
                    np.linspace(-10.5, 10.5, 61), M=8)
    wspec = GridSpec(((-10.0, 10.0, 4096),))
    series = _wkb_series(free1, p0, wspec, 20.0, 0.02)
    return hpf, wspec, series


def test_covariant_derivative_residual(wkb_setup):
    from cqm.qgrid import covariant_derivative_residual

    hpf, _, series = wkb_setup
    rx, rt = covariant_derivative_residual(series, hpf)
    assert rx < 1e-6
    assert rt < 1e-6


def test_covariant_residual_trivial_state():
    from cqm.qgrid import covariant_derivative_residual

    hpf = HPFSample(0.0, np.array([0.0]), np.linspace(1, 2, 5),
                    np.linspace(-11, 11, 5), np.zeros((5, 5)))
    wspec = GridSpec(((-10.0, 10.0, 64),))
    series = [WaveGrid(wspec, tv, np.ones(wspec.shape, dtype=complex))
              for tv in (1.4, 1.5, 1.6)]
    rx, rt = covariant_derivative_residual(series, hpf)
    assert rx == 0.0
    assert rt == 0.0


def test_covariant_residual_grows_with_perturbation(wkb_setup, rng):
    from cqm.qgrid import covariant_derivative_residual

    hpf, wspec, series = wkb_setup
    noise = rng.normal(size=wspec.shape)
    prev = 0.0
    for amp in (0.01, 0.03, 0.1):
        noisy = [WaveGrid(wspec, s.t, s.amplitudes * np.exp(1j * amp * noise))
                 for s in series]
        rx, _ = covariant_derivative_residual(noisy, hpf)
        assert rx > prev
        prev = rx


def test_covariant_derivatives_need_table_coverage(free1, wkb_setup):
    from cqm.qgrid import covariant_derivative_residual

    hpf, wspec, _ = wkb_setup
    late = _wkb_series(free1, Config(0.0, [0.0]), wspec, 25.0, 0.02)
    with pytest.raises(ValueError, match="slice time"):
        covariant_derivative_residual(late, hpf)
    with pytest.raises(ValueError, match="slice time"):
        meta_action(late, hpf, (1.0, 0.3))
    wide = GridSpec(((-12.0, 12.0, 4096),))
    series = _wkb_series(free1, Config(0.0, [0.0]), wide, 20.0, 0.02)
    with pytest.raises(ValueError, match="grid"):
        meta_action(series, hpf, (1.0, 0.3))


@pytest.mark.parametrize("shape, masses, dt, steps", [
    ((512,), (1.0,), 1.0 / 2048, 2048),
    ((256, 256), (2000.0, 1.0), 0.5 / 64, 64),
])
def test_free_propagate_matches_evolve(shape, masses, dt, steps):
    spec = GridSpec(tuple((-15.0, 15.0, n) for n in shape))
    ndim = len(shape)
    psi = gaussian_packet(spec, [0.5] * ndim, [1.5] * ndim, [0.5] * ndim)
    before = psi.amplitudes.copy()
    H = HamiltonianSpec(masses)
    exact = _free_propagate(psi, H, steps * dt)
    stepped = evolve(psi, H, dt, steps)
    assert exact.t == psi.t + steps * dt
    assert (np.linalg.norm(exact.amplitudes - stepped.amplitudes)
            < 1e-12 * np.linalg.norm(stepped.amplitudes))
    assert np.array_equal(psi.amplitudes, before)
    assert not np.shares_memory(exact.amplitudes, psi.amplitudes)


def test_free_propagate_validation(spec512, H1):
    psi = gaussian_packet(spec512, 0.0, 1.0)
    x = spec512.coords(0)
    with pytest.raises(ValueError, match="free Hamiltonian"):
        _free_propagate(psi, HamiltonianSpec((1.0,), potential=0.5 * x ** 2), 1.0)
    with pytest.raises(ValueError, match="one mass per grid axis"):
        _free_propagate(psi, HamiltonianSpec((1.0, 2.0)), 1.0)
    rel = HamiltonianSpec((1.0,), anchor=0)
    with pytest.raises(ValueError, match="anchor does not match"):
        _free_propagate(psi, rel, 1.0)
    anchored = WaveGrid(spec512, 0.0, psi.amplitudes, anchor=1)
    with pytest.raises(ValueError, match="anchor does not match"):
        _free_propagate(anchored, rel, 1.0)
    for T in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="T must be positive"):
            _free_propagate(psi, H1, T)


def _boost_inline(psi0, vboost, T, H):
    """The boost check with its free phase applied inline, per route."""
    m, hbar = H.masses[0], H.hbar
    expK = _kinetic_phase(psi0.spec, H, T)
    x = psi0.spec.coords(0)
    psi_T = np.fft.ifftn(expK * np.fft.fftn(psi0.amplitudes))
    shifted = _periodic_resample(psi0.spec, psi_T, x - vboost * T)
    route_a = np.exp(1j * m * (vboost * x - 0.5 * vboost ** 2 * T) / hbar) * shifted
    boosted0 = np.exp(1j * m * vboost * x / hbar) * psi0.amplitudes
    route_b = np.fft.ifftn(expK * np.fft.fftn(boosted0))
    return _l2(route_a - route_b) / _l2(route_b)


@pytest.mark.parametrize("n", [512, 1024, 2048])
def test_boost_covariance_matches_inline_phase(n, H1):
    psi = gaussian_packet(GridSpec(((-20.0, 20.0, n),)), 0.0, 1.0)
    assert boost_covariance_check(psi, 1.0, 1.0, H1) == _boost_inline(psi, 1.0, 1.0, H1)


def _cancelling_infidelity(a, b):
    """The textbook form, which cancels against 1."""
    return 1.0 - abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_l2_matches_linalg_norm(rng):
    for a in (_complex_normal(rng, 1000), _complex_normal(rng, (64, 48)),
              _complex_normal(rng, (64, 48))[::3, 1:-1], rng.normal(size=777)):
        assert _l2(a) == pytest.approx(np.linalg.norm(a), rel=1e-15, abs=0)


@pytest.mark.parametrize("scale", [0.3, 0.1, 0.04])
def test_infidelity_matches_cancelling_form(rng, scale):
    # infidelities of about 1e-2 to 1e-4, where the cancelling form resolves
    a = _complex_normal(rng, (40, 30))
    b = 2.5j * a + scale * _complex_normal(rng, (40, 30))
    old = _cancelling_infidelity(a, b)
    assert 1e-4 < old < 1e-2
    assert _infidelity(a, b) == pytest.approx(old, rel=1e-10, abs=0)


def test_infidelity_invariances(rng):
    a = _complex_normal(rng, 500)
    b = a + 0.05 * _complex_normal(rng, 500)
    ref = _infidelity(a, b)
    assert ref > 1e-4
    for a2, b2 in ((np.exp(0.7j) * a, b), (a, np.exp(-2.1j) * b),
                   (3.0 * a, b), (a, 1e-3 * b), (b, a)):
        assert _infidelity(a2, b2) == pytest.approx(ref, rel=1e-12, abs=0)
    for c in (a, a.reshape(20, 25), np.exp(0.3j) * a):
        assert _infidelity(c, c) == 0.0


def test_infidelity_resolves_a_small_phase(spec512):
    # b = a exp(i eps f): 1 - |<a, b>|/(|a||b|) = eps^2 Var_a(f)/2 + O(eps^4),
    # Var_a taken with the weights |a_k|^2/||a||^2; about 1.9e-13 here, where
    # the cancelling form has only a few ulps of 1
    a = gaussian_packet(spec512, 0.5, 1.0, 0.8).amplitudes
    f = np.sin(spec512.coords(0))
    eps = 1e-6
    w = np.abs(a) ** 2 / np.sum(np.abs(a) ** 2)
    var = np.sum(w * f ** 2) - np.sum(w * f) ** 2
    assert _infidelity(a, a * np.exp(1j * eps * f)) == pytest.approx(
        eps ** 2 * var / 2, rel=1e-6)


def test_boost_covariance_zero_velocity(spec512, H1):
    psi = gaussian_packet(spec512, 0.0, 1.0)
    assert boost_covariance_check(psi, 0.0, 1.0, H1) < 1e-12


def test_boost_covariance_reference(H1):
    spec = GridSpec(((-20.0, 20.0, 1024),))
    psi = gaussian_packet(spec, 0.0, 1.0)
    assert boost_covariance_check(psi, 1.0, 1.0, H1) < 1e-4


def test_boost_covariance_refinement(H1):
    errs = []
    for n in (256, 512, 1024):
        spec = GridSpec(((-20.0, 20.0, n),))
        psi = gaussian_packet(spec, 0.0, 1.0)
        errs.append(boost_covariance_check(psi, 1.0, 1.0, H1))
    assert errs[1] < errs[0] and errs[2] < errs[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 96), st.floats(-50.0, 50.0), st.floats(0.5, 100.0), st.data())
def test_periodic_resample_matches_periodic_cubic_spline(n, lo, width, data):
    from scipy.interpolate import CubicSpline

    spec = GridSpec(((lo, lo + width, n),))
    values = data.draw(arrays(np.complex128, n, elements=st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False)), label="values")
    # points up to two periods away on either side, and the grid itself
    points = np.concatenate([data.draw(arrays(
        float, data.draw(st.integers(1, 40), label="m"),
        elements=st.floats(lo - 2 * width, lo + 3 * width)), label="points"),
        spec.coords(0)])
    x = np.append(spec.coords(0), lo + width)
    wrapped = (points - lo) % width + lo

    def ref(part):
        return CubicSpline(x, np.append(part, part[0]), bc_type="periodic")(wrapped)

    got = _periodic_resample(spec, values, points)
    scale = max(1.0, np.abs(values).max())
    assert np.abs(got - (ref(values.real) + 1j * ref(values.imag))).max() < 1e-12 * scale


def test_boost_covariance_rejects_large_shift(spec512, H1):
    psi = gaussian_packet(spec512, 0.0, 1.0)
    with pytest.raises(ValueError):
        boost_covariance_check(psi, 30.0, 1.0, H1)


@pytest.fixture
def separable_two_particle():
    n = 128
    spec2 = GridSpec(((-20.0, 20.0, n), (-20.0, 20.0, n)))
    x = spec2.coords(0)
    X0, X1 = np.meshgrid(x, x, indexing="ij")
    rel = (X1 - X0 + 20.0) % 40.0 - 20.0
    f = np.exp(-rel ** 2 / 6 + 0.4j * rel)
    return spec2, x, WaveGrid(spec2, 0.0, f)


def test_dress_wavefunction_separable(separable_two_particle):
    spec2, x, psi = separable_two_particle
    rel = dress_wavefunction(psi, 0)
    assert rel.anchor == 0
    i0 = int(np.argmin(np.abs(x)))
    assert np.array_equal(rel.amplitudes, psi.amplitudes[i0, :])


def test_dress_wavefunction_constant():
    spec2 = GridSpec(((-5.0, 5.0, 16), (-5.0, 5.0, 16)))
    psi = WaveGrid(spec2, 0.0, np.full(spec2.shape, 0.3 + 0.1j))
    rel = dress_wavefunction(psi, 1)
    assert np.array_equal(rel.amplitudes, np.full(16, 0.3 + 0.1j))
    # a path phase is applied by the caller, as the frame change does
    phased = rel.amplitudes * CocycleAccumulator.from_value(2.0, 1.0).inverse_phase
    assert np.allclose(phased, (0.3 + 0.1j) * np.exp(2.0j), atol=1e-14)


def test_dress_wavefunction_norm_matches_slice(separable_two_particle):
    spec2, x, psi = separable_two_particle
    rel = dress_wavefunction(psi, 0)
    i0 = int(np.argmin(np.abs(x)))
    h = spec2.spacing(1)
    direct = np.sqrt(np.sum(np.abs(psi.amplitudes[i0, :]) ** 2) * h)
    assert abs(rel.norm() - direct) < 1e-8


def test_dress_wavefunction_requires_bare(separable_two_particle):
    spec2, _, psi = separable_two_particle
    rel = dress_wavefunction(psi, 0)
    with pytest.raises(ValueError):
        dress_wavefunction(rel, 0)


def _phase_pair(free2):
    t = np.linspace(0.0, 1.0, 17)
    bare = DiscretePath.from_nodes(
        t, np.stack([0.1 * t, 0.3 + 0.4 * t], axis=1))
    from cqm.dressing import dress_path

    rel0 = dress_path(free2.params, bare, 0)
    rel1 = dress_path(free2.params, bare, 1)
    ph01 = path_cocycle(free2, rel0, frame_shift(free2.params, bare, 0, 1))
    ph10 = path_cocycle(free2, rel1, frame_shift(free2.params, bare, 1, 0))
    return ph01, ph10


def test_frame_change_unitary(free2, rng):
    spec = GridSpec(((-20.0, 20.0, 256),))
    x = spec.coords(0)
    psi = WaveGrid(spec, 0.0, np.exp(-(x - 2) ** 2 / 4 + 0.7j * x),
                   anchor=0).normalized()
    ph01, ph10 = _phase_pair(free2)
    out = frame_change(psi, 1, ph01)
    assert out.anchor == 1
    flip = (-np.arange(256)) % 256
    assert np.abs(np.abs(out.amplitudes)
                  - np.abs(psi.amplitudes[flip])).max() < 1e-12
    assert abs(out.norm() - psi.norm()) < 1e-12

    back = frame_change(out, 0, ph10)
    fid = abs(back.inner(psi)) / (back.norm() * psi.norm())
    assert fid > 1 - 1e-8


def test_frame_change_symmetric_state(free2):
    spec = GridSpec(((-20.0, 20.0, 256),))
    x = spec.coords(0)
    psi = WaveGrid(spec, 0.0, np.exp(-x ** 2 / 4).astype(complex),
                   anchor=0).normalized()
    ph01, _ = _phase_pair(free2)
    out = frame_change(psi, 1, ph01)
    align = psi.inner(out) / abs(psi.inner(out))
    assert np.abs(out.amplitudes / align - psi.amplitudes).max() < 1e-10


def test_frame_change_three_particles(rng):
    # shear relabeling stays an exact isometry on matched grids
    n = 64
    spec = GridSpec(((-8.0, 8.0, n), (-8.0, 8.0, n)))
    amp = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    psi = WaveGrid(spec, 0.0, amp, anchor=0).normalized()
    phase = CocycleAccumulator.from_value(0.37, 1.0)
    out = frame_change(psi, 1, phase)
    assert out.anchor == 1
    assert abs(out.norm() - 1.0) < 1e-12
    inv = CocycleAccumulator.from_value(-0.37, 1.0)
    back = frame_change(out, 0, inv)
    assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-12


def test_frame_change_requires_relational(spec512):
    psi = gaussian_packet(spec512, 0.0, 1.0)
    with pytest.raises(ValueError):
        frame_change(psi, 1, CocycleAccumulator.from_value(0.0, 1.0))


def test_meta_action_solution_small(wkb_setup):
    hpf, _, series = wkb_setup
    val = abs(meta_action(series, hpf, (1.0, 0.3)))
    assert val < 1e-5


def test_meta_action_zero_state(wkb_setup):
    hpf, wspec, series = wkb_setup
    zeros = [WaveGrid(wspec, s.t, np.zeros(wspec.shape, dtype=complex))
             for s in series]
    assert meta_action(zeros, hpf, (1.0, 0.0 + 0.3)) == 0.0


def test_meta_action_contrast(wkb_setup, rng):
    hpf, wspec, series = wkb_setup
    sol = abs(meta_action(series, hpf, (1.0, 0.3)))
    noisy = [WaveGrid(wspec, s.t, s.amplitudes
                      * np.exp(1j * rng.normal(scale=0.3, size=wspec.shape)))
             for s in series]
    bad = abs(meta_action(noisy, hpf, (1.0, 0.3)))
    assert bad > 10 * sol


def test_meta_action_rejects_vertical(wkb_setup):
    hpf, _, series = wkb_setup
    with pytest.raises(ValueError):
        meta_action(series, hpf, (0.0, 1.0))


def test_wavegrid_binary_roundtrip(tmp_path, spec512, rng):
    amp = rng.normal(size=spec512.shape) + 1j * rng.normal(size=spec512.shape)
    psi = WaveGrid(spec512, 1.25, amp)
    f = tmp_path / "state.cqmw"
    write_wavegrid(f, psi)
    back = read_wavegrid(f)
    assert back.spec == psi.spec
    assert back.t == psi.t
    assert np.array_equal(back.amplitudes, psi.amplitudes)
    # header magic
    assert f.read_bytes()[:4] == b"CQMW"


def test_wavegrid_truncated_file(tmp_path, spec512):
    f = tmp_path / "state.cqmw"
    write_wavegrid(f, gaussian_packet(spec512, 0.0, 1.0))
    data = f.read_bytes()
    for cut in (10, len(data) - 1):
        f.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=r"expected \d+ bytes.*got \d+"):
            read_wavegrid(f)


def test_wavegrid_trailing_bytes(tmp_path, spec512):
    f = tmp_path / "state.cqmw"
    write_wavegrid(f, gaussian_packet(spec512, 0.0, 1.0))
    f.write_bytes(f.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        read_wavegrid(f)


finite = st.floats(allow_nan=False, allow_infinity=False)
amplitude = st.complex_numbers(allow_nan=False, allow_infinity=False)


@st.composite
def grid_axes(draw):
    lo, hi = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2,
                                  unique=True)))
    return lo, hi, draw(st.integers(8, 10))


@st.composite
def bare_snapshots(draw):
    # format version 1 has no anchor field, so only bare states round-trip;
    # the anchor waits for version 2
    spec = GridSpec(tuple(draw(st.lists(grid_axes(), min_size=1, max_size=3))))
    return WaveGrid(spec, draw(finite),
                    draw(arrays(np.complex128, spec.shape, elements=amplitude)))


@settings(max_examples=40, deadline=None)
@given(bare_snapshots(), st.data())
def test_wavegrid_roundtrip_property(tmp_path_factory, psi, data):
    f = tmp_path_factory.mktemp("cqmw") / "state.cqmw"
    write_wavegrid(f, psi)
    back = read_wavegrid(f)
    # repr tells -0.0 from 0.0: grid and time come back exactly
    assert repr(back.spec) == repr(psi.spec)
    assert repr(back.t) == repr(psi.t)
    assert back.anchor is None
    assert np.array_equal(back.amplitudes.view(np.uint64),
                          psi.amplitudes.view(np.uint64))
    raw = f.read_bytes()
    f.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(ValueError):
        read_wavegrid(f)
    k = data.draw(st.integers(1, 64), label="appended")
    f.write_bytes(raw + bytes(k))
    with pytest.raises(ValueError, match=f"^{k} trailing bytes"):
        read_wavegrid(f)


def test_momentum_apply_second_axis():
    spec = GridSpec(((-10.0, 10.0, 32), (-10.0, 10.0, 64)))
    y = spec.coords(1)
    k = 2 * np.pi * 3 / 20.0
    amp = np.ones((32, 1)) * np.exp(1j * k * y)[None, :]
    psi = WaveGrid(spec, 0.0, amp)
    out = momentum_apply(psi, axis=1)
    assert np.abs(out.amplitudes - k * amp).max() < 1e-12
    assert np.abs(momentum_apply(psi, axis=0).amplitudes).max() < 1e-12


def test_frame_change_matches_direct_dressing(rng):
    # two independent routes to the anchor-2 relational state of a bare
    # three-particle state: slice directly, or slice at anchor 0 and re-anchor
    n = 32
    spec3 = GridSpec(((-8.0, 8.0, n),) * 3)
    mesh = spec3.meshgrid()
    L = 8.0

    def wrap(a):
        return (a + L) % (2 * L) - L

    rel1 = wrap(mesh[1] - mesh[0])
    rel2 = wrap(mesh[2] - mesh[0])
    amp = np.exp(-rel1 ** 2 / 6 - rel2 ** 2 / 8 + 0.5j * rel1 - 0.2j * rel2)
    psi = WaveGrid(spec3, 0.0, amp)

    unit = CocycleAccumulator.from_value(0.0, 1.0)
    via_flip = frame_change(dress_wavefunction(psi, 0), 2, unit)
    direct = dress_wavefunction(psi, 2)
    assert via_flip.anchor == direct.anchor == 2
    assert np.abs(via_flip.amplitudes - direct.amplitudes).max() < 1e-12

    # and the adjacent pair for completeness
    via_flip1 = frame_change(dress_wavefunction(psi, 0), 1, unit)
    direct1 = dress_wavefunction(psi, 1)
    assert np.abs(via_flip1.amplitudes - direct1.amplitudes).max() < 1e-12


def test_spreading_with_scaled_hbar():
    spec = GridSpec(((-20.0, 20.0, 256),))
    hbar, m, sigma0, T = 0.5, 2.0, 1.0, 2.0
    H = HamiltonianSpec((m,), hbar=hbar)
    psi = gaussian_packet(spec, 0.0, sigma0)
    out = evolve(psi, H, 1e-3, 2000)
    x = spec.coords(0)
    dens = np.abs(out.amplitudes) ** 2 * spec.cell_volume
    var = float(np.sum(x ** 2 * dens) - np.sum(x * dens) ** 2)
    assert abs(var - (sigma0 ** 2 + (hbar * T / (2 * m * sigma0)) ** 2)) < 1e-6
