import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqm.bundle import Config, GaugeField, ModelParams, decompose_shift
from cqm.classical import (DiscretePath, action, gauge_transform_path,
                           solve_critical_path)
from cqm.cocycle import LagrangianModel, path_cocycle
from cqm.dressing import (dress_config, dress_path, dressed_action,
                          dressed_critical_path, dressing_field_along,
                          frame_shift, identity_suite, residual_first_kind)
from cqm.qgrid import _check_anchor
from conftest import random_path


def test_dress_config_example(free2):
    rel = dress_config(free2.params, Config(0.0, [5.0, 2.0]), 0)
    assert np.array_equal(rel.x, [0.0, -3.0])


def test_dress_config_external_invariance(free2, rng):
    p = Config(0.3, rng.normal(size=2))
    shifted = Config(p.t, p.x + free2.params.replicate(rng.normal(size=1)))
    a = dress_config(free2.params, p, 1)
    b = dress_config(free2.params, shifted, 1)
    # exact in real arithmetic; one rounding of (x+X)-(x_i+X) in floats
    assert np.abs(a.x - b.x).max() <= 1e-15 * (1 + np.abs(a.x).max())
    assert b.x[1:2].max() == 0.0


def test_dress_config_single_particle():
    params = ModelParams(1, 2, np.array([1.0]))
    rel = dress_config(params, Config(0.0, [3.0, -1.0]), 0)
    assert np.array_equal(rel.x, [0.0, 0.0])


def test_dress_path_nodewise(free2, rng):
    path = random_path(rng, 2)
    rel = dress_path(free2.params, path, 0)
    assert rel.anchor == 0
    for k in (0, 10, -1):
        expected = dress_config(free2.params, path.node(k), 0).x
        assert np.array_equal(rel.x[k], expected)
    assert np.abs(rel.x[:, 0]).max() == 0.0


def test_frame_shift_example(free2):
    path = DiscretePath.from_nodes([0.0, 1.0], np.array([[5.0, 2.0], [5.0, 2.0]]))
    z = frame_shift(free2.params, path, 0, 1)
    assert np.array_equal(z, np.full((2, 2), 3.0))


def test_frame_shift_identity_flag(free2, rng):
    path = random_path(rng, 2)
    z = frame_shift(free2.params, path, 1, 1)
    assert np.abs(z).max() == 0.0


def test_frame_shift_telescoping(free3, rng):
    path = random_path(rng, 3)
    z01 = frame_shift(free3.params, path, 0, 1)
    z12 = frame_shift(free3.params, path, 1, 2)
    z02 = frame_shift(free3.params, path, 0, 2)
    scale = 1 + np.abs(z02).max()
    assert np.abs(z01 + z12 - z02).max() <= 1e-15 * scale


def test_frame_shift_relates_dressings(free3, rng):
    path = random_path(rng, 3)
    rel_i = dress_path(free3.params, path, 0)
    rel_j = dress_path(free3.params, path, 2)
    z = frame_shift(free3.params, path, 0, 2)
    assert np.abs(rel_j.x - (rel_i.x + z)).max() < 1e-14
    # Z_ij = u_j - u_i, bit for bit
    assert np.array_equal(z, dressing_field_along(free3.params, path, 2)
                          - dressing_field_along(free3.params, path, 0))


def test_dressed_action_hand_value(free2):
    # x1(t) = t, x2(t) = 4t: relative velocity 3, mass 2 -> action 9
    t = np.linspace(0, 1, 41)
    path = DiscretePath.from_nodes(t, np.stack([t, 4 * t], axis=1))
    assert dressed_action(free2, path, 0) == pytest.approx(9.0, abs=1e-12)


def test_dressed_action_rigid_motion_vanishes(free2):
    t = np.linspace(0, 1, 21)
    xa = np.sin(t)
    path = DiscretePath.from_nodes(t, np.stack([xa, xa], axis=1))
    assert abs(dressed_action(free2, path, 0)) < 1e-14
    assert abs(dressed_action(free2, path, 1)) < 1e-14


def test_dressed_action_external_invariance(free2, rng):
    path = random_path(rng, 2)
    base = dressed_action(free2, path, 0)
    ext = GaugeField.boost(free2.params.replicate(rng.normal(size=1)), -0.5, 1.5)
    moved = gauge_transform_path(path, ext)
    assert abs(dressed_action(free2, moved, 0) - base) < 1e-10 * (1 + abs(base))


def test_dressed_action_matches_cocycle_route(free3, rng):
    # substitution rule: dressing equals the gauge formula with the anchor field
    path = random_path(rng, 3)
    for anchor in range(3):
        direct = dressed_action(free3, path, anchor)
        split = action(free3, path) + path_cocycle(
            free3, path, dressing_field_along(free3.params, path, anchor)).real_value
        assert abs(direct - split) < 1e-10 * (1 + abs(direct))


def test_residual_first_kind_external_part_drops(free2, rng):
    path = random_path(rng, 2)
    rel = dress_path(free2.params, path, 0)
    ext = GaugeField.boost(free2.params.replicate(np.array([0.8])), -0.5, 1.5)
    shifted = residual_first_kind(free2.params, rel, ext)
    assert np.array_equal(shifted.x, rel.x)


def test_residual_first_kind_composition(free3, rng):
    # dressing after a gauge move equals the internal shift of the dressing
    path = random_path(rng, 3)
    G = GaugeField.sine_modes(rng.normal(size=(4, 3)), 0.0, 1.0)
    moved = gauge_transform_path(path, G)
    lhs = dress_path(free3.params, moved, 1)
    rel = dress_path(free3.params, path, 1)
    rhs = residual_first_kind(free3.params, rel, G)
    assert np.abs(lhs.x - rhs.x).max() < 1e-14
    assert np.abs(rhs.x[:, 1:2]).max() == 0.0


def test_residual_first_kind_action_shift(free3, rng):
    path = random_path(rng, 3)
    rel = dress_path(free3.params, path, 1)
    G = GaugeField.sine_modes(rng.normal(size=(4, 3)), 0.0, 1.0)
    shifted = residual_first_kind(free3.params, rel, G)
    ybar = shifted.x - rel.x
    lhs = action(free3, shifted)
    rhs = dressed_action(free3, path, 1) + path_cocycle(free3, rel, ybar).real_value
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_identity_suite_random(free3, rng):
    for _ in range(10):
        path = random_path(rng, 3)
        G = GaugeField.sine_modes(rng.normal(size=(4, 3)), 0.0, 1.0)
        res = identity_suite(free3, path, 0, 2, G)
        assert res, "suite must report identities"
        for name, val in res.items():
            assert val < 1e-9, name


def test_identity_suite_zero_internal_field(free3, rng):
    path = random_path(rng, 3)
    G = GaugeField([0.0, 1.0], np.zeros((2, 3)))
    res = identity_suite(free3, path, 0, 1, G)
    assert res["frame-shift-internal-transform"] == 0.0


def test_identity_suite_rejects_equal_anchors(free3, rng):
    path = random_path(rng, 3)
    G = GaugeField.sine_modes(rng.normal(size=(4, 3)), 0.0, 1.0)
    with pytest.raises(ValueError):
        identity_suite(free3, path, 1, 1, G)


def test_frame_correction_antisymmetry(free2, rng):
    # the frame-change cocycle flips sign with the anchor order
    path = random_path(rng, 2)
    rel_0 = dress_path(free2.params, path, 0)
    rel_1 = dress_path(free2.params, path, 1)
    c01 = path_cocycle(free2, rel_0, frame_shift(free2.params, path, 0, 1)).real_value
    c10 = path_cocycle(free2, rel_1, frame_shift(free2.params, path, 1, 0)).real_value
    assert abs(c01 + c10) < 1e-10 * (1 + abs(c01))


def test_relational_lagrangian_pointwise(free3, rng):
    # frame-changed density equals sum_k m_k/2 |v_k - v_j|^2 at every interval
    path = random_path(rng, 3)
    mp = free3.params
    i, j = 0, 2
    rel_i = dress_path(mp, path, i)
    vi = rel_i.velocities()
    z = frame_shift(mp, path, i, j)
    dz = np.diff(z, axis=0) / np.diff(path.t)[:, None]
    dens = (0.5 * (vi * vi) @ mp.mass_vector
            + (vi * dz + 0.5 * dz * dz) @ mp.mass_vector)
    v = path.velocities()
    vj = v[:, j:j + 1]
    target = np.zeros(len(dens))
    for k in range(mp.n_particles):
        dvk = v[:, k:k + 1] - vj
        target += 0.5 * mp.masses[k] * np.sum(dvk * dvk, axis=1)
    assert np.abs(dens - target).max() < 1e-12 * (1 + np.abs(target).max())


def test_dressed_critical_free(free2):
    rel = dressed_critical_path(free2, Config(0.0, [0.0, 0.0]),
                                Config(1.0, [0.0, 1.0]), 40, 0)
    assert np.abs(rel.x[:, 0]).max() == 0.0
    assert np.allclose(rel.x[:, 1], rel.t, atol=1e-14)
    assert action(free2, rel) == pytest.approx(1.0, abs=1e-12)


def test_dressed_critical_static(free2):
    rel = dressed_critical_path(free2, Config(0.0, [0.0, 0.4]),
                                Config(1.0, [0.0, 0.4]), 20, 0)
    assert action(free2, rel) == 0.0


def test_dressed_critical_matches_dressed_bare(free3):
    p0 = Config(0.0, [0.3, -0.2, 1.0])
    p1 = Config(1.0, [0.9, 0.4, -0.5])
    bare = solve_critical_path(free3, p0, p1, 64)
    for anchor in range(3):
        rel = dressed_critical_path(free3, p0, p1, 64, anchor)
        dressed = dress_path(free3.params, bare, anchor)
        assert np.abs(rel.x - dressed.x).max() < 1e-8


def test_dressed_critical_with_potential():
    # the dressed critical path is the free model's; a relative harmonic
    # binding between the two particles is refused
    bound_pair = LagrangianModel(
        ModelParams(2, 1, np.array([1.0, 2.0])),
        potential=lambda z: 0.5 * (z[..., 1] - z[..., 0]) ** 2)
    with pytest.raises(ValueError, match="free model"):
        dressed_critical_path(bound_pair, Config(0.0, [0.0, 0.0]),
                              Config(np.pi / 2, [0.0, 1.0]), 200, 0)


@pytest.mark.parametrize("anchor", [7, -1, 1.7, True, np.float64(0.0),
                                    np.array([0, 1]), 1.0, float("nan")])
def test_dressed_critical_path_refuses_a_non_particle_anchor(free2, anchor):
    with pytest.raises(ValueError, match="anchor"):
        dressed_critical_path(free2, Config(0.0, [0.5, 1.0]),
                              Config(1.0, [0.0, 1.0]), 10, anchor)


def test_dressed_critical_path_dresses_bare_endpoints(free2):
    # bare endpoints whose anchor block is nonzero give the path of their
    # dressings, bit for bit, with the anchor block exactly zero
    p0, p1 = Config(0.0, [0.5, 1.0]), Config(1.3, [-0.4, 0.2])
    for anchor in (0, 1):
        rel = dressed_critical_path(free2, p0, p1, 30, anchor)
        dressed = dressed_critical_path(
            free2, dress_config(free2.params, p0, anchor),
            dress_config(free2.params, p1, anchor), 30, anchor)
        assert np.array_equal(rel.x, dressed.x) and np.array_equal(rel.t, dressed.t)
        assert rel.anchor == anchor
        assert np.all(rel.x[:, anchor:anchor + 1] == 0.0)


def test_dressing_choice_object_as_anchor(free2):
    rel = dress_config(free2.params, Config(0.0, [5.0, 2.0]), np.int64(0))
    assert np.array_equal(rel.x, [0.0, -3.0])
    with pytest.raises(ValueError, match="anchor"):
        dress_config(free2.params, Config(0.0, [5.0, 2.0]), 7)


def test_identity_suite_two_dimensional(rng):
    params = ModelParams(2, 2, np.array([1.0, 2.5]))
    model = LagrangianModel(params)
    path = random_path(rng, 4)
    G = GaugeField.sine_modes(rng.normal(size=(4, 4)), 0.0, 1.0)
    res = identity_suite(model, path, 0, 1, G)
    for name, val in res.items():
        assert val < 1e-9, name


def test_substitution_rule_pointwise_density(free3, rng):
    # per-interval: dressed density = bare density + cocycle density of the
    # anchor field (the gauge formula with the shift replaced by the dressing)
    path = random_path(rng, 3)
    mp = free3.params
    anchor = 1
    u = dressing_field_along(mp, path, anchor)
    dt = np.diff(path.t)[:, None]
    v = path.velocities()
    du = np.diff(u, axis=0) / dt
    bare = 0.5 * (v * v) @ mp.mass_vector
    coc = (v * du + 0.5 * du * du) @ mp.mass_vector
    rel = dress_path(mp, path, anchor)
    vr = rel.velocities()
    dressed = 0.5 * (vr * vr) @ mp.mass_vector
    scale = 1 + np.abs(dressed).max()
    assert np.abs(dressed - (bare + coc)).max() < 1e-12 * scale


@pytest.mark.parametrize("n_particles, spatial_dim", [(3, 1), (3, 2)])
def test_identity_suite_stack_mixed_anchors(rng, n_particles, spatial_dim):
    mp = ModelParams(n_particles, spatial_dim, np.array([1.0, 2.0, 0.5]))
    model = LagrangianModel(mp)
    anchors = np.array([(0, 1), (2, 0), (1, 2), (0, 2), (2, 1), (1, 0)])
    i, j = anchors[:, 0], anchors[:, 1]
    paths = [random_path(rng, mp.dim) for _ in anchors]
    stack = DiscretePath.from_nodes(paths[0].t, np.stack([p.x for p in paths]))
    modes = rng.normal(size=(len(anchors), 4, mp.dim))
    G = GaugeField.sine_modes(modes, 0.0, 1.0)
    res = identity_suite(model, stack, i, j, G)
    per_probe = [identity_suite(model, p, int(a), int(b),
                                GaugeField.sine_modes(m, 0.0, 1.0))
                 for p, a, b, m in zip(paths, i, j, modes)]
    assert sorted(res) == sorted(per_probe[0])
    for name, values in res.items():
        assert values.shape == (len(anchors),)
        assert np.array_equal(values, [d[name] for d in per_probe]), name
    for k, (p, a, b) in enumerate(zip(paths, i, j)):
        assert np.array_equal(dress_path(mp, stack, i).x[k], dress_path(mp, p, a).x)
        assert np.array_equal(dressing_field_along(mp, stack, j)[k],
                              dressing_field_along(mp, p, b))
        assert np.array_equal(frame_shift(mp, stack, i, j)[k],
                              frame_shift(mp, p, a, b))
        assert dressed_action(model, stack, j)[k] == dressed_action(model, p, b)
    with pytest.raises(ValueError, match="distinct"):
        identity_suite(model, stack, i, np.where(np.arange(len(i)) == 3, i, j), G)


def test_stacked_anchors_are_checked(free3, rng):
    stack = DiscretePath.from_nodes(np.linspace(0, 1, 5),
                                    rng.normal(size=(2, 5, 3)))
    with pytest.raises(ValueError, match="anchor"):
        dress_path(free3.params, stack, np.array([0, 3]))
    with pytest.raises(ValueError, match="anchor"):
        dress_path(free3.params, stack, np.array([0.0, 1.0]))


# three particles: 0, 1 and 2 are anchors, nothing else is
_BAD_ANCHORS = st.one_of(
    st.integers(3, 2**62), st.integers(-2**62, -1),
    st.sampled_from([1.7, 1.0, True, False, float("nan"), np.float64(0.5),
                     np.array([0, 1]), None, "0"]),
    st.floats(),
)


@settings(max_examples=80, deadline=None)
@given(anchor=_BAD_ANCHORS)
def test_bad_anchors_raise_value_error(anchor):
    params = ModelParams(3, 1, np.array([1.0, 2.0, 0.5]))
    path = DiscretePath.from_nodes(np.linspace(0, 1, 4),
                                   np.arange(12.0).reshape(4, 3))
    calls = [lambda: decompose_shift(params, path.x, anchor),
             lambda: dress_path(params, path, anchor),
             lambda: frame_shift(params, path, anchor, 0),
             lambda: frame_shift(params, path, 0, anchor)]
    if anchor is not None:  # None is the bare state's anchor
        calls.append(lambda: _check_anchor(anchor, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="anchor"):
                call()


def test_dressed_action_stack_raises_on_one_failed_probe(free3, rng, monkeypatch):
    from cqm import dressing
    from cqm.cocycle import CocycleAccumulator

    stack = DiscretePath.from_nodes(np.linspace(0, 1, 9),
                                    rng.normal(size=(4, 9, 3)))
    anchors = np.array([0, 1, 2, 0])
    dressed_action(free3, stack, anchors)
    real = dressing.path_cocycle

    def skewed(model, path, field):
        acc = real(model, path, field)
        return CocycleAccumulator.from_value(
            acc.real_value + np.array([0.0, 0.0, 1.0, 0.0]), model.params.hbar)

    monkeypatch.setattr(dressing, "path_cocycle", skewed)
    with pytest.raises(RuntimeError, match="cross-check failed"):
        dressed_action(free3, stack, anchors)


@pytest.mark.parametrize("n_particles, hbar", [(1, 1.0), (2, 0.7)])
def test_dress_suite_matches_per_probe_loop(n_particles, hbar):
    # the suite evaluates its random probes as stacks; this is the loop that
    # draws and evaluates one probe at a time, on the same stream
    from conftest import suite_path, suite_rng
    from cqm.experiments import run_experiment

    masses = np.array([1.0, 2.0])[:n_particles]
    checks = {c.name: c.residual for c in run_experiment(
        "dress", ModelParams(n_particles, 1, masses, hbar), {"n_probes": 20}, 11,
        None)}
    # a one-particle model is dressed as the suite's three-particle stand-in
    mp = (ModelParams(2, 1, masses, hbar) if n_particles == 2
          else ModelParams(3, 1, np.array([1.0, 2.0, 3.0]), hbar))
    model = LagrangianModel(mp)
    rng = suite_rng("dress", 11)
    agg: dict[str, float] = {}
    for _ in range(20):
        path = suite_path(rng, mp.dim)
        i, j = rng.choice(mp.n_particles, size=2, replace=False)
        G = GaugeField.sine_modes(rng.normal(size=(4, mp.dim)), 0.0, 1.0)
        for name, res in identity_suite(model, path, int(i), int(j), G).items():
            agg[name] = max(agg.get(name, 0.0), res)
    lag = ext = rule = 0.0
    mv = mp.mass_vector
    for _ in range(20):
        path = suite_path(rng, mp.dim)
        i, j = (int(a) for a in rng.choice(mp.n_particles, size=2, replace=False))
        v = dress_path(mp, path, j).velocities()
        rel_i = dress_path(mp, path, i)
        vi = rel_i.velocities()
        dz = np.diff(frame_shift(mp, path, i, j), axis=0) / np.diff(path.t)[:, None]
        lag = max(lag, float(np.abs(0.5 * (v * v) @ mv - (
            0.5 * (vi * vi) @ mv + (vi * dz + 0.5 * dz * dz) @ mv)).max()))
        boost = GaugeField.boost(mp.replicate(rng.normal(size=1)), -0.5, 1.5)
        moved = gauge_transform_path(path, boost)
        s_dressed = dressed_action(model, path, i)
        ext = max(ext, float(np.abs(dress_path(mp, moved, i).x - rel_i.x).max()),
                  abs(dressed_action(model, moved, i) - s_dressed))
        s_bare = action(model, path)
        c_u = path_cocycle(model, path, dressing_field_along(mp, path, i))
        phase = np.exp(-1j * (s_dressed - s_bare) / mp.hbar)
        rule = max(rule, abs(s_dressed - (s_bare + c_u.real_value)),
                   abs(phase - c_u.phase))
    for name, res in agg.items():
        assert checks[name] == res, name
    assert len(agg) == 8 and max(agg.values()) > 0
    assert checks["relational-lagrangian-pointwise"] == lag
    assert checks["external-shift-invariance"] == ext
    assert checks["gauge-substitution-rule"] == rule


def test_first_kind_offset_turns_only_its_check_red(monkeypatch):
    # negative control: a 1e-6 ramp added to the first-kind shift breaks
    # S[(gamma^u)^Ybar] = S^u + c(Ybar) and no other law of the suite (a
    # constant offset would leave the free action as it is); the ramp skips
    # the anchor's block (d = 1), which a relational path keeps at zero
    from dataclasses import replace

    from cqm import dressing
    from cqm.experiments import run_experiment

    real = dressing.residual_first_kind

    def skewed(params, rel_path, G):
        out = real(params, rel_path, G)
        off_anchor = np.arange(out.dim) != np.asarray(out.anchor)[..., None, None]
        return replace(out, x=out.x + 1e-6 * out.t[:, None] * off_anchor)

    def red() -> set[str]:
        return {c.name for c in run_experiment(
            "dress", ModelParams(2, 1, np.array([1.0, 2.0])), {"n_probes": 20}, 3,
            None) if not c.passed}

    assert red() == set()
    monkeypatch.setattr(dressing, "residual_first_kind", skewed)
    assert red() == {"dressed-action-internal-shift"}


# x of the bare two-particle path whose block 0 runs 0.5 -> 1.5
_T5 = np.linspace(0.0, 1.0, 5)
_X5 = np.stack([np.linspace(0.5, 1.5, 5), np.linspace(-1.0, 1.0, 5)], axis=1)


@pytest.mark.parametrize("fields, match", [
    ({"anchor": 0}, "anchor 0 has no exactly zero block"),
    ({"anchor": 1}, "anchor 1 has no exactly zero block"),
    ({"anchor": 2}, "anchor 2 has no exactly zero block"),
    ({"anchor": True}, "particle index"),
    ({"anchor": 1.0}, "particle index"),
    ({"anchor": -1}, "particle index"),
    ({"anchor": np.array([0])}, "particle index"),
    ({"t": np.array([0.0, 0.25, 0.5, 0.75, np.inf])}, "path t must be finite"),
    ({"tau": np.array([0.0, 0.25, 0.5, 0.75, np.nan])}, "path tau must be finite"),
    ({"x": np.where(_T5[:, None] > 0.6, np.nan, _X5)}, "path x must be finite"),
    ({"x": np.where(_T5[:, None] > 0.6, -np.inf, _X5)}, "path x must be finite"),
], ids=["found-block-0", "block-1", "no-particle-2", "bool", "float", "negative",
        "array-on-one-path", "inf-t", "nan-tau", "nan-x", "inf-x"])
def test_path_refuses_a_stamp_it_cannot_hold(fields, match):
    from dataclasses import replace

    bare = DiscretePath.from_nodes(_T5, _X5)
    with pytest.raises(ValueError, match=match):
        DiscretePath(**{"tau": _T5, "t": _T5, "x": _X5, **fields})
    # replace goes through the same check
    with pytest.raises(ValueError, match=match):
        replace(bare, **fields)


def test_stack_anchors_are_checked_per_history(free2):
    from dataclasses import replace

    x = np.stack([_X5, _X5[:, ::-1]])
    path = DiscretePath.from_nodes(_T5, x)
    rel = dress_path(free2.params, path, np.array([0, 1]))
    assert np.array_equal(rel.anchor, [0, 1])
    # each history's own block is zero, not the other one's
    with pytest.raises(ValueError, match="no exactly zero block"):
        replace(rel, anchor=np.array([1, 0]))
    for bad in (np.array([0, 1, 0]), np.array([[0, 1]])):
        with pytest.raises(ValueError, match="particle index"):
            replace(rel, anchor=bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_every_dressing_stamp_passes_and_a_moved_block_is_refused(N, d, M, seed):
    from dataclasses import replace

    rng = np.random.default_rng(seed)
    model = LagrangianModel(ModelParams(N, d, rng.uniform(0.5, 2.0, N)))
    path = random_path(rng, N * d, M=M)
    for anchor in range(N):
        rel = dress_path(model.params, path, anchor)
        assert rel.anchor == anchor
        assert residual_first_kind(model.params, rel,
                                   rng.normal(size=(M + 1, N * d))).anchor == anchor
        # a path with no zero sample has no zero block at all
        with pytest.raises(ValueError, match="no exactly zero block"):
            replace(rel, x=path.x)
    if N > 1:
        p0, p1 = Config(0.0, rng.normal(size=N * d)), Config(1.0, rng.normal(size=N * d))
        assert dressed_critical_path(model, p0, p1, M, N - 1).anchor == N - 1
