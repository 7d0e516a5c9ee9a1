import numpy as np
import pytest

from cqm.bundle import Config, GaugeField, ModelParams
from cqm.classical import (DiscretePath, action, gauge_transform_path,
                           solve_critical_path)
from cqm.cocycle import LagrangianModel, path_cocycle
from cqm.dressing import (RelationalConfig, dress_config, dress_path,
                          dressed_action, dressed_critical_path,
                          dressing_field_along, frame_shift, identity_suite,
                          residual_first_kind)
from conftest import random_path


def test_dress_config_example(free2):
    rel = dress_config(free2.params, Config(0.0, [5.0, 2.0]), 0)
    assert np.array_equal(rel.xbar, [0.0, -3.0])
    assert rel.anchor == 0


def test_dress_config_external_invariance(free2, rng):
    p = Config(0.3, rng.normal(size=2))
    shifted = Config(p.t, p.x + free2.params.replicate(rng.normal(size=1)))
    a = dress_config(free2.params, p, 1)
    b = dress_config(free2.params, shifted, 1)
    # exact in real arithmetic; one rounding of (x+X)-(x_i+X) in floats
    assert np.abs(a.xbar - b.xbar).max() <= 1e-15 * (1 + np.abs(a.xbar).max())
    assert b.xbar[free2.params.block(1)].max() == 0.0


def test_dress_config_single_particle():
    params = ModelParams(1, 2, np.array([1.0]))
    rel = dress_config(params, Config(0.0, [3.0, -1.0]), 0)
    assert np.array_equal(rel.xbar, [0.0, 0.0])


def test_dress_path_nodewise(free2, rng):
    path = random_path(rng, 2)
    rel = dress_path(free2.params, path, 0)
    assert rel.anchor == 0
    for k in (0, 10, -1):
        expected = dress_config(free2.params, path.node(k), 0).xbar
        assert np.array_equal(rel.x[k], expected)
    assert np.abs(rel.x[:, 0]).max() == 0.0


def test_frame_shift_example(free2):
    path = DiscretePath.from_nodes([0.0, 1.0], np.array([[5.0, 2.0], [5.0, 2.0]]))
    z = frame_shift(free2.params, path, 0, 1)
    assert np.array_equal(z.values, np.full((2, 2), 3.0))


def test_frame_shift_identity_flag(free2, rng):
    path = random_path(rng, 2)
    z = frame_shift(free2.params, path, 1, 1)
    assert np.abs(z.values).max() == 0.0


def test_frame_shift_telescoping(free3, rng):
    path = random_path(rng, 3)
    z01 = frame_shift(free3.params, path, 0, 1).values
    z12 = frame_shift(free3.params, path, 1, 2).values
    z02 = frame_shift(free3.params, path, 0, 2).values
    scale = 1 + np.abs(z02).max()
    assert np.abs(z01 + z12 - z02).max() <= 1e-15 * scale


def test_frame_shift_relates_dressings(free3, rng):
    path = random_path(rng, 3)
    rel_i = dress_path(free3.params, path, 0)
    rel_j = dress_path(free3.params, path, 2)
    z = frame_shift(free3.params, path, 0, 2).values
    assert np.abs(rel_j.x - (rel_i.x + z)).max() < 1e-14


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
    G = GaugeField.random_bump(3, 0.0, 1.0, rng)
    moved = gauge_transform_path(path, G)
    lhs = dress_path(free3.params, moved, 1)
    rel = dress_path(free3.params, path, 1)
    rhs = residual_first_kind(free3.params, rel, G)
    assert np.abs(lhs.x - rhs.x).max() < 1e-14
    assert np.abs(rhs.x[:, free3.params.block(1)]).max() == 0.0


def test_residual_first_kind_action_shift(free3, rng):
    path = random_path(rng, 3)
    rel = dress_path(free3.params, path, 1)
    G = GaugeField.random_bump(3, 0.0, 1.0, rng)
    shifted = residual_first_kind(free3.params, rel, G)
    ybar = shifted.x - rel.x
    lhs = action(free3, shifted)
    rhs = dressed_action(free3, path, 1) + path_cocycle(free3, rel, ybar).real_value
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_identity_suite_random(free3, rng):
    for _ in range(10):
        path = random_path(rng, 3)
        G = GaugeField.random_bump(3, 0.0, 1.0, rng)
        res = identity_suite(free3, path, 0, 2, G)
        assert res, "suite must report identities"
        for name, val in res.items():
            assert val < 1e-9, name


def test_identity_suite_zero_internal_field(free3, rng):
    path = random_path(rng, 3)
    G = GaugeField.constant(np.zeros(3))
    res = identity_suite(free3, path, 0, 1, G)
    assert res["frame-shift-internal-transform"] == 0.0


def test_identity_suite_rejects_equal_anchors(free3, rng):
    path = random_path(rng, 3)
    G = GaugeField.random_bump(3, 0.0, 1.0, rng)
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
    z = frame_shift(mp, path, i, j).values
    dz = np.diff(z, axis=0) / np.diff(path.t)[:, None]
    dens = (0.5 * (vi * vi) @ mp.mass_vector
            + (vi * dz + 0.5 * dz * dz) @ mp.mass_vector)
    v = path.velocities()
    vj = v[:, mp.block(j)]
    target = np.zeros(len(dens))
    for k in range(mp.n_particles):
        dvk = v[:, mp.block(k)] - vj
        target += 0.5 * mp.masses[k] * np.sum(dvk * dvk, axis=1)
    assert np.abs(dens - target).max() < 1e-12 * (1 + np.abs(target).max())


def test_dressed_critical_free(free2):
    q0 = RelationalConfig(0.0, [0.0, 0.0], 0)
    q1 = RelationalConfig(1.0, [0.0, 1.0], 0)
    rel = dressed_critical_path(free2, q0, q1, 40)
    assert np.abs(rel.x[:, 0]).max() == 0.0
    assert np.allclose(rel.x[:, 1], rel.t, atol=1e-14)
    assert action(free2, rel) == pytest.approx(1.0, abs=1e-12)


def test_dressed_critical_static(free2):
    q0 = RelationalConfig(0.0, [0.0, 0.4], 0)
    q1 = RelationalConfig(1.0, [0.0, 0.4], 0)
    rel = dressed_critical_path(free2, q0, q1, 20)
    assert action(free2, rel) == 0.0


def test_dressed_critical_matches_dressed_bare(free3):
    p0 = Config(0.0, [0.3, -0.2, 1.0])
    p1 = Config(1.0, [0.9, 0.4, -0.5])
    bare = solve_critical_path(free3, p0, p1, 64)
    for anchor in range(3):
        q0 = dress_config(free3.params, p0, anchor)
        q1 = dress_config(free3.params, p1, anchor)
        rel = dressed_critical_path(free3, q0, q1, 64)
        dressed = dress_path(free3.params, bare, anchor)
        assert np.abs(rel.x - dressed.x).max() < 1e-8


def test_dressed_critical_with_potential():
    # relative harmonic binding between two particles
    params = ModelParams(2, 1, np.array([1.0, 2.0]))
    model = LagrangianModel(
        params,
        potential=lambda z: 0.5 * (z[1] - z[0]) ** 2,
        potential_grad=lambda z: np.array([z[0] - z[1], z[1] - z[0]]),
        translation_invariant=True)
    q0 = RelationalConfig(0.0, [0.0, 0.0], 0)
    q1 = RelationalConfig(np.pi / 2, [0.0, 1.0], 0)
    rel = dressed_critical_path(model, q0, q1, 200, tol=1e-9)
    # reduced dynamics: m2 xbar'' = -xbar, frequency 1/sqrt(2)
    w = 1.0 / np.sqrt(2.0)
    expected = np.sin(w * rel.t) / np.sin(w * np.pi / 2)
    assert np.abs(rel.x[:, 1] - expected).max() < 1e-4


def test_dressing_choice_object_as_anchor(free2):
    rel = dress_config(free2.params, Config(0.0, [5.0, 2.0]), np.int64(0))
    assert np.array_equal(rel.xbar, [0.0, -3.0])
    with pytest.raises(IndexError):
        dress_config(free2.params, Config(0.0, [5.0, 2.0]), 7)


def test_identity_suite_two_dimensional(rng):
    params = ModelParams(2, 2, np.array([1.0, 2.5]))
    model = LagrangianModel(params)
    path = random_path(rng, 4)
    G = GaugeField.random_bump(4, 0.0, 1.0, rng)
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
