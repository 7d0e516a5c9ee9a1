import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cqm.bundle import (Config, GaugeField, ModelParams, Shift,
                        decompose_shift, right_action)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def vec(n):
    return arrays(np.float64, n, elements=finite)


def test_right_action_example():
    p = Config(0.0, [1.0, 2.0])
    q = right_action(p, Shift([3.0, -1.0]))
    assert q.t == 0.0
    assert np.array_equal(q.x, [4.0, 1.0])


def test_right_action_identity():
    p = Config(0.3, [1.0, 2.0, -0.5])
    q = right_action(p, Shift([0.0, 0.0, 0.0]))
    assert np.array_equal(q.x, p.x)


def test_right_action_dimension_mismatch():
    with pytest.raises(ValueError):
        right_action(Config(0.0, [1.0]), Shift([1.0, 2.0]))
    # same entry count, different last axes: must not broadcast to (2, 2)
    with pytest.raises(ValueError):
        right_action(Config(0.0, [[1.0], [2.0]]), Shift([[1.0, 2.0]]))


@settings(max_examples=200, deadline=None)
@given(vec(3), vec(3), vec(3))
def test_right_action_composition(x, a, b):
    p = Config(0.0, x)
    lhs = right_action(right_action(p, Shift(a)), Shift(b))
    rhs = right_action(p, Shift(a) + Shift(b))
    assert np.abs(lhs.x - rhs.x).max() <= 1e-15 * (1 + np.abs(rhs.x).max())


# a gauge field acts as the right action of its value at the configuration's
# time: (t, x) -> (t, x + X(t))

def test_gauge_apply_boost():
    G = GaugeField.boost(np.array([2.0]), 0.0, 4.0)
    p = Config(3.0, [1.0])
    q = right_action(p, Shift(G.value_at(p.t)))
    assert q.t == 3.0
    assert np.allclose(q.x, [7.0], atol=1e-14)


def test_gauge_apply_batches():
    G = GaugeField([0.0, 1.0], [[1.0, -2.0], [1.0, -2.0]])
    # a valid (3, 2) batch shifts row by row
    p = Config(0.5, np.arange(6.0).reshape(3, 2))
    assert np.array_equal(right_action(p, Shift(G.value_at(p.t))).x,
                          p.x + [1.0, -2.0])
    # a (2, 1) batch has as many entries as the field but a different last
    # axis: it must not broadcast to (2, 2)
    p = Config(0.5, [[1.0], [2.0]])
    with pytest.raises(ValueError):
        right_action(p, Shift(G.value_at(p.t)))


def test_gauge_apply_zero_field():
    G = GaugeField([0.0, 1.0], np.zeros((2, 2)))
    p = Config(0.7, [1.0, -2.0])
    assert np.array_equal(right_action(p, Shift(G.value_at(p.t))).x, p.x)


def test_gauge_apply_outside_support():
    G = GaugeField.sine_modes([[1.0]], 1.0, 2.0)
    for p in (Config(0.5, [3.0]), Config(2.0, [3.0])):
        assert np.array_equal(right_action(p, Shift(G.value_at(p.t))).x, [3.0])


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_gauge_apply_preserves_time(t):
    G = GaugeField.boost(np.array([1.0, -0.5]), -5.0, 5.0)
    p = Config(t, [0.0, 0.0])
    assert right_action(p, Shift(G.value_at(p.t))).t == t


def test_gauge_field_validation():
    with pytest.raises(ValueError):
        GaugeField(np.array([0.0, 0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        # nonzero sample at the support boundary
        GaugeField(np.array([0.0, 1.0]), np.array([[1.0], [0.0]]),
                   support=(0.0, 1.0))
    with pytest.raises(ValueError):
        # the same in the second field of a stack
        GaugeField(np.array([0.0, 1.0]), np.array([[[0.0], [0.0]], [[0.0], [1.0]]]),
                   support=(0.0, 1.0))
    with pytest.raises(ValueError):
        GaugeField(np.array([0.0, 1.0]), np.zeros((1, 1, 2, 1)))


@pytest.mark.parametrize("times, values", [
    ([0.0, 1.0], [[1.0], [np.inf]]),
    ([0.0, 1.0], [[np.nan], [0.0]]),
    ([0.0, np.inf], [[0.0], [1.0]]),
    ([0.0, 1.0], [[[0.0], [0.0]], [[-np.inf], [1.0]]]),
])
def test_gauge_field_rejects_non_finite_samples(times, values):
    with pytest.raises(ValueError, match="finite"):
        GaugeField(np.array(times), np.array(values))


def test_gauge_field_stack_evaluates_each_field():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(4, 2))
    stacks = [GaugeField.boost(v, -0.5, 1.5),
              GaugeField.sine_modes(rng.normal(size=(4, 3, 2)), 0.0, 1.0)]
    t = np.linspace(-0.2, 1.2, 15)
    for G in stacks:
        fields = [GaugeField(G.times, G.values[k], G.support) for k in range(4)]
        assert G.dim == 2
        assert np.array_equal(G.value_at(t), [f.value_at(t) for f in fields])
        assert np.array_equal(G.value_at(0.3), [f.value_at(0.3) for f in fields])
    assert np.array_equal(stacks[0].values[1], GaugeField.boost(v[1], -0.5, 1.5).values)


def _interp_per_column(G, t):
    """X(t) as one np.interp call per (field, coordinate) column."""
    fields = G.values.reshape(-1, G.times.size, G.dim)
    out = np.stack([np.stack([np.interp(t, G.times, f[:, j]) for j in range(G.dim)],
                             axis=-1) for f in fields])
    if G.support is not None:
        out[:, (t <= G.support[0]) | (t >= G.support[1])] = 0.0
    return out.reshape(G.values.shape[:-2] + out.shape[1:])


@st.composite
def gauge_fields(draw):
    times = np.array(draw(st.lists(finite, min_size=1, max_size=7, unique=True)))
    times.sort()
    stack = draw(st.sampled_from([(), (1,), (3,)]))
    dim = draw(st.integers(1, 3))
    values = draw(arrays(np.float64, stack + (times.size, dim), elements=finite))
    support = None
    if times.size > 1 and draw(st.booleans()):
        support = tuple(sorted(draw(st.lists(finite, min_size=2, max_size=2,
                                             unique=True))))
        values[..., (times <= support[0]) | (times >= support[1]), :] = 0.0
    return GaugeField(times, values, support)


@settings(max_examples=300, deadline=None)
@given(gauge_fields(), st.lists(finite, max_size=6))
def test_value_at_is_per_column_interp(G, extra):
    # sample times, both ends, points beyond them and arbitrary points
    t = np.concatenate([G.times, G.times[[0, -1]] + [-1.0, 1.0], extra])
    got = G.value_at(t)
    assert got.flags["C_CONTIGUOUS"]
    assert np.array_equal(got.view(np.uint64), _interp_per_column(G, t).view(np.uint64))
    for tk in (t[0], t[-1]):
        one = G.value_at(tk)
        assert one.flags["C_CONTIGUOUS"]
        assert np.array_equal(one.view(np.uint64),
                              _interp_per_column(G, np.array([tk]))[..., 0, :]
                              .view(np.uint64))


def test_gauge_field_json_roundtrip():
    G = GaugeField.sine_modes([[1.0, 2.0]], 0.0, 1.0, n=9)
    G2 = GaugeField.from_dict(G.to_dict())
    assert np.array_equal(G.values, G2.values)
    assert G.support == G2.support


@settings(max_examples=200, deadline=None)
@given(gauge_fields())
def test_gauge_field_json_roundtrip_property(G):
    # gauge_fields() draws fields with and without a support window
    back = GaugeField.from_dict(json.loads(json.dumps(G.to_dict())))
    for name in ("times", "values"):
        got, want = getattr(back, name), getattr(G, name)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert repr(back.support) == repr(G.support)


def test_decompose_particle_anchor():
    params = ModelParams(2, 1, np.array([1.0, 1.0]))
    internal, external = decompose_shift(params, [1.0, 3.0], anchor=0)
    assert np.array_equal(external, [1.0, 1.0])
    assert np.array_equal(internal, [0.0, 2.0])


def test_decompose_diagonal_shift():
    params = ModelParams(3, 2, np.array([1.0, 1.0, 1.0]))
    X = params.replicate(np.array([0.4, -1.2]))
    for anchor in (0, 2):
        internal, _ = decompose_shift(params, X, anchor=anchor)
        assert np.abs(internal).max() <= 1e-15


@settings(max_examples=150, deadline=None)
@given(vec(6))
def test_decompose_projection_pair(v):
    params = ModelParams(3, 2, np.array([1.0, 1.0, 1.0]))
    internal, external = decompose_shift(params, v, anchor=1)
    again_int, again_ext = decompose_shift(params, internal, anchor=1)
    assert np.array_equal(again_ext, np.zeros(6))
    assert np.array_equal(again_int, internal)
    # recombination is exact up to one rounding of the subtraction
    assert np.abs(internal + external - v).max() <= 1e-13 * (
        1 + np.abs(v).max())


@pytest.mark.parametrize("i", [2, -1, 1.7, 1.0, True, float("nan"), np.array([0])])
def test_block_refuses_a_non_particle(i):
    params = ModelParams(2, 1, np.array([1.0, 1.0]))
    assert params.block(np.int64(1)) == slice(1, 2)
    with pytest.raises(ValueError, match="particle index"):
        params.block(i)


def test_decompose_anchor_out_of_range():
    params = ModelParams(2, 1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="anchor"):
        decompose_shift(params, [1.0, 2.0], anchor=5)


@pytest.mark.parametrize("spatial_dim", [1, 2])
def test_decompose_stack_matches_rows(spatial_dim):
    # an (n, M+1, dim) stack with one anchor per row splits each row as a
    # call on that row alone does, bit for bit
    params = ModelParams(3, spatial_dim, np.array([1.0, 2.0, 0.5]))
    stack = np.random.default_rng(5).normal(size=(4, 7, params.dim))
    anchors = np.array([2, 0, 1, 2])
    internal, external = decompose_shift(params, stack, anchors)
    assert internal.shape == external.shape == stack.shape
    for row, a, ir, er in zip(stack, anchors, internal, external):
        row_int, row_ext = decompose_shift(params, row, a)
        assert np.array_equal(ir, row_int) and np.array_equal(er, row_ext)
        for k in (0, 6):
            ni, ne = decompose_shift(params, row[k], a)
            assert np.array_equal(ir[k], ni) and np.array_equal(er[k], ne)


def test_decompose_rejects_bad_input():
    params = ModelParams(2, 1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        decompose_shift(params, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        decompose_shift(params, [1.0, 2.0], anchor="median")
    # the per-axis mean is not a particle: dressing anchors on one
    with pytest.raises(ValueError, match="anchor"):
        decompose_shift(params, [1.0, 2.0], "mean")


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0, 1, np.array([]))
    with pytest.raises(ValueError):
        ModelParams(1, 1, np.array([-1.0]))
    with pytest.raises(ValueError):
        ModelParams(1, 1, np.array([1.0]), hbar=0.0)


def test_model_params_json_roundtrip():
    params = ModelParams(2, 3, np.array([1.0, 2.5]), hbar=0.7)
    back = ModelParams.from_dict(params.to_dict())
    assert back.n_particles == params.n_particles
    assert back.spatial_dim == params.spatial_dim
    assert np.array_equal(back.masses, params.masses)
    assert back.hbar == params.hbar


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-3, max_value=6, allow_nan=False))
def test_gauge_support_window_property(t):
    G = GaugeField.sine_modes([[1.0, -2.0]], 1.0, 2.0)
    p = Config(t, [0.5, 0.5])
    moved = right_action(p, Shift(G.value_at(p.t)))
    if t <= 1.0 or t >= 2.0:
        assert np.array_equal(moved.x, p.x)
