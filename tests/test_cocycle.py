import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cqm.bundle import Config, GaugeField, ModelParams
from cqm.classical import (DiscretePath, action, el_residual,
                           gauge_transform_path, hpf_value, shift_path_nodes,
                           solve_critical_path)
from cqm.cocycle import (CocycleAccumulator, LagrangianModel,
                         boost_boundary_term, cocycle_density,
                         cocycle_property_residual, linear_cocycle,
                         path_cocycle, path_linear_cocycle, pointwise_cocycle)
from conftest import random_path

finite = st.floats(min_value=-20, max_value=20, allow_nan=False)


def test_density_single_particle():
    model = LagrangianModel(ModelParams(1, 1, np.array([2.0])))
    assert cocycle_density(model, np.array([3.0]), np.array([1.0])) == pytest.approx(7.0)


def test_density_zero_shift(free2, rng):
    v = rng.normal(size=2)
    assert cocycle_density(free2, v, np.zeros(2)) == 0.0


def test_density_two_particles(free2):
    val = cocycle_density(free2, np.array([1.0, 0.0]), np.array([2.0, 1.0]))
    assert val == pytest.approx(5.0)


def test_density_dimension_mismatch(free2):
    with pytest.raises(ValueError):
        cocycle_density(free2, np.array([1.0]), np.array([1.0, 2.0]))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, 2, elements=finite), arrays(np.float64, 2, elements=finite),
       arrays(np.float64, 2, elements=finite), arrays(np.float64, 2, elements=finite))
def test_composition_identity(x, v, X, Y):
    model = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    p = Config(0.0, x)
    res = cocycle_property_residual(model, p, v, X, Y)
    scale = (1.0 + abs(pointwise_cocycle(model, p, v, X))
             + abs(pointwise_cocycle(model, p, v, Y)))
    assert res < 1e-10 * scale


def test_composition_identity_zero_shift(free2, rng):
    p = Config(0.0, rng.normal(size=2))
    v = rng.normal(size=2)
    Y = rng.normal(size=2)
    assert cocycle_property_residual(free2, p, v, np.zeros(2), Y) == 0.0


def test_composition_inverse(free2, rng):
    p = Config(0.0, rng.normal(size=2))
    v = rng.normal(size=2)
    X = rng.normal(size=2)
    assert cocycle_property_residual(free2, p, v, X, -X) < 1e-12


def test_composition_identity_with_potential(rng):
    params = ModelParams(2, 1, np.array([1.0, 2.0]))
    model = LagrangianModel(
        params, potential=lambda z: np.cos(z[..., 1] - z[..., 0]))
    for _ in range(50):
        p = Config(0.0, rng.normal(size=2))
        v, X, Y = (rng.normal(size=2) for _ in range(3))
        assert cocycle_property_residual(model, p, v, X, Y) < 1e-12


# each callable answers a (5, 2) stack with a single configuration's shape
@pytest.mark.parametrize("field, value, method", [
    ("potential", lambda z: np.cos(z), "potential_values"),
    ("potential", lambda z: float(np.sum(z * z)), "potential_values"),
    ("potential_grad", lambda z: np.array([z[0, 1], z[0, 0]]), "gradient"),
    ("potential_hess", lambda z: np.eye(2), "hessian"),
])
def test_derivative_of_wrong_shape_rejected(field, value, method, rng):
    fields = {"potential": lambda z: np.sum(z * z, axis=-1), field: value}
    model = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])), **fields)
    with pytest.raises(ValueError, match=f"{field} must return shape"):
        getattr(model, method)(np.zeros((5, 2)))
    if field == "potential":
        with pytest.raises(ValueError, match="potential must return shape"):
            action(model, random_path(rng, 2))


# a potential without (some of) its derivatives, and two endpoints
def _cos_model(**derivatives) -> LagrangianModel:
    return LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])),
                           potential=lambda z: np.cos(z[..., 1] - z[..., 0]),
                           **derivatives)


P0, P1 = Config(0.0, [0.0, 0.0]), Config(1.0, [0.5, 1.0])


@pytest.mark.parametrize("call", [
    lambda m: el_residual(m, DiscretePath.straight(P0, P1, 8)),
    lambda m: solve_critical_path(m, P0, P1, 8),
    lambda m: hpf_value(m, P0, P1, 8),
], ids=["el_residual", "solve_critical_path", "hpf_value"])
def test_missing_gradient_is_refused(call):
    # derivatives are supplied, never differenced from the potential
    with pytest.raises(ValueError, match="potential_grad"):
        call(_cos_model())


def test_missing_hessian_is_refused():
    def grad(z):
        s = np.sin(z[..., 1] - z[..., 0])
        return np.stack([-s, s], axis=-1)

    with pytest.raises(ValueError, match="potential_hess"):
        solve_critical_path(_cos_model(potential_grad=grad), P0, P1, 8)


def test_linear_cocycle_example():
    model = LagrangianModel(ModelParams(1, 1, np.array([2.0])))
    assert linear_cocycle(model, np.array([3.0]), np.array([0.5])) == pytest.approx(3.0)
    assert linear_cocycle(model, np.array([3.0]), np.zeros(1)) == 0.0


def test_linear_cocycle_is_limit(free2, rng):
    v = rng.normal(size=2)
    chi = rng.normal(size=2)
    a = linear_cocycle(free2, v, chi)
    errs = []
    for eps in (1e-3, 1e-4):
        errs.append(abs(cocycle_density(free2, v, eps * chi) / eps - a))
    # first-order error in eps
    assert errs[1] < 0.15 * errs[0]


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, 2, elements=finite), arrays(np.float64, 2, elements=finite),
       arrays(np.float64, 2, elements=finite),
       st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_linear_cocycle_linearity(v, c1, c2, a, b):
    model = LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))
    lhs = linear_cocycle(model, v, a * c1 + b * c2)
    rhs = a * linear_cocycle(model, v, c1) + b * linear_cocycle(model, v, c2)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_path_cocycle_boost_closed_form(free1):
    # straight path 0 -> 2 over T=1 under the boost X(t) = t:
    # integral is m<dx, v> + m v^2 T / 2 = 2 + 0.5
    path = DiscretePath.straight(Config(0.0, [0.0]), Config(1.0, [2.0]), 64)
    G = GaugeField.boost(np.array([1.0]), -0.5, 1.5)
    acc = path_cocycle(free1, path, G)
    assert acc.real_value == pytest.approx(2.5, abs=1e-12)
    assert acc.phase == pytest.approx(np.exp(-2.5j), abs=1e-12)


def test_path_cocycle_boost_equals_boundary_term(free2, rng):
    # for any path, the boost cocycle telescopes to the endpoint difference
    path = random_path(rng, 2)
    v = rng.normal(size=2)
    G = GaugeField.boost(v, -0.5, 1.5)
    acc = path_cocycle(free2, path, G)
    mv = free2.params.mass_vector

    def delta(cfg):
        return float(np.dot(mv * cfg.x, v) + 0.5 * np.dot(mv * v, v) * cfg.t)

    p0, p1 = path.endpoint_configs()
    assert abs(acc.real_value - (delta(p1) - delta(p0))) < 1e-12 * (1 + abs(acc.real_value))


def test_path_cocycle_zero_and_constant(free2, rng):
    path = random_path(rng, 2)
    zero = path_cocycle(free2, path, GaugeField([0.0, 1.0], np.zeros((2, 2))))
    assert zero.real_value == 0.0
    assert zero.phase == 1.0 + 0.0j
    c = rng.normal(size=2)
    const = path_cocycle(free2, path, GaugeField([0.0, 1.0], [c, c]))
    assert const.real_value == 0.0


def test_path_cocycle_needs_two_nodes(free1):
    path = DiscretePath.from_nodes([0.0, 1.0], np.zeros((2, 1)))
    bad = type("P", (), {"t": np.array([0.0]), "x": np.zeros((1, 1))})()
    with pytest.raises(ValueError):
        path_cocycle(free1, bad, GaugeField([0.0, 1.0], np.zeros((2, 1))))
    path_cocycle(free1, path, GaugeField([0.0, 1.0], np.zeros((2, 1))))


def test_u1_composition_on_paths(free2, rng):
    for _ in range(20):
        path = random_path(rng, 2)
        X = GaugeField.sine_modes(rng.normal(size=(4, 2)), 0.0, 1.0)
        Y = GaugeField.sine_modes(rng.normal(size=(4, 2)), 0.0, 1.0)
        cX = path_cocycle(free2, path, X)
        assert abs(abs(cX.phase) - 1.0) < 1e-14
        both = X.value_at(path.t) + Y.value_at(path.t)
        cXY = path_cocycle(free2, path, both)
        cY = path_cocycle(free2, gauge_transform_path(path, X), Y)
        assert abs(cXY.phase - cX.phase * cY.phase) < 1e-10


def test_path_linear_cocycle_is_gateaux(free2, rng):
    from cqm.classical import action, shift_path_nodes

    path = random_path(rng, 2)
    chi = GaugeField.sine_modes(rng.normal(size=(4, 2)), 0.0, 1.0)
    chin = chi.value_at(path.t)
    lin = path_linear_cocycle(free2, path, chi)
    eps = 1e-6
    fd = (action(free2, shift_path_nodes(path, eps * chin))
          - action(free2, shift_path_nodes(path, -eps * chin))) / (2 * eps)
    assert abs(fd - lin) < 1e-6 * (1 + abs(lin))


def test_boost_phase_example(free1):
    # a boost multiplies wave functions by exp(i boost_boundary_term / hbar)
    p = Config(3.0, [1.0])
    for q, v, phase in ((p, [2.0], np.exp(8.0j)), (p, [0.0], 1.0),
                        (Config(0.0, [0.0]), [2.0], 1.0)):
        term = boost_boundary_term(free1, q, np.array(v))
        assert type(term) is float
        assert np.exp(1j * term / free1.params.hbar) == pytest.approx(phase)


def test_accumulator_phase_consistency():
    acc = CocycleAccumulator.from_value(1.7, hbar=0.5)
    assert abs(abs(acc.phase) - 1.0) < 1e-14
    assert acc.phase == pytest.approx(np.exp(-1j * 1.7 / 0.5))
    assert acc.inverse_phase == pytest.approx(np.conj(acc.phase))


def test_hbar_enters_phases():
    params = ModelParams(1, 1, np.array([1.0]), hbar=2.0)
    model = LagrangianModel(params)
    path = DiscretePath.straight(Config(0.0, [0.0]), Config(1.0, [2.0]), 16)
    G = GaugeField.boost(np.array([1.0]), -0.5, 1.5)
    acc = path_cocycle(model, path, G)
    assert acc.phase == pytest.approx(np.exp(-1j * acc.real_value / 2.0))
    term = boost_boundary_term(model, Config(3.0, [1.0]), np.array([2.0]))
    assert np.exp(1j * term / model.params.hbar) == pytest.approx(np.exp(4.0j))


def test_shift_objects_accepted(free2, rng):
    from cqm.bundle import Shift

    v = Shift(rng.normal(size=2))
    W = Shift(rng.normal(size=2))
    assert cocycle_density(free2, v, W) == cocycle_density(free2, v.v, W.v)
    assert linear_cocycle(free2, v, W) == linear_cocycle(free2, v.v, W.v)


def test_u1_composition_with_potential(rng):
    model = LagrangianModel(
        ModelParams(2, 1, np.array([1.0, 2.0])),
        potential=lambda z: np.cos(z[..., 1] - z[..., 0]))
    path = random_path(rng, 2)
    X = GaugeField.sine_modes(rng.normal(size=(4, 2)), 0.0, 1.0)
    Y = GaugeField.sine_modes(rng.normal(size=(4, 2)), 0.0, 1.0)
    both = X.value_at(path.t) + Y.value_at(path.t)
    cXY = path_cocycle(model, path, both)
    cX = path_cocycle(model, path, X)
    cY = path_cocycle(model, gauge_transform_path(path, X), Y)
    assert abs(cXY.phase - cX.phase * cY.phase) < 1e-12


# batch contract: (n, dim) probes give the stacked single-probe values
BATCH_MODELS = {
    "free-dim9": LagrangianModel(ModelParams(3, 3, np.array([1.0, 2.0, 0.5]))),
    "potential": LagrangianModel(
        ModelParams(2, 1, np.array([1.0, 2.0])),
        potential=lambda z: np.cos(z[..., 1] - z[..., 0])),
}


@pytest.mark.parametrize("kind", sorted(BATCH_MODELS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_batch_equals_stacked_probes(kind, data):
    model = BATCH_MODELS[kind]
    n = data.draw(st.integers(min_value=1, max_value=6))
    x, v, X, Y = data.draw(arrays(np.float64, (4, n, model.params.dim),
                                  elements=finite))
    p = Config(0.5, x)
    rows = [Config(0.5, x[k]) for k in range(n)]
    cases = [
        (cocycle_density(model, v, X),
         [cocycle_density(model, v[k], X[k]) for k in range(n)]),
        (linear_cocycle(model, v, X),
         [linear_cocycle(model, v[k], X[k]) for k in range(n)]),
        (pointwise_cocycle(model, p, v, X),
         [pointwise_cocycle(model, rows[k], v[k], X[k]) for k in range(n)]),
        (cocycle_property_residual(model, p, v, X, Y),
         [cocycle_property_residual(model, rows[k], v[k], X[k], Y[k])
          for k in range(n)]),
    ]
    for batch, stacked in cases:
        assert batch.shape == (n,)
        assert isinstance(stacked[0], np.float64)
        assert np.all(batch == np.array(stacked))


@pytest.mark.parametrize("n_particles, spatial_dim", [(2, 1), (3, 2)])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_boost_boundary_term_batch_equals_rows(n_particles, spatial_dim, data):
    # an (n, dim) batch with (n, dim) velocities gives the per-row terms, bit
    # for bit, and each row is the np.dot form of a single configuration
    model = LagrangianModel(ModelParams(n_particles, spatial_dim,
                                        np.array([1.0, 2.0, 0.5][:n_particles])))
    mv, dim = model.params.mass_vector, model.params.dim
    n = data.draw(st.integers(min_value=1, max_value=6))
    x, v = data.draw(arrays(np.float64, (2, n, dim), elements=finite))
    t = data.draw(finite)
    batch = boost_boundary_term(model, Config(t, x), v)
    rows = [boost_boundary_term(model, Config(t, x[k]), v[k]) for k in range(n)]
    dots = [float(np.dot(mv * x[k], v[k]) + 0.5 * np.dot(mv * v[k], v[k]) * t)
            for k in range(n)]
    assert batch.shape == (n,)
    assert type(rows[0]) is float
    assert np.array_equal(batch.view(np.uint64), np.array(rows).view(np.uint64))
    assert np.array_equal(batch.view(np.uint64), np.array(dots).view(np.uint64))


@pytest.mark.parametrize("width", [1, 3])
def test_batch_last_axis_mismatch(free2, rng, width):
    # width 1 would broadcast against the mass vector without the check
    p = Config(0.0, rng.normal(size=(5, 2)))
    good = rng.normal(size=(5, 2))
    bad = rng.normal(size=(5, width))
    calls = [
        lambda: cocycle_density(free2, good, bad),
        lambda: linear_cocycle(free2, bad, good),
        lambda: pointwise_cocycle(free2, p, good, bad),
        lambda: cocycle_property_residual(free2, p, good, good, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="last axis"):
            call()


# stack contract: an (n, M+1, dim) stack of paths on one time grid gives the
# per-path values, bit for bit
STACK_MODELS = {"free2": LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0]))),
                **BATCH_MODELS}


@pytest.mark.parametrize("kind", sorted(STACK_MODELS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_path_stack_equals_per_path(kind, data):
    model = STACK_MODELS[kind]
    dim = model.params.dim
    n = data.draw(st.integers(min_value=1, max_value=5))
    M = data.draw(st.integers(min_value=1, max_value=40))
    t = np.cumsum(data.draw(arrays(np.float64, M + 1,
                                   elements=st.floats(min_value=0.01, max_value=1.0))))
    x, X = data.draw(arrays(np.float64, (2, n, M + 1, dim), elements=finite))
    modes = data.draw(arrays(np.float64, (n, 3, dim), elements=finite))
    stack = DiscretePath.from_nodes(t, x)
    paths = [DiscretePath.from_nodes(t, x[k]) for k in range(n)]
    G = GaugeField.sine_modes(modes, t[0] - 0.1, t[-1] + 0.1)
    fields = [GaugeField.sine_modes(modes[k], t[0] - 0.1, t[-1] + 0.1)
              for k in range(n)]
    cases = [
        (action(model, stack), [action(model, p) for p in paths]),
        (path_cocycle(model, stack, X).real_value,
         [path_cocycle(model, p, X[k]).real_value for k, p in enumerate(paths)]),
        (path_cocycle(model, stack, G).real_value,
         [path_cocycle(model, p, f).real_value for p, f in zip(paths, fields)]),
        (path_linear_cocycle(model, stack, X),
         [path_linear_cocycle(model, p, X[k]) for k, p in enumerate(paths)]),
    ]
    for stacked, per_path in cases:
        assert type(per_path[0]) is float
        assert stacked.shape == (n,)
        assert np.array_equal(stacked, per_path)
    assert np.array_equal(shift_path_nodes(stack, X).x,
                          [shift_path_nodes(p, X[k]).x for k, p in enumerate(paths)])
    assert np.array_equal(gauge_transform_path(stack, G).x,
                          [gauge_transform_path(p, f).x for p, f in zip(paths, fields)])
    # one field shifts every path of a stack, one path by a stack of samples
    assert np.array_equal(shift_path_nodes(stack, X[0]).x, x + X[0])
    assert np.array_equal(shift_path_nodes(paths[0], X).x, x[0] + X)


@pytest.mark.parametrize("mp", [ModelParams(2, 1, np.array([1.0, 2.0])),
                                ModelParams(3, 2, np.array([1.0, 2.0, 0.5]), 0.7)],
                         ids=["n2d1", "n3d2-hbar0.7"])
def test_verify_cocycle_suite_matches_per_path_loop(mp):
    # the suite evaluates its random paths as one stack; this is the loop that
    # draws and evaluates one path at a time, on the same stream
    from conftest import suite_path, suite_rng
    from cqm.experiments import run_experiment

    model, dim, n_probes = LagrangianModel(mp), mp.dim, 30
    checks = {c.name: c.residual for c in run_experiment(
        "verify-cocycle", mp, {"n_probes": n_probes}, 5, None)}
    rng = suite_rng("verify-cocycle", 5)
    # the pointwise probe families the suite draws first
    rng.uniform(-1, 1)
    for shape in ((n_probes, dim), (3, n_probes, dim), (3, 1000, dim), (2, 1000, 1),
                  (2, 50, dim)):
        rng.normal(size=shape)
    phase = unit = 0.0
    for _ in range(20):
        path = suite_path(rng, dim)
        X = GaugeField.sine_modes(rng.normal(size=(4, dim)), 0.0, 1.0)
        Y = GaugeField.sine_modes(rng.normal(size=(4, dim)), 0.0, 1.0)
        cX = path_cocycle(model, path, X)
        cXY = path_cocycle(model, path, X.value_at(path.t) + Y.value_at(path.t))
        cY = path_cocycle(model, gauge_transform_path(path, X), Y)
        phase = max(phase, abs(cXY.phase - cX.phase * cY.phase))
        unit = max(unit, abs(abs(cXY.phase) - 1.0))
    assert checks["phase-composition"] == phase
    assert checks["phase-unit-modulus"] == unit
    assert phase > 0
