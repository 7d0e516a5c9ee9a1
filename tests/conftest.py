import numpy as np
import pytest

from cqm.bundle import ModelParams
from cqm.cocycle import LagrangianModel


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def free1():
    """One particle, one dimension, unit mass and hbar."""
    return LagrangianModel(ModelParams(1, 1, np.array([1.0])))


@pytest.fixture
def free2():
    """Two particles on a line with masses (1, 2)."""
    return LagrangianModel(ModelParams(2, 1, np.array([1.0, 2.0])))


@pytest.fixture
def free3():
    """Three particles on a line."""
    return LagrangianModel(ModelParams(3, 1, np.array([1.0, 2.0, 0.5])))


@pytest.fixture
def harmonic():
    """Unit-mass, unit-frequency oscillator."""
    return LagrangianModel(
        ModelParams(1, 1, np.array([1.0])),
        potential=lambda x: 0.5 * np.sum(x * x, axis=-1),
        potential_grad=lambda x: x,
        potential_hess=lambda x: np.ones(x.shape + (1,)),
    )


def random_path(rng, dim, t0=0.0, t1=1.0, M=40, scale=0.2):
    from cqm.classical import DiscretePath

    t = np.linspace(t0, t1, M + 1)
    x = rng.normal(size=(1, dim)) + np.cumsum(
        rng.normal(scale=scale, size=(M + 1, dim)), axis=0)
    return DiscretePath.from_nodes(t, x)


def suite_path(rng, dim):
    """One random history drawn as the experiment suites draw theirs."""
    from cqm.classical import DiscretePath

    t = np.linspace(0.0, 1.0, 49)
    x = rng.normal(scale=1.0, size=(1, dim)) + np.cumsum(
        rng.normal(scale=0.15, size=(49, dim)), axis=0)
    return DiscretePath.from_nodes(t, x)


def suite_rng(name, seed):
    """The generator ``run_experiment`` hands to suite ``name``."""
    from cqm.experiments import REGISTRY

    return np.random.default_rng([seed, list(REGISTRY).index(name)])
