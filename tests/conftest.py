import sys

import numpy as np
import pytest
from hypothesis import settings

from oqwalk import BUILTIN_NAMES, builtin
from oqwalk.asymptotics import covariance, drift, invariant_state
from oqwalk.numerics import EigenSystem

# Deterministic hypothesis runs: same examples every time, no flaky deadlines.
settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


def moments(model):
    """The spectral drift and CLT covariance of ``model`` at its invariant
    state, as the ``mean`` and ``covariance`` keywords of ``batch_statistics``."""
    rho = invariant_state(model)
    return {"mean": drift(model, rho), "covariance": covariance(model, rho)}


@pytest.fixture(scope="session")
def std_model():
    return builtin("std_example")


@pytest.fixture(scope="session")
def periodic_model():
    return builtin("periodic_example")


@pytest.fixture(scope="session")
def breakdown_model():
    return builtin("breakdown_example")


@pytest.fixture(scope="session")
def antidiag_model():
    return builtin("antidiag_example")


@pytest.fixture(scope="session")
def classical_model():
    return builtin("classical_dilation")


@pytest.fixture(scope="session")
def all_builtins():
    return {name: builtin(name) for name in BUILTIN_NAMES}


@pytest.fixture
def computes(monkeypatch):
    """``computes(fact, module, name)`` counts the calls of ``module.name`` made
    by the body of the kept per-model ``fact``: computations of the fact, not
    lookups of its kept value."""

    def count(fact, module, name):
        body = fact.__wrapped__.__code__
        calls = []
        real = getattr(module, name)

        def counting(*args, **kwargs):
            if sys._getframe(1).f_code is body:
                calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return count


@pytest.fixture
def perturb_pairs(monkeypatch):
    """``perturb_pairs(module, pick, error)`` makes ``module.eigendecompose``
    add ``error`` to every entry of each eigenvector whose eigenvalue
    ``pick(values)`` marks, one reader's mutant of the pairs it reads."""

    def perturb(module, pick, error=1e-6):
        real = module.eigendecompose

        def perturbed(matrix):
            es = real(matrix)
            shift = np.where(pick(es.values), error, 0.0)[..., None, :]
            return EigenSystem(es.values, es.vectors + shift)

        monkeypatch.setattr(module, "eigendecompose", perturbed)

    return perturb
