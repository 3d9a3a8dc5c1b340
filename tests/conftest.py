import numpy as np
import pytest

from layerfem import TwoPointBVP
from layerfem.problem import _PROBLEMS


@pytest.fixture
def no_exact_problem(monkeypatch):
    """Register, for one test, a valid problem that carries no exact solution; returns its name."""

    def factory(epsilon):
        return TwoPointBVP(
            epsilon=epsilon,
            b=lambda x: 3.0 - x,
            c=lambda x: np.ones_like(x),
            f=lambda x: np.ones_like(x),
            b_prime=lambda x: -np.ones_like(x),
        )

    monkeypatch.setitem(_PROBLEMS, "no-exact", factory)
    return "no-exact"
