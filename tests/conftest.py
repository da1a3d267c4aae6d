"""Shared model fixtures.

The kernel table below is the package's standing implicit-kernel
fixture: three outcomes, linear interpolation on levels {0, 0.5, 1},
slopes bounded by 0.4, and per-outcome curves solving t = phi(i, t) at
0, 0.5 and 1 for the three degenerate lotteries.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from betweenu import (
    DisappointmentAversion,
    ExpectedUtility,
    ImplicitKernel,
    WeightedUtility,
    cyclic_oracle,
    oracle_from_value,
)

KERNEL_T_GRID = (0.0, 0.5, 1.0)
KERNEL_PHI = (
    (0.0, 0.05, 0.15),
    (0.35, 0.5, 0.7),
    (0.9, 0.95, 1.0),
)

EU_U = (0.0, 0.4, 1.0)
WU_U = (0.0, 0.4, 1.0)
WU_W = (1.0, 2.0, 0.5)
DA_U = (0.0, 0.4, 1.0)

#: Array rows that are not lotteries; in each case the last row is the bad one.
NOT_LOTTERIES = (
    [[np.nan, 0.5, 0.5]],  # not finite
    [[0.5, 0.5, 0.5]],  # sums to 1.5
    [[-0.2, 0.6, 0.6]],  # negative component
    [[0.2, 0.3, 0.5], [0.2, 0.3, 0.4]],  # second row sums to 0.9
)


def make_kernel() -> ImplicitKernel:
    return ImplicitKernel(KERNEL_T_GRID, KERNEL_PHI)


def family_models() -> dict:
    """The built-in families the acceptance criteria quantify over."""
    return {
        "expected_utility": ExpectedUtility(EU_U),
        "weighted_utility": WeightedUtility(WU_U, WU_W),
        "disappointment_aversion_0.5": DisappointmentAversion(DA_U, beta=0.5),
        "disappointment_aversion_1": DisappointmentAversion(DA_U, beta=1.0),
        "disappointment_aversion_2": DisappointmentAversion(DA_U, beta=2.0),
        "implicit_kernel": make_kernel(),
    }


def solver_models() -> dict:
    """The built-in families plus two comparison oracles: the planted cyclic
    fixture and a weighted-utility twin that exposes only ``compare``."""
    return {
        **family_models(),
        "cyclic_oracle": cyclic_oracle(),
        "weighted_utility_oracle": oracle_from_value(WeightedUtility(WU_U, WU_W).value, 3),
    }


@pytest.fixture
def eu_model():
    return ExpectedUtility(EU_U)


@pytest.fixture
def wu_model():
    return WeightedUtility(WU_U, WU_W)


@pytest.fixture
def da_model():
    return DisappointmentAversion(DA_U, beta=1.0)


@pytest.fixture
def kernel_model():
    return make_kernel()


@pytest.fixture(params=sorted(family_models()))
def family_model(request):
    return family_models()[request.param]


@pytest.fixture(params=sorted(solver_models()))
def solver_model(request):
    return solver_models()[request.param]


@st.composite
def symmetric_matrices(draw, min_n: int = 3, max_n: int = 4):
    """A symmetric matrix on ``min_n`` to ``max_n`` outcomes with entries
    in [-1, 1], as nested lists."""
    n = draw(st.integers(min_n, max_n))
    size = n * (n + 1) // 2
    matrix = np.zeros((n, n))
    matrix[np.triu_indices(n)] = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
    return (matrix + np.triu(matrix, 1).T).tolist()
