from pathlib import Path

import numpy as np
import pytest

import dlh
from dlh.oracle import Grid2D
from dlh.params import PhysicalConfig

# An installed dlh would otherwise be tested in place of this checkout's.
_SRC = Path(__file__).resolve().parents[1] / "src"
if Path(dlh.__file__).resolve().parent != _SRC / "dlh":
    raise pytest.UsageError(f"the tests import dlh from {dlh.__file__}, not from {_SRC}: run them with PYTHONPATH=src")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250817)


@pytest.fixture(scope="session")
def cfg_desk():
    # u = 0.5 exactly; l_m = 1 at the (lambda=2, B=1) operating point
    return PhysicalConfig(
        mass=1.0, alpha=0.5, hbar=1.0, lambda_density=2.0, B=1.0, Ex_prime=0.3, Ey_prime=0.7
    )


@pytest.fixture(scope="session")
def cfg_natural():
    # hbar = alpha = 1, so 1/(4u) = 2u and l_m = 1 at lambda = B = 1
    return PhysicalConfig(
        mass=1.0, alpha=1.0, hbar=1.0, lambda_density=1.0, B=1.0, Ex_prime=0.0, Ey_prime=0.5
    )


@pytest.fixture(scope="session")
def grid12():
    return Grid2D()


@pytest.fixture(scope="session")
def grid14():
    # wide frame for moderately excited states at l_m = 1
    return Grid2D(extent=14.0, points=256)


@pytest.fixture(scope="session")
def grid_coarse():
    # deep ladder chains (n + m up to ~6): raising operators amplify
    # spectral rounding at the frame by ~(extent + k_max)/2l per application,
    # so a low k_max (coarse h) grid is the one that keeps the boundary
    # guard satisfied for those states
    return Grid2D(extent=14.0, points=128)
