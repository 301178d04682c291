"""Shared fixtures: the reference state family and bath."""

import numpy as np
import pytest

from subplanck import (
    BathParams,
    Quadrature,
    UnitSystem,
    linspace_grid,
    make_cat_momentum,
    make_cat_position,
    make_compass,
    make_mixed,
    wigner_closed,
    wigner_transform,
)

X0 = 4.5
P0 = 10.0
SIGMA = 0.5

# verdict lines registered by the acceptance tests, printed after the run
ACCEPTANCE_LINES: list[str] = []


def route_gap(state, grid, units, quadrature=Quadrature()) -> float:
    """Largest gap between the closed-form and quadrature fields on ``grid``."""
    closed = wigner_closed(state, grid, units).values
    return float(np.abs(closed - wigner_transform(state, grid, units, quadrature).values).max())


def meshgrid(grid) -> tuple[np.ndarray, np.ndarray]:
    """``(X, P)`` arrays of shape ``(nx, np)`` on ``grid``."""
    return np.meshgrid(grid.xs(), grid.ps(), indexing="ij")


def at_origin(field) -> float:
    """Value of ``field`` at the grid node nearest ``(0, 0)``."""
    i = int(np.argmin(np.abs(field.grid.xs())))
    j = int(np.argmin(np.abs(field.grid.ps())))
    return float(field.values[i, j])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checklist")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def units():
    return UnitSystem()


@pytest.fixture(scope="session")
def cat_x(units):
    return make_cat_position(X0, SIGMA, units)


@pytest.fixture(scope="session")
def cat_p(units):
    return make_cat_momentum(P0, SIGMA, units)


@pytest.fixture(scope="session")
def mixed(cat_x, cat_p):
    return make_mixed(cat_x, cat_p)


@pytest.fixture(scope="session")
def compass(units):
    return make_compass(X0, P0, SIGMA, units)


@pytest.fixture(scope="session")
def bath():
    return BathParams(mass=1.0, gamma=0.1, temperature=10.0)


@pytest.fixture(scope="session")
def wide_grid():
    """Window covering the reference states with solid margins."""
    return linspace_grid(X0 + 8 * SIGMA, P0 + 4 / SIGMA, 241, 241)
