"""Tests for zero-lattice detection and tile measurements."""

import math

import numpy as np
import pytest
from conftest import P0, SIGMA, X0
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import crossings_loop, touches_loop, wc1_closed, wc2_closed, wrho_closed

from subplanck.core import ResolutionError, UnitSystem, linspace_grid
from subplanck.interference import (
    LatticeError,
    ZeroLattice,
    _crossings,
    _touches,
    checkerboard_report,
    find_zero_lattice,
    lattice_report,
    tile_area,
    zero_condition_residual,
)
from subplanck.states import CatSpec, GaussianComponent
from subplanck.wigner import wigner_closed, wigner_closed_eval

HBAR = 1.0
X1 = math.pi * HBAR / (4 * P0)  # first zero line at constant x
P1 = math.pi * HBAR / (4 * X0)  # first zero line at constant p


def mixed_evaluator(x, p):
    return wrho_closed(x, p, X0, P0, SIGMA)


@pytest.fixture(scope="module")
def tile_field(mixed_module, units_module):
    grid = linspace_grid(X0 / 2, P0 / 2, 257, 257)
    return wigner_closed(mixed_module, grid, units_module)


@pytest.fixture(scope="module")
def mixed_module(units_module):
    from subplanck.states import make_cat_momentum, make_cat_position, make_mixed

    return make_mixed(
        make_cat_position(X0, SIGMA, units_module),
        make_cat_momentum(P0, SIGMA, units_module),
    )


@pytest.fixture(scope="module")
def units_module():
    return UnitSystem()


class TestResidual:
    def test_origin_value(self):
        assert zero_condition_residual(0.0, 0.0, X0, P0, SIGMA) == pytest.approx(
            2.0, rel=1e-15
        )

    def test_factorization_identity(self):
        # W = envelope * B / (2 pi hbar) wherever the envelope is finite.
        rng = np.random.default_rng(3)
        x = rng.uniform(-2.0, 2.0, 50)
        p = rng.uniform(-4.0, 4.0, 50)
        envelope = np.exp(-(x**2) / (2 * SIGMA**2) - 2 * SIGMA**2 * p**2 / HBAR**2)
        lhs = wrho_closed(x, p, X0, P0, SIGMA)
        rhs = envelope * zero_condition_residual(x, p, X0, P0, SIGMA) / (2 * math.pi * HBAR)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)

    def test_on_axis_nonnegative(self):
        # The two cosines conspire on the axes: zeros are tangential.
        x = np.linspace(-1.5, 1.5, 4001)
        assert zero_condition_residual(x, 0.0, X0, P0, SIGMA).min() > -1e-12
        p = np.linspace(-3.0, 3.0, 4001)
        assert zero_condition_residual(0.0, p, X0, P0, SIGMA).min() > -1e-12


# Samples drawn from a few levels so that exact zeros, -0.0, runs,
# plateaus and sign changes are common; lengths start at 1.
_SCAN_LEVELS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 1e-5, -1e-5, 5e-4, 0.25])
_SCAN_VALUES = st.one_of(
    st.lists(_SCAN_LEVELS, min_size=1, max_size=40),
    st.lists(st.floats(-5.0, 5.0, width=16) | _SCAN_LEVELS, min_size=1, max_size=40),
    st.integers(1, 12).map(lambda n: [0.0] * n),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=_SCAN_VALUES, threshold=st.sampled_from([1e-3, 1e-2, 0.1, 0.3]))
@example(values=[0.0], threshold=1e-3)
@example(values=[-0.0, 1.0], threshold=1e-3)
@example(values=[1.0, 0.0, -1.0], threshold=1e-3)
@example(values=[0.0, 0.0, 1.0, 0.0, -0.0, -1.0, 0.0], threshold=1e-3)
@example(values=[2.0, 1e-5, 2.0, 2.0, 1e-5, 1e-5, 2.0], threshold=1e-3)
@example(values=[1e-5, 2.0, 0.0, 2.0, 0.0, 0.0], threshold=1e-3)
def test_scan_masks_match_loops(values, threshold):
    """The array scans return exactly what the node-by-node loops return."""
    vals = np.array(values)
    coords = np.linspace(-1.0, 1.0, vals.size)
    assert _crossings(coords, vals) == crossings_loop(coords, vals)
    assert _touches(coords, vals, threshold) == touches_loop(coords, vals, threshold)


class TestLatticeDetection:
    def test_first_lines(self, tile_field):
        lattice = find_zero_lattice(tile_field, evaluator=mixed_evaluator)
        assert lattice.first_x_line() == pytest.approx(X1, rel=1e-9)
        assert lattice.first_p_line() == pytest.approx(P1, rel=1e-9)

    def test_spacings(self, tile_field):
        lattice = find_zero_lattice(tile_field, evaluator=mixed_evaluator)
        assert lattice.x_spacing() == pytest.approx(2 * X1, rel=1e-6)
        assert lattice.p_spacing() == pytest.approx(2 * P1, rel=1e-6)

    def test_touch_positions(self, tile_field):
        # On-axis tangential minima sit midway between offset-row lines.
        lattice = find_zero_lattice(tile_field, evaluator=mixed_evaluator)
        assert lattice.x_touch_first == pytest.approx(2 * X1, rel=1e-6)
        assert lattice.p_touch_first == pytest.approx(2 * P1, rel=1e-6)

    def test_tile_area(self, tile_field):
        lattice = find_zero_lattice(tile_field, evaluator=mixed_evaluator)
        predicted = math.pi**2 * HBAR**2 / (16 * X0 * P0)
        assert tile_area(lattice) == pytest.approx(predicted, rel=1e-9)
        assert tile_area(lattice) < HBAR  # sub-Planck central tile

    def test_resolution_gate(self, tile_field):
        with pytest.raises(ResolutionError, match="spacing"):
            find_zero_lattice(tile_field, evaluator=mixed_evaluator, min_nodes_per_gap=16)

    def test_no_structure_raises(self, units_module):
        packet = CatSpec(
            components=(GaussianComponent(sigma=SIGMA, x0=0.0, p0=0.0),),
            coefficients=(1.0,),
            norm=1.0,
        )
        grid = linspace_grid(3 * SIGMA, 3 * HBAR / SIGMA, 101, 101)
        field = wigner_closed(packet, grid, units_module)
        evaluator = lambda x, p: wigner_closed_eval(packet, x, p, units_module)
        with pytest.raises(LatticeError, match="no zero crossings"):
            find_zero_lattice(field, evaluator=evaluator)

    def test_position_cat_gives_p_stripes(self, units_module):
        from subplanck.states import make_cat_position

        cat = make_cat_position(X0, SIGMA, units_module)
        grid = linspace_grid(X0 / 2, P0 / 2, 257, 257)
        field = wigner_closed(cat, grid, units_module)
        evaluator = lambda x, p: wc1_closed(x, p, X0, SIGMA)
        lattice = find_zero_lattice(field, evaluator=evaluator)
        assert lattice.x_lines.size == 0
        assert lattice.first_p_line() == pytest.approx(P1, rel=1e-9)
        report = checkerboard_report(evaluator, lattice)
        assert report["pattern"] == "stripes_p"
        assert report["signs_ok"]

    def test_momentum_cat_gives_x_stripes(self, units_module):
        from subplanck.states import make_cat_momentum

        cat = make_cat_momentum(P0, SIGMA, units_module)
        grid = linspace_grid(X0 / 2, P0 / 2, 257, 257)
        field = wigner_closed(cat, grid, units_module)
        evaluator = lambda x, p: wc2_closed(x, p, P0, SIGMA)
        lattice = find_zero_lattice(field, evaluator=evaluator)
        assert lattice.p_lines.size == 0
        assert lattice.first_x_line() == pytest.approx(X1, rel=1e-9)
        report = checkerboard_report(evaluator, lattice)
        assert report["pattern"] == "stripes_x"
        assert report["signs_ok"]


class TestCheckerboard:
    def test_mixed_state_checkerboard(self, tile_field):
        lattice = find_zero_lattice(tile_field, evaluator=mixed_evaluator)
        report = checkerboard_report(mixed_evaluator, lattice)
        assert report["pattern"] == "checkerboard"
        assert report["signs_ok"]
        assert report["first_mismatch"] is None
        assert report["centers_checked"] == 25  # k+m even within |k|,|m| <= 3
        assert report["spacing_x"] == pytest.approx(2 * X1, rel=1e-6)
        assert report["spacing_p"] == pytest.approx(2 * P1, rel=1e-6)

    def test_empty_lattice_is_single(self):
        lattice = ZeroLattice()
        report = checkerboard_report(mixed_evaluator, lattice)
        assert report["pattern"] == "single"
        assert report["centers_checked"] == 0


class TestReport:
    def test_report_contents(self, tile_field, units_module):
        lattice = find_zero_lattice(tile_field, evaluator=mixed_evaluator)
        predicted = math.pi**2 * HBAR**2 / (16 * X0 * P0)
        report = lattice_report(lattice, units_module, predicted_area=predicted)
        assert report["tile_area_measured"] == pytest.approx(predicted, rel=1e-9)
        assert report["cell_area_measured"] == pytest.approx(4 * predicted, rel=1e-9)
        assert report["subplanck"] is True
        assert report["relative_error"] < 1e-9
        assert report["hbar"] == HBAR
        assert len(report["x_lines"]) >= 2
        assert len(report["p_lines"]) >= 2

    def test_report_without_prediction(self, tile_field, units_module):
        lattice = find_zero_lattice(tile_field, evaluator=mixed_evaluator)
        report = lattice_report(lattice, units_module)
        assert "tile_area_predicted" not in report
        assert "relative_error" not in report
