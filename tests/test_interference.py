"""Tests for zero-lattice detection and tile measurements."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import P0, SIGMA, X0
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import crossings_loop, touches_loop, wc1_closed, wc2_closed, wrho_closed

from subplanck.cli import main
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
)
from subplanck.states import (
    CatSpec,
    GaussianComponent,
    make_cat_momentum,
    make_cat_position,
    make_compass,
    make_mixed,
)
from subplanck.wigner import wigner_closed_eval

HBAR = 1.0
X1 = math.pi * HBAR / (4 * P0)  # first zero line at constant x
P1 = math.pi * HBAR / (4 * X0)  # first zero line at constant p


def mixed_evaluator(x, p):
    return wrho_closed(x, p, X0, P0, SIGMA)


@pytest.fixture(scope="module")
def tile_grid():
    return linspace_grid(X0 / 2, P0 / 2, 257, 257)


@pytest.fixture(scope="module")
def units_module():
    return UnitSystem()


class TestResidual:
    """The mixture's Wigner function factors as envelope * B / (2 pi hbar);
    the zeros of W are the roots of the bracket B."""

    @staticmethod
    def residual(mixed, x, p):
        envelope = np.exp(-(x**2) / (2 * SIGMA**2) - 2 * SIGMA**2 * p**2 / HBAR**2)
        return 2 * math.pi * HBAR * wigner_closed_eval(mixed, x, p) / envelope

    def test_origin_value(self, mixed):
        assert self.residual(mixed, 0.0, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_on_axis_nonnegative(self, mixed):
        # The two cosines of B conspire on the axes: zeros are tangential.
        x = np.linspace(-1.5, 1.5, 4001)
        assert self.residual(mixed, x, 0.0).min() > -1e-12
        p = np.linspace(-3.0, 3.0, 4001)
        assert self.residual(mixed, 0.0, p).min() > -1e-12


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


def _tiles_nodes(x0: float, p0: float) -> int:
    """Odd node count that gives the resolution gate its 8 steps per line
    gap with a 1.25 margin, on the default x0/2 by p0/2 window."""
    n = max(257, math.ceil(1.25 * 16 * x0 * p0 / (math.pi * HBAR)) + 1)
    return n + (1 - n % 2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    x0=st.floats(3.0, 6.0),
    p0=st.floats(7.0, 14.0),
    sigma=st.floats(0.4, 0.6),
    compass=st.booleans(),
    even=st.booleans(),
)
def test_tile_area_over_draws(x0, p0, sigma, compass, even):
    """Mixture and compass draws on odd and even grids measure the tile
    pi^2 hbar^2/(16 x0 p0) with a checkerboard of the right signs."""
    units = UnitSystem(hbar=HBAR)
    if compass:
        state = make_compass(x0, p0, sigma, units)
    else:
        state = make_mixed(make_cat_position(x0, sigma, units), make_cat_momentum(p0, sigma, units))
    n = _tiles_nodes(x0, p0) + even
    evaluator = lambda x, p: wigner_closed_eval(state, x, p, units)
    lattice = find_zero_lattice(linspace_grid(x0 / 2, p0 / 2, n, n), evaluator)
    predicted = math.pi**2 * HBAR**2 / (16 * x0 * p0)
    assert tile_area(lattice) == pytest.approx(predicted, rel=1e-2)
    assert checkerboard_report(evaluator, lattice)["signs_ok"]


def _tile_area_cli(out, state: str, lam: float, mu: float) -> float:
    """``tiles`` at defaults in the units x -> lam x, p -> mu p, hbar -> lam mu hbar."""
    argv = ["tiles", "--state", state, "--x0", repr(lam * X0), "--p0", repr(mu * P0),
            "--sigma", repr(lam * SIGMA), "--hbar", repr(lam * mu * HBAR), "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return json.loads((out / "tiles.json").read_text(encoding="utf-8"))["lattice"]["tile_area_measured"]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(log_lam=st.floats(-6.0, 6.0), log_mu=st.floats(-6.0, 6.0), state=st.sampled_from(["mixed", "compass"]))
@example(log_lam=-5.0, log_mu=-5.0, state="mixed")
@example(log_lam=6.0, log_mu=-6.0, state="compass")
def test_tile_area_does_not_depend_on_units(tmp_path_factory, log_lam, log_mu, state):
    """Rescaling length by lam and momentum by mu (hbar follows) rescales
    the measured tile by lam mu and nothing else: the solver tolerances
    are stated relative to the grid, not in absolute units."""
    lam, mu = 10.0**log_lam, 10.0**log_mu
    base = _tile_area_cli(tmp_path_factory.mktemp("base"), state, 1.0, 1.0)
    scaled = _tile_area_cli(tmp_path_factory.mktemp("scaled"), state, lam, mu)
    assert scaled / (lam * mu) == pytest.approx(base, rel=1e-9, abs=0)


class TestLatticeDetection:
    def test_first_lines(self, tile_grid):
        lattice = find_zero_lattice(tile_grid, mixed_evaluator)
        assert lattice.first_x_line() == pytest.approx(X1, rel=1e-9)
        assert lattice.first_p_line() == pytest.approx(P1, rel=1e-9)

    def test_spacings(self, tile_grid):
        lattice = find_zero_lattice(tile_grid, mixed_evaluator)
        assert lattice.x_spacing() == pytest.approx(2 * X1, rel=1e-6)
        assert lattice.p_spacing() == pytest.approx(2 * P1, rel=1e-6)

    def test_touch_positions(self, tile_grid):
        # On-axis tangential minima sit midway between offset-row lines.
        lattice = find_zero_lattice(tile_grid, mixed_evaluator)
        assert lattice.x_touch_first == pytest.approx(2 * X1, rel=1e-6)
        assert lattice.p_touch_first == pytest.approx(2 * P1, rel=1e-6)

    def test_tile_area(self, tile_grid):
        lattice = find_zero_lattice(tile_grid, mixed_evaluator)
        predicted = math.pi**2 * HBAR**2 / (16 * X0 * P0)
        assert tile_area(lattice) == pytest.approx(predicted, rel=1e-9)
        assert tile_area(lattice) < HBAR  # sub-Planck central tile

    def test_resolution_gate(self):
        # 257 nodes put about 8.9 steps in a gap; 129 nodes put 4.5
        coarse = linspace_grid(X0 / 2, P0 / 2, 129, 129)
        with pytest.raises(ResolutionError, match="spans fewer than 8 grid steps"):
            find_zero_lattice(coarse, mixed_evaluator)

    def test_no_structure_raises(self, units_module):
        packet = CatSpec(
            components=(GaussianComponent(sigma=SIGMA, x0=0.0, p0=0.0),),
            coefficients=(1.0,),
            norm=1.0,
        )
        grid = linspace_grid(3 * SIGMA, 3 * HBAR / SIGMA, 101, 101)
        evaluator = lambda x, p: wigner_closed_eval(packet, x, p, units_module)
        with pytest.raises(LatticeError, match="no zero crossings"):
            find_zero_lattice(grid, evaluator)

    def test_position_cat_gives_p_stripes(self, units_module):
        cat = make_cat_position(X0, SIGMA, units_module)
        grid = linspace_grid(X0 / 2, P0 / 2, 257, 257)
        lattice = find_zero_lattice(grid, lambda x, p: wigner_closed_eval(cat, x, p, units_module))
        evaluator = lambda x, p: wc1_closed(x, p, X0, SIGMA)
        assert lattice.x_lines.size == 0
        assert lattice.first_p_line() == pytest.approx(P1, rel=1e-9)
        report = checkerboard_report(evaluator, lattice)
        assert report["pattern"] == "stripes_p"
        assert report["signs_ok"]

    def test_momentum_cat_gives_x_stripes(self, units_module):
        cat = make_cat_momentum(P0, SIGMA, units_module)
        grid = linspace_grid(X0 / 2, P0 / 2, 257, 257)
        lattice = find_zero_lattice(grid, lambda x, p: wigner_closed_eval(cat, x, p, units_module))
        evaluator = lambda x, p: wc2_closed(x, p, P0, SIGMA)
        assert lattice.p_lines.size == 0
        assert lattice.first_x_line() == pytest.approx(X1, rel=1e-9)
        report = checkerboard_report(evaluator, lattice)
        assert report["pattern"] == "stripes_x"
        assert report["signs_ok"]


class TestCheckerboard:
    def test_mixed_state_checkerboard(self, tile_grid):
        lattice = find_zero_lattice(tile_grid, mixed_evaluator)
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
    def test_report_contents(self, tile_grid, units_module):
        lattice = find_zero_lattice(tile_grid, mixed_evaluator)
        predicted = math.pi**2 * HBAR**2 / (16 * X0 * P0)
        report = lattice_report(lattice, units_module, predicted_area=predicted)
        assert report["tile_area_measured"] == pytest.approx(predicted, rel=1e-9)
        assert report["cell_area_measured"] == pytest.approx(4 * predicted, rel=1e-9)
        assert report["subplanck"] is True
        assert report["relative_error"] < 1e-9
        assert report["hbar"] == HBAR
        assert len(report["x_lines"]) >= 2
        assert len(report["p_lines"]) >= 2

    def test_report_without_prediction(self, tile_grid, units_module):
        lattice = find_zero_lattice(tile_grid, mixed_evaluator)
        report = lattice_report(lattice, units_module)
        assert "tile_area_predicted" not in report
        assert "relative_error" not in report


def test_readme_library_example():
    """README's library example runs, and its first line is the tile area."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    first = float(out.getvalue().split()[0])
    assert first == pytest.approx(math.pi**2 / 720, rel=1e-6)
