"""Tests for displacement-overlap measurements and orthogonality searches."""

import math

import numpy as np
import pytest
from conftest import P0, SIGMA, X0
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import default_scan_grid, first_dip_loop, overlap_map

from subplanck.core import UnitSystem
from subplanck.metrology import (
    OverlapScan,
    SearchError,
    _first_dip,
    compare_with_compass,
    find_orthogonality,
    overlap_closed,
    overlap_reference,
)
from subplanck.states import (
    CatSpec,
    GaussianComponent,
    MixedSpec,
    make_cat_momentum,
    make_cat_position,
    make_compass,
    make_mixed,
    psi_eval,
)
from subplanck.wigner import wigner_closed

HBAR = 1.0
BRACKET1 = 1.5 * math.pi * HBAR / X0
BRACKET2 = 1.5 * math.pi * HBAR / P0
D1_STAR = math.pi * HBAR / (2 * X0)  # pi/9
D2_STAR = math.pi * HBAR / (2 * P0)  # pi/20


def true_overlap(d1, d2):
    """Defining-integral value of the mixed-cat displacement overlap."""
    damp = math.exp(-(d1**2) * SIGMA**2 / HBAR**2 - d2**2 / (4 * SIGMA**2))
    return (
        damp
        * (2 + math.cos(2 * d1 * X0 / HBAR) + math.cos(2 * d2 * P0 / HBAR))
        / (16 * math.pi * HBAR)
    )


@pytest.fixture(scope="module")
def units():
    return UnitSystem()


@pytest.fixture(scope="module")
def mixed(units):
    return make_mixed(
        make_cat_position(X0, SIGMA, units), make_cat_momentum(P0, SIGMA, units)
    )


@pytest.fixture(scope="module")
def scan(mixed, units):
    return OverlapScan(mixed, default_scan_grid(X0, P0, SIGMA, units), units)


@pytest.fixture(scope="module")
def exact(mixed, units):
    """The production evaluator bound to the mixture."""
    return lambda d1, d2: overlap_closed(mixed, d1, d2, units)


class TestScanGrid:
    def test_window_and_parity(self, units):
        grid = default_scan_grid(X0, P0, SIGMA, units)
        assert grid.nx % 2 == 1 and grid.np % 2 == 1
        assert grid.x_max >= X0 + 8 * SIGMA
        assert grid.p_max >= P0 + 4 * HBAR / SIGMA
        # Steps must resolve the product fringe of two displaced copies.
        assert grid.dx < 2 * math.pi * HBAR / (4 * P0)
        assert grid.dp < 2 * math.pi * HBAR / (4 * X0)


class TestOverlapValues:
    def test_origin_value(self, scan):
        assert scan.o00 == pytest.approx(1 / (4 * math.pi * HBAR), rel=1e-12)

    def test_matches_defining_integral_form(self, scan, exact):
        rng = np.random.default_rng(17)
        for _ in range(8):
            d1 = rng.uniform(0, 0.8)
            d2 = rng.uniform(0, 0.35)
            for evaluate in (scan.value, exact):
                assert evaluate(d1, d2) == pytest.approx(true_overlap(d1, d2), abs=1e-12)

    def test_unit_normalization(self, scan):
        assert scan.unit(0.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_one_shot_wrapper(self, scan):
        raw = scan.value(0.1, 0.05)
        unit = scan.unit(0.1, 0.05)
        assert raw == pytest.approx(true_overlap(0.1, 0.05), abs=1e-12)
        assert unit == pytest.approx(raw * 4 * math.pi * HBAR, rel=1e-10)

    def test_true_joint_zero(self, scan):
        assert abs(scan.unit(D1_STAR, D2_STAR)) < 1e-12

    def test_trapezoid_beats_simpson_on_tuned_grid(self, mixed, units):
        # The scan grid critically samples the product fringe, where the
        # trapezoid rule is spectrally accurate but Simpson's algebraic
        # O((omega h)^4) error is at the percent level.  This pins the
        # design choice of trapezoid as the default.
        grid = default_scan_grid(X0, P0, SIGMA, units)
        simpson = OverlapScan(mixed, grid, units, rule="simpson")
        target = 1 / (4 * math.pi * HBAR)
        assert abs(simpson.o00 - target) < 0.02 * target
        assert abs(simpson.o00 - target) > 1e-4 * target


# Property tests draw from a fixed sequence, so every run checks the same cases.
SEEDED = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@st.composite
def packet_states(draw):
    """A cat mixture (with a drawn weight) or a compass state, with the
    ``(x0, p0, sigma)`` it was built from."""
    x0 = draw(st.floats(2.0, 6.0))
    p0 = draw(st.floats(5.0, 14.0))
    sigma = draw(st.floats(0.3, 0.8))
    if draw(st.booleans()):
        state = make_compass(x0, p0, sigma)
    else:
        weight = draw(st.floats(0.2, 0.8))
        state = make_mixed(make_cat_position(x0, sigma), make_cat_momentum(p0, sigma), weight)
    return state, x0, p0, sigma


def displacements(x0, p0):
    """Displacements within the search brackets, in both directions."""
    return st.tuples(
        st.floats(-1.5 * math.pi * HBAR / x0, 1.5 * math.pi * HBAR / x0),
        st.floats(-1.5 * math.pi * HBAR / p0, 1.5 * math.pi * HBAR / p0),
    )


def purity(state, x0, sigma):
    """``Tr rho^2`` from wave functions sampled on a fine grid."""
    xs = np.linspace(-(x0 + 12 * sigma), x0 + 12 * sigma, 8001)
    branches = state.branches if isinstance(state, MixedSpec) else ((1.0, state),)
    psis = [(p, psi_eval(cat, xs)) for p, cat in branches]
    return sum(
        pa * pb * abs(np.trapezoid(np.conj(a) * b, xs)) ** 2
        for pa, a in psis
        for pb, b in psis
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-7, 1.0 - 1e-6, 2.0, -1.0]),
                    min_size=1, max_size=30)
    | st.lists(st.floats(-3.0, 3.0, width=16), min_size=1, max_size=30),
    prominence=st.sampled_from([0.0, 1e-6, 0.3]),
)
def test_first_dip_mask_matches_loop(values, prominence):
    """The masked dip picker polishes the same node as the node-by-node loop."""
    vals = np.array(values)
    nodes = np.linspace(0.0, 1.0, vals.size)
    fn = lambda t: np.interp(t, nodes, vals)
    got = _first_dip(fn, 1.0, vals.size, prominence)
    assert got == first_dip_loop(fn, 1.0, vals.size, prominence)


class TestClosedOverlap:
    @SEEDED
    @given(packet_states())
    def test_origin_is_purity(self, drawn):
        state, x0, _, sigma = drawn
        o00 = overlap_closed(state, 0.0, 0.0)
        assert o00 == pytest.approx(purity(state, x0, sigma) / (2 * math.pi * HBAR), rel=1e-12)

    @SEEDED
    @given(st.data())
    def test_even_in_displacement(self, data):
        state, x0, p0, _ = data.draw(packet_states())
        d1, d2 = data.draw(displacements(x0, p0))
        o00 = overlap_closed(state, 0.0, 0.0)
        assert abs(overlap_closed(state, d1, d2) - overlap_closed(state, -d1, -d2)) <= 1e-14 * o00

    @SEEDED
    @given(st.data())
    def test_matches_quadrature(self, data):
        state, x0, p0, sigma = data.draw(packet_states())
        scan = OverlapScan(state, default_scan_grid(x0, p0, sigma))
        o00 = overlap_closed(state, 0.0, 0.0)
        for _ in range(3):
            d1, d2 = data.draw(displacements(x0, p0))
            assert abs(overlap_closed(state, d1, d2) - scan.value(d1, d2)) <= 1e-12 * o00

    @SEEDED
    @given(st.data())
    def test_matches_fft_lag_nodes(self, data):
        state, x0, p0, sigma = data.draw(packet_states())
        grid = default_scan_grid(x0, p0, sigma)
        omap = overlap_map(wigner_closed(state, grid))
        i0, j0 = grid.nx - 1, grid.np - 1  # the zero lag
        di = np.array(data.draw(st.lists(st.integers(-15, 15), min_size=4, max_size=4)))
        dj = np.array(data.draw(st.lists(st.integers(-15, 15), min_size=4, max_size=4)))
        want = omap.values[i0 + di, j0 + dj]
        got = overlap_closed(state, omap.delta1s[j0 + dj], omap.delta2s[i0 + di])
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_broadcasts_to_a_map(self, mixed):
        d1s, d2s = np.meshgrid(np.linspace(0, 0.5, 4), np.linspace(-0.2, 0.2, 3), indexing="ij")
        grid = overlap_closed(mixed, d1s, d2s)
        assert grid.shape == (4, 3)
        assert grid[2, 1] == pytest.approx(
            overlap_closed(mixed, float(d1s[2, 1]), float(d2s[2, 1])), rel=1e-14
        )
        assert isinstance(overlap_closed(mixed, 0.1, 0.0), float)


class TestOverlapMap:
    def test_lag_nodes_match_quadrature(self, mixed, scan, units):
        grid = default_scan_grid(X0, P0, SIGMA, units)
        field = wigner_closed(mixed, grid, units)
        omap = overlap_map(field)
        assert omap.at_origin() == pytest.approx(scan.o00, abs=1e-13)
        i0 = int(np.argmin(np.abs(omap.delta2s)))
        j0 = int(np.argmin(np.abs(omap.delta1s)))
        for di, dj in ((0, 4), (6, 0), (5, 3), (12, 9)):
            d2 = float(omap.delta2s[i0 + di])
            d1 = float(omap.delta1s[j0 + dj])
            assert omap.values[i0 + di, j0 + dj] == pytest.approx(
                scan.value(d1, d2), abs=1e-13
            )


class TestReferenceFormula:
    def test_origin_scale_discrepancy(self, scan):
        # The quoted closed form is 16x the defining integral at zero lag.
        ref0 = float(overlap_reference(0.0, 0.0, X0, P0, SIGMA))
        assert ref0 == pytest.approx(8 / (2 * math.pi * HBAR), rel=1e-14)
        assert ref0 == pytest.approx(16 * scan.o00, rel=1e-10)

    def test_delta1_period_matches(self):
        # Along delta1 both forms oscillate as cos(2 delta1 x0 / hbar).
        ref_dip = float(overlap_reference(D1_STAR, 0.0, X0, P0, SIGMA))
        damp = math.exp(-(D1_STAR**2) * SIGMA**2 / HBAR**2)
        assert ref_dip == pytest.approx(damp * 2 / (2 * math.pi), rel=1e-12)

    def test_zero_locations_disagree(self, scan):
        # The quoted form vanishes at (pi hbar/2x0, pi hbar/4p0); the
        # measured overlap is nowhere near zero there — its joint zero
        # sits at twice that delta2.
        d2_claimed = math.pi * HBAR / (4 * P0)
        assert abs(float(overlap_reference(D1_STAR, d2_claimed, X0, P0, SIGMA))) < 1e-15
        assert scan.unit(D1_STAR, d2_claimed) == pytest.approx(0.241, abs=0.002)
        assert abs(scan.unit(D1_STAR, 2 * d2_claimed)) < 1e-12


def damped_axis1(d):
    """Analytic unit overlap along the delta1 axis, damping included."""
    return math.exp(-(d**2) * SIGMA**2 / HBAR**2) * (3 + math.cos(2 * d * X0 / HBAR)) / 4


def damped_axis2(d):
    """Analytic unit overlap along the delta2 axis, damping included."""
    return math.exp(-(d**2) / (4 * SIGMA**2)) * (3 + math.cos(2 * d * P0 / HBAR)) / 4


def analytic_dip(fn, lo, hi):
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(fn, bounds=(lo, hi), method="bounded", options={"xatol": 1e-13})
    return float(res.x), float(res.fun)


class TestOrthogonalitySearch:
    def test_joint_search_finds_tile_scale_zero(self, exact):
        res = find_orthogonality(exact, BRACKET1, BRACKET2, n_scan=201)
        assert res.achieved
        # The joint zero is immune to the Gaussian displacement damping
        # (a positive envelope cannot move a zero), so it lands exactly
        # on the undamped cosine double root.
        assert res.delta1_star == pytest.approx(D1_STAR, rel=1e-6)
        assert res.delta2_star == pytest.approx(D2_STAR, rel=1e-6)
        assert res.product == pytest.approx(D1_STAR * D2_STAR, rel=1e-6)
        assert abs(res.min_overlap) < 1e-10
        # The axis dips are only the aiming stage: the damping envelope
        # drags each first minimum slightly outward from the cosine dip.
        assert D1_STAR < res.axis1_dip < 1.02 * D1_STAR
        assert D2_STAR < res.axis2_dip < 1.02 * D2_STAR

    def test_axis_modes_match_damped_profile(self, exact):
        # Positions at a flat minimum are only determined to
        # sqrt(noise/curvature) ~ 1e-7; the minimum value itself is tight.
        res1 = find_orthogonality(exact, BRACKET1, BRACKET2, mode="axis1", n_scan=201)
        want_x1, want_f1 = analytic_dip(damped_axis1, 0.5 * D1_STAR, 1.5 * D1_STAR)
        assert not res1.achieved
        assert res1.delta2_star == 0.0
        assert res1.delta1_star == pytest.approx(want_x1, rel=1e-6)
        assert res1.min_overlap == pytest.approx(want_f1, rel=1e-9)

        res2 = find_orthogonality(exact, BRACKET1, BRACKET2, mode="axis2", n_scan=201)
        want_x2, want_f2 = analytic_dip(damped_axis2, 0.5 * D2_STAR, 1.5 * D2_STAR)
        assert not res2.achieved
        assert res2.delta1_star == 0.0
        assert res2.delta2_star == pytest.approx(want_x2, rel=1e-6)
        assert res2.min_overlap == pytest.approx(want_f2, rel=1e-9)

    def test_single_packet_has_no_dip(self, units):
        packet = CatSpec(
            components=(GaussianComponent(sigma=SIGMA, x0=0.0, p0=0.0),),
            coefficients=(1.0,),
            norm=1.0,
        )
        with pytest.raises(SearchError, match="minimum"):
            find_orthogonality(
                lambda d1, d2: overlap_closed(packet, d1, d2, units), 2.0, 2.0, n_scan=101
            )

    def test_invalid_mode_rejected(self, exact):
        with pytest.raises(ValueError, match="mode"):
            find_orthogonality(exact, BRACKET1, BRACKET2, mode="diagonal")

    def test_non_finite_tol_rejected(self, exact):
        with pytest.raises(ValueError, match="tol"):
            find_orthogonality(exact, BRACKET1, BRACKET2, tol=math.nan)

    def test_one_call_per_scan(self, exact):
        # Each scan hands the evaluator one array; only the polish and
        # the normalization pass scalars.
        shapes = []

        def counting(d1, d2):
            shapes.append(np.broadcast_shapes(np.shape(d1), np.shape(d2)))
            return exact(d1, d2)

        find_orthogonality(counting, BRACKET1, BRACKET2, n_scan=201)
        assert [s for s in shapes if s] == [(201,)] * 3
        assert shapes[0] == ()


class TestEffectiveModel:
    def test_harmonic_model_coefficients(self, mixed, units):
        # With the Gaussian damping divided out, the unit overlap of the
        # mixture is cos(2 d1 x0/hbar)/4 + cos(2 d2 p0/hbar)/4 + 1/2, here
        # over one oscillation period per axis.
        d1, d2 = np.meshgrid(
            np.linspace(0.0, math.pi * HBAR / X0, 9),
            np.linspace(0.0, math.pi * HBAR / P0, 9),
            indexing="ij",
        )
        unit = overlap_closed(mixed, d1, d2, units) / overlap_closed(mixed, 0.0, 0.0, units)
        damp = np.exp(-(d1**2) * SIGMA**2 / HBAR**2 - d2**2 / (4 * SIGMA**2))
        model = 0.25 * np.cos(2 * d1 * X0 / HBAR) + 0.25 * np.cos(2 * d2 * P0 / HBAR) + 0.5
        assert np.max(np.abs(unit - damp * model)) < 1e-8


class TestCompassComparison:
    def test_products_match(self, mixed, units):
        compass = make_compass(X0, P0, SIGMA, units)
        out = compare_with_compass(mixed, compass, BRACKET1, BRACKET2, units, n_scan=201)
        assert out["mixed"].achieved and out["compass"].achieved
        assert out["product_ratio"] == pytest.approx(1.0, abs=1e-6)
        assert out["compass"].delta1_star == pytest.approx(D1_STAR, rel=1e-5)
        assert out["compass"].delta2_star == pytest.approx(D2_STAR, rel=1e-5)
