"""Tests for the analytic and quadrature Wigner-function routes."""

import cmath
import math

import numpy as np
import pytest
from conftest import P0, SIGMA, X0, route_gap
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    char_cat_momentum,
    char_cat_position,
    characteristic_of_cat,
    pair_integral_hermite_direct,
    wc1_closed,
    wc2_closed,
    wigner_closed_direct,
    wigner_of_fock,
    wrho_closed,
)
from scipy.special import roots_hermite

from subplanck.core import Quadrature, UnitSystem, integrate_2d, linspace_grid
from subplanck.states import (
    CatSpec,
    FockVector,
    GaussianComponent,
    MixedSpec,
    kerr_evolve,
    make_cat_momentum,
    make_cat_position,
    make_mixed,
    psi_eval,
)
from subplanck.wigner import (
    CoverageError,
    _hermite_nodes,
    _pair_integral_hermite,
    check_coverage,
    wigner_closed,
    wigner_closed_eval,
    wigner_transform,
)


class TestClosedForms:
    def test_position_cat_matches_named_form(self, cat_x, units, wide_grid):
        xm, pm = wide_grid.meshgrid()
        general = wigner_closed_eval(cat_x, xm, pm, units)
        named = wc1_closed(xm, pm, X0, SIGMA, units)
        assert np.max(np.abs(general - named)) < 1e-14

    def test_momentum_cat_matches_named_form(self, cat_p, units, wide_grid):
        xm, pm = wide_grid.meshgrid()
        general = wigner_closed_eval(cat_p, xm, pm, units)
        named = wc2_closed(xm, pm, P0, SIGMA, units)
        assert np.max(np.abs(general - named)) < 1e-14

    def test_mixture_matches_named_form(self, mixed, units, wide_grid):
        xm, pm = wide_grid.meshgrid()
        general = wigner_closed_eval(mixed, xm, pm, units)
        named = wrho_closed(xm, pm, X0, P0, SIGMA, units)
        assert np.max(np.abs(general - named)) < 1e-14

    def test_origin_value(self, units):
        # Each cat has W(0,0) = 1/(pi hbar) independent of its parameters,
        # so the even mixture does too.
        assert wrho_closed(0.0, 0.0, X0, P0, SIGMA, units) == pytest.approx(
            1 / (math.pi * units.hbar), rel=1e-14
        )
        assert wc1_closed(0.0, 0.0, X0, SIGMA, units) == pytest.approx(
            1 / (math.pi * units.hbar), rel=1e-14
        )

    def test_normalization(self, mixed, units, wide_grid):
        field = wigner_closed(mixed, wide_grid, units)
        assert integrate_2d(field, "simpson") == pytest.approx(1.0, abs=1e-9)

    def test_compass_normalization(self, compass, units, wide_grid):
        field = wigner_closed(compass, wide_grid, units)
        assert integrate_2d(field, "simpson") == pytest.approx(1.0, abs=1e-9)

    def test_broadcasting(self, mixed, units):
        x = np.linspace(-1, 1, 7)[:, None]
        p = np.linspace(-2, 2, 5)[None, :]
        out = wigner_closed_eval(mixed, x, p, units)
        assert out.shape == (7, 5)
        assert out[3, 2] == pytest.approx(float(wigner_closed_eval(mixed, 0.0, 0.0, units)))


@pytest.mark.parametrize("order", [*range(16, 401, 32), 383, 384, 400])
def test_hermite_nodes_match_scipy(order):
    # Golub-Welsch nodes from numpy's eigh against scipy's roots_hermite:
    # at orders 16-400 they differ by at most 2.2e-14 (nodes) and 4.6e-15
    # (weights), absolute.  numpy's hermgauss gives NaN weights at 384.
    t, w = _hermite_nodes(order)
    want_t, want_w = roots_hermite(order)
    assert np.all(np.isfinite(w)) and np.all(np.diff(t) > 0)
    assert np.abs(t - want_t).max() < 1e-13
    assert np.abs(w - want_w).max() < 1e-14
    assert _hermite_nodes(order) is _hermite_nodes(order)  # cached per order
    assert not t.flags.writeable and not w.flags.writeable


class TestOracleAgreement:
    def test_trapezoid_matches_closed(self, mixed, units):
        grid = linspace_grid(X0 + 5 * SIGMA, P0 + 3 / SIGMA, 81, 81)
        assert route_gap(mixed, grid, units) < 1e-10

    def test_simpson_matches_closed(self, mixed, units):
        grid = linspace_grid(X0 + 5 * SIGMA, P0 + 3 / SIGMA, 61, 61)
        assert route_gap(mixed, grid, units, Quadrature(rule="simpson")) < 1e-10

    def test_compass_trapezoid_matches_closed(self, compass, units):
        grid = linspace_grid(X0 + 5 * SIGMA, P0 + 3 / SIGMA, 61, 61)
        assert route_gap(compass, grid, units) < 1e-10

    def test_gauss_hermite_mild_regime(self, units):
        # Hermite quadrature only converges while the chord integrand's
        # phase stays modest across the node span, so probe a small cat.
        state = make_cat_position(1.2, 0.7, units)
        grid = linspace_grid(3.0, 3.0, 41, 41)
        assert route_gap(state, grid, units, Quadrature(rule="gauss-hermite", order=96)) < 1e-9

    def test_gauss_hermite_converges_at_high_order(self, mixed, units):
        # The cat fringes need about 384 nodes; the default order 64 does
        # not converge here.
        grid = linspace_grid(X0 + 8 * SIGMA, P0 + 4 / SIGMA, 41, 41)
        gap = route_gap(mixed, grid, units, Quadrature(rule="gauss-hermite", order=384))
        assert gap < 1e-10 * np.abs(wigner_closed(mixed, grid, units).values).max()

    def test_seeded_parameter_sweep(self, units):
        rng = np.random.default_rng(20260819)
        for _ in range(6):
            sigma = rng.uniform(0.3, 0.8)
            x0 = rng.uniform(1.5, 4.0)
            p0 = rng.uniform(2.0, 8.0)
            mixed = make_mixed(
                make_cat_position(x0, sigma, units), make_cat_momentum(p0, sigma, units)
            )
            grid = linspace_grid(x0 + 6 * sigma, p0 + 3.2 / sigma, 41, 41)
            gap = route_gap(mixed, grid, units)
            assert gap < 1e-8, (sigma, x0, p0, gap)


class TestCharacteristic:
    def test_origin_is_one(self, cat_x, cat_p, mixed, compass, units):
        for state in (cat_x, cat_p, mixed, compass):
            val = complex(characteristic_of_cat(state, 0.0, 0.0, units))
            assert val == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_position_cat_named_form(self, cat_x, units):
        Q = np.linspace(-2.5 * X0, 2.5 * X0, 41)[:, None]
        P = np.linspace(-4 / SIGMA, 4 / SIGMA, 39)[None, :]
        general = characteristic_of_cat(cat_x, Q, P, units)
        named = char_cat_position(Q, P, X0, SIGMA, units)
        assert np.max(np.abs(general - named)) < 1e-14

    def test_momentum_cat_named_form(self, cat_p, units):
        Q = np.linspace(-6 * SIGMA, 6 * SIGMA, 41)[:, None]
        P = np.linspace(-2.5 * P0, 2.5 * P0, 39)[None, :]
        general = characteristic_of_cat(cat_p, Q, P, units)
        named = char_cat_momentum(Q, P, P0, SIGMA, units)
        assert np.max(np.abs(general - named)) < 1e-14

    def test_mixture_averages_branches(self, cat_x, cat_p, mixed, units):
        Q = np.linspace(-1.0, 1.0, 9)
        P = np.linspace(-3.0, 3.0, 9)
        avg = 0.5 * (
            characteristic_of_cat(cat_x, Q, P, units)
            + characteristic_of_cat(cat_p, Q, P, units)
        )
        got = characteristic_of_cat(mixed, Q, P, units)
        np.testing.assert_allclose(got, avg, rtol=0, atol=1e-15)

    def test_hermitian_symmetry(self, compass, units):
        rng = np.random.default_rng(5)
        Q = rng.uniform(-2, 2, 16)
        P = rng.uniform(-12, 12, 16)
        plus = characteristic_of_cat(compass, Q, P, units)
        minus = characteristic_of_cat(compass, -Q, -P, units)
        np.testing.assert_allclose(minus, np.conj(plus), rtol=0, atol=1e-15)

    def test_positive_sigma_p_decay(self, cat_x, units):
        # The envelope in P is the single-packet momentum distribution.
        val = complex(characteristic_of_cat(cat_x, 0.0, 3.0, units))
        assert abs(val) < 1.0


class TestFockRoute:
    def test_coherent_state_matches_gaussian(self, units):
        alpha = 1.4 + 0.9j
        state = kerr_evolve(alpha, 0.0, cutoff=40)
        x0 = 2 * SIGMA * alpha.real
        p0 = units.hbar * alpha.imag / SIGMA
        grid = linspace_grid(abs(x0) + 5 * SIGMA, abs(p0) + 5 / SIGMA, 41, 41)
        fock = wigner_of_fock(state, grid, SIGMA, units)
        packet = GaussianComponent(sigma=SIGMA, x0=x0, p0=p0)
        from subplanck.states import CatSpec

        analytic = wigner_closed(CatSpec(components=(packet,), coefficients=(1.0,), norm=1.0), grid, units)
        assert np.max(np.abs(fock.values - analytic.values)) < 1e-8

    def test_full_period_cat_matches_packet_cat(self, units):
        # One full Kerr period maps |alpha> to |-alpha>; compare the
        # number-basis route against the displaced-packet closed form.
        alpha = 2.0
        state = kerr_evolve(alpha, 2 * math.pi, cutoff=48)
        x0 = 2 * SIGMA * alpha
        grid = linspace_grid(x0 + 5 * SIGMA, 5 / SIGMA, 41, 41)
        fock = wigner_of_fock(state, grid, SIGMA, units)
        packet = GaussianComponent(sigma=SIGMA, x0=-x0, p0=0.0)
        from subplanck.states import CatSpec

        analytic = wigner_closed(CatSpec(components=(packet,), coefficients=(1.0,), norm=1.0), grid, units)
        assert np.max(np.abs(fock.values - analytic.values)) < 1e-8

    def test_half_period_two_lobes(self, units):
        # kappa t = pi produces a two-component cat: the Wigner function
        # shows both displaced lobes and a fringe at the midpoint.
        alpha = 2.0
        state = kerr_evolve(alpha, math.pi, cutoff=48)
        x0 = 2 * SIGMA * alpha
        # 81 nodes over [-4, 4] puts the lobe centers exactly on nodes.
        grid = linspace_grid(2 * x0, 5 / SIGMA, 81, 81)
        field = wigner_of_fock(state, grid, SIGMA, units)
        xs = field.grid.xs()
        i_plus = int(np.argmin(np.abs(xs - x0)))
        i_minus = int(np.argmin(np.abs(xs + x0)))
        j0 = int(np.argmin(np.abs(field.grid.ps())))
        peak = 1 / (2 * math.pi * units.hbar)
        assert field.values[i_plus, j0] == pytest.approx(peak, rel=1e-3)
        assert field.values[i_minus, j0] == pytest.approx(peak, rel=1e-3)
        mid_band = np.abs(field.values[int(np.argmin(np.abs(xs)))])
        assert mid_band.max() > 0.8 * peak

    def test_cutoff_guard(self, units):
        state = kerr_evolve(2.0, 0.0, cutoff=40)
        grid = linspace_grid(3.0, 3.0, 11, 11)
        with pytest.raises(ValueError, match="cutoff 129 exceeds limit 128"):
            wigner_of_fock(FockVector(amplitudes=np.eye(130)[0]), grid, SIGMA, units)
        with pytest.raises(ValueError, match="sigma_ref"):
            wigner_of_fock(state, grid, -1.0, units)


class TestCoverage:
    def test_wide_window_passes(self, mixed, units, wide_grid):
        check_coverage(mixed, wide_grid, units)

    def test_narrow_x_window_raises(self, mixed, units):
        grid = linspace_grid(2.0, 30.0, 21, 21)
        with pytest.raises(CoverageError, match="x window"):
            check_coverage(mixed, grid, units)

    def test_narrow_p_window_raises(self, cat_p, units):
        grid = linspace_grid(30.0, P0 + 1.0, 21, 21)
        with pytest.raises(CoverageError, match="p window"):
            check_coverage(cat_p, grid, units)

    def test_margin_is_tunable(self, cat_x, units):
        # the margin is 6.1 packet widths: the window tunes whether it fits
        check_coverage(cat_x, linspace_grid(X0 + 6.1 * SIGMA, 14.0, 21, 21), units)
        with pytest.raises(CoverageError, match="x window"):
            check_coverage(cat_x, linspace_grid(X0 + 6.0 * SIGMA, 14.0, 21, 21), units)


SEEDED = settings(max_examples=15, deadline=None, derandomize=True, database=None)


def draw_packet(draw) -> GaussianComponent:
    """A packet of random width, off-axis centre and phase, drawn with
    ``draw`` inside a composite strategy or from ``st.data()``."""
    return GaussianComponent(
        sigma=draw(st.floats(0.3, 1.0)),
        x0=draw(st.floats(-3.0, 3.0)),
        p0=draw(st.floats(-4.0, 4.0)),
        phase=draw(st.floats(-math.pi, math.pi)),
    )


@st.composite
def packet_cats(draw, n_max: int, hbar: float) -> CatSpec:
    """1 to ``n_max`` packets of unequal widths, off-axis centres, phases
    and complex weights, normalized by quadrature of the wave function."""
    n = draw(st.integers(1, n_max))
    comps = tuple(draw_packet(draw) for _ in range(n))
    coefs = tuple(
        cmath.rect(draw(st.floats(0.2, 1.0)), draw(st.floats(-math.pi, math.pi))) for _ in range(n)
    )
    xs = np.linspace(-12.0, 12.0, 24001)
    raw = psi_eval(CatSpec(components=comps, coefficients=coefs, norm=1.0), xs, UnitSystem(hbar))
    norm_sq = np.trapezoid(np.abs(raw) ** 2, xs)
    assume(norm_sq > 1e-2)
    return CatSpec(components=comps, coefficients=coefs, norm=1 / math.sqrt(norm_sq))


@st.composite
def general_states(draw):
    """A pure or two-branch mixed packet state with 1-4 packets in all,
    and its ``hbar``."""
    hbar = draw(st.floats(0.4, 0.9))
    if draw(st.booleans()):
        return draw(packet_cats(4, hbar)), hbar
    weight = draw(st.floats(0.2, 0.8))
    branches = ((weight, draw(packet_cats(2, hbar))), (1 - weight, draw(packet_cats(2, hbar))))
    return MixedSpec(branches=branches), hbar


def branches_of(state):
    return [(1.0, state)] if isinstance(state, CatSpec) else list(state.branches)


def packets_of(state):
    return [c for _, cat in branches_of(state) for c in cat.components]


class TestGeneralPackets:
    """Closed forms against quadrature for packets unlike the reference
    cats: unequal widths, phases and off-axis centres, where a wrong
    mirror image or phase in the pair identities would show."""

    @SEEDED
    @given(general_states())
    def test_wigner_matches_trapezoid_oracle(self, drawn):
        state, hbar = drawn
        units = UnitSystem(hbar)
        comps = packets_of(state)
        x_half = max(abs(c.x0) + 3 * c.sigma for c in comps)
        p_half = max(abs(c.p0) + 1.5 * hbar / c.sigma for c in comps)
        grid = linspace_grid(x_half, p_half, 23, 21)
        closed = wigner_closed(state, grid, units).values
        oracle = wigner_transform(state, grid, units).values
        assert np.max(np.abs(closed - oracle)) < 1e-8 * np.max(np.abs(closed))

    @SEEDED
    @given(general_states())
    def test_characteristic_matches_wave_function_quadrature(self, drawn):
        state, hbar = drawn
        units = UnitSystem(hbar)
        comps = packets_of(state)
        q_max = max(abs(a.x0 - b.x0) for a in comps for b in comps) + 2.0
        p_max = max(abs(a.p0 - b.p0) for a in comps for b in comps) + 2.0 * hbar
        Q = np.linspace(-q_max, q_max, 7)[:, None]
        P = np.linspace(-p_max, p_max, 9)[None, :]
        # Wt(Q, P) = sum_b p_b int psi_b(x - Q/2) psi_b*(x + Q/2) exp(-i x P / hbar) dx
        xs = np.linspace(-16.0, 16.0, 8001)
        want = sum(
            prob
            * np.trapezoid(
                psi_eval(cat, xs - Q[:, :, None] / 2, units)
                * np.conj(psi_eval(cat, xs + Q[:, :, None] / 2, units))
                * np.exp(-1j * xs * P[:, :, None] / hbar),
                xs,
            )
            for prob, cat in branches_of(state)
        )
        got = characteristic_of_cat(state, Q, P, units)
        assert np.max(np.abs(got - want)) < 1e-10


@SEEDED
@given(st.data(), st.floats(0.4, 0.9), st.integers(16, 400))
def test_hermite_node_sum_factors(data, hbar, order):
    """The factored Gauss-Hermite sum equals the plain node sum over the
    ``(nx, order, np)`` tone array."""
    cj, ck = draw_packet(data.draw), draw_packet(data.draw)
    xs = np.linspace(-4.0, 4.0, 9)
    ps = np.linspace(-6.0, 6.0, 11)
    got = _pair_integral_hermite(cj, ck, xs, ps, hbar, roots_hermite(order))
    want = pair_integral_hermite_direct(cj, ck, xs, ps, hbar, order)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


WIDTHS = (0.3, 0.45, 0.6, 0.8, 1.0)


def chirps(state, hbar: float) -> set[float]:
    """Nonzero chirp coefficients ``2 (s_k^2 - s_j^2) / ((s_j^2 + s_k^2) hbar)``
    of the packet pairs of every branch."""
    return {
        2 * (b.sigma**2 - a.sigma**2) / ((a.sigma**2 + b.sigma**2) * hbar)
        for _, cat in branches_of(state)
        for i, a in enumerate(cat.components)
        for b in cat.components[i:]
    } - {0.0}


@st.composite
def chirped_states(draw):
    """A pure state of 3-4 packets or a two-branch mixture, with widths
    from a short list (so pairs of equal and of unequal widths both
    occur), off-axis centres, phases, complex weights and an arbitrary
    norm, whose pairs span at least two distinct nonzero chirps; and its
    ``hbar``."""
    hbar = draw(st.floats(0.4, 0.9))

    def cat(n: int) -> CatSpec:
        comps = tuple(
            GaussianComponent(
                sigma=draw(st.sampled_from(WIDTHS)),
                x0=draw(st.floats(-3.0, 3.0)),
                p0=draw(st.floats(-4.0, 4.0)),
                phase=draw(st.floats(-math.pi, math.pi)),
            )
            for _ in range(n)
        )
        coefs = tuple(
            cmath.rect(draw(st.floats(0.2, 1.0)), draw(st.floats(-math.pi, math.pi))) for _ in range(n)
        )
        return CatSpec(components=comps, coefficients=coefs, norm=draw(st.floats(0.3, 1.5)))

    if draw(st.booleans()):
        state = cat(draw(st.integers(3, 4)))
    else:
        weight = draw(st.floats(0.2, 0.8))
        state = MixedSpec(branches=((weight, cat(3)), (1 - weight, cat(draw(st.integers(2, 3))))))
    assume(len(chirps(state, hbar)) >= 2)
    return state, hbar


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(chirped_states())
def test_separable_closed_form_matches_direct_oracle(drawn):
    """Both contractions of the separable factors, the matrix products on
    an outer grid and the pair sums at scattered points, equal the
    unfactored pair exponents to 1e-13 of max |W|, chirp groups included."""
    state, hbar = drawn
    units = UnitSystem(hbar)
    comps = packets_of(state)
    x_half = max(abs(c.x0) + 4 * c.sigma for c in comps)
    p_half = max(abs(c.p0) + 2 * hbar / c.sigma for c in comps)
    grid = linspace_grid(x_half, p_half, 41, 37)
    want = wigner_closed_direct(state, grid.xs()[:, None], grid.ps()[None, :], units)
    bound = 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(wigner_closed(state, grid, units).values - want)) <= bound
    rng = np.random.default_rng(13)
    x, p = rng.uniform(-x_half, x_half, 64), rng.uniform(-p_half, p_half, 64)
    for xs, ps in ((x, p), (x, p[0]), (x[0], p), (x[:8, None], p[None, :5])):
        got = wigner_closed_eval(state, xs, ps, units)
        assert got.shape == np.broadcast_shapes(np.shape(xs), np.shape(ps))
        assert np.max(np.abs(got - wigner_closed_direct(state, xs, ps, units))) <= bound
