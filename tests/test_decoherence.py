"""Tests for the bath-contact evolution and fringe attenuation."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import P0, SIGMA, X0, meshgrid
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    a_coefficients,
    evolve_characteristic,
    evolved_wigner,
    visibility_from_field,
)

from subplanck.core import UnitSystem, integrate_2d, linspace_grid
from subplanck.decoherence import (
    BathParams,
    _xx_bracket,
    attenuation_curve,
    attenuation_exponent,
    attenuation_numeric,
    decoherence_time,
    bath_moments,
    green_function,
    propagation_matrix,
    tau_formula_momentum,
    tau_formula_position,
)
from subplanck.metrology import SearchError
from subplanck.wigner import wigner_closed_eval

HBAR = 1.0
KT = 10.0
SLOPE = (2 * X0) ** 2 * 0.1 * KT / HBAR**2  # short-time position slope = 81


class TestBathBasics:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mass": 0.0, "gamma": 0.1, "temperature": 10.0},
            {"mass": -1.0, "gamma": 0.1, "temperature": 10.0},
            {"mass": 1.0, "gamma": -0.1, "temperature": 10.0},
            {"mass": 1.0, "gamma": 0.1, "temperature": -2.0},
            {"mass": math.nan, "gamma": 0.1, "temperature": 10.0},
            {"mass": math.inf, "gamma": 0.1, "temperature": 10.0},
            {"mass": 1.0, "gamma": math.nan, "temperature": 10.0},
            {"mass": 1.0, "gamma": math.inf, "temperature": 10.0},
            {"mass": 1.0, "gamma": 0.1, "temperature": math.nan},
            {"mass": 1.0, "gamma": 0.1, "temperature": math.inf},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            BathParams(**kwargs)

    def test_green_function_frictionless(self):
        free = BathParams(mass=2.0, gamma=0.0, temperature=10.0)
        G, Gd, Gdd = green_function(free, 0.7)
        assert G == pytest.approx(0.35, rel=1e-15)
        assert Gd == pytest.approx(0.5, rel=1e-15)
        assert Gdd == 0.0

    def test_green_function_damped(self, bath):
        t = 0.8
        e = math.exp(-bath.gamma * t)
        G, Gd, Gdd = green_function(bath, t)
        assert G == pytest.approx((1 - e) / (bath.mass * bath.gamma), rel=1e-14)
        assert Gd == pytest.approx(e / bath.mass, rel=1e-14)
        assert Gdd == pytest.approx(-bath.gamma * e / bath.mass, rel=1e-14)

    def test_flow_determinant(self, bath):
        for t in (0.0, 0.3, 2.0):
            M = propagation_matrix(bath, t)
            assert np.linalg.det(M) == pytest.approx(math.exp(-bath.gamma * t), rel=1e-13)

    def test_moments_vanish_without_coupling(self, units):
        for b in (
            BathParams(mass=1.0, gamma=0.0, temperature=10.0),
            BathParams(mass=1.0, gamma=0.1, temperature=0.0),
        ):
            assert bath_moments(b, 1.3, units) == (0.0, 0.0, 0.0)

    def test_moments_vanish_at_zero_time(self, bath, units):
        assert bath_moments(bath, 0.0, units) == (0.0, 0.0, 0.0)

    def test_position_spread_rate_is_cross_moment(self, bath, units):
        # d<X^2>/dt = <X Xdot + Xdot X> links the closed forms.
        h = 1e-4
        for t in (0.05, 0.4, 1.5):
            xx_hi, _, _ = bath_moments(bath, t + h, units)
            xx_lo, _, _ = bath_moments(bath, t - h, units)
            _, xv, _ = bath_moments(bath, t, units)
            assert (xx_hi - xx_lo) / (2 * h) == pytest.approx(xv, rel=1e-5)


class TestCovariance:
    UNITS = UnitSystem(hbar=0.7)

    @pytest.mark.parametrize("sigma", [0.3, 0.5, 1.7])
    @pytest.mark.parametrize("mass", [0.4, 1.0, 2.5])
    def test_free_flow(self, sigma, mass):
        # gamma = 0: no diffusion, and the packet shears as x -> x + p t / m
        t = np.linspace(0.0, 3.0, 7)
        h = self.UNITS.hbar**2 / (4 * sigma**2)
        free = BathParams(mass=mass, gamma=0.0, temperature=10.0)
        got = a_coefficients(free, t, sigma, self.UNITS)
        want = (sigma**2 + h * t**2 / mass**2, h * t / mass, np.full_like(t, h))
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("sigma", [0.3, 0.5, 1.7])
    @pytest.mark.parametrize("mass", [0.4, 1.0, 2.5])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 3.0])
    def test_start_has_no_diffusion(self, sigma, mass, gamma):
        # At t = 0 the bath has added nothing, so A = M(0) diag(sigma^2, h) M(0)^T.
        # The exact Ohmic flow has M(0) = [[1, 0], [-m gamma, 1]]: it kicks p
        # by -m gamma x (the initial slip), so A = (sigma^2, 0, h) only at gamma = 0.
        h = self.UNITS.hbar**2 / (4 * sigma**2)
        kick = mass * gamma
        bath = BathParams(mass=mass, gamma=gamma, temperature=10.0)
        got = a_coefficients(bath, np.zeros(3), sigma, self.UNITS)
        want = (sigma**2, -kick * sigma**2, kick * kick * sigma**2 + h)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, np.full(3, w), rtol=1e-14, atol=0)


class TestAttenuation:
    def test_closed_form_matches_gaussian_reduction(self, bath, units):
        # Two structurally different routes to the same exponent.  The
        # reduction oracle completes a square between O(offset^2) terms,
        # so it carries ~eps * 2 offset^2 sigma^2 of absolute roundoff
        # where the exponent itself is tiny; hence the floor term.
        for kind, offset in (("position", X0), ("momentum", P0)):
            floor = 200 * np.finfo(float).eps * 2 * offset**2 * SIGMA**2
            for t in np.logspace(-3, 1, 15):
                a = attenuation_exponent(bath, float(t), offset, SIGMA, units, kind)
                b = attenuation_numeric(bath, float(t), offset, SIGMA, units, kind)
                assert abs(a - b) < max(1e-11 * abs(a), floor), (kind, t)

    def test_zero_time_is_exactly_zero(self, bath, units):
        assert attenuation_exponent(bath, 0.0, X0, SIGMA, units, "position") == 0.0
        assert attenuation_exponent(bath, 0.0, P0, SIGMA, units, "momentum") == 0.0

    @pytest.mark.parametrize(
        "bath0",
        [BathParams(mass=1.3, gamma=0.0, temperature=10.0),
         BathParams(mass=0.7, gamma=0.4, temperature=0.0)],
        ids=["gamma0", "T0"],
    )
    @pytest.mark.parametrize("kind", ["position", "momentum"])
    def test_no_coupling_is_exactly_zero(self, bath0, kind, units):
        # Without diffusion the exact exponent is 0 at every t: no roundoff
        # of either sign, so the visibility is exactly 1, never above it.
        ts = np.concatenate([np.linspace(0.0, 5.0, 51), np.geomspace(5.0, 300.0, 40)])
        for sigma in (0.3, 0.34, 0.5, 0.9):
            for offset in (X0, P0):
                curve = attenuation_exponent(bath0, ts, offset, sigma, units, kind)
                assert curve.tolist() == [0.0] * ts.size
                for t in ts[::7]:
                    a = attenuation_exponent(bath0, float(t), offset, sigma, units, kind)
                    assert type(a) is float and a == 0.0
                _, a, vis = attenuation_curve(bath0, offset, sigma, ts, units, kind)
                assert list(zip(a.tolist(), vis.tolist())) == [(0.0, 1.0)] * ts.size

    def test_position_short_time_slope(self, bath, units):
        t = 1e-6
        a = attenuation_exponent(bath, t, X0, SIGMA, units, "position")
        assert a / t == pytest.approx(SLOPE, rel=1e-5)

    def test_momentum_short_time_is_cubic(self, bath, units):
        # Position-coupled bath: momentum fringes decay only through
        # accumulated position diffusion, A_p = 4 p0^2 kT gamma t^3 / 3.
        for t in (1e-4, 2e-4):
            a = attenuation_exponent(bath, t, P0, SIGMA, units, "momentum")
            cubic = 4 * P0**2 * KT * bath.gamma * t**3 / (3 * HBAR**2)
            assert a == pytest.approx(cubic, rel=1e-3)

    def test_monotone_growth(self, bath, units):
        ts = np.linspace(0.0, 2.0, 41)
        a = [attenuation_exponent(bath, float(t), X0, SIGMA, units) for t in ts]
        assert all(a[i] < a[i + 1] for i in range(len(a) - 1))

    def test_momentum_exponent_rises_at_the_ulp_scale(self, bath, units):
        # 201 times 1e-15 relative apart where the momentum pair's A is
        # about 4: the exponent must not fall from one to the next
        ts = 0.358 * (1 + 1e-15 * np.arange(201))
        a = attenuation_exponent(bath, ts, P0, SIGMA, units, "momentum")
        assert np.all(np.diff(a) >= 0)

    def test_invalid_kind(self, bath, units):
        with pytest.raises(ValueError, match="kind"):
            attenuation_exponent(bath, 0.1, X0, SIGMA, units, kind="sideways")
        with pytest.raises(ValueError, match="kind"):
            attenuation_numeric(bath, 0.1, X0, SIGMA, units, kind="sideways")

    def test_curve_rows(self, bath, units):
        ts = [0.0, 0.01, 0.05]
        columns = attenuation_curve(bath, X0, SIGMA, ts, units)
        assert columns[0].tolist() == ts
        for t, a, vis in zip(*(c.tolist() for c in columns)):
            assert a == attenuation_exponent(bath, t, X0, SIGMA, units)
            assert vis == pytest.approx(math.exp(-a), rel=1e-15)


# Property tests draw from a fixed sequence, so every run checks the same cases.
SEEDED = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def broadcast_cases(draw):
    """A bath (``gamma = 0`` and ``T = 0`` included), a fringe pair and a
    time array straddling the ``gamma t = 0.02`` series switch."""
    bath = BathParams(
        mass=draw(st.floats(0.5, 2.0)),
        gamma=draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0))),
        temperature=draw(st.one_of(st.just(0.0), st.floats(0.5, 20.0))),
    )
    kind = draw(st.sampled_from(["position", "momentum"]))
    offset = draw(st.floats(1.0, 12.0))
    sigma = draw(st.floats(0.3, 1.0))
    # drawn edge values plus a seeded spread of generic ones on both sides
    edges = draw(st.lists(st.floats(0.0, 5.0), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    us = [0.0, 0.02, *edges, *rng.uniform(0.0, 0.04, 64), *rng.uniform(0.04, 5.0, 64)]
    ts = np.array(us) / (bath.gamma if bath.gamma > 0 else 1.0)
    return bath, kind, offset, sigma, ts


@SEEDED
@given(broadcast_cases())
def test_broadcast_layer_matches_scalar_calls(case):
    bath, kind, offset, sigma, ts = case
    units = UnitSystem()
    columns = attenuation_curve(bath, offset, sigma, ts, units, kind)
    assert columns[0].tolist() == ts.tolist()
    floor = 200 * np.finfo(float).eps * 2 * offset**2 * sigma**2
    for t, a in zip(columns[0].tolist(), columns[1].tolist()):
        assert a == attenuation_exponent(bath, t, offset, sigma, units, kind)
        b = attenuation_numeric(bath, t, offset, sigma, units, kind)
        # Without diffusion the exact exponent is zero, and both routes
        # cancel terms that grow with the free spreading (hbar G / 2 sigma^2)^2.
        spread = 1.0
        if bath.gamma == 0 or bath.temperature == 0:
            spread += (units.hbar * green_function(bath, t)[0] / (2 * sigma**2)) ** 2
        assert abs(a - b) < max(1e-11 * abs(a), floor * spread), (t, a, b)
    for layer in (green_function, lambda b, t: bath_moments(b, t, units)):
        for t in (ts, ts[:, None], ts[-1]):
            assert [np.shape(v) for v in layer(bath, t)] == [np.shape(t)] * 3
        columns = [v.tolist() for v in layer(bath, ts)]
        scalar_calls = [[float(v) for v in layer(bath, t)] for t in ts]
        assert [list(r) for r in zip(*columns)] == scalar_calls


class TestTauFormulas:
    def test_position_estimate_value(self, bath, units):
        assert tau_formula_position(bath, X0, units) == pytest.approx(1 / 81, rel=1e-14)

    def test_momentum_estimate_value(self, bath, units):
        assert tau_formula_momentum(bath, P0, SIGMA, units) == pytest.approx(
            0.01, rel=1e-14
        )

    def test_undamped_bath_rejected(self, units):
        free = BathParams(mass=1.0, gamma=0.0, temperature=10.0)
        cold = BathParams(mass=1.0, gamma=0.1, temperature=0.0)
        for b in (free, cold):
            with pytest.raises(ValueError):
                tau_formula_position(b, X0, units)
            with pytest.raises(ValueError):
                tau_formula_momentum(b, P0, SIGMA, units)


class TestDecoherenceTime:
    def test_position_crossing(self, bath, units):
        t_star = decoherence_time(bath, X0, SIGMA, units, "position")
        assert attenuation_exponent(bath, t_star, X0, SIGMA, units) == pytest.approx(
            1.0, abs=1e-10
        )
        # Slightly beyond the linear-order estimate (friction corrections).
        tau = tau_formula_position(bath, X0, units)
        assert tau < t_star < 1.03 * tau

    def test_momentum_crossing_far_beyond_linear_label(self, bath, units):
        t_star = decoherence_time(bath, P0, SIGMA, units, "momentum")
        assert attenuation_exponent(
            bath, t_star, P0, SIGMA, units, "momentum"
        ) == pytest.approx(1.0, abs=1e-10)
        # Cubic growth makes the actual crossing ~20x the quoted estimate.
        assert t_star > 20 * tau_formula_momentum(bath, P0, SIGMA, units)
        cubic_only = (3 * HBAR**2 / (4 * P0**2 * KT * bath.gamma)) ** (1 / 3)
        assert t_star == pytest.approx(cubic_only, rel=0.1)

    def test_threshold_ordering(self, bath, units):
        t_half = decoherence_time(bath, X0, SIGMA, units, threshold=0.5)
        t_one = decoherence_time(bath, X0, SIGMA, units, threshold=1.0)
        t_two = decoherence_time(bath, X0, SIGMA, units, threshold=2.0)
        assert t_half < t_one < t_two

    def test_undamped_bath_raises(self, units):
        free = BathParams(mass=1.0, gamma=0.0, temperature=10.0)
        cold = BathParams(mass=1.0, gamma=0.1, temperature=0.0)
        for b in (free, cold):
            with pytest.raises(SearchError, match="never attenuates"):
                decoherence_time(b, X0, SIGMA, units)

    def test_bad_threshold(self, bath, units):
        with pytest.raises(ValueError, match="threshold"):
            decoherence_time(bath, X0, SIGMA, units, threshold=0.0)

    @pytest.mark.parametrize("offset,sigma", [(X0, 0.0), (X0, -0.5), (0.0, SIGMA)])
    @pytest.mark.parametrize("kind", ["position", "momentum"])
    def test_degenerate_pair_raises_value_error(self, bath, units, offset, sigma, kind):
        # a zero or negative width and a pair at one point are rejected
        with pytest.raises(ValueError, match="sigma|offset"):
            decoherence_time(bath, offset, sigma, units, kind)
        with pytest.raises(ValueError, match="sigma|offset"):
            attenuation_exponent(bath, 0.1, offset, sigma, units, kind)


def xx_bracket_reference(u: float) -> float:
    """``2u - 3 + 4 e^-u - e^-2u`` in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(u)
        return float(2 * d - 3 + 4 * (-d).exp() - (-2 * d).exp())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-8.0, math.log10(50.0)).map(lambda e: 10.0**e))
@example(np.nextafter(1.0, 0.0))
@example(1.0)
@example(np.nextafter(1.0, 2.0))
@example(np.nextafter(0.02, 0.0))
@example(0.02)
@example(0.0358)
def test_xx_bracket_matches_decimal_reference(u):
    # the bracket of <X^2> is O(u^3) from O(u) pieces: each side of the
    # series/expm1 switch must keep full relative accuracy
    want = xx_bracket_reference(u)
    assert abs(float(_xx_bracket(np.float64(u))) - want) <= 2e-15 * want


@SEEDED
@given(
    log_tau=st.floats(-9.0, 6.0),
    kind=st.sampled_from(["position", "momentum"]),
    threshold=st.sampled_from([0.5, 1.0, 2.0]),
)
@example(log_tau=-9.0, kind="position", threshold=1.0)
@example(log_tau=6.0, kind="momentum", threshold=2.0)
def test_crossing_scales_with_the_time_unit(log_tau, kind, threshold):
    # t -> tau t with m -> tau m, gamma -> gamma / tau and T -> T / tau is a
    # change of time unit: the crossing must scale by tau, and stay a root.
    tau = 10.0**log_tau
    units = UnitSystem()
    offset = X0 if kind == "position" else P0
    bath = BathParams(mass=1.0, gamma=0.1, temperature=KT)
    rescaled = BathParams(mass=tau, gamma=0.1 / tau, temperature=KT / tau)
    t_ref = decoherence_time(bath, offset, SIGMA, units, kind, threshold)
    t_star = decoherence_time(rescaled, offset, SIGMA, units, kind, threshold)
    assert abs(t_star / tau - t_ref) <= 1e-12 * t_ref
    a = attenuation_exponent(rescaled, t_star, offset, SIGMA, units, kind)
    assert abs(a - threshold) <= 1e-12 * threshold


class TestEvolutionMap:
    def test_characteristic_origin_stays_one(self, mixed, bath, units):
        val = complex(evolve_characteristic(mixed, bath, 0.7, 0.0, 0.0, units))
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_characteristic_linearity_in_mixture(self, cat_x, cat_p, mixed, bath, units):
        Q = np.linspace(-1.0, 1.0, 7)
        P = np.linspace(-3.0, 3.0, 7)
        avg = 0.5 * (
            evolve_characteristic(cat_x, bath, 0.3, Q, P, units)
            + evolve_characteristic(cat_p, bath, 0.3, Q, P, units)
        )
        got = evolve_characteristic(mixed, bath, 0.3, Q, P, units)
        np.testing.assert_allclose(got, avg, rtol=0, atol=1e-15)

    def test_frictionless_bath_is_free_shear(self, cat_x, units):
        free = BathParams(mass=1.0, gamma=0.0, temperature=10.0)
        t = 0.3
        grid = linspace_grid(7.0, 5.0, 121, 121)
        field = evolved_wigner(cat_x, free, t, grid, units)
        xm, pm = meshgrid(grid)
        sheared = wigner_closed_eval(cat_x, xm - pm * t / free.mass, pm, units)
        assert np.abs(field.values - sheared).max() < 1e-13

    def test_zero_time_map_tilts_momentum(self, cat_x, bath, units):
        # The evolution map's t -> 0 limit is W0(x, p + m gamma x), not
        # the identity: the momentum variable carries the friction term.
        grid = linspace_grid(7.0, 5.0, 121, 121)
        field = evolved_wigner(cat_x, bath, 0.0, grid, units)
        xm, pm = meshgrid(grid)
        tilted = wigner_closed_eval(
            cat_x, xm, pm + bath.mass * bath.gamma * xm, units
        )
        assert np.abs(field.values - tilted).max() < 1e-13

    def test_mixture_evolves_linearly(self, cat_x, cat_p, mixed, bath, units):
        grid = linspace_grid(8.0, 13.0, 161, 161)
        t = 0.05
        avg = 0.5 * (
            evolved_wigner(cat_x, bath, t, grid, units).values
            + evolved_wigner(cat_p, bath, t, grid, units).values
        )
        got = evolved_wigner(mixed, bath, t, grid, units).values
        assert np.abs(got - avg).max() < 1e-12

    def test_evolved_field_stays_normalized(self, cat_x, bath, units):
        grid = linspace_grid(9.0, 8.0, 201, 201)
        field = evolved_wigner(cat_x, bath, 0.02, grid, units)
        assert integrate_2d(field, "trapezoid") == pytest.approx(1.0, abs=1e-10)


class TestVisibility:
    def test_matches_attenuation_exponent(self, cat_x, bath, units):
        grid = linspace_grid(7.0, 5.0, 181, 181)
        for t in (0.005, 0.02):
            field = evolved_wigner(cat_x, bath, t, grid, units)
            M = propagation_matrix(bath, t)
            plus = tuple(M @ np.array([X0, 0.0]))
            minus = tuple(M @ np.array([-X0, 0.0]))
            vis = visibility_from_field(field, plus, minus)
            a = attenuation_exponent(bath, t, X0, SIGMA, units, "position")
            assert vis == pytest.approx(math.exp(-a), rel=1e-12)

    def test_momentum_pair_visibility(self, cat_p, bath, units):
        t = 0.1
        grid = linspace_grid(8.0, 14.0, 257, 257)
        field = evolved_wigner(cat_p, bath, t, grid, units)
        M = propagation_matrix(bath, t)
        plus = tuple(M @ np.array([0.0, P0]))
        minus = tuple(M @ np.array([0.0, -P0]))
        vis = visibility_from_field(field, plus, minus)
        a = attenuation_exponent(bath, t, P0, SIGMA, units, "momentum")
        assert vis == pytest.approx(math.exp(-a), rel=1e-12)

    def test_unit_visibility_without_coupling(self, cat_x, units):
        free = BathParams(mass=1.0, gamma=0.0, temperature=10.0)
        grid = linspace_grid(7.0, 5.0, 181, 181)
        field = evolved_wigner(cat_x, free, 0.25, grid, units)
        vis = visibility_from_field(field, (X0, 0.0), (-X0, 0.0))
        assert vis == pytest.approx(1.0, rel=1e-12)

    def test_even_grid_rejected(self, cat_x, units):
        free = BathParams(mass=1.0, gamma=0.0, temperature=10.0)
        grid = linspace_grid(7.0, 5.0, 120, 121)
        field = evolved_wigner(cat_x, free, 0.1, grid, units)
        with pytest.raises(ValueError, match="origin is not a grid node"):
            visibility_from_field(field, (X0, 0.0), (-X0, 0.0))

    def test_off_grid_lobe_rejected(self, cat_x, bath, units):
        grid = linspace_grid(7.0, 5.0, 121, 121)
        field = evolved_wigner(cat_x, bath, 0.01, grid, units)
        with pytest.raises(ValueError, match="off the grid"):
            visibility_from_field(field, (30.0, 0.0), (-30.0, 0.0))
