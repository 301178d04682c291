"""State constructors, normalization identities, and Kerr dynamics."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import pdtrc

from subplanck import (
    CatSpec,
    FockVector,
    GaussianComponent,
    MixedSpec,
    NoDecompositionError,
    TruncationError,
    kerr_component_count,
    kerr_evolve,
    make_cat_position,
    make_compass,
    make_mixed,
    state_to_json,
)
from subplanck.states import (
    _KERR_TAIL_TOL,
    _pair_form,
    _Packets,
    _poisson_tail,
    coherent_amplitudes,
    default_cutoff,
)

from conftest import P0, SIGMA, X0
from oracles import _pair_exponent, component_overlap, kerr_polish_nelder_mead, psi_eval, state_from_json


def wavefunction_norm(spec, units, x_half=40.0, n=16001):
    xs = np.linspace(-x_half, x_half, n)
    psi = psi_eval(spec, xs, units)
    return float(np.trapezoid(np.abs(psi) ** 2, xs))


class TestComponents:
    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            GaussianComponent(sigma=0.0, x0=0.0, p0=0.0)
        with pytest.raises(ValueError):
            GaussianComponent(sigma=1.0, x0=math.inf, p0=0.0)

    def test_self_overlap_is_one(self, units):
        c = GaussianComponent(sigma=0.7, x0=1.2, p0=-3.0, phase=0.4)
        assert component_overlap(c, c, units) == pytest.approx(1.0, abs=1e-14)

    def test_overlap_conjugate_symmetry(self, units):
        a = GaussianComponent(sigma=0.5, x0=1.0, p0=2.0, phase=0.3)
        b = GaussianComponent(sigma=0.8, x0=-0.7, p0=1.1, phase=-0.2)
        assert component_overlap(a, b, units) == pytest.approx(
            component_overlap(b, a, units).conjugate(), abs=1e-14
        )

    def test_overlap_known_gaussian(self, units):
        # equal widths, displaced centers: <a|b> = exp(-d^2 / (8 sigma^2))
        a = GaussianComponent(sigma=0.5, x0=0.0, p0=0.0)
        b = GaussianComponent(sigma=0.5, x0=1.5, p0=0.0)
        assert component_overlap(a, b, units) == pytest.approx(
            math.exp(-(1.5**2) / (8 * 0.25)), abs=1e-14
        )

    def test_shifted_overlap_is_displaced_packet(self, units):
        # D(dx, dp) moves the centre and adds the phase -p0 dx / hbar.
        a = GaussianComponent(sigma=0.5, x0=1.0, p0=2.0, phase=0.3)
        b = GaussianComponent(sigma=0.8, x0=-0.7, p0=1.1, phase=-0.2)
        dx, dp = 0.4, -1.3
        moved = GaussianComponent(
            sigma=0.8, x0=-0.7 + dx, p0=1.1 + dp, phase=-0.2 - 1.1 * dx / units.hbar
        )
        assert component_overlap(a, b, units, shift=(dx, dp)) == pytest.approx(
            component_overlap(a, moved, units), abs=1e-14
        )

    def test_shifted_overlap_broadcasts(self, units):
        a = GaussianComponent(sigma=0.5, x0=1.0, p0=2.0)
        dxs = np.linspace(-1, 1, 5)[:, None]
        dps = np.linspace(-2, 2, 3)
        out = component_overlap(a, a, units, shift=(dxs, dps))
        assert out.shape == (5, 3)
        assert out[4, 0] == pytest.approx(
            component_overlap(a, a, units, shift=(1.0, -2.0)), abs=1e-15
        )

    def test_overlap_against_quadrature(self, units):
        a = GaussianComponent(sigma=0.6, x0=0.4, p0=2.0, phase=0.1)
        b = GaussianComponent(sigma=0.45, x0=-0.8, p0=-1.0, phase=0.7)
        xs = np.linspace(-12, 12, 4001)
        pa = psi_eval(CatSpec(components=(a,), coefficients=(1.0,), norm=1.0), xs, units)
        pb = psi_eval(CatSpec(components=(b,), coefficients=(1.0,), norm=1.0), xs, units)
        numeric = np.trapezoid(np.conj(pa) * pb, xs)
        assert component_overlap(a, b, units) == pytest.approx(complex(numeric), abs=1e-12)


class TestCatFactories:
    def test_position_cat_norm_closed_form(self, cat_x):
        expected = 1.0 / math.sqrt(2 * (1 + math.exp(-(X0**2) / (2 * SIGMA**2))))
        assert cat_x.norm == pytest.approx(expected, rel=1e-14)

    def test_momentum_cat_norm_closed_form(self, cat_p, units):
        e2 = math.exp(-2 * P0**2 * SIGMA**2 / units.hbar**2)
        assert cat_p.norm == pytest.approx(1.0 / math.sqrt(2 * (1 + e2)), rel=1e-14)

    @pytest.mark.parametrize("x0,sigma", [(0.8, 0.5), (4.5, 0.5), (2.0, 1.3)])
    def test_position_cat_unit_norm(self, x0, sigma, units):
        spec = make_cat_position(x0, sigma, units)
        assert wavefunction_norm(spec, units) == pytest.approx(1.0, abs=1e-10)

    def test_compass_unit_norm(self, compass, units):
        assert wavefunction_norm(compass, units) == pytest.approx(1.0, abs=1e-10)

    def test_compass_has_four_components(self, compass):
        assert len(compass.components) == 4
        centers = {(c.x0, c.p0) for c in compass.components}
        assert centers == {(X0, 0.0), (-X0, 0.0), (0.0, P0), (0.0, -P0)}

    def test_factory_validation(self, units, cat_x, cat_p):
        with pytest.raises(ValueError):
            make_cat_position(-1.0, 0.5, units)
        with pytest.raises(ValueError):
            make_compass(1.0, -1.0, 0.5, units)
        with pytest.raises(ValueError):
            make_mixed(cat_x, cat_p, p=1.0)

    def test_mixed_probabilities(self, mixed):
        assert [p for p, _ in mixed.branches] == [0.5, 0.5]
        with pytest.raises(ValueError):
            MixedSpec(branches=((0.4, mixed.branches[0][1]), (0.4, mixed.branches[1][1])))


class TestFock:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            FockVector(amplitudes=np.array([1.0, 1.0]))

    def test_coherent_amplitudes_formula(self):
        alpha = 1.3 - 0.4j
        c = coherent_amplitudes(alpha, 12)
        for n in (0, 1, 5, 12):
            expect = cmath.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
            assert c[n] == pytest.approx(expect, abs=1e-14)

    def test_default_cutoff_scaling(self):
        assert default_cutoff(2.0) == 28
        assert default_cutoff(0.0) == 10


# Over 5,000 seeded draws the log-space sum stays within 1.8e-12 of
# pdtrc, relative; its terms n log(lam) - lam - lgamma(n + 1) cancel
# digits of values up to ~1e4 at |alpha| ~ 38.
TAIL_RTOL = 1e-11


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(0.01, 38.0),
    offset=st.integers(-15, 15),
    below=st.floats(0.0, 1.0, exclude_max=True),
)
def test_poisson_tail_matches_pdtrc(r, offset, below):
    """The Kerr truncation tail against scipy's ``pdtrc``: at cutoffs
    within 15 of the default, where it meets the 1e-10 gate, and below
    ``|alpha|^2``, where the tail is close to 1 and a forward recurrence
    from ``cutoff + 1`` underflows to 0 at large ``|alpha|``."""
    lam = r * r
    for cutoff in (max(default_cutoff(r) + offset, 0), math.floor(below * lam)):
        got, want = _poisson_tail(cutoff, lam), float(pdtrc(cutoff, lam))
        assert got == pytest.approx(want, rel=TAIL_RTOL, abs=1e-300)
        assert (got > _KERR_TAIL_TOL) == (want > _KERR_TAIL_TOL)


def test_poisson_tail_below_mean_at_large_amplitude():
    # exp(-|alpha|^2) underflows to 0 at |alpha|^2 = 1400
    assert _poisson_tail(0, 1400.0) == pytest.approx(1.0, rel=1e-12)
    assert _poisson_tail(1400, 1400.0) == pytest.approx(float(pdtrc(1400, 1400.0)), rel=TAIL_RTOL)


class TestKerr:
    def test_zero_time_is_coherent(self):
        state = kerr_evolve(2.0, 0.0)
        expect = coherent_amplitudes(2.0, state.cutoff)
        assert np.abs(state.amplitudes - expect / np.linalg.norm(expect)).max() < 1e-12

    def test_truncation_gate(self):
        with pytest.raises(TruncationError):
            kerr_evolve(3.0, 1.0, cutoff=10)

    def test_negative_cutoff_raises_value_error(self):
        with pytest.raises(ValueError, match="cutoff"):
            kerr_evolve(3.0, 1.0, cutoff=-1)

    def test_oversized_cutoff_raises_value_error(self):
        # default_cutoff(3) = 40: the cap is 160, checked before the
        # number basis is allocated
        assert kerr_evolve(3.0, 1.0, cutoff=160).cutoff == 160
        with pytest.raises(ValueError, match="cutoff 161"):
            kerr_evolve(3.0, 1.0, cutoff=161)
        with pytest.raises(ValueError, match="cutoff"):
            kerr_evolve(3.0, 1.0, cutoff=10**12)

    def test_full_period_returns_to_displaced_coherent(self):
        # kappa t = 2 pi flips the sign of alpha; 4 pi restores it.
        alpha = 2.0
        for kt, target in ((2 * math.pi, -alpha), (4 * math.pi, alpha)):
            state = kerr_evolve(alpha, kt, cutoff=48)
            ref = coherent_amplitudes(target, state.cutoff)
            fidelity = abs(np.vdot(ref, state.amplitudes)) ** 2
            assert fidelity == pytest.approx(1.0, abs=1e-12), f"kappa t = {kt}"

    def test_half_period_two_component_cat(self):
        # kappa t = pi: (e^{-i pi/4} |a> + e^{i pi/4} |-a>) / sqrt(2)
        alpha = 2.0
        state = kerr_evolve(alpha, math.pi, cutoff=48)
        plus = coherent_amplitudes(alpha, state.cutoff)
        minus = coherent_amplitudes(-alpha, state.cutoff)
        ref = (cmath.exp(-1j * math.pi / 4) * plus + cmath.exp(1j * math.pi / 4) * minus) / math.sqrt(2)
        fidelity = abs(np.vdot(ref, state.amplitudes)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kt,count", [(math.pi, 2), (math.pi / 2, 4), (0.0, 1)])
    def test_component_counts(self, kt, count):
        state = kerr_evolve(2.0, kt, cutoff=48)
        assert kerr_component_count(state, 2.0) == count

    @pytest.mark.parametrize("kt,count", [(math.pi / 3, 6), (math.pi / 4, 8)])
    def test_component_counts_alpha_3(self, kt, count):
        # H = (hbar kappa / 2) n^2, so kappa t = pi / m splits the state into 2m components.
        state = kerr_evolve(3.0, kt)
        assert kerr_component_count(state, 3.0) == count

    @pytest.mark.parametrize("kt", [math.pi, math.pi / 2, math.pi / 3, math.pi / 4])
    @pytest.mark.parametrize("alpha", [2.85, 3.0, 3.15])
    def test_component_count_matches_nelder_mead(self, alpha, kt):
        # The coordinate-descent polish reaches the same count as a
        # joint Nelder-Mead simplex started from the same seeds.
        state = kerr_evolve(alpha, kt)
        count, infidelity = kerr_polish_nelder_mead(state, alpha)
        assert infidelity <= 1e-6
        assert kerr_component_count(state, alpha) == count == round(2 * math.pi / kt)

    def test_coarse_scan_keeps_each_angle_in_its_sector(self):
        # At 16 samples, 20 samples either side would span the circle;
        # each angle's polish bracket stays within half the mean spacing.
        assert kerr_component_count(kerr_evolve(3.0, math.pi / 3), 3.0, samples=16) == 6

    def test_component_count_small_radius(self):
        state = kerr_evolve(0.0, 1.0)
        assert kerr_component_count(state, 0.0) == 1

    def test_component_count_rejects_bad_radius(self):
        state = kerr_evolve(2.0, math.pi / 2, cutoff=48)
        with pytest.raises(NoDecompositionError):
            kerr_component_count(state, 0.3)


class TestJson:
    def test_cat_round_trip(self, compass):
        doc = state_to_json(compass)
        back = state_from_json(doc)
        assert back == compass

    def test_mixed_round_trip(self, mixed):
        back = state_from_json(state_to_json(mixed))
        assert back == mixed

    def test_unknown_keys_rejected(self, cat_x):
        doc = state_to_json(cat_x)
        doc["extra"] = 1
        with pytest.raises(ValueError):
            state_from_json(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            state_from_json({"kind": "thermal"})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.builds(
            GaussianComponent,
            sigma=st.floats(0.3, 1.0),
            x0=st.floats(-5.0, 5.0),
            p0=st.floats(-10.0, 10.0),
            phase=st.floats(-math.pi, math.pi),
        ),
        min_size=4,
        max_size=4,
    ),
    st.floats(0.4, 1.5),
    st.booleans(),
)
def test_pair_form_matches_unfactored_oracle(comps, hbar, mirrored):
    """The separable pair form equals the unfactored pair exponent within
    1e-13 of each pair's peak |<phi_a|D|phi_b>|, for every ordered pair of
    four packets of unequal widths, plain or with ``b`` mirrored through
    the origin as the Wigner function takes it, at the peak and at
    displacements up to 3 widths from it along each axis."""
    v = _Packets.of(comps, [1.0] * 4)
    a, b = v._make(f[:, None, None] for f in v), v._make(f[None, :, None] for f in v)
    if mirrored:
        b = b._replace(x0=-b.x0, p0=-b.p0)
    s = np.sqrt(a.sigma**2 + b.sigma**2)
    t = np.random.default_rng(14).uniform(-3.0, 3.0, (2, 64))
    t[:, 0] = 0.0
    dx = a.x0 - b.x0 + t[0] * s
    dp = a.p0 - b.p0 + t[1] * s * hbar / (2 * a.sigma * b.sigma)
    got = np.exp(_pair_form(a, b, hbar).at(dx, dp))
    want = np.exp(_pair_exponent(a, b, dx, dp, hbar))
    assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-13 * np.max(np.abs(want), axis=-1))
