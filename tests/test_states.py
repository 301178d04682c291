"""State constructors, normalization identities, and Kerr dynamics."""

import cmath
import math

import numpy as np
import pytest

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
    psi_eval,
    state_to_json,
)
from subplanck.states import coherent_amplitudes, component_overlap, default_cutoff

from conftest import P0, SIGMA, X0
from oracles import state_from_json


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
