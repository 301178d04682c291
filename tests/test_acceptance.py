"""Acceptance gate for the package.

Each test here checks one numbered criterion from the project's
acceptance checklist at its stated tolerance and registers a single
``[acceptance N] PASS/FAIL`` verdict line, which the suite prints in
an "acceptance checklist" block at the end of every pytest run.
Criteria are verified against independent routes wherever
one exists: the defining-integral quadrature oracle for the closed
forms, closed-form predictions for the measured lattice and the
attenuation pipeline, and the command line for determinism.

Three criteria correct targets that the checklist misquotes. Each
test asserts the analytic target, confirmed by a second route, and
keeps the quoted value as a point that must not pass as a solution:

* 5b/5c - the displaced mixture's overlap is proportional to
  2 + cos(2 delta1 x0/hbar) + cos(2 delta2 p0/hbar), times a Gaussian
  damping, so its joint zero sits at (pi*hbar/(2*x0), pi*hbar/(2*p0))
  and the displacement product is pi^2 hbar^2/(4 x0 p0).  The FFT
  autocorrelation of the closed-form field must agree with the exact
  overlap the search uses there.  The quoted point
  (pi*hbar/(2*x0), pi*hbar/(4*p0)), with half that product, must keep a
  normalized overlap above 0.2 on both routes.
* 8e - the bath couples to position, so the momentum-cat attenuation
  grows cubically, A = 4 p0^2 kT gamma t^3/(3 m hbar^2) + O(t^4).  The
  A = 1 crossing must sit near (3 m hbar^2/(4 p0^2 kT gamma))^(1/3),
  agree with the Gaussian-reduction route, and stay more than ten
  times the quoted linear-rate label hbar^4/(16 m gamma kT p0^2 sigma^4).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import ACCEPTANCE_LINES, route_gap
from oracles import default_scan_grid, evolved_wigner, overlap_map, visibility_from_field

from subplanck.cli import main as cli_main
from subplanck.core import UnitSystem, WignerField, integrate_2d, linspace_grid
from subplanck.decoherence import (
    BathParams,
    attenuation_exponent,
    attenuation_numeric,
    decoherence_time,
    propagation_matrix,
    tau_formula_momentum,
    tau_formula_position,
)
from subplanck.interference import find_zero_lattice, tile_area
from subplanck.metrology import find_orthogonality, overlap_closed
from subplanck.states import (
    coherent_amplitudes,
    kerr_component_count,
    kerr_evolve,
    make_cat_momentum,
    make_cat_position,
    make_compass,
    make_mixed,
)
from subplanck.wigner import (
    wigner_closed,
    wigner_closed_eval,
)

UNITS = UnitSystem()
HBAR = UNITS.hbar
X0, P0, SIGMA = 4.5, 10.0, 0.5


def check(criterion: str, ok: bool, detail: str) -> None:
    """Register the one-line verdict for ``criterion`` and assert it."""
    line = f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def cat_x():
    return make_cat_position(X0, SIGMA, UNITS)


@pytest.fixture(scope="module")
def cat_p():
    return make_cat_momentum(P0, SIGMA, UNITS)


@pytest.fixture(scope="module")
def mixed(cat_x, cat_p):
    return make_mixed(cat_x, cat_p)


@pytest.fixture(scope="module")
def big_grid():
    return linspace_grid(X0 + 8 * SIGMA, P0 + 4 * HBAR / SIGMA, 601, 601)


@pytest.fixture(scope="module")
def big_mixed_field(mixed, big_grid):
    return wigner_closed(mixed, big_grid, UNITS)


@pytest.fixture(scope="module")
def bath():
    return BathParams(mass=1.0, gamma=0.1, temperature=10.0)


def exact_overlap(state):
    """The production evaluator, ``(delta1, delta2) -> O``, for ``state``."""
    return lambda d1, d2: overlap_closed(state, d1, d2, UNITS)


@pytest.fixture(scope="module")
def mixed_search(mixed):
    """The exact overlap normalized to 1 at zero displacement, and the
    orthogonality search on it."""
    exact = exact_overlap(mixed)
    result = find_orthogonality(
        exact,
        1.5 * math.pi * HBAR / X0,
        1.5 * math.pi * HBAR / P0,
        n_scan=301,
    )
    o00 = exact(0.0, 0.0)
    return (lambda d1, d2: exact(d1, d2) / o00), result


@pytest.fixture(scope="module")
def mixed_lag_overlap(mixed):
    """Normalized overlap ``(delta1, delta2) -> O/O(0,0)`` by FFT.

    The independent route: :func:`overlap_map` autocorrelates the
    closed-form field on a grid whose steps, dx = pi*hbar/(4*p0) and
    dp = pi*hbar/(4*x0), put the analytic zero and the quoted point on
    lag nodes.  The window covers the default scan grid.
    """
    window = default_scan_grid(X0, P0, SIGMA, UNITS)
    dx, dp = math.pi * HBAR / (4 * P0), math.pi * HBAR / (4 * X0)
    nx, npts = math.ceil(window.x_max / dx), math.ceil(window.p_max / dp)
    grid = linspace_grid(nx * dx, npts * dp, 2 * nx + 1, 2 * npts + 1)
    lags = overlap_map(wigner_closed(mixed, grid, UNITS))

    def unit(delta1: float, delta2: float) -> float:
        i = int(np.argmin(np.abs(lags.delta2s - delta2)))
        j = int(np.argmin(np.abs(lags.delta1s - delta1)))
        assert math.isclose(lags.delta2s[i], delta2) and math.isclose(
            lags.delta1s[j], delta1
        ), f"({delta1}, {delta2}) is not a lag node"
        return float(lags.values[i, j]) / lags.at_origin()

    return unit


@pytest.fixture(scope="module")
def quoted_point_overlaps(mixed_search, mixed_lag_overlap):
    """Normalized overlap at the quoted (pi*hbar/(2*x0), pi*hbar/(4*p0)),
    in closed form and by FFT."""
    unit, _ = mixed_search
    point = (math.pi * HBAR / (2 * X0), math.pi * HBAR / (4 * P0))
    return unit(*point), mixed_lag_overlap(*point)


def test_criterion_01_closed_forms_match_integral_oracle(
    cat_x, cat_p, mixed, big_grid
):
    worst_ref = max(route_gap(state, big_grid, UNITS) for state in (cat_x, cat_p, mixed))
    rng = np.random.default_rng(20260819)
    worst_draw = 0.0
    for _ in range(20):
        sigma = rng.uniform(0.3, 0.8)
        x0 = rng.uniform(2.0, 6.0)
        p0 = rng.uniform(5.0, 14.0)
        grid = linspace_grid(x0 + 8 * sigma, p0 + 4 * HBAR / sigma, 121, 121)
        cx = make_cat_position(x0, sigma, UNITS)
        cp = make_cat_momentum(p0, sigma, UNITS)
        for state in (cx, cp, make_mixed(cx, cp)):
            worst_draw = max(worst_draw, route_gap(state, grid, UNITS))
    check(
        "01",
        worst_ref < 1e-8 and worst_draw < 1e-6,
        f"closed vs integral max|diff| = {worst_ref:.2e} on the 601x601 "
        f"reference grid (< 1e-8), {worst_draw:.2e} over 20 seeded draws (< 1e-6)",
    )


def test_criterion_02_normalization_and_purity(big_mixed_field, big_grid):
    norm = integrate_2d(big_mixed_field)
    purity = 2 * math.pi * HBAR * integrate_2d(
        WignerField(grid=big_grid, values=big_mixed_field.values**2)
    )
    check(
        "02",
        abs(norm - 1.0) < 1e-6 and abs(purity - 0.5) < 1e-3,
        f"integral of W = {norm:.9f} (1 +/- 1e-6), "
        f"2*pi*hbar * integral of W^2 = {purity:.6f} (0.5 +/- 1e-3)",
    )


def test_criterion_03_zero_lattice_first_lines(mixed):
    grid = linspace_grid(X0 / 2, P0 / 2, 257, 257)
    lattice = find_zero_lattice(grid, lambda x, p: wigner_closed_eval(mixed, x, p, UNITS))
    x_err = abs(lattice.first_x_line() - math.pi * HBAR / (4 * P0))
    p_err = abs(lattice.first_p_line() - math.pi * HBAR / (4 * X0))
    check(
        "03",
        x_err < 1e-6 and p_err < 1e-6,
        f"first zero lines at x = {lattice.first_x_line():.8f} "
        f"(pi*hbar/(4*p0) = {math.pi * HBAR / (4 * P0):.8f}, err {x_err:.1e}), "
        f"p = {lattice.first_p_line():.8f} "
        f"(pi*hbar/(4*x0) = {math.pi * HBAR / (4 * X0):.8f}, err {p_err:.1e})",
    )


def test_criterion_04_tile_area_and_inverse_scaling():
    products, areas = [], []
    central_rel = None
    for p0 in (5.0, 10.0, 20.0, 40.0, 80.0):
        state = make_mixed(
            make_cat_position(X0, SIGMA, UNITS), make_cat_momentum(p0, SIGMA, UNITS)
        )
        grid = linspace_grid(
            1.25 * math.pi * HBAR / p0, 1.25 * math.pi * HBAR / X0, 257, 257
        )
        lattice = find_zero_lattice(
            grid, lambda x, p, s=state: wigner_closed_eval(s, x, p, UNITS)
        )
        area = tile_area(lattice)
        predicted = math.pi**2 * HBAR**2 / (16 * X0 * p0)
        if p0 == P0:
            central_rel = abs(area - predicted) / predicted
        products.append(X0 * p0)
        areas.append(area)
    slope = float(np.polyfit(np.log(products), np.log(areas), 1)[0])
    check(
        "04",
        central_rel < 0.02 and abs(slope + 1.0) < 0.02,
        f"central tile within {central_rel:.2e} of pi^2*hbar^2/(16*x0*p0) (< 2%), "
        f"log-log slope over x0*p0 in [22.5, 360] = {slope:.4f} (-1 +/- 0.02)",
    )


def test_criterion_05a_orthogonality_along_position(mixed_search):
    _, result = mixed_search
    d1_target = math.pi * HBAR / (2 * X0)
    rel = abs(result.delta1_star - d1_target) / d1_target
    check(
        "05a",
        result.achieved and abs(result.min_overlap) < 0.02 and rel < 0.02,
        f"normalized overlap {result.min_overlap:.1e} (< 0.02) at delta1* = "
        f"{result.delta1_star:.6f}, within {rel:.1e} of pi*hbar/(2*x0) = {d1_target:.6f}",
    )


def test_criterion_05b_orthogonality_along_momentum(
    mixed_search, mixed_lag_overlap, quoted_point_overlaps
):
    unit, result = mixed_search
    d1_target = math.pi * HBAR / (2 * X0)
    d2_target = math.pi * HBAR / (2 * P0)
    rel = abs(result.delta2_star - d2_target) / d2_target
    fft_zero = mixed_lag_overlap(d1_target, d2_target)
    route_gap = abs(fft_zero - unit(d1_target, d2_target))
    exact_quoted, fft_quoted = quoted_point_overlaps
    check(
        "05b",
        rel < 0.02
        and abs(result.min_overlap) < 0.02
        and abs(fft_zero) < 0.02
        and route_gap < 1e-6
        and min(exact_quoted, fft_quoted) > 0.2,
        f"delta2* = {result.delta2_star:.6f}, within {rel:.1e} of "
        f"pi*hbar/(2*p0) = {d2_target:.6f} (< 2%), normalized overlap "
        f"{result.min_overlap:.1e} (< 0.02); the FFT route gives "
        f"{fft_zero:.1e} at that lag node, {route_gap:.1e} from the "
        f"closed form (< 1e-6); at the quoted delta2 = pi*hbar/(4*p0) the "
        f"overlap is {exact_quoted:.3f} (closed form) and {fft_quoted:.3f} "
        f"(FFT), not a zero (> 0.2)",
    )


def test_criterion_05c_displacement_product(mixed_search, quoted_point_overlaps):
    _, result = mixed_search
    target = math.pi**2 * HBAR**2 / (4 * X0 * P0)
    rel = abs(result.product - target) / target
    exact_quoted, fft_quoted = quoted_point_overlaps
    check(
        "05c",
        rel < 0.05 and min(exact_quoted, fft_quoted) > 0.2,
        f"delta1*delta2 = {result.product:.6f}, within {rel:.1e} of "
        f"pi^2*hbar^2/(4*x0*p0) = {target:.6f} (< 5%); the point with the "
        f"quoted product pi^2*hbar^2/(8*x0*p0) = {target / 2:.6f}, "
        f"(pi*hbar/(2*x0), pi*hbar/(4*p0)), has overlap {exact_quoted:.3f} "
        f"(closed form) and {fft_quoted:.3f} (FFT), not a zero (> 0.2)",
    )


def test_criterion_06_compass_state_parity(mixed_search):
    _, mixed_result = mixed_search
    compass = make_compass(X0, P0, SIGMA, UNITS)
    result = find_orthogonality(
        exact_overlap(compass),
        1.5 * math.pi * HBAR / X0,
        1.5 * math.pi * HBAR / P0,
        n_scan=201,
    )
    ratio = result.product / mixed_result.product
    check(
        "06",
        result.achieved and 0.5 < ratio < 2.0,
        f"compass displacement product / mixture product = {ratio:.6f} "
        f"(within a factor of 2)",
    )


def test_criterion_07_kerr_cat_preparation():
    evolved = kerr_evolve(2.0 + 0.0j, math.pi, cutoff=48)
    n = np.arange(evolved.cutoff + 1)
    coh = coherent_amplitudes(2.0 + 0.0j, evolved.cutoff)
    cat = (
        np.exp(-1j * math.pi / 4) * coh
        + np.exp(1j * math.pi / 4) * coh * (-1.0) ** n
    ) / math.sqrt(2)
    fidelity = abs(np.vdot(cat, evolved.amplitudes)) ** 2
    count = kerr_component_count(kerr_evolve(2.0 + 0.0j, math.pi / 2, cutoff=48), 2.0)
    check(
        "07",
        fidelity >= 1 - 1e-8 and count == 4,
        f"half-period state matches the analytic two-component cat with "
        f"1 - fidelity = {abs(1 - fidelity):.1e} (<= 1e-8); quarter-period "
        f"component count = {count} (expect 4)",
    )


def test_criterion_08a_attenuation_zero_at_zero_time(bath):
    a_pos = attenuation_exponent(bath, 0.0, X0, SIGMA, UNITS, kind="position")
    a_mom = attenuation_exponent(bath, 0.0, P0, SIGMA, UNITS, kind="momentum")
    check(
        "08a",
        a_pos == 0.0 and a_mom == 0.0,
        f"A(0) = {a_pos!r} (position), {a_mom!r} (momentum) - exactly zero",
    )


def test_criterion_08b_short_time_slope(bath):
    t = 1e-4 / bath.gamma
    slope = attenuation_exponent(bath, t, X0, SIGMA, UNITS, kind="position") / t
    target = (2 * X0) ** 2 * bath.mass * bath.gamma * bath.temperature / HBAR**2
    rel = abs(slope - target) / target
    check(
        "08b",
        rel < 0.02,
        f"A(t)/t at gamma*t = 1e-4 is {slope:.4f}, within {rel:.1e} of "
        f"(2*x0)^2*m*gamma*kT/hbar^2 = {target:.1f} (< 2%)",
    )


def test_criterion_08c_visibility_matches_exponent(bath, cat_x):
    worst = 0.0
    for t, (x_half, p_half, n) in (
        (0.01, (7.0, 5.0, 181)),
        (0.1, (8.0, 6.0, 221)),
        (0.5, (12.0, 10.0, 321)),
    ):
        a = attenuation_exponent(bath, t, X0, SIGMA, UNITS, kind="position")
        flow = propagation_matrix(bath, t)
        field = evolved_wigner(cat_x, bath, t, linspace_grid(x_half, p_half, n, n), UNITS)
        vis = visibility_from_field(
            field,
            tuple(flow @ np.array([X0, 0.0])),
            tuple(flow @ np.array([-X0, 0.0])),
        )
        worst = max(worst, abs(vis - math.exp(-a)) / math.exp(-a))
    check(
        "08c",
        worst < 0.05,
        f"evolved central-fringe visibility matches exp(-A(t)) within "
        f"{worst:.1e} for gamma*t in {{1e-3, 1e-2, 5e-2}} (< 5%)",
    )


def test_criterion_08d_position_crossing_near_linear_label(bath):
    tau1 = tau_formula_position(bath, X0, UNITS)
    t_star = decoherence_time(bath, X0, SIGMA, UNITS, kind="position")
    rel = abs(t_star - tau1) / tau1
    check(
        "08d",
        bath.gamma * tau1 < 0.1 and rel < 0.10,
        f"A = 1 crossing at t* = {t_star:.6f}, within {rel:.1%} of "
        f"hbar^2/(4*m*gamma*kT*x0^2) = {tau1:.6f} (< 10%, valid since "
        f"gamma*tau = {bath.gamma * tau1:.1e} < 0.1)",
    )


def test_criterion_08e_momentum_crossing_vs_linear_label(bath):
    tau2 = tau_formula_momentum(bath, P0, SIGMA, UNITS)
    t_star = decoherence_time(bath, P0, SIGMA, UNITS, kind="momentum")
    rate = 4 * P0**2 * bath.temperature * bath.gamma / (3 * bath.mass * HBAR**2)
    t_cubic = rate ** (-1 / 3)
    rel = abs(t_star - t_cubic) / t_cubic
    t = 1e-4 / bath.gamma
    a_short = attenuation_exponent(bath, t, P0, SIGMA, UNITS, kind="momentum")
    cubic_rel = abs(a_short / t**3 - rate) / rate
    t_numeric = brentq(
        lambda s: attenuation_numeric(bath, s, P0, SIGMA, UNITS, kind="momentum") - 1.0,
        0.0,
        2 * t_cubic,
        xtol=1e-15,
        rtol=8.9e-16,
    )
    route_gap = abs(t_numeric - t_star) / t_star
    check(
        "08e",
        rel < 0.15 and cubic_rel < 0.02 and route_gap < 1e-9 and t_star > 10 * tau2,
        f"momentum-cat A = 1 crossing at t* = {t_star:.5f}, within {rel:.1%} "
        f"of the cubic law (3*m*hbar^2/(4*p0^2*kT*gamma))^(1/3) = "
        f"{t_cubic:.5f} (< 15%; the gap is the order-t^4 term, led by the "
        f"packet-width part -6*m*sigma^2*kT*gamma*t/hbar^2 relative to the "
        f"cubic law); A(t)/t^3 at gamma*t = "
        f"1e-4 is {a_short / t**3:.3f}, within {cubic_rel:.1e} of "
        f"4*p0^2*kT*gamma/(3*m*hbar^2) = {rate:.3f} (< 2%); the "
        f"Gaussian-reduction crossing agrees to {route_gap:.1e} (< 1e-9); "
        f"t* is {t_star / tau2:.1f}x the linear-rate label "
        f"hbar^4/(16*m*gamma*kT*p0^2*sigma^4) = {tau2:.5f} (> 10x)",
    )


def test_criterion_09_frictionless_limit_is_free_shear(cat_x):
    free = BathParams(mass=1.0, gamma=0.0, temperature=10.0)
    t = 0.3
    grid = linspace_grid(7.0, 5.0, 161, 161)
    field = evolved_wigner(cat_x, free, t, grid, UNITS)
    xmesh, pmesh = np.meshgrid(grid.xs(), grid.ps(), indexing="ij")
    sheared = wigner_closed_eval(cat_x, xmesh - pmesh * t / free.mass, pmesh, UNITS)
    diff = float(np.abs(field.values - sheared).max())
    check(
        "09",
        diff < 1e-6,
        f"gamma = 0 evolution equals the free-particle shear "
        f"W0(x - p*t/m, p) to max|diff| = {diff:.1e} (< 1e-6)",
    )


def test_criterion_10_byte_identical_across_threads(tmp_path):
    cfg_s = tmp_path / "scan.json"
    cfg_s.write_text(json.dumps({"n1": 4, "n2": 4, "no-search": True}))
    cfg_d = tmp_path / "curve.json"
    cfg_d.write_text(json.dumps({"nt": 7}))
    for threads in (1, 2, 8):
        out = tmp_path / str(threads)
        rc = cli_main(
            ["sensitivity", "--config", str(cfg_s), "--threads", str(threads),
             "--out", str(out)]
        )
        rc |= cli_main(
            ["decohere", "--config", str(cfg_d), "--threads", str(threads),
             "--out", str(out)]
        )
        assert rc == 0
    names = ("sensitivity.json", "sensitivity.csv", "decohere.json", "decohere.csv")
    identical = all(
        (tmp_path / "1" / name).read_bytes()
        == (tmp_path / str(threads) / name).read_bytes()
        for threads in (2, 8)
        for name in names
    )
    check(
        "10",
        identical,
        "identical configs give byte-identical JSON and CSV artifacts "
        "across 1, 2 and 8 worker threads",
    )
