"""Interference decay under a high-temperature Ohmic bath.

The reduced dynamics of a particle coupled to an Ohmic bath in the
high-temperature regime act exactly on the characteristic function:

    C(Q, P; t) = exp(-[<X^2> P^2 + m<XV+VX> Q P + m^2 <V^2> Q^2] / (2 hbar^2))
                 * C0(m Gd Q + G P, m^2 Gdd Q + m Gd P)

where ``G(t) = (1 - e^{-gamma t}) / (m gamma)`` is the damped-oscillator
Green function and the moments are those of classical Brownian motion
at temperature ``T``.  Packet (direct) terms and interference (cross)
terms of a superposition evolve through the same map, but the cross
terms sit far from the characteristic origin and are crushed by the
damping factor long before the packets relax — the decoherence-time
separation this module quantifies.

The CLI computes the attenuation exponent of the cross term from a
closed 2x2-determinant formula (:func:`attenuation_exponent`) and the
times at which it crosses given thresholds (:func:`decoherence_time`).
The independent routes that check it, the evolved Wigner field read as
a fringe-contrast visibility and the Gaussian reduction
(:func:`attenuation_numeric`), are test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from subplanck.core import SearchError, UnitSystem, brent_root


@dataclass(frozen=True)
class BathParams:
    """Ohmic high-temperature bath: mass, damping rate, temperature (kB = 1)."""

    mass: float
    gamma: float
    temperature: float

    def __post_init__(self) -> None:
        for name in ("mass", "gamma", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be non-negative, got {self.temperature}")


# The closed forms below broadcast over ``t`` and return arrays of its
# shape.  Powers of t-dependent values are written as products: numpy's
# ``**`` rounds differently on a scalar than on an array, and a curve
# row must equal the scalar call bit for bit.


def green_function(bath: BathParams, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Green function ``G`` and its first two time derivatives.

    ``G(t) = (1 - e^{-gamma t}) / (m gamma)``, with the ``gamma -> 0``
    limit ``(t/m, 1/m, 0)`` taken exactly.
    """
    t = np.asarray(t, dtype=float)
    m, g = bath.mass, bath.gamma
    if g == 0.0:
        return t / m, np.full_like(t, 1.0 / m), np.zeros_like(t)
    e = np.exp(-g * t)
    return -np.expm1(-g * t) / (m * g), e / m, -g * e / m


# 2u - 3 + 4 e^-u - e^-2u = sum_{n>=3} (-1)^n (4 - 2^n)/n! u^n, through u^23
_XX_SERIES = np.array([(-1) ** n * (4 - 2**n) / math.factorial(n) for n in range(3, 24)])


def _xx_bracket(u: np.ndarray) -> np.ndarray:
    """``2u - (1 - e^-u)(3 - e^-u)`` without catastrophic cancellation.

    The bracket is O(u^3) while its pieces are O(u), so the naive form
    loses all significance for small ``u`` (it can even go negative), and
    the ``expm1`` form below still loses about ``3/u^2`` ulps.  Below
    ``u = 1`` the alternating series takes over: through ``u^23`` its
    truncation is under 1e-16 relative, so the bracket stays within
    1e-15 relative on both sides of the switch.  The series runs on
    ``min(u, 1)``, so large ``u`` cannot overflow it.
    """
    s = np.minimum(u, 1.0)
    series = s * s * s * (_XX_SERIES * np.power.outer(s, np.arange(_XX_SERIES.size))).sum(axis=-1)
    em1 = np.expm1(-u)  # e^-u - 1, relative accuracy eps
    return np.where(u < 1.0, series, 2.0 * (u + em1) - em1 * em1)


def bath_moments(
    bath: BathParams, t, units: UnitSystem = UnitSystem()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brownian-motion moments ``<X^2>``, ``<XV + VX>``, ``<V^2>``.

    These vanish identically when ``gamma`` or ``T`` is zero; at short
    times they grow as ``t^3``, ``t^2`` and ``t`` respectively.
    """
    t = np.asarray(t, dtype=float)
    m, g = bath.mass, bath.gamma
    kT = bath.temperature
    if g == 0.0 or kT == 0.0:
        zero = np.zeros_like(t)
        return zero, zero, zero
    one_minus_e = -np.expm1(-g * t)
    xx = kT / (m * g * g) * _xx_bracket(g * t)
    xv = 2 * kT / (m * g) * (one_minus_e * one_minus_e)
    vv = -kT / m * np.expm1(-2 * g * t)
    return xx, xv, vv


def propagation_matrix(bath: BathParams, t: float) -> np.ndarray:
    """Linear flow ``M`` of phase-space (and characteristic) coordinates.

    ``M = [[m Gd, G], [m^2 Gdd, m Gd]]`` with ``det M = e^{-gamma t}``.
    Wigner peaks move as ``(x, p) -> M (x, p)``; the characteristic
    function is evaluated at ``M (Q, P)`` (same matrix).
    """
    G, Gd, Gdd = green_function(bath, t)
    m = bath.mass
    return np.array([[m * Gd, G], [m * m * Gdd, m * Gd]])


Sym2 = tuple[np.ndarray, np.ndarray, np.ndarray]


def _covariance_parts(
    bath: BathParams, t, sigma: float, units: UnitSystem
) -> tuple[Sym2, Sym2, Sym2]:
    """Evolved packet covariance split into its three PSD pieces.

    Returns ``(As, Ah, D)``: the propagated position-spread part
    ``sigma^2 u u^T``, the propagated momentum-spread part
    ``(hbar^2/4 sigma^2) v v^T`` (with ``u, v`` the columns of the
    flow matrix), and the bath-diffusion part.  Each is a symmetric
    2x2 matrix stored as its entries ``(a11, a12, a22)``.  Their sum is
    the full covariance of an evolved single packet.
    """
    G, Gd, Gdd = green_function(bath, t)
    m = bath.mass
    u1, u2 = m * Gd, m * m * Gdd
    v1, v2 = G, m * Gd
    xx, xv, vv = bath_moments(bath, t, units)
    s2 = sigma**2
    h = units.hbar**2 / (4 * sigma**2)
    As = (s2 * (u1 * u1), s2 * (u1 * u2), s2 * (u2 * u2))
    Ah = (h * (v1 * v1), h * (v1 * v2), h * (v2 * v2))
    D = (xx, m * xv / 2, m * m * vv)
    return As, Ah, D


def _add(first: Sym2, *rest: Sym2) -> Sym2:
    """Entrywise sum, accumulated left to right."""
    return tuple(sum(others, a) for a, *others in zip(first, *rest))


def _det2(a: Sym2) -> np.ndarray:
    a11, a12, a22 = a
    return a11 * a22 - a12 * a12


def _det2_rank_one(a: Sym2, d: Sym2) -> np.ndarray:
    """``det(a + d)`` for a rank-one ``a``.

    ``det a`` is zero, so the expansion leaves it out instead of
    cancelling it in rounding: where ``d`` is zero the result is exactly 0.
    """
    a11, a12, a22 = a
    d11, d12, d22 = d
    return a11 * d22 - 2 * a12 * d12 + a22 * d11 + _det2(d)


def _check_pair(offset: float, sigma: float) -> None:
    """Reject a packet width the closed forms divide by, and a pair at one
    point, which has no fringes to attenuate."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if offset == 0:
        raise ValueError("offset must be non-zero: a pair at one point has no fringes")


def attenuation_exponent(
    bath: BathParams,
    t,
    offset: float,
    sigma: float,
    units: UnitSystem = UnitSystem(),
    kind: str = "position",
) -> float:
    """Closed-form attenuation exponent of the interference term.

    For a balanced superposition of packets separated by ``2 offset``
    along position (``kind="position"``) or momentum
    (``kind="momentum"``), the fringe contrast decays as
    ``exp(-A(t))`` with

        A_x = (offset^2 / 2 sigma^2)      * det(As + D) / det(As + Ah + D)
        A_p = (2 offset^2 sigma^2/hbar^2) * det(Ah + D) / det(As + Ah + D)

    in terms of the covariance pieces of :func:`_covariance_parts`.  The
    numerator determinant vanishes identically at ``t = 0`` (each
    remaining pair is a rank-one matrix), so no special-casing of the
    initial instant is needed.  At short times ``A_x`` grows linearly
    with slope ``(2 offset)^2 m gamma kB T / hbar^2`` while ``A_p``
    grows only cubically: the bath couples to position, so
    momentum-direction fringes decay solely through position diffusion.

    ``t`` may be an array; the result has its shape, and is a float for
    a scalar ``t``.
    """
    if kind not in ("position", "momentum"):
        raise ValueError(f"unknown kind {kind!r}")
    _check_pair(offset, sigma)
    As, Ah, D = _covariance_parts(bath, t, sigma, units)
    det_full = _det2(_add(As, Ah, D))
    if kind == "position":
        a = offset**2 / (2 * sigma**2) * _det2_rank_one(As, D) / det_full
    else:
        a = 2 * offset**2 * sigma**2 / units.hbar**2 * _det2_rank_one(Ah, D) / det_full
    return float(a) if a.ndim == 0 else a


def attenuation_numeric(
    bath: BathParams,
    t: float,
    offset: float,
    sigma: float,
    units: UnitSystem = UnitSystem(),
    kind: str = "position",
) -> float:
    """Attenuation exponent by direct Gaussian reduction.

    Independent route: build the quadratic form of the evolved
    characteristic function (``Htf = M^T H0 M + HD``), place the cross
    term at its characteristic-plane offset ``c`` (``(2 offset, 0)``
    for a position pair, ``(0, 2 offset)`` for a momentum pair), and
    complete the square.  The exponent is

        A = c^T H0 c / 2  -  b^T Htf^{-1} b / 2,      b = M^T H0 c.

    Agrees with :func:`attenuation_exponent` to rounding.  No CLI path
    calls it: it is a structurally different cross-check, kept in this
    module only because the benchmark harness imports it from here.
    """
    if kind not in ("position", "momentum"):
        raise ValueError(f"unknown kind {kind!r}")
    hbar = units.hbar
    m = bath.mass
    H0 = np.diag([1 / (4 * sigma**2), sigma**2 / hbar**2])
    M = propagation_matrix(bath, t)
    xx, xv, vv = bath_moments(bath, t, units)
    HD = np.array([[m * m * vv, m * xv / 2], [m * xv / 2, xx]]) / hbar**2
    Htf = M.T @ H0 @ M + HD
    c = np.array([2 * offset, 0.0]) if kind == "position" else np.array([0.0, 2 * offset])
    b = M.T @ (H0 @ c)
    return float(0.5 * c @ H0 @ c - 0.5 * b @ np.linalg.solve(Htf, b))


def tau_formula_position(bath: BathParams, x0: float, units: UnitSystem = UnitSystem()) -> float:
    """Linear-order decoherence-time estimate for a position pair.

    Inverse of the short-time attenuation slope:
    ``hbar^2 / (4 m gamma kB T x0^2)``.  Accurate while
    ``gamma t`` stays small over the crossing.
    """
    kT = bath.temperature
    if bath.gamma == 0 or kT == 0:
        raise ValueError("gamma and temperature must be positive for a finite estimate")
    return units.hbar**2 / (4 * bath.mass * bath.gamma * kT * x0**2)


def tau_formula_momentum(
    bath: BathParams, p0: float, sigma: float, units: UnitSystem = UnitSystem()
) -> float:
    """Commonly quoted momentum-pair counterpart of
    :func:`tau_formula_position`: ``hbar^4 / (16 m gamma kB T p0^2 sigma^4)``.

    Treat as an order-of-magnitude label only: the measured attenuation
    of a momentum pair grows cubically at short times (position-coupled
    bath), so this linear-order expression can undershoot the actual
    unit-exponent crossing by more than an order of magnitude at
    cat-scale separations.
    """
    kT = bath.temperature
    if bath.gamma == 0 or kT == 0:
        raise ValueError("gamma and temperature must be positive for a finite estimate")
    return units.hbar**4 / (16 * bath.mass * bath.gamma * kT * p0**2 * sigma**4)


def decoherence_time(
    bath: BathParams,
    offset: float,
    sigma: float,
    units: UnitSystem = UnitSystem(),
    kind: str = "position",
    threshold: float = 1.0,
) -> float:
    """Time at which the attenuation exponent crosses ``threshold``.

    Brackets the crossing by geometric growth from
    :func:`tau_formula_position` and polishes with Brent's method.

    Raises
    ------
    SearchError
        If the bath cannot decohere the state (``gamma`` or ``T``
        zero) or no crossing is found within the growth budget.
    ValueError
        If the starting estimate underflows to 0.
    """
    if bath.gamma == 0 or bath.temperature == 0:
        raise SearchError("a bath with gamma = 0 or T = 0 never attenuates the fringes")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    _check_pair(offset, sigma)

    def f(t: float) -> float:
        return attenuation_exponent(bath, t, offset, sigma, units, kind) - threshold

    t_hi = tau_formula_position(bath, offset, units)
    if not t_hi > 0:
        raise ValueError(
            f"the starting estimate hbar^2 / (4 m gamma kB T offset^2) underflows to {t_hi}"
        )
    for _ in range(200):
        if f(t_hi) > 0:
            break
        t_hi *= 2.0
    else:
        raise SearchError(f"attenuation never exceeds {threshold} up to t = {t_hi}")
    # relative to the bracket, so the root does not depend on the time unit
    return brent_root(f, 0.0, t_hi, xtol=1e-15 * t_hi)


def attenuation_curve(
    bath: BathParams,
    offset: float,
    sigma: float,
    times,
    units: UnitSystem = UnitSystem(),
    kind: str = "position",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns ``(t, attenuation, visibility)`` with ``visibility = e^-A``."""
    t = np.asarray(times, dtype=float)
    a = attenuation_exponent(bath, t, offset, sigma, units, kind)
    return t, a, np.exp(-a)
