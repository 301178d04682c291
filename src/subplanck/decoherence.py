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

The attenuation exponent of the cross term is computed three ways:
a closed 2x2-determinant formula (:func:`attenuation_exponent`), an
independent Gaussian-reduction route (:func:`attenuation_numeric`),
and directly off the evolved Wigner field as a fringe-contrast
visibility (:func:`evolved_wigner` + :func:`visibility_from_field`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from subplanck.core import (
    PhaseSpaceGrid,
    UnitSystem,
    WignerField,
    WindowError,
    _uniform_weights,
    brent_root,
)
from subplanck.metrology import SearchError
from subplanck.states import CatSpec, MixedSpec
from subplanck.wigner import characteristic_of_cat


@dataclass(frozen=True)
class BathParams:
    """Ohmic high-temperature bath: mass, damping rate, temperature."""

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


def _xx_bracket(u: np.ndarray) -> np.ndarray:
    """``2u - (1 - e^-u)(3 - e^-u)`` without catastrophic cancellation.

    The bracket is O(u^3) while its pieces are O(u), so the naive form
    loses all significance for small ``u`` (it can even go negative).
    Rewriting via ``expm1`` keeps full relative accuracy down to
    ``u ~ 0.02``; below that an alternating series takes over.  The
    series runs on ``min(u, 0.02)``, so large ``u`` cannot overflow it.
    """
    # 2u - 3 + 4 e^-u - e^-2u = sum_{n>=3} (-1)^n (4 - 2^n)/n! u^n
    s = np.minimum(u, 0.02)
    series = (
        s * s * s
        * (2.0 / 3.0 - s * (0.5 - s * (7.0 / 30.0 - s * (1.0 / 12.0 - s * 31.0 / 1260.0))))
    )
    em1 = np.expm1(-u)  # e^-u - 1, relative accuracy eps
    return np.where(u < 0.02, series, 2.0 * (u + em1) - em1 * em1)


def bath_moments(
    bath: BathParams, t, units: UnitSystem = UnitSystem()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brownian-motion moments ``<X^2>``, ``<XV + VX>``, ``<V^2>``.

    These vanish identically when ``gamma`` or ``T`` is zero; at short
    times they grow as ``t^3``, ``t^2`` and ``t`` respectively.
    """
    t = np.asarray(t, dtype=float)
    m, g = bath.mass, bath.gamma
    kT = units.kB * bath.temperature
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


def a_coefficients(bath: BathParams, t, sigma: float, units: UnitSystem = UnitSystem()) -> Sym2:
    """Entries ``(A11, A12, A22)`` of the evolved packet covariance.

    ``A11`` is the position variance, ``A22`` the momentum variance and
    ``A12`` the symmetrized cross moment of a single Gaussian packet of
    initial spread ``sigma`` after time ``t`` of bath contact.
    """
    return _add(*_covariance_parts(bath, t, sigma, units))


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

    in terms of the covariance pieces of :func:`a_coefficients`.  The
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

    Agrees with :func:`attenuation_exponent` to rounding; kept as a
    structurally different cross-check.
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
    kT = units.kB * bath.temperature
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
    kT = units.kB * bath.temperature
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
    return brent_root(f, 0.0, t_hi, xtol=1e-15)


def attenuation_curve(
    bath: BathParams,
    offset: float,
    sigma: float,
    times,
    units: UnitSystem = UnitSystem(),
    kind: str = "position",
) -> list[tuple[float, float, float]]:
    """Rows ``(t, attenuation, visibility)`` with ``visibility = e^-A``."""
    t = np.asarray(times, dtype=float)
    a = attenuation_exponent(bath, t, offset, sigma, units, kind)
    return list(zip(t.tolist(), a.tolist(), np.exp(-a).tolist()))


def evolve_characteristic(
    state: CatSpec | MixedSpec,
    bath: BathParams,
    t: float,
    Q,
    P,
    units: UnitSystem = UnitSystem(),
) -> np.ndarray:
    """Characteristic function of the state after bath contact.

    Applies the exact high-temperature map: evaluate the initial
    characteristic function at the flowed argument ``M (Q, P)`` and
    multiply by the Brownian damping factor.  ``Q`` and ``P``
    broadcast against each other.
    """
    hbar = units.hbar
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    G, Gd, Gdd = green_function(bath, t)
    m = bath.mass
    base = characteristic_of_cat(state, m * Gd * Q + G * P, m * m * Gdd * Q + m * Gd * P, units)
    xx, xv, vv = bath_moments(bath, t, units)
    damp = np.exp(-(xx * P**2 + m * xv * Q * P + m * m * vv * Q**2) / (2 * hbar**2))
    return damp * base


def evolved_wigner(
    state: CatSpec | MixedSpec,
    bath: BathParams,
    t: float,
    grid: PhaseSpaceGrid,
    units: UnitSystem = UnitSystem(),
) -> WignerField:
    """Wigner function after bath contact, via the characteristic plane.

    Samples the evolved characteristic function on a window sized from
    the packet geometry, the flow matrix and the bath spreading, then
    inverts the transform onto ``grid`` with a dense matrix DFT.  The
    steps are chosen so the oscillation of the integrand stays below
    the anti-aliasing bound for every requested output point.

    Raises
    ------
    WindowError
        If the sampled window fails to contain the characteristic
        support (edge magnitude above ``1e-6`` of the peak).
    """
    hbar = units.hbar
    m = bath.mass
    packets = state._packets
    smin, smax = float(packets.sigma.min()), float(packets.sigma.max())
    Dx, Dp = float(np.ptp(packets.x0)), float(np.ptp(packets.p0))

    # window in the flowed (primed) frame, pulled back through the flow
    c_primed = np.array([Dx + 26 * smax, Dp + 9 * hbar / smin])
    M = propagation_matrix(bath, t)
    cQ, cP = np.abs(np.linalg.inv(M)) @ c_primed

    # evolved real-space support fixes the sampling steps
    centers = np.stack([packets.x0, packets.p0], axis=1)
    evolved = centers @ M.T
    xx, xv, vv = bath_moments(bath, t, units)
    Rx = np.abs(evolved[:, 0]).max() + 9 * math.sqrt(
        smax**2 + (hbar * t / (2 * smin * m)) ** 2 + xx
    )
    Rp = np.abs(evolved[:, 1]).max() + 9 * math.sqrt((hbar / (2 * smin)) ** 2 + m * m * vv)
    Gx = max(abs(grid.x_min), abs(grid.x_max))
    Gp = max(abs(grid.p_min), abs(grid.p_max))
    dQ = 2 * math.pi * hbar / (1.1 * (Rp + Gp))
    dP = 2 * math.pi * hbar / (1.1 * (Rx + Gx))
    nQ = 2 * int(math.ceil(cQ / dQ)) + 1
    nP = 2 * int(math.ceil(cP / dP)) + 1
    Qs = dQ * np.arange(-(nQ // 2), nQ // 2 + 1)
    Ps = dP * np.arange(-(nP // 2), nP // 2 + 1)

    C = evolve_characteristic(state, bath, t, Qs[:, None], Ps[None, :], units)
    peak = np.abs(C).max()
    edge = max(
        np.abs(C[0, :]).max(),
        np.abs(C[-1, :]).max(),
        np.abs(C[:, 0]).max(),
        np.abs(C[:, -1]).max(),
    )
    if edge > 1e-6 * peak:
        raise WindowError(
            f"characteristic support leaks past the sampling window: "
            f"edge/peak = {edge / peak:.3e}"
        )

    wQ = _uniform_weights("trapezoid", nQ, dQ)
    wP = _uniform_weights("trapezoid", nP, dP)
    weighted = C * wQ[:, None] * wP[None, :]
    Ex = np.exp(1j * np.outer(grid.xs(), Ps) / hbar)
    Ep = np.exp(1j * np.outer(Qs, grid.ps()) / hbar)
    values = (Ex @ weighted.T @ Ep).real / (2 * math.pi * hbar) ** 2
    return WignerField(grid=grid, values=values)


def _refine_peak(values: np.ndarray, i: int, j: int) -> float:
    """Continuous peak value near grid node ``(i, j)``.

    Fits ``log values`` on the 3x3 stencil with a full quadratic and
    maximizes it.  Exact for a Gaussian lobe; falls back to the node
    value at grid edges, for non-positive stencils, or when the fit
    is not concave.
    """
    if not (1 <= i < values.shape[0] - 1 and 1 <= j < values.shape[1] - 1):
        return float(values[i, j])
    patch = values[i - 1 : i + 2, j - 1 : j + 2]
    if not (patch > 0).all():
        return float(values[i, j])
    di, dj = np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], indexing="ij")
    cols = np.stack(
        [np.ones(9), di.ravel(), dj.ravel(), di.ravel() ** 2, di.ravel() * dj.ravel(), dj.ravel() ** 2],
        axis=1,
    )
    coef, *_ = np.linalg.lstsq(cols, np.log(patch).ravel(), rcond=None)
    c0, gx, gy, hxx, hxy, hyy = coef
    hess = np.array([[2 * hxx, hxy], [hxy, 2 * hyy]])
    if not (hess[0, 0] < 0 and np.linalg.det(hess) > 0):
        return float(values[i, j])
    step = np.linalg.solve(hess, -np.array([gx, gy]))
    if np.abs(step).max() > 1.5:
        return float(values[i, j])
    g = np.array([gx, gy])
    return float(math.exp(c0 + g @ step + 0.5 * step @ hess @ step))


def visibility_from_field(
    field: WignerField,
    center_plus: tuple[float, float],
    center_minus: tuple[float, float],
) -> float:
    """Fringe-contrast visibility of a two-lobe interference pattern.

    Reads the fringe amplitude at the phase-space origin (which must
    be a grid node) and the two lobe peaks near the supplied centers,
    and returns ``fringe / (2 sqrt(lobe_plus * lobe_minus))`` — one
    for an undamped balanced superposition, ``exp(-A(t))`` under bath
    evolution.

    Lobe peaks falling between grid nodes are recovered by a
    log-quadratic fit on the 3x3 stencil around the grid maximum; the
    lobes stay exactly Gaussian under the evolution map, so the fit
    removes the grid bias rather than merely reducing it.
    """
    xs, ps = field.grid.xs(), field.grid.ps()
    i0 = int(np.argmin(np.abs(xs)))
    j0 = int(np.argmin(np.abs(ps)))
    if abs(xs[i0]) > 1e-6 * field.grid.dx or abs(ps[j0]) > 1e-6 * field.grid.dp:
        raise ValueError("origin is not a grid node; use an odd, origin-centered grid")
    fringe = float(field.values[i0, j0])

    half_x = abs(center_plus[0] - center_minus[0]) / 4 + 2 * field.grid.dx
    half_p = abs(center_plus[1] - center_minus[1]) / 4 + 2 * field.grid.dp

    def lobe_peak(cx: float, cp: float) -> float:
        mi = np.flatnonzero((xs >= cx - half_x) & (xs <= cx + half_x))
        mj = np.flatnonzero((ps >= cp - half_p) & (ps <= cp + half_p))
        if mi.size == 0 or mj.size == 0:
            raise ValueError(f"lobe box around ({cx}, {cp}) lies off the grid")
        sub = field.values[np.ix_(mi, mj)]
        k = np.unravel_index(int(np.argmax(sub)), sub.shape)
        return _refine_peak(field.values, int(mi[k[0]]), int(mj[k[1]]))

    lobe_plus = lobe_peak(*center_plus)
    lobe_minus = lobe_peak(*center_minus)
    if lobe_plus <= 0 or lobe_minus <= 0:
        raise ValueError("lobe peaks must be positive to define a visibility")
    return fringe / (2 * math.sqrt(lobe_plus * lobe_minus))
