"""Wigner functions: defining-integral oracle and closed forms.

Wigner transform (normalized to ``iint W dx dp = 1``):

    W(x, p) = (2 pi hbar)^-1  int <x - y/2| rho |x + y/2> exp(i p y / hbar) dy

Two independent evaluation routes are provided for superpositions of
Gaussian packets: :func:`wigner_transform` integrates the defining
integral numerically (quadrature on the evaluated wave packets), while
:func:`wigner_closed` sums the exact per-pair Gaussian integrals.
Their agreement is a strong end-to-end check of both.  The
characteristic function and the number-basis Wigner route, which only
the tests use, live with the test oracles.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from subplanck.core import (
    CoverageError,
    PhaseSpaceGrid,
    Quadrature,
    UnitSystem,
    WignerField,
    _uniform_weights,
)
from subplanck.states import (
    CatSpec,
    GaussianComponent,
    MixedSpec,
    _branches,
    _pair_exponent,
    psi_eval,
)

_TAIL_SIGMAS = 8.5  # Gaussian tails are below 3e-16 beyond this many widths
_COVERAGE_SIGMAS = 6.1  # margin check_coverage demands around each packet


def _pair_integral_uniform(
    cj: GaussianComponent,
    ck: GaussianComponent,
    xs: np.ndarray,
    ps: np.ndarray,
    units: UnitSystem,
    rule: str,
) -> np.ndarray:
    """``I_jk(x, p) = int phi_j(x - y/2) phi_k*(x + y/2) e^{i p y/hbar} dy``
    on the outer grid ``xs x ps``, by direct quadrature of the evaluated
    packets.

    The integrand is a Gaussian of width ``s`` in ``y`` times a tone of
    angular frequency ``(p - (p0_j + p0_k)/2) / hbar``; a uniform step
    ``h = 2 pi / (omega_max + tail/s)`` keeps the aliasing error of the
    trapezoid sum at the level of the Gaussian tail itself.
    """
    hbar = units.hbar
    a_y, mus, _ = _pair_quadratic(cj, ck, xs, hbar)
    s = 1 / math.sqrt(2 * a_y)
    lo = float(mus.min()) - _TAIL_SIGMAS * s
    hi = float(mus.max()) + _TAIL_SIGMAS * s
    qbar = 0.5 * (cj.p0 + ck.p0)
    omega_max = float(np.max(np.abs(ps - qbar))) / hbar
    h = 2 * math.pi / (omega_max + _TAIL_SIGMAS / s)
    if rule == "simpson":
        # Composite Simpson mixes trapezoid sums at step h and 2h, so the
        # anti-aliasing step criterion must hold for the doubled step too.
        h /= 2
    ny = max(int(math.ceil((hi - lo) / h)) + 1, 16)
    if rule == "simpson" and ny % 2 == 0:
        ny += 1
    ys = np.linspace(lo, hi, ny)
    w = _uniform_weights(rule, ny, ys[1] - ys[0])

    def packet(c: GaussianComponent, u: np.ndarray) -> np.ndarray:
        return psi_eval(CatSpec(components=(c,), coefficients=(1.0,), norm=1.0), u, units)

    kern = packet(cj, xs[:, None] - ys[None, :] / 2) * np.conj(packet(ck, xs[:, None] + ys[None, :] / 2))
    tone = w[:, None] * np.exp(1j * np.outer(ys, ps) / hbar)
    return kern @ tone


def _pair_quadratic(
    cj: GaussianComponent, ck: GaussianComponent, x: np.ndarray, hbar: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact quadratic form of the chord product in ``y``.

    Writes ``phi_j(x-y/2) phi_k*(x+y/2) = exp(-A (y-mu)^2 + D - i qbar y/hbar)``
    with ``qbar = (p0_j + p0_k)/2``; returns ``(A, mu(x), D(x))`` where
    ``D`` is complex.  ``1 / sqrt(2 A)`` is the Gaussian width in ``y``
    and ``mu`` its centre, which place the quadrature nodes.
    """
    sj2, sk2 = cj.sigma**2, ck.sigma**2
    a_y = (sj2 + sk2) / (16 * sj2 * sk2)
    lin = (x - cj.x0) / (4 * sj2) - (x - ck.x0) / (4 * sk2)
    mu = lin / (2 * a_y)
    const = (
        -0.25 * math.log(4 * math.pi**2 * sj2 * sk2)
        - ((x - cj.x0) ** 2) / (4 * sj2)
        - ((x - ck.x0) ** 2) / (4 * sk2)
        + 1j * ((cj.p0 - ck.p0) * x / hbar + (cj.phase - ck.phase))
    )
    d = lin**2 / (4 * a_y) + const
    return a_y, mu, d


def _pair_integral_hermite(
    cj: GaussianComponent,
    ck: GaussianComponent,
    xs: np.ndarray,
    ps: np.ndarray,
    hbar: float,
    nodes: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Gauss-Hermite evaluation of the same pair integral.

    ``nodes`` are the Hermite nodes and weights ``(t, w)``, the same for
    every pair, so the caller computes them once per field.

    The Gaussian factor is absorbed into the Hermite weight
    analytically (evaluating it and dividing back out would overflow),
    so only the residual tone is sampled at the nodes.  Accurate while
    the tone completes few cycles across the Gaussian; for fast tones
    prefer the uniform rules.

    The nodes sit at ``y = mu(x) + t / sqrt(A)``, so the tone
    ``exp(i y omega(p))`` factors into ``exp(i mu(x) omega(p))`` times
    ``S(p) = sum_t w_t exp(i t omega(p) / sqrt(A))``, which does not
    depend on ``x``.  The node sum is therefore taken once per momentum,
    and a pair costs ``O(order * np + nx * np)`` rather than
    ``O(nx * order * np)``.  ``S`` is summed at the nodes, not replaced
    by its limit, so the route stays an independent quadrature.
    """
    t, w = nodes
    a_y, mu, d = _pair_quadratic(cj, ck, xs, hbar)
    qbar = 0.5 * (cj.p0 + ck.p0)
    omega = (ps - qbar) / hbar  # (np,)
    node_sum = np.exp(1j * np.outer(omega, t) / math.sqrt(a_y)) @ w  # (np,)
    amp = np.exp(d) / math.sqrt(a_y)  # (nx,)
    return amp[:, None] * np.exp(1j * np.outer(mu, omega)) * node_sum[None, :]


def _mirror(c: GaussianComponent) -> GaussianComponent:
    """Parity image ``phi(-x)`` of a packet."""
    return dataclasses.replace(c, x0=-c.x0, p0=-c.p0)


def _sum_pairs(
    state: CatSpec | MixedSpec,
    hbar: float,
    pair_fn,
) -> np.ndarray:
    """``sum_b P_b N_b^2 sum_jk c_j c_k* I_jk / (2 pi hbar)`` using the
    hermiticity of the pair integrals to evaluate only ``j <= k``."""
    total = None
    for prob, cat in _branches(state):
        acc = None
        n = len(cat.components)
        for j in range(n):
            for k in range(j, n):
                weight = cat.coefficients[j] * np.conj(cat.coefficients[k])
                term = weight * pair_fn(cat.components[j], cat.components[k])
                term = term.real if j == k else 2 * term.real
                acc = term if acc is None else acc + term
        scaled = prob * cat.norm**2 * acc
        total = scaled if total is None else total + scaled
    return total / (2 * math.pi * hbar)


def wigner_transform(
    state: CatSpec | MixedSpec,
    grid: PhaseSpaceGrid,
    units: UnitSystem = UnitSystem(),
    quadrature: Quadrature = Quadrature(),
) -> WignerField:
    """Wigner function by numerical quadrature of the defining integral.

    Parameters
    ----------
    state : CatSpec or MixedSpec
        Superposition (or mixture of superpositions) of Gaussian packets.
    grid : PhaseSpaceGrid
        Output sample locations.
    units : UnitSystem
    quadrature : Quadrature
        ``trapezoid`` (default) and ``simpson`` auto-select their node
        grids from the integrand bandwidth; ``gauss-hermite`` uses
        ``quadrature.order`` nodes.

    Returns
    -------
    WignerField
    """
    xs, ps = grid.xs(), grid.ps()
    if quadrature.rule == "gauss-hermite":
        # numpy's hermgauss returns NaN weights at orders 384 and 400
        from scipy.special import roots_hermite

        nodes = roots_hermite(quadrature.order)
        pair_fn = lambda cj, ck: _pair_integral_hermite(cj, ck, xs, ps, units.hbar, nodes)
    else:
        pair_fn = lambda cj, ck: _pair_integral_uniform(cj, ck, xs, ps, units, quadrature.rule)
    return WignerField(grid=grid, values=_sum_pairs(state, units.hbar, pair_fn))


def wigner_closed_eval(
    state: CatSpec | MixedSpec,
    x,
    p,
    units: UnitSystem = UnitSystem(),
) -> np.ndarray:
    """Closed-form Wigner function at arbitrary points.

    ``x`` and ``p`` broadcast against each other; the result has the
    broadcast shape.
    """
    hbar = units.hbar
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    x2, p2 = 2 * x, 2 * p
    phase = math.log(2) - 2j * x * p / hbar
    pair_fn = lambda cj, ck: np.exp(_pair_exponent(ck, _mirror(cj), x2, p2, hbar) + phase)
    return _sum_pairs(state, hbar, pair_fn)


def wigner_closed(
    state: CatSpec | MixedSpec,
    grid: PhaseSpaceGrid,
    units: UnitSystem = UnitSystem(),
) -> WignerField:
    """Wigner function from the exact per-pair Gaussian integrals."""
    values = wigner_closed_eval(state, grid.xs()[:, None], grid.ps()[None, :], units)
    return WignerField(grid=grid, values=values)


def check_coverage(
    state: CatSpec | MixedSpec, grid: PhaseSpaceGrid, units: UnitSystem = UnitSystem()
) -> None:
    """Raise :class:`CoverageError` unless the window contains every
    component center with a margin of 6.1 packet widths along both axes."""
    for _, cat in _branches(state):
        for comp in cat.components:
            x_half = _COVERAGE_SIGMAS * comp.sigma
            x_lo, x_hi = comp.x0 - x_half, comp.x0 + x_half
            p_half = _COVERAGE_SIGMAS * units.hbar / (2 * comp.sigma)
            p_lo, p_hi = comp.p0 - p_half, comp.p0 + p_half
            if x_lo < grid.x_min or x_hi > grid.x_max:
                raise CoverageError(
                    f"x window [{grid.x_min}, {grid.x_max}] misses component support "
                    f"[{x_lo:.3f}, {x_hi:.3f}]"
                )
            if p_lo < grid.p_min or p_hi > grid.p_max:
                raise CoverageError(
                    f"p window [{grid.p_min}, {grid.p_max}] misses component support "
                    f"[{p_lo:.3f}, {p_hi:.3f}]"
                )
