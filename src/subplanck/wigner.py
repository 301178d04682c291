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

The exact term of the packet pair ``(j, k)``, the overlap
``2 <phi_k| D(2x, 2p) |phi_j(-.)>`` times Royer's parity phase
``exp(-2ixp/hbar)`` (Phys. Rev. A 15, 449 (1977)), is separable about the
pair's centre ``(xc, pc)``.  With ``u = x - xc``, ``v = p - pc`` and
``s^2 = sigma_j^2 + sigma_k^2`` it is ``w exp(-u^2/s^2 + i alpha u)
exp(-beta v^2 + i gamma v) exp(i c x p)``, where ``beta = 4 sigma_j^2
sigma_k^2 / (s^2 hbar^2)``, ``c = 2 (sigma_k^2 - sigma_j^2) / (s^2 hbar)``
is 0 for equal widths, and ``alpha``, ``gamma`` and the phase of ``w``
take up the rest of ``c u v``.  Each factor peaks at 1 and ``|w|`` is at
most twice the pair's weight, so none overflows.
"""

from __future__ import annotations

import functools
import itertools
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
    _Packets,
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


@functools.lru_cache
def _hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for ``exp(-t^2)`` by Golub and Welsch,
    Math. Comp. 23, 221 (1969), from ``eigh`` of the Jacobi matrix (numpy's
    ``hermgauss`` has NaN weights at order 384); cached, as ``eigh`` takes
    tens of milliseconds at cat-scale orders."""
    off = np.sqrt(np.arange(1, order) / 2)
    t, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = math.sqrt(math.pi) * v[0] ** 2
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _pair_integral_hermite(
    cj: GaussianComponent,
    ck: GaussianComponent,
    xs: np.ndarray,
    ps: np.ndarray,
    hbar: float,
    nodes: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Gauss-Hermite evaluation of the same pair integral.

    ``nodes`` are the Hermite nodes and weights ``(t, w)``.

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


def _pairs(cat: CatSpec):
    """``(c_j c_k*, multiplicity, phi_j, phi_k)`` over the pairs ``j <= k``;
    as ``I_kj = I_jk*``, an off-diagonal pair counts twice in the real part."""
    for j, k in itertools.combinations_with_replacement(range(len(cat.components)), 2):
        weight = cat.coefficients[j] * np.conj(cat.coefficients[k])
        yield weight, 1 if j == k else 2, cat.components[j], cat.components[k]


def _sum_pairs(state: CatSpec | MixedSpec, hbar: float, pair_fn) -> np.ndarray:
    """``sum_b P_b N_b^2 sum_jk c_j c_k* I_jk / (2 pi hbar)`` using the
    hermiticity of the pair integrals to evaluate only ``j <= k``."""
    total = None
    for prob, cat in _branches(state):
        acc = None
        for weight, mult, cj, ck in _pairs(cat):
            term = mult * (weight * pair_fn(cj, ck)).real
            acc = term if acc is None else acc + term
        scaled = prob * cat.norm**2 * acc
        total = scaled if total is None else total + scaled
    return total / (2 * math.pi * hbar)


@functools.lru_cache(maxsize=16)
def _pair_table(state: CatSpec | MixedSpec, hbar: float):
    """The separable pair terms (module docstring) of every branch, with
    the chirps grouped; cached, as Brent steps evaluate one state often."""
    ws, js, ks = zip(*((prob * cat.norm**2 * mult * weight, cj, ck)
                       for prob, cat in _branches(state) for weight, mult, cj, ck in _pairs(cat)))
    j, k = _Packets.of(js, ws), _Packets.of(ks, ws)  # j.coef: the pair weight
    s2 = j.sigma**2 + k.sigma**2
    xc, pc = (j.x0 + k.x0) / 2, (j.p0 + k.p0) / 2
    c = 2 * (k.sigma**2 - j.sigma**2) / (s2 * hbar)
    alpha, gamma = (j.p0 - k.p0) / hbar - c * pc, (k.x0 - j.x0) / hbar - c * xc
    w = j.coef * np.sqrt(8 * j.sigma * k.sigma / s2) / (2 * math.pi * hbar)
    w = w * np.exp(1j * (j.phase - k.phase + alpha * xc))
    groups = tuple((cg, c == cg) for cg in np.unique(c))
    beta = 4 * (j.sigma * k.sigma) ** 2 / (s2 * hbar**2)
    return xc, pc, 1 / s2, beta, 1j * alpha, 1j * gamma, w, groups


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
        nodes = _hermite_nodes(quadrature.order)
        pair_fn = lambda cj, ck: _pair_integral_hermite(cj, ck, xs, ps, units.hbar, nodes)
    else:
        pair_fn = lambda cj, ck: _pair_integral_uniform(cj, ck, xs, ps, units, quadrature.rule)
    return WignerField(grid=grid, values=_sum_pairs(state, units.hbar, pair_fn))


def wigner_closed_eval(
    state: CatSpec | MixedSpec, x, p, units: UnitSystem = UnitSystem()
) -> np.ndarray:
    """Closed-form Wigner function at arbitrary points, the pair sums of
    :func:`wigner_closed`.  ``x`` and ``p`` broadcast against each other;
    the result has the broadcast shape."""
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    xc, pc, inv_s2, beta, i_alpha, i_gamma, w, groups = _pair_table(state, units.hbar)
    u, v = x[..., None] - xc, p[..., None] - pc
    a, b = np.exp((i_alpha - inv_s2 * u) * u), w * np.exp((i_gamma - beta * v) * v)
    values = None
    for c, pairs in groups:
        ag, bg = a[..., pairs], b[..., pairs]
        if c:
            term = (np.exp(1j * c * x * p) * np.einsum("...k,...k->...", ag, bg)).real
        else:  # Re(a b) = a.real b.real - a.imag b.imag
            term = np.einsum("...k,...k->...", np.concatenate([ag.real, -ag.imag], axis=-1),
                             np.concatenate([bg.real, bg.imag], axis=-1))
        values = term if values is None else values + term
    return values


def wigner_closed(
    state: CatSpec | MixedSpec, grid: PhaseSpaceGrid, units: UnitSystem = UnitSystem()
) -> WignerField:
    """Wigner function from the exact per-pair Gaussian integrals.

    The pair terms factor as ``a(x) b(p) exp(i c x p)`` (module docstring),
    so ``W = Re sum_c exp(i c x p) * (A_c @ B_c)`` over the pairs grouped by
    ``c``: column ``k`` of ``A_c`` holds pair ``k``'s ``a`` on the x nodes,
    row ``k`` of ``B_c`` its ``b`` on the p nodes.  Each factor is taken
    relative to the peak of its own real exponent, the peaks go into the
    weights, and equal widths need one real product and no chirp.  The
    products run in numpy's loops, not BLAS, whose threads change rounding.
    """
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
