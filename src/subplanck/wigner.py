"""Wigner functions: defining-integral oracle and closed forms.

Wigner transform (normalized to ``iint W dx dp = 1``):

    W(x, p) = (2 pi hbar)^-1  int <x - y/2| rho |x + y/2> exp(i p y / hbar) dy

Two independent evaluation routes are provided for superpositions of
Gaussian packets: :func:`wigner_transform` integrates the defining
integral numerically (a factored node sum of each packet pair's chord
product, for every quadrature rule), while
:func:`wigner_closed` sums the exact per-pair Gaussian integrals.
Their agreement is a strong end-to-end check of both.  The
characteristic function and the number-basis Wigner route, which only
the tests use, live with the test oracles.

The exact term of the packet pair ``(j, k)`` is the overlap
``2 <phi_k| D(2x, 2p) |phi_j(-.)>`` times Royer's parity phase
``exp(-2ixp/hbar)`` (Phys. Rev. A 15, 449 (1977)), read from the pair form
:func:`~subplanck.states._pair_form`.  About the pair's centre
``(xc, pc)`` it is ``w a(x - xc) b(p - pc) exp(i c x p)``: the Gaussian
factors ``a`` and ``b`` peak at 1 and ``|w|`` is at most twice the pair's
weight, so none overflows, and the chirp ``c`` is 0 for equal widths.
A pair's quadrature has the same form (:func:`_pair_integral`), so both
routes end in :func:`_pair_sum`.  Gauss-Hermite raises
:class:`ResolutionError` for tones beyond its order's reach, naming the
largest tone of all pairs.
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
    ResolutionError,
    UnitSystem,
    WignerField,
    _uniform_weights,
)
from subplanck.states import (
    CatSpec,
    GaussianComponent,
    MixedSpec,
    _branches,
    _pair_form,
    _Packets,
)

_TAIL_SIGMAS = 8.5  # Gaussian tails are below 3e-16 beyond this many widths
_COVERAGE_SIGMAS = 6.1  # margin check_coverage demands around each packet


def _pair_quadratic(
    cj: GaussianComponent, ck: GaussianComponent, x: np.ndarray, hbar: float
) -> tuple[float, float, float, np.ndarray]:
    """Exact quadratic form of the chord product in ``y``.

    Writes ``phi_j(x-y/2) phi_k*(x+y/2) = exp(-A (y-mu)^2 + D - i qbar y/hbar)``
    with ``qbar = (p0_j + p0_k)/2`` and the centre ``mu = m x + m0``;
    returns ``(A, m, m0, D(x))`` where ``D`` is complex.  ``1 / sqrt(2 A)``
    is the Gaussian width in ``y`` and ``mu`` its centre, which place the
    quadrature nodes.  Equal widths give the slope ``m = 0`` exactly.
    """
    sj2, sk2 = cj.sigma**2, ck.sigma**2
    a_y = (sj2 + sk2) / (16 * sj2 * sk2)
    m = (1 / (4 * sj2) - 1 / (4 * sk2)) / (2 * a_y)
    m0 = (ck.x0 / (4 * sk2) - cj.x0 / (4 * sj2)) / (2 * a_y)
    const = (
        -0.25 * math.log(4 * math.pi**2 * sj2 * sk2)
        - ((x - cj.x0) ** 2) / (4 * sj2)
        - ((x - ck.x0) ** 2) / (4 * sk2)
        + 1j * ((cj.p0 - ck.p0) * x / hbar + (cj.phase - ck.phase))
    )
    return a_y, m, m0, a_y * (m * x + m0) ** 2 + const


@functools.lru_cache
def _hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Gauss-Hermite nodes and weights for ``exp(-t^2)`` by Golub and Welsch,
    Math. Comp. 23, 221 (1969), from ``eigh`` of the Jacobi matrix (numpy's
    ``hermgauss`` has NaN weights at order 384), and the rule's reach: the
    first tone ``k`` on a grid of step 1/8 where ``|sum_n w_n exp(i k t_n)
    - sqrt(pi) exp(-k^2/4)|`` exceeds 1e-13 (at 1e-14 the rounding of the
    nodes trips early).  Cached, as ``eigh`` takes tens of milliseconds at
    cat-scale orders."""
    off = np.sqrt(np.arange(1, order) / 2)
    t, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = math.sqrt(math.pi) * v[0] ** 2
    t.flags.writeable = w.flags.writeable = False
    ks = np.arange(0.0, 3 * math.sqrt(2 * order), 0.125)
    sums = np.einsum("kn,n->k", np.exp(1j * np.outer(ks, t)), w)
    return t, w, float(ks[np.argmax(np.abs(sums - math.sqrt(math.pi) * np.exp(-ks**2 / 4)) > 1e-13)])


def _pair_tone(cj: GaussianComponent, ck: GaussianComponent, ps: np.ndarray, hbar: float) -> float:
    """The largest tone ``k = omega_max / sqrt(A)`` of a pair's node sum over
    the momenta ``ps``: ``omega = (p - qbar) / hbar`` in units of the
    chord Gaussian's ``A`` (:func:`_pair_quadratic`)."""
    sj2, sk2 = cj.sigma**2, ck.sigma**2
    a_y = (sj2 + sk2) / (16 * sj2 * sk2)
    return float(np.max(np.abs(ps - 0.5 * (cj.p0 + ck.p0)))) / hbar / math.sqrt(a_y)


def _check_reach(order: int, k: float) -> None:
    """Raise :class:`ResolutionError` if the tone ``k`` lies beyond the
    reach of Gauss-Hermite ``order``."""
    reach = _hermite_nodes(order)[2]
    if k > reach:
        raise ResolutionError(f"a packet pair needs tones up to k = {k:.4g}, above the reach {reach} "
                              f"of Gauss-Hermite order {order}; raise the order or narrow the p window")


def _rule_nodes(
    quadrature: Quadrature, a_y: float, omega_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``t`` and weights ``w`` with ``sum_n w_n f(t_n)`` close to
    ``int exp(-A t^2) f(t) dt`` for tones ``f`` up to angular frequency
    ``omega_max``.

    Gauss-Hermite scales its ``quadrature.order`` nodes to the width; its
    callers hold the pair's tone to the rule's reach (:func:`_pair_tone`,
    :func:`_check_reach`).  The uniform rules span the Gaussian to its
    tail, ``+-8.5`` widths ``s = 1/sqrt(2A)``, at a step ``h = 2 pi /
    (omega_max + 8.5/s)`` that keeps the aliasing error at the level of
    the tail itself, and fold ``exp(-A t^2)`` into the weights.
    """
    if quadrature.rule == "gauss-hermite":
        t, w, _ = _hermite_nodes(quadrature.order)
        root = math.sqrt(a_y)
        return t / root, w / root
    s = 1 / math.sqrt(2 * a_y)
    half = _TAIL_SIGMAS * s
    h = 2 * math.pi / (omega_max + _TAIL_SIGMAS / s)
    if quadrature.rule == "simpson":
        # Composite Simpson mixes trapezoid sums at step h and 2h, so the
        # anti-aliasing step criterion must hold for the doubled step too.
        h /= 2
    n = max(int(math.ceil(2 * half / h)) + 1, 16)
    if quadrature.rule == "simpson" and n % 2 == 0:
        n += 1
    t = np.linspace(-half, half, n)
    return t, _uniform_weights(quadrature.rule, n, t[1] - t[0]) * np.exp(-a_y * t**2)


def _pair_integral(
    cj: GaussianComponent,
    ck: GaussianComponent,
    xs: np.ndarray,
    ps: np.ndarray,
    hbar: float,
    quadrature: Quadrature,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Factors ``(a(x), b(p), c)`` of ``I_jk(x, p) = int phi_j(x - y/2)
    phi_k*(x + y/2) e^{i p y/hbar} dy = a b exp(i c x p)`` by the node sum
    of ``quadrature``.  By :func:`_pair_quadratic` the integrand is
    ``exp(-A t^2 + D(x) + i mu omega(p)) e^{i t omega(p)}``, ``t = y - mu``
    and ``omega = (p - qbar) / hbar``.  The Gaussian goes into the weights
    of :func:`_rule_nodes` (analytically for Gauss-Hermite, where it would
    overflow), so the node sum ``S(p) = sum_n w_n exp(i t_n omega)`` is
    taken once per momentum, in numpy's loops, not BLAS, whose threads
    change rounding; ``mu = m x + m0`` splits the tone into
    ``a = exp(D - i m qbar x/hbar)``, ``b = exp(i m0 omega) S`` and ``c = m/hbar``.
    Gauss-Hermite raises :class:`ResolutionError` for a tone beyond its reach.
    """
    if quadrature.rule == "gauss-hermite":
        _check_reach(quadrature.order, _pair_tone(cj, ck, ps, hbar))
    a_y, m, m0, d = _pair_quadratic(cj, ck, xs, hbar)
    qbar = 0.5 * (cj.p0 + ck.p0)
    omega = (ps - qbar) / hbar  # (np,)
    t, w = _rule_nodes(quadrature, a_y, float(np.max(np.abs(omega))))
    node_sum = np.einsum("pn,n->p", np.exp(1j * np.outer(omega, t)), w)  # (np,)
    return np.exp(d - 1j * m * qbar * xs / hbar), np.exp(1j * m0 * omega) * node_sum, m / hbar


def _pairs(state: CatSpec | MixedSpec):
    """``(P_b N_b^2 mult c_j c_k*, phi_j, phi_k)`` over the pairs ``j <= k``
    of every branch ``b``; as ``I_kj = I_jk*``, an off-diagonal pair counts
    twice (``mult = 2``) in the real part."""
    for prob, cat in _branches(state):
        for j, k in itertools.combinations_with_replacement(range(len(cat.components)), 2):
            weight = cat.coefficients[j] * np.conj(cat.coefficients[k])
            yield prob * cat.norm**2 * (1 if j == k else 2) * weight, cat.components[j], cat.components[k]


def _pair_sum(a: np.ndarray, b: np.ndarray, groups, x, p) -> np.ndarray:
    """``Re sum_k a_k b_k exp(i c_k x p)`` over the last axis of the pair
    factors, ``a`` broadcast like ``x`` and ``b`` like ``p``: one sum per
    group ``(c, pairs)`` of equal chirps, and for ``c = 0`` one real sum
    with no chirp.  The sums run in numpy's loops, not BLAS, whose threads
    change rounding."""
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


@functools.lru_cache(maxsize=16)
def _pair_table(state: CatSpec | MixedSpec, hbar: float):
    """The separable pair terms (module docstring) of every branch, with
    the chirps grouped; cached, as Brent steps evaluate one state often."""
    ws, js, ks = zip(*_pairs(state))
    j, k = _Packets.of(js, ws), _Packets.of(ks, ws)  # j.coef: the pair weight
    f = _pair_form(k, j._replace(x0=-j.x0, p0=-j.p0), hbar)
    c = 4 * (f.chirp - 0.5 / hbar)
    alpha, gamma = 2 * (f.phase_x - f.chirp * f.p), 2 * (f.phase_p - f.chirp * f.x)
    w = j.coef * 2 * np.exp(f.log_amp - 1j * f.chirp * f.x * f.p) / (2 * math.pi * hbar)
    groups = tuple((cg, c == cg) for cg in np.unique(c))
    return f.x / 2, f.p / 2, 4 * f.curv_x, 4 * f.curv_p, 1j * alpha, 1j * gamma, w, groups


def wigner_transform(
    state: CatSpec | MixedSpec,
    grid: PhaseSpaceGrid,
    units: UnitSystem = UnitSystem(),
    quadrature: Quadrature = Quadrature(),
) -> WignerField:
    """Wigner function by numerical quadrature of the defining integral.

    Each packet pair's integral is a node sum over the chord offset ``y``,
    factored so that it is taken once per momentum (:func:`_pair_integral`);
    the packets themselves are never sampled.

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
    ws, js, ks = zip(*_pairs(state))
    if quadrature.rule == "gauss-hermite":
        # one check over all pairs, before any node sum, so that the error
        # names the largest tone the window needs
        _check_reach(quadrature.order, max(_pair_tone(cj, ck, ps, units.hbar) for cj, ck in zip(js, ks)))
    a, b, c = zip(*(_pair_integral(cj, ck, xs, ps, units.hbar, quadrature) for cj, ck in zip(js, ks)))
    a, c = np.stack(a, axis=-1) * np.array(ws) / (2 * math.pi * units.hbar), np.array(c)
    groups = tuple((cg, c == cg) for cg in np.unique(c))
    values = _pair_sum(a[:, None], np.stack(b, axis=-1)[None], groups, xs[:, None], ps[None, :])
    return WignerField(grid=grid, values=values)


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
    return _pair_sum(a, b, groups, x, p)


def wigner_closed(
    state: CatSpec | MixedSpec, grid: PhaseSpaceGrid, units: UnitSystem = UnitSystem()
) -> WignerField:
    """Wigner function from the exact per-pair Gaussian integrals.

    The pair terms factor as ``a(x) b(p) exp(i c x p)`` (module docstring),
    so ``W = Re sum_c exp(i c x p) sum_k a_k(x) b_k(p)`` over the pairs
    grouped by ``c`` (:func:`_pair_sum`); equal widths need one real sum
    and no chirp.
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
