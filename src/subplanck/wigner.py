"""Wigner functions: defining-integral oracle and closed forms.

Conventions
-----------
Wigner transform (normalized to ``iint W dx dp = 1``):

    W(x, p) = (2 pi hbar)^-1  int <x - y/2| rho |x + y/2> exp(i p y / hbar) dy

Characteristic function (Fourier pairing ``x <-> P``, ``p <-> Q``):

    Wt(Q, P) = iint exp(-i (x P + p Q) / hbar) W(x, p) dx dp
             = int psi(x - Q/2) psi*(x + Q/2) exp(-i x P / hbar) dx

so ``Wt(0, 0) = 1`` for a normalized state.

Two independent evaluation routes are provided for superpositions of
Gaussian packets: :func:`wigner_transform` integrates the defining
integral numerically (quadrature on the evaluated wave packets), while
:func:`wigner_closed` sums the exact per-pair Gaussian integrals.
Their agreement is a strong end-to-end check of both.
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
    FockVector,
    GaussianComponent,
    MixedSpec,
    _branches,
    _pair_exponent,
    psi_eval,
)

_TAIL_SIGMAS = 8.5  # Gaussian tails are below 3e-16 beyond this many widths


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


def _oracle_sum(
    state: CatSpec | MixedSpec,
    xs: np.ndarray,
    ps: np.ndarray,
    units: UnitSystem,
    quadrature: Quadrature,
) -> np.ndarray:
    """Quadrature-route Wigner values on the outer grid ``xs x ps``."""
    if quadrature.rule == "gauss-hermite":
        # numpy's hermgauss returns NaN weights at orders 384 and 400
        from scipy.special import roots_hermite

        nodes = roots_hermite(quadrature.order)
        pair_fn = lambda cj, ck: _pair_integral_hermite(cj, ck, xs, ps, units.hbar, nodes)
    else:
        pair_fn = lambda cj, ck: _pair_integral_uniform(cj, ck, xs, ps, units, quadrature.rule)
    return _sum_pairs(state, units.hbar, pair_fn)


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
    values = _oracle_sum(state, grid.xs(), grid.ps(), units, quadrature)
    return WignerField(grid=grid, values=values)


def wigner_point(
    state: CatSpec | MixedSpec,
    x: float,
    p: float,
    units: UnitSystem = UnitSystem(),
    quadrature: Quadrature = Quadrature(),
) -> float:
    """Single-point version of :func:`wigner_transform`."""
    xs, ps = np.array([float(x)]), np.array([float(p)])
    return float(_oracle_sum(state, xs, ps, units, quadrature)[0, 0])


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


def wigner_closed_point(
    state: CatSpec | MixedSpec,
    x: float,
    p: float,
    units: UnitSystem = UnitSystem(),
) -> float:
    """Single-point version of :func:`wigner_closed`."""
    return float(wigner_closed_eval(state, float(x), float(p), units))


def characteristic_of_cat(
    state: CatSpec | MixedSpec,
    Q,
    P,
    units: UnitSystem = UnitSystem(),
) -> np.ndarray:
    """Characteristic function ``Wt(Q, P)`` of a packet superposition.

    Evaluates ``int psi(x - Q/2) psi*(x + Q/2) exp(-i x P / hbar) dx``
    in closed form per component pair.  ``Q`` and ``P`` broadcast
    against each other; the result is complex with ``Wt(0,0) = 1``.
    """
    hbar = units.hbar
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    out = np.zeros(np.broadcast(Q, P).shape, dtype=complex)
    for prob, cat in _branches(state):
        for c_j, cj in zip(cat.coefficients, cat.components):
            for c_k, ck in zip(cat.coefficients, cat.components):
                weight = prob * cat.norm**2 * c_j * c_k.conjugate()
                out += weight * np.exp(_pair_exponent(ck, cj, Q, -P, hbar))
    return np.exp(0.5j * Q * P / hbar) * out


def wigner_of_fock(
    state: FockVector,
    grid: PhaseSpaceGrid,
    sigma_ref: float,
    units: UnitSystem = UnitSystem(),
    max_cutoff: int = 128,
) -> WignerField:
    """Wigner function of a number-basis state.

    The wave function is synthesized on a chord grid by the oscillator
    eigenfunction recursion (reference width ``sigma_ref``), then the
    defining integral is evaluated the same way as for packet states.

    Parameters
    ----------
    state : FockVector
    grid : PhaseSpaceGrid
    sigma_ref : float
        Ground-state position width of the oscillator basis.
    units : UnitSystem
    max_cutoff : int
        Guard against accidentally huge bases.
    """
    if state.cutoff > max_cutoff:
        raise ValueError(f"cutoff {state.cutoff} exceeds limit {max_cutoff}")
    if sigma_ref <= 0:
        raise ValueError(f"sigma_ref must be positive, got {sigma_ref}")
    hbar = units.hbar
    nmax = state.cutoff
    scale = math.sqrt(2 * nmax + 1) + 11.0
    x_r = sigma_ref * math.sqrt(2) * scale
    p_r = hbar * scale / (sigma_ref * math.sqrt(2))

    xs, ps = grid.xs(), grid.ps()
    p_absmax = float(np.max(np.abs(ps)))
    h = 2 * math.pi * hbar / (p_absmax + p_r)
    ny = max(int(math.ceil(4 * x_r / h)) + 1, 16)
    ys = np.linspace(-2 * x_r, 2 * x_r, ny)

    def psi_on(u: np.ndarray) -> np.ndarray:
        xi = u / (sigma_ref * math.sqrt(2))
        prev = np.zeros_like(u)
        cur = (2 * math.pi * sigma_ref**2) ** -0.25 * np.exp(-(xi**2) / 2)
        out = state.amplitudes[0] * cur
        for n in range(nmax):
            prev, cur = cur, xi * math.sqrt(2 / (n + 1)) * cur - math.sqrt(n / (n + 1)) * prev
            out = out + state.amplitudes[n + 1] * cur
        return out

    kern = psi_on(xs[:, None] - ys[None, :] / 2) * np.conj(psi_on(xs[:, None] + ys[None, :] / 2))
    w = _uniform_weights("trapezoid", ny, ys[1] - ys[0])
    tone = w[:, None] * np.exp(1j * np.outer(ys, ps) / hbar)
    values = (kern @ tone).real / (2 * math.pi * hbar)
    return WignerField(grid=grid, values=values)


def check_coverage(
    state: CatSpec | MixedSpec,
    grid: PhaseSpaceGrid,
    units: UnitSystem = UnitSystem(),
    n_sigma: float = 6.1,
) -> None:
    """Raise :class:`CoverageError` unless the window contains every
    component center with an ``n_sigma`` margin along both axes."""
    for _, cat in _branches(state):
        for comp in cat.components:
            x_lo, x_hi = comp.x0 - n_sigma * comp.sigma, comp.x0 + n_sigma * comp.sigma
            p_half = n_sigma * units.hbar / (2 * comp.sigma)
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


def compare_closed_vs_oracle(
    state: CatSpec | MixedSpec,
    grid: PhaseSpaceGrid,
    units: UnitSystem = UnitSystem(),
    quadrature: Quadrature = Quadrature(),
) -> dict:
    """Compare the closed-form and quadrature routes on a grid.

    Returns
    -------
    dict
        ``max_abs_diff``, ``l2_diff`` (integral-weighted), location of
        the worst point, and ``max_abs_value`` of the closed form for
        scale.
    """
    closed = wigner_closed(state, grid, units)
    oracle = wigner_transform(state, grid, units, quadrature)
    diff = np.abs(closed.values - oracle.values)
    i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return {
        "max_abs_diff": float(diff.max()),
        "l2_diff": float(math.sqrt(float((diff**2).sum()) * grid.dx * grid.dp)),
        "x_at_max": float(grid.xs()[i]),
        "p_at_max": float(grid.ps()[j]),
        "max_abs_value": float(np.abs(closed.values).max()),
    }
