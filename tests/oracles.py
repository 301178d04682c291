"""Explicit closed forms of the reference cats, kept as independent oracles.

Each is written out by hand for one equal-width, zero-phase state, so
it shares no code with the general packet-pair routes in
:mod:`subplanck.wigner` that the tests check against it.  The direct
Gauss-Hermite node sum is kept here as the reference for the factored
sum the package evaluates.
"""

import math

import numpy as np
from scipy.special import roots_hermite

from subplanck.core import UnitSystem
from subplanck.states import GaussianComponent
from subplanck.wigner import _pair_quadratic


def wc1_closed(x, p, x0: float, sigma: float, units: UnitSystem = UnitSystem()):
    """Wigner function of the position cat (packets at ``(+-x0, 0)``).

    Two lobes at ``x = +-x0`` under a momentum Gaussian, plus an
    oscillating interference band along ``x = 0`` with full amplitude 2
    and fringe ``cos(2 p x0 / hbar)``.
    """
    hbar = units.hbar
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    n1sq = 1.0 / (2 * (1 + math.exp(-(x0**2) / (2 * sigma**2))))
    env = np.exp(-2 * sigma**2 * p**2 / hbar**2)
    return (n1sq / (math.pi * hbar)) * env * (
        np.exp(-((x - x0) ** 2) / (2 * sigma**2))
        + np.exp(-((x + x0) ** 2) / (2 * sigma**2))
        + 2 * np.exp(-(x**2) / (2 * sigma**2)) * np.cos(2 * p * x0 / hbar)
    )


def wc2_closed(x, p, p0: float, sigma: float, units: UnitSystem = UnitSystem()):
    """Wigner function of the momentum cat (packets at ``(0, +-p0)``)."""
    hbar = units.hbar
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    n2sq = 1.0 / (2 * (1 + math.exp(-2 * p0**2 * sigma**2 / hbar**2)))
    env = np.exp(-(x**2) / (2 * sigma**2))
    return (n2sq / (math.pi * hbar)) * env * (
        np.exp(-2 * sigma**2 * (p - p0) ** 2 / hbar**2)
        + np.exp(-2 * sigma**2 * (p + p0) ** 2 / hbar**2)
        + 2 * np.exp(-2 * sigma**2 * p**2 / hbar**2) * np.cos(2 * p0 * x / hbar)
    )


def wrho_closed(x, p, x0: float, p0: float, sigma: float, units: UnitSystem = UnitSystem()):
    """Wigner function of the even mixture of position and momentum cats."""
    return 0.5 * (wc1_closed(x, p, x0, sigma, units) + wc2_closed(x, p, p0, sigma, units))


def char_cat_position(Q, P, x0: float, sigma: float, units: UnitSystem = UnitSystem()):
    """Characteristic function of the position cat, explicit form.

    Lobes map to an oscillating term at the origin and the interference
    band maps to displaced Gaussians at ``Q = +-2 x0`` — the mirror
    image of the roles they play in the Wigner function.
    """
    hbar = units.hbar
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    n1sq = 1.0 / (2 * (1 + math.exp(-(x0**2) / (2 * sigma**2))))
    return n1sq * np.exp(-(sigma**2) * P**2 / (2 * hbar**2)) * (
        2 * np.cos(x0 * P / hbar) * np.exp(-(Q**2) / (8 * sigma**2))
        + np.exp(-((Q - 2 * x0) ** 2) / (8 * sigma**2))
        + np.exp(-((Q + 2 * x0) ** 2) / (8 * sigma**2))
    )


def char_cat_momentum(Q, P, p0: float, sigma: float, units: UnitSystem = UnitSystem()):
    """Characteristic function of the momentum cat, explicit form."""
    hbar = units.hbar
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    n2sq = 1.0 / (2 * (1 + math.exp(-2 * p0**2 * sigma**2 / hbar**2)))
    return n2sq * np.exp(-(Q**2) / (8 * sigma**2)) * (
        2 * np.cos(p0 * Q / hbar) * np.exp(-(sigma**2) * P**2 / (2 * hbar**2))
        + np.exp(-(sigma**2) * (P - 2 * p0) ** 2 / (2 * hbar**2))
        + np.exp(-(sigma**2) * (P + 2 * p0) ** 2 / (2 * hbar**2))
    )


def pair_integral_hermite_direct(
    cj: GaussianComponent,
    ck: GaussianComponent,
    xs: np.ndarray,
    ps: np.ndarray,
    hbar: float,
    order: int,
) -> np.ndarray:
    """Gauss-Hermite pair integral as the plain node sum.

    Samples the tone ``exp(i y omega(p))`` at every node
    ``y = mu(x) + t / sqrt(A)`` for every ``(x, p)``, an
    ``(nx, order, np)`` array, and contracts it with the weights.
    """
    t, w = roots_hermite(order)
    a_y, mu, d = _pair_quadratic(cj, ck, xs, hbar)
    ys = mu[:, None] + t[None, :] / math.sqrt(a_y)  # (nx, order)
    qbar = 0.5 * (cj.p0 + ck.p0)
    omega = (ps - qbar) / hbar  # (np,)
    phase = np.exp(1j * ys[:, :, None] * omega[None, None, :])  # (nx, order, np)
    amp = np.exp(d) / math.sqrt(a_y)  # (nx,)
    return amp[:, None] * np.einsum("t,xtp->xp", w, phase)
