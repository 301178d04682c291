"""Explicit closed forms of the reference cats, kept as independent oracles.

Each is written out by hand for one equal-width, zero-phase state, so
it shares no code with the general packet-pair routes in
:mod:`subplanck.wigner` that the tests check against it.  The direct
Gauss-Hermite node sum is kept here as the reference for the factored
sum the package evaluates, and the loop scans of the zero-lattice
detector and of the orthogonality search's dip picker as the references
for their array masks.  The FFT autocorrelation of a sampled field is the
independent route to the displacement overlap.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft2, next_fast_len, rfft2
from scipy.optimize import minimize_scalar
from scipy.special import roots_hermite

from subplanck.core import UnitSystem, WignerField
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


def crossings_loop(coords: np.ndarray, vals: np.ndarray) -> list[tuple[float, float]]:
    """Brackets ``(a, b)`` around strict sign changes, one node at a time."""
    out = []
    s = np.sign(vals)
    for i in range(len(vals) - 1):
        if s[i] != 0 and s[i + 1] != 0 and s[i] != s[i + 1]:
            out.append((float(coords[i]), float(coords[i + 1])))
        elif s[i] != 0 and s[i + 1] == 0:
            # exact zero on a node: bracket around it
            j = i + 2
            while j < len(vals) and s[j] == 0:
                j += 1
            if j < len(vals) and s[j] != s[i]:
                out.append((float(coords[i]), float(coords[j])))
    return out


def touches_loop(coords: np.ndarray, vals: np.ndarray, threshold: float) -> list[float]:
    """Tangential near-zero minima, one node at a time, with the
    prominence found by scanning outwards from each candidate."""
    out = []
    av = np.abs(vals)
    scale = float(av.max())
    if scale == 0:
        return out
    deep = threshold * scale
    prominent = 10 * deep
    for i in range(1, len(vals) - 1):
        if not (av[i] < deep and av[i] < av[i - 1] and av[i] <= av[i + 1]):
            continue
        if vals[i - 1] * vals[i + 1] < 0:
            continue  # that's a crossing, not a touch
        left_ok = any(av[j] >= prominent for j in range(i - 1, -1, -1))
        right_ok = any(av[j] >= prominent for j in range(i + 1, len(vals)))
        if left_ok and right_ok:
            out.append(float(coords[i]))
    return out


def first_dip_loop(fn, bracket: float, n_scan: int, prominence: float = 1e-6):
    """First prominent interior minimum of ``fn`` on ``(0, bracket]``,
    found node by node and polished by bounded Brent."""
    ts = np.linspace(0.0, bracket, n_scan)
    vals = np.asarray(fn(ts), dtype=float)
    for i in range(1, n_scan - 1):
        if vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]:
            left_max = vals[: i + 1].max()
            right_max = vals[i:].max() if i < n_scan - 1 else vals[i]
            if min(left_max, right_max) - vals[i] < prominence:
                continue
            res = minimize_scalar(
                fn,
                bounds=(ts[max(i - 1, 0)], ts[min(i + 1, n_scan - 1)]),
                method="bounded",
                options={"xatol": 1e-12},
            )
            return float(res.x), float(res.fun)
    return None


@dataclass(frozen=True)
class OverlapMap:
    """Overlap on a lag grid, from FFT autocorrelation of a field.

    Attributes
    ----------
    delta1s : numpy.ndarray
        Momentum-boost lags (from the field's ``p`` step).
    delta2s : numpy.ndarray
        Position-shift lags (from the field's ``x`` step).
    values : numpy.ndarray
        ``values[i, j] = O(delta1s[j], delta2s[i])`` — first index is
        the position lag, matching the field layout.
    """

    delta1s: np.ndarray
    delta2s: np.ndarray
    values: np.ndarray

    def at_origin(self) -> float:
        i = int(np.argmin(np.abs(self.delta2s)))
        j = int(np.argmin(np.abs(self.delta1s)))
        return float(self.values[i, j])


def overlap_map(field: WignerField) -> OverlapMap:
    """All-lag displacement overlap of a sampled field by FFT.

    Computes the autocorrelation ``sum W[a,b] W[a+i, b+j] dx dp`` with
    zero padding (linear, not circular, correlation), giving the
    overlap on every lag of the field's own grid in one pass: an
    independent cross-check of :func:`subplanck.metrology.overlap_closed`.
    """
    v = field.values
    nx, npts = v.shape
    fx = next_fast_len(2 * nx - 1)
    fp = next_fast_len(2 * npts - 1)
    spec = rfft2(v, s=(fx, fp))
    corr = irfft2(np.abs(spec) ** 2, s=(fx, fp))
    # roll so lags run from -(n-1) .. (n-1)
    corr = np.roll(corr, (nx - 1, npts - 1), axis=(0, 1))[: 2 * nx - 1, : 2 * npts - 1]
    d2 = field.grid.dx * np.arange(-(nx - 1), nx)
    d1 = field.grid.dp * np.arange(-(npts - 1), npts)
    return OverlapMap(delta1s=d1, delta2s=d2, values=corr * field.grid.dx * field.grid.dp)
