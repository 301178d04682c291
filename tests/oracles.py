"""Independent oracles and reference routes that only the tests call.

The explicit closed forms of the reference cats are each written out by
hand for one equal-width, zero-phase state, so they share no code with
the general packet-pair routes in :mod:`subplanck.wigner` that the tests
check against them.  The closed-form Wigner function of any packet state
is also kept here as one unfactored exponent per pair, the reference for
the separable factors the package contracts.  The direct Gauss-Hermite node sum is kept here as
the reference for the factored sum the package evaluates, scipy's
Nelder-Mead simplex as the reference for the Kerr angle polish, and the
loop scans of the zero-lattice detector and of the orthogonality
search's dip picker as the references for their array masks.  The FFT
autocorrelation of a sampled field is the independent route to the
displacement overlap.

The general routes below check the package from other directions: the
overlap of two single packets, the characteristic function of any packet
state, the Wigner function of a number-basis state, the bath-evolved
Wigner field with its fringe visibility (against the closed-form
attenuation exponent), the evolved packet covariance, the quadrature
grid for the overlap oracle, and the inverse of
:func:`subplanck.states.state_to_json`.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft2, next_fast_len, rfft2
from scipy.optimize import minimize, minimize_scalar
from scipy.special import roots_hermite

from subplanck.core import PhaseSpaceGrid, UnitSystem, WignerField, _uniform_weights
from subplanck.decoherence import (
    BathParams,
    _add,
    _covariance_parts,
    bath_moments,
    green_function,
    propagation_matrix,
)
from subplanck.states import (
    CatSpec,
    FockVector,
    GaussianComponent,
    MixedSpec,
    _branches,
    _husimi_seeds,
    _pair_exponent,
)
from subplanck.wigner import _pair_quadratic, _sum_pairs


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


def component_overlap(
    a: GaussianComponent,
    b: GaussianComponent,
    units: UnitSystem,
    shift: tuple = (0.0, 0.0),
):
    """Inner product ``<phi_a | D phi_b>`` of two unit wave packets.

    ``D`` displaces ``phi_b`` by ``shift = (dx, dp)``:
    ``(D phi)(x) = exp(i dp x / hbar) phi(x - dx)``, a packet centred at
    ``(x0 + dx, p0 + dp)`` with phase ``phase - p0 dx / hbar``.  This
    differs from the Weyl displacement operator only by a global phase.
    ``dx`` and ``dp`` may be arrays; the result broadcasts over them and
    is a complex scalar for scalar shifts.
    """
    dx, dp = (np.asarray(v, dtype=float) for v in shift)
    return np.exp(_pair_exponent(a, b, dx, dp, units.hbar))


def kerr_polish_nelder_mead(state: FockVector, radius: float, samples: int = 2880):
    """Component count and polished infidelity of
    :func:`subplanck.states.kerr_component_count`'s Husimi seeds, with
    the angles polished jointly by scipy's Nelder-Mead simplex instead of
    the package's coordinate descent.

    Returns ``(count, infidelity)``; the count is accepted where the
    infidelity is at most 1e-6.
    """
    seeds, infidelity = _husimi_seeds(state, radius, samples)
    result = minimize(
        infidelity,
        seeds,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    return seeds.size, min(infidelity(seeds), float(result.fun))


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


def wigner_closed_direct(state: CatSpec | MixedSpec, x, p, units: UnitSystem = UnitSystem()):
    """Closed-form Wigner function with one unfactored exponent per pair:
    the overlap ``_pair_exponent(phi_k, phi_j(-.), 2x, 2p)`` plus the parity
    phase ``log 2 - 2ixp/hbar``, on the broadcast shape of ``x`` and ``p``."""
    hbar = units.hbar
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    x2, p2 = 2 * x, 2 * p
    phase = math.log(2) - 2j * x * p / hbar
    mirror = lambda c: dataclasses.replace(c, x0=-c.x0, p0=-c.p0)
    pair_fn = lambda cj, ck: np.exp(_pair_exponent(ck, mirror(cj), x2, p2, hbar) + phase)
    return _sum_pairs(state, hbar, pair_fn)


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


def characteristic_of_cat(
    state: CatSpec | MixedSpec,
    Q,
    P,
    units: UnitSystem = UnitSystem(),
) -> np.ndarray:
    """Characteristic function ``Wt(Q, P)`` of a packet superposition.

    Evaluates ``int psi(x - Q/2) psi*(x + Q/2) exp(-i x P / hbar) dx``
    in closed form per component pair, so that
    ``Wt(Q, P) = iint exp(-i (x P + p Q) / hbar) W(x, p) dx dp``.  ``Q``
    and ``P`` broadcast against each other; the result is complex with
    ``Wt(0,0) = 1``.
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


_MAX_FOCK_CUTOFF = 128  # guard against accidentally huge number bases


def wigner_of_fock(
    state: FockVector,
    grid: PhaseSpaceGrid,
    sigma_ref: float,
    units: UnitSystem = UnitSystem(),
) -> WignerField:
    """Wigner function of a number-basis state.

    The wave function is synthesized on a chord grid by the oscillator
    eigenfunction recursion (reference width ``sigma_ref``, the
    ground-state position width of the basis), then the defining
    integral is evaluated the same way as for packet states.
    """
    if state.cutoff > _MAX_FOCK_CUTOFF:
        raise ValueError(f"cutoff {state.cutoff} exceeds limit {_MAX_FOCK_CUTOFF}")
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


def default_scan_grid(
    x0: float, p0: float, sigma: float, units: UnitSystem = UnitSystem()
) -> PhaseSpaceGrid:
    """Quadrature grid for overlap integrals of cat-scale states.

    The window covers the packet centers plus eight envelope widths;
    the steps resolve the product of the fastest interference fringes
    of the two factors with margin, which keeps the trapezoid rule in
    its spectrally convergent regime.
    """
    hbar = units.hbar
    x_half = x0 + 8 * sigma + 1.0
    p_half = p0 + 4 * hbar / sigma + 1.0
    dx = 2 * math.pi / (4 * p0 / hbar + 12 / sigma)
    dp = 2 * math.pi * hbar / (4 * x0 + 24 * sigma)
    nx = 2 * int(math.ceil(x_half / dx)) + 1
    npts = 2 * int(math.ceil(p_half / dp)) + 1
    return PhaseSpaceGrid(
        x_min=-x_half, x_max=x_half, p_min=-p_half, p_max=p_half, nx=nx, np=npts
    )


def a_coefficients(bath: BathParams, t, sigma: float, units: UnitSystem = UnitSystem()):
    """Entries ``(A11, A12, A22)`` of the evolved packet covariance.

    ``A11`` is the position variance, ``A22`` the momentum variance and
    ``A12`` the symmetrized cross moment of a single Gaussian packet of
    initial spread ``sigma`` after time ``t`` of bath contact: the sum of
    the three pieces :func:`subplanck.decoherence.attenuation_exponent`
    builds its determinants from.
    """
    return _add(*_covariance_parts(bath, t, sigma, units))


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
    the anti-aliasing bound for every requested output point.  Raises
    ``ValueError`` if the sampled window fails to contain the
    characteristic support (edge magnitude above ``1e-6`` of the peak).
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
        raise ValueError(
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


def state_from_json(data: dict) -> CatSpec | MixedSpec:
    """Inverse of :func:`subplanck.states.state_to_json`; rejects unknown keys."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("state document must be a dict with a 'kind' key")
    kind = data["kind"]
    if kind == "cat":
        allowed = {"kind", "components", "coefficients", "norm"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown keys in cat state: {sorted(unknown)}")
        comps = tuple(
            GaussianComponent(
                sigma=c["sigma"], x0=c["x0"], p0=c["p0"], phase=c.get("phase", 0.0)
            )
            for c in data["components"]
        )
        coeffs = tuple(complex(re, im) for re, im in data["coefficients"])
        return CatSpec(components=comps, coefficients=coeffs, norm=data["norm"])
    if kind == "mixed":
        unknown = set(data) - {"kind", "branches"}
        if unknown:
            raise ValueError(f"unknown keys in mixed state: {sorted(unknown)}")
        branches = tuple((p, state_from_json(c)) for p, c in data["branches"])
        return MixedSpec(branches=branches)
    raise ValueError(f"unknown state kind {kind!r}")
