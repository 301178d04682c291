"""State constructors: Gaussian superpositions, mixtures, Kerr evolution.

States come in two representations:

* :class:`CatSpec` — a finite superposition of Gaussian wave packets,
  each parameterized by center ``(x0, p0)``, width ``sigma``, and a
  phase.  Used for cat states, compass states, and anything else built
  from displaced Gaussians.
* :class:`FockVector` — amplitudes in the number basis, used for Kerr
  dynamics where the evolution is diagonal.

The wave-packet convention is

    phi(x) = (2 pi sigma^2)^(-1/4)
             * exp(-(x - x0)^2 / (4 sigma^2) + i p0 x / hbar + i phase)

so ``sigma`` is the position standard deviation of a single packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from subplanck.core import PhaseSpaceError, UnitSystem


class TruncationError(PhaseSpaceError):
    """A number-basis cutoff leaves non-negligible probability outside."""


class NoDecompositionError(PhaseSpaceError):
    """A state cannot be resolved into a few coherent components."""


@dataclass(frozen=True)
class GaussianComponent:
    """One Gaussian wave packet.

    Parameters
    ----------
    sigma : float
        Position standard deviation, positive.
    x0, p0 : float
        Phase-space center.
    phase : float
        Overall phase in radians.
    """

    sigma: float
    x0: float
    p0: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        for name in ("x0", "p0", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class _Packets(NamedTuple):
    """Struct-of-arrays view of packets: one array per parameter.

    The fields broadcast against each other, so a view reshaped to a
    column and another to a row describe all packet pairs at once.
    """

    sigma: np.ndarray
    x0: np.ndarray
    p0: np.ndarray
    phase: np.ndarray
    coef: np.ndarray

    @classmethod
    def of(cls, components, coefficients) -> _Packets:
        fields = zip(*((c.sigma, c.x0, c.p0, c.phase) for c in components))
        return cls(*map(np.array, fields), np.array(coefficients, dtype=complex))

    def shaped(self, *shape: int) -> _Packets:
        """The view with every field reshaped to ``shape``."""
        return _Packets(*(f.reshape(shape) for f in self))


def _pair_exponent(a, b, dx, dp, hbar: float):
    """Complex logarithm of ``<phi_a| D |phi_b>`` for unit wave packets.

    ``D`` displaces ``phi_b`` by ``(dx, dp)``:
    ``(D phi)(x) = exp(i dp x / hbar) phi(x - dx)``, a packet centred at
    ``(x0 + dx, p0 + dp)`` with phase ``phase - p0 dx / hbar``.  ``a`` and
    ``b`` are packets or :class:`_Packets` views whose fields broadcast
    against each other and against ``dx`` and ``dp``.

    This is the package's one evaluation of the Gaussian-pair integral:
    ``phi_a* D phi_b`` is a Gaussian of precision
    ``(sa^2 + sb^2) / (4 sa^2 sb^2)`` about ``mid`` times the tone
    ``exp(i kappa x)``.  The overlap, the Wigner function and the
    characteristic function each take ``exp`` of it plus their own phase.
    """
    sa2 = a.sigma**2
    sb2 = b.sigma**2
    s2 = sa2 + sb2
    xb = b.x0 + dx
    kappa = (b.p0 - a.p0 + dp) / hbar
    mid = (sb2 * a.x0 + sa2 * xb) / s2
    # each group depends on dx only or on dp only, so separable dx and dp
    # arrays meet in as few full-size passes as possible
    re = (0.5 * np.log(2 * a.sigma * b.sigma / s2) - (xb - a.x0) ** 2 / (4 * s2)) - kappa**2 * (
        sa2 * sb2 / s2
    )
    im = kappa * mid + (b.phase - a.phase - b.p0 * dx / hbar)
    return re + 1j * im


@dataclass(frozen=True)
class CatSpec:
    """Normalized superposition of Gaussian wave packets.

    ``psi(x) = norm * sum_j coefficients[j] * phi_j(x)``

    Parameters
    ----------
    components : tuple of GaussianComponent
    coefficients : tuple of complex
        Superposition weights, same length as ``components``.
    norm : float
        Overall normalization constant.
    """

    components: tuple[GaussianComponent, ...]
    coefficients: tuple[complex, ...]
    norm: float

    def __post_init__(self) -> None:
        if len(self.components) == 0:
            raise ValueError("need at least one component")
        if len(self.coefficients) != len(self.components):
            raise ValueError("coefficients and components must have the same length")
        if not (self.norm > 0 and math.isfinite(self.norm)):
            raise ValueError(f"norm must be positive and finite, got {self.norm}")
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))

    @cached_property
    def _packets(self) -> _Packets:
        """The packets, with ``coef = norm * coefficients``."""
        return _Packets.of(self.components, [self.norm * c for c in self.coefficients])


@dataclass(frozen=True)
class MixedSpec:
    """Statistical mixture of :class:`CatSpec` branches.

    Parameters
    ----------
    branches : tuple of (probability, CatSpec)
        Probabilities must be positive and sum to 1.
    """

    branches: tuple[tuple[float, CatSpec], ...]

    def __post_init__(self) -> None:
        if len(self.branches) == 0:
            raise ValueError("need at least one branch")
        ps = [b[0] for b in self.branches]
        if any(p <= 0 for p in ps):
            raise ValueError("branch probabilities must be positive")
        if abs(sum(ps) - 1.0) > 1e-12:
            raise ValueError(f"branch probabilities must sum to 1, got {sum(ps)}")
        object.__setattr__(self, "branches", tuple((float(p), c) for p, c in self.branches))

    @cached_property
    def _packets(self) -> _Packets:
        """The packets of every branch in order, with ``sqrt(p_b)`` folded
        into each branch's ``coef``."""
        views = [cat._packets._replace(coef=math.sqrt(p) * cat._packets.coef) for p, cat in self.branches]
        return _Packets(*map(np.concatenate, zip(*views)))


def _branches(state: CatSpec | MixedSpec) -> tuple[tuple[float, CatSpec], ...]:
    """``(probability, CatSpec)`` pairs of a pure or mixed state."""
    if isinstance(state, CatSpec):
        return ((1.0, state),)
    if isinstance(state, MixedSpec):
        return state.branches
    raise TypeError(f"unsupported state type {type(state).__name__}")


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


def _gram_norm(
    components: tuple[GaussianComponent, ...],
    coefficients: tuple[complex, ...],
    units: UnitSystem,
) -> float:
    """Normalization constant from the component Gram matrix."""
    v = _Packets.of(components, coefficients)
    n = len(v.coef)
    gram = np.exp(_pair_exponent(v.shaped(n, 1), v.shaped(1, n), 0.0, 0.0, units.hbar))
    total = float(np.real(v.coef.conj() @ gram @ v.coef))
    if total <= 0:
        raise ValueError("superposition has zero norm")
    return 1.0 / math.sqrt(total)


def make_cat_position(x0: float, sigma: float, units: UnitSystem = UnitSystem()) -> CatSpec:
    """Even superposition of packets at ``(+x0, 0)`` and ``(-x0, 0)``.

    The normalization equals ``1 / sqrt(2 (1 + exp(-x0^2 / (2 sigma^2))))``.
    """
    if x0 <= 0:
        raise ValueError(f"x0 must be positive, got {x0}")
    comps = (
        GaussianComponent(sigma=sigma, x0=x0, p0=0.0),
        GaussianComponent(sigma=sigma, x0=-x0, p0=0.0),
    )
    coeffs = (1.0 + 0.0j, 1.0 + 0.0j)
    return CatSpec(components=comps, coefficients=coeffs, norm=_gram_norm(comps, coeffs, units))


def make_cat_momentum(p0: float, sigma: float, units: UnitSystem = UnitSystem()) -> CatSpec:
    """Even superposition of packets at ``(0, +p0)`` and ``(0, -p0)``.

    The normalization equals
    ``1 / sqrt(2 (1 + exp(-2 p0^2 sigma^2 / hbar^2)))``.
    """
    if p0 <= 0:
        raise ValueError(f"p0 must be positive, got {p0}")
    comps = (
        GaussianComponent(sigma=sigma, x0=0.0, p0=p0),
        GaussianComponent(sigma=sigma, x0=0.0, p0=-p0),
    )
    coeffs = (1.0 + 0.0j, 1.0 + 0.0j)
    return CatSpec(components=comps, coefficients=coeffs, norm=_gram_norm(comps, coeffs, units))


def make_mixed(cat1: CatSpec, cat2: CatSpec, p: float = 0.5) -> MixedSpec:
    """Mixture ``p |cat1><cat1| + (1-p) |cat2><cat2|``."""
    if not 0 < p < 1:
        raise ValueError(f"mixing probability must lie in (0, 1), got {p}")
    return MixedSpec(branches=((p, cat1), (1.0 - p, cat2)))


def make_compass(
    x0: float, p0: float, sigma: float, units: UnitSystem = UnitSystem()
) -> CatSpec:
    """Equal superposition of four packets at ``(+-x0, 0)`` and ``(0, +-p0)``."""
    if x0 <= 0 or p0 <= 0:
        raise ValueError("x0 and p0 must be positive")
    comps = (
        GaussianComponent(sigma=sigma, x0=x0, p0=0.0),
        GaussianComponent(sigma=sigma, x0=-x0, p0=0.0),
        GaussianComponent(sigma=sigma, x0=0.0, p0=p0),
        GaussianComponent(sigma=sigma, x0=0.0, p0=-p0),
    )
    coeffs = (1.0 + 0.0j,) * 4
    return CatSpec(components=comps, coefficients=coeffs, norm=_gram_norm(comps, coeffs, units))


def psi_eval(spec: CatSpec, x: np.ndarray, units: UnitSystem = UnitSystem()) -> np.ndarray:
    """Evaluate the wave function of a :class:`CatSpec` on ``x``.

    Returns
    -------
    numpy.ndarray of complex, same shape as ``x``.
    """
    v = spec._packets
    u = np.asarray(x, dtype=float)[..., None]
    phi = (2 * math.pi * v.sigma**2) ** -0.25 * np.exp(
        -((u - v.x0) ** 2) / (4 * v.sigma**2) + 1j * (v.p0 * u / units.hbar + v.phase)
    )
    return phi @ v.coef


@dataclass(frozen=True)
class FockVector:
    """State vector in the number basis.

    Parameters
    ----------
    amplitudes : numpy.ndarray
        Complex amplitudes ``c_n`` for ``n = 0 .. len-1``, normalized
        to unit total probability.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-D array")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("amplitudes must be finite")
        nrm = np.linalg.norm(a)
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"amplitudes must be normalized, got |psi| = {nrm}")
        object.__setattr__(self, "amplitudes", a)

    @property
    def cutoff(self) -> int:
        """Largest occupied number index."""
        return self.amplitudes.size - 1


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Amplitudes ``exp(-|alpha|^2/2) alpha^n / sqrt(n!)`` up to ``cutoff``."""
    c = np.empty(cutoff + 1, dtype=complex)
    c[0] = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(cutoff):
        c[n + 1] = c[n] * alpha / math.sqrt(n + 1)
    return c


def default_cutoff(alpha: complex) -> int:
    """Number-basis cutoff that keeps the coherent tail below 1e-10."""
    r = abs(alpha)
    return math.ceil(r * r + 7 * r + 10)


_KERR_TAIL_TOL = 1e-10  # coherent probability allowed beyond the cutoff


def kerr_evolve(alpha: complex, kappa_t: float, cutoff: int | None = None) -> FockVector:
    """Evolve a coherent state under the Kerr Hamiltonian ``(hbar kappa / 2) n^2``.

    Parameters
    ----------
    alpha : complex
        Initial coherent amplitude.
    kappa_t : float
        Dimensionless evolved angle ``kappa * t``.
    cutoff : int, optional
        Number-basis cutoff; defaults to :func:`default_cutoff`, and may
        be at most 4 times that.

    Returns
    -------
    FockVector

    Raises
    ------
    ValueError
        If ``exp(-|alpha|^2/2)`` underflows to 0, or ``cutoff`` is
        negative or above 4 times the default, before any allocation.
    TruncationError
        If the coherent-state probability beyond ``cutoff`` exceeds
        1e-10.
    """
    r = abs(alpha)
    if math.exp(-r * r / 2) == 0:  # r * r, unlike r ** 2, gives inf rather than raising
        raise ValueError(
            f"alpha = {alpha} is too large: the vacuum amplitude exp(-|alpha|^2/2) underflows to 0"
        )
    need = default_cutoff(alpha)
    if cutoff is None:
        cutoff = need
    if cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")
    if cutoff > 4 * need:
        raise ValueError(
            f"cutoff {cutoff} is more than 4 times the {need} that |alpha| = {r:g} needs"
        )
    from scipy.special import pdtrc  # only the Kerr route loads scipy

    lam = abs(alpha) ** 2
    tail = float(pdtrc(cutoff, lam)) if lam > 0 else 0.0
    if tail > _KERR_TAIL_TOL:
        raise TruncationError(
            f"cutoff {cutoff} leaves tail probability {tail:.3e} > {_KERR_TAIL_TOL:.1e} "
            f"for |alpha|^2 = {lam:.3f}"
        )
    n = np.arange(cutoff + 1)
    c = coherent_amplitudes(alpha, cutoff) * np.exp(-0.5j * kappa_t * n**2)
    return FockVector(amplitudes=c / np.linalg.norm(c))


_PEAK_FRACTION = 0.2  # a Husimi maximum above this share of the highest is a component
_FIDELITY_TOL = 1e-6  # reconstruction infidelity allowed before giving up


def kerr_component_count(state: FockVector, radius: float, samples: int = 2880) -> int:
    """Count coherent components of a Kerr-evolved state.

    Scans the Husimi function on the circle ``|beta| = radius``, finds
    its peaks above 0.2 of the highest, and verifies that the state is
    reproduced (fidelity ``>= 1 - 1e-6``) by a least-squares
    superposition of coherent states at the peak angles.

    Parameters
    ----------
    state : FockVector
        Number-basis state to analyze.
    radius : float
        Radius of the scan circle, normally ``|alpha|`` of the initial
        coherent state.
    samples : int
        Angular sample count.

    Returns
    -------
    int
        Number of coherent components.

    Raises
    ------
    NoDecompositionError
        If the peak set does not reproduce the state.
    """
    if radius < 1e-3:
        return 1
    c = state.amplitudes
    n = np.arange(c.size)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, c.size)))))
    # Husimi on the circle is a Fourier series in theta: evaluate by FFT.
    d = c * np.exp(-radius**2 / 2 + n * math.log(radius) - log_fact / 2)
    f = np.fft.fft(d, samples)
    h = np.abs(f) ** 2
    hmax = h.max()
    if hmax <= 0:
        raise NoDecompositionError("Husimi scan vanished on the circle")

    prev = np.roll(h, 1)
    nxt = np.roll(h, -1)
    idx = np.nonzero((h > prev) & (h >= nxt) & (h > _PEAK_FRACTION * hmax))[0]
    if idx.size == 0 or idx.size > 32:
        raise NoDecompositionError(f"found {idx.size} Husimi peaks; cannot decompose")

    dtheta = 2 * math.pi / samples
    seeds = []
    for k in idx:
        lm, l0, lp = (math.log(h[(k + s) % samples]) for s in (-1, 0, 1))
        denom = lm - 2 * l0 + lp
        shift = 0.5 * (lm - lp) / denom if denom < 0 else 0.0
        seeds.append((k + shift) * dtheta)
    m = len(seeds)
    norm_sq = float(np.real(np.vdot(c, c)))

    def fidelity_of(angles: np.ndarray) -> float:
        """Least-squares fidelity of a coherent superposition at ``angles``."""
        angles = np.asarray(angles)
        # <beta_i|beta_j> = exp(r^2 (e^{i(theta_j - theta_i)} - 1)) on the circle
        gram = np.exp(radius**2 * (np.exp(1j * (angles[None, :] - angles[:, None])) - 1))
        # <beta_i|psi> = sum_n d_n e^{-i n theta_i}, the series the scan sums by FFT
        b = d @ np.exp(-1j * np.outer(n, angles))
        try:
            coef = np.linalg.solve(gram, b)
        except np.linalg.LinAlgError:
            return 0.0
        return float(np.real(np.vdot(b, coef))) / norm_sq

    # Neighboring components leak Husimi weight onto each other and drag
    # the circle-scan maxima off the true component angles (the shift
    # scales like exp(-radius^2 * (1 - cos dtheta_sep))), so the seeds
    # are polished by maximizing the reconstruction fidelity directly.
    from scipy.optimize import minimize  # only the Kerr route loads scipy

    result = minimize(
        lambda a: 1.0 - fidelity_of(a),
        np.array(seeds),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    fidelity = max(fidelity_of(np.array(seeds)), 1.0 - float(result.fun))
    if fidelity < 1.0 - _FIDELITY_TOL:
        raise NoDecompositionError(
            f"{m} coherent components reproduce the state with fidelity "
            f"{fidelity:.9f} < 1 - {_FIDELITY_TOL:.1e}"
        )
    return int(m)


def state_to_json(spec: CatSpec | MixedSpec) -> dict:
    """JSON-ready dictionary for a pure or mixed state."""
    if isinstance(spec, CatSpec):
        return {
            "kind": "cat",
            "components": [
                {"sigma": c.sigma, "x0": c.x0, "p0": c.p0, "phase": c.phase}
                for c in spec.components
            ],
            "coefficients": [[c.real, c.imag] for c in spec.coefficients],
            "norm": spec.norm,
        }
    if isinstance(spec, MixedSpec):
        return {
            "kind": "mixed",
            "branches": [[p, state_to_json(c)] for p, c in spec.branches],
        }
    raise TypeError(f"unsupported state type {type(spec).__name__}")
