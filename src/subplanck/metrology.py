"""Displacement sensitivity of interference-bearing states.

The central quantity is the phase-space overlap of a state with a
displaced copy of itself,

    O(delta1, delta2) = iint W(x, p) W(x + delta2, p + delta1) dx dp,

where ``delta1`` boosts momentum and ``delta2`` shifts position.  For
states carrying sub-Planck interference the overlap oscillates on the
scale of the zero-line spacings, and suitable sub-Planck displacements
drive it to zero — the displaced state becomes distinguishable from
the original far sooner than the packet widths suggest.

:func:`overlap_closed` evaluates the overlap exactly through the trace
rule ``Tr(rho sigma) = 2 pi hbar iint W_rho W_sigma`` and broadcasts over
displacement arrays; it is the production route.  Each packet-pair
overlap is one exponent of the Gaussian-pair form that the Gram norm and
the Wigner pair table also read, :func:`subplanck.states._pair_form`,
cached per state and ``hbar``.  Two independent
oracles check it: :class:`OverlapScan` integrates the sampled product
by quadrature, and the tests' ``overlap_map`` (``tests/oracles.py``)
autocorrelates a sampled field by FFT.

:func:`find_orthogonality` measures the first orthogonality point with
a deterministic scan-ray-polish protocol that works for both the cat
mixture and the compass state without assuming either's closed form;
the CLI's ``sensitivity`` and ``compare`` run it on :func:`overlap_closed`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from subplanck.core import (
    PhaseSpaceGrid,
    SearchError,
    UnitSystem,
    WignerField,
    brent_min,
    integrate_2d,
)
from subplanck.states import CatSpec, MixedSpec, _branches
from subplanck.wigner import wigner_closed_eval


@functools.lru_cache(maxsize=16)
def _overlap_table(state: CatSpec | MixedSpec, hbar: float):
    """Pair forms, coefficient products and branch starts; cached for the polish."""
    v = state._packets
    starts = np.cumsum([0] + [len(cat.components) for _, cat in _branches(state)][:-1])
    return v.pair_form(hbar), np.outer(v.coef.conj(), v.coef), starts


def overlap_closed(
    state: CatSpec | MixedSpec,
    delta1,
    delta2,
    units: UnitSystem = UnitSystem(),
):
    """Exact displacement overlap ``O(delta1, delta2)``.

    For ``rho = sum_b p_b |psi_b><psi_b|`` the trace rule
    ``Tr(rho sigma) = 2 pi hbar iint W_rho W_sigma`` with
    ``sigma = D rho D^dagger`` gives

        O = (2 pi hbar)^-1 sum_{b,b'} p_b p_b' |<psi_b| D |psi_b'>|^2,

    where ``D`` shifts position by ``delta2`` and momentum by ``delta1``.
    Every packet-pair overlap is one exponent of the pair form
    :func:`~subplanck.states._pair_form`, so the cost is O(K^2) per
    displacement for K packets and nothing is sampled.  The global
    phase of ``D`` cancels in ``|.|^2``, and ``O(delta) = O(-delta)``.

    ``delta1`` and ``delta2`` broadcast against each other; the result
    has their broadcast shape, or is a float for scalar displacements.
    """
    form, coef, starts = _overlap_table(state, units.hbar)
    # packet axes lead, so every array pass runs over contiguous displacements
    lead = (..., *(None,) * np.broadcast(delta1, delta2).ndim)
    terms = coef[lead] * np.exp(form._make(f[lead] for f in form).at(delta2, delta1))
    # sum the packet pairs of each branch pair into its matrix element;
    # sqrt(p_b) N_b is already folded into the coefficients
    amp = np.add.reduceat(np.add.reduceat(terms, starts, axis=0), starts, axis=1)
    total = (amp.real**2 + amp.imag**2).sum(axis=(0, 1)) / (2 * math.pi * units.hbar)
    return total if total.ndim else float(total)


class OverlapScan:
    """Quadrature oracle for the displacement overlap.

    Samples the closed-form Wigner function and its displaced copy on a
    grid and integrates their product, one displacement per call.  It
    checks :func:`overlap_closed`, which the searches and the CLI use.
    No CLI path calls it; it is kept in this module, outside the
    package's exports, only because the benchmark harness traces its
    methods here.

    Parameters
    ----------
    state : CatSpec or MixedSpec
        State whose self-overlap under displacement is measured.
    grid : PhaseSpaceGrid
        Quadrature grid; it must resolve the product of the fastest
        interference fringes of the two factors.
    units : UnitSystem
    rule : str
        ``"trapezoid"`` or ``"simpson"`` (odd sample counts required
        for the latter).
    """

    def __init__(
        self,
        state: CatSpec | MixedSpec,
        grid: PhaseSpaceGrid,
        units: UnitSystem = UnitSystem(),
        rule: str = "trapezoid",
    ):
        self.state = state
        self.grid = grid
        self.units = units
        self.rule = rule
        self._xm, self._pm = grid.xs()[:, None], grid.ps()[None, :]  # factors once per node
        self._w0 = wigner_closed_eval(state, self._xm, self._pm, units)
        self.o00 = self.value(0.0, 0.0)

    def value(self, delta1: float, delta2: float) -> float:
        """Raw overlap ``O(delta1, delta2)``."""
        shifted = wigner_closed_eval(
            self.state, self._xm + delta2, self._pm + delta1, self.units
        )
        prod = WignerField(grid=self.grid, values=self._w0 * shifted)
        return integrate_2d(prod, rule=self.rule)

    def unit(self, delta1: float, delta2: float) -> float:
        """Overlap normalized to 1 at zero displacement."""
        return self.value(delta1, delta2) / self.o00


def overlap_reference(
    delta1,
    delta2,
    x0: float,
    p0: float,
    sigma: float,
    units: UnitSystem = UnitSystem(),
):
    """Commonly quoted closed-form estimate of the mixed-cat overlap.

    Provided verbatim for comparison columns.  Its ``delta1``
    oscillation period matches the measured overlap, but its absolute
    scale and its ``delta2`` zero do not: the defining integral gives
    ``O(0,0) = 1/(4 pi hbar)`` (16 times smaller than this expression's
    origin value) and reaches zero only at ``delta2 = pi hbar/(2 p0)``,
    twice the value implied here.  Use :func:`overlap_closed` for
    quantitative work.
    """
    hbar = units.hbar
    delta1 = np.asarray(delta1, dtype=float)
    delta2 = np.asarray(delta2, dtype=float)
    damp = np.exp(-(delta1**2) * sigma**2 / hbar**2 - delta2**2 / (4 * sigma**2))
    return damp * (
        2 * np.cos(2 * delta2 * p0 / hbar) + 3 * np.cos(2 * delta1 * x0 / hbar) + 3
    ) / (2 * math.pi * hbar)


@dataclass(frozen=True)
class SensitivityResult:
    """Outcome of an orthogonality search.

    Attributes
    ----------
    delta1_star, delta2_star : float
        Displacement reaching the overlap minimum.
    product : float
        ``delta1_star * delta2_star`` (phase-space action of the
        displacement).
    min_overlap : float
        Unit-normalized overlap at the minimum.
    achieved : bool
        Whether ``min_overlap`` fell below the requested tolerance.
    axis1_dip, axis2_dip : float
        First on-axis local minima used to aim the joint search.
    iterations : int
        Polish iterations performed.
    """

    delta1_star: float
    delta2_star: float
    product: float
    min_overlap: float
    achieved: bool
    axis1_dip: float
    axis2_dip: float
    iterations: int


def _first_dip(fn, bracket: float, n_scan: int, prominence: float = 1e-6):
    """First interior local minimum of ``fn`` on ``(0, bracket]``.

    ``fn`` is called once on the whole array of scan samples, then on
    scalars by the bounded refinement.  Returns ``(location, value)``
    after that refinement, or ``None`` if the scan is monotone to within
    ``prominence``.
    """
    ts = np.linspace(0.0, bracket, n_scan)
    vals = np.asarray(fn(ts), dtype=float)
    left_max = np.maximum.accumulate(vals)  # max(vals[:i + 1])
    right_max = np.maximum.accumulate(vals[::-1])[::-1]  # max(vals[i:])
    mid = vals[1:-1]
    dips = np.flatnonzero(
        (mid < vals[:-2])
        & (mid <= vals[2:])
        & (np.minimum(left_max, right_max)[1:-1] - mid >= prominence)
    )
    if dips.size == 0:
        return None
    i = int(dips[0]) + 1
    return brent_min(fn, ts[i - 1], ts[i + 1], xatol=1e-12)


_POLISH_ITERATIONS = 20


def find_orthogonality(
    overlap_fn,
    bracket1: float,
    bracket2: float,
    tol: float = 0.02,
    n_scan: int = 601,
) -> SensitivityResult:
    """Locate the smallest displacement that suppresses the overlap.

    The protocol is deterministic and assumes nothing about the
    state's closed form:

    1. scan each displacement axis for its first local overlap minimum
       ``s1``, ``s2`` (these fix the oscillation scales);
    2. scan the ray ``t -> (t s1, t s2)`` for its first deep minimum —
       for tile-bearing states the joint zero lies on this ray;
    3. polish by alternating bounded single-coordinate minimizations,
       at most 20 rounds.

    Parameters
    ----------
    overlap_fn : callable
        ``(delta1, delta2) -> float``, raw (unnormalized) overlap, such
        as :func:`overlap_closed` bound to a state.  It must broadcast:
        each scan passes one 1-D array per call, while the polish passes
        scalars.
    bracket1, bracket2 : float
        Upper bounds of the axis scans; must contain the first axis
        minima (1.5 pi hbar / separation is a safe choice for
        cat-like states).
    tol : float
        Unit-overlap threshold under which orthogonality counts as
        achieved.
    n_scan : int
        Samples per scan.

    Raises
    ------
    SearchError
        If an axis scan shows no interior minimum (e.g. for a plain
        Gaussian state whose overlap decays monotonically).

    Notes
    -----
    The axis dips ``axis1_dip`` and ``axis2_dip`` are minima of an
    overlap that stays well above zero there, so it is flat to second
    order about them and a relative change of order eps in its value
    moves them by about sqrt(eps): they are located only to about 1.5e-8
    relative, although the artifacts write them with 17 digits.  They
    only aim the ray scan; the polished point is a zero of the overlap
    and does not inherit that spread.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    o00 = overlap_fn(0.0, 0.0)
    if not (o00 > 0 and math.isfinite(o00)):
        raise SearchError(f"overlap at zero displacement is {o00}; cannot normalize")
    f = lambda d1, d2: overlap_fn(d1, d2) / o00

    dip1 = _first_dip(lambda t: f(t, 0.0), bracket1, n_scan)
    dip2 = _first_dip(lambda t: f(0.0, t), bracket2, n_scan)
    if dip1 is None or dip2 is None:
        axis = "delta1" if dip1 is None else "delta2"
        raise SearchError(
            f"no interior overlap minimum along {axis} within its bracket; "
            "the state shows no interference-scale displacement response"
        )
    s1, s2 = dip1[0], dip2[0]

    ray = _first_dip(lambda t: f(t * s1, t * s2), 2.5, n_scan)
    if ray is None:
        raise SearchError("no overlap minimum along the joint ray")
    t_star, f_star = ray
    d1, d2 = t_star * s1, t_star * s2

    fval = f_star
    iters = 0
    for _ in range(_POLISH_ITERATIONS):
        iters += 1
        d1, _ = brent_min(lambda t: f(t, d2), max(d1 - 0.25 * s1, 0.0), d1 + 0.25 * s1,
                          xatol=1e-13)
        d2, new = brent_min(lambda t: f(d1, t), max(d2 - 0.25 * s2, 0.0), d2 + 0.25 * s2,
                            xatol=1e-13)
        if abs(new - fval) < 1e-14:
            fval = new
            break
        fval = new

    return SensitivityResult(
        delta1_star=d1,
        delta2_star=d2,
        product=d1 * d2,
        min_overlap=fval,
        achieved=fval <= tol,
        axis1_dip=s1,
        axis2_dip=s2,
        iterations=iters,
    )
