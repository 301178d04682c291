"""Zero-lattice geometry of the interference region.

The even mixture of a position cat and a momentum cat develops a
checkerboard of alternating-sign diamonds near the phase-space origin.
This module measures that structure through an ``(x, p) -> W`` evaluator:

* :func:`find_zero_lattice` — a detector for the lattice of zero lines,
  scanning the axes ``x = 0`` and ``p = 0`` at a grid's nodes.  On the
  axes the two cosine terms conspire so that the Wigner function only
  *touches* zero (tangential minima); the detector first locates those
  touches, then rescans along the offset row and column where the
  crossings become transversal and can be bracketed and refined.
* :func:`tile_area`, :func:`checkerboard_report`,
  :func:`lattice_report` — derived measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from subplanck.core import (
    PhaseSpaceError,
    PhaseSpaceGrid,
    ResolutionError,
    UnitSystem,
    brent_min,
    brent_root,
)


class LatticeError(PhaseSpaceError):
    """No usable zero-line structure was found."""


@dataclass(frozen=True)
class ZeroLattice:
    """Measured zero-line lattice of a Wigner function.

    Attributes
    ----------
    x_lines : numpy.ndarray
        Sorted positions of zero lines at constant ``x``.
    p_lines : numpy.ndarray
        Sorted positions of zero lines at constant ``p``.
    p_offset_row : float
        Momentum of the scan row used to measure ``x_lines``.
    x_offset_col : float
        Position of the scan column used to measure ``p_lines``.
    x_touch_first : float or None
        First positive tangential minimum on the ``p = 0`` axis, if any.
    p_touch_first : float or None
        First positive tangential minimum on the ``x = 0`` axis, if any.
    """

    x_lines: np.ndarray = field(default_factory=lambda: np.empty(0))
    p_lines: np.ndarray = field(default_factory=lambda: np.empty(0))
    p_offset_row: float = 0.0
    x_offset_col: float = 0.0
    x_touch_first: float | None = None
    p_touch_first: float | None = None

    def first_x_line(self) -> float:
        pos = self.x_lines[self.x_lines > 0]
        if pos.size == 0:
            raise LatticeError("no positive zero line at constant x")
        return float(pos.min())

    def first_p_line(self) -> float:
        pos = self.p_lines[self.p_lines > 0]
        if pos.size == 0:
            raise LatticeError("no positive zero line at constant p")
        return float(pos.min())

    def x_spacing(self) -> float:
        if self.x_lines.size < 2:
            raise LatticeError("need at least two x lines for a spacing")
        return float(np.median(np.diff(np.sort(self.x_lines))))

    def p_spacing(self) -> float:
        if self.p_lines.size < 2:
            raise LatticeError("need at least two p lines for a spacing")
        return float(np.median(np.diff(np.sort(self.p_lines))))


def _crossings(coords: np.ndarray, vals: np.ndarray) -> list[tuple[float, float]]:
    """Brackets ``(a, b)`` around strict sign changes: consecutive non-zero
    samples of opposite sign, spanning any exact zeros between them."""
    s = np.sign(vals)
    nz = np.flatnonzero(s)
    a, b = nz[:-1], nz[1:]
    keep = s[a] != s[b]
    return list(zip(coords[a[keep]].tolist(), coords[b[keep]].tolist()))


def _touches(coords: np.ndarray, vals: np.ndarray, threshold: float) -> list[float]:
    """Tangential near-zero minima: deep dips of ``|vals|`` without a
    sign change, prominent against their neighborhoods."""
    av = np.abs(vals)
    scale = float(av.max())
    if scale == 0:
        return []
    deep = threshold * scale
    tall = av >= 10 * deep
    tall_left = np.logical_or.accumulate(tall)  # any(tall[:i + 1])
    tall_right = np.logical_or.accumulate(tall[::-1])[::-1]  # any(tall[i:])
    mid = av[1:-1]
    dip = (
        (mid < deep)
        & (mid < av[:-2])
        & (mid <= av[2:])
        & ~(vals[:-2] * vals[2:] < 0)  # a sign change is a crossing, not a touch
        & tall_left[:-2]
        & tall_right[2:]
    )
    return coords[1:-1][dip].tolist()


def _axis_touches(coords, vals, threshold: float, fn, step: float):
    """Touches of an axis scan: whether there are any, and the first
    positive one refined by bounded Brent within one grid ``step``, to 1e-10 of it.
    ``fn(along, across)`` is the field; the axis sits at ``across = 0``."""
    touches = _touches(coords, vals, threshold)
    first = min((t for t in touches if t > 0), default=None)
    if first is not None:
        first, _ = brent_min(lambda t: fn(t, 0.0), first - step, first + step, xatol=1e-10 * step)
    return bool(touches), first


def _family(coords, axis_vals, touched: bool, other_touch: float | None,
            fn) -> tuple[np.ndarray, float]:
    """Sorted zero lines of one family, and where across the axis they
    were measured.  If the axis only touches zero and the other family
    has a positive touch, the lines are the sign changes of the scan at
    half that touch, where they cross transversally; otherwise they are
    the sign changes of ``axis_vals`` (the field at ``coords`` on the
    axis).  Each bracket is refined by Brent's method to 1e-10 of its width."""
    at = 0.0
    if touched and other_touch is not None:
        at = other_touch / 2
        axis_vals = np.asarray(fn(coords, at), dtype=float)
    lines = sorted(brent_root(lambda t: fn(t, at), a, b, xtol=1e-10 * (b - a), maxiter=200)
                   for a, b in _crossings(coords, axis_vals))
    return np.asarray(lines, dtype=float), at


_MIN_NODES_PER_GAP = 8  # grid steps a measured line spacing must span


def find_zero_lattice(grid: PhaseSpaceGrid, evaluator, threshold: float = 1e-3) -> ZeroLattice:
    """Measure the lattice of zero lines of a Wigner function.

    The evaluator is scanned along ``p = 0`` and ``x = 0`` at the grid's
    nodes.  Touches come first: where an axis only *touches* zero (the
    cat mixture and the compass, whose on-axis profiles are non-negative
    ``1 + cos`` factors) and the other axis has a positive touch, the
    family is measured on the scan offset by half that touch, where its
    lines cross zero transversally, so shallow far-field sign changes on
    the axis (the compass's cross terms) are not taken for the lattice.
    Otherwise the axis's own sign changes are the lines.  Lines are
    refined with Brent's method, first touches by bounded Brent.

    Parameters
    ----------
    grid : PhaseSpaceGrid
        Scan nodes along each axis; its steps also drive the gate below.
    evaluator : callable
        Vectorized ``(x, p) -> W``.
    threshold : float
        Relative depth below which an axis minimum counts as a touch.

    Returns
    -------
    ZeroLattice

    Raises
    ------
    LatticeError
        If no zero structure is present on either axis.
    ResolutionError
        If structure is present but a measured line spacing spans fewer
        than 8 grid steps.
    """
    xs, ps = grid.xs(), grid.ps()
    row = np.asarray(evaluator(xs, 0.0), dtype=float)  # W(x, 0)
    col = np.asarray(evaluator(0.0, ps), dtype=float)  # W(0, p)
    p_fn = lambda p, x: evaluator(x, p)

    row_touched, x_touch_first = _axis_touches(xs, row, threshold, evaluator, grid.dx)
    col_touched, p_touch_first = _axis_touches(ps, col, threshold, p_fn, grid.dp)
    x_lines, p_offset_row = _family(xs, row, row_touched, p_touch_first, evaluator)
    p_lines, x_offset_col = _family(ps, col, col_touched, x_touch_first, p_fn)

    if x_lines.size == 0 and p_lines.size == 0:
        raise LatticeError(
            "no zero crossings or near-zero touches detected on either axis; "
            "the field appears to have no interference zero structure"
        )

    for name, lines, step in (("x", x_lines, grid.dx), ("p", p_lines, grid.dp)):
        if lines.size < 2:
            continue
        spacing = float(np.median(np.diff(lines)))
        if spacing < _MIN_NODES_PER_GAP * step:
            raise ResolutionError(
                f"{name}-line spacing {spacing:.4g} spans fewer than {_MIN_NODES_PER_GAP} "
                f"grid steps (d{name} = {step:.4g}); refine the grid"
            )

    return ZeroLattice(
        x_lines=x_lines,
        p_lines=p_lines,
        p_offset_row=p_offset_row,
        x_offset_col=x_offset_col,
        x_touch_first=x_touch_first,
        p_touch_first=p_touch_first,
    )


def tile_area(lattice: ZeroLattice) -> float:
    """Area ``x1 * p1`` spanned by the first positive zero lines.

    This is the conventional figure of merit for the central
    interference tile; the full cell of the checkerboard (spacing
    between consecutive lines in each family) has four times this area.
    """
    return lattice.first_x_line() * lattice.first_p_line()


def checkerboard_report(evaluator, lattice: ZeroLattice, kmax: int = 3, mmax: int = 3) -> dict:
    """Classify the sign pattern of the interference tiles.

    For a full lattice the tile centers sit on the diamond sublattice
    ``(k Dx, m Dp)`` with ``k + m`` even, where ``Dx``/``Dp`` are the
    line spacings; their signs must follow ``(-1)^k``.  With only one
    line family present, the midpoints between consecutive lines must
    alternate instead.

    Parameters
    ----------
    evaluator : callable
        Vectorized ``(x, p) -> W``.
    lattice : ZeroLattice
    kmax, mmax : int
        Extent of the checked block of tiles; keep modest so the test
        stays inside the interference region.

    Returns
    -------
    dict
        ``pattern`` in ``{"checkerboard", "stripes_p", "stripes_x",
        "single"}``, the number of centers checked, whether all signs
        matched, and the first mismatch if any.
    """
    have_x = lattice.x_lines.size >= 2
    have_p = lattice.p_lines.size >= 2
    report = {
        "pattern": "single",
        "centers_checked": 0,
        "signs_ok": True,
        "first_mismatch": None,
        "spacing_x": lattice.x_spacing() if have_x else None,
        "spacing_p": lattice.p_spacing() if have_p else None,
    }
    if have_x and have_p:
        k, m = np.meshgrid(np.arange(-kmax, kmax + 1), np.arange(-mmax, mmax + 1), indexing="ij")
        even = (k + m) % 2 == 0
        k, m = k[even], m[even]
        x, p = k * report["spacing_x"], m * report["spacing_p"]
        vals = np.asarray(evaluator(x, p), dtype=float)
        bad = np.flatnonzero(np.copysign(1.0, vals) != np.where(k % 2 == 0, 1.0, -1.0))
        mismatch = None
        if bad.size:
            i = bad[0]
            mismatch = {"k": int(k[i]), "m": int(m[i]), "x": float(x[i]), "p": float(p[i]),
                        "w": float(vals[i])}
        report.update(pattern="checkerboard", centers_checked=int(k.size),
                      signs_ok=mismatch is None, first_mismatch=mismatch)
    elif have_p or have_x:
        lines = np.sort(lattice.p_lines if have_p else lattice.x_lines)
        mids = 0.5 * (lines[:-1] + lines[1:])
        vals = np.asarray(evaluator(0.0, mids) if have_p else evaluator(mids, 0.0), dtype=float)
        signs = np.copysign(1.0, vals)
        report.update(pattern="stripes_p" if have_p else "stripes_x", centers_checked=int(mids.size),
                      signs_ok=bool(np.all(signs[1:] != signs[:-1])))
    return report


def lattice_report(
    lattice: ZeroLattice,
    units: UnitSystem = UnitSystem(),
    predicted_area: float | None = None,
) -> dict:
    """JSON-ready summary of a measured lattice."""
    out: dict = {
        "x_lines": [float(v) for v in lattice.x_lines],
        "p_lines": [float(v) for v in lattice.p_lines],
        "p_offset_row": lattice.p_offset_row,
        "x_offset_col": lattice.x_offset_col,
    }
    try:
        area = tile_area(lattice)
    except LatticeError:
        area = None
    out["tile_area_measured"] = area
    out["cell_area_measured"] = 4 * area if area is not None else None
    out["subplanck"] = bool(area < units.hbar) if area is not None else None
    out["hbar"] = units.hbar
    if predicted_area is not None:
        out["tile_area_predicted"] = predicted_area
        if area is not None:
            out["relative_error"] = abs(area - predicted_area) / abs(predicted_area)
    return out
