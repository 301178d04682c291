"""Shared phase-space primitives: units, grids, fields, quadrature, scalar
Brent solvers, IO.

Conventions used throughout the package:

* Phase-space points are ``(x, p)`` with ``x`` position-like and ``p``
  momentum-like.  2-D arrays are indexed ``[i, j] -> (x_i, p_j)``.
* Wigner functions are normalized so that ``iint W(x, p) dx dp = 1``.
* All floating-point text output (CSV, JSON) uses shortest round-trip
  formatting, so files are byte-identical across runs and thread counts.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from subplanck._shortest import repr_bytes


class PhaseSpaceError(Exception):
    """Base class for all errors raised by this package."""


class InvalidFieldError(PhaseSpaceError):
    """A sampled field contains NaN/Inf or has inconsistent shape."""


class CoverageError(PhaseSpaceError):
    """A grid window does not cover the state's support."""


class ResolutionError(PhaseSpaceError):
    """A grid is too coarse to resolve the structure being measured."""


class SearchError(PhaseSpaceError):
    """A search found no usable minimum (orthogonality) or crossing (decoherence time)."""


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants fixing the unit conventions.

    Parameters
    ----------
    hbar : float
        Reduced Planck constant.  Sets the phase-space area scale.
    """

    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")


_MAX_NODES = 2**16  # per grid axis, checked before any sample array is allocated


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform rectangular grid on phase space.

    Parameters
    ----------
    x_min, x_max : float
        Position window, ``x_min < x_max``.
    p_min, p_max : float
        Momentum window, ``p_min < p_max``.
    nx, np : int
        Number of samples along each axis, 2 to 65536.
    """

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int

    def __post_init__(self) -> None:
        for name in ("x_min", "x_max", "p_min", "p_max"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not self.p_min < self.p_max:
            raise ValueError(f"need p_min < p_max, got [{self.p_min}, {self.p_max}]")
        if not (2 <= self.nx <= _MAX_NODES and 2 <= self.np <= _MAX_NODES):
            raise ValueError(f"nx, np must lie in [2, {_MAX_NODES}], got nx={self.nx}, np={self.np}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.np - 1)

    def xs(self) -> np.ndarray:
        """Position samples, shape ``(nx,)``."""
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ps(self) -> np.ndarray:
        """Momentum samples, shape ``(np,)``."""
        return np.linspace(self.p_min, self.p_max, self.np)


def linspace_grid(x_half: float, p_half: float, nx: int, np: int) -> PhaseSpaceGrid:
    """Grid covering ``-half .. +half`` along each axis."""
    if x_half <= 0 or p_half <= 0:
        raise ValueError("half-widths must be positive")
    return PhaseSpaceGrid(x_min=-x_half, x_max=x_half, p_min=-p_half, p_max=p_half, nx=nx, np=np)


@dataclass(frozen=True)
class WignerField:
    """A real-valued function sampled on a :class:`PhaseSpaceGrid`.

    Parameters
    ----------
    grid : PhaseSpaceGrid
        Sample locations.
    values : numpy.ndarray
        Real samples of shape ``(grid.nx, grid.np)``; ``values[i, j]``
        is the function at ``(xs()[i], ps()[j])``.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nx, self.grid.np):
            raise InvalidFieldError(
                f"values shape {v.shape} does not match grid ({self.grid.nx}, {self.grid.np})"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidFieldError("field contains non-finite samples")
        object.__setattr__(self, "values", v)


_QUAD_RULES = ("trapezoid", "simpson", "gauss-hermite")


@dataclass(frozen=True)
class Quadrature:
    """Quadrature configuration for integral transforms and overlaps.

    Parameters
    ----------
    rule : str
        One of ``"trapezoid"``, ``"simpson"``, ``"gauss-hermite"``.
        The first two sample integrands on uniform grids chosen from the
        integrand's bandwidth; the last uses Hermite nodes and is only
        advisable for slowly oscillating integrands.
    order : int
        Node count for ``gauss-hermite``, 16 to 1024 (a dense eigenproblem
        of this order gives the nodes); ignored by the uniform rules.
    """

    rule: str = "trapezoid"
    order: int = 64

    def __post_init__(self) -> None:
        if self.rule not in _QUAD_RULES:
            raise ValueError(f"unknown quadrature rule {self.rule!r}; expected one of {_QUAD_RULES}")
        if not 16 <= self.order <= 1024:
            raise ValueError(f"quadrature order must lie in [16, 1024], got {self.order}")


def _uniform_weights(rule: str, n: int, step: float) -> np.ndarray:
    """Weights of the composite ``rule`` on ``n`` nodes spaced ``step`` apart.

    ``"trapezoid"`` or ``"simpson"``; Simpson needs an odd ``n``.
    """
    if rule == "trapezoid":
        w = np.full(n, step)
        w[0] = w[-1] = step / 2
        return w
    if rule == "simpson":
        if n % 2 == 0:
            raise ValueError("simpson rule needs an odd number of samples along each axis")
        w = np.full(n, 2 * step / 3)
        w[1::2] = 4 * step / 3
        w[0] = w[-1] = step / 3
        return w
    raise ValueError(f"unknown integration rule {rule!r}")


def integrate_2d(field: WignerField, rule: str = "trapezoid") -> float:
    """Integrate a sampled field over its grid window.

    Parameters
    ----------
    field : WignerField
        Samples on a uniform grid.
    rule : str
        ``"trapezoid"`` or ``"simpson"``.  Simpson requires an odd
        number of samples along both axes.

    Returns
    -------
    float
    """
    v = field.values
    if not np.all(np.isfinite(v)):
        raise InvalidFieldError("field contains non-finite samples")
    g = field.grid
    return float(_uniform_weights(rule, g.nx, g.dx) @ v @ _uniform_weights(rule, g.np, g.dp))


# brentq's relative tolerance: 4 eps, rounded up
_ROOT_RTOL = 8.9e-16


def brent_root(f, a: float, b: float, xtol: float, maxiter: int = 100) -> float:
    """Root of scalar ``f`` in the sign-change bracket ``[a, b]`` by
    Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's ``brentq`` (``Zeros/brentq.c``,
    scipy 1.17) at ``rtol=8.9e-16``: the same steps in the same order,
    so it returns the same float.  The tests hold it to
    ``scipy.optimize.brentq`` bit for bit.

    Raises
    ------
    ValueError
        If ``f(a)`` and ``f(b)`` have the same sign or ``f`` returns NaN.
    RuntimeError
        If the bracket has not shrunk to the tolerance after ``maxiter``
        iterations.
    """
    def fv(x: float) -> float:
        y = float(f(x))
        if math.isnan(y):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return y

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fv(xpre), fv(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # both non-zero and not NaN, so ``< 0`` is ``signbit``
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # an underflowed 0 makes brentq's division +-inf or NaN,
                # which fails the step test: bisect
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fv(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}")


def brent_min(f, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Minimum ``(x, f(x))`` of scalar ``f`` on ``[lo, hi]`` by Brent's
    golden-section and parabolic search (Brent 1973, ch. 5).

    A line-for-line port of scipy's bounded ``minimize_scalar``
    (``optimize._optimize._minimize_scalar_bounded``, scipy 1.17): the
    same steps in the same order, so it returns the same floats.  Like
    scipy at its default ``maxiter``, it stops after 500 evaluations of
    ``f`` and returns the best point so far.  The tests hold it to scipy
    bit for bit.

    Raises
    ------
    ValueError
        If a bound is not finite or ``lo > hi``.
    """
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if a > b:
        raise ValueError("The lower bound exceeds the upper bound.")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = float(f(xf))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0 else -step)
        fu = float(f(x))
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


@contextmanager
def _atomic_file(path: str):
    """Binary file that replaces ``path`` by atomic rename when the block
    completes.

    The temp file has a unique name in the target directory, so
    concurrent writers to one path never share it; it is removed if the
    block raises.
    """
    d, name = os.path.split(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` via a temp file and atomic
    rename; see :func:`_atomic_file`."""
    with _atomic_file(path) as fh:
        fh.write(bytes(text, "utf-8"))


def write_json(obj, path: str) -> None:
    """Serialize ``obj`` to JSON with sorted keys, atomically."""
    write_text_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


_CSV_BLOCK = 16384  # values per block of field_to_csv and table_to_csv
# field_to_csv trims the heap after texts of this size or more.  A trim
# takes about 5 ms with 80 MB of the heap free, and its pages are faulted
# back in later; writing 8 MiB takes about 70 ms.
_TRIM_BYTES = 8 << 20


@functools.cache
def _malloc_trim():
    """The C library's ``malloc_trim`` (a glibc extension), or None."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _csv_lines(cells: list[np.ndarray], shape: tuple[int, ...]) -> bytes:
    """Lines of comma-separated cells, one per index of ``shape``.

    Each cell is a uint8 matrix of text columns (:func:`repr_bytes`'
    rows, or ``numpy.bytes_`` viewed as bytes) that broadcasts against
    ``shape``, with zero bytes wherever it holds no text.  The lines are
    laid out as one padded byte matrix and the zero bytes dropped.
    """
    width = sum(cell.shape[-1] + 1 for cell in cells)
    block = np.empty((*shape, width), np.uint8)
    end = 0
    for cell in cells:
        start, end = end, end + cell.shape[-1] + 1
        block[..., start : end - 1] = cell
        block[..., end - 1] = ord(",") if end < width else ord("\n")
    return block.tobytes().translate(None, b"\0")


def field_to_csv(field: WignerField, path: str) -> None:
    """Write a sampled field as ``x,p,w`` rows (x-major order).

    Every number is written as ``repr`` of its float, made for whole
    arrays at once by the shortest-digit kernel
    :func:`subplanck._shortest.repr_bytes`.  The
    tests hold the file byte for byte to the per-value ``repr`` writer
    ``tests/oracles.py::field_to_csv_repr``.  Lines are assembled and
    written in blocks of about 16k values, so the text is never held
    whole.  A text of 8 MiB or more ends by handing the process's freed
    heap pages back to the OS (glibc's ``malloc_trim``).
    """
    xs, ps = repr_bytes(field.grid.xs()), repr_bytes(field.grid.ps())
    nx, np_ = field.values.shape
    rows = max(1, _CSV_BLOCK // np_)
    with _atomic_file(path) as fh:
        fh.write(b"x,p,w\n")
        for i in range(0, nx, rows):
            w = repr_bytes(field.values[i : i + rows].ravel())
            n = len(w) // np_
            fh.write(_csv_lines([xs[i : i + rows, None], ps, w.reshape(n, np_, -1)], (n, np_)))
        size = fh.tell()
    # glibc keeps freed pages resident: the top of the heap up to twice
    # its adaptive mmap threshold, and every hole below a live block.  In
    # a process that writes a large field per command and parses the text
    # back, each parse lands on the holes the last one left, and the peak
    # RSS creeps up by tens of MB over the commands.
    trim = _malloc_trim()
    if trim is not None and size >= _TRIM_BYTES:
        trim(0)


def table_to_csv(header: list[str], columns: list, path: str) -> None:
    """Write the columns of a table as CSV lines under ``header``.

    A column of floats is written as ``repr`` of each value, like
    :func:`field_to_csv`, so its values must be finite.  A column of
    ``None`` is written as empty cells, and any other sequence as the
    ``str`` text of each value.  Lines are written in blocks of about 16k
    values; the float cells of a block's rows are rendered by one
    :func:`repr_bytes` call.  The tests hold the file byte for byte to
    the per-cell writer ``tests/oracles.py::rows_to_csv``.
    """
    arrays = [None if c is None else np.asarray(c) for c in columns]
    n = len(next(a for a in arrays if a is not None))
    rows = max(1, _CSV_BLOCK // len(arrays))
    with _atomic_file(path) as fh:
        fh.write(bytes(",".join(header) + "\n", "utf-8"))
        for i in range(0, n, rows):
            m = min(rows, n - i)
            block = [None if a is None else a[i : i + m] for a in arrays]
            floats = [a for a in block if a is not None and a.dtype.kind == "f"]
            text = repr_bytes(np.concatenate(floats)) if floats else None
            cells = []
            for a in block:
                if a is None:
                    a = np.zeros((m, 0), np.uint8)
                elif a.dtype.kind == "f":
                    a, text = text[:m], text[m:]
                else:
                    a = a.astype("S")
                    a = a.view(np.uint8).reshape(m, a.itemsize)
                cells.append(a)
            fh.write(_csv_lines(cells, (m,)))


def field_summary(field: WignerField) -> dict:
    """Compact JSON-ready description of a sampled field."""
    return {
        "nx": field.grid.nx,
        "np": field.grid.np,
        "x_min": field.grid.x_min,
        "x_max": field.grid.x_max,
        "p_min": field.grid.p_min,
        "p_max": field.grid.p_max,
        "min": float(field.values.min()),
        "max": float(field.values.max()),
        "integral": integrate_2d(field),
    }
