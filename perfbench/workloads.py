"""Seeded workload generator and per-operation output checks.

A workload is a fixed list of commands, run in passes; one operation is
one ``subplanck.cli.main(argv)`` call.  The seed draws the state parameters
``(x0, p0, sigma)`` from a band of +-BAND around the defaults
``(4.5, 10, 0.5)``; the program receives only the generated argv.  Every
operation carries a check that compares its artifacts with an analytic
reference (or an independent oracle) and returns the worst relative
error, or raises :class:`CheckError`.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BAND = 0.05
HBAR = 1.0

# Check tolerances, fixed from the accuracy each route is documented to
# reach (spectrally convergent trapezoid sums, Brent polish to 1e-13),
# with a wide margin; they are never widened to let a draw pass.
TOL_PRODUCT = 1e-6  # search product vs pi^2 hbar^2 / (4 x0 p0)
TOL_O00 = 1e-8  # overlap at zero vs Tr(rho^2) / (2 pi hbar)
TOL_NORM = 1e-8  # Wigner integral vs 1
TOL_ROUTES = 1e-6  # quadrature vs closed form, relative to max |W|
TOL_TILE = 1e-6  # tile area vs pi^2 hbar^2 / (16 x0 p0)
TOL_DECOHERE = 1e-9  # A(t*) from the independent oracle vs the threshold

SEARCH_N_SCAN = 11
SEARCH_MAP = 3  # n1 = n2 for the map `sensitivity` writes before searching
# Three map densities (an odd count of operations, so the median latency
# is one operation's median rather than the mean of two neighbours).
SCAN_MAP = (("mixed", 12), ("compass", 14), ("mixed", 24))
SCAN_THREADS = 2
FIELDS_CLOSED_N = 601
# Quadrature grids share nodes with the closed-form grid: every third node
# for the trapezoid route, every fifth for Gauss-Hermite.  Gauss-Hermite
# costs ~ n^2 * order and needs ~384 nodes to converge at cat-scale
# separations (at its default 64 the Wigner integral comes out near -0.47),
# so it runs on the coarser grid.
FIELDS_INTEGRAL = {"trapezoid": (201, 64), "gauss-hermite": (121, 384)}
TILES_MIN_N = 257
TILES_NODES_PER_GAP = 8  # find_zero_lattice's resolution gate
TILES_MARGIN = 1.25


# Operation i of a pass writes its artifacts to OP_DIR.format(i) inside
# the pass directory; checks that compare with an earlier operation of the
# same pass find its artifacts there.
OP_DIR = "op{}"
CLOSED_DIR = OP_DIR.format(0)


class CheckError(Exception):
    """An artifact disagrees with its reference."""


@dataclass
class Op:
    """One CLI call: ``argv`` (without ``--out``) and its output check."""

    name: str
    argv: list[str]
    check: Callable[[Path], float] = field(repr=False)


@dataclass(frozen=True)
class Draw:
    x0: float
    p0: float
    sigma: float

    def argv(self) -> list[str]:
        return ["--x0", repr(self.x0), "--p0", repr(self.p0), "--sigma", repr(self.sigma)]


def _draw(rng: random.Random) -> Draw:
    def around(v: float) -> float:
        return v * (1 + rng.uniform(-BAND, BAND))

    return Draw(around(4.5), around(10.0), around(0.5))


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=2)
def _parse_csv(path: Path, mtime_ns: int) -> tuple[list[str], np.ndarray]:
    text = path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    names = header.split(",")
    cells = body.rstrip("\n").replace("\n", ",").split(",")
    if "" in cells:
        cells = [c or "nan" for c in cells]
    return names, np.array(cells, dtype=float).reshape(-1, len(names))


def _load_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV artifact (empty cells become NaN).

    The last two files read are cached, so the closed-form field that
    the quadrature checks compare against is parsed once per pass.
    """
    return _parse_csv(path, path.stat().st_mtime_ns)


# -- checks ---------------------------------------------------------------
def _product_err(result: dict, d: Draw, label: str) -> float:
    target = math.pi**2 * HBAR**2 / (4 * d.x0 * d.p0)
    _require(result["achieved"], f"{label}: orthogonality not achieved")
    err = _rel(result["product"], target)
    _require(err <= TOL_PRODUCT, f"{label}: product {result['product']!r} vs {target!r}")
    return err


def _check_compare(d: Draw):
    def check(out: Path) -> float:
        doc = _load_json(out / "compare.json")
        errs = [_product_err(doc[k], d, k) for k in ("mixed", "compass")]
        ratio_err = abs(doc["product_ratio"] - 1.0)
        _require(ratio_err <= TOL_PRODUCT, f"product_ratio {doc['product_ratio']!r}")
        return max(errs + [ratio_err])

    return check


def _o00_reference(state: str) -> float:
    # O(0, 0) = Tr(rho^2) / (2 pi hbar): the compass is pure, the mixture
    # of two orthogonal-support cats has purity 1/2.
    return 1 / (4 * math.pi * HBAR) if state == "mixed" else 1 / (2 * math.pi * HBAR)


def _check_sensitivity(d: Draw, state: str, n: int, search: bool):
    def check(out: Path) -> float:
        doc = _load_json(out / "sensitivity.json")
        err = _rel(doc["overlap_at_zero"], _o00_reference(state))
        _require(err <= TOL_O00, f"overlap_at_zero {doc['overlap_at_zero']!r}")
        names, rows = _load_csv(out / "sensitivity.csv")
        _require(rows.shape[0] == n * n, f"map has {rows.shape[0]} rows, want {n * n}")
        numeric = rows[:, names.index("overlap_numeric")]
        _require(bool(np.all(np.isfinite(numeric))), "non-finite overlap in the map")
        _require(numeric[0] == doc["overlap_at_zero"], "map origin differs from overlap_at_zero")
        errs = [err]
        if search:
            errs.append(_product_err(doc["orthogonality"], d, state))
        return max(errs)

    return check


def _check_wigner(n: int, closed_dir: str | None, csv: bool = True):
    """Normalisation and finiteness; an artifact set without CSV must
    match the closed-form summary exactly, and a quadrature route must
    agree with the closed-form CSV on the shared nodes."""

    def check(out: Path) -> float:
        summary = _load_json(out / "wigner.json")["summary"]
        norm_err = abs(summary["integral"] - 1.0)
        _require(norm_err <= TOL_NORM, f"Wigner integral {summary['integral']!r}")
        if not csv:
            reference = _load_json(out.parent / closed_dir / "wigner.json")["summary"]
            _require(summary == reference, "summary differs from the closed-form run")
            return norm_err
        _, rows = _load_csv(out / "wigner.csv")
        _require(rows.shape[0] == n * n, f"field has {rows.shape[0]} rows, want {n * n}")
        w = rows[:, 2]
        _require(bool(np.all(np.isfinite(w))), "non-finite Wigner sample")
        _require(w.max() == summary["max"], "CSV max differs from the summary")
        if closed_dir is None:
            return norm_err
        _, closed = _load_csv(out.parent / closed_dir / "wigner.csv")
        m = int(round(math.sqrt(closed.shape[0])))
        step = (m - 1) // (n - 1)
        shared = closed[:, 2].reshape(m, m)[::step, ::step].ravel()
        route_err = float(np.max(np.abs(w - shared)) / np.max(np.abs(shared)))
        _require(route_err <= TOL_ROUTES, f"quadrature vs closed form: {route_err:.3e}")
        return max(norm_err, route_err)

    return check


def _check_tiles(d: Draw):
    def check(out: Path) -> float:
        lattice = _load_json(out / "tiles.json")["lattice"]
        target = math.pi**2 * HBAR**2 / (16 * d.x0 * d.p0)
        area = lattice["tile_area_measured"]
        _require(area is not None, "no tile area measured")
        err = _rel(area, target)
        _require(err <= TOL_TILE, f"tile area {area!r} vs {target!r}")
        return err

    return check


def _check_decohere(kind: str, offset: float, sigma: float, gamma: float, temperature: float):
    def check(out: Path) -> float:
        from subplanck.core import UnitSystem
        from subplanck.decoherence import BathParams, attenuation_numeric

        doc = _load_json(out / "decohere.json")
        bath = BathParams(mass=1.0, gamma=gamma, temperature=temperature)
        worst = 0.0
        for key, t in doc["decoherence_times"].items():
            threshold = float(key.removeprefix("threshold_"))
            a = attenuation_numeric(bath, t, offset, sigma, UnitSystem(hbar=HBAR), kind=kind)
            err = _rel(a, threshold)
            _require(err <= TOL_DECOHERE, f"{key}: oracle A = {a!r}")
            worst = max(worst, err)
        return worst

    return check


def _check_kerr(expected: int):
    def check(out: Path) -> float:
        count = _load_json(out / "kerr.json")["component_count"]
        _require(count == expected, f"component_count {count}, want {expected}")
        return 0.0

    return check


# -- workloads -------------------------------------------------------------
def _search(rng: random.Random) -> list[Op]:
    """The orthogonality search: ROADMAP's hot path."""
    common = ["--threads", "1", "--n-scan", str(SEARCH_N_SCAN)]
    mapsize = ["--n1", str(SEARCH_MAP), "--n2", str(SEARCH_MAP)]
    ops = []
    d = _draw(rng)
    ops.append(Op("compare", ["compare", *d.argv(), *common], _check_compare(d)))
    for state in ("mixed", "compass"):
        d = _draw(rng)
        argv = ["sensitivity", "--state", state, *d.argv(), *mapsize, *common]
        ops.append(Op(f"sensitivity-{state}", argv, _check_sensitivity(d, state, SEARCH_MAP, True)))
    return ops


def _tiles_n(d: Draw) -> int:
    # Lines of each family are pi hbar / (2 p0) (resp. / (2 x0)) apart and
    # the default windows are x0/2 and p0/2, so the gate needs
    # n - 1 >= 16 x0 p0 / (pi hbar) nodes per axis.
    need = TILES_NODES_PER_GAP * 2 * d.x0 * d.p0 / (math.pi * HBAR) * TILES_MARGIN
    n = max(TILES_MIN_N, math.ceil(need) + 1)
    return n + (1 - n % 2)


def _fields(rng: random.Random) -> list[Op]:
    """Closed-form and quadrature Wigner routes, tiles, bath and Kerr."""
    d = _draw(rng)
    common = ["--threads", "1", "--format", "both"]
    nc = str(FIELDS_CLOSED_N)
    ops = [
        Op("wigner-closed", ["wigner", *d.argv(), "--nx", nc, "--np", nc, *common],
           _check_wigner(FIELDS_CLOSED_N, None)),
        # The same field without the CSV: the difference is the writer.
        Op("wigner-closed-json",
           ["wigner", *d.argv(), "--nx", nc, "--np", nc, "--threads", "1", "--format", "json"],
           _check_wigner(FIELDS_CLOSED_N, CLOSED_DIR, csv=False)),
    ]
    for rule, (n, order) in FIELDS_INTEGRAL.items():
        argv = ["wigner", "--method", "integral", "--rule", rule, "--order", str(order),
                *d.argv(), "--nx", str(n), "--np", str(n), *common]
        ops.append(Op(f"wigner-{rule}", argv, _check_wigner(n, CLOSED_DIR)))
    n = str(_tiles_n(d))
    ops.append(Op("tiles", ["tiles", "--state", "mixed", *d.argv(), "--nx", n, "--np", n, *common],
                  _check_tiles(d)))
    gamma = 0.1 * (1 + rng.uniform(-BAND, BAND))
    temperature = 10.0 * (1 + rng.uniform(-BAND, BAND))
    for kind, offset in (("position", d.x0), ("momentum", d.p0)):
        argv = ["decohere", "--kind", kind, "--offset", repr(offset), "--sigma", repr(d.sigma),
                "--gamma", repr(gamma), "--temperature", repr(temperature), *common]
        ops.append(Op(f"decohere-{kind}", argv,
                      _check_decohere(kind, offset, d.sigma, gamma, temperature)))
    alpha = 3.0 * (1 + rng.uniform(-BAND, BAND))
    # kerr_evolve uses H = (hbar kappa / 2) n^2, so kappa t = pi / m
    # splits the coherent state into 2m components.
    for kappa_t, expected in ((math.pi / 2, 4), (math.pi / 4, 8)):
        argv = ["kerr", "--alpha-re", repr(alpha), "--kappa-t", repr(kappa_t), *common]
        ops.append(Op(f"kerr-{expected}", argv, _check_kerr(expected)))
    return ops


def _scan_map(rng: random.Random) -> list[Op]:
    """Independent overlap evaluations in bulk, on a thread pool."""
    ops = []
    for state, n in SCAN_MAP:
        d = _draw(rng)
        argv = ["sensitivity", "--no-search", "--state", state, *d.argv(),
                "--n1", str(n), "--n2", str(n), "--threads", str(SCAN_THREADS)]
        ops.append(Op(f"map-{state}-{n}", argv, _check_sensitivity(d, state, n, False)))
    return ops


WORKLOADS = {"search": _search, "fields": _fields, "scan-map": _scan_map}


def build(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The operations of pass ``pass_index`` of ``workload`` for ``seed``.

    Every pass runs the same commands; each pass draws its own
    parameters, so a run's medians average over several draws.
    """
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{pass_index}"))
