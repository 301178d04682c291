"""Command-line interface for phase-space state analysis.

Subcommands
-----------
wigner
    Sample a Wigner function (closed form or defining integral) to CSV/JSON.
tiles
    Measure the interference zero-line lattice and tile areas.
sensitivity
    Map the displacement overlap and locate the orthogonality point.
decohere
    Attenuation of interference under an Ohmic high-temperature bath.
kerr
    Evolve a coherent state with a Kerr Hamiltonian and count components.
compare
    Orthogonality-displacement comparison of the cat mixture and compass state.

All numeric options can also be supplied through ``--config FILE``
(flat JSON object keyed by option name); explicit command-line flags
win over config values, which win over built-in defaults.  Outputs are
written atomically into ``--out`` with deterministic formatting.

Exit codes: 0 success; 2 usage or configuration error; 3 numeric
validation failure (truncation, lattice or search failures, or a
floating-point overflow, division by zero or invalid operation at
extreme magnitudes; underflow passes); 4 resolution or coverage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from subplanck.core import (
    CoverageError,
    InvalidFieldError,
    Quadrature,
    ResolutionError,
    SearchError,
    UnitSystem,
    field_summary,
    field_to_csv,
    linspace_grid,
    table_to_csv,
    write_json,
)
from subplanck.decoherence import (
    BathParams,
    attenuation_curve,
    decoherence_time,
    tau_formula_momentum,
    tau_formula_position,
)
from subplanck.interference import (
    LatticeError,
    checkerboard_report,
    find_zero_lattice,
    lattice_report,
)
from subplanck.metrology import (
    SensitivityResult,
    find_orthogonality,
    overlap_closed,
    overlap_reference,
)
from subplanck.states import (
    NoDecompositionError,
    TruncationError,
    kerr_component_count,
    kerr_evolve,
    make_cat_momentum,
    make_cat_position,
    make_compass,
    make_mixed,
    state_to_json,
)
from subplanck.wigner import (
    check_coverage,
    wigner_closed,
    wigner_closed_eval,
    wigner_transform,
)


class ConfigError(Exception):
    """The configuration file is unreadable or holds unknown keys."""


class _Parser(argparse.ArgumentParser):
    """Raises parse errors as :class:`ConfigError`, so they exit 2 with the
    JSON error line instead of argparse's usage text."""

    def error(self, message: str):
        raise ConfigError(message)


# Caps on the counts that size arrays: each keeps its largest array within
# 134 MB, save --nt's at 176 MB.
_MAX_FIELD_POINTS = 2**24  # wigner samples: one float array
_MAX_OVERLAP_POINTS = 2**19  # displacements: 4 x 4 complex packet-pair terms each
_MAX_TIMES = 2**20  # decohere times: 21 floats each in the series bracket's power table
_MAX_SAMPLES = 2**23  # Husimi samples: one complex FFT
_MAX_TILES = 512  # tile extent: 10 complex pair terms per checked center


# --state: the state's builder from the parsed --x0, --p0 and --sigma
_STATES = {
    "cat-position": lambda a, units: make_cat_position(a.x0, a.sigma, units),
    "cat-momentum": lambda a, units: make_cat_momentum(a.p0, a.sigma, units),
    "mixed": lambda a, units: make_mixed(
        make_cat_position(a.x0, a.sigma, units), make_cat_momentum(a.p0, a.sigma, units)
    ),
    "compass": lambda a, units: make_compass(a.x0, a.p0, a.sigma, units),
}


# Options of every subcommand, after -h, in the order of the help text:
# (flag, add_argument keywords), then for a ranged option "positive" or
# "non-negative" and, for a count that sizes arrays, its cap.
_COMMON = (
    ("--config", dict(type=str, default=None, help="JSON file with option defaults")),
    ("--out", dict(type=str, default=".", help="output directory")),
    ("--hbar", dict(type=float, default=1.0, help="value of hbar")),
    ("--threads", dict(type=int, default=1, help="accepted for compatibility; has no effect"),
     "positive"),
    ("--format", dict(choices=("csv", "json", "both"), default="both", help="artifact formats")),
)
_PACKETS = (
    ("--x0", dict(type=float, default=4.5)),
    ("--p0", dict(type=float, default=10.0)),
    ("--sigma", dict(type=float, default=0.5)),
)
_TWO_STATES = (("--state", dict(choices=("mixed", "compass"), default="mixed")), *_PACKETS)
# subcommand: (help, options after the common ones)
_OPTIONS = {
    "wigner": ("sample a Wigner function", (
        ("--state", dict(choices=tuple(_STATES), default="mixed")),
        *_PACKETS,
        ("--x-half", dict(type=float, default=None, help="window half-width in x")),
        ("--p-half", dict(type=float, default=None, help="window half-width in p")),
        ("--nx", dict(type=int, default=201)),
        ("--np", dict(type=int, default=201, dest="np_")),
        ("--method", dict(choices=("closed", "integral"), default="closed")),
        ("--rule", dict(choices=("trapezoid", "simpson", "gauss-hermite"), default="trapezoid")),
        ("--order", dict(type=int, default=64, help="Gauss-Hermite order, 16 to 1024")),
    )),
    "tiles": ("measure interference tiles", (
        *_TWO_STATES,
        ("--window-x", dict(type=float, default=None, help="half-width of the scan (default x0/2)")),
        ("--window-p", dict(type=float, default=None, help="half-width of the scan (default p0/2)")),
        ("--nx", dict(type=int, default=257)),
        ("--np", dict(type=int, default=257, dest="np_")),
        ("--threshold", dict(type=float, default=1e-3, help="relative touch depth"), "positive"),
        ("--kmax", dict(type=int, default=3), "non-negative", _MAX_TILES),
        ("--mmax", dict(type=int, default=3), "non-negative", _MAX_TILES),
    )),
    "sensitivity": ("displacement overlap scan", (
        *_TWO_STATES,
        ("--d1-max", dict(type=float, default=None, help="scan extent (default 1.5 pi hbar/x0)")),
        ("--d2-max", dict(type=float, default=None, help="scan extent (default 1.5 pi hbar/p0)")),
        # their product is capped in the command
        ("--n1", dict(type=int, default=25), "positive"),
        ("--n2", dict(type=int, default=25), "positive"),
        ("--tol", dict(type=float, default=0.02, help="orthogonality threshold")),
        ("--n-scan", dict(type=int, default=601, help="search scan samples"), "positive",
         _MAX_OVERLAP_POINTS),
        ("--no-search", dict(action="store_true", help="skip the orthogonality search")),
    )),
    "decohere": ("bath attenuation of interference", (
        ("--kind", dict(choices=("position", "momentum"), default="position")),
        ("--offset", dict(type=float, default=None, help="packet offset (default 4.5 / 10.0)"),
         "positive"),
        ("--sigma", dict(type=float, default=0.5), "positive"),
        ("--mass", dict(type=float, default=1.0)),
        ("--gamma", dict(type=float, default=0.1)),
        ("--temperature", dict(type=float, default=10.0)),
        ("--t-max", dict(type=float, default=None, help="curve extent (default 4x crossing)"),
         "non-negative"),
        ("--nt", dict(type=int, default=81), "positive", _MAX_TIMES),
    )),
    "kerr": ("Kerr evolution component count", (
        ("--alpha-re", dict(type=float, default=3.0)),
        ("--alpha-im", dict(type=float, default=0.0)),
        ("--kappa-t", dict(type=float, default=math.pi / 2)),
        # kerr_evolve caps it at 4 times the cutoff its amplitude needs
        ("--cutoff", dict(type=int, default=None), "non-negative"),
        ("--radius", dict(type=float, default=None, help="Husimi scan radius (default |alpha|)"),
         "non-negative"),
        ("--samples", dict(type=int, default=2880), "positive", _MAX_SAMPLES),
    )),
    "compare": ("mixed vs compass sensitivity", (
        *_PACKETS,
        ("--tol", dict(type=float, default=0.02)),
        ("--n-scan", dict(type=int, default=601), "positive", _MAX_OVERLAP_POINTS),
    )),
}


def _build_parser(
    command: str | None = None,
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by name: only ``command``'s,
    or all six when ``command`` is None.

    A subcommand parses and reports errors alike whichever others are
    built; only the top-level help and an unknown or missing command need
    them all.  The parser is built afresh for every call, as
    :func:`_apply_config` sets a call's config values as its defaults.
    """
    parser = _Parser(prog="subplanck", description="Phase-space interference analysis tools")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}
    for name, (summary, options) in _OPTIONS.items():
        if command in (None, name):
            registry[name] = sub.add_parser(name, help=summary)
            for flag, kwargs, *_ in (*_COMMON, *options):
                registry[name].add_argument(flag, **kwargs)
    return parser, registry


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _apply_config(
    path: str, parser: argparse.ArgumentParser, sub: argparse.ArgumentParser, argv: list[str]
) -> argparse.Namespace:
    """Parse ``argv`` again with the checked config values as the
    subcommand's defaults, so that argparse lets an explicit flag win in
    any spelling it accepts (``--sigma 0.4``, ``--sigma=0.4``, ``--sig 0.4``)."""
    config = _load_config(path)
    # map option names, with their dashes read as underscores, to their actions
    by_name = {}
    for a in sub._actions:
        for opt in a.option_strings:
            by_name[opt.lstrip("-").replace("-", "_")] = a
    values = {}
    for key, value in config.items():
        action = by_name.get(key.replace("-", "_"))
        if action is None or action.dest == "help":
            raise ConfigError(f"unknown config key {key!r} for this command")
        values[action.dest] = _config_value(action, key, value)
    sub.set_defaults(**values)
    return parser.parse_args(argv)


def _config_value(action: argparse.Action, key: str, value):
    """``value`` checked against the type and choices of its option.

    JSON types must match exactly (no bool for a number, no float for an
    int); integers are accepted for float options and converted, as the
    command line would.  ``null`` is accepted where the default is None.
    """
    if value is None and action.default is None:
        return None
    if action.nargs == 0:
        kind, ok = "a boolean", isinstance(value, bool)
    elif action.type is float:
        kind = "a number"
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        value = float(value) if ok else value
    elif action.type is int:
        kind, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    else:
        kind, ok = "a string", isinstance(value, str)
    if not ok:
        raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r} must be one of {list(action.choices)}, got {value!r}")
    return value


def _dest(flag: str, kwargs: dict) -> str:
    return kwargs.get("dest", flag[2:].replace("-", "_"))


def _check_values(args: argparse.Namespace) -> None:
    """Reject nan and inf in every float option, from flags or config, and
    every value outside its option's range in the table, in help order,
    before any work.  ``None`` stands for a computed default and passes."""
    for flag, kwargs, *bounds in (*_COMMON, *_OPTIONS[args.command][1]):
        value = getattr(args, _dest(flag, kwargs))
        if value is None:
            continue
        if kwargs.get("type") is float and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
        if bounds and not (value > 0 if bounds[0] == "positive" else value >= 0):
            raise ConfigError(f"{flag} must be {bounds[0]}, got {value}")
        if len(bounds) > 1 and value > bounds[1]:
            raise ConfigError(f"{flag} must not exceed {bounds[1]}, got {value}")


def _write_outputs(args, name: str, payload: dict, write_csv=None) -> None:
    """Write ``payload`` as JSON and, unless ``--format json``, call
    ``write_csv(path)`` for the CSV, if the command writes one."""
    os.makedirs(args.out, exist_ok=True)
    write_json(payload, os.path.join(args.out, f"{name}.json"))
    if write_csv is not None and args.format in ("csv", "both"):
        write_csv(os.path.join(args.out, f"{name}.csv"))


def _params_echo(args) -> dict:
    # hbar and the command's own options with a default in the table, so no
    # store_true flag; --threads has no effect, and the artifacts must stay
    # byte-identical whatever value it is given
    out = {"hbar": args.hbar}
    for flag, kwargs, *_ in _OPTIONS[args.command][1]:
        if kwargs.get("default") is not None:
            out[flag[2:].replace("-", "_")] = getattr(args, _dest(flag, kwargs))
    return out


def _cmd_wigner(args, units: UnitSystem) -> None:
    quadrature = Quadrature(rule=args.rule, order=args.order)  # --order is echoed for every method
    state = _STATES[args.state](args, units)
    x_half = args.x_half if args.x_half is not None else args.x0 + 8 * args.sigma
    p_half = args.p_half if args.p_half is not None else args.p0 + 4 * units.hbar / args.sigma
    grid = linspace_grid(x_half, p_half, args.nx, args.np_)
    if args.nx * args.np_ > _MAX_FIELD_POINTS:
        raise ConfigError(f"--nx * --np must not exceed {_MAX_FIELD_POINTS}, got {args.nx * args.np_}")
    if args.method == "integral":
        check_coverage(state, grid, units)
        field = wigner_transform(state, grid, units, quadrature)
    else:
        field = wigner_closed(state, grid, units)
    payload = {
        "params": _params_echo(args),
        "state": state_to_json(state),
        "summary": field_summary(field),
    }
    _write_outputs(args, "wigner", payload, lambda path: field_to_csv(field, path))


def _cmd_tiles(args, units: UnitSystem) -> None:
    state = _STATES[args.state](args, units)
    wx = args.window_x if args.window_x is not None else args.x0 / 2
    wp = args.window_p if args.window_p is not None else args.p0 / 2
    grid = linspace_grid(wx, wp, args.nx, args.np_)

    def evaluator(x, p):
        return wigner_closed_eval(state, x, p, units)

    lattice = find_zero_lattice(grid, evaluator, threshold=args.threshold)
    predicted = math.pi**2 * units.hbar**2 / (16 * args.x0 * args.p0)
    report = lattice_report(lattice, units, predicted_area=predicted)
    checker = checkerboard_report(evaluator, lattice, kmax=args.kmax, mmax=args.mmax)
    payload = {
        "params": _params_echo(args),
        "lattice": report,
        "checkerboard": checker,
        "touches": {
            "x_first": lattice.x_touch_first,
            "p_first": lattice.p_touch_first,
            "p_offset_row": lattice.p_offset_row,
            "x_offset_col": lattice.x_offset_col,
        },
    }
    xs, ps = lattice.x_lines.tolist(), lattice.p_lines.tolist()
    touches = {"x_touch": lattice.x_touch_first, "p_touch": lattice.p_touch_first}
    touches = {family: value for family, value in touches.items() if value is not None}
    columns = [
        ["x_line"] * len(xs) + ["p_line"] * len(ps) + list(touches),
        [*range(len(xs)), *range(len(ps)), *[0] * len(touches)],
        [*xs, *ps, *touches.values()],
    ]
    _write_outputs(args, "tiles", payload,
                   lambda path: table_to_csv(["family", "index", "position"], columns, path))


def _bracket(args, units: UnitSystem) -> tuple[float, float]:
    """Scan extents of the two displacement axes: 1.5 pi hbar over the
    state's separation along the other axis."""
    return 1.5 * math.pi * units.hbar / args.x0, 1.5 * math.pi * units.hbar / args.p0


def _search(state, args, units: UnitSystem) -> SensitivityResult:
    """Orthogonality search on the exact overlap within :func:`_bracket`."""
    return find_orthogonality(lambda d1, d2: overlap_closed(state, d1, d2, units),
                              *_bracket(args, units), tol=args.tol, n_scan=args.n_scan)


def _cmd_sensitivity(args, units: UnitSystem) -> None:
    if args.n1 * args.n2 > _MAX_OVERLAP_POINTS:
        raise ConfigError(f"--n1 * --n2 must not exceed {_MAX_OVERLAP_POINTS}, got {args.n1 * args.n2}")
    state = _STATES[args.state](args, units)
    bracket = _bracket(args, units)
    d1_max = args.d1_max if args.d1_max is not None else bracket[0]
    d2_max = args.d2_max if args.d2_max is not None else bracket[1]
    d1s, d2s = np.meshgrid(
        np.linspace(0.0, d1_max, args.n1), np.linspace(0.0, d2_max, args.n2), indexing="ij"
    )
    numeric = overlap_closed(state, d1s, d2s, units)
    if args.state == "mixed":
        reference = overlap_reference(d1s, d2s, args.x0, args.p0, args.sigma, units).ravel()
    else:
        reference = None
    columns = [d1s.ravel(), d2s.ravel(), numeric.ravel(), reference]
    payload: dict = {
        "params": _params_echo(args),
        # the map's first row is the zero displacement: one evaluation
        # gives both, so they agree bit for bit
        "overlap_at_zero": float(numeric.flat[0]),
        "scan": {"d1_max": d1_max, "d2_max": d2_max},
    }
    if not args.no_search:
        payload["orthogonality"] = dataclasses.asdict(_search(state, args, units))
    header = ["delta1", "delta2", "overlap_numeric", "overlap_reference"]
    _write_outputs(args, "sensitivity", payload, lambda path: table_to_csv(header, columns, path))


def _cmd_decohere(args, units: UnitSystem) -> None:
    bath = BathParams(mass=args.mass, gamma=args.gamma, temperature=args.temperature)
    offset = args.offset if args.offset is not None else (4.5 if args.kind == "position" else 10.0)
    taus = {}
    for threshold in (0.5, 1.0, 2.0):
        taus[f"threshold_{threshold!r}"] = decoherence_time(
            bath, offset, args.sigma, units, kind=args.kind, threshold=threshold
        )
    t_max = args.t_max if args.t_max is not None else 4 * taus["threshold_1.0"]
    times = np.linspace(0.0, t_max, args.nt)
    columns = attenuation_curve(bath, offset, args.sigma, times, units, kind=args.kind)
    if args.kind == "position":
        tau_linear = tau_formula_position(bath, offset, units)
    else:
        tau_linear = tau_formula_momentum(bath, offset, args.sigma, units)
    payload = {
        "params": _params_echo(args) | {"offset": offset, "t_max": t_max},
        "decoherence_times": taus,
        "tau_linear_estimate": tau_linear,
    }
    _write_outputs(args, "decohere", payload,
                   lambda path: table_to_csv(["t", "attenuation", "visibility"], columns, path))


def _cmd_kerr(args, units: UnitSystem) -> None:
    alpha = complex(args.alpha_re, args.alpha_im)
    state = kerr_evolve(alpha, args.kappa_t, cutoff=args.cutoff)
    radius = args.radius if args.radius is not None else abs(alpha)
    count = kerr_component_count(state, radius, samples=args.samples)
    payload = {
        "params": _params_echo(args) | {"radius": radius},
        "cutoff_used": state.cutoff,
        "component_count": count,
        "norm": float(np.linalg.norm(state.amplitudes)),
    }
    _write_outputs(args, "kerr", payload)


def _cmd_compare(args, units: UnitSystem) -> None:
    mixed, compass = (_search(_STATES[name](args, units), args, units) for name in ("mixed", "compass"))
    payload = {
        "params": _params_echo(args),
        "mixed": dataclasses.asdict(mixed),
        "compass": dataclasses.asdict(compass),
        "product_ratio": mixed.product / compass.product,
    }
    _write_outputs(args, "compare", payload)


_COMMANDS = {
    "wigner": _cmd_wigner,
    "tiles": _cmd_tiles,
    "sensitivity": _cmd_sensitivity,
    "decohere": _cmd_decohere,
    "kerr": _cmd_kerr,
    "compare": _cmd_compare,
}

_EXIT_CODES = (
    (2, (ConfigError, ValueError)),
    (3, (InvalidFieldError, TruncationError, LatticeError, SearchError, NoDecompositionError,
         ArithmeticError)),
    (4, (ResolutionError, CoverageError)),
)


def _fail(exc: Exception) -> int:
    for code, kinds in _EXIT_CODES:
        if isinstance(exc, kinds):
            message = {
                "error": {"code": code, "kind": type(exc).__name__, "message": str(exc)}
            }
            print(json.dumps(message, sort_keys=True), file=sys.stderr)
            return code
    raise exc


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _build_parser(argv[0] if argv and argv[0] in _OPTIONS else None)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _apply_config(args.config, parser, registry[args.command], argv)
        _check_values(args)
        units = UnitSystem(hbar=args.hbar)
        # a non-finite intermediate is a failed computation, not a result:
        # FloatingPointError is an ArithmeticError and exits 3
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _COMMANDS[args.command](args, units)
    except Exception as exc:  # noqa: BLE001 - single funnel to exit codes
        return _fail(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
