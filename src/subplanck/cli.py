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
    UnitSystem,
    _format_float,
    field_summary,
    field_to_csv,
    linspace_grid,
    write_json,
    write_text_atomic,
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
    SearchError,
    compare_with_compass,
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


_STATE_CHOICES = ("cat-position", "cat-momentum", "mixed", "compass")
_MAX_FIELD_POINTS = 2**24  # wigner samples: 134 MB per float array


def _build_state(name: str, x0: float, p0: float, sigma: float, units: UnitSystem):
    if name == "cat-position":
        return make_cat_position(x0, sigma, units)
    if name == "cat-momentum":
        return make_cat_momentum(p0, sigma, units)
    if name == "mixed":
        return make_mixed(make_cat_position(x0, sigma, units), make_cat_momentum(p0, sigma, units))
    if name == "compass":
        return make_compass(x0, p0, sigma, units)
    raise ConfigError(f"unknown state {name!r}")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = _Parser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON file with option defaults")
    common.add_argument("--out", type=str, default=".", help="output directory")
    common.add_argument("--hbar", type=float, default=1.0, help="value of hbar")
    common.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    common.add_argument(
        "--format", choices=("csv", "json", "both"), default="both", help="artifact formats"
    )

    parser = _Parser(prog="subplanck", description="Phase-space interference analysis tools")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    w = sub.add_parser("wigner", parents=[common], help="sample a Wigner function")
    w.add_argument("--state", choices=_STATE_CHOICES, default="mixed")
    w.add_argument("--x0", type=float, default=4.5)
    w.add_argument("--p0", type=float, default=10.0)
    w.add_argument("--sigma", type=float, default=0.5)
    w.add_argument("--x-half", type=float, default=None, help="window half-width in x")
    w.add_argument("--p-half", type=float, default=None, help="window half-width in p")
    w.add_argument("--nx", type=int, default=201)
    w.add_argument("--np", type=int, default=201, dest="np_")
    w.add_argument("--method", choices=("closed", "integral"), default="closed")
    w.add_argument("--rule", choices=("trapezoid", "simpson", "gauss-hermite"), default="trapezoid")
    w.add_argument("--order", type=int, default=64, help="Gauss-Hermite order, 16 to 1024")
    registry["wigner"] = w

    t = sub.add_parser("tiles", parents=[common], help="measure interference tiles")
    t.add_argument("--state", choices=("mixed", "compass"), default="mixed")
    t.add_argument("--x0", type=float, default=4.5)
    t.add_argument("--p0", type=float, default=10.0)
    t.add_argument("--sigma", type=float, default=0.5)
    t.add_argument("--window-x", type=float, default=None, help="half-width of the scan (default x0/2)")
    t.add_argument("--window-p", type=float, default=None, help="half-width of the scan (default p0/2)")
    t.add_argument("--nx", type=int, default=257)
    t.add_argument("--np", type=int, default=257, dest="np_")
    t.add_argument("--threshold", type=float, default=1e-3, help="relative touch depth")
    t.add_argument("--kmax", type=int, default=3)
    t.add_argument("--mmax", type=int, default=3)
    registry["tiles"] = t

    s = sub.add_parser("sensitivity", parents=[common], help="displacement overlap scan")
    s.add_argument("--state", choices=("mixed", "compass"), default="mixed")
    s.add_argument("--x0", type=float, default=4.5)
    s.add_argument("--p0", type=float, default=10.0)
    s.add_argument("--sigma", type=float, default=0.5)
    s.add_argument("--d1-max", type=float, default=None, help="scan extent (default 1.5 pi hbar/x0)")
    s.add_argument("--d2-max", type=float, default=None, help="scan extent (default 1.5 pi hbar/p0)")
    s.add_argument("--n1", type=int, default=25)
    s.add_argument("--n2", type=int, default=25)
    s.add_argument("--tol", type=float, default=0.02, help="orthogonality threshold")
    s.add_argument("--n-scan", type=int, default=601, help="search scan samples")
    s.add_argument("--no-search", action="store_true", help="skip the orthogonality search")
    registry["sensitivity"] = s

    d = sub.add_parser("decohere", parents=[common], help="bath attenuation of interference")
    d.add_argument("--kind", choices=("position", "momentum"), default="position")
    d.add_argument("--offset", type=float, default=None, help="packet offset (default 4.5 / 10.0)")
    d.add_argument("--sigma", type=float, default=0.5)
    d.add_argument("--mass", type=float, default=1.0)
    d.add_argument("--gamma", type=float, default=0.1)
    d.add_argument("--temperature", type=float, default=10.0)
    d.add_argument("--t-max", type=float, default=None, help="curve extent (default 4x crossing)")
    d.add_argument("--nt", type=int, default=81)
    registry["decohere"] = d

    k = sub.add_parser("kerr", parents=[common], help="Kerr evolution component count")
    k.add_argument("--alpha-re", type=float, default=3.0)
    k.add_argument("--alpha-im", type=float, default=0.0)
    k.add_argument("--kappa-t", type=float, default=math.pi / 2)
    k.add_argument("--cutoff", type=int, default=None)
    k.add_argument("--radius", type=float, default=None, help="Husimi scan radius (default |alpha|)")
    k.add_argument("--samples", type=int, default=2880)
    registry["kerr"] = k

    c = sub.add_parser("compare", parents=[common], help="mixed vs compass sensitivity")
    c.add_argument("--x0", type=float, default=4.5)
    c.add_argument("--p0", type=float, default=10.0)
    c.add_argument("--sigma", type=float, default=0.5)
    c.add_argument("--tol", type=float, default=0.02)
    c.add_argument("--n-scan", type=int, default=601)
    registry["compare"] = c

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
    # map option names as written (with dashes) to their actions
    by_name = {}
    for a in sub._actions:
        for opt in a.option_strings:
            by_name[opt.lstrip("-")] = a
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


def _check_finite(args: argparse.Namespace, sub: argparse.ArgumentParser) -> None:
    """Reject nan and inf in every float option, from flags or config."""
    for action in sub._actions:
        value = getattr(args, action.dest, None)
        if action.type is float and value is not None and not math.isfinite(value):
            raise ConfigError(f"{action.option_strings[0]} must be finite, got {value}")


def _require_bounds(args: argparse.Namespace, positive=(), non_negative=()) -> None:
    """Reject out-of-range values before any work: counts that would leave
    an artifact empty, widths and offsets that would be divided by, and
    negative extents.  ``None`` stands for a computed default and passes."""
    for dests, rule, ok in ((positive, "positive", lambda v: v > 0),
                            (non_negative, "non-negative", lambda v: v >= 0)):
        for dest in dests:
            value = getattr(args, dest)
            if value is not None and not ok(value):
                raise ConfigError(f"--{dest.replace('_', '-')} must be {rule}, got {value}")


def _rows_to_csv(header: list[str], rows: list[tuple]) -> str:
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return _format_float(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_outputs(args, name: str, payload: dict, csv_text: str | None = None, csv_writer=None) -> None:
    os.makedirs(args.out, exist_ok=True)
    write_json(payload, os.path.join(args.out, f"{name}.json"))
    if args.format in ("csv", "both"):
        path = os.path.join(args.out, f"{name}.csv")
        if csv_writer is not None:
            csv_writer(path)
        elif csv_text is not None:
            write_text_atomic(path, csv_text)


def _params_echo(args, keys: list[str]) -> dict:
    # deliberately excludes --threads: the option is accepted for
    # compatibility and has no effect, and the artifacts must stay
    # byte-identical whatever value it is given
    out = {"hbar": args.hbar}
    for key in keys:
        out[key.rstrip("_")] = getattr(args, key)
    return out


def _cmd_wigner(args, units: UnitSystem) -> None:
    quadrature = Quadrature(rule=args.rule, order=args.order)  # --order is echoed for every method
    state = _build_state(args.state, args.x0, args.p0, args.sigma, units)
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
        "params": _params_echo(
            args, ["state", "x0", "p0", "sigma", "nx", "np_", "method", "rule", "order"]
        ),
        "state": state_to_json(state),
        "summary": field_summary(field),
    }
    _write_outputs(args, "wigner", payload, csv_writer=lambda path: field_to_csv(field, path))


def _cmd_tiles(args, units: UnitSystem) -> None:
    _require_bounds(args, positive=("threshold",), non_negative=("kmax", "mmax"))
    state = _build_state(args.state, args.x0, args.p0, args.sigma, units)
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
        "params": _params_echo(
            args, ["state", "x0", "p0", "sigma", "nx", "np_", "threshold", "kmax", "mmax"]
        ),
        "lattice": report,
        "checkerboard": checker,
        "touches": {
            "x_first": lattice.x_touch_first,
            "p_first": lattice.p_touch_first,
            "p_offset_row": lattice.p_offset_row,
            "x_offset_col": lattice.x_offset_col,
        },
    }
    rows: list[tuple] = []
    for i, v in enumerate(lattice.x_lines):
        rows.append(("x_line", i, float(v)))
    for i, v in enumerate(lattice.p_lines):
        rows.append(("p_line", i, float(v)))
    if lattice.x_touch_first is not None:
        rows.append(("x_touch", 0, lattice.x_touch_first))
    if lattice.p_touch_first is not None:
        rows.append(("p_touch", 0, lattice.p_touch_first))
    _write_outputs(args, "tiles", payload, _rows_to_csv(["family", "index", "position"], rows))


def _cmd_sensitivity(args, units: UnitSystem) -> None:
    _require_bounds(args, positive=("n1", "n2", "n_scan"))
    state = _build_state(args.state, args.x0, args.p0, args.sigma, units)
    d1_max = args.d1_max if args.d1_max is not None else 1.5 * math.pi * units.hbar / args.x0
    d2_max = args.d2_max if args.d2_max is not None else 1.5 * math.pi * units.hbar / args.p0
    d1s, d2s = np.meshgrid(
        np.linspace(0.0, d1_max, args.n1), np.linspace(0.0, d2_max, args.n2), indexing="ij"
    )
    numeric = overlap_closed(state, d1s, d2s, units)
    if args.state == "mixed":
        reference = overlap_reference(d1s, d2s, args.x0, args.p0, args.sigma, units).ravel().tolist()
    else:
        reference = [None] * d1s.size
    rows = list(zip(d1s.ravel().tolist(), d2s.ravel().tolist(), numeric.ravel().tolist(), reference))
    payload: dict = {
        "params": _params_echo(
            args,
            ["state", "x0", "p0", "sigma", "n1", "n2", "tol", "n_scan"],
        ),
        # the map's first row is the zero displacement: one evaluation
        # gives both, so they agree bit for bit
        "overlap_at_zero": rows[0][2],
        "scan": {"d1_max": d1_max, "d2_max": d2_max},
    }
    if not args.no_search:
        result = find_orthogonality(
            lambda d1, d2: overlap_closed(state, d1, d2, units),
            1.5 * math.pi * units.hbar / args.x0,
            1.5 * math.pi * units.hbar / args.p0,
            tol=args.tol,
            n_scan=args.n_scan,
        )
        payload["orthogonality"] = dataclasses.asdict(result)
    _write_outputs(
        args,
        "sensitivity",
        payload,
        _rows_to_csv(["delta1", "delta2", "overlap_numeric", "overlap_reference"], rows),
    )


def _cmd_decohere(args, units: UnitSystem) -> None:
    _require_bounds(args, positive=("nt", "sigma", "offset"), non_negative=("t_max",))
    bath = BathParams(mass=args.mass, gamma=args.gamma, temperature=args.temperature)
    offset = args.offset if args.offset is not None else (4.5 if args.kind == "position" else 10.0)
    taus = {}
    for threshold in (0.5, 1.0, 2.0):
        taus[f"threshold_{_format_float(threshold)}"] = decoherence_time(
            bath, offset, args.sigma, units, kind=args.kind, threshold=threshold
        )
    t_max = args.t_max if args.t_max is not None else 4 * taus["threshold_1.0"]
    times = np.linspace(0.0, t_max, args.nt)
    rows = attenuation_curve(bath, offset, args.sigma, times, units, kind=args.kind)
    if args.kind == "position":
        tau_linear = tau_formula_position(bath, offset, units)
    else:
        tau_linear = tau_formula_momentum(bath, offset, args.sigma, units)
    payload = {
        "params": _params_echo(
            args, ["kind", "sigma", "mass", "gamma", "temperature", "nt"]
        )
        | {"offset": offset, "t_max": t_max},
        "decoherence_times": taus,
        "tau_linear_estimate": tau_linear,
    }
    _write_outputs(args, "decohere", payload, _rows_to_csv(["t", "attenuation", "visibility"], rows))


def _cmd_kerr(args, units: UnitSystem) -> None:
    _require_bounds(args, positive=("samples",), non_negative=("cutoff", "radius"))
    alpha = complex(args.alpha_re, args.alpha_im)
    state = kerr_evolve(alpha, args.kappa_t, cutoff=args.cutoff)
    radius = args.radius if args.radius is not None else abs(alpha)
    count = kerr_component_count(state, radius, samples=args.samples)
    payload = {
        "params": _params_echo(args, ["alpha_re", "alpha_im", "kappa_t", "samples"])
        | {"radius": radius},
        "cutoff_used": state.cutoff,
        "component_count": count,
        "norm": float(np.linalg.norm(state.amplitudes)),
    }
    _write_outputs(args, "kerr", payload, None)


def _cmd_compare(args, units: UnitSystem) -> None:
    _require_bounds(args, positive=("n_scan",))
    mixed = _build_state("mixed", args.x0, args.p0, args.sigma, units)
    compass = _build_state("compass", args.x0, args.p0, args.sigma, units)
    result = compare_with_compass(
        mixed,
        compass,
        1.5 * math.pi * units.hbar / args.x0,
        1.5 * math.pi * units.hbar / args.p0,
        units,
        tol=args.tol,
        n_scan=args.n_scan,
    )
    payload = {
        "params": _params_echo(args, ["x0", "p0", "sigma", "tol", "n_scan"]),
        "mixed": dataclasses.asdict(result["mixed"]),
        "compass": dataclasses.asdict(result["compass"]),
        "product_ratio": result["product_ratio"],
    }
    _write_outputs(args, "compare", payload, None)


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
    parser, registry = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _apply_config(args.config, parser, registry[args.command], argv)
        if args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        _check_finite(args, registry[args.command])
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
