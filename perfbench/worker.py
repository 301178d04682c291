"""Run one workload in this process and print its raw measurements.

Usage (started by ``run.py``, one process per workload)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

Passes over the workload's operations repeat until ``--seconds`` of
operation time have been measured (at least three passes); each pass
draws its own parameters.  With ``--trace 1`` passes alternate between
traced and untraced on one draw, so the tracing overhead is measured in
the same process.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads
from layertrace import Tracer

MIN_PASSES = 3
SRC = Path(__file__).resolve().parent.parent / "src"


def _run_op(cli, op, out: Path, tracer: Tracer | None) -> tuple[float, str | None, float]:
    """Time one ``main(argv)`` call, traced if ``tracer`` is given, then
    check its artifacts untraced; return (seconds, failure, rel. error)."""
    out.mkdir(parents=True, exist_ok=True)
    argv = op.argv + ["--out", str(out)]
    stderr = io.StringIO()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception:  # noqa: BLE001 - a crash is a failed operation
        return time.perf_counter() - t0, traceback.format_exc(limit=3), 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, f"exit {code}: {stderr.getvalue().strip()}", 0.0
    try:
        return elapsed, None, op.check(out)
    except (workloads.CheckError, OSError, LookupError, ValueError, TypeError) as exc:
        return elapsed, f"check: {type(exc).__name__}: {exc}", 0.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="with --trace 1: write the spans here as JSON lines")
    args = ap.parse_args()

    import subplanck.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"subplanck imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    root = Path(args.out)
    tracer = Tracer() if args.trace else None
    passes: list[dict] = []
    failures: list[str] = []
    max_err = 0.0
    measured = 0.0
    try:
        while measured < args.seconds or len(passes) < MIN_PASSES:
            traced = tracer is not None and len(passes) % 2 == 0
            # Traced and untraced passes repeat one draw, so their
            # difference is the tracing overhead alone.
            ops = workloads.build(args.workload, args.seed, 0 if tracer else len(passes))
            op_s = []
            for i, op in enumerate(ops):
                if traced:
                    tracer.op = (len(passes), i)
                elapsed, failure, err = _run_op(
                    cli, op, root / workloads.OP_DIR.format(i), tracer if traced else None
                )
                op_s.append(elapsed)
                max_err = max(max_err, err)
                if failure is not None:
                    failures.append(f"pass {len(passes)} {op.name}: {failure}")
            passes.append({
                "op_s": op_s,
                "traced": traced,
                "ops": [{"name": op.name, "argv": op.argv} for op in ops],
            })
            measured += sum(op_s)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    result = {
        "passes": passes,
        "attempted": sum(len(p["op_s"]) for p in passes),
        "failures": failures,
        "max_rel_err": max_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
