"""Benchmark of the ``subplanck`` CLI: one workload, one seed, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The workload runs in its own worker process
(``worker.py``) that imports ``subplanck`` from this checkout's ``src``
and calls ``subplanck.cli.main(argv)`` in-process.  Human-readable lines
(environment, generated argv, every metric with unit and sample count)
come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 on a completed run (even if checks failed, which shows as
``correct: false``); 2 if the checkout has no ``subplanck`` sources or
the worker did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
WORKER_TIMEOUT_S = 150
# BLAS and OpenMP pools are pinned to one thread in every process the
# benchmark starts, so `--threads` in the argv is the only parallelism.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
IMPORT_LAYERS = (
    "numpy", "scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.special", "subplanck",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True,
            text=True, timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:2]} did not finish within {timeout} s") from exc


_IMPORT_CLI = (
    "import time, sys; t = time.perf_counter(); import subplanck.cli; "
    "t = time.perf_counter() - t; import subplanck; "
    "sys.exit(f'imported {subplanck.__file__}') "
    "if not subplanck.__file__.startswith(sys.argv[1]) else print(repr(t))"
)


def measure_setup() -> list[float]:
    """Wall time of ``import subplanck.cli`` in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = _python(["-c", _IMPORT_CLI, str(SRC)], timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing subplanck failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()))
    return times


_IMPORTTIME_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def measure_import_layers() -> dict[str, float]:
    """Cumulative ``-X importtime`` seconds per import layer (median)."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_LAYERS}
    for _ in range(IMPORTTIME_REPEATS):
        proc = _python(["-X", "importtime", "-c", "import subplanck.cli"], timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing subplanck failed:\n{proc.stderr.strip()}")
        seen = {}
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME_LINE.match(line)
            if m and m.group(3) in samples:
                seen[m.group(3)] = int(m.group(2)) / 1e6
        for name in IMPORT_LAYERS:
            samples[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def spans_path(workload: str, seed: int) -> Path:
    return OUT / f"spans-{workload}-seed{seed}.jsonl"


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = OUT / f"{workload}-{os.getpid()}"
    args = [
        str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    if trace:
        OUT.mkdir(exist_ok=True)
        args += ["--spans", str(spans_path(workload, seed))]
    try:
        proc = _python(args, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def environment() -> dict:
    # The ceiling keeps git from finding a repository above the checkout.
    git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=git_env, check=False,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "pinned_env": PINNED_ENV,
    }


# -- metrics ----------------------------------------------------------------
def pass_time(passes: list[dict]) -> float:
    """Time of one pass: the sum over operations of each operation's
    median latency across ``passes``, so that a burst of load from outside
    during one call does not move the result."""
    return sum(statistics.median(op) for op in zip(*(p["op_s"] for p in passes)))


def end_to_end(raw: dict, setup: list[float]) -> dict[str, tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for the untraced run."""
    passes = raw["passes"]
    latencies = [t for p in passes for t in p["op_s"]]
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (pass_time(passes), "s", len(passes)),
        "op_p50_s": (statistics.median(latencies), "s", len(latencies)),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", 1),
    }


# (layer name, stat, unit) reported from the traced passes, per pass.
LAYER_STATS = (
    ("metrology.OverlapScan.value", "calls", "count"),
    ("metrology.OverlapScan.value", "self_s", "s"),
    ("metrology.OverlapScan.value", "total_s", "s"),
    ("metrology.OverlapScan.__init__", "total_s", "s"),
    ("metrology.find_orthogonality", "calls", "count"),
    ("metrology.find_orthogonality", "total_s", "s"),
    ("wigner.wigner_closed_eval", "calls", "count"),
    ("wigner.wigner_closed_eval", "points", "count"),
    ("wigner.wigner_closed_eval", "self_s", "s"),
    ("wigner.wigner_transform", "points", "count"),
    ("wigner.wigner_transform", "self_s", "s"),
    ("wigner.check_coverage", "self_s", "s"),
    ("core.integrate_2d", "calls", "count"),
    ("core.integrate_2d", "self_s", "s"),
    ("core.field_to_csv", "self_s", "s"),
    ("core.write_text_atomic", "calls", "count"),
    ("core.write_text_atomic", "bytes", "bytes"),
    ("core.write_text_atomic", "self_s", "s"),
    ("core.parallel_map", "items", "count"),
    ("core.parallel_map", "total_s", "s"),
    ("interference.find_zero_lattice", "total_s", "s"),
    ("interference.checkerboard_report", "total_s", "s"),
    ("decoherence.decoherence_time", "calls", "count"),
    ("decoherence.decoherence_time", "total_s", "s"),
    ("decoherence.attenuation_curve", "total_s", "s"),
    ("states.kerr_evolve", "total_s", "s"),
    ("states.kerr_component_count", "total_s", "s"),
    ("cli.main", "self_s", "s"),
)


def per_layer(raw: dict, imports: dict[str, float]) -> dict[str, tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for the traced run, per pass."""
    traced = [p for p in raw["passes"] if p["traced"]]
    plain = [p for p in raw["passes"] if not p["traced"]]
    n = len(traced)

    def get(name: str, stat: str) -> float:
        return raw["layers"].get(name, {}).get(stat, 0) / n

    out: dict[str, tuple[float, str, int]] = {}
    for name, stat, unit in LAYER_STATS:
        out[f"{name}.{stat}"] = (get(name, stat), unit, n)
    searches = get("metrology.find_orthogonality", "calls")
    evals = get("metrology.find_orthogonality", "evals")
    out["metrology.evals_per_search"] = (evals / searches if searches else 0.0, "count", n)
    out["metrology.search_iterations"] = (
        get("metrology.find_orthogonality", "iterations"), "count", n,
    )
    points = get("wigner.wigner_closed_eval", "points")
    out["wigner.closed_ns_per_point"] = (
        get("wigner.wigner_closed_eval", "self_s") / points * 1e9 if points else 0.0, "ns", n,
    )
    traced_wall = get("cli.main", "total_s")
    for name in ("metrology.OverlapScan.value", "core.field_to_csv"):
        out[f"{name}.share"] = (get(name, "total_s") / traced_wall, "fraction", n)
    for name, seconds in imports.items():
        out[f"import.{name}_s"] = (seconds, "s", IMPORTTIME_REPEATS)
    out["trace.traced_wall_s"] = (pass_time(traced), "s", n)
    out["trace.overhead_s"] = (pass_time(traced) - pass_time(plain), "s", len(plain))
    return out


def report(args, env: dict, raw: dict, metrics: dict[str, tuple[float, str, int]]) -> dict:
    failures = raw["failures"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for i, p in enumerate(raw["passes"]):
        for j, op in enumerate(p["ops"]):
            print(f"pass{i} op{j} {op['name']}: " + " ".join(op["argv"]))
    for f in failures:
        print("FAILED " + f)
    if args.trace:
        print(f"spans {spans_path(args.workload, args.seed).relative_to(ROOT)}")
    for i, p in enumerate(raw["passes"]):
        print(f"pass{i}{' traced' if p['traced'] else ''} op_s " + " ".join(
            f"{t:.4f}" for t in p["op_s"]))
    print(f"{'metric':44s} {'value':>14s} {'unit':8s} samples")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit:8s} {n}")
    attempted = raw["attempted"]
    print(f"{'fail_ratio':44s} {len(failures) / attempted:14.6g} {'ratio':8s} {attempted}")
    print(f"{'max_rel_err':44s} {raw['max_rel_err']:14.6g} {'ratio':8s} {attempted}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=("search", "fields", "scan-map"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "subplanck" / "cli.py").is_file():
        print(f"perfbench: no subplanck sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    try:
        if args.trace:
            imports = measure_import_layers()
            raw = run_worker(args.workload, args.seed, args.seconds, 1)
            metrics = per_layer(raw, imports)
        else:
            setup = measure_setup()
            raw = run_worker(args.workload, args.seed, args.seconds, 0)
            metrics = end_to_end(raw, setup)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args, env, raw, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
