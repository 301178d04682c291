"""Run the benchmark over several seeds and summarise each metric.

Run from the root of a checkout::

    python3 perfbench/report.py                       # all workloads, seeds 1-10
    python3 perfbench/report.py --workloads search --seeds 1-5
    python3 perfbench/report.py --trace 1 --seeds 1   # per-layer metrics

For every workload and metric it prints the median over runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and, for end-to-end metrics, the bound from
``BENCHMARK.json``; ``steady`` means the spread is below a third of the
bound.  It also checks that each run printed exactly the metrics that
``BENCHMARK.json`` names, and exits 1 if not or if any check failed.
``--json FILE`` saves the environment, the summary and every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, environment

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(workload: str, runs: list[dict], spec: dict, trace: int) -> dict:
    """Print one workload's table; return its summary."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = sorted(m["name"] for m in declared)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    summary = {
        "runs": len(runs),
        "attempted": attempted,
        "failed": failed,
        "correct": all(r["correct"] for r in runs),
        "metrics_match_spec": all(sorted(r["metrics"]) == names for r in runs),
        "metrics": {},
    }
    print(f"\n{workload}: {len(runs)} runs, {failed}/{attempted} operations failed"
          + ("" if summary["metrics_match_spec"] else "; METRICS DIFFER FROM BENCHMARK.json"))
    print(f"{'metric':44s} {'unit':8s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
        if not values:
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary["metrics"][m["name"]] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
        }
        line = (f"{m['name']:44s} {m['unit']:8s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{spread:8.4f}")
        if "bound" in m:
            steady = spread < m["bound"] / 3
            line += f" {m['bound']:6.3f} {'steady' if steady else 'UNSTEADY'}"
        print(line)
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="write the summary and every run's result here")
    args = ap.parse_args()

    env = environment()
    summaries, results = {}, {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in _seeds(args.seeds)]
        results[workload] = runs
        summaries[workload] = summarise(workload, runs, spec, args.trace)
    if args.json:
        doc = {"env": env, "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
               "summary": summaries, "runs": results}
        args.json.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    ok = all(s["correct"] and s["metrics_match_spec"] for s in summaries.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
