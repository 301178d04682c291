"""A pinned corpus of ``subplanck`` command lines and their exit codes.

Every case is an argv, as one line of words, with the exit code it must
give.  The cases cover each subcommand at its defaults, every state,
method and quadrature rule, each ``--format``, config files, help, and at
least one argv for each kind of error: a range, a type, a non-finite
value, a cap, and the numeric (3) and resolution (4) exits.  Every field
is 201 x 201 samples or fewer.

``run`` runs every case in process, each in its own directory with the
config files it names from ``CONFIGS``, and keeps there what the case
wrote; beside it, ``NNN.json`` holds the case, the argv run, the exit
code, stdout and stderr.  A case whose exception escapes ``main`` is kept as exit 1 with
the last line of its traceback.  Paths are relative, so a message that
names a file reads the same in every directory.  ``compare`` sets two runs
side by side, for example one against each of two versions of the
package::

    PYTHONPATH=src python tests/corpus.py run DIR [--threads 8]
    python tests/corpus.py compare DIR_A DIR_B

pytest does not collect this module; ``test_cli.py`` runs every case and
checks its exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback

import numpy as np

from subplanck.cli import main

CONFIGS = {
    "bath.json": '{"nt": 7, "gamma": 0.25, "t-max": 1.0}',
    "grid.json": '{"nx": 21, "np": 21, "state": "compass"}',
    "scan.json": '{"n1": 3, "n2": 4, "no-search": true, "n_scan": 11}',
    "kerr.json": '{"cutoff": null, "samples": 1440}',
    "int-for-float.json": '{"nt": 3, "t-max": 1}',
    "unknown.json": '{"delta": 1}',
    "malformed.json": "not json {",
    "list.json": "[1, 2]",
    "str-for-int.json": '{"nt": "7"}',
    "float-for-int.json": '{"nt": 7.5}',
    "bool-for-float.json": '{"gamma": true}',
    "null-for-int.json": '{"nt": null}',
    "bad-choice.json": '{"kind": "angle"}',
    "int-for-flag.json": '{"no-search": 1}',
    "help.json": '{"help": true}',
    "nan.json": '{"gamma": NaN}',
    "inf.json": '{"t-max": Infinity}',
    "zero-sigma.json": '{"sigma": 0}',
    "zero-threads.json": '{"threads": 0}',
    "huge-nt.json": '{"nt": 100000000000}',
}

_WIGNER_STATES = ("cat-position", "cat-momentum", "mixed", "compass")

CASES = [
    # every subcommand at its defaults, and each format
    (0, "wigner"),
    (0, "tiles"),
    (0, "sensitivity"),
    (0, "decohere"),
    (0, "kerr"),
    (0, "compare"),
    (0, "wigner --format json"),
    (0, "wigner --format csv"),
    (0, "wigner --format both --nx 21 --np 21"),
    (0, "tiles --format json"),
    (0, "tiles --format csv"),
    (0, "sensitivity --format json"),
    (0, "sensitivity --format csv --no-search"),
    (0, "decohere --format json"),
    (0, "decohere --format csv"),
    (0, "kerr --format csv"),
    (0, "compare --format json"),
    (0, "wigner --nx 21 --np 21 --out sub/dir"),
    # every state, method and rule
    *((0, f"wigner --state {state}") for state in _WIGNER_STATES),
    *((0, f"wigner --state {state} --method integral") for state in _WIGNER_STATES),
    *((0, f"wigner --state {state} --method integral --rule simpson") for state in _WIGNER_STATES),
    *((4, f"wigner --state {state} --method integral --rule gauss-hermite")
      for state in ("mixed", "compass")),
    *((0, f"wigner --state {state} --method integral --rule gauss-hermite --order 384")
      for state in _WIGNER_STATES),
    (0, "wigner --state compass --rule gauss-hermite --order 128"),
    (0, "wigner --method integral --rule trapezoid --order 1024 --nx 21 --np 21"),
    (0, "wigner --order 16 --nx 21 --np 21"),
    # wigner windows, packets and units
    (0, "wigner --nx 51 --np 31"),
    (0, "wigner --nx 2 --np 2"),
    (0, "wigner --nx 40 --np 40 --state compass"),
    (0, "wigner --x-half 8 --p-half 15 --nx 41 --np 41"),
    (0, "wigner --x0 3 --p0 8 --sigma 0.6 --nx 41 --np 41"),
    (0, "wigner --hbar 0.5 --nx 41 --np 41"),
    (0, "wigner --state compass --hbar 2 --nx 41 --np 41"),
    (0, "wigner --p0 60 --nx 41 --np 41"),
    (0, "wigner --state compass --x0 40 --nx 41 --np 41"),
    (0, "wigner --st cat-position --meth integral --nx 41 --np 41"),
    (0, "wigner --hbar 1e150 --nx 21 --np 21"),
    # tiles
    (0, "tiles --state compass"),
    (0, "tiles --nx 300 --np 300"),
    (0, "tiles --state compass --nx 301 --np 301"),
    (0, "tiles --kmax 0 --mmax 0"),
    (0, "tiles --kmax 5 --mmax 2"),
    (0, "tiles --threshold 0.01"),
    (0, "tiles --window-x 1.5 --window-p 3"),
    (0, "tiles --x0 3 --p0 8 --sigma 0.6"),
    # sensitivity
    (0, "sensitivity --no-search --n1 3 --n2 5"),
    (0, "sensitivity --state compass --no-search --n1 4 --n2 4"),
    (0, "sensitivity --state compass --n1 5 --n2 5"),
    (0, "sensitivity --n1 1 --n2 1 --no-search"),
    (0, "sensitivity --d1-max 0.5 --d2-max 0.2 --n1 6 --n2 6 --no-search"),
    (0, "sensitivity --tol 0.05 --n-scan 101 --n1 5 --n2 5"),
    (0, "sensitivity --hbar 2 --n1 5 --n2 5"),
    (0, "sensitivity --x0 3 --p0 8 --sigma 0.6 --n1 5 --n2 5"),
    (0, "sensitivity --state compass --x0 3 --p0 8 --n-scan 201 --n1 5 --n2 5"),
    (0, "sensitivity --no-search --n1 100 --n2 100"),  # a table of several CSV blocks
    # decohere
    (0, "decohere --kind momentum"),
    (0, "decohere --offset 3 --nt 11"),
    (0, "decohere --kind momentum --offset 8 --sigma 0.4 --nt 11"),
    (0, "decohere --t-max 0 --nt 3"),
    (0, "decohere --t-max 2.5 --nt 6"),
    (0, "decohere --nt 1"),
    (0, "decohere --mass 2 --gamma 0.3 --temperature 5 --nt 9"),
    (0, "decohere --hbar 0.5 --nt 9"),
    (0, "decohere --t-max 1e6 --nt 5"),
    (0, "decohere --kind momentum --t-max 1e6 --nt 5"),
    (0, "decohere --nt 20000"),  # a table of several CSV blocks
    # kerr
    (0, "kerr --kappa-t 0.7853981633974483"),
    (0, "kerr --alpha-re 2 --kappa-t 1.5707963267948966 --cutoff 48"),
    (0, "kerr --alpha-re 2 --alpha-im 1"),
    (0, "kerr --alpha-re 2.85 --kappa-t 0.7853981633974483"),
    (0, "kerr --samples 720"),
    (0, "kerr --kappa-t 0"),
    # compare
    (0, "compare --n-scan 101"),
    (0, "compare --tol 0.05 --n-scan 101"),
    (0, "compare --x0 3 --p0 8 --sigma 0.6 --n-scan 101"),
    (0, "compare --hbar 0.5 --n-scan 101"),
    # config files: explicit flags win in every spelling
    (0, "decohere --config bath.json"),
    (0, "decohere --config bath.json --gamma 0.5"),
    (0, "decohere --gamma=0.5 --config bath.json"),
    (0, "decohere --config bath.json --gam 0.5"),
    (0, "wigner --config grid.json"),
    (0, "wigner --config grid.json --state mixed"),
    (0, "sensitivity --config scan.json"),
    (0, "kerr --config kerr.json"),
    (0, "decohere --config int-for-float.json"),
    (0, "decohere --config zero-sigma.json --sigma 0.5"),
    (2, "decohere --config unknown.json"),
    (2, "decohere --config malformed.json"),
    (2, "decohere --config list.json"),
    (2, "decohere --config missing.json"),
    (2, "decohere --config str-for-int.json"),
    (2, "decohere --config float-for-int.json"),
    (2, "decohere --config bool-for-float.json"),
    (2, "decohere --config null-for-int.json"),
    (2, "decohere --config bad-choice.json"),
    (2, "sensitivity --config int-for-flag.json"),
    (2, "decohere --config help.json"),
    (2, "decohere --config nan.json"),
    (2, "decohere --config inf.json"),
    (2, "decohere --config zero-sigma.json"),
    (2, "decohere --config zero-threads.json"),
    (2, "decohere --config huge-nt.json"),
    # help
    (0, "--help"),
    (0, "wigner --help"),
    (0, "tiles --help"),
    (0, "sensitivity --help"),
    (0, "decohere --help"),
    (0, "kerr --help"),
    (0, "compare --help"),
    (0, "decohere -h"),
    # range errors: each ranged option just outside its range
    (2, "tiles --threshold 0"),
    (2, "tiles --threshold -1"),
    (2, "tiles --kmax -1"),
    (2, "tiles --mmax -1"),
    (2, "sensitivity --n1 0"),
    (2, "sensitivity --n2 -3"),
    (2, "sensitivity --n-scan 0"),
    (2, "sensitivity --n-scan -3"),
    (2, "decohere --offset 0"),
    (2, "decohere --sigma 0"),
    (2, "decohere --kind momentum --sigma 0"),
    (2, "decohere --sigma -0.5"),
    (2, "decohere --t-max -1"),
    (2, "decohere --nt 0"),
    (2, "decohere --nt -5"),
    (2, "kerr --samples 0"),
    (2, "kerr --cutoff -1"),
    (2, "kerr --radius -1"),
    (2, "compare --n-scan 0"),
    (2, "compare --n-scan -3"),
    (2, "wigner --threads 0"),
    (2, "decohere --threads 0"),
    (2, "compare --threads -1"),
    # ranges checked outside the option table
    (2, "wigner --hbar 0"),
    (2, "decohere --hbar -1"),
    (2, "decohere --mass -1"),
    (2, "wigner --nx 1"),
    (2, "wigner --np 70000"),
    (2, "tiles --nx 70000"),
    (2, "wigner --order 8"),
    (2, "wigner --method integral --order 1025"),
    (2, "wigner --order 1000000000000"),
    (2, "kerr --cutoff 1000"),
    (2, "kerr --alpha-re 40"),
    # type and parse errors
    (2, "decohere --nt abc"),
    (2, "wigner --nx 2.5"),
    (2, "wigner --sigma x"),
    (2, "wigner --state bogus"),
    (2, "tiles --state cat-position"),
    (2, "wigner --method foo"),
    (2, "tiles --format xml"),
    (2, "kerr --cutoff 1.5"),
    (2, "wigner --nx"),
    (2, "sensitivity --no-such-flag"),
    (2, "decohere --gamma -inf"),
    (2, "bogus"),
    (2, ""),
    # non-finite values
    (2, "wigner --sigma nan"),
    (2, "wigner --x0 inf"),
    (2, "wigner --hbar nan"),
    (2, "wigner --hbar=inf"),
    (2, "tiles --threshold nan"),
    (2, "sensitivity --d1-max nan"),
    (2, "decohere --gamma=-inf"),
    (2, "decohere --t-max=inf"),
    (2, "kerr --alpha-re nan"),
    (2, "compare --tol inf"),
    # caps, each far above it
    (2, "tiles --kmax 100000000"),
    (2, "tiles --mmax 100000000"),
    (2, "kerr --samples 100000000000"),
    (2, "decohere --nt 100000000000"),
    (2, "sensitivity --n1 100000 --n2 100000 --no-search"),
    (2, "compare --n-scan 100000000"),
    (2, "sensitivity --n-scan 100000000"),
    (2, "wigner --nx 4097 --np 4097"),
    (2, "wigner --nx 65537"),
    # two invalid values
    (2, "decohere --nt 0 --sigma 0"),
    (2, "decohere --threads 0 --sigma nan"),
    (2, "tiles --kmax -1 --threshold 0"),
    (2, "kerr --samples 0 --radius -1"),
    # numeric failures (3)
    (3, "compare --x0 1e160 --n-scan 21"),
    (3, "sensitivity --hbar 1e-300"),
    (3, "tiles --sigma 1e-200"),
    (3, "decohere --mass 1e100"),
    (3, "decohere --gamma 0"),
    (3, "decohere --temperature 0"),
    (3, "kerr --cutoff 5"),
    (3, "kerr --radius 2.5"),
    (3, "wigner --state compass --hbar 1e300 --nx 21 --np 21"),
    (3, "tiles --nx 21 --np 21"),
    # resolution and coverage failures (4)
    (4, "wigner --method integral --rule gauss-hermite --order 128"),
    (4, "wigner --method integral --x-half 2"),
    (4, "wigner --state compass --method integral --p-half 5"),
    (4, "tiles --hbar 0.5"),
]


def _run_case(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - what a traceback would end with
        code = 1
        err.write(traceback.format_exception_only(exc)[-1])
    return code, out.getvalue(), err.getvalue()


def run(root: str, extra: list[str] = ()) -> list[dict]:
    """Run every case, with ``extra`` appended to its argv, under ``root``."""
    root, here = os.path.abspath(root), os.getcwd()
    results = []
    for i, (expected, line) in enumerate(CASES):
        argv = [*line.split(), *extra]
        case = os.path.join(root, f"{i:03d}")
        os.makedirs(case)
        for word in argv:
            if word in CONFIGS:
                with open(os.path.join(case, word), "w", encoding="utf-8") as fh:
                    fh.write(CONFIGS[word])
        os.chdir(case)
        try:
            code, stdout, stderr = _run_case(argv)
        finally:
            os.chdir(here)
        result = {"case": line, "argv": argv, "expected": expected, "exit": code,
                  "stdout": stdout, "stderr": stderr}
        with open(f"{case}.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        results.append(result)
    return results


def _result(case: str) -> dict:
    with open(f"{case}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _files(case: str) -> dict[str, bytes]:
    found = {}
    for top, _, names in os.walk(case):
        for name in names:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, case)] = fh.read()
    return found


def _field_gap(a: bytes, b: bytes) -> str:
    """For two ``x,p,w`` field CSVs: whether x,p match, and max|dw|/max|W|."""
    wa, wb = (np.loadtxt(io.BytesIO(text), delimiter=",", skiprows=1, ndmin=2) for text in (a, b))
    if wa.shape != wb.shape:
        return f"shapes {wa.shape} and {wb.shape}"
    same_xp = "same" if np.array_equal(wa[:, :2], wb[:, :2]) else "different"
    gap = np.abs(wa[:, 2] - wb[:, 2]).max() / np.abs(wa[:, 2]).max()
    return f"x,p {same_xp}, max|dw|/max|W| = {gap:.3g}"


def compare(root_a: str, root_b: str) -> int:
    """Print one line per case that differs, then the tally; returns the
    number of cases that differ."""
    differ = files = 0
    for i in range(len(CASES)):
        a, b = (os.path.join(root, f"{i:03d}") for root in (root_a, root_b))
        ra, rb = (_result(case) for case in (a, b))
        fa, fb = _files(a), _files(b)
        files += len(fa)
        notes = [] if ra["case"] == rb["case"] else [f"case {rb['case']!r} in B"]
        if ra["exit"] != rb["exit"]:
            notes.append(f"exit {ra['exit']} -> {rb['exit']}")
        for stream in ("stdout", "stderr"):
            if ra[stream] != rb[stream]:
                notes.append(f"{stream} {ra[stream].strip()!r} -> {rb[stream].strip()!r}")
        for name in sorted(fa.keys() | fb.keys()):
            if name not in fa or name not in fb:
                notes.append(f"{name} only in {'B' if name in fb else 'A'}")
            elif fa[name] != fb[name]:
                gap = ": " + _field_gap(fa[name], fb[name]) if fa[name].startswith(b"x,p,w\n") else ""
                notes.append(f"{name} differs{gap}")
        if notes:
            differ += 1
            print(f"{i:03d} {' '.join(ra['argv'])}: " + "; ".join(notes))
    print(f"{len(CASES) - differ} of {len(CASES)} cases the same ({files} files in A)")
    return differ


if __name__ == "__main__":
    usage = "usage: corpus.py run DIR [EXTRA ARGS...] | corpus.py compare DIR_A DIR_B"
    if sys.argv[1:2] == ["run"] and len(sys.argv) >= 3:
        results = run(sys.argv[2], sys.argv[3:])
        wrong = [r for r in results if r["exit"] != r["expected"]]
        for r in wrong:
            print(f"exit {r['exit']}, expected {r['expected']}: {' '.join(r['argv'])}")
        print(f"{len(results) - len(wrong)} of {len(results)} cases gave their expected exit code")
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(1 if compare(sys.argv[2], sys.argv[3]) else 0)
    else:
        sys.exit(usage)
