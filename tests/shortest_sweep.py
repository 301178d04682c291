"""Hold the shortest-digit kernel to ``repr`` over millions of doubles.

A script, not a test module (pytest does not collect it): it renders
seeded random 64-bit patterns (every finite one is kept) and every
subnormal with ``t <= 10**6``, of both signs, with
:func:`subplanck._shortest.repr_bytes`, in chunks, and compares each
text with ``repr`` of the same float.  It prints the number of values
and of mismatches, and exits 1 on any mismatch.

    PYTHONPATH=src python tests/shortest_sweep.py

It takes no arguments: its ten million patterns, drawn from seed 1,
take about half a minute on one core.
"""

from __future__ import annotations

import sys

import numpy as np

from subplanck._shortest import repr_bytes

_CHUNK = 1 << 16
_PATTERNS = 10**7  # random bit patterns to draw
_SEED = 1


def kernel_text(values: np.ndarray) -> bytes:
    """The kernel's texts of ``values``, one per line."""
    rows = repr_bytes(values)
    lines = np.empty((len(values), rows.shape[1] + 1), np.uint8)
    lines[:, :-1] = rows
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0")


def mismatches(values: np.ndarray) -> list[tuple[int, str, str]]:
    """``(bit pattern, kernel text, repr)`` of every value whose texts differ."""
    got = kernel_text(values)
    want = "".join(f"{v!r}\n" for v in values.tolist()).encode("ascii")
    if got == want:
        return []
    pairs = zip(values.view(np.uint64).tolist(), got.decode("ascii").split("\n"), want.decode("ascii").split("\n"))
    return [(bits, g, w) for bits, g, w in pairs if g != w]


def chunks():
    """The values to check, ``_CHUNK`` at a time."""
    rng = np.random.default_rng(_SEED)
    for start in range(0, _PATTERNS, _CHUNK):
        values = rng.integers(0, 2**64, min(_CHUNK, _PATTERNS - start), dtype=np.uint64).view(np.float64)
        yield values[np.isfinite(values)]
    t = np.arange(1, 10**6 + 1, dtype=np.uint64)
    for start in range(0, t.size, _CHUNK):
        part = t[start : start + _CHUNK]
        yield np.concatenate([part, part | np.uint64(1 << 63)]).view(np.float64)


def main() -> int:
    checked, wrong = 0, []
    for values in chunks():
        checked += values.size
        wrong += mismatches(values)
    for bits, got, want in wrong[:10]:
        print(f"0x{bits:016x}: kernel {got!r}, repr {want!r}")
    print(f"{checked} values, {len(wrong)} mismatches")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
