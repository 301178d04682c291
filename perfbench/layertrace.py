"""Layer tracing from outside the package.

The tracer wraps the public module-level functions of each ``subplanck``
module, plus the :class:`~subplanck.metrology.OverlapScan` methods, with
timing wrappers.  A wrapper is patched onto *every* binding site of its
function: ``cli`` and ``metrology`` import names directly (for example
``subplanck.metrology.wigner_closed_eval``), so patching only the defining
module would miss most calls.  No package source is changed.

Spans ``(name, start, end, parent, op)`` are kept in memory and reduced to
per-layer aggregates when the run ends.  A span started on a
``parallel_map`` worker thread attaches to the enclosing ``parallel_map``
span.  Self time is a span's duration minus the union of the intervals its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "core", "states", "wigner", "interference", "metrology", "decoherence")
# Traced besides the module-level functions: (module, class, method).
TRACED_METHODS = (("metrology", "OverlapScan", "__init__"), ("metrology", "OverlapScan", "value"))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Work counts recorded at the layer boundary from the call's arguments,
# after the span has ended.
COUNTERS = {
    "wigner.wigner_closed_eval": ("points", lambda a, k: math.prod(
        np.broadcast_shapes(np.shape(_arg(a, k, 1, "x")), np.shape(_arg(a, k, 2, "p")))
    )),
    "wigner.wigner_transform": (
        "points", lambda a, k: _arg(a, k, 1, "grid").nx * _arg(a, k, 1, "grid").np
    ),
    # Artifacts are ASCII (json.dumps escapes, CSV cells are numbers).
    "core.write_text_atomic": ("bytes", lambda a, k: len(_arg(a, k, 1, "text"))),
    "core.parallel_map": ("items", lambda a, k: len(_arg(a, k, 1, "items"))),
}
SEARCH = "metrology.find_orthogonality"
EVAL = "metrology.OverlapScan.value"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "count", "iterations")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.count = 0
        self.iterations = 0


class Tracer:
    """Timing wrappers for the loaded ``subplanck`` modules.

    Construct after ``subplanck`` is imported.  ``install()`` patches the
    wrappers in, ``uninstall()`` restores the originals; spans accumulate
    in ``spans`` and are tagged with the current ``op``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = None
        self._local = threading.local()
        self._pmap: list[Span] = []
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """``(owner, attribute, original, wrapper)`` for every binding site."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"subplanck.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname == "subplanck" or modname.startswith("subplanck."):
                for attr, obj in vars(mod).items():
                    if id(obj) in wrappers:
                        patches.append((mod, attr, obj, wrappers[id(obj)]))
        for layer, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules[f"subplanck.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            patches.append((cls, meth, orig, self._wrap(f"{layer}.{cls_name}.{meth}", orig)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        is_pmap = name == "core.parallel_map"
        is_search = name == SEARCH
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._pmap[-1] if self._pmap else None
            span = Span(name, clock(), parent, self.op)
            stack.append(span)
            if is_pmap:
                self._pmap.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if is_pmap:
                    self._pmap.pop()
                self.spans.append(span)
            if counter is not None:
                span.count = counter[1](args, kwargs)
            if is_search:
                span.iterations = int(result.iterations)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write the spans as JSON lines; ``parent`` is a line number."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                parent = index[id(span.parent)] if span.parent is not None else None
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": parent, "op": span.op,
                }) + "\n")

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-name ``calls``, ``total_s``, ``self_s`` and work counts
        (``points``, ``bytes``, ``items``).  A search also sums its
        ``iterations`` and ``evals``: the ``OverlapScan.value`` calls
        made under it."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            s = stats[span.name]
            duration = span.end - span.start
            s["calls"] += 1
            s["total_s"] += duration
            s["self_s"] += duration - _covered(span, children.get(id(span), ()))
            if span.name in COUNTERS:
                stat = COUNTERS[span.name][0]
                s[stat] = s.get(stat, 0) + span.count
            if span.name == SEARCH:
                s["iterations"] = s.get("iterations", 0) + span.iterations
            if span.name == EVAL and _has_ancestor(span, SEARCH):
                stats[SEARCH]["evals"] = stats[SEARCH].get("evals", 0) + 1
        return {name: dict(s) for name, s in stats.items()}


def _covered(span: Span, kids) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    intervals = sorted(
        (max(k.start, span.start), min(k.end, span.end)) for k in kids
    )
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def _has_ancestor(span: Span, name: str) -> bool:
    node = span.parent
    while node is not None:
        if node.name == name:
            return True
        node = node.parent
    return False
