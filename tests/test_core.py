"""Grids, fields, quadrature plumbing, and deterministic output."""

import ast
import inspect
import json
import math
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import P0, X0, at_origin, meshgrid
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import field_to_csv_repr, rows_to_csv
from scipy.optimize import brentq, minimize_scalar

import subplanck
from subplanck import (
    InvalidFieldError,
    PhaseSpaceGrid,
    Quadrature,
    UnitSystem,
    WignerField,
    integrate_2d,
    linspace_grid,
    wigner_closed,
)
from subplanck.core import (
    _malloc_trim,
    brent_min,
    brent_root,
    field_summary,
    field_to_csv,
    table_to_csv,
    write_json,
    write_text_atomic,
)


# Table cells: any finite float, or one at or next to +-0, a subnormal,
# the smallest normal, or repr's switches to scientific notation at 1e-4
# and 1e16; tiles' family names and indices; or None, an empty cell.
_EDGES = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-4, 1.0, 1e16])
_NEAR_EDGES = np.concatenate([_EDGES, np.nextafter(_EDGES, 0), np.nextafter(_EDGES, np.inf)])
_CELLS = {
    "float": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.builds(lambda v, negative: -v if negative else v,
                  st.sampled_from(_NEAR_EDGES.tolist()), st.booleans()),
    ),
    "str": st.text("_abxyplinetouch0123", max_size=8),
    "int": st.integers(-(2**63), 2**63 - 1),
}


@st.composite
def tables(draw):
    """``(header, columns)``: 0 to 40 rows, 1 to 5 columns of one kind
    each, at least one of them not None; float columns come as lists or,
    like the CLI's, as arrays."""
    n = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from([*_CELLS, "none"]), min_size=1, max_size=5)
                 .filter(lambda kinds: set(kinds) != {"none"}))
    columns = [None if kind == "none" else draw(st.lists(_CELLS[kind], min_size=n, max_size=n))
               for kind in kinds]
    columns = [np.array(c) if k == "float" and draw(st.booleans()) else c for k, c in zip(kinds, columns)]
    return [f"c{i}" for i in range(len(kinds))], columns


def gaussian_field(grid, sx=1.0, sp=1.0):
    xm, pm = meshgrid(grid)
    values = np.exp(-(xm**2) / (2 * sx**2) - pm**2 / (2 * sp**2)) / (2 * math.pi * sx * sp)
    return WignerField(grid=grid, values=values)


class TestGrid:
    def test_steps_and_axes(self):
        g = PhaseSpaceGrid(x_min=-2.0, x_max=2.0, p_min=-1.0, p_max=3.0, nx=5, np=9)
        assert g.dx == pytest.approx(1.0)
        assert g.dp == pytest.approx(0.5)
        assert g.xs()[0] == -2.0 and g.xs()[-1] == 2.0
        assert g.ps()[0] == -1.0 and g.ps()[-1] == 3.0

    def test_meshgrid_layout(self):
        g = linspace_grid(1.0, 2.0, 3, 5)
        xm, pm = meshgrid(g)
        assert xm.shape == (3, 5) and pm.shape == (3, 5)
        # first index is x, second is p
        assert np.all(xm[0, :] == g.xs()[0])
        assert np.all(pm[:, 0] == g.ps()[0])

    def test_odd_grid_contains_origin(self):
        # linspace may leave ~1 ulp of rounding on the center node.
        g = linspace_grid(1.7, 2.3, 41, 25)
        assert np.abs(g.xs()).min() < 1e-12 * g.dx
        assert np.abs(g.ps()).min() < 1e-12 * g.dp

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x_min": 1.0, "x_max": -1.0, "p_min": -1.0, "p_max": 1.0, "nx": 4, "np": 4},
            {"x_min": -1.0, "x_max": 1.0, "p_min": 1.0, "p_max": 1.0, "nx": 4, "np": 4},
            {"x_min": -1.0, "x_max": 1.0, "p_min": -1.0, "p_max": 1.0, "nx": 1, "np": 4},
            {"x_min": -np.inf, "x_max": 1.0, "p_min": -1.0, "p_max": 1.0, "nx": 4, "np": 4},
        ],
    )
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(**kwargs)


class TestField:
    def test_shape_mismatch(self):
        g = linspace_grid(1.0, 1.0, 4, 4)
        with pytest.raises(InvalidFieldError):
            WignerField(grid=g, values=np.zeros((4, 5)))

    def test_non_finite_rejected(self):
        g = linspace_grid(1.0, 1.0, 3, 3)
        bad = np.zeros((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(InvalidFieldError):
            WignerField(grid=g, values=bad)

    def test_at_origin(self):
        g = linspace_grid(1.0, 1.0, 5, 5)
        f = gaussian_field(g)
        assert at_origin(f) == pytest.approx(1 / (2 * math.pi))


class TestQuadrature:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Quadrature(rule="monte-carlo")
        with pytest.raises(ValueError):
            Quadrature(order=8)
        assert Quadrature(rule="gauss-hermite", order=32).order == 32

    def test_order_cap(self):
        # The cap is checked when the configuration is built; nothing
        # sized by the order is allocated until the nodes are computed.
        assert Quadrature(rule="gauss-hermite", order=1024).order == 1024
        for order in (1025, 10**12):
            with pytest.raises(ValueError, match=f"order must lie in \\[16, 1024\\], got {order}"):
                Quadrature(rule="gauss-hermite", order=order)

    def test_trapezoid_normalizes_gaussian(self):
        f = gaussian_field(linspace_grid(8.0, 8.0, 161, 161))
        assert integrate_2d(f) == pytest.approx(1.0, abs=1e-12)

    def test_simpson_matches_trapezoid(self):
        f = gaussian_field(linspace_grid(8.0, 8.0, 161, 161))
        assert integrate_2d(f, rule="simpson") == pytest.approx(integrate_2d(f), abs=1e-12)

    def test_simpson_needs_odd_counts(self):
        f = gaussian_field(linspace_grid(8.0, 8.0, 160, 161))
        with pytest.raises(ValueError):
            integrate_2d(f, rule="simpson")


class TestUnits:
    def test_defaults(self):
        u = UnitSystem()
        assert u.hbar == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UnitSystem(hbar=0.0)


class TestWriters:
    def test_write_json_sorted_and_atomic(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"b": 1, "a": [1.5, 2.5]}, str(path))
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": [1.5, 2.5], "b": 1}
        assert not (tmp_path / "out.json.tmp").exists()

    def test_write_text_atomic_overwrites(self, tmp_path):
        path = tmp_path / "t.txt"
        write_text_atomic(str(path), "one")
        text = "x,p,w\n-0.0,1e-05,5e-324\n\u03c0\n"
        write_text_atomic(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")

    def test_write_text_atomic_failure_leaves_target(self, tmp_path):
        path = tmp_path / "t.txt"
        write_text_atomic(str(path), "one")
        with pytest.raises(TypeError):
            write_text_atomic(str(path), None)
        assert path.read_text() == "one"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]

    def test_write_text_atomic_failed_bytes_write_leaves_no_temp_file(self, tmp_path):
        # The rename onto a directory fails after the bytes are written.
        (tmp_path / "d").mkdir()
        with pytest.raises(OSError):
            write_text_atomic(str(tmp_path / "d"), "one")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_write_text_atomic_concurrent_writers(self, tmp_path):
        # Writers to one path must not share a temp file: each rename
        # installs one complete text, and nothing is left behind.
        path = tmp_path / "t.txt"
        texts = [c * 50_000 for c in "abcd"]

        def write_many(text):
            for _ in range(20):
                write_text_atomic(str(path), text)

        workers = [threading.Thread(target=write_many, args=(text,)) for text in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert path.read_text() in texts
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]

    def test_field_to_csv_layout(self, tmp_path):
        g = linspace_grid(1.0, 1.0, 3, 4)
        f = gaussian_field(g)
        path = tmp_path / "f.csv"
        field_to_csv(f, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,p,w"
        assert len(lines) == 1 + 3 * 4
        first = lines[1].split(",")
        assert float(first[0]) == -1.0 and float(first[1]) == -1.0

    def test_field_to_csv_matches_per_cell_repr(self, tmp_path):
        g = PhaseSpaceGrid(x_min=-0.3, x_max=1.7, p_min=-2.0, p_max=0.1 + 0.2, nx=3, np=7)
        values = np.random.default_rng(7).normal(size=(3, 7)) * 1e3
        values[0, :5] = [-0.0, 1e-5, 5e-324, 1e16, 0.1 + 0.2]
        f = WignerField(grid=g, values=values)
        field_to_csv(f, str(tmp_path / "f.csv"))
        field_to_csv_repr(f, str(tmp_path / "oracle.csv"))
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("name, nx, np_", [
        ("cat_x", 601, 601), ("cat_p", 601, 601), ("mixed", 601, 601), ("compass", 601, 601),
        ("compass", 257, 90),
    ])
    def test_field_to_csv_matches_oracle_on_reference_states(self, name, nx, np_, units, request,
                                                             tmp_path):
        state = request.getfixturevalue(name)
        f = wigner_closed(state, linspace_grid(X0 + 4, P0 + 8, nx, np_), units)
        field_to_csv(f, str(tmp_path / "f.csv"))
        field_to_csv_repr(f, str(tmp_path / "oracle.csv"))
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @staticmethod
    def check_table(tmp_path_factory, table):
        header, columns = table
        path = tmp_path_factory.mktemp("table") / "t.csv"
        with np.errstate(all="raise"):
            table_to_csv(header, columns, str(path))
        n = len(next(c for c in columns if c is not None))
        rows = list(zip(*([None] * n if c is None else list(c) for c in columns)))
        assert path.read_bytes() == rows_to_csv(header, rows).encode("ascii")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tables())
    def test_table_to_csv_matches_row_writer(self, tmp_path_factory, table):
        self.check_table(tmp_path_factory, table)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tables())
    def test_table_to_csv_matches_row_writer_across_blocks(self, tmp_path_factory, table):
        # blocks of 8 values: up to 40 rows of 1 to 5 columns span 1 to 40 blocks
        with mock.patch.object(subplanck.core, "_CSV_BLOCK", 8):
            self.check_table(tmp_path_factory, table)

    def test_field_to_csv_failure_leaves_no_file(self, tmp_path):
        f = gaussian_field(linspace_grid(1.0, 1.0, 3, 4))
        object.__setattr__(f, "values", np.full((3, 4), np.inf))
        with pytest.raises(ValueError):
            field_to_csv(f, str(tmp_path / "f.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_field_to_csv_trims_the_heap_after_large_texts(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(subplanck.core, "_malloc_trim", lambda: calls.append)
        f = gaussian_field(linspace_grid(1.0, 1.0, 3, 4))
        field_to_csv(f, str(tmp_path / "small.csv"))
        assert calls == []
        monkeypatch.setattr(subplanck.core, "_TRIM_BYTES", (tmp_path / "small.csv").stat().st_size)
        field_to_csv(f, str(tmp_path / "large.csv"))
        assert calls == [0]

    def test_malloc_trim_is_none_without_glibc(self, monkeypatch):
        class NoTrim:  # a C library without glibc's malloc_trim
            pass

        monkeypatch.setattr(subplanck.core.ctypes, "CDLL", lambda name: NoTrim())
        _malloc_trim.cache_clear()
        try:
            assert _malloc_trim() is None
        finally:
            _malloc_trim.cache_clear()

    def test_field_summary_keys(self):
        f = gaussian_field(linspace_grid(8.0, 8.0, 81, 81))
        s = field_summary(f)
        assert s["nx"] == 81 and s["integral"] == pytest.approx(1.0, abs=1e-9)
        assert s["min"] <= s["max"]


def _smooth_family(rng, n: int):
    """``n`` seeded smooth functions: a sinusoid over a line, a Gaussian
    bump and a quadratic, with random weights, so that brackets and
    intervals hit interpolation, extrapolation, bisection, parabolic and
    golden steps, interior minima and minima on a bound."""
    for _ in range(n):
        a, w, ph, b, c, d, m, q = rng.normal(size=8) * [1.0, 3.0, 2.0, 0.5, 1.0, 1.0, 1.0, 0.3]
        yield lambda x, a=a, w=w, ph=ph, b=b, c=c, d=d, m=m, q=q: (
            a * np.sin(w * x + ph) + b * (x - c) + d * np.exp(-(x - m) * (x - m)) + q * x * x
        )


class TestBrent:
    """The Brent helpers are ports of scipy's: scipy is their oracle,
    and they must return the same floats at the package's tolerances."""

    ROOT_TOLS = [(1e-15, 100), (1e-12, 200)]
    MIN_TOLS = [1e-12, 1e-13]

    def test_root_matches_brentq(self):
        rng = np.random.default_rng(2026)
        brackets = 0
        for f in _smooth_family(rng, 4000):
            lo, hi = np.sort(rng.uniform(-4.0, 4.0, size=2))
            if not f(lo) * f(hi) < 0:
                continue
            brackets += 1
            for xtol, maxiter in self.ROOT_TOLS:
                expected = brentq(f, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=maxiter)
                # numpy scalar bounds, as the package's callers pass them
                assert brent_root(f, lo, hi, xtol, maxiter) == expected
                assert brent_root(f, float(hi), float(lo), xtol, maxiter) == brentq(
                    f, hi, lo, xtol=xtol, rtol=8.9e-16, maxiter=maxiter
                )
        assert brackets >= 1000
        # Wide brackets, where the extrapolation step's denominator
        # underflows to 0 and brentq bisects.
        for s in (1e160, 1e200):
            for f in (lambda x: (x / s) ** 3 - 0.3, lambda x: 1 - math.exp(-x / s) - 0.5):
                for xtol, maxiter in self.ROOT_TOLS:
                    for lo, hi in ((0.0, 2 * s), (2 * s, 0.0)):
                        assert brent_root(f, lo, hi, xtol, maxiter) == brentq(
                            f, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=maxiter
                        )

    def test_root_on_bracket_end(self):
        f = lambda x: x - 1.0
        assert brent_root(f, 1.0, 3.0, 1e-12) == 1.0
        assert brent_root(f, -1.0, 1.0, 1e-12) == 1.0

    def test_min_matches_bounded_minimize_scalar(self):
        rng = np.random.default_rng(1973)
        for f in _smooth_family(rng, 1200):
            lo, hi = np.sort(rng.uniform(-4.0, 4.0, size=2))
            for xatol in self.MIN_TOLS:
                res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                      options={"xatol": xatol})
                x, fx = brent_min(f, lo, hi, xatol)
                assert (x, fx) == (res.x, res.fun)
                assert type(x) is float and type(fx) is float

    def test_same_sign_bracket_raises(self):
        f = lambda x: x * x + 1.0
        with pytest.raises(ValueError):
            brentq(f, -1.0, 2.0)
        with pytest.raises(ValueError, match="different signs"):
            brent_root(f, -1.0, 2.0, 1e-12)

    def test_root_raises_at_maxiter(self):
        f = lambda x: np.sin(x) - 0.3
        with pytest.raises(RuntimeError):
            brentq(f, -1.0, 2.0, xtol=1e-15, rtol=8.9e-16, maxiter=3)
        with pytest.raises(RuntimeError, match="after 3 iterations"):
            brent_root(f, -1.0, 2.0, 1e-15, maxiter=3)


def test_all_lists_exactly_the_package_bindings():
    # A deleted function must not leave a dangling export, and an
    # imported one must not be left out.
    bound = {
        name for name, value in vars(subplanck).items()
        if not name.startswith("_") and getattr(value, "__module__", "").startswith("subplanck.")
    }
    assert len(set(subplanck.__all__)) == len(subplanck.__all__)
    assert set(subplanck.__all__) == bound
    for name in subplanck.__all__:
        assert getattr(subplanck, name).__name__ == name


def test_every_export_has_a_production_caller():
    # A name only the tests call is an oracle and belongs in
    # tests/oracles.py; so is a public method or property of an exported
    # class.  A use is a Name or Attribute node in a top-level statement
    # other than the name's own definition; imports, docstrings and
    # __init__.py do not count, and neither does an attribute of an
    # imported module (``np.meshgrid`` is no call of a ``meshgrid`` method).
    used = set()
    for path in Path(subplanck.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {(alias.asname or alias.name).split(".")[0]
                   for node in tree.body if isinstance(node, ast.Import) for alias in node.names}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {node.name}
            else:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            names |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                      and not (isinstance(sub.value, ast.Name) and sub.value.id in modules)}
            used |= names - own
    members = {
        f"{name}.{attr}"
        for name in subplanck.__all__
        if isinstance(cls := getattr(subplanck, name), type)
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, property))
    }
    exports = set(subplanck.__all__) | members
    assert sorted(e for e in exports if e.rpartition(".")[2] not in used) == []


def test_no_module_imports_scipy():
    # numpy is the package's only runtime dependency; scipy serves the
    # tests as an oracle.  Every import statement counts, at any depth.
    found = []
    for path in sorted(Path(subplanck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []
