"""End-to-end checks of the command-line entry point.

Every test drives ``subplanck.cli.main`` in process and inspects the
artifacts it leaves behind, so the exit-code contract, the JSON payload
layout and the CSV formats are all pinned here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import state_from_json, wigner_closed_direct

import subplanck
from conftest import P0, SIGMA, X0
from subplanck.cli import main
from subplanck.core import PhaseSpaceGrid, UnitSystem


def run_cli(out_dir, *argv: str) -> int:
    return main([*argv, "--out", str(out_dir)])


def read_json(out_dir, name: str) -> dict:
    with open(out_dir / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv_lines(out_dir, name: str) -> list[str]:
    text = (out_dir / f"{name}.csv").read_text(encoding="utf-8")
    assert text.endswith("\n")
    return text[:-1].split("\n")


def last_error(capsys) -> dict:
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)["error"]


class TestWigner:
    def test_closed_run_writes_artifacts(self, tmp_path):
        rc = run_cli(tmp_path, "wigner", "--state", "mixed", "--nx", "241", "--np", "241")
        assert rc == 0
        payload = read_json(tmp_path, "wigner")
        params = payload["params"]
        assert params["state"] == "mixed"
        assert params["np"] == 241 and params["nx"] == 241
        assert params["method"] == "closed"
        assert params["order"] == 64
        summary = payload["summary"]
        assert summary["nx"] == 241 and summary["np"] == 241
        assert summary["x_max"] == pytest.approx(X0 + 8 * SIGMA)
        assert summary["p_max"] == pytest.approx(P0 + 4 / SIGMA)
        assert summary["integral"] == pytest.approx(1.0, abs=1e-6)
        # the symmetric odd grid puts a node at the origin, where the
        # mixture peaks at 1/(pi hbar)
        assert summary["max"] == pytest.approx(1 / math.pi, rel=1e-9)
        assert payload["state"]["kind"]
        lines = read_csv_lines(tmp_path, "wigner")
        assert lines[0] == "x,p,w"
        assert len(lines) == 1 + 241 * 241

    def test_integral_method_matches_normalization(self, tmp_path):
        rc = run_cli(
            tmp_path,
            "wigner",
            "--state", "cat-position",
            "--x0", "1.5",
            "--method", "integral",
            "--rule", "simpson",
            "--x-half", "6", "--p-half", "8",
            "--nx", "31", "--np", "31",
        )
        assert rc == 0
        payload = read_json(tmp_path, "wigner")
        assert payload["params"]["method"] == "integral"
        assert payload["params"]["rule"] == "simpson"
        assert payload["summary"]["integral"] == pytest.approx(1.0, abs=1e-5)

    def test_gauss_hermite_order_is_echoed(self, tmp_path):
        # two runs at different orders must not write identical params
        argv = ["wigner", "--state", "cat-position", "--x0", "1.2", "--sigma", "0.7",
                "--method", "integral", "--rule", "gauss-hermite", "--nx", "21", "--np", "21"]
        for order in ("32", "96"):
            assert run_cli(tmp_path / order, *argv, "--order", order) == 0
        params = [read_json(tmp_path / order, "wigner")["params"] for order in ("32", "96")]
        assert [p.pop("order") for p in params] == [32, 96]
        assert params[0] == params[1]

    @pytest.mark.parametrize("method", ["integral", "closed"])
    @pytest.mark.parametrize("order", ["1025", "1000000000000", "8"])
    def test_out_of_range_order_exits_2(self, tmp_path, order, method):
        # a dense eigenproblem of order 1e12 would need 8e24 bytes; the
        # cap is checked before the nodes are computed, and for the
        # closed form too, whose params echo the order
        argv = ["wigner", "--method", method, "--rule", "gauss-hermite", "--order", order]
        rc, stderr = run_captured(tmp_path, *argv)
        error = assert_usage_error(rc, stderr, tmp_path, "wigner")
        assert error["kind"] == "ValueError" and f"order must lie in [16, 1024], got {order}" in error["message"]

    @pytest.mark.parametrize("state", ["mixed", "compass"])
    @pytest.mark.parametrize("far", [["--p0", "60"], ["--x0", "40"]], ids=["p0-60", "x0-40"])
    def test_far_packets_keep_the_exact_field(self, tmp_path, state, far):
        # At p0 = 60 (x0 = 40) and sigma = 1 the diagonal pair terms are
        # about exp(-7200) (exp(-800)) at the origin.  A factor scaled by
        # its value there instead of by its own peak reaches exp(7200),
        # which the CLI traps as an overflow (exit 3).
        assert run_cli(tmp_path, "wigner", "--state", state, *far, "--sigma", "1") == 0
        payload = read_json(tmp_path, "wigner")
        keys = ("x_min", "x_max", "p_min", "p_max", "nx", "np")
        grid = PhaseSpaceGrid(**{k: payload["summary"][k] for k in keys})
        rows = np.array([line.split(",") for line in read_csv_lines(tmp_path, "wigner")[1:]], float)
        want = wigner_closed_direct(
            state_from_json(payload["state"]), grid.xs()[:, None], grid.ps()[None, :], UnitSystem()
        )
        w = rows[:, 2].reshape(grid.nx, grid.np)
        assert np.max(np.abs(w - want)) <= 1e-13 * np.max(np.abs(want))
        assert payload["summary"]["max"] == w.max() and payload["summary"]["min"] == w.min()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["wigner", "--nx", "1000000"], "must lie in [2, 65536], got nx=1000000,"),
            (["wigner", "--np", "1000000000000"], "must lie in [2, 65536], got nx=201, np=1000000000000"),
            (["wigner", "--nx", "65536", "--np", "65536"], "--nx * --np must not exceed 16777216"),
            (["wigner", "--method", "integral", "--nx", "4097", "--np", "4096"], "--nx * --np"),
            (["tiles", "--nx", "1000000"], "must lie in [2, 65536], got nx=1000000,"),
            (["tiles", "--np", "1000000000000"], "must lie in [2, 65536], got nx=257, np=1000000000000"),
        ],
    )
    def test_oversized_grid_exits_2_before_allocating(self, tmp_path, argv, flag):
        # a grid axis of 1e6 floats alone is 8 MB, a field of 2^32 points
        # 34 GB; the caps are checked before any sample array exists
        tracemalloc.start()
        try:
            rc, stderr = run_captured(tmp_path, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        error = assert_usage_error(rc, stderr, tmp_path, argv[0])
        assert flag in error["message"]
        assert peak < 2**20

    def test_format_json_skips_csv(self, tmp_path):
        rc = run_cli(
            tmp_path, "wigner", "--nx", "21", "--np", "21", "--format", "json"
        )
        assert rc == 0
        assert (tmp_path / "wigner.json").exists()
        assert not (tmp_path / "wigner.csv").exists()

    def test_format_csv_still_writes_json(self, tmp_path):
        # the JSON payload is the machine-readable record of the run and
        # is emitted unconditionally; --format only gates the CSV
        rc = run_cli(tmp_path, "wigner", "--nx", "21", "--np", "21", "--format", "csv")
        assert rc == 0
        assert (tmp_path / "wigner.json").exists()
        assert (tmp_path / "wigner.csv").exists()

    def test_out_directory_is_created(self, tmp_path):
        out = tmp_path / "nested" / "dir"
        rc = run_cli(out, "wigner", "--nx", "21", "--np", "21", "--format", "json")
        assert rc == 0
        assert (out / "wigner.json").exists()

    def test_coverage_failure_exits_4(self, tmp_path, capsys):
        rc = run_cli(
            tmp_path,
            "wigner",
            "--state", "cat-position",
            "--method", "integral",
            "--x-half", "2",
            "--nx", "21", "--np", "21",
        )
        assert rc == 4
        error = last_error(capsys)
        assert error["code"] == 4
        assert error["kind"] == "CoverageError"
        assert "x window" in error["message"]
        assert not (tmp_path / "wigner.json").exists()


class TestTiles:
    def test_lattice_artifacts(self, tmp_path):
        rc = run_cli(tmp_path, "tiles")
        assert rc == 0
        payload = read_json(tmp_path, "tiles")
        lattice = payload["lattice"]
        predicted = math.pi**2 / (16 * X0 * P0)
        assert lattice["tile_area_predicted"] == pytest.approx(predicted)
        assert lattice["tile_area_measured"] == pytest.approx(predicted, rel=1e-6)
        assert lattice["cell_area_measured"] == pytest.approx(4 * predicted, rel=1e-6)
        assert lattice["relative_error"] < 1e-6
        assert lattice["subplanck"] is True
        assert lattice["hbar"] == 1.0
        checker = payload["checkerboard"]
        assert checker["pattern"] == "checkerboard"
        assert checker["signs_ok"] is True
        assert checker["first_mismatch"] is None
        assert checker["centers_checked"] > 0
        touches = payload["touches"]
        assert touches["x_first"] == pytest.approx(math.pi / (2 * P0), rel=1e-6)
        assert touches["p_first"] == pytest.approx(math.pi / (2 * X0), rel=1e-6)
        lines = read_csv_lines(tmp_path, "tiles")
        assert lines[0] == "family,index,position"
        families = {line.split(",")[0] for line in lines[1:]}
        assert {"x_line", "p_line", "x_touch", "p_touch"} <= families

    def test_compass_default_grid(self, tmp_path):
        # The compass's shallow far-field sign changes on the axes
        # (about 1.6e-7 of max|W|) must not be taken for its lattice.
        assert run_cli(tmp_path, "tiles", "--state", "compass") == 0
        payload = read_json(tmp_path, "tiles")
        assert payload["checkerboard"]["signs_ok"] is True
        lattice = payload["lattice"]
        assert lattice["tile_area_measured"] == pytest.approx(math.pi**2 / (16 * X0 * P0), rel=1e-6)

    @pytest.mark.parametrize("nx,np_", [("300", "300"), ("2101", "258"), ("258", "2101")])
    def test_even_node_counts(self, tmp_path, nx, np_):
        # An even node count leaves no node on its axis; the scans must
        # still run along x = 0 and p = 0.
        assert run_cli(tmp_path, "tiles", "--nx", nx, "--np", np_) == 0
        lattice = read_json(tmp_path, "tiles")["lattice"]
        assert len(lattice["x_lines"]) >= 2 and len(lattice["p_lines"]) >= 2
        assert lattice["relative_error"] < 1e-8


class TestSensitivity:
    def test_scan_without_search(self, tmp_path):
        rc = run_cli(
            tmp_path, "sensitivity", "--n1", "3", "--n2", "3", "--no-search"
        )
        assert rc == 0
        payload = read_json(tmp_path, "sensitivity")
        assert payload["overlap_at_zero"] == pytest.approx(1 / (4 * math.pi), rel=1e-9)
        assert "orthogonality" not in payload
        assert payload["scan"]["d1_max"] == pytest.approx(1.5 * math.pi / X0)
        assert payload["scan"]["d2_max"] == pytest.approx(1.5 * math.pi / P0)
        lines = read_csv_lines(tmp_path, "sensitivity")
        assert lines[0] == "delta1,delta2,overlap_numeric,overlap_reference"
        assert len(lines) == 1 + 3 * 3
        d1, d2, numeric, reference = lines[1].split(",")
        assert float(d1) == 0.0 and float(d2) == 0.0
        assert float(numeric) == pytest.approx(1 / (4 * math.pi), rel=1e-9)
        assert float(reference) == pytest.approx(4 / math.pi, rel=1e-12)

    def test_compass_rows_have_no_reference(self, tmp_path):
        rc = run_cli(
            tmp_path,
            "sensitivity",
            "--state", "compass",
            "--n1", "2", "--n2", "2",
            "--no-search",
        )
        assert rc == 0
        lines = read_csv_lines(tmp_path, "sensitivity")
        # the printed reference formula is specific to the mixture, so the
        # compass rows leave that column empty
        assert all(line.endswith(",") for line in lines[1:])

    def test_search_payload(self, tmp_path):
        rc = run_cli(
            tmp_path, "sensitivity", "--n1", "2", "--n2", "2", "--n-scan", "151"
        )
        assert rc == 0
        result = read_json(tmp_path, "sensitivity")["orthogonality"]
        assert result["achieved"] is True
        assert result["delta1_star"] == pytest.approx(math.pi / (2 * X0), rel=1e-5)
        assert result["delta2_star"] == pytest.approx(math.pi / (2 * P0), rel=1e-5)
        assert result["product"] == pytest.approx(math.pi**2 / (4 * X0 * P0), rel=1e-4)
        assert abs(result["min_overlap"]) < 1e-8
        assert result["iterations"] >= 1


class TestDecohere:
    def test_position_curve(self, tmp_path):
        rc = run_cli(tmp_path, "decohere", "--nt", "9", "--threads", "2")
        assert rc == 0
        payload = read_json(tmp_path, "decohere")
        assert payload["params"]["offset"] == 4.5
        taus = payload["decoherence_times"]
        assert set(taus) == {"threshold_0.5", "threshold_1.0", "threshold_2.0"}
        assert taus["threshold_0.5"] < taus["threshold_1.0"] < taus["threshold_2.0"]
        assert payload["tau_linear_estimate"] == pytest.approx(1 / 81, rel=1e-12)
        assert payload["params"]["t_max"] == pytest.approx(4 * taus["threshold_1.0"])
        lines = read_csv_lines(tmp_path, "decohere")
        assert lines[0] == "t,attenuation,visibility"
        assert len(lines) == 1 + 9
        t0, a0, v0 = (float(v) for v in lines[1].split(","))
        assert t0 == 0.0 and a0 == 0.0 and v0 == 1.0
        t_last, a_last, v_last = (float(v) for v in lines[-1].split(","))
        assert t_last == pytest.approx(payload["params"]["t_max"])
        assert a_last > 1.0 and v_last == pytest.approx(math.exp(-a_last), rel=1e-12)

    def test_momentum_default_offset(self, tmp_path):
        rc = run_cli(tmp_path, "decohere", "--kind", "momentum", "--nt", "5")
        assert rc == 0
        payload = read_json(tmp_path, "decohere")
        assert payload["params"]["offset"] == 10.0
        assert payload["tau_linear_estimate"] == pytest.approx(0.01, rel=1e-12)
        # the momentum attenuation grows cubically, so the crossing sits far
        # above the linear-rate label
        ratio = payload["decoherence_times"]["threshold_1.0"] / 0.01
        assert 20.0 < ratio < 22.0

    def test_far_time_grid_is_quiet(self, tmp_path, capsys):
        # At gamma*t ~ 1e59 the small-u series of the position-spread
        # bracket must not be evaluated: it would overflow and warn.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(tmp_path, "decohere", "--t-max", "1e60", "--nt", "5")
        assert rc == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        lines = read_csv_lines(tmp_path, "decohere")[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert len(rows) == 5 and rows[0][:2] == [0.0, 0.0]
        # every fringe is gone: A = offset^2 / (2 sigma^2) = 40.5
        assert all(a == 40.5 for _, a, _ in rows[1:])

    def test_gamma_zero_exits_3(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "decohere", "--gamma", "0", "--nt", "5")
        assert rc == 3
        error = last_error(capsys)
        assert error["kind"] == "SearchError"
        assert "never attenuates" in error["message"]

    def test_negative_mass_exits_2(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "decohere", "--mass", "-1")
        assert rc == 2
        assert last_error(capsys)["kind"] == "ValueError"


class TestKerr:
    def test_quarter_period_has_four_components(self, tmp_path):
        rc = run_cli(
            tmp_path,
            "kerr",
            "--alpha-re", "2",
            "--kappa-t", repr(math.pi / 2),
            "--cutoff", "48",
        )
        assert rc == 0
        payload = read_json(tmp_path, "kerr")
        assert payload["component_count"] == 4
        assert payload["cutoff_used"] == 48
        assert payload["norm"] == pytest.approx(1.0, rel=1e-12)
        assert payload["params"]["radius"] == 2.0
        assert not (tmp_path / "kerr.csv").exists()

    def test_half_period_has_two_components(self, tmp_path):
        rc = run_cli(
            tmp_path,
            "kerr",
            "--alpha-re", "2",
            "--kappa-t", repr(math.pi),
            "--cutoff", "48",
        )
        assert rc == 0
        assert read_json(tmp_path, "kerr")["component_count"] == 2

    def test_small_cutoff_exits_3(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "kerr", "--alpha-re", "3", "--cutoff", "8")
        assert rc == 3
        assert last_error(capsys)["kind"] == "TruncationError"

    def test_oversized_cutoff_exits_2(self, tmp_path):
        # a basis of 1e12 + 1 amplitudes would need 16 TB; the cap on the
        # cutoff is checked before anything is allocated
        rc, stderr = run_captured(tmp_path, "kerr", "--cutoff", "1000000000000")
        error = assert_usage_error(rc, stderr, tmp_path, "kerr")
        assert error["kind"] == "ValueError" and "cutoff" in error["message"]

    @pytest.mark.parametrize("alpha", ["40", "1e3", "1e200"])
    def test_underflowing_alpha_exits_2(self, tmp_path, alpha):
        # exp(-|alpha|^2/2) is 0 in double precision: every amplitude
        # would be 0 and the normalised state NaN.  The check runs before
        # the number basis is allocated (1e3 would need a 16 MB one), and
        # |alpha|^2 = inf at 1e200 must not raise OverflowError first.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, stderr = run_captured(tmp_path, "kerr", "--alpha-re", alpha)
        assert [str(w.message) for w in caught] == []
        error = assert_usage_error(rc, stderr, tmp_path, "kerr")
        assert len(stderr.strip().splitlines()) == 1
        assert error["kind"] == "ValueError" and "alpha" in error["message"]


class TestCompare:
    def test_mixture_and_compass_agree(self, tmp_path):
        rc = run_cli(tmp_path, "compare", "--n-scan", "121")
        assert rc == 0
        payload = read_json(tmp_path, "compare")
        assert payload["mixed"]["achieved"] is True
        assert payload["compass"]["achieved"] is True
        assert payload["product_ratio"] == pytest.approx(1.0, abs=1e-3)
        assert payload["mixed"]["delta1_star"] == pytest.approx(
            math.pi / (2 * X0), rel=1e-4
        )


class TestConfig:
    def test_config_under_explicit_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nt": 7, "gamma": 0.25, "t-max": 1.0}))
        # every spelling argparse accepts, the unique prefix included
        for i, flag in enumerate((["--gamma", "0.5"], ["--gamma=0.5"], ["--gam", "0.5"])):
            out = tmp_path / str(i)
            assert run_cli(out, "decohere", "--config", str(cfg), *flag) == 0, flag
            payload = read_json(out, "decohere")
            assert payload["params"]["gamma"] == 0.5, flag
            assert payload["params"]["nt"] == 7
            assert payload["params"]["t_max"] == 1.0
            assert len(read_csv_lines(out, "decohere")) == 1 + 7

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 1}))
        rc = run_cli(tmp_path, "decohere", "--config", str(cfg))
        assert rc == 2
        error = last_error(capsys)
        assert error["kind"] == "ConfigError"
        assert "delta" in error["message"]

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json {")
        assert run_cli(tmp_path, "decohere", "--config", str(cfg)) == 2
        assert last_error(capsys)["kind"] == "ConfigError"

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run_cli(tmp_path, "decohere", "--config", str(cfg)) == 2
        assert "object" in last_error(capsys)["message"]

    def test_zero_threads_exits_2(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "decohere", "--threads", "0")
        assert rc == 2
        assert last_error(capsys)["kind"] == "ConfigError"


class TestThreadDeterminism:
    def test_sensitivity_rows(self, tmp_path):
        for threads in (1, 2, 8):
            rc = run_cli(
                tmp_path / str(threads),
                "sensitivity",
                "--n1", "4", "--n2", "4",
                "--no-search",
                "--threads", str(threads),
            )
            assert rc == 0
        base_csv = (tmp_path / "1" / "sensitivity.csv").read_bytes()
        base_json = (tmp_path / "1" / "sensitivity.json").read_bytes()
        for threads in (2, 8):
            assert (tmp_path / str(threads) / "sensitivity.csv").read_bytes() == base_csv
            assert (tmp_path / str(threads) / "sensitivity.json").read_bytes() == base_json

    def test_decohere_curve(self, tmp_path):
        for threads in (1, 4):
            rc = run_cli(
                tmp_path / str(threads),
                "decohere",
                "--nt", "7",
                "--threads", str(threads),
            )
            assert rc == 0
        for name in ("decohere.csv", "decohere.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "4" / name).read_bytes()


# Property tests draw from a fixed sequence, so every run checks the same cases.
SEEDED = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# (command, config key, JSON values of the wrong type for that option)
_NOT_NUMBER = st.one_of(
    st.text(max_size=4), st.booleans(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_NOT_INT = st.one_of(
    _NOT_NUMBER, st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != int(v))
)
_ILL_TYPED = st.one_of(
    st.tuples(st.just("decohere"), st.sampled_from(["nt", "threads"]), st.one_of(_NOT_INT, st.none())),
    st.tuples(
        st.just("decohere"),
        st.sampled_from(["gamma", "mass", "temperature", "sigma", "hbar"]),
        st.one_of(_NOT_NUMBER, st.none()),
    ),
    st.tuples(st.just("decohere"), st.just("t-max"), _NOT_NUMBER),
    st.tuples(st.just("decohere"), st.just("kind"), st.one_of(st.text(max_size=6), st.integers())),
    st.tuples(st.just("sensitivity"), st.sampled_from(["n1", "n2", "n-scan"]), _NOT_INT),
    st.tuples(st.just("sensitivity"), st.just("no-search"), st.one_of(st.integers(), st.text(max_size=3))),
    st.tuples(st.just("compare"), st.just("tol"), _NOT_NUMBER),
)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_FLOAT_OPTIONS = st.sampled_from([
    ("decohere", "gamma"), ("decohere", "mass"), ("decohere", "temperature"),
    ("decohere", "t-max"), ("sensitivity", "tol"), ("sensitivity", "x0"),
    ("compare", "tol"), ("compare", "sigma"),
])
_COUNT_OPTIONS = st.sampled_from([("sensitivity", "n1"), ("sensitivity", "n2"), ("decohere", "nt")])
# Every float flag of every subcommand, with arguments that keep each run small.
_SMALL_RUNS = {
    "wigner": (["--nx", "21", "--np", "21"], ["x0", "p0", "sigma", "x-half", "p-half"]),
    "tiles": ([], ["x0", "p0", "sigma", "window-x", "window-p", "threshold"]),
    "sensitivity": (["--n1", "2", "--n2", "2", "--n-scan", "21"],
                    ["x0", "p0", "sigma", "d1-max", "d2-max", "tol"]),
    "decohere": (["--nt", "3"], ["offset", "sigma", "mass", "gamma", "temperature", "t-max"]),
    "kerr": ([], ["alpha-re", "alpha-im", "kappa-t", "radius"]),
    "compare": (["--n-scan", "21"], ["x0", "p0", "sigma", "tol"]),
}
_FLOAT_FLAGS = st.sampled_from(
    [(command, flag) for command, (_, flags) in _SMALL_RUNS.items() for flag in ["hbar", *flags]]
)
_MAGNITUDES = st.sampled_from([1e-300, 1e-200, 1e-100, 1e100, 1e160, 1e200, 1e300])


def run_captured(out_dir, *argv: str) -> tuple[int, str]:
    """Exit code and stderr of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([*argv, "--out", str(out_dir)])
    return rc, err.getvalue()


def assert_usage_error(rc: int, stderr: str, out_dir, name: str) -> dict:
    """Exit 2 with a one-line JSON error and no artifacts."""
    assert rc == 2
    error = json.loads(stderr.strip().splitlines()[-1])["error"]
    assert error["code"] == 2
    assert "Traceback" not in stderr
    assert not (out_dir / f"{name}.json").exists()
    return error


class TestBoundaryProperties:
    @SEEDED
    @given(case=_ILL_TYPED)
    def test_ill_typed_config_value_exits_2(self, tmp_path_factory, case):
        command, key, value = case
        out = tmp_path_factory.mktemp("typed")
        cfg = out / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        rc, stderr = run_captured(out, command, "--config", str(cfg))
        error = assert_usage_error(rc, stderr, out, command)
        assert error["kind"] == "ConfigError"
        assert repr(key) in error["message"]

    @SEEDED
    @given(option=_FLOAT_OPTIONS, value=_NON_FINITE, via_config=st.booleans())
    def test_non_finite_value_exits_2(self, tmp_path_factory, option, value, via_config):
        command, key = option
        out = tmp_path_factory.mktemp("finite")
        if via_config:
            cfg = out / "cfg.json"
            cfg.write_text(json.dumps({key: value}))  # NaN / Infinity literals
            argv = [command, "--config", str(cfg)]
        else:
            argv = [command, f"--{key}={value!r}"]
        rc, stderr = run_captured(out, *argv)
        error = assert_usage_error(rc, stderr, out, command)
        assert f"--{key}" in error["message"] and "finite" in error["message"]

    @SEEDED
    @given(option=_COUNT_OPTIONS, value=st.integers(max_value=0))
    def test_empty_workload_exits_2(self, tmp_path_factory, option, value):
        command, key = option
        out = tmp_path_factory.mktemp("empty")
        rc, stderr = run_captured(out, command, f"--{key}={value}")
        error = assert_usage_error(rc, stderr, out, command)
        assert f"--{key}" in error["message"]

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(option=_FLOAT_FLAGS, value=_MAGNITUDES)
    def test_extreme_magnitude_keeps_exit_contract(self, tmp_path_factory, option, value):
        # An overflow, a division by zero or an invalid operation at an
        # extreme magnitude is a numeric failure (exit 3), never a
        # traceback.  RuntimeWarnings are recorded here rather than raised,
        # as the command line would print them and go on; a run that exits
        # 0 must have printed none.
        command, flag = option
        small, _ = _SMALL_RUNS[command]
        out = tmp_path_factory.mktemp("extreme")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            rc, stderr = run_captured(out, command, *small, f"--{flag}={value!r}")
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in stderr
        if rc:
            assert json.loads(stderr.strip().splitlines()[-1])["error"]["code"] == rc
        else:
            assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("compare", "--x0", "1e160", "--n-scan", "21"),
            ("sensitivity", "--hbar", "1e-300"),
            ("tiles", "--sigma", "1e-200"),
            ("decohere", "--mass", "1e100"),
        ],
        ids=["compare-x0-overflow", "sensitivity-hbar-overflow", "tiles-sigma-invalid",
             "decohere-mass-divide"],
    )
    def test_floating_point_error_exits_3(self, tmp_path, argv):
        # Each of these once went on past a non-finite intermediate, to
        # exit 0 with wrong values or exit 2 with a NaN message that names
        # no flag.
        rc, stderr = run_captured(tmp_path, *argv)
        assert rc == 3
        assert "Traceback" not in stderr
        error = json.loads(stderr.strip().splitlines()[-1])["error"]
        assert error["code"] == 3 and error["kind"] == "FloatingPointError"
        assert not (tmp_path / f"{argv[0]}.json").exists()

    def test_int_config_for_float_option_is_converted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nt": 3, "t-max": 1}))
        assert run_cli(tmp_path, "decohere", "--config", str(cfg)) == 0
        assert read_json(tmp_path, "decohere")["params"]["t_max"] == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("decohere", "--nt", "abc"),
            ("decohere", "--gamma", "-inf"),
            ("sensitivity", "--no-such-flag"),
            ("bogus",),
            (),
        ],
        ids=["bad-int", "negative-inf-as-two-tokens", "unknown-flag", "unknown-command", "no-command"],
    )
    def test_parser_error_exits_2_with_json(self, tmp_path, argv):
        rc, stderr = run_captured(tmp_path, *argv)
        error = assert_usage_error(rc, stderr, tmp_path, argv[0] if argv else "decohere")
        assert error["kind"] == "ConfigError"
        assert "usage:" not in stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("decohere", "--sigma", "0"),
            ("decohere", "--kind", "momentum", "--sigma", "0"),
            ("decohere", "--sigma", "-0.5"),
            ("decohere", "--offset", "0"),
            ("decohere", "--t-max", "-1"),
            ("tiles", "--kmax", "-1"),
            ("tiles", "--mmax", "-1"),
            ("kerr", "--radius", "-1"),
            ("kerr", "--cutoff", "-1"),
            ("tiles", "--threshold", "0"),
            ("tiles", "--threshold", "-1"),
            ("kerr", "--samples", "0"),
            ("kerr", "--samples", "-3"),
            ("sensitivity", "--n-scan", "0"),
            ("sensitivity", "--n-scan", "-3"),
            ("compare", "--n-scan", "0"),
            ("compare", "--n-scan", "-3"),
        ],
        ids=["decohere-sigma-zero", "decohere-momentum-sigma-zero", "decohere-sigma-negative",
             "decohere-offset-zero", "decohere-t-max-negative", "tiles-kmax-negative",
             "tiles-mmax-negative", "kerr-radius-negative", "kerr-cutoff-negative",
             "tiles-threshold-zero", "tiles-threshold-negative", "kerr-samples-zero",
             "kerr-samples-negative", "sensitivity-n-scan-zero", "sensitivity-n-scan-negative",
             "compare-n-scan-zero", "compare-n-scan-negative"],
    )
    def test_out_of_range_value_exits_2(self, tmp_path, argv):
        rc, stderr = run_captured(tmp_path, *argv)
        error = assert_usage_error(rc, stderr, tmp_path, argv[0])
        assert argv[-2] in error["message"]

    @pytest.mark.parametrize("argv", [["--help"], ["decohere", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_import_skips_unused_scipy_modules(tmp_path):
    # numpy is the only runtime dependency: no subcommand loads a scipy
    # module, including kerr and both quadrature families of the
    # integral route.  scipy serves the tests as an oracle.
    src = os.path.dirname(os.path.dirname(subplanck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = [
        ["compare", "--n-scan", "11"],
        ["sensitivity", "--n-scan", "11"],
        ["tiles"],
        ["decohere"],
        ["kerr"],
        ["wigner", "--nx", "41", "--np", "41"],
        ["wigner", "--method", "integral", "--nx", "41", "--np", "41"],
        ["wigner", "--method", "integral", "--rule", "gauss-hermite", "--nx", "41", "--np", "41"],
    ]
    probe = f"""
import json, sys
import subplanck.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {{"import": scipy_modules()}}
for argv in {runs!r}:
    rc = subplanck.cli.main([*argv, "--out", {str(tmp_path)!r}])
    loaded[" ".join(argv)] = rc if rc else scipy_modules()
print(json.dumps(loaded))
"""
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    loaded = json.loads(proc.stdout)
    assert loaded == {key: [] for key in ["import", *(" ".join(argv) for argv in runs)]}


def test_wigner_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The closed-form field is a sum of factor-matrix products, which
    # threaded BLAS kernels round differently with the thread count; the
    # artifacts must be the same bytes under 1 and 2 BLAS threads.
    src = os.path.dirname(os.path.dirname(subplanck.__file__))
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
        )
        for state in ("mixed", "compass"):
            argv = ["wigner", "--state", state, "--nx", "401", "--np", "401"]
            out = str(tmp_path / threads / state)
            subprocess.run([sys.executable, "-m", "subplanck", *argv, "--out", out],
                           env=env, check=True, timeout=120)
    for state in ("mixed", "compass"):
        for name in ("wigner.csv", "wigner.json"):
            assert (tmp_path / "1" / state / name).read_bytes() == (tmp_path / "2" / state / name).read_bytes()
