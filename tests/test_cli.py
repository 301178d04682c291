"""End-to-end checks of the command-line entry point.

Every test drives ``subplanck.cli.main`` in process and inspects the
artifacts it leaves behind, so the exit-code contract, the JSON payload
layout and the CSV formats are all pinned here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import corpus
from oracles import (
    build_parser_reference,
    kerr_component_count_converged,
    state_from_json,
    wigner_closed_direct,
)

import subplanck
from conftest import P0, SIGMA, X0
from subplanck.cli import _COMMON, _OPTIONS, ConfigError, _build_parser, main
from subplanck.core import PhaseSpaceGrid, UnitSystem, table_to_csv


def run_cli(out_dir, *argv: str) -> int:
    return main([*argv, "--out", str(out_dir)])


def read_json(out_dir, name: str) -> dict:
    with open(out_dir / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv_lines(out_dir, name: str) -> list[str]:
    text = (out_dir / f"{name}.csv").read_text(encoding="utf-8")
    assert text.endswith("\n")
    return text[:-1].split("\n")


def assert_exact_field(out_dir, units: UnitSystem, tol: float = 1e-13) -> None:
    """The written ``wigner`` CSV and summary agree with the unfactored
    closed form within ``tol`` of max |W|."""
    payload = read_json(out_dir, "wigner")
    keys = ("x_min", "x_max", "p_min", "p_max", "nx", "np")
    grid = PhaseSpaceGrid(**{k: payload["summary"][k] for k in keys})
    rows = np.array([line.split(",") for line in read_csv_lines(out_dir, "wigner")[1:]], float)
    want = wigner_closed_direct(state_from_json(payload["state"]), grid.xs()[:, None], grid.ps()[None, :], units)
    w = rows[:, 2].reshape(grid.nx, grid.np)
    assert np.max(np.abs(w - want)) <= tol * np.max(np.abs(want))
    assert payload["summary"]["max"] == w.max() and payload["summary"]["min"] == w.min()


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
        # two runs at different orders must not write identical params; the
        # p window keeps every pair's tone within the reach of both orders
        argv = ["wigner", "--state", "cat-position", "--x0", "1.2", "--sigma", "0.7", "--p-half",
                "4.5", "--method", "integral", "--rule", "gauss-hermite", "--nx", "21", "--np", "21"]
        for order in ("64", "96"):
            assert run_cli(tmp_path / order, *argv, "--order", order) == 0
        params = [read_json(tmp_path / order, "wigner")["params"] for order in ("64", "96")]
        assert [p.pop("order") for p in params] == [64, 96]
        assert params[0] == params[1]

    @pytest.mark.parametrize("state", ["mixed", "compass"])
    def test_gauss_hermite_exits_4_beyond_its_reach(self, tmp_path, capsys, state):
        # at the default window the pairs need tones up to k = 18 sqrt(2)
        # = 25.5 (position) and 28 sqrt(2) = 39.6 (momentum): order 64
        # reaches 12.75 and order 384 44.875; the error names the largest
        argv = ["wigner", "--state", state, "--method", "integral", "--rule", "gauss-hermite",
                "--nx", "41", "--np", "41"]
        assert run_cli(tmp_path / "64", *argv) == 4
        error = last_error(capsys)
        assert error["kind"] == "ResolutionError"
        k = re.fullmatch(r"a packet pair needs tones up to k = ([\d.]+), above the reach 12.75 of Gauss-"
                         r"Hermite order 64; raise the order or narrow the p window", error["message"])[1]
        assert float(k) == 39.6
        assert not (tmp_path / "64" / "wigner.json").exists()
        assert run_cli(tmp_path / "384", *argv, "--order", "384") == 0
        assert_exact_field(tmp_path / "384", UnitSystem(), tol=1e-10)

    @pytest.mark.parametrize("order, reach", [(128, 21.75), (256, 34.75)])
    def test_gauss_hermite_error_names_the_largest_tone(self, tmp_path, capsys, order, reach):
        # order 128 reaches neither the position pairs' k = 25.5 nor the
        # momentum pairs' 39.6, order 256 only the first: either way the
        # error names 39.6, the tone the window needs
        argv = ["wigner", "--state", "mixed", "--method", "integral", "--rule", "gauss-hermite",
                "--order", str(order), "--nx", "41", "--np", "41"]
        assert run_cli(tmp_path, *argv) == 4
        assert last_error(capsys)["message"] == (
            f"a packet pair needs tones up to k = 39.6, above the reach {reach} of Gauss-Hermite order "
            f"{order}; raise the order or narrow the p window")

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["mixed", "compass", "cat-position", "cat-momentum"]),
           st.sampled_from([48, 64, 96, 128, 256, 384]), st.floats(0.4, 0.7), st.floats(0.85, 1.2))
    def test_gauss_hermite_is_exact_or_exits_4(self, tmp_path_factory, state, order, sigma, scale):
        # windows about the one whose widest tone, k = (p0 + p_half) sqrt(8)
        # sigma on the momentum pairs, sits at the order's reach
        reach = {48: 9.875, 64: 12.75, 96: 17.625, 128: 21.75, 256: 34.75, 384: 44.875}[order]
        p0 = 3.0
        p_half = max(scale * reach / (math.sqrt(8) * sigma) - p0, p0 + 6.2 / (2 * sigma))
        out = tmp_path_factory.mktemp("gh")
        rc, stderr = run_captured(out, "wigner", "--state", state, "--x0", "2.0", "--p0", repr(p0),
                                  "--sigma", repr(sigma), "--p-half", repr(p_half), "--method", "integral",
                                  "--rule", "gauss-hermite", "--order", str(order), "--nx", "25",
                                  "--np", "25")
        if rc == 4:
            error = json.loads(stderr.strip().splitlines()[-1])["error"]
            assert error["kind"] == "ResolutionError"
            assert f"Gauss-Hermite order {order};" in error["message"]
        else:
            assert rc == 0
            assert_exact_field(out, UnitSystem(), tol=1e-10)

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
        assert_exact_field(tmp_path, UnitSystem())

    @pytest.mark.parametrize("state", ["mixed", "compass"])
    @pytest.mark.parametrize("hbar", ["1e150", "1e300"])
    def test_extreme_hbar_traps_or_keeps_the_exact_field(self, tmp_path, state, hbar):
        # At hbar = 1e300 the p curvature sigma_j^2 sigma_k^2 / (s^2 hbar^2)
        # is below the smallest double; a field summed without it has no
        # momentum envelope, so the run must trap the overflow of hbar^2.
        rc, _ = run_captured(tmp_path, "wigner", "--state", state, "--hbar", hbar, "--nx", "41", "--np", "41")
        assert rc == (3 if hbar == "1e300" else 0)
        if rc == 0:
            assert_exact_field(tmp_path, UnitSystem(float(hbar)))

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

    def test_long_curve_stays_in_columns(self, tmp_path):
        # the curve is three float columns and its CSV is written in
        # blocks, so the peak stays near the series bracket's nt x 21
        # power table (22 MB)
        tracemalloc.start()
        try:
            rc = run_cli(tmp_path, "decohere", "--nt", "131072")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(read_csv_lines(tmp_path, "decohere")) == 1 + 131072
        assert peak < 80 * 2**20

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

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.floats(1.0, 4.0),
           st.one_of(st.integers(1, 8).map(lambda q: math.pi / q), st.floats(0.05, 2 * math.pi)))
    def test_polish_stop_keeps_the_count_and_exit_code(self, tmp_path_factory, alpha, kappa_t):
        # The polish stops once the infidelity is within the tolerance; run
        # to convergence instead, it must give the same exit code, error
        # and artifact: the polish only lowers the infidelity.
        argv = ["kerr", "--alpha-re", repr(alpha), "--kappa-t", repr(kappa_t)]
        out = tmp_path_factory.mktemp("kerr")
        got = run_captured(out / "stop", *argv)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(subplanck.cli, "kerr_component_count", kerr_component_count_converged)
            assert got == run_captured(out / "converged", *argv)
        if got[0] == 0:
            assert (out / "stop" / "kerr.json").read_bytes() == (out / "converged" / "kerr.json").read_bytes()

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

    def test_config_defaults_do_not_outlive_their_call(self, tmp_path):
        # a config value becomes a default of the call's subparser, so a
        # parser kept across calls would carry it into the next one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 0.4, "gamma": 0.2}))
        assert run_cli(tmp_path / "a", "decohere", "--nt", "3", "--config", str(cfg)) == 0
        assert run_cli(tmp_path / "b", "decohere", "--nt", "3") == 0
        first, second = (read_json(tmp_path / run, "decohere")["params"] for run in "ab")
        assert (first["sigma"], first["gamma"]) == (0.4, 0.2)
        assert (second["sigma"], second["gamma"]) == (0.5, 0.1)


COMMANDS = ("wigner", "tiles", "sensitivity", "decohere", "kerr", "compare")


def _argv_tail(command: str):
    """Seeded argument lists for ``command``: each of its options, spelt
    in full or abbreviated, with a value of its type (or of another) as
    the next word or after ``=``, and now and then a stray word or an
    unknown flag."""
    actions = [a for a in build_parser_reference()[1][command]._actions if a.dest != "help"]
    words = sorted({str(c) for a in actions if a.choices for c in a.choices})
    wrong = st.sampled_from([*words, "x", "-1", "-inf", "nan", "1e400", "--", "--bogus"])

    def option(action):
        name = st.sampled_from(action.option_strings).flatmap(
            lambda flag: st.sampled_from([flag, flag[:3], flag[:4], flag[:6]]))
        if action.nargs == 0:
            return name.map(lambda flag: [flag])
        if action.choices:
            value = st.sampled_from([str(c) for c in action.choices])
        elif action.type is int:
            value = st.integers(-3, 300).map(str)
        elif action.type is float:
            value = st.floats(-1e3, 1e3).map(repr)
        else:
            value = st.text("abc/.", max_size=5)
        value = st.one_of(value, value, value, wrong)
        return st.one_of(st.tuples(name, value).map(list),
                         st.builds("{}={}".format, name, value).map(lambda word: [word]))

    token = st.one_of(*(option(a) for a in actions), wrong.map(lambda word: [word]))
    return st.lists(token, max_size=6).map(lambda tokens: sum(tokens, []))


_ARGV_TAILS = {command: _argv_tail(command) for command in COMMANDS}


def parse_outcome(parser: argparse.ArgumentParser, argv: list[str]):
    """The parsed options, the usage error, or the exit and its output."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(parser.parse_args(argv))
    except ConfigError as exc:
        return f"error: {exc}"
    except SystemExit as exc:
        return f"exit {exc.code}: {out.getvalue()}"


class TestParser:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(command=st.sampled_from(COMMANDS), data=st.data())
    def test_one_command_parses_like_all_commands(self, command, data):
        argv = [command, *data.draw(_ARGV_TAILS[command])]
        want = parse_outcome(build_parser_reference()[0], argv)
        assert parse_outcome(_build_parser(command)[0], argv) == want
        assert parse_outcome(_build_parser()[0], argv) == want

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_text_is_unchanged(self, command, capsys):
        ref, ref_registry = build_parser_reference()
        want = (ref if command is None else ref_registry[command]).format_help()
        parser, registry = _build_parser(command)
        assert (parser if command is None else registry[command]).format_help() == want
        if command is not None:
            assert _build_parser()[1][command].format_help() == want
        with pytest.raises(SystemExit) as exc:
            main(["--help"] if command is None else [command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == want

    def test_a_call_builds_only_its_command(self, tmp_path, monkeypatch):
        want = ["-h", *(a.option_strings[0] for a in build_parser_reference()[1]["decohere"]._actions)]
        added = []
        add_argument = argparse._ActionsContainer.add_argument

        def counting(container, *args, **kwargs):
            added.append(args[0])
            return add_argument(container, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        assert run_cli(tmp_path, "decohere", "--nt", "3") == 0
        assert added == want  # the top-level -h, then decohere's 14 options


@pytest.mark.parametrize("argv", [
    ("tiles",),
    ("tiles", "--state", "compass"),
    ("sensitivity", "--n1", "3", "--n2", "3", "--no-search"),
    ("sensitivity", "--state", "compass", "--n1", "3", "--n2", "3", "--no-search"),
    ("decohere", "--nt", "5"),
    ("decohere", "--kind", "momentum", "--nt", "5"),
])
def test_tables_are_written_under_trapped_floating_point_errors(tmp_path, monkeypatch, argv):
    # table_to_csv renders floats with the shortest-digit kernel, which
    # refuses nan and inf, where the per-cell repr wrote them.  Every table
    # command computes its cells and writes them under main's
    # np.errstate(over, divide, invalid = "raise"), so numpy ends the
    # command with exit 3 at the first non-finite value it makes.
    seen = []

    def writer(header, columns, path):
        seen.append(np.geterr())
        table_to_csv(header, columns, path)

    monkeypatch.setattr(subplanck.cli, "table_to_csv", writer)
    assert run_cli(tmp_path, *argv) == 0
    assert [{k: err[k] for k in ("over", "divide", "invalid")} for err in seen] == [
        {"over": "raise", "divide": "raise", "invalid": "raise"}
    ]


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


def _range_cases():
    """Each ranged option of each command with the first value outside its
    range in the option table: 0 or -1 below it, the cap + 1 above it."""
    for command, (_, options) in _OPTIONS.items():
        for flag, _, *bounds in (*_COMMON, *options):
            if bounds:
                below = "0" if bounds[0] == "positive" else "-1"
                yield pytest.param((command, flag, below), id=f"{command}{flag}-below")
            if len(bounds) > 1:
                yield pytest.param((command, flag, str(bounds[1] + 1)), id=f"{command}{flag}-above")


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

    @pytest.mark.parametrize("argv", [
        pytest.param(("decohere", "--sigma", "0"), id="decohere-sigma-zero"),
        pytest.param(("decohere", "--kind", "momentum", "--sigma", "0"),
                     id="decohere-momentum-sigma-zero"),
        pytest.param(("decohere", "--sigma", "-0.5"), id="decohere-sigma-negative"),
        pytest.param(("decohere", "--offset", "0"), id="decohere-offset-zero"),
        pytest.param(("decohere", "--t-max", "-1"), id="decohere-t-max-negative"),
        pytest.param(("tiles", "--kmax", "-1"), id="tiles-kmax-negative"),
        pytest.param(("tiles", "--mmax", "-1"), id="tiles-mmax-negative"),
        pytest.param(("kerr", "--radius", "-1"), id="kerr-radius-negative"),
        pytest.param(("kerr", "--cutoff", "-1"), id="kerr-cutoff-negative"),
        pytest.param(("tiles", "--threshold", "0"), id="tiles-threshold-zero"),
        pytest.param(("tiles", "--threshold", "-1"), id="tiles-threshold-negative"),
        pytest.param(("kerr", "--samples", "0"), id="kerr-samples-zero"),
        pytest.param(("kerr", "--samples", "-3"), id="kerr-samples-negative"),
        pytest.param(("sensitivity", "--n-scan", "0"), id="sensitivity-n-scan-zero"),
        pytest.param(("sensitivity", "--n-scan", "-3"), id="sensitivity-n-scan-negative"),
        pytest.param(("compare", "--n-scan", "0"), id="compare-n-scan-zero"),
        pytest.param(("compare", "--n-scan", "-3"), id="compare-n-scan-negative"),
        # far above the caps: each once ended in a MemoryError traceback
        pytest.param(("tiles", "--kmax", "100000000"), id="tiles-kmax-huge"),
        pytest.param(("kerr", "--samples", "100000000000"), id="kerr-samples-huge"),
        pytest.param(("decohere", "--nt", "100000000000"), id="decohere-nt-huge"),
        pytest.param(("sensitivity", "--no-search", "--n1", "100000", "--n2", "100000"),
                     id="sensitivity-n1-n2-huge"),
        pytest.param(("compare", "--n-scan", "100000000"), id="compare-n-scan-huge"),
        pytest.param(("sensitivity", "--n-scan", "100000000"), id="sensitivity-n-scan-huge"),
        *_range_cases(),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, argv):
        rc, stderr = run_captured(tmp_path, *argv)
        error = assert_usage_error(rc, stderr, tmp_path, argv[0])
        assert error["kind"] == "ConfigError"
        assert argv[-2] in error["message"]

    @pytest.mark.parametrize("argv", [["--help"], ["decohere", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_corpus_exit_codes(tmp_path):
    # every argv of the pinned corpus gives its exit code; tests/corpus.py
    # also compares two runs of it file by file
    results = corpus.run(tmp_path)
    assert [(r["argv"], r["exit"]) for r in results] == [(r["argv"], r["expected"]) for r in results]


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
        ["wigner", "--method", "integral", "--rule", "gauss-hermite", "--order", "384",
         "--nx", "41", "--np", "41"],
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
    # Threaded BLAS kernels round differently with the thread count, so
    # neither the closed form's factor products nor any quadrature rule's
    # node sums may go through BLAS: the artifacts must be the same bytes
    # under 1 and 2 BLAS threads.  One process per thread count runs
    # every command.
    src = os.path.dirname(os.path.dirname(subplanck.__file__))
    runs = {
        f"{state}-{rule}": ["wigner", "--state", state, *extra]
        for state in ("mixed", "compass")
        for rule, extra in (
            ("closed", ["--nx", "401", "--np", "401"]),
            *((rule, ["--method", "integral", "--rule", rule]) for rule in ("trapezoid", "simpson")),
            ("gauss-hermite", ["--method", "integral", "--rule", "gauss-hermite", "--order", "384"]),
        )
    }
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
        )
        probe = f"""
import os, sys
import subplanck.cli
for name, argv in {runs!r}.items():
    if subplanck.cli.main([*argv, "--out", os.path.join({str(tmp_path / threads)!r}, name)]):
        sys.exit(name)
"""
        subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120)
    for run in runs:
        for name in ("wigner.csv", "wigner.json"):
            assert (tmp_path / "1" / run / name).read_bytes() == (tmp_path / "2" / run / name).read_bytes(), run
