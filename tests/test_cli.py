import argparse
import contextlib
import ctypes
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracebounds
import tracebounds.approx as approx_module
import tracebounds.cli as cli
import tracebounds.linalg as linalg
import tracebounds.matio as matio
import tracebounds.wishart as wishart_module
from conftest import make_trials_singular
from tracebounds.approx import (
    MAX_DEGREE,
    ApproxTarget,
    _grid_sup_error,
    _interpolant_degree,
    series_poly,
    sup_error,
)
from tracebounds.chebyshev import ChebPoly
from tracebounds.cli import main
from tracebounds.errors import CertificateError, MatrixParseError
from tracebounds.matio import parse_matrix_file
from tracebounds.linalg import SymMatrix, sample_spd_with_spectrum
from tracebounds.rng import RngState


def run(argv):
    return main(argv)


def write_raw(path, m: SymMatrix):
    """Write a matrix in the raw dense format that parse_matrix_file reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.dim}\n")
        for row in m.entries:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def write_spd100(path):
    """A d=64 SPD matrix with spectrum [1, 100] in the raw format."""
    write_raw(str(path), sample_spd_with_spectrum(64, 100.0, np.random.default_rng(0)))


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(tracebounds.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestExitCodes:
    def test_poly_build_ok(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["poly", "build", "--func", "inv", "--kappa", "4",
                    "--delta", "0.1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["grid_sup_error"] <= doc["certificate"]["bound"]

    def test_poly_build_bad_delta_usage(self):
        assert run(["poly", "build", "--func", "inv", "--kappa", "4",
                    "--delta", "0.5"]) == 2

    def test_poly_build_bad_kappa_usage(self):
        assert run(["poly", "build", "--func", "inv", "--kappa", "1.5",
                    "--delta", "0.1"]) == 2

    def test_unknown_subcommand_usage(self):
        assert run(["frobnicate"]) == 2

    def test_trace_cheb_without_kappa_usage(self, tmp_path):
        m = tmp_path / "m.raw"
        write_raw(m, SymMatrix(np.eye(2)))
        assert run(["trace", "--matrix", str(m), "--backend", "cheb",
                    "--seed", "1"]) == 2

    def test_trace_missing_matrix_io(self):
        assert run(["trace", "--matrix", "/nonexistent/x.raw", "--kappa", "4",
                    "--seed", "1"]) == 4

    def test_posterior_n_equals_d_usage(self):
        assert run(["wishart", "posterior", "--d", "6", "--n", "6",
                    "--trials", "10", "--seed", "1"]) == 2

    def test_game_missing_algo_params_usage(self):
        assert run(["wishart", "game", "--d", "4", "--algo", "hutch",
                    "--budget", "4", "--seed", "1"]) == 2


class TestPolyRoundTrip:
    def test_error_recertifies_built_poly(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run(["poly", "build", "--func", "invsqrt", "--kappa", "16",
                    "--delta", "0.1", "--out", str(out)]) == 0
        rep = tmp_path / "rep.json"
        assert run(["poly", "error", "--poly", str(out),
                    "--out", str(rep)]) == 0
        built = json.loads(out.read_text())["certificate"]
        rechecked = json.loads(rep.read_text())
        assert rechecked["degree"] == built["degree"]
        assert abs(rechecked["grid_sup_error"] - built["grid_sup_error"]) <= 1e-12

    def test_error_reads_poly_behind_byte_order_mark(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["poly", "build", "--func", "inv", "--kappa", "4",
                    "--delta", "0.1", "--out", str(out)]) == 0
        out.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
        assert run(["poly", "error", "--poly", str(out),
                    "--out", str(tmp_path / "r.json")]) == 0

    def test_error_flags_corrupted_poly(self, tmp_path):
        out = tmp_path / "p.json"
        run(["poly", "build", "--func", "inv", "--kappa", "4",
             "--delta", "0.01", "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["coeffs"][0] += 0.5  # sabotage
        out.write_text(json.dumps(doc))
        assert run(["poly", "error", "--poly", str(out),
                    "--out", str(tmp_path / "r.json")]) == 3


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(interval=[4.0, 1.0]), "need a < b"),
    (lambda doc: doc["certificate"].update(kappa="abc"),
     "certificate.kappa must be a finite number, got 'abc'"),
    (None, "not JSON"),
    (lambda doc: doc.pop("coeffs"), "a polynomial needs interval and coeffs"),
    (lambda doc: doc["coeffs"].__setitem__(1, float("nan")),
     "a NaN or infinite number"),
    (lambda doc: doc["certificate"].update(func="monomial"),
     "certificate: func must be inv or invsqrt, got 'monomial'"),
    (lambda doc: doc["certificate"].update(kappa=1.0),
     "certificate: need finite kappa >= 2"),
    (lambda doc: doc["certificate"].update(delta=0.7),
     "certificate: need 0 < delta < 1/2"),
    (lambda doc: doc["certificate"].update(delta=None),
     "certificate.delta must be a finite number, got None"),
    (lambda doc: doc.pop("certificate"), "no certificate to re-check"),
    (lambda doc: doc.update(certificate=None), "no certificate to re-check"),
    (lambda doc: doc.update(coeffs=[[1.0, 2.0], [3.0, 4.0]]),
     "bad polynomial: coeffs must be a nonempty 1-D list, got shape (2, 2)"),
    (lambda doc: doc.update(interval=[1.0, 16.0, 99.0]),
     "bad polynomial: interval must be two numbers, got [1.0, 16.0, 99.0]"),
])
def test_malformed_poly_file_exits_4(tmp_path, capsys, edit, message):
    out = tmp_path / "p.json"
    assert run(["poly", "build", "--func", "inv", "--kappa", "4",
                "--delta", "0.1", "--out", str(out)]) == 0
    if edit is None:
        out.write_text(out.read_text()[:-5])  # cut off inside the JSON
    else:
        doc = json.loads(out.read_text())
        edit(doc)
        out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["poly", "error", "--poly", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_poly_interval_reaching_zero_exits_4(tmp_path, capsys):
    # x^{-1/2} is NaN at x < 0: the grid error used to print as NaN (not
    # JSON), with a RuntimeWarning, and pass the gate with exit 0.
    out = tmp_path / "p.json"
    out.write_text(json.dumps({
        "interval": [-1.0, 16.0], "coeffs": [0.5],
        "certificate": {"func": "invsqrt", "kappa": 16.0, "delta": 0.1,
                        "bound": 0.025}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["poly", "error", "--poly", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "interval [-1.0, 16.0] must lie in x > 0" in captured.err


@pytest.mark.parametrize("coeffs, code", [
    ([1e308, 1e308, -1e308], 4),
    ([1e299, 1e299, -1e299], 3),
])
def test_poly_error_report_is_json_or_empty(tmp_path, capsys, coeffs, code):
    # Finite coefficients whose values overflow used to print
    # "grid_sup_error": NaN (not JSON), with RuntimeWarnings; a sum of
    # magnitudes past 1e300 is now refused before any evaluation.
    out = tmp_path / "p.json"
    out.write_text(json.dumps({
        "interval": [1.0, 16.0], "coeffs": coeffs,
        "certificate": {"func": "inv", "kappa": 16.0, "delta": 0.1,
                        "bound": 0.1}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["poly", "error", "--poly", str(out)]) == code
    captured = capsys.readouterr()
    if code == 4:
        assert captured.out == ""
        assert "coefficient magnitudes sum past 1e+300" in captured.err
    else:
        report = json.loads(captured.out, parse_constant=pytest.fail)
        assert math.isfinite(report["grid_sup_error"])


def test_nan_grid_error_fails_both_gates(tmp_path, monkeypatch, capsys):
    out = tmp_path / "p.json"
    assert run(["poly", "build", "--func", "inv", "--kappa", "4",
                "--delta", "0.1", "--out", str(out)]) == 0
    monkeypatch.setattr(cli, "sup_error", lambda *args: math.nan)
    assert run(["poly", "error", "--poly", str(out),
                "--out", str(tmp_path / "r.json")]) == 3
    monkeypatch.setattr(approx_module, "sup_error", lambda *args: math.nan)
    with pytest.raises(CertificateError):
        approx_module.inv_poly(4.0, 0.1)


class TestPolyBuildCertificate:
    @pytest.mark.parametrize("grid", [1024, 4096, 4097, 8192])
    def test_printed_error_is_a_fresh_evaluation(self, tmp_path, grid):
        out = tmp_path / "p.json"
        assert run(["poly", "build", "--func", "invsqrt", "--kappa", "64",
                    "--delta", "0.01", "--grid", str(grid), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        cert = doc["certificate"]
        poly = ChebPoly.from_dict(doc)
        assert cert["grid_size"] == max(grid, 10 * poly.degree())
        _grid_sup_error.cache_clear()
        fresh = sup_error(poly, ApproxTarget("inv_sqrt", kappa=64.0, delta=0.01),
                          cert["grid_size"])
        assert cert["grid_sup_error"] == fresh

    def test_small_grid_raised_to_sup_error_minimum(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["poly", "build", "--func", "inv", "--kappa", "4",
                    "--delta", "0.1", "--grid", "100", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["certificate"]["grid_size"] == 1024
        rep = tmp_path / "rep.json"
        assert run(["poly", "error", "--poly", str(out), "--grid", "100",
                    "--out", str(rep)]) == 0
        assert json.loads(rep.read_text())["grid_size"] == 1024

    @pytest.mark.parametrize("func, kind", [("inv", "inv"), ("invsqrt", "inv_sqrt")])
    @pytest.mark.parametrize("kappa", [16.0, 256.0, 1024.0])
    def test_sup_error_bound_between_grid_error_and_bound(self, tmp_path, func,
                                                           kind, kappa):
        out = tmp_path / "p.json"
        assert run(["poly", "build", "--func", func, "--kappa", repr(kappa),
                    "--delta", "0.01", "--out", str(out)]) == 0
        cert = json.loads(out.read_text())["certificate"]
        assert cert["grid_sup_error"] <= cert["sup_error_bound"] <= cert["bound"]
        series = series_poly(ApproxTarget(kind, kappa=kappa, delta=0.01))
        assert cert["degree"] <= 0.55 * series.degree()

    def test_default_grid_evaluates_once(self):
        _grid_sup_error.cache_clear()
        assert run(["poly", "build", "--func", "inv", "--kappa", "64",
                    "--delta", "0.01", "--out", os.devnull]) == 0
        info = _grid_sup_error.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def test_scipy_stats_stays_off_the_import_path(tmp_path):
    # numpy is the only runtime dependency (scipy.stats alone costs about a
    # second and 60 MB to import), so no subcommand may load any scipy module.
    # poly draws no random numbers, so it does not load numpy.random either.
    script = f"""
import sys
from tracebounds.cli import main
out = {str(tmp_path / "out.txt")!r}
assert main(["poly", "build", "--func", "inv", "--kappa", "16",
             "--delta", "0.1", "--out", out]) == 0
assert "numpy.random" not in sys.modules
assert main(["trace", "--gen-spd", "--dim", "8", "--kappa", "4",
             "--backend", "cheb", "--seed", "1", "--out", out]) == 0
assert main(["wishart", "eigcdf", "--d", "4", "--trials", "20",
             "--seed", "1", "--out", out]) == 0
assert main(["wishart", "posterior", "--d", "6", "--n", "2",
             "--trials", "40", "--seed", "1", "--out", out]) == 0
assert main(["wishart", "game", "--d", "6", "--algo", "hutch", "--nv", "2",
             "--m", "3", "--budget", "6", "--trials", "3", "--seed", "1",
             "--out", out]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_stays_off_the_import_path(tmp_path):
    # Only the verify subcommand loads the invariant checks.
    script = f"""
import sys
from tracebounds.cli import main
assert main(["wishart", "eigcdf", "--d", "4", "--trials", "20",
             "--seed", "1", "--out", {str(tmp_path / "out.txt")!r}]) == 0
print("tracebounds.verify" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_output_ignores_thread_environment():
    # TRACEBOUNDS_THREADS once reached the config line; no environment
    # variable may change an experiment's output.
    argv = ["-m", "tracebounds.cli", "wishart", "lmax", "--d", "6",
            "--trials", "40", "--seed", "3", "--format", "csv"]
    outs = []
    for threads in (None, "4"):
        env = src_env()
        env.pop("TRACEBOUNDS_THREADS", None)
        if threads is not None:
            env["TRACEBOUNDS_THREADS"] = threads
        proc = subprocess.run([sys.executable, *argv], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert b'"threads": 1' in outs[0].splitlines()[0]


@pytest.mark.parametrize("argv", [
    ["wishart", "game", "--d", "256", "--p", "1", "--algo", "exact",
     "--budget", "256", "--trials", "4", "--seed", "3"],
    ["trace", "--gen-spd", "--dim", "224", "--kappa", "16", "--func", "inv",
     "--backend", "exact", "--probes", "8", "--seed", "1"],
    ["wishart", "invtrace", "--d", "256", "--trials", "4", "--seed", "3"],
    ["poly", "build", "--func", "invsqrt", "--kappa", "1024", "--delta", "0.001"],
    # The spectrum guard rejects this matrix (spectrum [1, 100]).
    ["trace", "--matrix", "spd100.txt", "--func", "inv", "--backend", "cheb",
     "--kappa", "16", "--probes", "64", "--seed", "1"],
    # The benchmark's invtrace: its 200 dqds calls split over the threads.
    ["wishart", "invtrace", "--d", "64", "--trials", "200", "--format", "csv",
     "--seed", "5"],
    # The matrix products of these two differ by the thread count unless
    # the whole subcommand runs on one thread.
    ["trace", "--gen-spd", "--dim", "300", "--kappa", "16", "--backend",
     "exact", "--seed", "3", "--probes", "8"],
    ["wishart", "game", "--d", "450", "--trials", "2", "--budget", "4000",
     "--seed", "3", "--algo", "hutch", "--nv", "4", "--m", "8"],
])
def test_output_ignores_blas_thread_count(argv, tmp_path):
    # From d ~ 224 on, LAPACK's eigensolve rounds differently on one and on
    # two OpenBLAS threads, and so do the QR and the products of these
    # d = 300 and 450 runs; two threads need not mean two cores.  invtrace runs its dqds calls on as
    # many Python threads as OpenBLAS has outside the CLI's pin.
    write_spd100(tmp_path / "spd100.txt")
    outs = []
    for threads in ("1", "2"):
        env = dict(src_env(), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "tracebounds.cli", *argv],
                              env=env, capture_output=True, timeout=120,
                              cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_invtrace_splits_over_the_threads_outside_the_pin(monkeypatch):
    # main pins OpenBLAS to one thread; the dqds calls still take their
    # range count from the count before the pin: two ranges, one worker.
    get, put = linalg._blas_thread_control()
    started, counts = [], []

    class Thread(linalg.threading.Thread):
        def start(self):
            started.append(self)
            counts.append(get())
            super().start()

    monkeypatch.setattr(linalg.threading, "Thread", Thread)
    before = get()
    put(2)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["wishart", "invtrace", "--d", "8", "--trials", "20",
                        "--seed", "1"]) == 0
        assert get() == 2
    finally:
        put(before)
    assert len(started) == 1 and counts == [1]


@pytest.mark.parametrize("argv", [
    ["eigcdf", "--d", "4", "--trials", "0"],
    ["game", "--d", "4", "--algo", "exact", "--budget", "4", "--trials", "0"],
    ["posterior", "--d", "4", "--n", "1", "--trials", "0"],
    ["invtrace", "--d", "1", "--trials", "5"],
    ["lmax", "--d", "0", "--trials", "5"],
])
def test_wishart_argument_errors_are_usage_errors(argv, capsys):
    assert run(["wishart", *argv, "--seed", "1"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["trace", "--gen-spd", "--dim", "8", "--backend", "lanczos", "--m", "0"],
    ["trace", "--gen-spd", "--dim", "8", "--backend", "lanczos", "--m", "9"],
    ["trace", "--gen-spd", "--dim", "8", "--backend", "exact", "--probes", "0"],
    ["trace", "--gen-spd", "--dim", "8", "--backend", "exact", "--func", "foo"],
    ["trace", "--gen-spd", "--dim", "1", "--backend", "exact"],
    ["trace", "--gen-spd", "--dim", "8", "--kappa", "0.5", "--backend", "exact"],
    ["wishart", "eigcdf", "--d", "4", "--trials", "5", "--x", "2"],
    ["wishart", "eigcdf", "--d", "4", "--trials", "5", "--x", "abc"],
    ["wishart", "lmax", "--d", "4", "--trials", "5", "--t", "abc"],
    ["wishart", "game", "--d", "8", "--algo", "hutch", "--nv", "2", "--m", "0",
     "--budget", "16", "--trials", "2"],
    ["wishart", "game", "--d", "8", "--algo", "hutch", "--nv", "0", "--m", "2",
     "--budget", "16", "--trials", "2"],
    ["trace", "--gen-spd", "--dim", "8", "--backend", "lanczos", "--m", "4",
     "--func", "foo"],
    ["poly", "build", "--func", "inv", "--kappa", "4", "--delta", "0.6"],
    ["wishart", "invtrace", "--d", "4", "--trials", "5", "--p", "0.5"],
    ["wishart", "game", "--d", "4", "--algo", "exact", "--budget", "4",
     "--trials", "2", "--C", "1"],
    ["wishart", "eigcdf", "--d", "4", "--trials", "5", "--x", "-0.1"],
    ["wishart", "game", "--algo", "exact", "--d", "4", "--budget", "3",
     "--trials", "2"],
    ["wishart", "game", "--d", "4", "--algo", "const", "--c-guess", "1",
     "--budget", "-5", "--trials", "2"],
])
def test_argument_errors_are_usage_errors(argv, capsys):
    # poly build takes no --seed.
    seed = [] if argv[0] == "poly" else ["--seed", "1"]
    assert run([*argv, *seed]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:")
    assert captured.out == ""


def test_posterior_rejects_csv(capsys):
    assert run(["wishart", "posterior", "--d", "6", "--n", "2", "--trials", "10",
                "--seed", "1", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert "JSON only" in captured.err and captured.out == ""


def test_posterior_without_queries_gates_on_null_tests(capsys):
    # At n = 0 the uncorrected trace is the corrected one, so the negative
    # control cannot reject; the null tests pass on this seed.
    assert run(["wishart", "posterior", "--d", "12", "--n", "0", "--trials", "400",
                "--seed", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ks_trace_uncorrected"] == rep["ks_trace"]
    assert rep["ks_trace"]["p_value"] > 0.01 and rep["ks_lambda_min"]["p_value"] > 0.01


def test_eigcdf_checks_monotonicity_in_x_order(capsys):
    # The rows keep the order of --x; the CDF is compared in x order.
    assert run(["wishart", "eigcdf", "--d", "8", "--trials", "50",
                "--x", "0.64,0.04", "--seed", "5", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [float(r.split(",")[0]) for r in rows] == [0.64, 0.04]


def test_eigcdf_non_monotone_cdf_exits_3(monkeypatch, capsys):
    # Increasing in argument order, decreasing in x order.
    rows = [wishart_module.CdfRow(0.64, 15, 0.3, 0.1),
            wishart_module.CdfRow(0.04, 25, 0.5, 0.1)]
    monkeypatch.setattr(cli, "eig_cdf_experiment", lambda d, trials, xs, rng: rows)
    assert run(["wishart", "eigcdf", "--d", "8", "--trials", "50",
                "--x", "0.64,0.04", "--seed", "5"]) == 3
    assert "empirical CDF not monotone in x" in capsys.readouterr().err


def test_invtrace_all_trials_dropped_exits_3(monkeypatch, capsys):
    make_trials_singular(monkeypatch, range(5))
    assert run(["wishart", "invtrace", "--d", "3", "--trials", "5",
                "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert "d=3" in err and "trials=5" in err


def test_invtrace_dlasq1_failure_exits_3(monkeypatch, capsys):
    # A stalled dqds (INFO = 2), which the dense SVD would have finished
    # by QR sweeps, is an eigensolver failure.
    def dlasq1(n, d, e, work, info):
        info.value = 2

    monkeypatch.setattr(linalg, "_dlasq1", lambda: (dlasq1, ctypes.c_int64))
    assert run(["wishart", "invtrace", "--d", "3", "--trials", "5",
                "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dlasq1) did not converge on bidiagonal 0: INFO = 2" in captured.err


def test_invtrace_csv_labels_rows_by_trial(monkeypatch, capsys):
    # Trial 1 is dropped; the rows after it keep their own trial indices.
    make_trials_singular(monkeypatch, [1])
    assert run(["wishart", "invtrace", "--d", "3", "--trials", "5",
                "--seed", "93", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [int(r.split(",")[0]) for r in rows] == [0, 2, 3, 4]


@pytest.mark.parametrize("argv, message", [
    (["invtrace", "--d", "64", "--p", "120", "--trials", "20"],
     "d^(2p) overflows at d=64, p=120"),
    (["invtrace", "--d", "64", "--p", "70", "--trials", "20"],
     "tr(W^-p) overflows at d=64, p=70"),
    (["game", "--d", "64", "--p", "150", "--algo", "exact", "--budget", "64",
      "--trials", "2"], "trial 0: true trace tr(W^-p) overflows at p=150"),
    (["game", "--d", "64", "--p", "60", "--algo", "hutch", "--nv", "2",
      "--m", "4", "--budget", "8", "--trials", "10"],
     "trial 2: true trace tr(W^-p) overflows at p=60"),
])
def test_overflowing_trace_exits_3(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["wishart", *argv, "--seed", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("kappa", ["1e16", "1e100", "1e308"])
@pytest.mark.parametrize("argv", [
    ["poly", "build", "--func", "inv", "--delta", "0.1"],
    ["poly", "build", "--func", "invsqrt", "--delta", "0.1"],
    ["trace", "--gen-spd", "--dim", "8", "--backend", "cheb", "--seed", "1"],
])
def test_kappa_past_every_ellipse_is_a_certificate_failure(argv, kappa, capsys):
    # From kappa ~ 1e16 on, (kappa + 1) / (kappa - 1) rounds to 1, so every
    # Bernstein ellipse degenerates and no degree is finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--kappa", kappa]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certificate failure: accuracy certificate "
                                   "failed: achieved inf > bound ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, degree", [
    (["poly", "build", "--func", "invsqrt", "--kappa", "1e8"], 122762),
    (["poly", "build", "--func", "invsqrt", "--kappa", "1e10"], 1469998),
    (["poly", "build", "--func", "invsqrt", "--kappa", "1e12"], 17124016),
    (["poly", "build", "--func", "inv", "--kappa", "1e8"], 177363),
    (["trace", "--gen-spd", "--dim", "8", "--backend", "cheb", "--kappa", "1e8",
      "--seed", "1"], 177363),
])
def test_degree_past_the_ceiling_is_refused_before_allocating(argv, degree):
    # Each build would take hundreds of MB to tens of GB; it exits 3 with
    # empty stdout from a process that stays small.
    script = """
import resource, sys
from tracebounds.cli import main
code = main(sys.argv[1:])
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(f"maxrss_kb {rss}", file=sys.stderr)
sys.exit(code)
"""
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--delta", "0.1"],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    message, rss = proc.stderr.splitlines()
    assert message == (f"certificate failure: certified degree {degree} exceeds "
                       f"the ceiling MAX_DEGREE = {MAX_DEGREE}")
    assert int(rss.split()[1]) < 150 * 1024


@pytest.mark.parametrize("kind", ["inv", "inv_sqrt"])
def test_every_certified_degree_is_under_the_ceiling(kind):
    for kappa in np.geomspace(2.0, 1e17, 120):
        for delta in (0.4, 0.1, 1e-3, 1e-8):
            try:
                n = _interpolant_degree(ApproxTarget(kind, kappa=kappa, delta=delta))
            except CertificateError:
                continue
            assert 1 <= n <= MAX_DEGREE


def test_the_degree_ceiling_is_inclusive():
    # The ceiling is inclusive: the largest kappa whose invsqrt degree at
    # delta = 0.1 is at most MAX_DEGREE certifies, one step past it refuses.
    def target(kappa):
        return ApproxTarget("inv_sqrt", kappa=kappa, delta=0.1)

    lo, hi = 2.5e7, 1e8
    for _ in range(60):
        mid = (lo + hi) / 2.0
        try:
            _interpolant_degree(target(mid))
            lo = mid
        except CertificateError:
            hi = mid
    assert _interpolant_degree(target(lo)) == MAX_DEGREE
    with pytest.raises(CertificateError, match="exceeds the ceiling") as info:
        _interpolant_degree(target(hi))
    assert info.value.achieved > info.value.bound / 2.0


@pytest.mark.parametrize("argv, message", [
    (["--dim", "4", "--kappa", "1e3", "--backend", "lanczos", "--m", "4"],
     "probe 0's quadratic form is not finite"),
    (["--dim", "8", "--kappa", "1e300", "--backend", "exact", "--probes", "2"],
     "probe 0's quadratic form is not finite"),
    # Forms near 1e304 are finite; their sample stddev is not.
    (["--dim", "2", "--kappa", "700", "--backend", "exact", "--probes", "3"],
     "the forms' mean or stddev is not finite"),
])
def test_overflowing_quadratic_form_exits_3(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["trace", "--gen-spd", "--func", "exp", *argv,
                    "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@settings(max_examples=40, deadline=None)
@given(d=st.integers(min_value=2, max_value=12),
       kappa=st.sampled_from(["2", "100", "700", "1e3", "1e300"]),
       backend=st.sampled_from([["exact"], ["lanczos", "--m", "1"],
                                ["lanczos", "--m", "2"]]),
       probes=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_trace_prints_strict_json_or_nothing(d, kappa, backend, probes, seed):
    # exp overflows on spectra past ~709, and the forms' sample stddev
    # already near 1e154; either exits 3 with nothing on stdout, never a
    # report holding NaN or Infinity.
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(["trace", "--gen-spd", "--dim", str(d), "--kappa", kappa,
                    "--func", "exp", "--backend", *backend,
                    "--probes", str(probes), "--seed", str(seed)])
    assert code in (0, 3)
    if code == 3:
        assert out.getvalue() == ""
    else:
        rep = json.loads(out.getvalue(), parse_constant=reject)
        assert math.isfinite(rep["estimate"])


def test_invtrace_keeps_nearly_singular_trial(capsys):
    # The dense sampler's trial 77 of this seed had an eigvalsh lambda_min
    # below 0 (cond(G) = 1.7e8).  Bidiagonal singular values keep
    # lambda_min to high relative accuracy, so no row is lost at d = 64.
    assert run(["wishart", "invtrace", "--d", "64", "--trials", "200",
                "--seed", "1867113236", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [int(r.split(",")[0]) for r in rows] == list(range(200))
    assert all(float(r.split(",")[1]) > 0 for r in rows)


class TestMatrixFiles:
    def test_raw_identity(self, tmp_path):
        f = tmp_path / "m.raw"
        f.write_text("2\n1 0\n0 1\n")
        mat, asym = parse_matrix_file(f)
        np.testing.assert_allclose(mat.entries, np.eye(2))
        assert asym == 0.0

    def test_matrix_market_lower_triangle(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n"
            "1 1 2.0\n"
            "2 1 1.0\n"
            "2 2 3.0\n"
        )
        mat, _ = parse_matrix_file(f)
        np.testing.assert_allclose(mat.entries, [[2.0, 1.0], [1.0, 3.0]])

    def test_matrix_market_rejects_non_finite_entry(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "1 1 2.0\n"
            "2 2 inf\n"
        )
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix_file(f)
        assert exc.value.line == 4
        assert "non-finite entry 'inf'" in str(exc.value)

    def test_finite_entries_whose_sum_overflows_parse(self, tmp_path):
        f = tmp_path / "m.raw"
        f.write_text("2\n5e307 5e307 5e307 5e307\n")
        mat, _ = parse_matrix_file(f)
        np.testing.assert_array_equal(mat.entries, np.full((2, 2), 5e307))

    def test_huge_finite_entry_gives_strict_json(self, tmp_path, capsys):
        f = tmp_path / "m.raw"
        f.write_text("2\n1e308 0\n0 1\n")
        assert run(["trace", "--matrix", str(f), "--backend", "exact",
                    "--probes", "4", "--seed", "1"]) == 0

        def reject(token):
            raise ValueError(f"not strict JSON: {token}")

        rep = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert rep["estimate"] == pytest.approx(1.0)

    def test_overflowing_asymmetry_exits_4(self, tmp_path, capsys):
        f = tmp_path / "m.raw"
        f.write_text("2\n1 1e308\n-1e308 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["trace", "--matrix", str(f), "--backend", "exact",
                        "--probes", "4", "--seed", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "i/o error: line 3: asymmetry max |M - M^T| overflows\n")

    def test_non_utf8_file_exits_4(self, tmp_path, capsys):
        f = tmp_path / "m.raw"
        f.write_bytes(b"2\n1 0\n0 \xff1\n")
        assert run(["trace", "--matrix", str(f), "--backend", "exact",
                    "--probes", "4", "--seed", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "i/o error: line 3: not UTF-8 text\n"

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 3\n1 1 2.0\n2 1 1.0\n2 2 3.0\n",
        "2\n2 1\n1 3\n",
    ])
    def test_byte_order_mark_is_accepted(self, tmp_path, text):
        f = tmp_path / "m.txt"
        f.write_bytes(b"\xef\xbb\xbf" + text.encode())
        mat, _ = parse_matrix_file(f)
        np.testing.assert_array_equal(mat.entries, [[2.0, 1.0], [1.0, 3.0]])

    def test_non_utf8_line_counts_past_byte_order_mark(self, tmp_path):
        f = tmp_path / "m.raw"
        f.write_bytes(b"\xef\xbb\xbf2\n1 0\n0 \xff1\n")
        with pytest.raises(MatrixParseError, match="line 3: not UTF-8 text"):
            parse_matrix_file(f)

    def test_matrix_market_pair_given_twice_exits_4(self, tmp_path, capsys):
        f = tmp_path / "m.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n"
            "1 2 1.0\n"
            "2 1 5.0\n"
            "2 2 3.0\n"
        )
        assert run(["trace", "--matrix", str(f), "--backend", "exact",
                    "--probes", "4", "--seed", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "i/o error: line 4: entry (2,1) given twice\n"

    @pytest.mark.parametrize("size", ["0 0 0", "-2 -2 0"])
    def test_matrix_market_size_below_one_exits_4(self, tmp_path, capsys, size):
        f = tmp_path / "m.mtx"
        f.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                     f"{size}\n")
        with pytest.raises(MatrixParseError, match="line 2: dimension must be >= 1"):
            parse_matrix_file(f)
        assert run(["trace", "--matrix", str(f), "--backend", "exact",
                    "--probes", "4", "--seed", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "i/o error: line 2: dimension must be >= 1\n"

    def test_non_finite_entry_exits_4(self, tmp_path, capsys):
        f = tmp_path / "m.raw"
        f.write_text("2\n1 nan\nnan 1\n")
        assert run(["trace", "--matrix", str(f), "--backend", "exact",
                    "--probes", "4", "--seed", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "i/o error: line 2: non-finite entry 'nan'\n"

    def test_truncated_raw_reports_line(self, tmp_path):
        f = tmp_path / "m.raw"
        f.write_text("3\n1 0 0\n0 1 0\n")
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix_file(f)
        assert exc.value.line is not None

    def test_line_breaks_inside_rows(self, tmp_path):
        f = tmp_path / "m.raw"
        f.write_text("3\n1 0\n0 0 2 0 0\n\n0 3\n")
        mat, _ = parse_matrix_file(f)
        np.testing.assert_array_equal(mat.entries, np.diag([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("text, line, message", [
        ("2\n1 0\n0 x\n", 3, "bad entry 'x'"),
        ("2\n\n1 0\n\n0 1e\n", 5, "bad entry '1e'"),
        ("2\n1 0 x 1 5\n", 2, "bad entry 'x'"),
        ("2\n1 0\n0 1\n5\n", 4, "more than 4 entries"),
        ("2\n1 0\n0 1 5 x\n", 3, "more than 4 entries"),
        ("2\n1 0\n0\n", 3, "expected 4 entries, got 3"),
        ("2\n1 0\n0 nan\n", 3, "non-finite entry 'nan'"),
        ("2\n1 -inf\n0 1\n", 2, "non-finite entry '-inf'"),
        ("2\n1 NaN x 1\n", 2, "non-finite entry 'NaN'"),
        ("2\n1 0\n0 1 inf\n", 3, "more than 4 entries"),
        ("2\n1 0\n0 1 x\n", 3, "more than 4 entries"),
    ])
    def test_raw_errors_name_line_and_cause(self, tmp_path, text, line, message):
        f = tmp_path / "m.raw"
        f.write_text(text)
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix_file(f)
        assert exc.value.line == line
        assert message in str(exc.value)

    def test_write_read_round_trip(self, tmp_path):
        g = RngState(90).generator()
        from tracebounds.linalg import sample_wishart
        w = sample_wishart(5, g)
        f = tmp_path / "w.raw"
        write_raw(f, w)
        back, asym = parse_matrix_file(f)
        np.testing.assert_allclose(back.entries, w.entries, atol=1e-12)

    # The parse memo.  Each test's matrices hold bytes no other test writes,
    # so its first parse cannot hit what an earlier test left.

    @pytest.fixture
    def raw_parses(self, monkeypatch):
        """The list of line counts passed to matio._parse_raw, one per parse."""
        calls = []
        parse = matio._parse_raw

        def counted(lines):
            calls.append(len(lines))
            return parse(lines)

        monkeypatch.setattr(matio, "_parse_raw", counted)
        return calls

    def test_same_bytes_under_another_path_parse_once(self, tmp_path, capsys,
                                                      raw_parses):
        text = "3\n4 1 0\n1.5 3 0.5\n0 0.5 2.0625\n"
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        outs = []
        for f in paths:
            f.write_text(text)
            assert run(["trace", "--matrix", str(f), "--backend", "exact",
                        "--probes", "8", "--seed", "1"]) == 0
            outs.append(capsys.readouterr().out.replace(str(f), "M"))
        assert raw_parses == [4]
        assert outs[0] == outs[1]
        (a, asym_a), (b, asym_b) = (parse_matrix_file(f) for f in paths)
        assert raw_parses == [4]
        np.testing.assert_array_equal(a.entries, b.entries)
        assert asym_a == asym_b == 0.5

    def test_file_rewritten_in_place_is_parsed_again(self, tmp_path, raw_parses):
        f = tmp_path / "m.txt"
        f.write_text("2\n3.0625 1\n1 2\n")
        first, _ = parse_matrix_file(f)
        before = f.stat()
        f.write_text("2\n3.0625 1\n1 5\n")
        os.utime(f, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert f.stat().st_size == before.st_size
        assert f.stat().st_mtime_ns == before.st_mtime_ns
        second, _ = parse_matrix_file(f)
        assert raw_parses == [3, 3]
        np.testing.assert_array_equal(first.entries, [[3.0625, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(second.entries, [[3.0625, 1.0], [1.0, 5.0]])

    @pytest.mark.parametrize("good_text, text, line, message", [
        ("2\n1.125 0\n0 1\n", "2\n1.125 0\n0 x\n", 3, "bad entry 'x'"),
        ("2\n1.25 0\n0 1\n", "2\n1.25 1e308\n-1e308 1\n", 3,
         "asymmetry max |M - M^T| overflows"),
    ])
    def test_failed_parse_is_not_kept(self, tmp_path, raw_parses, good_text,
                                      text, line, message):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text(good_text)
        bad.write_text(text)
        kept = parse_matrix_file(good)
        errors = []
        for _ in range(2):
            with pytest.raises(MatrixParseError) as exc:
                parse_matrix_file(bad)
            errors.append((str(exc.value), exc.value.line))
        assert errors == [(f"line {line}: {message}", line)] * 2
        assert parse_matrix_file(good)[0] is kept[0]
        assert raw_parses == [3, 3, 3]

    def test_returned_entries_are_read_only(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("2\n7.0625 0\n0 1\n")
        for _ in range(2):  # the parse, then the kept result
            mat, _ = parse_matrix_file(f)
            with pytest.raises(ValueError, match="read-only"):
                mat.entries[0, 0] = 0.0
            np.testing.assert_array_equal(mat.entries, np.diag([7.0625, 1.0]))


class TestTrace:
    def test_matrix_and_gen_spd_together_exit_2(self, tmp_path, capsys):
        f = tmp_path / "m.raw"
        f.write_text("2\n1 0\n0 1\n")
        assert run(["trace", "--matrix", str(f), "--gen-spd", "--dim", "8",
                    "--backend", "exact", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_gen_spd_json_report(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["trace", "--gen-spd", "--dim", "16", "--kappa", "4",
                    "--backend", "cheb", "--delta", "0.01",
                    "--probes", "256", "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["quadratic_forms"]) == 256
        assert doc["mvp_count"] > 0 and doc["mvp_count"] % 256 == 0
        assert doc["bias_bound"] == pytest.approx(16 * 0.01 / 4)

    def test_bias_bound_withheld_outside_interval(self, tmp_path, capsys):
        # spec(A) fills [1, 100], where the polynomial certified on [1, 16]
        # diverges, so its bias bound does not hold: exit 0, bound withheld.
        path = tmp_path / "spd100.txt"
        write_spd100(path)
        assert run(["trace", "--matrix", str(path), "--func", "inv",
                    "--backend", "cheb", "--kappa", "16", "--probes", "64",
                    "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bias_bound"] is None
        assert doc["bias_bound_withheld"].startswith("spec(A) is not inside")
        assert list(doc)[-2:] == ["bias_bound_withheld", "quadratic_forms"]

    @pytest.mark.parametrize("d, kappa", [(64, 16.0), (224, 16.0), (512, 256.0)])
    def test_gen_spd_passes_spectrum_guard(self, d, kappa, capsys):
        # Its endpoints are pinned to 1 and kappa, then rounded by the
        # rotation (to 1 - 7e-15 and 256 - 6e-14 at d = 512).
        assert run(["trace", "--gen-spd", "--dim", str(d), "--kappa", repr(kappa),
                    "--backend", "cheb", "--delta", "0.1", "--probes", "2",
                    "--no-quadratic-forms", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bias_bound"] == d * 0.1 / kappa
        assert "bias_bound_withheld" not in doc

    def test_json_repr_round_trip(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["trace", "--gen-spd", "--dim", "8", "--kappa", "4",
                "--backend", "exact", "--func", "inv", "--seed", "5"]
        run(args + ["--out", str(out1)])
        run(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        # floats survive a parse/serialize cycle bit-exactly (repr round-trip)
        doc = json.loads(out1.read_text())
        assert json.loads(json.dumps(doc)) == doc


# The least argv that parses, per leaf subcommand.
MINIMAL_ARGV = {
    ("poly", "build"): ["--func", "inv", "--kappa", "4", "--delta", "0.1"],
    ("poly", "error"): ["--poly", "p.json"],
    ("trace",): ["--seed", "1"],
    ("wishart", "eigcdf"): ["--d", "4", "--seed", "1"],
    ("wishart", "lmax"): ["--d", "4", "--seed", "1"],
    ("wishart", "invtrace"): ["--d", "4", "--seed", "1"],
    ("wishart", "posterior"): ["--d", "4", "--n", "2", "--seed", "1"],
    ("wishart", "game"): ["--d", "4", "--algo", "exact", "--budget", "4",
                          "--seed", "1"],
    ("verify",): [],
}


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_config_records_every_flag_in_parser_order():
    """A flag added to a subcommand lands in its config without a list to
    edit: the keys are the subcommand, the parser's dests in order (less
    the output-only --out and --no-quadratic-forms), then threads."""
    leaves = dict(_leaf_parsers(cli.build_parser()))
    assert leaves.keys() == MINIMAL_ARGV.keys()
    for path, leaf in leaves.items():
        args = cli.build_parser().parse_args([*path, *MINIMAL_ARGV[path]])
        dests = [a.dest for a in leaf._actions
                 if a.dest not in ("help", "out", "no_quadratic_forms")]
        cfg = cli._config(args)
        assert list(cfg) == ["subcommand", *dests, "threads"], path
        assert cfg["subcommand"] == " ".join(path)
        assert all(cfg[k] == getattr(args, k) for k in dests)
        assert cfg["threads"] == 1


@pytest.mark.parametrize("path", [path for path, argv in MINIMAL_ARGV.items()
                                  if "--seed" in argv])
def test_missing_seed_is_an_argparse_usage_error(path, capsys):
    argv = MINIMAL_ARGV[path]
    k = argv.index("--seed")
    assert run([*path, *argv[:k], *argv[k + 2:]]) == 2
    assert "the following arguments are required: --seed" in capsys.readouterr().err


# main reuses one parser: a call's result may not depend on earlier calls.
REUSE_ARGV = [
    *[[*path, *argv] for path, argv in MINIMAL_ARGV.items()],
    ["frobnicate"],
    ["wishart", "eigcdf", "--d", "4"],                # no --seed
    ["wishart", "lmax", "--d", "4", "--t", "nan", "--seed", "1"],
    ["--help"],
    ["trace", "--matrix", "m.txt", "--backend", "exact", "--probes", "4",
     "--seed", "1"],
    ["trace", "--matrix", "m.txt", "--backend", "exact", "--probes", "4",
     "--seed", "1", "--no-quadratic-forms"],
    ["poly", "build", "--func", "invsqrt", "--kappa", "9", "--delta", "0.1",
     "--out", "q.json"],
    ["poly", "build", "--func", "invsqrt", "--kappa", "9", "--delta", "0.1"],
]


def test_reused_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_raw("m.txt", SymMatrix(np.diag([1.0, 2.0, 3.0])))
    assert run(["poly", "build", "--func", "inv", "--kappa", "4",
                "--delta", "0.1", "--out", "p.json"]) == 0
    results = []
    for order in (REUSE_ARGV, REUSE_ARGV[::-1]):
        seen = {}
        for argv in order:
            code = run(argv)
            out = capsys.readouterr().out
            if "--out" in argv:
                out = Path(argv[argv.index("--out") + 1]).read_text()
            seen[tuple(argv)] = code, out
        results.append(seen)
    assert results[0] == results[1]
    assert {code for code, _ in results[0].values()} == {0, 2}
    assert results[0][("--help",)][1].startswith("usage: tracebounds")
    # The shared parser still parses each leaf as a new one does.
    for path, argv in MINIMAL_ARGV.items():
        fresh = cli.build_parser.__wrapped__().parse_args([*path, *argv])
        assert cli.build_parser().parse_args([*path, *argv]) == fresh, path


def test_main_builds_one_parser_per_process(tmp_path):
    # Import builds no parser; the first main call builds it, later calls
    # reuse it.
    script = f"""
import argparse
counts = []
built = [0]
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built[0] += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from tracebounds.cli import main
counts.append(built[0])
for _ in range(3):
    assert main(["poly", "build", "--func", "inv", "--kappa", "16",
                 "--delta", "0.1", "--out", {str(tmp_path / "p.json")!r}]) == 0
    counts.append(built[0])
print(counts)
"""
    proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, *after_calls = json.loads(proc.stdout)
    assert at_import == 0
    assert after_calls[0] > 0
    assert after_calls == [after_calls[0]] * 3


DIGEST = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


def test_digest_lines_do_not_depend_on_invocation_order(tmp_path, monkeypatch):
    # The reversed pass runs first, so no line reads a file that an earlier
    # line wrote; the matrix lines meet the parse memo in other states.
    spec = importlib.util.spec_from_file_location("cli_digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    monkeypatch.chdir(tmp_path)
    digest.write_inputs(main)
    backward = digest.digest_lines(main, digest.INVOCATIONS[::-1])
    forward = digest.digest_lines(main)
    assert backward[::-1] == forward
    assert {line.split("\t")[1] for line in forward} == {"0", "2", "3", "4"}


class TestCsvDeterminism:
    def test_eigcdf_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["wishart", "eigcdf", "--d", "6", "--trials", "200",
                "--seed", "11", "--format", "csv"]
        assert run(base + ["--out", str(a)]) == 0
        assert run(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        first = a.read_text().splitlines()[0]
        assert first.startswith("# config = ")
        json.loads(first.removeprefix("# config = "))  # valid JSON

    def test_config_line_excludes_out_path(self, tmp_path):
        a = tmp_path / "weird-name-xyz.csv"
        run(["wishart", "lmax", "--d", "4", "--trials", "50", "--seed", "12",
             "--format", "csv", "--out", str(a)])
        assert "weird-name-xyz" not in a.read_text()

    def test_game_csv_headers(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["wishart", "game", "--d", "4", "--algo", "exact",
                    "--budget", "4", "--trials", "5", "--seed", "13",
                    "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "trial,estimate,true_trace,queries_used,success,budget_violation"
        assert len(lines) == 2 + 5


def _field_names(record) -> list[str]:
    return [f.name for f in dataclasses.fields(record)]


class TestWishartReportSchema:
    """Each report's JSON object and CSV row list its record's fields in
    declaration order."""

    def report(self, capsys, *argv) -> dict:
        run(["wishart", *argv, "--seed", "5"])
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("sub, row", [("eigcdf", wishart_module.CdfRow),
                                          ("lmax", wishart_module.TailRow)])
    def test_cdf_rows(self, capsys, sub, row):
        rep = self.report(capsys, sub, "--d", "8", "--trials", "50")
        assert list(rep) == ["config", "rows"]
        assert [list(r) for r in rep["rows"]] == [_field_names(row)] * 4

    def test_game(self, capsys):
        rep = self.report(capsys, "game", "--d", "8", "--algo", "hutch",
                          "--nv", "2", "--m", "4", "--budget", "8",
                          "--trials", "3")
        assert list(rep) == ["config", *_field_names(wishart_module.GameResult)]
        assert ([list(r) for r in rep["records"]]
                == [_field_names(wishart_module.TrialRecord)] * 3)

    def test_posterior(self, capsys):
        rep = self.report(capsys, "posterior", "--d", "6", "--n", "2",
                          "--trials", "60")
        fields = _field_names(wishart_module.PosteriorTestReport)
        assert list(rep) == ["config", *fields]
        for ks in fields[3:]:
            assert list(rep[ks]) == _field_names(wishart_module.KsTest)

    def test_csv_headers(self):
        assert cli.CSV_HEADERS["eigcdf"] == _field_names(wishart_module.CdfRow)
        record = _field_names(wishart_module.TrialRecord)
        assert record[-1] == "error"
        assert cli.CSV_HEADERS["game"] == record[:-1]

    def test_lmax_bound_is_predicted_tail(self, capsys):
        rep = self.report(capsys, "lmax", "--d", "8", "--trials", "50",
                          "--t", "0,0.25,1")
        assert ([r["bound"] for r in rep["rows"]]
                == [2.0 * math.exp(-8 * t) for t in (0.0, 0.25, 1.0)])


class TestVerifyCommand:
    def test_verify_runs_clean(self, capsys):
        assert run(["verify"]) == 0
        assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["poly", "build", "--func", "inv", "--kappa", "inf", "--delta", "0.1"],
    ["poly", "build", "--func", "invsqrt", "--kappa", "nan", "--delta", "0.1"],
    ["poly", "build", "--func", "inv", "--kappa", "16", "--delta", "nan"],
    ["trace", "--gen-spd", "--dim", "8", "--backend", "cheb", "--kappa", "inf",
     "--seed", "1"],
    ["trace", "--gen-spd", "--dim", "8", "--backend", "cheb", "--kappa", "nan",
     "--seed", "1"],
    ["trace", "--gen-spd", "--dim", "8", "--backend", "cheb", "--kappa", "16",
     "--delta", "inf", "--seed", "1"],
    ["trace", "--gen-spd", "--dim", "8", "--backend", "exact", "--kappa", "inf",
     "--seed", "1"],
    ["wishart", "eigcdf", "--d", "4", "--trials", "5", "--x", "0.1,nan",
     "--seed", "1"],
    ["wishart", "lmax", "--d", "4", "--trials", "5", "--t", "nan", "--seed", "1"],
    ["wishart", "lmax", "--d", "4", "--trials", "5", "--t", "inf", "--seed", "1"],
    ["wishart", "lmax", "--d", "4", "--trials", "5", "--t", "-3", "--seed", "1"],
    ["wishart", "invtrace", "--d", "4", "--trials", "5", "--p", "nan",
     "--seed", "1"],
    ["wishart", "invtrace", "--d", "4", "--trials", "5", "--p", "inf",
     "--seed", "1"],
    ["wishart", "game", "--d", "4", "--algo", "exact", "--budget", "4",
     "--trials", "2", "--p", "nan", "--seed", "1"],
    ["wishart", "game", "--d", "4", "--algo", "exact", "--budget", "4",
     "--trials", "2", "--C", "inf", "--seed", "1"],
    ["wishart", "game", "--d", "4", "--algo", "const", "--c-guess", "nan",
     "--budget", "0", "--trials", "2", "--seed", "1"],
])
def test_nonfinite_float_flags_exit_2(argv):
    # In a subprocess with a timeout: --kappa inf once scanned forever.
    proc = subprocess.run([sys.executable, "-m", "tracebounds.cli", *argv],
                          env=src_env(), capture_output=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("sub", ["eigcdf", "lmax", "invtrace", "posterior"])
def test_output_bytes_do_not_depend_on_stack_size(sub, monkeypatch, capsys):
    # 1, 7 and 8 trials of d = 8 per stack (bidiagonals of 8 * 15 bytes,
    # or posterior's dense matrices of 8 * 64 bytes), against the default
    # of one stack for all 40 trials.
    argv = ["wishart", sub, "--d", "8", "--trials", "40", "--seed", "97"]
    if sub == "posterior":
        argv += ["--n", "2", "--format", "json"]
        trial_bytes = 8 * 64
    else:
        argv += ["--format", "csv"]
        trial_bytes = 8 * 15
    assert run(argv) == 0
    want = capsys.readouterr().out
    for per_stack in (1, 7, 8):
        monkeypatch.setattr(wishart_module, "_STACK_BYTES", per_stack * trial_bytes)
        assert run(argv) == 0
        assert capsys.readouterr().out == want, per_stack


@settings(max_examples=20, deadline=None)
@given(sub=st.sampled_from(["eigcdf", "lmax", "invtrace", "game"]),
       d=st.integers(min_value=2, max_value=12),
       trials=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_csv_bytes_repeat_in_process(sub, d, trials, seed):
    argv = ["wishart", sub, "--d", str(d), "--trials", str(trials),
            "--seed", str(seed), "--format", "csv"]
    if sub == "game":
        argv += ["--algo", "hutch", "--nv", "2", "--m", "2", "--budget", "4"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run(argv) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    assert outs[0].startswith("# config = ")
