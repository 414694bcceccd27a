import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracebounds
import tracebounds.wishart as wishart_module
from conftest import make_trials_singular
from tracebounds.approx import ApproxTarget, _grid_sup_error, sup_error
from tracebounds.chebyshev import ChebPoly
from tracebounds.cli import main
from tracebounds.errors import MatrixParseError
from tracebounds.matio import parse_matrix_file, write_raw
from tracebounds.linalg import SymMatrix
from tracebounds.rng import RngState


def run(argv):
    return main(argv)


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

    def test_default_grid_evaluates_once(self):
        _grid_sup_error.cache_clear()
        assert run(["poly", "build", "--func", "inv", "--kappa", "64",
                    "--delta", "0.01", "--out", os.devnull]) == 0
        info = _grid_sup_error.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def test_scipy_stats_stays_off_the_import_path(tmp_path):
    # numpy is the only runtime dependency (scipy.stats alone costs about a
    # second and 60 MB to import), so no subcommand may load any scipy module.
    script = f"""
import sys
from tracebounds.cli import main
out = {str(tmp_path / "out.txt")!r}
assert main(["poly", "build", "--func", "inv", "--kappa", "16",
             "--delta", "0.1", "--out", out]) == 0
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
    src = str(Path(tracebounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_output_ignores_thread_environment():
    # TRACEBOUNDS_THREADS once reached the config line; no environment
    # variable may change an experiment's output.
    argv = ["-m", "tracebounds.cli", "wishart", "lmax", "--d", "6",
            "--trials", "40", "--seed", "3", "--format", "csv"]
    src = str(Path(tracebounds.__file__).resolve().parents[1])
    outs = []
    for threads in (None, "4"):
        env = dict(os.environ)
        env.pop("TRACEBOUNDS_THREADS", None)
        if threads is not None:
            env["TRACEBOUNDS_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, *argv], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert b'"threads": 1' in outs[0].splitlines()[0]


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


def test_invtrace_all_trials_dropped_exits_3(monkeypatch, capsys):
    make_trials_singular(monkeypatch, range(5))
    assert run(["wishart", "invtrace", "--d", "3", "--trials", "5",
                "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert "d=3" in err and "trials=5" in err


def test_invtrace_csv_labels_rows_by_trial(monkeypatch, capsys):
    # Trial 1 is dropped; the rows after it keep their own trial indices.
    make_trials_singular(monkeypatch, [1])
    assert run(["wishart", "invtrace", "--d", "3", "--trials", "5",
                "--seed", "93", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [int(r.split(",")[0]) for r in rows] == [0, 2, 3, 4]


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


class TestTrace:
    def test_gen_spd_json_report(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["trace", "--gen-spd", "--dim", "16", "--kappa", "4",
                    "--backend", "cheb", "--delta", "0.01",
                    "--probes", "256", "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["quadratic_forms"]) == 256
        assert doc["mvp_count"] > 0 and doc["mvp_count"] % 256 == 0
        assert doc["bias_bound"] == pytest.approx(16 * 0.01 / 4)

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
    src = str(Path(tracebounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "tracebounds.cli", *argv],
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("sub", ["eigcdf", "lmax", "invtrace"])
def test_output_bytes_do_not_depend_on_stack_size(sub, monkeypatch, capsys):
    # 1, k and k + 1 bidiagonals of d = 8 per stack, against the default
    # of one stack for all 40 trials (and 128 dense matrices per SVD
    # sub-stack, against 1 at the smaller bounds).
    argv = ["wishart", sub, "--d", "8", "--trials", "40", "--seed", "97",
            "--format", "csv"]
    assert run(argv) == 0
    want = capsys.readouterr().out
    for per_stack in (1, 7, 8):
        monkeypatch.setattr(wishart_module, "_STACK_BYTES", per_stack * 8 * 15)
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
