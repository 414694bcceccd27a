"""The benchmark's four workloads: op generation, reference checks and
negative controls.

An *op* is the list of CLI invocations one closed-loop client sends before
its next op.  Every input of op ``i`` is drawn from ``(seed, workload, i)``,
so the same seed always gives the same ops; the program only ever sees the
generated argv and files.  Each check recomputes its reference here (dense
grid errors, known spectra, Edelman's limit law) instead of trusting the
program's own certificate, and every check has a negative control: a
perturbed copy of a real output that the check must reject.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np
from numpy.polynomial import chebyshev as _cheb

# Each workload makes one layer do most of the work and leaves at least one
# layer idle that another workload stresses; BENCHMARK.json says why each
# was chosen.
WORKLOADS = ("poly-certify", "trace-backends", "wishart-eig", "wishart-query")

# Sizes.  Chosen so one op takes a few tenths of a second on a 2-core box,
# which gives enough ops per run for a steady median and a p75+ tail.
POLY_KAPPA, POLY_DELTA = 256.0, 0.01        # drawn +-10% and +-20% per op
TRACE_DIM, TRACE_KAPPA, TRACE_PROBES, TRACE_M = 192, 16.0, 128, 30
TRACE_CHEB_DELTA = 0.01
EIG_DIM, EIG_TRIALS = 64, 200
EIG_X = "0.01,0.04,0.16,0.64"
EIG_T = "0,0.02,0.05,0.1"
GAME_DIM, GAME_NV, GAME_M, GAME_BUDGET, GAME_TRIALS = 64, 8, 32, 256, 20
POST_DIM, POST_N, POST_TRIALS = 32, 8, 200

# Standard errors allowed between an estimate and its reference.  A hundred
# benchmark runs make ~10^4 such checks; at 5 sigma the chance of one false
# alarm among them stays below 1%, where 4 sigma would give ~50%.
SIGMAS = 5.0
# Finite-d gap between the d=64 lambda_min CDF and Edelman's limit law
# (measured at 20000 trials: at most 0.006, at x = 0.16).
EDELMAN_FINITE_D = 0.01
# Benchmark-level significance for the posterior KS tests.  The program
# exits 3 when a null KS p-value is <= 0.01, which happens for ~2% of seeds
# by design; only a p-value below this level counts as a wrong law.
POSTERIOR_ALPHA = 1e-4

_WORKLOAD_ID = {name: k for k, name in enumerate(WORKLOADS)}

#: Work counts kept per op and required to repeat exactly across runs.
COUNT_KEYS = ("mvps", "lanczos_steps", "monomials", "trials",
              "oracle_queries", "rng_streams")


class Op:
    """One op: argv lists, files to remove afterwards, and reference data."""

    def __init__(self, workload: str, index: int, argvs, ref, files=()):
        self.workload = workload
        self.index = index
        self.argvs = argvs
        self.ref = ref
        self.files = list(files)

    def cleanup(self):
        for path in self.files:
            if os.path.exists(path):
                os.remove(path)


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_ID[workload], index])


def _prog_seed(g: np.random.Generator) -> int:
    return int(g.integers(0, 2**31 - 1))


def matrix_path(workdir: str, workload: str, seed: int, index: int) -> str:
    return os.path.join(workdir, f"{workload}-s{seed}-op{index}.txt")


def make_op(workload: str, seed: int, index: int, workdir: str) -> Op:
    """Generate op ``index`` of ``workload``; writes input files if any."""
    g = _rng(seed, workload, index)
    if workload == "poly-certify":
        func = "inv" if index % 2 == 0 else "invsqrt"
        kappa = float(POLY_KAPPA * g.uniform(0.9, 1.1))
        delta = float(POLY_DELTA * g.uniform(0.8, 1.2))
        argv = ["poly", "build", "--func", func, "--kappa", repr(kappa),
                "--delta", repr(delta)]
        return Op(workload, index, [argv],
                  {"func": func, "kappa": kappa, "delta": delta})
    if workload == "trace-backends":
        func = "inv" if index % 2 == 0 else "invsqrt"
        d = TRACE_DIM
        lam = np.exp(g.uniform(0.0, math.log(TRACE_KAPPA), size=d))
        lam[0], lam[-1] = 1.0, TRACE_KAPPA
        pseed = str(_prog_seed(g))
        path = matrix_path(workdir, workload, seed, index)
        if not os.path.exists(path):
            q, _ = np.linalg.qr(g.standard_normal((d, d)))
            a = (q * lam) @ q.T
            _write_raw(path, (a + a.T) / 2.0)
        common = ["trace", "--matrix", path, "--func", func, "--probes",
                  str(TRACE_PROBES), "--no-quadratic-forms", "--seed", pseed]
        argvs = [
            common + ["--backend", "lanczos", "--m", str(TRACE_M)],
            common + ["--backend", "cheb", "--kappa", repr(TRACE_KAPPA),
                      "--delta", repr(TRACE_CHEB_DELTA)],
            common + ["--backend", "exact"],
        ]
        f = (lambda v: 1.0 / v) if func == "inv" else (lambda v: v ** -0.5)
        truth = float(np.sum(f(lam)))
        return Op(workload, index, argvs,
                  {"func": func, "truth": truth, "dim": d}, files=[path])
    if workload == "wishart-eig":
        s1, s2, s3 = (str(_prog_seed(g)) for _ in range(3))
        tail = ["--trials", str(EIG_TRIALS), "--format", "csv"]
        argvs = [
            ["wishart", "eigcdf", "--d", str(EIG_DIM), "--x", EIG_X,
             "--seed", s1] + tail,
            ["wishart", "lmax", "--d", str(EIG_DIM), "--t", EIG_T,
             "--seed", s2] + tail,
            ["wishart", "invtrace", "--d", str(EIG_DIM), "--seed", s3] + tail,
        ]
        return Op(workload, index, argvs, {})
    if workload == "wishart-query":
        s1, s2 = (str(_prog_seed(g)) for _ in range(2))
        argvs = [
            ["wishart", "game", "--d", str(GAME_DIM), "--algo", "hutch",
             "--nv", str(GAME_NV), "--m", str(GAME_M), "--budget",
             str(GAME_BUDGET), "--trials", str(GAME_TRIALS), "--seed", s1,
             "--format", "csv"],
            ["wishart", "posterior", "--d", str(POST_DIM), "--n", str(POST_N),
             "--trials", str(POST_TRIALS), "--seed", s2],
        ]
        return Op(workload, index, argvs, {})
    raise ValueError(f"unknown workload {workload!r}")


def _write_raw(path: str, a: np.ndarray):
    """Raw dense format: the dimension, then rows of round-trip decimals."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"{a.shape[0]}\n")
        for row in a.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")
    os.replace(tmp, path)


def output_hash(outputs) -> str:
    """sha256 over every invocation's exit code and stdout."""
    h = hashlib.sha256()
    for rc, out, _err in outputs:
        h.update(f"{rc}\n".encode())
        h.update(out.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Work counts read from the outputs (available with tracing off)


def output_counts(op: Op, outputs) -> dict:
    counts = {}
    try:
        if op.workload == "trace-backends":
            counts["mvps"] = sum(json.loads(out)["mvp_count"]
                                 for _rc, out, _e in outputs)
        elif op.workload == "wishart-eig":
            counts["trials"] = 3 * EIG_TRIALS
        elif op.workload == "wishart-query":
            _cfg, _hdr, rows = _parse_csv(outputs[0][1])
            counts["trials"] = GAME_TRIALS + POST_TRIALS
            counts["oracle_queries"] = sum(int(r[3]) for r in rows)
        elif op.workload == "poly-certify":
            counts["degree"] = len(json.loads(outputs[0][1])["coeffs"]) - 1
    except (ValueError, KeyError, IndexError, TypeError):
        pass  # a malformed output is reported by check(); no counts then
    return counts


# ---------------------------------------------------------------------------
# Reference checks


def check(op: Op, outputs) -> list:
    """Reasons the op's outputs are wrong; empty when they are right."""
    try:
        return _CHECKS[op.workload](op, outputs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _check_poly(op: Op, outputs) -> list:
    rc, out, _err = outputs[0]
    if rc != 0:
        return [f"poly build exit {rc}"]
    doc = json.loads(out)
    ref = op.ref
    kappa, delta = ref["kappa"], ref["delta"]
    kind = "inv" if ref["func"] == "inv" else "inv_sqrt"
    bound = delta / kappa if kind == "inv" else delta / math.sqrt(kappa)
    fails = []
    cert = doc["certificate"]
    if (cert["func"], cert["kappa"], cert["delta"]) != (kind, kappa, delta):
        fails.append("certificate names another target")
    if doc["interval"] != [1.0, kappa]:
        fails.append(f"interval {doc['interval']} is not [1, kappa]")
    coeffs = np.asarray(doc["coeffs"], dtype=np.float64)
    degree = len(coeffs) - 1
    if cert["degree"] != degree:
        fails.append("certificate degree differs from the coefficients")
    law = 4.0 * math.sqrt(kappa) * math.log(kappa / delta)
    if degree > law:
        fails.append(f"degree {degree} > 4 sqrt(kappa) ln(kappa/delta) = {law:.1f}")
    # Uniform grid, unlike the program's Chebyshev grid, plus both ends.
    x = np.linspace(1.0, kappa, max(20001, 40 * degree))
    u = (2.0 * x - (1.0 + kappa)) / (kappa - 1.0)
    f = 1.0 / x if kind == "inv" else x ** -0.5
    err = float(np.max(np.abs(_cheb.chebval(u, coeffs) - f)))
    if not err <= bound:
        fails.append(f"grid error {err:.3e} > bound {bound:.3e}")
    return fails


def _check_trace(op: Op, outputs) -> list:
    fails = []
    truth, d = op.ref["truth"], op.ref["dim"]
    sqrt_k = math.sqrt(TRACE_KAPPA)
    for (rc, out, _err), backend in zip(outputs, ("lanczos", "cheb", "exact")):
        if rc != 0:
            fails.append(f"{backend}: exit {rc}")
            continue
        rep = json.loads(out)
        if rep["dim"] != d:
            fails.append(f"{backend}: dim {rep['dim']} != {d}")
        if backend == "lanczos":
            ledger, bias = TRACE_PROBES * TRACE_M, 0.0
        elif backend == "cheb":
            degree = int(rep["backend"].split("degree=")[1].split(",")[0])
            ledger = TRACE_PROBES * degree
            per_eig = (TRACE_CHEB_DELTA / TRACE_KAPPA if op.ref["func"] == "inv"
                       else TRACE_CHEB_DELTA / sqrt_k)
            bias = d * per_eig
            if not math.isclose(rep["bias_bound"], bias, rel_tol=1e-12):
                fails.append(f"cheb: bias_bound {rep['bias_bound']} != {bias}")
        else:
            ledger, bias = 0, 0.0
        if rep["mvp_count"] != ledger:
            fails.append(f"{backend}: ledger {rep['mvp_count']} != {ledger}")
        tol = bias + SIGMAS * rep["standard_error"] + 1e-9 * abs(truth)
        if not abs(rep["estimate"] - truth) <= tol:
            fails.append(f"{backend}: |{rep['estimate']} - {truth}| > {tol}")
    return fails


def _parse_csv(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config = "):
        raise ValueError("missing '# config = ' line")
    cfg = json.loads(lines[0][len("# config = "):])
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return cfg, rows[0], rows[1:]


def _check_csv_head(argv, out, header) -> tuple:
    """Parse a CSV report and check its config line and documented header."""
    cfg, hdr, rows = _parse_csv(out)
    fails = []
    if hdr != header:
        fails.append(f"header {hdr} != {header}")
    want = {"subcommand": f"wishart {argv[1]}"}
    for flag, value in zip(argv[2::2], argv[3::2]):
        want[flag[2:]] = _config_value(value)
    for key, value in want.items():
        if cfg.get(key) != value:
            fails.append(f"config {key}={cfg.get(key)!r}, expected {value!r}")
    if not isinstance(cfg.get("threads"), int) or cfg["threads"] < 1:
        fails.append("config line lacks a thread count")
    return fails, rows


def _config_value(text: str):
    """The config line's value for an argv string: int, float or string."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _edelman_cdf(x: float) -> float:
    return 1.0 - math.exp(-x / 2.0 - math.sqrt(x))


def _check_eig(op: Op, outputs) -> list:
    fails = []
    headers = (["x", "count", "probability", "stderr"],
               ["t", "count", "probability", "stderr", "bound"],
               ["trial", "normalized_trace"])
    for (rc, out, _err), argv, header in zip(outputs, op.argvs, headers):
        sub = argv[1]
        if rc != 0:
            fails.append(f"{sub}: exit {rc}")
            continue
        head_fails, rows = _check_csv_head(argv, out, header)
        fails += [f"{sub}: {m}" for m in head_fails]
        n = EIG_TRIALS
        if sub == "eigcdf":
            xs = [float(v) for v in EIG_X.split(",")]
            probs = []
            for row, x in zip(rows, xs):
                count, p = int(row[1]), float(row[2])
                probs.append(p)
                f = _edelman_cdf(x)
                tol = SIGMAS * math.sqrt(f * (1 - f) / n) + EDELMAN_FINITE_D
                if float(row[0]) != x or p != count / n or abs(p - f) > tol:
                    fails.append(f"eigcdf: row {row} vs Edelman {f:.4f}")
            if len(rows) != len(xs):
                fails.append(f"eigcdf: {len(rows)} rows for {len(xs)} x")
            if any(b < a for a, b in zip(probs, probs[1:])):
                fails.append("eigcdf: probabilities not monotone")
        elif sub == "lmax":
            ts = [float(v) for v in EIG_T.split(",")]
            if len(rows) != len(ts):
                fails.append(f"lmax: {len(rows)} rows for {len(ts)} t")
            for row, t in zip(rows, ts):
                count, p = int(row[1]), float(row[2])
                bound = 2.0 * math.exp(-EIG_DIM * t)
                se = math.sqrt(max(bound * (1 - bound), 1.0 / n) / n)
                if (float(row[0]) != t or p != count / n
                        or not math.isclose(float(row[4]), bound, rel_tol=1e-12)
                        or (t > 0 and p > bound + SIGMAS * se)):
                    fails.append(f"lmax: row {row} vs bound {bound:.4g}")
        else:
            # No trial of a d=64 Wishart is numerically singular, so
            # dropped = 0 and every trial has a row, in trial order.
            values = [float(r[1]) for r in rows]
            if [int(r[0]) for r in rows] != list(range(n)):
                fails.append(f"invtrace: {len(rows)} rows, trials - dropped = {n}")
            if not all(math.isfinite(v) and v > 0 for v in values):
                fails.append("invtrace: nonpositive or nonfinite sample")
    return fails


def _check_query(op: Op, outputs) -> list:
    fails = []
    (grc, gout, _e), (prc, pout, _e2) = outputs
    if grc != 0:
        fails.append(f"game: exit {grc}")
    else:
        header = ["trial", "estimate", "true_trace", "queries_used",
                  "success", "budget_violation"]
        head_fails, rows = _check_csv_head(op.argvs[0], gout, header)
        fails += [f"game: {m}" for m in head_fails]
        if [int(r[0]) for r in rows] != list(range(GAME_TRIALS)):
            fails.append(f"game: {len(rows)} rows for {GAME_TRIALS} trials")
        for r in rows:
            if r[5] != "false":
                fails.append(f"game: budget violation in trial {r[0]}")
            if int(r[3]) != GAME_NV * GAME_M:
                fails.append(f"game: trial {r[0]} used {r[3]} queries, "
                             f"not nv*m = {GAME_NV * GAME_M}")
            if not (float(r[1]) > 0 and float(r[2]) > 0):
                fails.append(f"game: trial {r[0]} estimate/truth not positive")
    if prc not in (0, 3):
        return fails + [f"posterior: exit {prc}"]
    rep = json.loads(pout)
    null_p = min(rep["ks_trace"]["p_value"], rep["ks_lambda_min"]["p_value"])
    if not rep["ks_trace_uncorrected"]["p_value"] < 0.01:
        fails.append("posterior: negative control (uncorrected trace) accepted")
    if null_p < POSTERIOR_ALPHA:
        fails.append(f"posterior: null KS p-value {null_p:.2e} < {POSTERIOR_ALPHA}")
    if prc == 3 and null_p > 0.01:
        fails.append("posterior: exit 3 with every KS test passing")
    if (rep["d"], rep["n"], rep["trials"]) != (POST_DIM, POST_N, POST_TRIALS):
        fails.append("posterior: report names another configuration")
    return fails


_CHECKS = {
    "poly-certify": _check_poly,
    "trace-backends": _check_trace,
    "wishart-eig": _check_eig,
    "wishart-query": _check_query,
}


def posterior_rejected(op: Op, outputs) -> bool:
    """True when the program's own 1% KS gate rejected a posterior run."""
    return op.workload == "wishart-query" and outputs[1][0] == 3


# ---------------------------------------------------------------------------
# Negative controls: each perturbs one real output and must fail its check.


def _edit_json(outputs, k, edit):
    rc, out, err = outputs[k]
    doc = json.loads(out)
    edit(doc)
    new = list(outputs)
    new[k] = (rc, json.dumps(doc, indent=2) + "\n", err)
    return new


def _edit_csv(outputs, k, edit):
    rc, out, err = outputs[k]
    lines = out.splitlines()
    edit(lines)
    new = list(outputs)
    new[k] = (rc, "\n".join(lines) + "\n", err)
    return new


def _set_cell(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)


def negative_controls(op: Op, outputs):
    """(name, perturbed outputs) pairs, one per reference check."""
    w = op.workload
    if w == "poly-certify":
        def shift(doc):
            doc["coeffs"][0] += 3 * doc["certificate"]["bound"]

        def pad(doc):
            law = 4 * math.sqrt(op.ref["kappa"]) * math.log(op.ref["kappa"] / op.ref["delta"])
            doc["coeffs"] += [0.0] * int(law)
            doc["certificate"]["degree"] = len(doc["coeffs"]) - 1
        return [("poly: coefficient off by 3x the bound", _edit_json(outputs, 0, shift)),
                ("poly: degree above the degree law", _edit_json(outputs, 0, pad)),
                ("poly: nonzero exit", [(3,) + tuple(outputs[0][1:])])]
    if w == "trace-backends":
        def far(doc):
            doc["estimate"] += 2 * (doc["bias_bound"] or 0) + 2 * SIGMAS * doc["standard_error"]

        def ledger(doc):
            doc["mvp_count"] += 1
        return [("trace: cheb estimate off by 2x the tolerance", _edit_json(outputs, 1, far)),
                ("trace: lanczos estimate off", _edit_json(outputs, 0, far)),
                ("trace: exact ledger nonzero", _edit_json(outputs, 2, ledger)),
                ("trace: cheb ledger off by one", _edit_json(outputs, 1, ledger))]
    if w == "wishart-eig":
        def header(lines):
            lines[1] = lines[1].replace("stderr", "std_err")

        def config(lines):
            lines[0] = lines[0].replace('"d": 64', '"d": 63')

        def cdf_far(lines):
            count = min(int(lines[3].split(",")[1]) + EIG_TRIALS // 3, EIG_TRIALS)
            _set_cell(lines, 3, 1, str(count))
            _set_cell(lines, 3, 2, repr(count / EIG_TRIALS))

        def cdf_order(lines):
            lines[2], lines[5] = lines[5], lines[2]

        def lmax_over(lines):
            _set_cell(lines, 5, 1, str(EIG_TRIALS // 2))
            _set_cell(lines, 5, 2, repr(0.5))

        def drop_row(lines):
            del lines[-1]
        return [("eig: header renamed", _edit_csv(outputs, 0, header)),
                ("eig: config line names another d", _edit_csv(outputs, 1, config)),
                ("eig: eigcdf far from Edelman", _edit_csv(outputs, 0, cdf_far)),
                ("eig: eigcdf rows out of order", _edit_csv(outputs, 0, cdf_order)),
                ("eig: lmax above 2 exp(-d t)", _edit_csv(outputs, 1, lmax_over)),
                ("eig: invtrace row dropped", _edit_csv(outputs, 2, drop_row))]
    if w == "wishart-query":
        def violation(lines):
            _set_cell(lines, 2, 5, "true")

        def queries(lines):
            _set_cell(lines, 3, 3, str(GAME_NV * GAME_M - 1))

        def control(doc):
            doc["ks_trace_uncorrected"]["p_value"] = 0.5

        def null_far(doc):
            doc["ks_trace"]["p_value"] = POSTERIOR_ALPHA / 10
        return [("query: budget violation", _edit_csv(outputs, 0, violation)),
                ("query: queries_used != nv*m", _edit_csv(outputs, 0, queries)),
                ("query: posterior control accepted", _edit_json(outputs, 1, control)),
                ("query: posterior law rejected", _edit_json(outputs, 1, null_far)),
                ("query: posterior exit 1", [outputs[0], (1,) + tuple(outputs[1][1:])])]
    raise ValueError(f"unknown workload {w!r}")
