"""Fingerprint the CLI: one line per fixed invocation, giving the argv, the
exit code (or the name of an exception that escapes the CLI) and the
sha256 of stdout.

    python3 tools/cli_digest.py [REPO]

runs the ``tracebounds`` package under ``REPO/src`` (default: this
checkout) in process.  The invocations cover every subcommand, both
``--format`` values, the usage-error (2), assertion (3) and I/O (4)
exits, and a matrix read again as a copy and with one digit changed.  They
run in a fresh temporary directory and name their input files
by relative paths, so the config lines, and hence the digests, do not depend
on where the tool runs.  Diffing the output of two checkouts shows whether
they print the same bytes for the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

RAW = "3\n4 1 0\n1 3 0.5\n0 0.5 2\n"
# RAW with one digit changed: the same size, other bytes.
RAW2 = RAW.replace("4 1 0", "5 1 0")
MTX = """%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 4
2 1 1
2 2 3
3 3 2
"""
# A constant polynomial whose certificate bound it cannot meet: exit 3.
FALSE_CERT = {"interval": [1.0, 16.0], "coeffs": [0.5],
              "certificate": {"func": "inv", "kappa": 16.0, "delta": 0.1,
                              "bound": 1e-9}}
# A certificate naming a target the library rejects: exit 4.
BAD_CERT = dict(FALSE_CERT, certificate=dict(FALSE_CERT["certificate"],
                                             func="monomial"))
# Finite entries whose asymmetry overflows: exit 4.
OVERFLOW_RAW = "2\n1 1e308\n-1e308 1\n"
# Every Lanczos probe breaks down after one step.
EYE_RAW = "3\n1 0 0\n0 1 0\n0 0 1\n"
# Every Lanczos probe breaks down after one step, and exp(-1000) is 0.
NEG_RAW = "2\n-1000 0\n0 -1000\n"
# A byte that is not UTF-8 (a Latin-1 e-acute): exit 4.
LATIN1_RAW = b"3\n4 1 0\n1 3 0.5\n0 0.5 2 \xe9\n"
# The pair (2,1) given again as (1,2): exit 4.
TWICE_MTX = MTX.replace("3 3 4\n", "3 3 5\n") + "1 2 7\n"
# A size line of zero rows: exit 4.
ZERO_MTX = "%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n"
# The UTF-8 byte-order mark, put before copies of m.mtx (exit 0) and
# false.json (exit 3).
BOM = b"\xef\xbb\xbf"
# Polynomial files without a certificate or with 2-D coefficients: exit 4.
NO_CERT = {"interval": [1.0, 16.0], "coeffs": [0.5]}
COEFFS_2D = dict(FALSE_CERT, coeffs=[[1.0, 2.0], [3.0, 4.0]])
# An interval reaching x <= 0, where x^{-1/2} is NaN: exit 4.
NEG_INTERVAL = {"interval": [-1.0, 16.0], "coeffs": [0.5],
                "certificate": {"func": "invsqrt", "kappa": 16.0,
                                "delta": 0.1, "bound": 0.025}}
# Finite coefficients whose values overflow near the float maximum: exit 4.
BIG_COEFFS = dict(FALSE_CERT, coeffs=[1e308, 1e308, -1e308])

# The `poly error --poly p.json` lines read what this build writes.
# write_inputs runs it too, so those lines do not depend on the order of the
# invocations.
BUILD_P = ["poly", "build", "--func", "invsqrt", "--kappa", "16", "--delta",
           "0.1", "--out", "p.json"]

WISHART = {
    "eigcdf": ["--d", "8", "--trials", "50", "--x", "0.04,0.64"],
    "lmax": ["--d", "8", "--trials", "50", "--t", "0,0.5"],
    "invtrace": ["--d", "8", "--trials", "20", "--p", "1.5"],
    "game": ["--d", "8", "--algo", "hutch", "--nv", "2", "--m", "4",
             "--budget", "8", "--trials", "4"],
}

INVOCATIONS = [
    ["poly", "build", "--func", "inv", "--kappa", "16", "--delta", "0.1"],
    ["poly", "build", "--func", "invsqrt", "--kappa", "9", "--delta", "0.05",
     "--grid", "512"],
    BUILD_P,
    ["poly", "error", "--poly", "p.json"],
    ["poly", "error", "--poly", "p.json", "--grid", "9000"],
    ["poly", "error", "--poly", "false.json"],
    ["poly", "error", "--poly", "badcert.json"],
    ["poly", "error", "--poly", "nocert.json"],
    ["poly", "error", "--poly", "coeffs2d.json"],
    ["poly", "error", "--poly", "bomfalse.json"],
    ["poly", "error", "--poly", "neginterval.json"],
    ["poly", "error", "--poly", "bigcoeffs.json"],
    ["poly", "build", "--func", "exp", "--kappa", "16", "--delta", "0.1"],
    ["trace", "--matrix", "m.txt", "--backend", "exact", "--seed", "1"],
    ["trace", "--matrix", "m.txt", "--backend", "lanczos", "--m", "3",
     "--func", "invsqrt", "--probes", "8", "--seed", "2"],
    ["trace", "--matrix", "m.mtx", "--backend", "cheb", "--kappa", "8",
     "--delta", "0.05", "--probes", "8", "--seed", "3",
     "--no-quadratic-forms"],
    ["trace", "--gen-spd", "--dim", "8", "--kappa", "4", "--probes", "16",
     "--probe-kind", "gaussian", "--seed", "4"],
    ["trace", "--matrix", "missing.txt", "--seed", "1"],
    ["trace", "--matrix", "overflow.txt", "--backend", "exact", "--seed", "1"],
    ["trace", "--matrix", "latin1.txt", "--backend", "exact", "--seed", "1"],
    ["trace", "--matrix", "twice.mtx", "--backend", "exact", "--seed", "1"],
    ["trace", "--matrix", "bom.mtx", "--backend", "exact", "--seed", "1"],
    ["trace", "--matrix", "eye.txt", "--backend", "lanczos", "--m", "3",
     "--probes", "8", "--seed", "2"],
    ["trace", "--matrix", "neg.txt", "--backend", "lanczos", "--func", "exp",
     "--m", "2", "--probes", "4", "--seed", "1"],
    ["trace", "--matrix", "m.txt", "--backend", "cheb", "--seed", "1"],
    ["trace", "--matrix", "m.txt", "--backend", "exact"],
    *[["wishart", sub, *argv, "--seed", "5", "--format", fmt]
      for sub, argv in WISHART.items() for fmt in ("json", "csv")],
    ["wishart", "game", "--d", "8", "--algo", "exact", "--budget", "8",
     "--trials", "3", "--seed", "6"],
    ["wishart", "game", "--d", "8", "--algo", "const", "--c-guess", "9",
     "--budget", "0", "--trials", "3", "--seed", "6", "--format", "csv"],
    ["wishart", "game", "--d", "8", "--algo", "hutch", "--budget", "8",
     "--seed", "6"],
    # Overflowing tr(W^-p) and d^(2p): exit 3.
    ["wishart", "invtrace", "--d", "64", "--p", "120", "--trials", "20",
     "--seed", "5"],
    ["wishart", "game", "--d", "64", "--p", "150", "--algo", "exact",
     "--budget", "64", "--trials", "2", "--seed", "6"],
    # Budgets one query short of what the algorithm needs: exit 2.
    ["wishart", "game", "--d", "8", "--algo", "exact", "--budget", "7",
     "--seed", "6"],
    ["wishart", "game", "--d", "8", "--algo", "hutch", "--nv", "2", "--m", "4",
     "--budget", "7", "--seed", "6"],
    ["wishart", "posterior", "--d", "6", "--n", "2", "--trials", "60",
     "--seed", "7"],
    ["wishart", "posterior", "--d", "6", "--n", "2", "--trials", "60",
     "--seed", "7", "--format", "csv"],
    # No queries: the negative control equals the trace test.
    ["wishart", "posterior", "--d", "12", "--n", "0", "--trials", "400",
     "--seed", "1"],
    ["wishart", "eigcdf", "--d", "8", "--trials", "50"],
    ["wishart", "eigcdf", "--d", "8", "--trials", "50", "--x", "0.64,0.04",
     "--seed", "5"],
    ["wishart", "lmax", "--d", "8", "--trials", "50", "--t", "nan",
     "--seed", "1"],
    # From d ~ 224 on the eigensolve rounds by the BLAS thread count; run
    # these under OPENBLAS_NUM_THREADS=1 and 2 to compare.
    ["wishart", "game", "--d", "256", "--p", "1", "--algo", "exact",
     "--budget", "256", "--trials", "4", "--seed", "3"],
    ["trace", "--gen-spd", "--dim", "224", "--kappa", "16", "--func", "inv",
     "--backend", "exact", "--probes", "8", "--seed", "1"],
    ["wishart", "invtrace", "--d", "256", "--trials", "4", "--seed", "3"],
    # 600 bidiagonals of d = 64 span several stacks (three at 256 KiB).
    *[["wishart", sub, "--d", "64", "--trials", "600", "--seed", "8"]
      for sub in ("eigcdf", "lmax", "invtrace")],
    # Multi-word seeds: a seed past 2**128 and probe streams 0..69, which
    # cross the first 64-id key block.
    ["wishart", "eigcdf", *WISHART["eigcdf"],
     "--seed", "340282366920938463463374607431768211457"],
    ["trace", "--gen-spd", "--dim", "24", "--backend", "exact", "--probes",
     "70", "--seed", "18446744073709551621"],
    # Gaussian probes and game trials 0..129 and 0..69: one generator per
    # stack, reset past the first 64-id key block.
    ["trace", "--gen-spd", "--dim", "16", "--probes", "130", "--probe-kind",
     "gaussian", "--backend", "exact", "--seed", "4"],
    ["wishart", "game", "--d", "8", "--algo", "hutch", "--nv", "2", "--m", "4",
     "--budget", "8", "--trials", "70", "--seed", "3"],
    # A degree-277 interpolant; its FFT and grid gate run on any thread count.
    ["poly", "build", "--func", "invsqrt", "--kappa", "1024", "--delta", "0.001"],
    # Degree 1652, where the grid gate's rounding matters most: an FFT's
    # values against a Clenshaw loop's differ there by 3e-13.
    ["poly", "build", "--func", "inv", "--kappa", "10000", "--delta", "1e-6"],
    # spec(A) = [1, 100] is not inside [1, kappa]: the bias bound is withheld.
    ["trace", "--matrix", "spd100.txt", "--func", "inv", "--backend", "cheb",
     "--kappa", "16", "--probes", "64", "--seed", "1"],
    ["frobnicate"],
    ["verify"],
    # A parse of m.txt, then of a byte-identical copy, then of a file of the
    # same size with one digit changed.
    *[["trace", "--matrix", name, "--backend", "lanczos", "--m", "3",
       "--probes", "8", "--seed", "7"]
      for name in ("m.txt", "mcopy.txt", "m2.txt")],
    # The bench-sized game at p = 1 reads T^-1 e_1 from T's pivots; at
    # p = 1.5 it eigensolves T.
    *[["wishart", "game", "--d", "64", "--algo", "hutch", "--nv", "8", "--m",
       "32", "--budget", "256", "--trials", "20", "--seed", "9", *p,
       "--format", "csv"]
      for p in ([], ["--p", "1.5"])],
    # The same game as JSON, and the exact route at the bench's d.
    ["wishart", "game", "--d", "64", "--algo", "hutch", "--nv", "8", "--m",
     "32", "--budget", "256", "--trials", "20", "--seed", "9", "--format",
     "json"],
    ["wishart", "game", "--d", "64", "--algo", "exact", "--budget", "64",
     "--trials", "4", "--seed", "3"],
    # m = d: the Krylov space of every probe is exhausted.
    ["trace", "--matrix", "m.txt", "--backend", "lanczos", "--m", "3"],
    # Bench-shaped Lanczos: 64 probes at d = 192, m = 30 run in three chunks
    # under the 1 MiB basis bound.
    *[["trace", "--gen-spd", "--dim", "192", "--kappa", "16", "--func", func,
       "--backend", "lanczos", "--m", "30", "--probes", "64", "--seed", "1"]
      for func in ("inv", "invsqrt")],
    # Matrix products that round by the BLAS thread count unless the whole
    # subcommand runs on one thread; run under OPENBLAS_NUM_THREADS=1 and 2.
    ["trace", "--gen-spd", "--dim", "300", "--kappa", "16", "--backend",
     "exact", "--seed", "3", "--probes", "8"],
    *[["trace", "--gen-spd", "--dim", "450", "--kappa", "16", "--probes", "8",
       "--seed", "3", *backend]
      for backend in (["--backend", "lanczos", "--m", "20"],
                      ["--backend", "cheb"])],
    *[["wishart", "game", "--d", "450", "--trials", "2", "--budget", "4000",
       "--seed", "3", *algo]
      for algo in (["--algo", "hutch", "--nv", "4", "--m", "8"],
                   ["--algo", "exact"])],
    ["trace", "--matrix", "zero.mtx", "--backend", "exact", "--seed", "1"],
    # Two matrix sources: exit 2.
    ["trace", "--matrix", "m.txt", "--gen-spd", "--dim", "8", "--seed", "1"],
    # One probe, or one probe a trial: a Lanczos form sums as in a block.
    *[["trace", "--gen-spd", "--dim", "192", "--kappa", "16", "--func", func,
       "--backend", "lanczos", "--m", "20", "--probes", "1", "--seed", "4"]
      for func in ("inv", "invsqrt")],
    ["wishart", "game", "--d", "64", "--algo", "hutch", "--nv", "1", "--m",
     "32", "--budget", "32", "--trials", "20", "--seed", "9"],
    # From kappa ~ 1e16 on no ellipse degree is finite: exit 3.
    ["poly", "build", "--func", "inv", "--kappa", "1e16", "--delta", "0.1"],
    ["trace", "--gen-spd", "--dim", "8", "--backend", "cheb", "--kappa",
     "1e17", "--seed", "1"],
    # exp overflows on the spectrum, so a form is not finite: exit 3.
    ["trace", "--gen-spd", "--dim", "4", "--kappa", "1e3", "--func", "exp",
     "--backend", "lanczos", "--m", "4", "--seed", "1"],
    ["trace", "--gen-spd", "--dim", "8", "--kappa", "1e300", "--backend",
     "exact", "--func", "exp", "--probes", "2", "--seed", "1"],
]


def spd100_raw() -> str:
    """A d=64 SPD matrix with spectrum [1, 100] in the raw dense format,
    drawn here with numpy so it does not depend on the checkout."""
    g = np.random.default_rng(0)
    q, _ = np.linalg.qr(g.standard_normal((64, 64)))
    lam = np.exp(g.uniform(0.0, np.log(100.0), size=64))
    lam[0], lam[-1] = 1.0, 100.0
    a = (q * lam) @ q.T
    a = a / 2.0 + a.T / 2.0
    return "64\n" + "".join(" ".join(map(repr, row)) + "\n" for row in a.tolist())


def digest_lines(main, invocations=INVOCATIONS) -> list[str]:
    """Run each invocation through ``main`` in the current directory."""
    lines = []
    for argv in invocations:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except Exception as exc:  # an escaping error is a result too
                code = type(exc).__name__
        sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
        lines.append(f"{' '.join(argv)}\t{code}\t{sha}")
    return lines


def write_inputs(main):
    """Write the invocations' input files into the current directory; p.json
    is written by running BUILD_P through ``main``."""
    Path("m.txt").write_text(RAW)
    Path("mcopy.txt").write_text(RAW)
    Path("m2.txt").write_text(RAW2)
    Path("m.mtx").write_text(MTX)
    Path("false.json").write_text(json.dumps(FALSE_CERT))
    Path("badcert.json").write_text(json.dumps(BAD_CERT))
    Path("overflow.txt").write_text(OVERFLOW_RAW)
    Path("eye.txt").write_text(EYE_RAW)
    Path("neg.txt").write_text(NEG_RAW)
    Path("latin1.txt").write_bytes(LATIN1_RAW)
    Path("twice.mtx").write_text(TWICE_MTX)
    Path("nocert.json").write_text(json.dumps(NO_CERT))
    Path("coeffs2d.json").write_text(json.dumps(COEFFS_2D))
    Path("neginterval.json").write_text(json.dumps(NEG_INTERVAL))
    Path("bigcoeffs.json").write_text(json.dumps(BIG_COEFFS))
    Path("zero.mtx").write_text(ZERO_MTX)
    Path("bom.mtx").write_bytes(BOM + MTX.encode())
    Path("bomfalse.json").write_bytes(BOM + json.dumps(FALSE_CERT).encode())
    Path("spd100.txt").write_text(spd100_raw())
    with contextlib.redirect_stdout(io.StringIO()):
        main(BUILD_P)


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1])
    sys.path.insert(0, str(root.resolve() / "src"))
    from tracebounds.cli import main as cli_main

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_inputs(cli_main)
            lines = digest_lines(cli_main)
        finally:
            os.chdir(here)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
