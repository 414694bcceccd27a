"""Command-line surface.

Subcommands: ``poly build|error``, ``trace``, ``wishart
eigcdf|lmax|invtrace|posterior|game`` and ``verify``, each declared once in
``build_parser`` with its own handler.  ``main(argv)`` may be called many
times in one process: the parser is built on the first call and reused, and
a call's output and exit code do not depend on earlier calls.  Every
experiment run embeds its full configuration (every parsed flag but the
output-only ones) and seed in its report, and the same (subcommand, args,
seed) gives byte-identical output: handlers run on one OpenBLAS thread.

Exit codes: 0 success, 2 usage error, 3 assertion/certificate failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from dataclasses import asdict, astuple

import numpy as np

from .approx import (
    ApproxTarget,
    inv_poly,
    inv_sqrt_poly,
    sup_error,
    sup_error_bound,
)
from .chebyshev import ChebPoly
from .errors import (
    CertificateError,
    ParseError,
    TraceBoundsError,
    UsageError,
)
from .hutchinson import (
    ChebBackend,
    ExactBackend,
    LanczosBackend,
    ProbeSpec,
    bias_bound,
    hutchinson,
)
from .linalg import _one_blas_thread, sample_spd_with_spectrum, spectrum_within
from .matio import parse_matrix_file
from .rng import RngState
from .wishart import (
    ConstantGuess,
    ExactRecovery,
    HutchinsonKrylov,
    eig_cdf_experiment,
    inv_trace_tail_experiment,
    lambda_max_tail_experiment,
    posterior_distribution_test,
    query_game,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ASSERTION = 3
EXIT_IO = 4

#: Documented CSV headers, part of the external contract (see README).
CSV_HEADERS = {
    "eigcdf": ["x", "count", "probability", "stderr"],
    "lmax": ["t", "count", "probability", "stderr", "bound"],
    "invtrace": ["trial", "normalized_trace"],
    "game": ["trial", "estimate", "true_trace", "queries_used", "success",
             "budget_violation"],
}

_FUNC_ALIASES = {"inv": "inv", "invsqrt": "inv_sqrt", "inv_sqrt": "inv_sqrt"}


def _fmt(v) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_text(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _csv_body(config: dict, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write("# config = " + json.dumps(config, sort_keys=True) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def _json_report(config: dict, payload: dict) -> str:
    return json.dumps({"config": config, **payload}, indent=2) + "\n"


#: Flags that only shape the output, not the run; the config omits them.
_OUTPUT_ONLY = {"out", "no_quadratic_forms"}


def _config(args) -> dict:
    """The run's record: the subcommand, every parsed flag in parser order
    except the output-only ones, then `threads: 1`, the OpenBLAS thread
    count main runs every handler on."""
    flags = dict(vars(args))
    del flags["handler"]
    name = [flags.pop("command"), flags.pop("subcommand", None)]
    cfg = {"subcommand": " ".join(filter(None, name))}
    cfg.update((k, v) for k, v in flags.items() if k not in _OUTPUT_ONLY)
    cfg["threads"] = 1
    return cfg


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_ASSERTION


# ---------------------------------------------------------------------------
# poly


def _poly_target(func: str, kappa: float, delta: float) -> ApproxTarget:
    if func not in _FUNC_ALIASES:
        raise UsageError(f"func must be inv or invsqrt, got {func!r}")
    return ApproxTarget(_FUNC_ALIASES[func], kappa=kappa, delta=delta)


def cmd_poly_build(args) -> int:
    target = _poly_target(args.func, args.kappa, args.delta)
    poly = (inv_sqrt_poly if target.kind == "inv_sqrt" else inv_poly)(
        target.kappa, target.delta
    )
    grid, achieved = _certify(poly, target, args.grid)
    doc = {
        **poly.to_dict(),
        "certificate": {
            "func": target.kind,
            "kappa": target.kappa,
            "delta": target.delta,
            "degree": poly.degree(),
            "grid_size": grid,
            "grid_sup_error": achieved,
            "sup_error_bound": sup_error_bound(target, poly.degree()),
            "bound": target.delta / target.scale,
        },
        "config": _config(args),
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _certify(poly: ChebPoly, target: ApproxTarget, grid: int):
    """(grid size, grid sup error), with --grid raised to sup_error's
    minimum, max(1024, 10 * degree)."""
    grid = max(grid, 1024, 10 * poly.degree())
    return grid, sup_error(poly, target, grid)


#: |p| <= sum |c_j| on p's interval.  Below this sum every evaluation of p,
#: by FFT or Clenshaw, stays finite, and so does the grid error a report
#: prints; past it, values near the float maximum could overflow to NaN.
_COEFF_SUM_MAX = 1e300


def _read_poly_file(path: str):
    """(ChebPoly, ApproxTarget, certificate bound) from a ``poly build``
    file.  A file that is not JSON, whose polynomial fields do not make a
    finite ChebPoly, that has no certificate, or whose certificate fields
    have the wrong type or name a target the library rejects raises
    ParseError, as does an interval that reaches x <= 0 or coefficients
    whose magnitudes sum past _COEFF_SUM_MAX."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not JSON: {exc}")
    if not isinstance(doc, dict) or not {"interval", "coeffs"} <= doc.keys():
        raise ParseError(f"{path}: a polynomial needs interval and coeffs")
    try:
        poly = ChebPoly.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad polynomial: {exc}")
    if not (np.isfinite(poly.interval).all() and np.isfinite(poly.coeffs).all()):
        raise ParseError(f"{path}: bad polynomial: a NaN or infinite number")
    with np.errstate(over="ignore"):
        coeff_sum = np.sum(np.abs(poly.coeffs))
    if not coeff_sum <= _COEFF_SUM_MAX:
        raise ParseError(f"{path}: bad polynomial: coefficient magnitudes "
                         f"sum past {_COEFF_SUM_MAX:g}")
    if poly.interval[0] <= 0:
        # Both targets are certified on [1, kappa]; at x <= 0 x^{-1/2} is
        # NaN and 1/x has its pole, so no sup error there means anything.
        raise ParseError(f"{path}: bad polynomial: interval "
                         f"{list(poly.interval)} must lie in x > 0")
    cert = doc.get("certificate")
    if cert is None:
        raise ParseError(f"{path}: no certificate to re-check")
    if not isinstance(cert, dict) or not isinstance(cert.get("func"), str):
        raise ParseError(f"{path}: certificate.func must be a string")
    for key in ("kappa", "delta", "bound"):
        value = cert.get(key)
        if not _finite_number(value):
            raise ParseError(
                f"{path}: certificate.{key} must be a finite number, got {value!r}")
    try:
        target = _poly_target(cert["func"], cert["kappa"], cert["delta"])
    except UsageError as exc:
        raise ParseError(f"{path}: certificate: {exc}") from exc
    return poly, target, cert["bound"]


def _finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def cmd_poly_error(args) -> int:
    poly, target, bound = _read_poly_file(args.poly)
    grid, achieved = _certify(poly, target, args.grid)
    report = {
        "degree": poly.degree(),
        "grid_size": grid,
        "grid_sup_error": achieved,
        "bound": bound,
        "config": _config(args),
    }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    if not achieved <= bound:
        return _fail(f"certificate violated: {achieved:g} > {bound:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# trace


def _load_or_generate_matrix(args):
    if args.matrix is not None:
        return parse_matrix_file(args.matrix)
    if not args.gen_spd:
        raise UsageError("provide --matrix FILE or --gen-spd")
    if args.dim is None:
        raise UsageError("--gen-spd requires --dim")
    kappa = args.kappa if args.kappa is not None else 2.0
    return sample_spd_with_spectrum(args.dim, kappa, RngState(args.seed, stream=9)), 0.0


def cmd_trace(args) -> int:
    probes = ProbeSpec(args.probe_kind, args.probes, RngState(args.seed))
    func = _FUNC_ALIASES.get(args.func, args.func)
    mat, asym = _load_or_generate_matrix(args)

    bias = withheld = None
    if args.backend == "cheb":
        if args.kappa is None:
            raise UsageError("--backend cheb requires --kappa")
        target = _poly_target(args.func, args.kappa, args.delta)
        backend = ChebBackend.for_target(target)
        # The bound holds only for spec(A) inside [1, kappa]; tau admits
        # endpoints that rounding moved just outside.
        tau = 1e-12 * target.kappa
        if spectrum_within(mat, 1.0, target.kappa, tau):
            bias = bias_bound(target, mat.dim)
        else:
            withheld = (f"spec(A) is not inside [1, kappa] = [1, {target.kappa!r}]"
                        f" within tau = {tau!r}")
    elif args.backend == "lanczos":
        if args.m is None:
            raise UsageError("--backend lanczos requires --m")
        backend = LanczosBackend(func, args.m)
    else:
        backend = ExactBackend(func)

    est = hutchinson(mat, backend, probes)
    payload = {
        "estimate": est.value,
        "sample_stddev": est.sample_stddev,
        "standard_error": est.standard_error(),
        "mvp_count": est.mvp_count,
        "backend": est.backend,
        "dim": mat.dim,
        "matrix_max_asymmetry": asym,
        "bias_bound": bias,
    }
    if withheld is not None:
        payload["bias_bound_withheld"] = withheld
    if not args.no_quadratic_forms:
        payload["quadratic_forms"] = est.quadratic_forms.tolist()
    _write_text(args.out, _json_report(_config(args), payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wishart


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated numbers, got {text!r}")


def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and infinities are usage
    errors (exit 2), never a NaN row or an endless parameter scan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def cmd_eigcdf(args) -> int:
    rng = RngState(args.seed)
    xs = _float_list(args.x, "--x")
    rows = eig_cdf_experiment(args.d, args.trials, xs, rng)
    _emit(args, map(astuple, rows), lambda: {"rows": list(map(asdict, rows))})
    probs = [r.probability for r in sorted(rows, key=lambda r: r.x)]
    if any(b < a for a, b in zip(probs, probs[1:])):
        return _fail("assertion failed: empirical CDF not monotone in x")
    return EXIT_OK


def cmd_lmax(args) -> int:
    rng = RngState(args.seed)
    ts = _float_list(args.t, "--t")
    rows = lambda_max_tail_experiment(args.d, args.trials, ts, rng)
    _emit(args, map(astuple, rows), lambda: {"rows": list(map(asdict, rows))})
    return EXIT_OK


def cmd_invtrace(args) -> int:
    rng = RngState(args.seed)
    rep = inv_trace_tail_experiment(args.d, args.trials, args.p, rng)
    table = list(zip(rep.sample_trials.tolist(), rep.samples.tolist()))
    _emit(args, table, rep.to_dict)
    return EXIT_OK


def cmd_posterior(args) -> int:
    rng = RngState(args.seed)
    if args.format == "csv":
        raise UsageError("wishart posterior reports JSON only; drop --format csv")
    rep = posterior_distribution_test(args.d, args.n, args.trials, rng)
    _emit(args, (), lambda: asdict(rep))
    # At n = 0 there is no correction: the control is the trace test itself.
    ok = (
        rep.ks_trace.p_value > 0.01
        and rep.ks_lambda_min.p_value > 0.01
        and (args.n == 0 or rep.ks_trace_uncorrected.p_value < 0.01)
    )
    if not ok:
        return _fail("assertion failed: posterior KS thresholds not met")
    return EXIT_OK


def cmd_game(args) -> int:
    rng = RngState(args.seed)
    if args.algo == "exact":
        algo = ExactRecovery()
    elif args.algo == "const":
        if args.c_guess is None:
            raise UsageError("--algo const requires --c-guess")
        algo = ConstantGuess(args.c_guess)
    else:
        if args.nv is None or args.m is None:
            raise UsageError("--algo hutch requires --nv and --m")
        algo = HutchinsonKrylov(args.nv, args.m)
    result = query_game(args.d, args.p, args.C, algo, args.budget,
                        args.trials, rng)
    # The CSV rows leave out the last field, the error message.
    table = ((r.trial, r.estimate, r.true_trace, r.queries_used, r.success,
              r.budget_violation) for r in result.records)
    _emit(args, table, lambda: asdict(result))
    return EXIT_OK


def cmd_verify(args) -> int:
    # Imported here: no other subcommand pays for loading the checks.
    from . import verify

    return EXIT_ASSERTION if verify.run_all() else EXIT_OK


def _emit(args, rows, json_payload):
    """Write a wishart report: the config line, the subcommand's documented
    CSV header and ``rows``, or the config and the dict ``json_payload()``
    returns as JSON; a CSV report never calls it."""
    config = _config(args)
    if args.format == "csv":
        _write_text(args.out, _csv_body(config, CSV_HEADERS[args.subcommand], rows))
    else:
        _write_text(args.out, _json_report(config, json_payload()))


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    call: do not mutate it.  Handlers look library names up when called."""
    parser = argparse.ArgumentParser(
        prog="tracebounds",
        description="Certified polynomial approximations, Krylov trace "
                    "estimation, and Wishart query-complexity experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="build or re-certify approximating polynomials")
    poly_sub = poly.add_subparsers(dest="subcommand", required=True)
    pb = poly_sub.add_parser("build", help="construct a certified polynomial")
    pb.add_argument("--func", required=True, help="inv or invsqrt")
    pb.add_argument("--kappa", type=_finite_float, required=True)
    pb.add_argument("--delta", type=_finite_float, required=True)
    pb.add_argument("--grid", type=int, default=4096)
    pb.add_argument("--out", default="-")
    pb.set_defaults(handler=cmd_poly_build)
    pe = poly_sub.add_parser("error", help="re-certify an existing polynomial file")
    pe.add_argument("--poly", required=True)
    pe.add_argument("--grid", type=int, default=4096)
    pe.add_argument("--out", default="-")
    pe.set_defaults(handler=cmd_poly_error)

    tr = sub.add_parser("trace", help="Hutchinson trace estimation")
    source = tr.add_mutually_exclusive_group()
    source.add_argument("--matrix", help="matrix file (MatrixMarket or raw dense)")
    source.add_argument("--gen-spd", action="store_true",
                        help="generate a seeded SPD matrix with spectrum in [1, kappa]")
    tr.add_argument("--dim", type=int)
    tr.add_argument("--func", default="inv",
                    help="inv, invsqrt, identity or exp")
    tr.add_argument("--backend", default="cheb",
                    choices=["exact", "lanczos", "cheb"])
    tr.add_argument("--kappa", type=_finite_float)
    tr.add_argument("--delta", type=_finite_float, default=0.1)
    tr.add_argument("--m", type=int, help="Lanczos steps")
    tr.add_argument("--probes", type=int, default=64)
    tr.add_argument("--probe-kind", default="rademacher",
                    choices=["rademacher", "gaussian"])
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--no-quadratic-forms", action="store_true")
    tr.add_argument("--out", default="-")
    tr.set_defaults(handler=cmd_trace)

    wi = sub.add_parser("wishart", help="Wishart laboratory experiments")
    wi_sub = wi.add_subparsers(dest="subcommand", required=True)

    def _common(p, handler):
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", default="-")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.set_defaults(handler=handler)

    we = wi_sub.add_parser("eigcdf", help="lambda_min CDF at the x/d^2 scale")
    we.add_argument("--d", type=int, required=True)
    we.add_argument("--trials", type=int, default=10000)
    we.add_argument("--x", default="0.01,0.04,0.16,0.64",
                    help="comma-separated x values in [0, 1]")
    _common(we, cmd_eigcdf)
    wl = wi_sub.add_parser("lmax", help="lambda_max exponential tail")
    wl.add_argument("--d", type=int, required=True)
    wl.add_argument("--trials", type=int, default=10000)
    wl.add_argument("--t", default="0,0.25,0.5,1")
    _common(wl, cmd_lmax)
    wt = wi_sub.add_parser("invtrace", help="tr(W^-p)/d^2p quantiles")
    wt.add_argument("--d", type=int, required=True)
    wt.add_argument("--trials", type=int, default=2000)
    wt.add_argument("--p", type=_finite_float, default=1.0)
    _common(wt, cmd_invtrace)
    wp = wi_sub.add_parser("posterior", help="posterior distribution KS test")
    wp.add_argument("--d", type=int, required=True)
    wp.add_argument("--n", type=int, required=True)
    wp.add_argument("--trials", type=int, default=2000)
    _common(wp, cmd_posterior)
    wg = wi_sub.add_parser("game", help="metered trace-estimation game")
    wg.add_argument("--d", type=int, required=True)
    wg.add_argument("--p", type=_finite_float, default=1.0)
    wg.add_argument("--C", type=_finite_float, default=2.0)
    wg.add_argument("--algo", required=True, choices=["exact", "const", "hutch"])
    wg.add_argument("--budget", type=int, required=True)
    wg.add_argument("--trials", type=int, default=100)
    wg.add_argument("--nv", type=int, help="probes for --algo hutch")
    wg.add_argument("--m", type=int, help="Lanczos steps for --algo hutch")
    wg.add_argument("--c-guess", type=_finite_float, help="constant for --algo const")
    _common(wg, cmd_game)

    ve = sub.add_parser("verify", help="run the invariant suite")
    ve.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        with _one_blas_thread():
            return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except (OSError, ParseError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TraceBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
