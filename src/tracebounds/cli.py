"""Command-line surface.

Subcommands: ``poly build|error``, ``trace``, ``wishart
eigcdf|lmax|invtrace|posterior|game`` and ``verify``.  Every experiment run
embeds its full configuration and seed in the emitted report, and the same
(subcommand, args, seed) always produces byte-identical output bodies.

Exit codes: 0 success, 2 usage error, 3 assertion/certificate failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys


from .approx import ApproxTarget, inv_poly, inv_sqrt_poly, sup_error
from .chebyshev import ChebPoly
from .errors import (
    CertificateError,
    MatrixParseError,
    TraceBoundsError,
    UsageError,
)
from .hutchinson import (
    ChebBackend,
    ExactBackend,
    LanczosBackend,
    ProbeSpec,
    bias_bound,
    build_target_poly,
    hutchinson,
)
from .linalg import sample_spd_with_spectrum
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
from . import verify as _verify

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
#: Scalar functions `trace` accepts (after aliasing) with a non-cheb backend.
_TRACE_FUNCS = ("inv", "inv_sqrt", "identity", "exp")


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


def _config(args, fields) -> dict:
    cfg = {"subcommand": args.command}
    if getattr(args, "subcommand", None):
        cfg["subcommand"] += " " + args.subcommand
    for f in fields:
        cfg[f] = getattr(args, f)
    # Trials run on one thread; the field keeps the documented config keys.
    cfg["threads"] = 1
    return cfg


# ---------------------------------------------------------------------------
# poly


def _poly_target(func: str, kappa: float, delta: float) -> ApproxTarget:
    if func not in _FUNC_ALIASES:
        raise UsageError(f"--func must be inv or invsqrt, got {func!r}")
    if kappa is None or not 2 <= kappa < math.inf:
        raise UsageError("--kappa must be finite and >= 2")
    if delta is None or not 0 < delta < 0.5:
        raise UsageError("--delta must be in (0, 1/2)")
    return ApproxTarget(_FUNC_ALIASES[func], kappa=kappa, delta=delta)


def cmd_poly_build(args) -> int:
    target = _poly_target(args.func, args.kappa, args.delta)
    poly = (inv_sqrt_poly if target.kind == "inv_sqrt" else inv_poly)(
        target.kappa, target.delta
    )
    bound = target.delta / (
        math.sqrt(target.kappa) if target.kind == "inv_sqrt" else target.kappa
    )
    # --grid is raised to sup_error's minimum, max(1024, 10 * degree).
    grid = max(args.grid, 1024, 10 * poly.degree())
    achieved = sup_error(poly, target, grid)
    doc = {
        **poly.to_dict(),
        "certificate": {
            "func": target.kind,
            "kappa": target.kappa,
            "delta": target.delta,
            "degree": poly.degree(),
            "grid_size": grid,
            "grid_sup_error": achieved,
            "bound": bound,
        },
        "config": _config(args, ["func", "kappa", "delta", "grid"]),
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_poly_error(args) -> int:
    with open(args.poly, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    poly = ChebPoly.from_dict(doc)
    cert = doc.get("certificate")
    if cert is None:
        raise UsageError("polynomial file carries no certificate to re-check")
    target = _poly_target(cert["func"].replace("inv_sqrt", "invsqrt"),
                          cert["kappa"], cert["delta"])
    grid = max(args.grid, 1024, 10 * poly.degree())
    achieved = sup_error(poly, target, grid)
    report = {
        "degree": poly.degree(),
        "grid_size": grid,
        "grid_sup_error": achieved,
        "bound": cert["bound"],
        "config": _config(args, ["poly", "grid"]),
    }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    if achieved > cert["bound"]:
        print(f"certificate violated: {achieved:g} > {cert['bound']:g}",
              file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# trace


def _load_or_generate_matrix(args):
    if args.matrix is not None:
        mat, asym = parse_matrix_file(args.matrix)
        return mat, asym
    if args.gen_spd:
        if args.dim is None or args.dim < 2:
            raise UsageError("--gen-spd requires --dim >= 2")
        kappa = args.kappa if args.kappa is not None else 2.0
        if kappa < 1:
            raise UsageError("--gen-spd requires --kappa >= 1")
        return sample_spd_with_spectrum(
            args.dim, kappa, RngState(args.seed, stream=9)
        ), 0.0
    raise UsageError("provide --matrix FILE or --gen-spd")


def cmd_trace(args) -> int:
    if args.seed is None:
        raise UsageError("--seed is required")
    if args.probes < 1:
        raise UsageError("--probes must be >= 1")
    func = _FUNC_ALIASES.get(args.func, args.func)
    if func not in _TRACE_FUNCS:
        raise UsageError(
            f"--func must be inv, invsqrt, identity or exp, got {args.func!r}")
    mat, asym = _load_or_generate_matrix(args)
    rng = RngState(args.seed)
    probes = ProbeSpec(args.probe_kind, args.probes, rng)

    bias = None
    if args.backend == "cheb":
        if args.kappa is None:
            raise UsageError("--backend cheb requires --kappa")
        target = _poly_target(args.func, args.kappa, args.delta)
        poly = build_target_poly(target)
        backend = ChebBackend(
            poly, label=f"cheb[{target.kind}, kappa={args.kappa:g}, delta={args.delta:g}]"
        )
        bias = bias_bound(target, mat.dim)
    elif args.backend == "lanczos":
        if args.m is None or not 1 <= args.m <= mat.dim:
            raise UsageError(f"--backend lanczos requires 1 <= --m <= d = {mat.dim}")
        backend = LanczosBackend(func, args.m)
    elif args.backend == "exact":
        backend = ExactBackend(func)
    else:
        raise UsageError(f"unknown backend {args.backend!r}")

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
    if not args.no_quadratic_forms:
        payload["quadratic_forms"] = est.quadratic_forms.tolist()
    cfg = _config(args, ["matrix", "gen_spd", "dim", "func", "backend", "kappa",
                         "delta", "m", "probes", "probe_kind", "seed"])
    _write_text(args.out, _json_report(cfg, payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wishart


def _require_seed(args):
    if args.seed is None:
        raise UsageError("--seed is required for experiment subcommands")


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated numbers, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{flag} values must be finite, got {text!r}")
    return values


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


def cmd_wishart(args) -> int:
    _require_seed(args)
    rng = RngState(args.seed)
    sub = args.subcommand
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    min_d = 2 if sub == "invtrace" else 1
    if args.d < min_d:
        raise UsageError(f"--d must be >= {min_d}")
    if sub == "eigcdf":
        xs = _float_list(args.x, "--x")
        if not all(0 <= x <= 1 for x in xs):
            raise UsageError("--x values must lie in [0, 1]")
        rows = eig_cdf_experiment(args.d, args.trials, xs, rng)
        cfg = _config(args, ["d", "trials", "x", "seed", "format"])
        table = [(r.x, r.count, r.probability, r.stderr) for r in rows]
        _emit(args, cfg, CSV_HEADERS["eigcdf"], table,
              {"rows": [r.__dict__ for r in rows]})
        probs = [r.probability for r in rows]
        if any(b < a for a, b in zip(probs, probs[1:])):
            print("assertion failed: empirical CDF not monotone in x",
                  file=sys.stderr)
            return EXIT_ASSERTION
        return EXIT_OK
    if sub == "lmax":
        ts = _float_list(args.t, "--t")
        if not all(t >= 0 for t in ts):
            raise UsageError("--t values must be >= 0")
        rows = lambda_max_tail_experiment(args.d, args.trials, ts, rng)
        cfg = _config(args, ["d", "trials", "t", "seed", "format"])
        table = [
            (r.x, r.count, r.probability, r.stderr, 2.0 * math.exp(-args.d * r.x))
            for r in rows
        ]
        _emit(args, cfg, CSV_HEADERS["lmax"], table,
              {"rows": [dict(r.__dict__, bound=2.0 * math.exp(-args.d * r.x))
                        for r in rows]})
        return EXIT_OK
    if sub == "invtrace":
        if args.p <= 0.5:
            raise UsageError("--p must be > 1/2")
        rep = inv_trace_tail_experiment(args.d, args.trials, args.p, rng)
        cfg = _config(args, ["d", "trials", "p", "seed", "format"])
        table = list(zip(rep.sample_trials.tolist(), rep.samples.tolist()))
        _emit(args, cfg, CSV_HEADERS["invtrace"], table, rep.to_dict())
        return EXIT_OK
    if sub == "posterior":
        if args.format == "csv":
            raise UsageError("wishart posterior reports JSON only; drop --format csv")
        if not 0 <= args.n < args.d:
            raise UsageError("need 0 <= n < d")
        rep = posterior_distribution_test(args.d, args.n, args.trials, rng)
        cfg = _config(args, ["d", "n", "trials", "seed", "format"])
        _write_text(args.out, _json_report(cfg, rep.to_dict()))
        ok = (
            rep.ks_trace[1] > 0.01
            and rep.ks_lambda_min[1] > 0.01
            and rep.ks_trace_uncorrected[1] < 0.01
        )
        if not ok:
            print("assertion failed: posterior KS thresholds not met",
                  file=sys.stderr)
            return EXIT_ASSERTION
        return EXIT_OK
    if sub == "game":
        if args.C <= 1.0:
            raise UsageError("--C must be > 1")
        if args.p <= 0.5:
            raise UsageError("--p must be > 1/2")
        if args.algo == "exact":
            algo = ExactRecovery()
        elif args.algo == "const":
            if args.c_guess is None:
                raise UsageError("--algo const requires --c-guess")
            algo = ConstantGuess(args.c_guess)
        elif args.algo == "hutch":
            if args.nv is None or args.m is None:
                raise UsageError("--algo hutch requires --nv and --m")
            if args.nv < 1 or args.m < 1:
                raise UsageError("--nv and --m must be >= 1")
            algo = HutchinsonKrylov(args.nv, args.m)
        else:
            raise UsageError(f"unknown --algo {args.algo!r}")
        try:
            result = query_game(args.d, args.p, args.C, algo, args.budget,
                                args.trials, rng)
        except ValueError as exc:
            raise UsageError(str(exc))
        cfg = _config(args, ["d", "p", "C", "algo", "budget", "trials", "nv",
                             "m", "c_guess", "seed", "format"])
        table = [
            (r.trial, r.estimate, r.true_trace, r.queries_used, r.success,
             r.budget_violation)
            for r in result.records
        ]
        _emit(args, cfg, CSV_HEADERS["game"], table, result.to_dict())
        if result.budget_violations:
            print(
                f"assertion failed: {result.budget_violations} budget violations",
                file=sys.stderr,
            )
            return EXIT_ASSERTION
        return EXIT_OK
    raise UsageError(f"unknown wishart subcommand {sub!r}")


def _emit(args, config: dict, header: list[str], rows, json_payload: dict):
    if args.format == "csv":
        _write_text(args.out, _csv_body(config, header, rows))
    else:
        _write_text(args.out, _json_report(config, json_payload))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
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
    tr.add_argument("--matrix", help="matrix file (MatrixMarket or raw dense)")
    tr.add_argument("--gen-spd", action="store_true",
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
    tr.add_argument("--seed", type=int)
    tr.add_argument("--no-quadratic-forms", action="store_true")
    tr.add_argument("--out", default="-")
    tr.set_defaults(handler=cmd_trace)

    wi = sub.add_parser("wishart", help="Wishart laboratory experiments")
    wi_sub = wi.add_subparsers(dest="subcommand", required=True)

    def _common(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default="-")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.set_defaults(handler=cmd_wishart)

    we = wi_sub.add_parser("eigcdf", help="lambda_min CDF at the x/d^2 scale")
    we.add_argument("--d", type=int, required=True)
    we.add_argument("--trials", type=int, default=10000)
    we.add_argument("--x", default="0.01,0.04,0.16,0.64",
                    help="comma-separated x values in [0, 1]")
    _common(we)
    wl = wi_sub.add_parser("lmax", help="lambda_max exponential tail")
    wl.add_argument("--d", type=int, required=True)
    wl.add_argument("--trials", type=int, default=10000)
    wl.add_argument("--t", default="0,0.25,0.5,1")
    _common(wl)
    wt = wi_sub.add_parser("invtrace", help="tr(W^-p)/d^2p quantiles")
    wt.add_argument("--d", type=int, required=True)
    wt.add_argument("--trials", type=int, default=2000)
    wt.add_argument("--p", type=_finite_float, default=1.0)
    _common(wt)
    wp = wi_sub.add_parser("posterior", help="posterior distribution KS test")
    wp.add_argument("--d", type=int, required=True)
    wp.add_argument("--n", type=int, required=True)
    wp.add_argument("--trials", type=int, default=2000)
    _common(wp)
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
    _common(wg)

    ve = sub.add_parser("verify", help="run the invariant suite")
    ve.set_defaults(handler=lambda args: (
        EXIT_ASSERTION if _verify.run_all() else EXIT_OK
    ))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except (OSError, MatrixParseError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TraceBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
