"""Outside-in tracing: spans around each layer's public functions.

Nothing in the program changes.  ``install`` replaces each traced function
in the namespace of the module that calls it (``cli.parse_matrix_file``,
``hutchinson.fa_times_vec_lanczos``, ``wishart.sample_wishart``, ...) with a
wrapper that records a span: name, start, end, parent span, op id and
whether it raised.  Spans stay in memory until the run ends.  Work counts
are taken at the same boundaries from the wrapped call's arguments and
result, and kernel flops and bytes are computed from array sizes.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "matio", "approx", "hutchinson", "krylov", "linalg", "rng",
          "wishart")


class Tracer:
    def __init__(self):
        self.spans = []          # [parent, name, t0, t1, op, failed]
        self._stack = []
        self.op = -1
        self.counts = defaultdict(float)
        self._patches = []       # (owner, attr, original, replacement)

    def enable(self, on: bool):
        """Put the wrappers in place, or the original functions back."""
        for owner, attr, original, replacement in self._patches:
            setattr(owner, attr, replacement if on else original)

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr), replacement))
        setattr(owner, attr, replacement)

    def begin_op(self, op: int) -> int:
        """Start attributing spans and counts to op ``op``."""
        self.op = op
        self.counts = defaultdict(float)
        return len(self.spans)

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(counts, arguments, result)`` adds the call's work counts,
        with ``arguments`` bound by name (None for counters marked
        ``needs_args = False``, which skips the cost of binding);
        ``name=None`` records counts only, with no span.
        """
        fn = getattr(owner, attr)
        sig = inspect.signature(fn) if getattr(count, "needs_args", False) else None
        spans, stack = self.spans, self._stack

        def counted(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            count(self.counts, bound, result)

        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                counted(args, kwargs, result)
                return result
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            failed = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (parent, name, t0, t1, self.op, failed)
            if count is not None:
                counted(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        self.patch(owner, attr, wrapper)

    def op_summary(self, first: int) -> dict:
        """Per-op layer times and counts from spans ``first`` onwards."""
        spans = self.spans[first:]
        out = defaultdict(float)
        out.update(self.counts)
        child = defaultdict(float)
        for parent, _name, t0, t1, _op, _failed in spans:
            if parent >= 0:
                child[parent - first] += t1 - t0
        for k, (parent, name, t0, t1, _op, failed) in enumerate(spans):
            layer = name.split(".", 1)[0]
            dur = t1 - t0
            out[f"span:{name}"] += dur
            out[f"{layer}.self_s"] += dur - child[k]
            parent_name = spans[parent - first][1] if parent >= 0 else ""
            if not parent_name.startswith(layer + "."):
                out[f"{layer}.busy_s"] += dur
            if failed:
                out[f"{layer}.failures"] += 1
            if name == "linalg.sym_eigen" and parent_name.startswith("wishart."):
                out["wishart.eigensolve_s"] += dur
            if name == "wishart.eigvalsh":
                out["wishart.eigensolve_s"] += dur
            if name == "approx.certify" and parent_name == "approx.build":
                out["approx.certify_in_build_s"] += dur
        return dict(out)

    def dump(self, path: str):
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\top\tfailed\n")
            for sid, (parent, name, t0, t1, op, failed) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{t0!r}\t{t1!r}\t{op}\t{int(failed)}\n")


class _Forward:
    """Attribute proxy: own attributes first, then the real module's."""

    def __init__(self, real, **own):
        self._real = real
        self.__dict__.update(own)

    def __getattr__(self, name):
        return getattr(self._real, name)


# ---------------------------------------------------------------------------
# Work counters and computed kernel costs


def _count(key, value_of=None):
    def count(counts, a, r):
        counts[key] += value_of(a, r) if value_of else 1
    count.needs_args = value_of is not None
    return count


def _all(*counters):
    def count(counts, a, r):
        for c in counters:
            c(counts, a, r)
    count.needs_args = any(c.needs_args for c in counters)
    return count


def _with_args(fn):
    fn.needs_args = True
    return fn


def clenshaw_cost(d: int, k: int, degree: int):
    """Computed (flops, bytes) of a degree-n block Clenshaw on a d x k block.

    Each of the n steps is one d x d by d x k GEMM (2 d^2 k flops, reading
    A and the block and writing the product) and 8 elementwise d x k
    operations, each reading two operands and writing one.
    """
    flops = degree * (2 * d * d * k + 8 * d * k)
    nbytes = degree * 8 * (d * d + 2 * d * k + 8 * 3 * d * k)
    return flops, nbytes


def lanczos_cost(d: int, steps: int):
    """Computed (flops, bytes) of ``steps`` Lanczos steps with two full
    reorthogonalization passes, plus the final basis-vector product.

    Step j (0-based) does one matvec (2 d^2), the alpha/beta updates
    (~6 d) and two passes of Q_j (Q_j^T w) against the j+1 basis columns
    (8 d (j+1) flops, reading Q_j four times).
    """
    s = steps
    flops = 2 * d * d * s + 8 * d * s * (s + 1) // 2 + 9 * d * s + 2 * d * s
    nbytes = 8 * (d * d * s + 4 * d * s * (s + 1) // 2 + 10 * d * s + d * s)
    return flops, nbytes


def _lanczos_counts(prefix):
    @_with_args
    def count(counts, a, r):
        steps = r[1]
        counts[f"{prefix}steps"] += steps
        counts[f"{prefix}breakdowns"] += steps < a["m"]
        mat = a.get("a")
        d = mat.dim if mat is not None else a["d"]
        flops, nbytes = lanczos_cost(d, steps)
        counts[f"{prefix}flop"] += flops
        counts[f"{prefix}bytes"] += nbytes
        counts["lanczos_steps"] += steps
    return count


@_with_args
def _clenshaw_counts(counts, a, r):
    d, k = a["zblock"].shape
    degree = r[1] // k
    flops, nbytes = clenshaw_cost(d, k, degree)
    counts["krylov.clenshaw_mvps"] += r[1]
    counts["krylov.clenshaw_flop"] += flops
    counts["krylov.clenshaw_bytes"] += nbytes


def _degree(counts, a, r):
    counts["approx.degree_sum"] += r.degree()
    counts["approx.builds"] += 1


@_with_args
def _hutchinson(counts, a, r):
    counts["hutchinson.probes"] += a["probes"].count
    counts["hutchinson.mvps"] += r.mvp_count
    counts["mvps"] += r.mvp_count


@_with_args
def _experiment(counts, a, r):
    counts["wishart.trials"] += a["trials"]
    counts["trials"] += a["trials"]
    if hasattr(r, "records"):        # query_game
        used = sum(rec.queries_used for rec in r.records)
        counts["wishart.oracle_queries"] += used
        counts["oracle_queries"] += used
        counts["wishart.budget_violations"] += r.budget_violations
        counts["wishart.game_successes"] += r.success_count
        counts["wishart.game_trials"] += r.trials
    if hasattr(r, "dropped"):        # inv_trace_tail_experiment
        counts["wishart.kept"] += r.trials - r.dropped
        counts["wishart.kept_of"] += r.trials


def install(tracer: Tracer):
    """Wrap every traced boundary of the program, in its caller's namespace."""
    # By module path: the package re-exports a function named hutchinson.
    approx, cli, hutchinson, krylov, rng, wishart = (
        importlib.import_module(f"tracebounds.{m}")
        for m in ("approx", "cli", "hutchinson", "krylov", "rng", "wishart"))
    t = tracer
    t.wrap(cli, "main", "cli.main", _count("cli.invocations"))
    t.wrap(cli, "parse_matrix_file", "matio.parse_matrix_file",
           _count("matio.bytes", lambda a, r: os.path.getsize(a["path"])))
    for mod in (cli, hutchinson):
        t.wrap(mod, "inv_poly", "approx.build", _degree)
        t.wrap(mod, "inv_sqrt_poly", "approx.build", _degree)
    t.wrap(cli, "sup_error", "approx.certify")
    t.wrap(approx, "_certify", "approx.certify")
    t.wrap(approx, "monomial_cheb_approx", None,
           _all(_count("approx.monomials"), _count("monomials")))
    t.wrap(cli, "hutchinson", "hutchinson.hutchinson", _hutchinson)
    t.wrap(hutchinson.ProbeSpec, "draw", "hutchinson.draw")
    t.wrap(hutchinson, "fa_times_vec_lanczos", "krylov.lanczos",
           _lanczos_counts("krylov.lanczos_"))
    t.wrap(hutchinson, "poly_times_block", "krylov.clenshaw", _clenshaw_counts)
    for mod in (hutchinson, krylov, wishart):
        t.wrap(mod, "sym_eigen", "linalg.sym_eigen")
    for fn in ("eig_cdf_experiment", "lambda_max_tail_experiment",
               "inv_trace_tail_experiment", "posterior_distribution_test",
               "query_game"):
        t.wrap(cli, fn, f"wishart.{fn}", _experiment)
    t.wrap(wishart, "posterior_decompose", "wishart.posterior_decompose")
    t.wrap(wishart, "fa_times_vec_oracle", "krylov.oracle_lanczos",
           _lanczos_counts("krylov.oracle_"))
    t.wrap(wishart, "sample_wishart", "linalg.sample_wishart",
           _count("linalg.sample_wishart_calls"))
    t.wrap(wishart, "cholesky", "linalg.cholesky")
    t.wrap(wishart, "qr_columns", "linalg.qr")
    t.wrap(wishart, "orthonormal_complement", "linalg.qr")
    t.wrap(rng.RngState, "child", "rng.child",
           _all(_count("rng.streams"), _count("rng_streams")))
    # wishart calls numpy's eigvalsh directly; give that module alone a
    # numpy whose linalg.eigvalsh is traced.
    np_real = wishart.np
    linalg = _Forward(np_real.linalg, eigvalsh=np_real.linalg.eigvalsh)
    t.wrap(linalg, "eigvalsh", "wishart.eigvalsh")
    t.patch(wishart, "np", _Forward(np_real, linalg=linalg))
