"""Krylov subspace actions f(A) Z and explicit polynomial actions p(A) Z.

Every entry point acts on a d x k block of start vectors; a single vector
is the k = 1 case.  There is one Lanczos loop, _lanczos_block, behind both
fa_times_vec_lanczos (explicit matrix) and fa_times_vec_oracle (opaque
metered matvecs, each owning a run of columns, such as one per trial of a
stack), and one Clenshaw sweep, poly_times_block.  m Lanczos steps span the
same polynomial space as an explicit degree-(m-1) polynomial applied to the
start vector, so both paths report their cost in the common currency of
matrix-vector products (MVPs).  f(A) Z by Lanczos runs in column chunks
whose basis stays under _CHUNK_BYTES, whatever the probe count.
"""

from __future__ import annotations

import numpy as np

from .chebyshev import ChebPoly
from .errors import SpectrumError, UsageError
from .linalg import SymMatrix, eigh_checked
# bench/tracing.py wraps krylov.sym_eigen by name; keep it importable here.
from .linalg import sym_eigen  # noqa: F401

_BREAKDOWN_RTOL = 1e-12

#: Bound on the Lanczos basis of one column chunk: 8 m d bytes per column.
_CHUNK_BYTES = 2 ** 20


def _lanczos_block(matvecs, owner, z: np.ndarray, m: int, breakdown_tol: float):
    """k independent Lanczos recurrences, one per column of the d x k block z.

    Column c runs against matvecs[owner[c]].  owner is nondecreasing, so
    each matvec serves one contiguous run of columns; a None matvec marks
    columns that are not run (steps 0).  Each step makes one block product
    per matvec over its columns still running.  A column whose residual
    falls to breakdown_tol stops there (truncated) and is charged only its
    realized steps.  Returns (q, alpha, beta, steps, znorm): q[c, i] is
    basis vector i of column c, alpha[c] and beta[c] hold the diagonal and
    off-diagonal of its tridiagonal T, steps[c] < m marks truncation, and
    znorm[c] is ||z_c||.  Only the first steps[c] entries of q[c] and
    alpha[c] (steps[c] - 1 of beta[c]) are meaningful.  The last step stops
    once alpha[:, m-1] is known: no residual is formed, since no caller
    reads it.
    """
    d, k = z.shape
    znorm = np.linalg.norm(z, axis=0)
    if np.any(znorm == 0.0):
        raise ValueError("Lanczos start vector must be nonzero")
    q = np.zeros((k, m, d))
    q[:, 0] = (z / znorm).T
    alpha = np.zeros((k, m))
    beta = np.zeros((k, max(m - 1, 0)))
    running = np.array([mv is not None for mv in matvecs])[owner]
    steps = np.where(running, m, 0)
    live = np.flatnonzero(running)
    for j in range(m):
        if not len(live):
            break
        cols = slice(None) if len(live) == k else live
        qj = q[cols, j]
        runs = _runs(owner[live])
        w = [matvecs[g](qj[lo:hi].T) for g, lo, hi in runs]
        w = (w[0] if len(w) == 1 else np.concatenate(w, axis=1)).T
        if len(runs) == len(live) > 1:
            # Rows in the layout of a one-column run alone: the sums over a
            # row below round by the row's memory layout.
            w = np.ascontiguousarray(w)
        alpha[cols, j] = aj = np.einsum("ij,ij->i", qj, w)
        if j + 1 == m:
            break
        w = w - aj[:, None] * qj
        if j > 0:
            w = w - beta[cols, j - 1, None] * q[cols, j - 1]
        # Full reorthogonalization, twice, to hold the 1e-8 basis invariant.
        basis = q[cols, : j + 1]
        for _ in range(2):
            w = w - (np.matmul(basis, w[:, :, None]).transpose(0, 2, 1) @ basis)[:, 0]
        wnorm = np.linalg.norm(w, axis=1)
        stop = wnorm <= breakdown_tol
        steps[live[stop]] = j + 1
        go = ~stop
        live = live[go]
        beta[live, j] = wnorm[go]
        q[live, j + 1] = w[go] / wnorm[go, None]
    return q, alpha, beta, steps, znorm


def _runs(own: np.ndarray):
    """(value, lo, hi) for each run own[lo:hi] of equal entries of the
    nondecreasing integer array own."""
    if own[0] == own[-1]:
        return [(int(own[0]), 0, len(own))]
    lo = np.flatnonzero(own[1:] != own[:-1]) + 1
    cut = [0, *lo.tolist(), len(own)]
    return list(zip(own[cut[:-1]].tolist(), cut[:-1], cut[1:]))


def _fa_block(matvecs, owner, z: np.ndarray, m: int, f, breakdown_tol: float):
    """(||z|| Q f(T) e_1 for every column z of the d x k block, total steps,
    errors), with column c run against matvecs[owner[c]] as in _lanczos_block.

    The projections T of one matvec's columns with equal step counts are
    eigensolved as one stack under the sym_eigen residual contract, and f
    is applied to their Ritz values.  A matvec whose Ritz values f rejects
    with SpectrumError stops as if it ran alone: errors[g] holds that error,
    its columns run no later chunk, and they come out NaN.  errors[g] is
    None for a matvec whose columns all finished.
    """
    d, k = z.shape
    out = np.empty((d, k))
    ops = list(matvecs)
    errors = [None] * len(ops)
    mvps = 0
    width = max(1, _CHUNK_BYTES // (8 * m * d))
    for c0 in range(0, k, width):
        own = owner[c0 : c0 + width]
        q, alpha, beta, steps, znorm = _lanczos_block(
            ops, own, z[:, c0 : c0 + width], m, breakdown_tol)
        for s in np.unique(steps[steps > 0]):
            group = steps == s
            # A single group (no breakdown) is indexed by views, not copies.
            cols = slice(None) if group.all() else np.flatnonzero(group)
            diag = np.arange(s)
            for g, lo, hi in _runs(own[cols]):
                if ops[g] is None:
                    continue
                rows = slice(lo, hi) if group.all() else cols[lo:hi]
                t = np.zeros((hi - lo, s, s))
                t[:, diag, diag] = alpha[rows, :s]
                t[:, diag[1:], diag[:-1]] = t[:, diag[:-1], diag[1:]] = beta[rows, : s - 1]
                vals, vecs = eigh_checked(t)
                try:
                    fvals = apply_scalar_function(f, vals)
                except SpectrumError as exc:
                    errors[g], ops[g] = exc, None
                    continue
                # f(T) e_1 = V f(Lambda) V^T e_1, then Q f(T) e_1 per column.
                core = vecs @ (fvals * vecs[:, 0, :])[:, :, None]
                y = (core.transpose(0, 2, 1) @ q[rows, :s])[:, 0]
                out[:, c0 : c0 + width][:, rows] = (znorm[rows, None] * y).T
        mvps += int(np.sum(steps))
        del q  # free this chunk's basis before the next chunk allocates one
    failed = [g for g, error in enumerate(errors) if error is not None]
    if failed:
        out[:, np.isin(owner, failed)] = np.nan
    return out, mvps, errors


def _sym_args(a: SymMatrix, z: np.ndarray, m: int):
    """(block matvec, d x k start block, 1e-12 * ||A||_max breakdown tol)."""
    if not 1 <= m <= a.dim:
        raise UsageError(f"need 1 <= m <= d, got m={m}, d={a.dim}")
    zb = np.asarray(z, dtype=np.float64).reshape(a.dim, -1)
    return (lambda v: a.entries @ v), zb, _BREAKDOWN_RTOL * max(1.0, a.max_norm())


def apply_scalar_function(f, values: np.ndarray) -> np.ndarray:
    """Apply a scalar function tag (or callable) to an eigenvalue array.

    Tags: "identity", "inv", "inv_sqrt", "exp".  The inverse tags require
    strictly positive input and raise SpectrumError naming the offending
    value otherwise.
    """
    if callable(f):
        return f(values)
    if f == "identity":
        return values.copy()
    if f == "exp":
        return np.exp(values)
    if f in ("inv", "inv_sqrt"):
        smallest = float(np.min(values))
        if smallest <= 0.0:
            raise SpectrumError(
                smallest, f"nonpositive Ritz/eigen value {smallest:g} for f={f}"
            )
        return 1.0 / values if f == "inv" else values ** -0.5
    raise UsageError(
        f"unknown function {f!r}: use inv, inv_sqrt, identity or exp")


def fa_times_vec_lanczos(a: SymMatrix, z: np.ndarray, m: int, f):
    """Approximate f(A) z by ||z|| Q f(T_m) e_1, for each column of z.

    z is a length-d vector or a d x k block; the result has z's shape.
    Returns (result, mvp_count) with mvp_count the realized Lanczos steps
    summed over the columns (one A-apply per column per step).
    """
    matvec, zb, tol = _sym_args(a, z, m)
    out, mvps, (error,) = _fa_block([matvec], np.zeros(zb.shape[1], dtype=np.intp),
                                    zb, m, f, tol)
    if error is not None:
        raise error
    return out.reshape(np.shape(z)), mvps


def fa_times_vec_oracle(matvecs, d: int, z: np.ndarray, m: int, f):
    """Same as fa_times_vec_lanczos but against opaque block matvecs, one
    per contiguous run of k / len(matvecs) columns of the d x k block z.

    Used by metered-oracle experiments where the matrices themselves are
    hidden: each matvec maps a d x k' block to d x k', and the breakdown
    tolerance falls back to an absolute 1e-12 scale.  Each step makes one
    block product per matvec, so a stack of trials, one matvec each, shares
    every step.  Returns (result, mvp_count, errors): errors[g] is None, or
    the SpectrumError that stopped matvec g's columns (see _fa_block), which
    then read NaN.
    """
    zb = np.asarray(z, dtype=np.float64).reshape(d, -1)
    width, rem = divmod(zb.shape[1], len(matvecs))
    if rem:
        raise ValueError(f"{zb.shape[1]} columns do not split over "
                         f"{len(matvecs)} matvecs")
    owner = np.repeat(np.arange(len(matvecs)), width)
    out, mvps, errors = _fa_block(matvecs, owner, zb, m, f, _BREAKDOWN_RTOL)
    return out.reshape(np.shape(z)), mvps, errors


def poly_times_block(a: SymMatrix, p: ChebPoly, zblock: np.ndarray):
    """Exact polynomial action p(A) Z on a d x k block by matrix Clenshaw.

    A single vector is a d x 1 block.  The caller asserts spec(A) is inside
    p's interval; violations are permitted but void any accuracy
    certificate.  Returns (block, mvp_count) with mvp_count = degree(p) per
    column, i.e. degree * k in total.
    """
    zblock = np.asarray(zblock, dtype=np.float64)
    lo, hi = p.interval
    c = p.coeffs
    n = p.degree()
    k = zblock.shape[1]
    if n == 0:
        return c[0] * zblock, 0

    def atil(v):
        # u(A) = (2A - (a+b) I) / (b-a), one A-apply per column per call
        return (2.0 * (a.entries @ v) - (lo + hi) * v) / (hi - lo)

    b1 = c[n] * zblock  # b_n; b_{n+1} = b_{n+2} = 0 so no apply needed
    b2 = np.zeros_like(zblock)
    for j in range(n - 1, 0, -1):
        b1, b2 = c[j] * zblock + 2.0 * atil(b1) - b2, b1
    return c[0] * zblock + atil(b1) - b2, n * k
