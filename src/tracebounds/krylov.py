"""Krylov subspace actions f(A) Z and explicit polynomial actions p(A) Z.

Every entry point acts on a d x k block of start vectors; a single vector
is the k = 1 case.  There is one Lanczos loop, _lanczos_block, over a
g x d x c stack of blocks, one per operator, behind both
fa_times_vec_lanczos (one explicit matrix, g = 1) and fa_times_vec_oracle
(one opaque metered matvec over a stack, such as the game's trials), and one
Clenshaw sweep, poly_times_block.  m Lanczos steps span the same
polynomial space as an explicit degree-(m-1) polynomial applied to the
start vector, so both paths report their cost in the common currency of
matrix-vector products (MVPs).  f(A) Z by Lanczos runs in column chunks
whose basis stays under _CHUNK_BYTES, whatever the probe count.
"""

from __future__ import annotations

import numpy as np

from .chebyshev import ChebPoly
from .errors import SpectrumError, UsageError
from .linalg import _PANEL_ROWS, SymMatrix, eigh_checked, panel_product
# bench/tracing.py wraps krylov.sym_eigen by name; keep it importable here.
from .linalg import sym_eigen  # noqa: F401

_BREAKDOWN_RTOL = 1e-12

#: Bound on the Lanczos basis of one column chunk: 8 g m d bytes per column
#: of every one of the g operators, the columns rounded up to whole panels
#: (linalg._PANEL_ROWS), so only a run's last chunk pads its products.
_CHUNK_BYTES = 2 ** 20


def _lanczos_block(matvec, z: np.ndarray, m: int, breakdown_tol: float):
    """g x c independent Lanczos recurrences, one per column of the g x d x c
    stack z, whose block z[t] belongs to operator t.

    Each step makes one call matvec(V, live): V is the g x d x c stack of
    current basis vectors and the g x c mask live marks the columns still
    running; it returns the g x d x c stack of products, zero where not
    live, which the loop reads but never writes.  Step j keeps
    alpha_j = q_j . A q_j and projects A q_j, twice, off every basis vector
    so far ("twice is enough": Giraud, Langou & Rozloznik, Comput. Math.
    Appl. 50, 2005); that takes out alpha_j q_j and beta_(j-1) q_(j-1)
    too, so no three-term subtraction runs first.  beta_j is the norm of
    what is left.  While every column runs and none stops, beta and the
    next basis vector are stored whole; otherwise through the live mask.
    Every column starts live; one whose residual falls to breakdown_tol
    stops there (truncated) and is charged only its realized steps.
    Returns (q, alpha, beta, steps, znorm): q[t, c, i] is basis vector i of
    column c of operator t, alpha[t, c] and beta[t, c] hold the diagonal and
    off-diagonal of its tridiagonal T, steps[t, c] < m marks truncation, and
    znorm[t, c] is its start norm.  A stopped column keeps zero basis
    vectors, alpha and beta from then on.  The last step stops once
    alpha[..., m-1] is known: no caller reads its residual.
    """
    g, d, c = z.shape
    # Start norms sum contiguous rows: no layout or width changes their bits.
    rows = np.ascontiguousarray(z.transpose(0, 2, 1))
    znorm = np.linalg.norm(rows, axis=-1)
    live = np.ones((g, c), dtype=bool)
    q = np.zeros((g, c, m, d))
    q[:, :, 0] = rows / znorm[..., None]
    alpha = np.zeros((g, c, m))
    beta = np.zeros((g, c, max(m - 1, 0)))
    steps = np.full((g, c), m)
    for j in range(m):
        if not live.any():
            break
        qj = q[:, :, j]
        w = matvec(qj.transpose(0, 2, 1), live).transpose(0, 2, 1)
        alpha[:, :, j] = np.einsum("tcd,tcd->tc", qj, w)
        if j + 1 == m:
            break
        # Full reorthogonalization, twice, holds the 1e-8 basis invariant
        # and stands in for the three-term step.  The first pass writes a
        # new array, so the matvec's output is never written.
        basis = q[:, :, : j + 1]
        w = w - (np.matmul(basis, w[..., None]).swapaxes(-1, -2) @ basis)[..., 0, :]
        w -= (np.matmul(basis, w[..., None]).swapaxes(-1, -2) @ basis)[..., 0, :]
        wnorm = np.linalg.norm(w, axis=-1)
        stop = live & (wnorm <= breakdown_tol)
        if live.all() and not stop.any():
            beta[:, :, j] = wnorm
            np.divide(w, wnorm[..., None], out=q[:, :, j + 1])
            continue
        steps[stop] = j + 1
        live &= ~stop
        beta[:, :, j][live] = wnorm[live]
        q[:, :, j + 1][live] = w[live] / wnorm[live, None]
    return q, alpha, beta, steps, znorm


def _fa_block(matvec, z: np.ndarray, m: int, f, breakdown_tol: float):
    """(||z|| Q f(T) e_1 for every column z of the g x d x k stack, total
    steps, errors), with block z[t] run against operator t of matvec as in
    _lanczos_block.

    Each chunk holds the same columns of every operator.  Its projections
    T are cut to the chunk's longest run: a column that stopped after fewer
    steps s has its T padded past step s with alpha[s-1] * I, a value
    between its smallest and largest Ritz values, so f(T) e_1 is the s x s
    answer, f sees no value outside that range and the tolerance scale is
    unchanged.  For f = "inv", T^-1 e_1 is read from the backward pivots of
    T (see _inv_e1); an operator with a nonpositive pivot in the chunk is
    not positive definite and, like every operator for any other f, has
    its T's eigensolved as one stack under the sym_eigen residual contract
    and f applied to its Ritz values.  Chunks share no state: an operator
    whose values f rejects with SpectrumError keeps running, and being
    charged, in later chunks, as in its solo run.  errors[t] holds the
    first such error, and then all of operator t's columns read NaN; it is
    None for an operator f never rejected.
    """
    g, d, k = z.shape
    if np.any(np.linalg.norm(z, axis=1) == 0.0):
        raise ValueError("Lanczos start vector must be nonzero")
    out = np.empty((g, d, k))
    errors = [None] * g
    mvps = 0
    width = -(-max(1, _CHUNK_BYTES // (8 * g * m * d)) // _PANEL_ROWS) * _PANEL_ROWS
    for c0 in range(0, k, width):
        q, alpha, beta, steps, znorm = _lanczos_block(
            matvec, z[:, :, c0 : c0 + width], m, breakdown_tol)
        s = int(steps.max())
        last = np.take_along_axis(alpha, steps[..., None] - 1, -1)
        diag = np.where(np.arange(s) < steps[..., None], alpha[..., :s], last)
        off = beta[..., : s - 1]
        if f == "inv":
            core, eig = _inv_e1(diag, off)
        else:
            core, eig = np.empty(diag.shape + (1,)), np.ones(g, dtype=bool)
        if eig.any():
            core[eig], rejected = _eigen_e1(diag[eig], off[eig], f)
            for t, exc in zip(np.flatnonzero(eig), rejected):
                errors[t] = errors[t] or exc
        # Q f(T) e_1 per column.
        y = (core.swapaxes(-1, -2) @ q[:, :, :s])[..., 0, :]
        out[:, :, c0 : c0 + width] = (znorm[..., None] * y).swapaxes(1, 2)
        mvps += int(np.sum(steps))
        del q  # free this chunk's basis before the next chunk allocates one
    out[[e is not None for e in errors]] = np.nan
    return out, mvps, errors


def _inv_e1(diag: np.ndarray, off: np.ndarray):
    """(T^-1 e_1 as a ... x s x 1 stack, g-mask of operators to eigensolve)
    for the tridiagonals T of a g x c x s stack of diagonals and
    g x c x (s-1) off-diagonals.

    T = U D U^T with U unit upper bidiagonal: the backward pivots are
    delta_s = alpha_s, delta_j = alpha_j - beta_j^2 / delta_(j+1), and
    x_1 = 1 / delta_1, x_(j+1) = -beta_j x_j / delta_(j+1) gives
    x = T^-1 e_1 in O(s) (Golub & Meurant, Matrices, Moments and
    Quadrature, 2010, ch. 3).  By Sylvester's law of inertia T is positive
    definite iff every pivot is positive; an operator with a pivot that is
    not (NaN included) in any of its columns is flagged, and its rows of the
    result are left for the eigen route.
    """
    s = diag.shape[-1]
    delta = np.empty_like(diag)
    x = np.empty_like(diag)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta[..., s - 1] = diag[..., s - 1]
        for j in range(s - 2, -1, -1):
            delta[..., j] = diag[..., j] - off[..., j] ** 2 / delta[..., j + 1]
        x[..., 0] = 1.0 / delta[..., 0]
        for j in range(s - 1):
            x[..., j + 1] = -off[..., j] * x[..., j] / delta[..., j + 1]
    eig = ~np.all(delta > 0.0, axis=(-2, -1))
    return x[..., None], eig


def _eigen_e1(diag: np.ndarray, off: np.ndarray, f):
    """(f(T) e_1 as a ... x s x 1 stack, per-row errors), by one stacked
    eigensolve of the tridiagonals T given as in _inv_e1.  errors[i] is
    the SpectrumError f raised on row i's Ritz values, or None."""
    s = diag.shape[-1]
    idx = np.arange(s)
    t = np.zeros(diag.shape + (s,))
    t[..., idx, idx] = diag
    t[..., idx[1:], idx[:-1]] = t[..., idx[:-1], idx[1:]] = off
    vals, vecs = eigh_checked(t)
    fvals = np.zeros_like(vals)
    errors = [None] * len(vals)
    for i in range(len(vals)):
        try:
            fvals[i] = apply_scalar_function(f, vals[i])
        except SpectrumError as exc:
            errors[i] = exc
    # f(T) e_1 = V f(Lambda) V^T e_1.
    return vecs @ (fvals * vecs[..., 0, :])[..., None], errors


def _sym_args(a: SymMatrix, z: np.ndarray, m: int):
    """(stack matvec, 1 x d x k start stack, 1e-12 * ||A||_max breakdown tol)."""
    if not 1 <= m <= a.dim:
        raise UsageError(f"need 1 <= m <= d, got m={m}, d={a.dim}")
    zb = np.asarray(z, dtype=np.float64).reshape(1, a.dim, -1)
    tol = _BREAKDOWN_RTOL * max(1.0, a.max_norm())
    return (lambda v, live: panel_product(v.swapaxes(1, 2), a.entries).swapaxes(1, 2)), zb, tol


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
    out, mvps, (error,) = _fa_block(matvec, zb, m, f, tol)
    if error is not None:
        raise error
    return out.reshape(np.shape(z)), mvps


def fa_times_vec_oracle(matvec, d: int, z: np.ndarray, m: int, f):
    """Same as fa_times_vec_lanczos but against an opaque stack matvec, for
    the g x d x k stack z (g x d for one column each) whose block z[t]
    belongs to operator t; the result has z's shape.

    Used by metered-oracle experiments where the matrices themselves are
    hidden: matvec(V, live) is the one call per step of _lanczos_block,
    such as MeteredOracle.matvec over a stack of trials, and the breakdown
    tolerance falls back to an absolute 1e-12 scale.  Returns (result,
    mvp_count, errors): errors[t] is None, or the first SpectrumError f
    raised on operator t (see _fa_block), whose columns then read NaN.
    """
    zb = np.asarray(z, dtype=np.float64).reshape(len(z), d, -1)
    out, mvps, errors = _fa_block(matvec, zb, m, f, _BREAKDOWN_RTOL)
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
