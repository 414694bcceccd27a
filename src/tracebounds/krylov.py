"""Krylov subspace actions f(A) Z and explicit polynomial actions p(A) Z.

Every entry point acts on a d x k block of start vectors (one Lanczos loop,
one Clenshaw sweep); a single vector is the k = 1 case.  m Lanczos steps
span the same polynomial space as an explicit degree-(m-1) polynomial
applied to the start vector, so both paths report their cost in the common
currency of matrix-vector products (MVPs).  f(A) Z by Lanczos runs in column
chunks whose basis stays under _CHUNK_BYTES, whatever the probe count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chebyshev import ChebPoly
from .errors import SpectrumError
from .linalg import SymMatrix, eigh_checked, sym_eigen, symmetrize

_BREAKDOWN_RTOL = 1e-12

#: Bound on the Lanczos basis of one column chunk: 8 m d bytes per column.
_CHUNK_BYTES = 2 ** 20


@dataclass(frozen=True)
class LanczosFactorization:
    """Orthonormal basis and tridiagonal projection from Lanczos.

    basis is d x m with orthonormal columns (full reorthogonalization),
    alpha/beta are the diagonal and off-diagonal of T_m, and
    next_residual_norm is ||r|| in A Q = Q T_m + r e_m^T.  truncated marks
    early termination at an invariant subspace.
    """

    basis: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    next_residual_norm: float
    truncated: bool = False

    @property
    def steps(self) -> int:
        return len(self.alpha)

    def tridiagonal(self) -> np.ndarray:
        t = np.diag(self.alpha)
        if len(self.beta):
            t += np.diag(self.beta, 1) + np.diag(self.beta, -1)
        return t


def _lanczos_block(matvec, z: np.ndarray, m: int, breakdown_tol: float):
    """k independent Lanczos recurrences, one per column of the d x k block z.

    Each step makes one block product matvec(Q_j) over the columns still
    running.  A column whose residual falls to breakdown_tol stops there
    (truncated) and is charged only its realized steps.  Returns
    (q, alpha, beta, steps, resid_norm, znorm) with q[c, i] basis vector i
    of column c and steps[c] < m marking truncation (resid_norm[c] = 0).
    """
    d, k = z.shape
    znorm = np.linalg.norm(z, axis=0)
    if np.any(znorm == 0.0):
        raise ValueError("Lanczos start vector must be nonzero")
    q = np.zeros((k, m, d))
    q[:, 0] = (z / znorm).T
    alpha = np.zeros((k, m))
    beta = np.zeros((k, max(m - 1, 0)))
    steps = np.full(k, m)
    resid_norm = np.zeros(k)
    live = np.arange(k)
    for j in range(m):
        cols = slice(None) if len(live) == k else live
        qj = q[cols, j]
        w = matvec(qj.T).T
        alpha[cols, j] = aj = np.einsum("ij,ij->i", qj, w)
        w = w - aj[:, None] * qj
        if j > 0:
            w = w - beta[cols, j - 1, None] * q[cols, j - 1]
        # Full reorthogonalization, twice, to hold the 1e-8 basis invariant.
        basis = q[cols, : j + 1]
        for _ in range(2):
            w = w - (np.matmul(basis, w[:, :, None]).transpose(0, 2, 1) @ basis)[:, 0]
        wnorm = np.linalg.norm(w, axis=1)
        if j + 1 == m:
            resid_norm[cols] = wnorm
            break
        stop = wnorm <= breakdown_tol
        steps[live[stop]] = j + 1
        go = ~stop
        live = live[go]
        if not len(live):
            break
        beta[live, j] = wnorm[go]
        q[live, j + 1] = w[go] / wnorm[go, None]
    return q, alpha, beta, steps, resid_norm, znorm


def _fa_block(matvec, z: np.ndarray, m: int, f, breakdown_tol: float):
    """(||z|| Q f(T) e_1 for every column z of the d x k block, total steps).

    The projections T of all columns with equal step counts are eigensolved
    as one stack under the sym_eigen residual contract.
    """
    d, k = z.shape
    out = np.empty((d, k))
    mvps = 0
    width = max(1, _CHUNK_BYTES // (8 * m * d))
    for c0 in range(0, k, width):
        chunk = z[:, c0 : c0 + width]
        q, alpha, beta, steps, _, znorm = _lanczos_block(matvec, chunk, m, breakdown_tol)
        for s in np.unique(steps):
            group = steps == s
            # A single group (no breakdown) is indexed by views, not copies.
            cols = slice(None) if group.all() else np.flatnonzero(group)
            diag = np.arange(s)
            t = np.zeros((np.count_nonzero(group), s, s))
            t[:, diag, diag] = alpha[cols, :s]
            t[:, diag[1:], diag[:-1]] = t[:, diag[:-1], diag[1:]] = beta[cols, : s - 1]
            vals, vecs = eigh_checked(t)
            # f(T) e_1 = V f(Lambda) V^T e_1, then Q f(T) e_1 per column.
            core = vecs @ (apply_scalar_function(f, vals) * vecs[:, 0, :])[:, :, None]
            y = (core.transpose(0, 2, 1) @ q[cols, :s])[:, 0]
            out[:, c0 : c0 + width][:, cols] = (znorm[cols, None] * y).T
        mvps += int(np.sum(steps))
        del q  # free this chunk's basis before the next chunk allocates one
    return out, mvps


def _sym_args(a: SymMatrix, z: np.ndarray, m: int):
    """(block matvec, d x k start block, 1e-12 * ||A||_max breakdown tol)."""
    if not 1 <= m <= a.dim:
        raise ValueError(f"need 1 <= m <= d, got m={m}, d={a.dim}")
    zb = np.asarray(z, dtype=np.float64).reshape(a.dim, -1)
    return (lambda v: a.entries @ v), zb, _BREAKDOWN_RTOL * max(1.0, a.max_norm())


def lanczos(a: SymMatrix, z: np.ndarray, m: int):
    """m-step Lanczos factorization of A started at z.

    z is a length-d vector (one LanczosFactorization back) or a d x k block
    (a list with one factorization per column).  Residual below
    1e-12 * ||A||_max ends a column's iteration early; callers see the
    realized step count via the factorization's shape.
    """
    matvec, zb, tol = _sym_args(a, z, m)
    q, alpha, beta, steps, resid, _ = _lanczos_block(matvec, zb, m, tol)
    facts = [
        LanczosFactorization(q[c, :s].T, alpha[c, :s], beta[c, : s - 1],
                             float(resid[c]), bool(s < m))
        for c, s in enumerate(steps)
    ]
    return facts[0] if np.ndim(z) == 1 else facts


def apply_scalar_function(f, values: np.ndarray) -> np.ndarray:
    """Apply a scalar function tag (or callable) to an eigenvalue array.

    Tags: "identity", "inv", "inv_sqrt", "exp", ("monomial", s).  The
    inverse tags require strictly positive input and raise SpectrumError
    naming the offending value otherwise.
    """
    if callable(f):
        return f(values)
    if isinstance(f, tuple) and f[0] == "monomial":
        return values ** int(f[1])
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
    raise ValueError(f"unknown scalar function tag {f!r}")


def fa_times_vec_lanczos(a: SymMatrix, z: np.ndarray, m: int, f):
    """Approximate f(A) z by ||z|| Q f(T_m) e_1, for each column of z.

    z is a length-d vector or a d x k block; the result has z's shape.
    Returns (result, mvp_count) with mvp_count the realized Lanczos steps
    summed over the columns (one A-apply per column per step).
    """
    matvec, zb, tol = _sym_args(a, z, m)
    out, mvps = _fa_block(matvec, zb, m, f, tol)
    return out.reshape(np.shape(z)), mvps


def fa_times_vec_oracle(matvec, d: int, z: np.ndarray, m: int, f):
    """Same as fa_times_vec_lanczos but against an opaque block matvec.

    Used by metered-oracle experiments where the matrix itself is hidden:
    matvec maps a d x k' block to d x k', and the breakdown tolerance falls
    back to an absolute 1e-12 scale.
    """
    zb = np.asarray(z, dtype=np.float64).reshape(d, -1)
    out, mvps = _fa_block(matvec, zb, m, f, _BREAKDOWN_RTOL)
    return out.reshape(np.shape(z)), mvps


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


@dataclass(frozen=True)
class BlockKrylovBasis:
    """Orthonormal basis of span{V, AV, ..., A^{m-1} V} with deflation log."""

    basis: np.ndarray
    block_size: int
    steps: int
    deflations: list = field(default_factory=list)

    def apply_function(self, a: SymMatrix, v: np.ndarray, f) -> np.ndarray:
        """Projection approximation Q f(Q^T A Q) Q^T V."""
        q = self.basis
        core = symmetrize(q.T @ a.entries @ q)
        eig = sym_eigen(core)
        rhs = q.T @ np.asarray(v, dtype=np.float64)
        return q @ (eig.eigvecs @ (
            apply_scalar_function(f, eig.eigvals)[:, None] * (eig.eigvecs.T @ rhs)
        ))


def _orthogonalize_block(basis_cols, w: np.ndarray, tol: float):
    """Orthogonalize w's columns against basis_cols and each other.

    Returns (kept columns, number dropped).
    """
    kept = []
    dropped = 0
    for i in range(w.shape[1]):
        v = w[:, i].copy()
        for _ in range(2):
            if basis_cols:
                q = np.column_stack(basis_cols + kept)
            elif kept:
                q = np.column_stack(kept)
            else:
                q = None
            if q is not None:
                v = v - q @ (q.T @ v)
        norm = float(np.linalg.norm(v))
        if norm <= tol:
            dropped += 1
            continue
        kept.append(v / norm)
    return kept, dropped


def block_krylov_basis(a: SymMatrix, v: np.ndarray, m: int) -> BlockKrylovBasis:
    """Orthonormal basis of the order-m block Krylov space of (A, V).

    Rank-deficient directions are deflated and logged as (step, count)
    pairs rather than treated as errors.
    """
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    if v.ndim != 2 or v.shape[0] != a.dim:
        raise ValueError("V must be a d x b matrix")
    b = v.shape[1]
    if not 1 <= m * b <= a.dim:
        raise ValueError(f"need 1 <= m*b <= d, got m={m}, b={b}, d={a.dim}")
    if np.linalg.norm(v) == 0.0:
        raise ValueError("V must be nonzero")
    tol = 1e-10 * max(1.0, float(np.max(np.abs(v))), a.max_norm())

    cols: list[np.ndarray] = []
    deflations: list[tuple[int, int]] = []
    block, dropped = _orthogonalize_block([], v, tol)
    if dropped:
        deflations.append((0, dropped))
    cols.extend(block)
    for step in range(1, m):
        if not block:
            break
        w = a.entries @ np.column_stack(block)
        block, dropped = _orthogonalize_block(cols, w, tol)
        if dropped:
            deflations.append((step, dropped))
        cols.extend(block)
    return BlockKrylovBasis(np.column_stack(cols), b, m, deflations)
