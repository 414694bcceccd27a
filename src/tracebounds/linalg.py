"""Dense symmetric linear algebra and random-matrix sampling.

Wishart convention used throughout: ``Wishart(d) = (1/d) G G^T`` with G a
d x d matrix of i.i.d. standard normals.  Under this normalization the bulk
edge of the spectrum sits near 4, the smallest eigenvalue lives at the
x/d^2 scale, and E tr(W) = d.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenConvergenceError,
    NotPositiveDefiniteError,
    RankDeficiencyError,
    UsageError,
)
from .rng import as_generator

_SYM_RTOL = 1e-12


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix with validated symmetry."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        scale = max(1.0, float(np.max(np.abs(m))))
        asym = float(np.max(np.abs(m - m.T)))
        if not asym <= _SYM_RTOL * scale:   # a NaN fails too
            raise ValueError(f"matrix not symmetric: max asymmetry {asym:g}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.entries)))


def symmetrize(m: np.ndarray) -> SymMatrix:
    """Force exact symmetry by averaging, then wrap.  Halving before adding
    keeps finite entries near the float maximum finite, and gives the bits
    of (M + M^T)/2 outside the subnormal range."""
    m = np.asarray(m, dtype=np.float64)
    return SymMatrix(m / 2.0 + m.T / 2.0)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (columns)."""

    eigvals: np.ndarray
    eigvecs: np.ndarray

    def apply_function(self, f, x: np.ndarray) -> np.ndarray:
        """f(A) x through the decomposition, for a length-d vector or a
        d x k block x: V (f(Lambda) (V^T x))."""
        g = f(self.eigvals)
        if np.ndim(x) == 2:
            g = g[:, None]
        return self.eigvecs @ (g * (self.eigvecs.T @ x))


def sym_eigen(a: SymMatrix) -> EigenDecomposition:
    """Full eigendecomposition, used as the exact oracle for f(A).

    Raises EigenConvergenceError if LAPACK fails or the reconstruction
    residual exceeds the 1e-8 * ||A||_max * d contract.
    """
    return EigenDecomposition(*eigh_checked(a.entries))


def _numpy_blas_symbols(templates, names, missing: str):
    """(template, functions): template.format(name) for each of names,
    under the first of templates whose every symbol numpy.linalg's
    extension module exports: on Linux, those of the OpenBLAS it calls, in
    numpy builds linked to OpenBLAS (the PyPI wheels).  Windows (whose
    lookup does not reach a module's dependencies), Accelerate and MKL
    builds yield none: RuntimeError with the reason `missing`."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for template in templates:
        try:
            return template, [getattr(lib, template.format(name)) for name in names]
        except AttributeError:
            continue
    raise RuntimeError(missing + "; tracebounds needs a numpy linked to OpenBLAS")


@functools.cache
def _blas_thread_control():
    """(get, set) of the thread count of the OpenBLAS behind numpy.linalg;
    without them every pin raises."""
    _, (get, put) = _numpy_blas_symbols(
        ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
         "openblas_{}_num_threads"), ("get", "set"),
        "numpy's BLAS exports no OpenBLAS thread control, so the eigensolve "
        "cannot run on one thread and its output would depend on the BLAS "
        "thread count")
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@functools.cache
def _dlasq1():
    """(dlasq1, int type): LAPACK's dlasq1(n, d, e, work, info) from the
    OpenBLAS behind numpy.linalg, and the integer type of its n and info,
    64-bit in the ILP64 builds whose symbols end in 64_."""
    template, (fn,) = _numpy_blas_symbols(
        ("scipy_{}_64_", "{}_64_", "{}_"), ("dlasq1",),
        "numpy's BLAS exports no LAPACK dlasq1, so the singular values of a "
        "bidiagonal cannot be computed")
    index = ctypes.c_int64 if template.endswith("64_") else ctypes.c_int
    ptr = ctypes.c_void_p
    fn.argtypes = [ctypes.POINTER(index), ptr, ptr, ptr, ctypes.POINTER(index)]
    fn.restype = None
    return fn, index


_BLAS_THREADS_LOCK = threading.RLock()
_PINNED_FROM = []  # the counts the pins in force restore, outermost first


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.
    The count is process-wide: the lock holds other Python threads' pins
    until it is restored, and a pin inside a pin on one thread nests."""
    get, put = _blas_thread_control()
    with _BLAS_THREADS_LOCK:
        _PINNED_FROM.append(get())
        put(1)
        try:
            yield
        finally:
            put(_PINNED_FROM.pop())


_PANEL_ROWS = 8  # the rows one GEMM of panel_product takes


def panel_product(rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """rows @ a for a ... x c x d stack of rows and a d x d matrix or a
    stack of them, by one GEMM per panel of _PANEL_ROWS rows, the last
    zero-padded.  Every GEMM has one shape, so a row's bits depend only on
    a and that row: a row alone would go through GEMV, and GEMMs of other
    widths round differently.  For a symmetric a, row v gives (a v)^T."""
    c, d = rows.shape[-2:]
    pad = -c % _PANEL_ROWS
    if pad:
        rows = np.concatenate((rows, np.zeros(rows.shape[:-2] + (pad, d))), axis=-2)
    out = rows.reshape(rows.shape[:-2] + (-1, _PANEL_ROWS, d)) @ a[..., None, :, :]
    return out.reshape(out.shape[:-3] + (-1, d))[..., :c, :]


def eigh_checked(m: np.ndarray):
    """(eigvals, eigvecs) of an exactly symmetric d x d array or a stack of
    them, each held to the sym_eigen residual contract.  LAPACK runs on one
    BLAS thread: from d ~ 224 on, its blocked reductions round differently
    on more threads."""
    d = m.shape[-1]
    try:
        with _one_blas_thread():
            vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(np.inf, f"eigensolver did not converge: {exc}")
    residual = m @ vecs
    residual -= vecs * vals[..., None, :]
    residual = np.max(np.abs(residual, out=residual), axis=(-2, -1))
    tol = 1e-8 * np.maximum(1e-12, np.max(np.abs(m), axis=(-2, -1))) * d
    bad = ~(residual <= tol)     # a NaN residual fails too
    if np.any(bad):
        raise EigenConvergenceError(float(np.max(residual[bad])))
    return vals, vecs


def eigvalsh_checked(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an exactly symmetric d x d array or a stack
    of them, without eigenvectors, each held to a moment contract:
    |sum(lam) - tr M| <= 1e-8 s d and |sum(lam^2) - ||M||_F^2| <= 1e-8 s^2 d
    with s = ||M||_max, the scale of the sym_eigen residual contract; a NaN
    fails.  Both are checked in units of s, so no square overflows.  LAPACK
    runs on one BLAS thread, as in eigh_checked."""
    d = m.shape[-1]
    try:
        with _one_blas_thread():
            vals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(np.inf, f"eigensolver did not converge: {exc}")
    scale = np.maximum(np.finfo(np.float64).tiny, np.max(np.abs(m), axis=(-2, -1)))
    unit = m / scale[..., None, None]
    lam = vals / scale[..., None]
    error = np.maximum(
        np.abs(np.sum(lam, axis=-1) - np.trace(unit, axis1=-2, axis2=-1)),
        np.abs(np.sum(lam * lam, axis=-1)
               - np.einsum("...ij,...ij->...", unit, unit)))
    bad = ~(error <= 1e-8 * d)     # a NaN fails too
    if np.any(bad):
        worst = float(np.max(error[bad]))
        raise EigenConvergenceError(
            worst, f"eigenvalue moments off by {worst:g} ||M||_max, past {1e-8 * d:g}")
    return vals


def sample_gaussian_matrix(rows: int, cols: int, rng) -> np.ndarray:
    """rows x cols matrix of i.i.d. N(0,1) entries."""
    if rows < 1 or cols < 1:
        raise UsageError("rows and cols must be >= 1")
    return as_generator(rng).standard_normal((rows, cols))


def sample_wishart_stack(d: int, rng, ids, *prefix: int) -> np.ndarray:
    """Wishart(d) draws for the trials ids at once: the k x d x d stack W
    with W[t] = G[t] G[t]^T / d and G[t] drawn from the RngState stream
    rng.child(*prefix, ids[t]), through rng.draws."""
    draw = functools.partial(sample_gaussian_matrix, d, d)
    return _gram_stack(np.stack(rng.draws(ids, draw, *prefix)))


def _gram_stack(g: np.ndarray) -> np.ndarray:
    """G G^T / d for a k x d x d stack G.

    G G^T comes out exactly symmetric (BLAS forms one triangle and mirrors
    it), so no matrix is averaged or scanned; one comparison per stack
    checks that this holds.
    """
    w = g @ g.swapaxes(1, 2)
    w /= g.shape[-1]
    if not np.array_equal(w, w.swapaxes(1, 2)):
        raise ArithmeticError("G G^T is not exactly symmetric")
    return w


def sample_wishart(d: int, rng) -> SymMatrix:
    """Draw W = (1/d) G G^T with G a d x d standard Gaussian matrix."""
    return SymMatrix(_gram_stack(sample_gaussian_matrix(d, d, rng)[None])[0])


def bidiagonal_counts(a: np.ndarray, b: np.ndarray, shifts) -> np.ndarray:
    """Number of eigenvalues of B B^T below each shift, for a stack of
    lower bidiagonals B: k x len(shifts) counts for the k x d diagonals a
    and k x (d-1) subdiagonals b.

    B B^T - tau I = L D L^T by the stationary qd transform in the
    differential form dstqds (Parlett & Dhillon, Linear Algebra Appl.
    2000), run on q = a^2 and e = b^2; by Sylvester's law of inertia the
    count is the number of negative pivots D_i.  The transform is mixed
    relatively stable, so counts keep the high relative accuracy of the
    bidiagonal (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 1990) also at
    shifts near 1e-300 whose pivots are subnormal.  As in LAPACK's dstebz,
    a pivot with |D_i| < pivmin is set to -pivmin, here with the smallest
    pivmin there is, so that only an exact zero is moved: a zero pivot
    counts as negative (an eigenvalue equal to the shift is counted).  The
    ratios s_i / D_i are clamped to +-huge, so the one after a zero pivot
    stays finite and a zero e_i still restarts the recurrence at -tau; an
    inf/inf ratio, after e_i times a clamped ratio overflowed, is taken as
    1, its limit, as in dlaneg.  The loop over the d pivots is the only
    Python loop.
    """
    q = a * a
    e = b * b
    tau = np.asarray(shifts, dtype=np.float64)
    k, d = q.shape
    pivmin = np.finfo(np.float64).smallest_subnormal
    huge = np.finfo(np.float64).max
    s = np.broadcast_to(-tau, (k, tau.size))
    count = np.zeros((k, tau.size), dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(d):
            t = q[:, i, None] + s
            t[t == 0.0] = -pivmin
            count += t < 0
            if i + 1 < d:
                r = s / t
                r[np.isnan(r)] = 1.0
                np.clip(r, -huge, huge, out=r)
                s = e[:, i, None] * r - tau
    return count


def bidiagonal_singular_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Descending singular values of a stack of bidiagonals: k x d for the
    k x d diagonals a and k x (d-1) off-diagonals b.

    One call per bidiagonal to LAPACK's dlasq1, the dqds algorithm of
    Fernando & Parlett (Numer. Math. 1994), which computes them to high
    relative accuracy (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 1990).
    It is where LAPACK's dense SVD (gesdd) ends on a bidiagonal input,
    whose reduction reflectors are identities, so the values are those of
    np.linalg.svd of the dense bidiagonal, bit for bit.  The calls run in
    min(k, OpenBLAS threads outside any pin) contiguous ranges, the first on
    the caller, one thread on each other (ctypes releases the GIL); a call
    touches only its row, so the split changes no value.  Raises
    EigenConvergenceError for the lowest bidiagonal whose INFO != 0, also
    at INFO = 2, a stalled dqds that gesdd's dbdsqr would finish by QR.
    """
    k, d = a.shape
    # dlasq1 overwrites d with the singular values and e, of length d, with
    # scratch; both are C-contiguous k x d copies made here.  Each range
    # gets its own work and info, made here too, so no worker allocates.
    sigma = np.array(a, dtype=np.float64, order="C")
    e = np.zeros((k, d))
    e[:, :d - 1] = b
    fn, index = _dlasq1()
    outer = _PINNED_FROM[:1] or [_blas_thread_control()[0]()]
    width = max(1, min(k, outer[0]))
    work, infos = np.empty((width, 4 * d)), [index(0) for _ in range(width)]
    n, row, failed, raised, started = index(d), 8 * d, [], [], []
    ps, pe, pw = sigma.ctypes.data, e.ctypes.data, work.ctypes.data

    def solve(j):
        try:
            for i in range(k * j // width, k * (j + 1) // width):
                fn(n, ps + i * row, pe + i * row, pw + j * 4 * row, infos[j])
                if infos[j].value:
                    failed.append((i, infos[j].value))
                    return
        except BaseException as exc:     # re-raised after the join
            raised.append(exc)

    try:
        for j in range(1, width):
            thread = threading.Thread(target=solve, args=(j,))
            thread.start()
            started.append(thread)
        solve(0)
    finally:     # workers write through raw pointers into sigma, e and work
        for thread in started:
            thread.join()
    if raised:
        raise raised[0]
    if failed:
        i, code = min(failed)
        raise EigenConvergenceError(
            np.inf, f"bidiagonal qd (dlasq1) did not converge on "
            f"bidiagonal {i}: INFO = {code}")
    return sigma


def sample_spd_with_spectrum(d: int, kappa: float, rng) -> SymMatrix:
    """Random SPD matrix with eigenvalues spread over [1, kappa].

    Endpoints are pinned so the declared interval is tight.
    """
    if d < 2:
        raise UsageError("need d >= 2 to pin both spectrum endpoints")
    if not 1 <= kappa < math.inf:
        raise UsageError("need finite kappa >= 1")
    g = as_generator(rng)
    q, _ = np.linalg.qr(g.standard_normal((d, d)))
    lam = np.exp(g.uniform(0.0, np.log(kappa), size=d))
    lam[0], lam[-1] = 1.0, float(kappa)
    return symmetrize((q * lam) @ q.T)


def spectrum_within(a: SymMatrix, lo: float, hi: float, tau: float) -> bool:
    """Whether spec(A) lies inside [lo - tau, hi + tau]: whether LAPACK's
    Cholesky factors both A - (lo - tau) I and (hi + tau) I - A.

    An eigenvalue on an endpoint passes for any tau above the factorization's
    rounding, where cholesky's pivot gate would reject it.  From d ~ 224 on
    that rounding depends on the BLAS thread count; the CLI pins it to one.
    """
    shift = np.eye(a.dim)
    try:
        np.linalg.cholesky(a.entries - (lo - tau) * shift)
        np.linalg.cholesky((hi + tau) * shift - a.entries)
    except np.linalg.LinAlgError:
        return False
    return True


def cholesky(s) -> np.ndarray:
    """Lower-triangular L with L L^T = S and positive diagonal, for a
    SymMatrix or an exactly symmetric n x n array or stack of them.

    Raises NotPositiveDefiniteError (1-based pivot index j, pivot L_jj^2)
    at the first j with L_jj^2 <= 1e-12 * max(1, ||S||_max) or NaN, where
    the max skips NaN; in a stack, for the first matrix that fails.
    """
    a = s.entries if isinstance(s, SymMatrix) else np.asarray(s, dtype=np.float64)
    stack = a.reshape(-1, *a.shape[-2:])
    tol = 1e-12 * np.fmax(1.0, np.max(np.abs(stack), axis=(1, 2)))
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        # LAPACK stops at the first pivot <= 0 but does not say where.
        for m, t in zip(stack, tol):
            _raise_small_pivot(_pivots(m)[None], t[None])
        raise
    pivots = np.diagonal(low, axis1=-2, axis2=-1) ** 2
    _raise_small_pivot(pivots.reshape(len(stack), -1), tol)
    return low


def _raise_small_pivot(pivots: np.ndarray, tol: np.ndarray):
    """NotPositiveDefiniteError for the first row i of the k x n pivots
    with an entry <= tol[i] or NaN, at its first such entry."""
    bad = ~(pivots > tol[:, None])    # a NaN fails too
    if np.any(bad):
        i = int(np.argmax(np.any(bad, axis=1)))
        j = int(np.argmax(bad[i]))
        raise NotPositiveDefiniteError(j + 1, float(pivots[i, j]))


def _pivots(m: np.ndarray) -> np.ndarray:
    """Cholesky pivots of the n x n m up to and including the first one
    LAPACK rejects, found by bisection over leading minors."""
    try:
        return np.diagonal(np.linalg.cholesky(m)) ** 2
    except np.linalg.LinAlgError:
        pass
    good, bad = 0, m.shape[0]  # leading minor `good` factors, `bad` does not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(m[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    if good == 0:
        return np.array([m[0, 0]])
    low = np.linalg.cholesky(m[:good, :good])
    col = np.linalg.solve(low, m[:good, good])
    return np.append(np.diagonal(low) ** 2, m[good, good] - col @ col)


def qr_columns(m: np.ndarray):
    """Thin QR with nonnegative R diagonal.

    Returns (Q, R) with Q d x n orthonormal columns, R n x n upper
    triangular.  Raises RankDeficiencyError (1-based column) when
    |R_kk| <= 1e-10 * max(1, ||M||_max) or R_kk is NaN.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    d, n = m.shape
    if n > d:
        raise ValueError(f"need n <= d, got {m.shape}")
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    r = r * signs[:, None]
    tol = 1e-10 * max(1.0, float(np.max(np.abs(m))))
    small = ~(np.abs(np.diag(r)) > tol)    # a NaN fails too
    if np.any(small):
        raise RankDeficiencyError(int(np.argmax(small)) + 1)
    return q, r


def orthonormal_complement(q: np.ndarray, d: int) -> np.ndarray:
    """d x (d-n) matrix whose columns complete the d x n q, n >= 1, to an
    orthonormal basis."""
    n = q.shape[1]
    # Project the identity out of span(q) and orthonormalize what survives.
    full, _ = np.linalg.qr(np.hstack([q, np.eye(d)]))
    return full[:, n:d]
