"""Empirical laboratory for Wishart query-complexity experiments.

Covers the posterior block decomposition of a Wishart matrix after
matrix-vector queries, eigenvalue-law experiments (lambda_min CDF at the
x/d^2 scale, lambda_max exponential tail), inverse-power trace scaling,
and the metered query game for tr(W^{-p}) estimation.

Normalization note: this library uses Wishart(d) = (1/d) G G^T.  Under
that convention the posterior block W~ after n queries equals (1/d) H H^T
with H of size (d-n), i.e. Wishart(d-n) scaled by (d-n)/d.  The
distributional test therefore rescales W~ by d/(d-n) before comparing
against fresh Wishart(d-n) draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceededError,
    ConditioningError,
    NotPositiveDefiniteError,
    SpectrumError,
    UsageError,
)
from .krylov import fa_times_vec_oracle
from .linalg import (
    SymMatrix,
    bidiagonal_counts,
    cholesky,
    eigh_checked,
    orthonormal_complement,
    qr_columns,
    sample_wishart_stack,
    symmetrize,
)
# bench/tracing.py wraps wishart.sample_wishart and wishart.sym_eigen by
# name; keep them importable here.
from .linalg import sample_wishart, sym_eigen  # noqa: F401
from .rng import RngState, rademacher

#: Reference constant for the lambda_max tail test: the bulk edge of
#: (1/d) G G^T is 4 (Marchenko-Pastur), so tails are measured from 4(1+t).
LAMBDA_MAX_REFERENCE = 4.0

#: Bound on one stack of trials: the experiments run their trials in
#: order, as many at a time as fit in _STACK_BYTES (at least one), on one
#: thread.  A trial takes 8 d^2 bytes as a dense d x d matrix and
#: 8 (2d - 1) bytes as a bidiagonal.
_STACK_BYTES = 2 ** 16

#: Bound on one stack of query-game trials, which share each Lanczos step:
#: a trial counts its largest array, the d x d W or the Lanczos basis of
#: 8 n_probes m d bytes (128 KiB at d = 64, n_probes = 8, m = 32).
_GAME_STACK_BYTES = 2 ** 19


@dataclass(frozen=True)
class QueryTranscript:
    """Query vectors v_1..v_n and responses w_i = W v_i, with n < d."""

    dim: int
    queries: np.ndarray   # d x n
    responses: np.ndarray  # d x n

    def __post_init__(self):
        q = np.asarray(self.queries, dtype=np.float64).reshape(self.dim, -1)
        w = np.asarray(self.responses, dtype=np.float64).reshape(self.dim, -1)
        if q.shape != w.shape:
            raise ValueError("queries and responses must have matching shapes")
        n = q.shape[1]
        if n >= self.dim:
            raise ValueError(f"need n < d, got n={n}, d={self.dim}")
        if n > 0:
            qr_columns(q)  # raises RankDeficiencyError on dependent queries
        object.__setattr__(self, "queries", q)
        object.__setattr__(self, "responses", w)

    @property
    def n_queries(self) -> int:
        return self.queries.shape[1]


def make_transcript(w: SymMatrix, queries: np.ndarray) -> QueryTranscript:
    """Build a transcript by querying W directly."""
    q = np.asarray(queries, dtype=np.float64).reshape(w.dim, -1)
    return QueryTranscript(w.dim, q, w.entries @ q)


@dataclass(frozen=True)
class PosteriorDecomposition:
    """Orthogonal V and blocks (Y1, Y2, W~) with
    V W V^T = [[Y1 Y1^T, Y1 Y2^T], [Y2 Y1^T, Y2 Y2^T + W~]].
    """

    v: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    wtilde: SymMatrix

    def block_matrix(self) -> np.ndarray:
        n = self.y1.shape[0]
        d = self.v.shape[0]
        out = np.zeros((d, d))
        if n:
            out[:n, :n] = self.y1 @ self.y1.T
            out[:n, n:] = self.y1 @ self.y2.T
            out[n:, :n] = self.y2 @ self.y1.T
        out[n:, n:] = self.y2 @ self.y2.T + self.wtilde.entries if n else self.wtilde.entries
        return out

    def block_residual(self, w: SymMatrix) -> float:
        """max-norm residual of the block identity against V W V^T."""
        return float(np.max(np.abs(self.v @ w.entries @ self.v.T - self.block_matrix())))


def revealed_blocks(t: QueryTranscript):
    """(V, Y1, Y2) computed from the transcript alone, never touching W.

    V stacks the orthonormalized queries over an orthonormal complement;
    Y1 is the Cholesky factor of the revealed quadratic block and Y2 the
    cross block.  Raises ConditioningError if the revealed block is not
    numerically positive definite.
    """
    basis = _query_basis(t.queries, t.dim)
    y1, y2 = _response_blocks(basis, t.responses)
    return basis[2], y1, y2


def _query_basis(queries: np.ndarray, d: int):
    """(Q, R, V) from the d x n queries alone: the thin QR M = Q R, and V
    stacking Q^T over an orthonormal complement."""
    if queries.shape[1] == 0:
        return np.zeros((d, 0)), np.zeros((0, 0)), np.eye(d)
    qc, r = qr_columns(queries)
    comp = orthonormal_complement(qc, d)
    return qc, r, np.vstack([qc.T, comp.T])


def _response_blocks(basis, responses: np.ndarray):
    """(Y1, Y2) from the d x n responses W M, or from a stack of them,
    given the query basis (Q, R, V).  A stack raises ConditioningError for
    its first response whose revealed block is not positive definite."""
    qc, r, v = basis
    n = r.shape[0]
    if n == 0:
        head = responses.shape[:-2]
        return np.zeros(head + (0, 0)), np.zeros(head + (v.shape[0], 0))
    # [w_1..w_n] R^{-1}
    rinv_w = _t(np.linalg.solve(r.T, _t(responses)))
    s = qc.T @ rinv_w
    try:
        y1 = cholesky((s + _t(s)) / 2.0)
    except NotPositiveDefiniteError as exc:
        raise ConditioningError(
            f"revealed block not positive definite: {exc}"
        ) from exc
    # (comp^T [w] R^{-1}) Y1^{-T}
    y2 = _t(np.linalg.solve(y1, _t(v[n:] @ rinv_w)))
    return y1, y2


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(m, -1, -2)


def posterior_decompose(w: SymMatrix, t: QueryTranscript) -> PosteriorDecomposition:
    """Full decomposition: transcript-only (V, Y1, Y2) plus W~ from W."""
    v, y1, y2 = revealed_blocks(t)
    n = t.n_queries
    comp_t = v[n:, :]
    wtilde = symmetrize(comp_t @ w.entries @ comp_t.T - y2 @ y2.T)
    return PosteriorDecomposition(v, y1, y2, wtilde)


# ---------------------------------------------------------------------------
# Distribution experiments


@dataclass(frozen=True)
class PosteriorTestReport:
    d: int
    n: int
    trials: int
    ks_trace: tuple[float, float]        # (statistic, p-value)
    ks_lambda_min: tuple[float, float]
    ks_trace_uncorrected: tuple[float, float]  # negative control

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "trials": self.trials,
            "ks_trace": {"statistic": self.ks_trace[0], "p_value": self.ks_trace[1]},
            "ks_lambda_min": {
                "statistic": self.ks_lambda_min[0],
                "p_value": self.ks_lambda_min[1],
            },
            "ks_trace_uncorrected": {
                "statistic": self.ks_trace_uncorrected[0],
                "p_value": self.ks_trace_uncorrected[1],
            },
        }


def posterior_distribution_test(
    d: int, n: int, trials: int, rng: RngState
) -> PosteriorTestReport:
    """Two-sample KS comparison of the posterior block against Wishart(d-n).

    Queries are the fixed canonical directions e_1..e_n.  Samples of
    (d/(d-n)) W~ (see module normalization note) are compared against fresh
    Wishart(d-n) draws on tr and on lambda_min * (d-n)^2.  A negative
    control omits the Y2 Y2^T correction, which shifts the trace and must
    be rejected by the same test.  Each comparison reports the statistic
    h/trials and its exact two-sided p-value (see ``_ks_2samp``) at every
    trial count.
    """
    if not 0 <= n < d:
        raise UsageError("need 0 <= n < d")
    tr_post, lmin_post, tr_uncorrected, tr_ref, lmin_ref = _posterior_samples(
        d, n, trials, rng)
    return PosteriorTestReport(
        d, n, trials,
        _ks_2samp(tr_post, tr_ref),
        _ks_2samp(lmin_post, lmin_ref),
        _ks_2samp(tr_uncorrected, tr_ref),
    )


def _posterior_samples(d: int, n: int, trials: int, rng: RngState):
    """Per-trial samples of posterior_distribution_test, in trial order:
    tr and lambda_min (d-n)^2 of (d/(d-n)) W~, the uncorrected trace, and
    tr and lambda_min (d-n)^2 of the fresh Wishart(d-n) reference.

    Trial i draws W from rng.child(0, i) and the reference from
    rng.child(1, i).  The query basis is built once; each stack of trials
    then runs every step, posterior_decompose's included, as one call.
    """
    dn = d - n
    scale = d / dn
    queries = np.eye(d)[:, :n]
    basis = _query_basis(queries, d)
    comp_t = basis[2][n:]
    stacks = _trial_stacks(trials, 8 * d * d)
    samples = np.empty((5, trials))
    for start, stop in stacks:
        w = sample_wishart_stack(d, [rng.child(0, i) for i in range(start, stop)])
        _, y2 = _response_blocks(basis, w @ queries)
        compressed = comp_t @ w @ comp_t.T
        wt = compressed - y2 @ _t(y2)
        wt = scale * ((wt + _t(wt)) / 2.0)
        ref = sample_wishart_stack(dn, [rng.child(1, i) for i in range(start, stop)])
        samples[:, start:stop] = (
            np.trace(wt, axis1=1, axis2=2),
            np.linalg.eigvalsh(wt)[:, 0] * dn * dn,
            scale * np.trace(compressed, axis1=1, axis2=2),
            np.trace(ref, axis1=1, axis2=2),
            np.linalg.eigvalsh(ref)[:, 0] * dn * dn,
        )
    return samples


def _ks_2samp(x, y) -> tuple[float, float]:
    """Two-sided two-sample KS test for equal-size samples: (D, p-value).

    D = h/n with h the largest gap between the two samples' counts at or
    below a pooled point.  The p-value is the exact P(D_{n,n} >= h/n) of
    Hodges (1958), 2 * sum_{k>=0} (-1)^k C(2n, n-(k+1)h) / C(2n, n),
    summed without cancellation in the Horner form
    P = A_0 (1 - A_1 (1 - A_2 (...))), where
    A_k = C(2n, n-(k+1)h) / C(2n, n-kh) is a product of h factors.  The
    loop is O(n) scalar steps at every n; keep its multiplication order,
    which the tests pin bit for bit against a reference implementation.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    n = x.size
    if y.size != n:
        raise ValueError(f"need equal sample sizes, got {n} and {y.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("KS samples must be finite")
    pooled = np.concatenate([x, y])
    gaps = np.searchsorted(x, pooled, side="right") - np.searchsorted(
        y, pooled, side="right")
    h = int(np.max(np.abs(gaps)))
    if h == 0:
        return 0.0, 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        a = 1.0
        for j in range(h):
            a = (n - k * h - j) * a / (n + k * h + j + 1)
        p = a * (1.0 - p)
    return h / n, min(max(2 * p, 0.0), 1.0)


@dataclass(frozen=True)
class CdfRow:
    x: float
    count: int
    probability: float
    stderr: float


def _binomial_rows(counts, trials: int, thresholds) -> list[CdfRow]:
    """One row per threshold from the number of trials that hit it."""
    rows = []
    for x, count in zip(thresholds, map(int, counts)):
        p = count / trials
        se = math.sqrt(max(p * (1 - p), 1.0 / trials) / trials)
        rows.append(CdfRow(float(x), count, p, se))
    return rows


def _trial_stacks(trials: int, trial_bytes: int, stack_bytes: int = _STACK_BYTES):
    """(start, stop) of consecutive stacks of trials, each stack within
    stack_bytes at trial_bytes per trial.  trials is checked on the call,
    not on the first step."""
    if trials < 1:
        raise UsageError("trials must be >= 1")
    k = max(1, stack_bytes // trial_bytes)
    return ((start, min(start + k, trials)) for start in range(0, trials, k))


def _bidiagonal_dofs(d: int) -> np.ndarray:
    """Degrees of freedom of one trial's 2d - 1 chi-square variates, in
    draw order: d, d-1, ..., 1 for the diagonal of B, then d-1, ..., 1 for
    its subdiagonal."""
    return np.r_[np.arange(d, 0, -1), np.arange(d - 1, 0, -1)].astype(np.float64)


def _trial_bidiagonals(d: int, trials: int, rng: RngState):
    """Lower bidiagonals B whose B B^T / d has the spectrum law of
    Wishart(d), as (a, b) stacks in trial order: diagonals k x d and
    subdiagonals k x (d-1), each stack within _STACK_BYTES.

    a_i ~ chi_(d+1-i) and b_i ~ chi_(d-i), all independent (Dumitriu &
    Edelman, J. Math. Phys. 2002: B = U G V with U, V orthogonal, so
    G G^T and B B^T share their spectrum in law).  Trial i draws its
    2d - 1 variates from rng.child(i) in one chisquare call, in the order
    of _bidiagonal_dofs.
    """
    if d < 1:
        raise UsageError("need d >= 1")
    dofs = _bidiagonal_dofs(d)
    for start, stop in _trial_stacks(trials, 8 * (2 * d - 1)):
        chi = np.sqrt(np.stack([rng.child(i).chisquare(dofs)
                                for i in range(start, stop)]))
        yield chi[:, :d], chi[:, d:]


def _bidiagonal_spectra(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending spectra of B B^T / d for a stack of lower bidiagonals,
    k x d: sigma^2 / d from the singular values of the upper bidiagonal
    B^T, which LAPACK's bidiagonal reduction leaves as it is and whose
    singular values it computes to high relative accuracy.  The dense
    k x d x d input is built in sub-stacks within _STACK_BYTES."""
    k, d = a.shape
    lam = np.empty((k, d))
    i = np.arange(d)
    for start, stop in _trial_stacks(k, 8 * d * d):
        upper = np.zeros((stop - start, d, d))
        upper[:, i, i] = a[start:stop]
        upper[:, i[:-1], i[1:]] = b[start:stop]
        sigma = np.linalg.svd(upper, compute_uv=False)
        lam[start:stop] = sigma[:, ::-1] ** 2 / d
    return lam


def _hit_counts(d: int, trials: int, values, per, hit, rng: RngState) -> np.ndarray:
    """Per shift x = values / per, the number of trials whose count of
    eigenvalues of W below x satisfies hit(count).  W = B B^T / d, so W's
    count below x is B B^T's below x d.  The shifts are formed once the
    first stack has passed _trial_bidiagonals' check of d."""
    return sum(np.sum(hit(bidiagonal_counts(a, b, values / per * d)), axis=0)
               for a, b in _trial_bidiagonals(d, trials, rng))


def eig_cdf_experiment(d: int, trials: int, x_values, rng: RngState) -> list[CdfRow]:
    """Empirical Pr{lambda_min(W) <= x/d^2} with binomial standard errors."""
    xs = np.asarray(list(x_values), dtype=np.float64)
    if not np.all((xs >= 0) & (xs <= 1)):
        raise UsageError("x values must lie in [0, 1]")
    counts = _hit_counts(d, trials, xs, d * d, lambda c: c >= 1, rng)
    return _binomial_rows(counts, trials, xs)


def lambda_max_tail_experiment(
    d: int, trials: int, t_values, rng: RngState
) -> list[CdfRow]:
    """Empirical Pr{lambda_max(W) >= 4 (1+t)}; predicted tail 2 exp(-d t)."""
    ts = np.asarray(list(t_values), dtype=np.float64)
    if not np.all(np.isfinite(ts) & (ts >= 0)):
        raise UsageError("t values must be finite and >= 0")
    counts = _hit_counts(d, trials, LAMBDA_MAX_REFERENCE * (1.0 + ts), 1,
                         lambda c: c < d, rng)
    return _binomial_rows(counts, trials, ts)


@dataclass(frozen=True)
class InvTraceReport:
    d: int
    p: float
    trials: int
    dropped: int
    quantiles: dict          # {0.5: ..., 0.9: ..., 0.99: ...} of tr(W^-p)/d^{2p}
    per_index_q99: np.ndarray  # 0.99-quantile of (1/lambda_j) j^2/d^2, j=1..d
    samples: np.ndarray      # normalized trace samples, one per kept trial
    sample_trials: np.ndarray  # trial index of each sample

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "p": self.p,
            "trials": self.trials,
            "dropped": self.dropped,
            "quantiles": {str(k): v for k, v in self.quantiles.items()},
            "per_index_q99": self.per_index_q99.tolist(),
        }


def inv_trace_tail_experiment(
    d: int, trials: int, p: float, rng: RngState
) -> InvTraceReport:
    """Quantiles of tr(W^{-p}) / d^{2p} plus per-eigenvalue diagnostics.

    The per-index table records the 0.99-quantile of (1/lambda_j) j^2/d^2
    for each ascending eigenvalue index j, exhibiting the j^{-2} profile
    behind the d^{2p} trace scale.  Draws singular to working precision
    (lambda_min < 1e-300, see _bidiagonal_spectra) are dropped and
    counted, never silently skipped; ConditioningError is raised when no
    trial is left.
    """
    if not 0.5 < p < math.inf:
        raise UsageError("need finite p > 1/2")
    if d < 2:
        raise UsageError("need d >= 2")
    samples = []
    kept = []
    inv_scaled = []
    j2 = (np.arange(1, d + 1) ** 2) / (d * d)
    start = 0
    for a, b in _trial_bidiagonals(d, trials, rng):
        lam = _bidiagonal_spectra(a, b)
        keep = np.flatnonzero(lam[:, 0] >= 1e-300)
        kept.append(start + keep)
        start += len(lam)
        lam = lam[keep]
        samples.append(np.sum(lam ** (-p), axis=1) / d ** (2 * p))
        inv_scaled.append(j2 / lam)
    samples = np.concatenate(samples)
    dropped = trials - len(samples)
    if not len(samples):
        raise ConditioningError(
            f"no usable trial at d={d}: {dropped} of trials={trials} draws "
            "were numerically singular"
        )
    inv_scaled = np.concatenate(inv_scaled)
    quantiles = {
        q: float(np.quantile(samples, q)) for q in (0.5, 0.9, 0.99)
    }
    per_index = np.quantile(inv_scaled, 0.99, axis=0)
    return InvTraceReport(d, float(p), trials, dropped, quantiles, per_index,
                          samples, np.concatenate(kept))


# ---------------------------------------------------------------------------
# Query game


class MeteredOracle:
    """The only window an algorithm has onto W: counted products v -> W v."""

    def __init__(self, w: SymMatrix, budget: int):
        self._entries = w.entries
        self.budget = budget
        self.count = 0

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """W v for a length-d v (one query) or a d x k block (k queries); a
        block that would pass the budget is refused whole, before the product."""
        k = 1 if np.ndim(v) == 1 else np.shape(v)[1]
        if self.count + k > self.budget:
            raise BudgetExceededError(self.budget)
        self.count += k
        return self._entries @ v


@dataclass(frozen=True)
class ExactRecovery:
    """Query e_1..e_d, rebuild W, answer exactly.  Needs budget >= d."""

    def run_stack(self, oracles, p: float, rngs) -> list:
        eye = np.eye(oracles[0].dim)
        w = np.stack([oracle.matvec(eye) for oracle in oracles])
        lam, _ = eigh_checked((w + _t(w)) / 2.0)
        return [SpectrumError(float(v[0])) if v[0] <= 0 else float(np.sum(v ** (-p)))
                for v in lam]

    def describe(self) -> str:
        return "exact_recovery"


@dataclass(frozen=True)
class ConstantGuess:
    """Ignore the oracle and always answer the same constant."""

    value: float

    def run_stack(self, oracles, p: float, rngs) -> list:
        return [self.value] * len(oracles)

    def describe(self) -> str:
        return f"constant_guess({self.value:g})"


@dataclass(frozen=True)
class HutchinsonKrylov:
    """Hutchinson with Lanczos f(W) z applications; costs n_probes * m."""

    n_probes: int
    m: int

    def __post_init__(self):
        if self.n_probes < 1 or self.m < 1:
            raise UsageError("need n_probes >= 1 and m >= 1")

    def run_stack(self, oracles, p: float, rngs) -> list:
        """One Lanczos run over every trial's probes: trial t's n_probes
        columns go to oracles[t] at each step."""
        d = oracles[0].dim
        nv = self.n_probes

        def f(vals):
            smallest = float(np.min(vals))
            if smallest <= 0:
                raise SpectrumError(smallest)
            return vals ** (-p)

        # Trial t owns columns t nv .. (t+1) nv - 1, from one draw of its
        # stream with probe s in column s: the same vectors as n_probes
        # consecutive rademacher(g, d) draws.
        z = np.concatenate([rademacher(g, nv * d).reshape(nv, d) for g in rngs]).T
        y, _, errors = fa_times_vec_oracle(
            [oracle.matvec for oracle in oracles], d, z, self.m, f)
        out = []
        for t, error in enumerate(errors):
            # z's and a copy of y's columns lie as in a run of trial t alone,
            # so the sums over them round the same way.
            cols = slice(t * nv, (t + 1) * nv)
            qforms = np.einsum("ij,ij->j", z[:, cols], y[:, cols].copy())
            out.append(float(np.mean(qforms)) if error is None else error)
        return out

    def describe(self) -> str:
        return f"hutchinson_krylov(N_v={self.n_probes}, m={self.m})"


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    estimate: float
    true_trace: float
    queries_used: int
    success: bool
    budget_violation: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "estimate": self.estimate,
            "true_trace": self.true_trace,
            "queries_used": self.queries_used,
            "success": self.success,
            "budget_violation": self.budget_violation,
            "error": self.error,
        }


@dataclass(frozen=True)
class GameResult:
    d: int
    p: float
    approx_factor: float
    budget: int
    trials: int
    algorithm: str
    success_count: int
    budget_violations: int
    records: list = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.success_count / self.trials

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "p": self.p,
            "approx_factor": self.approx_factor,
            "budget": self.budget,
            "trials": self.trials,
            "algorithm": self.algorithm,
            "success_count": self.success_count,
            "success_rate": self.success_rate,
            "budget_violations": self.budget_violations,
            "records": [r.to_dict() for r in self.records],
        }


def query_game(
    d: int, p: float, approx_factor: float, algorithm, budget: int,
    trials: int, rng: RngState,
) -> GameResult:
    """Run the metered trace-estimation game.

    Per trial: draw W ~ Wishart(d), let the algorithm query v -> W v at
    most ``budget`` times, and score success iff the estimate lands in
    [tr(W^{-p})/C, C tr(W^{-p})] with C = approx_factor.  The true trace
    comes from a full eigendecomposition that the algorithm never sees.

    Trials run in stacks within _GAME_STACK_BYTES.  Trial i draws W from
    rng.child(0, i) and gives rng.child(1, i) to the algorithm, whose
    run_stack(oracles, p, rngs) answers a whole stack: one MeteredOracle
    and one generator per trial in, and per trial an estimate, or the
    SpectrumError or BudgetExceededError that ended that trial, out.
    """
    if d < 1 or trials < 1:
        raise UsageError("need d >= 1 and trials >= 1")
    if not 0.5 < p < math.inf:
        raise UsageError("need finite p > 1/2")
    if not 1.0 < approx_factor < math.inf:
        raise UsageError("need finite approximation factor C > 1")
    if budget < 0:
        raise UsageError("need budget >= 0")
    if isinstance(algorithm, ExactRecovery) and budget < d:
        raise UsageError("exact_recovery requires budget >= d")
    width = d
    if isinstance(algorithm, HutchinsonKrylov):
        if algorithm.n_probes * algorithm.m > budget:
            raise UsageError("hutchinson_krylov needs n_probes * m <= budget")
        width = max(d, algorithm.n_probes * algorithm.m)
    records = []
    for start, stop in _trial_stacks(trials, 8 * d * width, _GAME_STACK_BYTES):
        ids = range(start, stop)
        w = sample_wishart_stack(d, [rng.child(0, i) for i in ids])
        lam, _ = eigh_checked(w)
        oracles = [MeteredOracle(SymMatrix(wi), budget) for wi in w]
        outcomes = algorithm.run_stack(oracles, p, [rng.child(1, i) for i in ids])
        for i, lam_i, oracle, outcome in zip(ids, lam, oracles, outcomes):
            true_tr = float(np.sum(np.maximum(lam_i, 1e-300) ** (-p)))
            violation = isinstance(outcome, BudgetExceededError)
            error = str(outcome) if isinstance(outcome, SpectrumError) else None
            estimate = math.nan if violation or error is not None else outcome
            success = true_tr / approx_factor <= estimate <= approx_factor * true_tr
            records.append(TrialRecord(i, estimate, true_tr, oracle.count, success,
                                       violation, error))
    return GameResult(
        d, float(p), float(approx_factor), budget, trials, algorithm.describe(),
        sum(r.success for r in records), sum(r.budget_violation for r in records),
        records,
    )
