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
)
from .krylov import fa_times_vec_oracle
from .linalg import (
    SymMatrix,
    cholesky,
    orthonormal_complement,
    qr_columns,
    sample_wishart,
    sample_wishart_stack,
    sym_eigen,
    symmetrize,
)
from .rng import RngState, rademacher

#: Reference constant for the lambda_max tail test: the bulk edge of
#: (1/d) G G^T is 4 (Marchenko-Pastur), so tails are measured from 4(1+t).
LAMBDA_MAX_REFERENCE = 4.0

#: Bound on one stack of d x d trial matrices, 8 d^2 bytes each: the
#: experiments run their trials in order, max(1, _STACK_BYTES // (8 d^2))
#: at a time, on one thread.
_STACK_BYTES = 2 ** 16


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
        raise ValueError("need 0 <= n < d")
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
    samples = np.empty((5, trials))
    for start, stop in _trial_stacks(d, trials):
        w, _ = sample_wishart_stack(d, [rng.child(0, i) for i in range(start, stop)])
        _, y2 = _response_blocks(basis, w @ queries)
        compressed = comp_t @ w @ comp_t.T
        wt = compressed - y2 @ _t(y2)
        wt = scale * ((wt + _t(wt)) / 2.0)
        ref, _ = sample_wishart_stack(dn, [rng.child(1, i) for i in range(start, stop)])
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


def _binomial_rows(values: np.ndarray, thresholds, transform) -> list[CdfRow]:
    trials = len(values)
    rows = []
    for x in thresholds:
        count = int(np.sum(transform(values, x)))
        p = count / trials
        se = math.sqrt(max(p * (1 - p), 1.0 / trials) / trials)
        rows.append(CdfRow(float(x), count, p, se))
    return rows


def _trial_stacks(d: int, trials: int):
    """(start, stop) of consecutive stacks of trials, each stack of d x d
    matrices within _STACK_BYTES."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k = max(1, _STACK_BYTES // (8 * d * d))
    for start in range(0, trials, k):
        yield start, min(start + k, trials)


def _trial_spectra(d: int, trials: int, rng: RngState):
    """Ascending spectra of trial i's W ~ Wishart(d) from rng.child(i), as
    one (k, d) array per stack of trials, in trial order.

    eigvalsh can put lambda_min of a nearly singular draw below zero (a
    d=64 draw with cond(G) = 1.7e8 gave -4.3e-17 for sigma_min(G)^2/d =
    1.2e-16).  A trial with lambda_min < 1e-300 therefore takes its
    spectrum from the singular values of G, sigma^2/d, which keep their
    relative accuracy.
    """
    for start, stop in _trial_stacks(d, trials):
        w, g = sample_wishart_stack(d, [rng.child(i) for i in range(start, stop)])
        lam = np.linalg.eigvalsh(w)
        for j in np.flatnonzero(lam[:, 0] < 1e-300):
            lam[j] = np.linalg.svd(g[j], compute_uv=False)[::-1] ** 2 / d
        yield lam


def eig_cdf_experiment(d: int, trials: int, x_values, rng: RngState) -> list[CdfRow]:
    """Empirical Pr{lambda_min(W) <= x/d^2} with binomial standard errors."""
    xs = np.asarray(list(x_values), dtype=np.float64)
    if np.any(xs < 0) or np.any(xs > 1):
        raise ValueError("x values must lie in [0, 1]")
    lmins = np.concatenate([lam[:, 0] for lam in _trial_spectra(d, trials, rng)])
    return _binomial_rows(lmins, xs, lambda v, x: v <= x / (d * d))


def lambda_max_tail_experiment(
    d: int, trials: int, t_values, rng: RngState
) -> list[CdfRow]:
    """Empirical Pr{lambda_max(W) >= 4 (1+t)}; predicted tail 2 exp(-d t)."""
    ts = np.asarray(list(t_values), dtype=np.float64)
    lmaxs = np.concatenate([lam[:, -1] for lam in _trial_spectra(d, trials, rng)])
    return _binomial_rows(
        lmaxs, ts, lambda v, t: v >= LAMBDA_MAX_REFERENCE * (1.0 + t)
    )


@dataclass(frozen=True)
class InvTraceReport:
    d: int
    p: float
    trials: int
    dropped: int
    quantiles: dict          # {0.5: ..., 0.9: ..., 0.99: ...} of tr(W^-p)/d^{2p}
    per_index_q99: np.ndarray  # 0.99-quantile of (1/lambda_j) j^2/d^2, j=1..d
    samples: np.ndarray      # normalized trace samples, one per kept trial

    def to_dict(self, include_samples: bool = False) -> dict:
        out = {
            "d": self.d,
            "p": self.p,
            "trials": self.trials,
            "dropped": self.dropped,
            "quantiles": {str(k): v for k, v in self.quantiles.items()},
            "per_index_q99": self.per_index_q99.tolist(),
        }
        if include_samples:
            out["samples"] = self.samples.tolist()
        return out


def inv_trace_tail_experiment(
    d: int, trials: int, p: float, rng: RngState
) -> InvTraceReport:
    """Quantiles of tr(W^{-p}) / d^{2p} plus per-eigenvalue diagnostics.

    The per-index table records the 0.99-quantile of (1/lambda_j) j^2/d^2
    for each ascending eigenvalue index j, exhibiting the j^{-2} profile
    behind the d^{2p} trace scale.  Draws singular to working precision
    (sigma_min(G)^2/d < 1e-300, see _trial_spectra) are dropped and
    counted, never silently skipped; ConditioningError is raised when no
    trial is left.
    """
    if p <= 0.5:
        raise ValueError("need p > 1/2")
    if d < 2:
        raise ValueError("need d >= 2")
    samples = []
    inv_scaled = []
    j2 = (np.arange(1, d + 1) ** 2) / (d * d)
    for lam in _trial_spectra(d, trials, rng):
        lam = lam[lam[:, 0] >= 1e-300]
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
    return InvTraceReport(d, float(p), trials, dropped, quantiles, per_index, samples)


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

    def run(self, oracle: MeteredOracle, p: float, g: np.random.Generator) -> float:
        w = symmetrize(oracle.matvec(np.eye(oracle.dim)))
        lam = sym_eigen(w).eigvals
        if lam[0] <= 0:
            raise SpectrumError(float(lam[0]))
        return float(np.sum(lam ** (-p)))

    def describe(self) -> str:
        return "exact_recovery"


@dataclass(frozen=True)
class ConstantGuess:
    """Ignore the oracle and always answer the same constant."""

    value: float

    def run(self, oracle: MeteredOracle, p: float, g: np.random.Generator) -> float:
        return self.value

    def describe(self) -> str:
        return f"constant_guess({self.value:g})"


@dataclass(frozen=True)
class HutchinsonKrylov:
    """Hutchinson with Lanczos f(W) z applications; costs n_probes * m."""

    n_probes: int
    m: int

    def run(self, oracle: MeteredOracle, p: float, g: np.random.Generator) -> float:
        d = oracle.dim

        def f(vals):
            smallest = float(np.min(vals))
            if smallest <= 0:
                raise SpectrumError(smallest)
            return vals ** (-p)

        # One draw, probe s in column s: the same vectors as n_probes
        # consecutive rademacher(g, d) draws.
        z = rademacher(g, self.n_probes * d).reshape(self.n_probes, d).T
        y, _ = fa_times_vec_oracle(oracle.matvec, d, z, self.m, f)
        return float(np.mean(np.einsum("ij,ij->j", z, y)))

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

    def to_dict(self, include_records: bool = True) -> dict:
        out = {
            "d": self.d,
            "p": self.p,
            "approx_factor": self.approx_factor,
            "budget": self.budget,
            "trials": self.trials,
            "algorithm": self.algorithm,
            "success_count": self.success_count,
            "success_rate": self.success_rate,
            "budget_violations": self.budget_violations,
        }
        if include_records:
            out["records"] = [r.to_dict() for r in self.records]
        return out


def query_game(
    d: int, p: float, approx_factor: float, algorithm, budget: int,
    trials: int, rng: RngState,
) -> GameResult:
    """Run the metered trace-estimation game.

    Per trial: draw W ~ Wishart(d), let the algorithm query v -> W v at
    most ``budget`` times, and score success iff the estimate lands in
    [tr(W^{-p})/C, C tr(W^{-p})] with C = approx_factor.  The true trace
    comes from a full eigendecomposition that the algorithm never sees.
    """
    if p <= 0.5:
        raise ValueError("need p > 1/2")
    if approx_factor <= 1.0:
        raise ValueError("need approximation factor C > 1")
    if isinstance(algorithm, ExactRecovery) and budget < d:
        raise ValueError("exact_recovery requires budget >= d")
    if isinstance(algorithm, HutchinsonKrylov) and algorithm.n_probes * algorithm.m > budget:
        raise ValueError("hutchinson_krylov needs n_probes * m <= budget")
    records = []
    successes = 0
    violations = 0
    for i in range(trials):
        w = sample_wishart(d, rng.child(0, i))
        lam = sym_eigen(w).eigvals
        true_tr = float(np.sum(np.maximum(lam, 1e-300) ** (-p)))
        oracle = MeteredOracle(w, budget)
        error = None
        violation = False
        estimate = math.nan
        try:
            estimate = algorithm.run(oracle, p, rng.child(1, i))
        except BudgetExceededError:
            violation = True
            violations += 1
        except SpectrumError as exc:
            error = str(exc)
        success = (
            not violation
            and error is None
            and true_tr / approx_factor <= estimate <= approx_factor * true_tr
        )
        if success:
            successes += 1
        records.append(
            TrialRecord(i, estimate, true_tr, oracle.count, success, violation, error)
        )
    return GameResult(
        d, float(p), float(approx_factor), budget, trials,
        algorithm.describe(), successes, violations, records,
    )
