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
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import (
    BudgetExceededError,
    ConditioningError,
    NotPositiveDefiniteError,
    SpectrumError,
    UsageError,
)
from .hutchinson import quadratic_forms
from .krylov import fa_times_vec_oracle
from .linalg import (
    SymMatrix,
    bidiagonal_counts,
    bidiagonal_singular_values,
    cholesky,
    eigvalsh_checked,
    orthonormal_complement,
    panel_product,
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

#: Bound on one stack of trials, as many as fit (at least one), run in
#: order: 8 d^2 bytes a dense d x d trial, 8 (2d - 1) a bidiagonal one.  At
#: 256 KiB a d = 64 run of up to 258 bidiagonal trials is one stack, and a
#: dense stack holds 32 trials at d = 32 and 8 at d = 64.
_STACK_BYTES = 2 ** 18


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
        out[:n, :n] = self.y1 @ self.y1.T
        out[:n, n:] = self.y1 @ self.y2.T
        out[n:, :n] = self.y2 @ self.y1.T
        out[n:, n:] = self.y2 @ self.y2.T + self.wtilde.entries
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
class KsTest:
    """A two-sample KS test: the statistic h/trials and its p-value."""

    statistic: float
    p_value: float


@dataclass(frozen=True)
class PosteriorTestReport:
    d: int
    n: int
    trials: int
    ks_trace: KsTest
    ks_lambda_min: KsTest
    ks_trace_uncorrected: KsTest  # negative control


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
        KsTest(*_ks_2samp(tr_post, tr_ref)),
        KsTest(*_ks_2samp(lmin_post, lmin_ref)),
        KsTest(*_ks_2samp(tr_uncorrected, tr_ref)),
    )


def _posterior_samples(d: int, n: int, trials: int, rng: RngState):
    """Per-trial samples of posterior_distribution_test, in trial order:
    tr and lambda_min (d-n)^2 of (d/(d-n)) W~, the uncorrected trace, and
    tr and lambda_min (d-n)^2 of the fresh Wishart(d-n) reference.

    Trial i draws W from rng.child(0, i) and the reference from
    rng.child(1, i), bit for bit, through rng.draws.  The query basis is
    built once; each stack of trials then runs every step,
    posterior_decompose's included, as one call.
    """
    dn = d - n
    scale = d / dn
    queries = np.eye(d)[:, :n]
    basis = _query_basis(queries, d)
    comp_t = basis[2][n:]
    stacks = _trial_stacks(trials, 8 * d * d)
    samples = np.empty((5, trials))
    for start, stop in stacks:
        w = sample_wishart_stack(d, rng, range(start, stop), 0)
        _, y2 = _response_blocks(basis, w @ queries)
        compressed = comp_t @ w @ comp_t.T
        wt = compressed - y2 @ _t(y2)
        wt = scale * ((wt + _t(wt)) / 2.0)
        ref = sample_wishart_stack(dn, rng, range(start, stop), 1)
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


@dataclass(frozen=True)
class TailRow(CdfRow):
    """A lambda_max tail row at t = x, with the predicted tail 2 exp(-d t)."""

    bound: float


def _binomial_rows(counts, trials: int, thresholds) -> list[CdfRow]:
    """One row per threshold from the number of trials that hit it."""
    rows = []
    for x, count in zip(thresholds, map(int, counts)):
        p = count / trials
        se = math.sqrt(max(p * (1 - p), 1.0 / trials) / trials)
        rows.append(CdfRow(float(x), count, p, se))
    return rows


def _trial_stacks(trials: int, trial_bytes: int):
    """(start, stop) of consecutive stacks of trials, each within
    _STACK_BYTES, read on each call, at trial_bytes per trial.  trials is
    checked on the call, not on the first step."""
    if trials < 1:
        raise UsageError("trials must be >= 1")
    k = max(1, _STACK_BYTES // trial_bytes)
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
    2d - 1 variates from rng.child(i) (through rng.draws) in one chisquare
    call, in the order of _bidiagonal_dofs.
    """
    if d < 1:
        raise UsageError("need d >= 1")
    dofs = _bidiagonal_dofs(d)
    for start, stop in _trial_stacks(trials, 8 * (2 * d - 1)):
        chi = np.sqrt(np.stack(rng.draws(range(start, stop),
                                         lambda g: g.chisquare(dofs))))
        yield chi[:, :d], chi[:, d:]


def _bidiagonal_spectra(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending spectra of B B^T / d for a stack of lower bidiagonals,
    k x d: sigma^2 / d from the singular values of the upper bidiagonal
    B^T, computed to high relative accuracy by bidiagonal_singular_values."""
    d = a.shape[1]
    return bidiagonal_singular_values(a, b)[:, ::-1] ** 2 / d


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
) -> list[TailRow]:
    """Empirical Pr{lambda_max(W) >= 4 (1+t)}; predicted tail 2 exp(-d t)."""
    ts = np.asarray(list(t_values), dtype=np.float64)
    if not np.all(np.isfinite(ts) & (ts >= 0)):
        raise UsageError("t values must be finite and >= 0")
    counts = _hit_counts(d, trials, LAMBDA_MAX_REFERENCE * (1.0 + ts), 1,
                         lambda c: c < d, rng)
    return [TailRow(*astuple(r), 2.0 * math.exp(-d * r.x))
            for r in _binomial_rows(counts, trials, ts)]


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
        """The JSON report: every field but the per-trial samples and
        sample_trials, which only the CSV rows carry."""
        doc = {k: v for k, v in vars(self).items()
               if k not in ("samples", "sample_trials")}
        return dict(doc, per_index_q99=self.per_index_q99.tolist())


def inv_trace_tail_experiment(
    d: int, trials: int, p: float, rng: RngState
) -> InvTraceReport:
    """Quantiles of tr(W^{-p}) / d^{2p} plus per-eigenvalue diagnostics.

    The per-index table records the 0.99-quantile of (1/lambda_j) j^2/d^2
    for each ascending eigenvalue index j, exhibiting the j^{-2} profile
    behind the d^{2p} trace scale.  Draws singular to working precision
    (lambda_min < 1e-300, see _bidiagonal_spectra) are dropped and
    counted, never silently skipped; ConditioningError is raised when no
    trial is left or a normalized sample is not finite.
    """
    if not 0.5 < p < math.inf:
        raise UsageError("need finite p > 1/2")
    if d < 2:
        raise UsageError("need d >= 2")
    lam = np.concatenate([_bidiagonal_spectra(a, b)
                          for a, b in _trial_bidiagonals(d, trials, rng)])
    kept = np.flatnonzero(lam[:, 0] >= 1e-300)
    lam = lam[kept]
    with np.errstate(over="ignore"):
        samples = np.sum(lam ** (-p), axis=1)
    dropped = trials - len(samples)
    if not len(samples):
        raise ConditioningError(
            f"no usable trial at d={d}: {dropped} of trials={trials} draws "
            "were numerically singular"
        )
    try:
        samples = samples / d ** (2 * p)
    except OverflowError:
        raise ConditioningError(f"d^(2p) overflows at d={d}, p={p:g}") from None
    if not np.isfinite(samples).all():
        raise ConditioningError(f"tr(W^-p) overflows at d={d}, p={p:g}")
    quantiles = {q: float(np.quantile(samples, q)) for q in (0.5, 0.9, 0.99)}
    j2 = (np.arange(1, d + 1) ** 2) / (d * d)
    per_index = np.quantile(j2 / lam, 0.99, axis=0)
    return InvTraceReport(d, float(p), trials, dropped, quantiles, per_index,
                          samples, kept)


# ---------------------------------------------------------------------------
# Query game


class MeteredOracle:
    """The only window an algorithm has onto a k x d x d stack of W's, one
    per trial: counted products v -> W v, with count[t] trial t's queries."""

    def __init__(self, w: np.ndarray, budget: int):
        self._entries = w
        self.budget = budget
        self.count = np.zeros(len(w), dtype=int)

    @property
    def dim(self) -> int:
        return self._entries.shape[-1]

    def matvec(self, v: np.ndarray, live=None) -> np.ndarray:
        """W v for a k x d x c stack v, or one d x c block for every trial.

        Trial t is charged the columns marked in the k x c mask live[t], or
        all c when live is None or marks every column (then no masked copy
        is made); a column that is not live is zeroed before the product
        (linalg.panel_product).  A call that would take any trial past the
        budget is refused whole, before the product."""
        partial = live is not None and not live.all()
        charge = np.count_nonzero(live, axis=1) if partial else np.shape(v)[-1]
        if np.any(self.count + charge > self.budget):
            raise BudgetExceededError(self.budget)
        self.count += charge
        if partial:
            v = np.where(live[:, None, :], v, 0.0)
        return panel_product(np.swapaxes(v, -1, -2), self._entries).swapaxes(-1, -2)


@dataclass(frozen=True)
class ExactRecovery:
    """Query e_1..e_d, rebuild W, answer exactly."""

    def queries(self, d: int) -> int:
        return d

    def run_stack(self, oracle, p: float, draws) -> list:
        w = oracle.matvec(np.eye(oracle.dim))
        lam = eigvalsh_checked((w + _t(w)) / 2.0)
        return [SpectrumError(float(v[0])) if v[0] <= 0 else float(np.sum(v ** (-p)))
                for v in lam]

    def describe(self) -> str:
        return "exact_recovery"


@dataclass(frozen=True)
class ConstantGuess:
    """Ignore the oracle and always answer the same constant."""

    value: float

    def queries(self, d: int) -> int:
        return 0

    def run_stack(self, oracle, p: float, draws) -> list:
        return [self.value] * len(oracle.count)

    def describe(self) -> str:
        return f"constant_guess({self.value:g})"


@dataclass(frozen=True)
class HutchinsonKrylov:
    """Hutchinson with Lanczos f(W) z applications."""

    n_probes: int
    m: int

    def __post_init__(self):
        if self.n_probes < 1 or self.m < 1:
            raise UsageError("need n_probes >= 1 and m >= 1")

    def queries(self, d: int) -> int:
        return self.n_probes * self.m

    def run_stack(self, oracle, p: float, draws) -> list:
        """One Lanczos run over every trial's probes: trial t's n_probes
        columns, one rademacher draw of its stream with probe s in column s,
        are block t of the oracle's stack at each step."""
        d = oracle.dim
        nv = self.n_probes

        def f(vals):
            smallest = float(np.min(vals))
            if smallest <= 0:
                raise SpectrumError(smallest)
            return vals ** (-p)

        z = np.stack(draws(lambda g: rademacher(g, nv * d).reshape(nv, d).T))
        # At p = 1 the "inv" tag reads T^-1 e_1 from T's pivots, with no
        # eigensolve; its rejections name the same smallest Ritz value.
        y, _, errors = fa_times_vec_oracle(oracle.matvec, d, z, self.m,
                                           "inv" if p == 1 else f)
        estimates = quadratic_forms(z, y).mean(axis=-1).tolist()
        return [e if error is None else SpectrumError(error.value)
                for e, error in zip(estimates, errors)]

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


@dataclass(frozen=True)
class GameResult:
    d: int
    p: float
    approx_factor: float
    budget: int
    trials: int
    algorithm: str
    success_count: int
    success_rate: float = field(init=False)
    budget_violations: int
    records: list = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "success_rate", self.success_count / self.trials)


def query_game(
    d: int, p: float, approx_factor: float, algorithm, budget: int,
    trials: int, rng: RngState,
) -> GameResult:
    """Run the metered trace-estimation game.

    Per trial: draw W ~ Wishart(d), let the algorithm query v -> W v at
    most ``budget`` times, and score success iff the estimate lands in
    [tr(W^{-p})/C, C tr(W^{-p})] with C = approx_factor.  The true trace
    comes from a values-only eigensolve of W, held to eigvalsh_checked's
    moment contract, that the algorithm never sees.

    Trials run in stacks of as many W as fit in _STACK_BYTES.  Trial i
    draws W from rng.child(0, i) and gives rng.child(1, i) to the
    algorithm, both bit for bit through rng.draws.  The algorithm's
    run_stack(oracle, p, draws) answers a whole stack: one MeteredOracle
    over the stack and draws in, where draws(law) is the list of law(g)
    over the trials' streams g in stack order, and per trial an estimate,
    or the SpectrumError that ended that trial, out.  An
    algorithm states the most queries it makes as queries(d); one past the
    budget is a UsageError, an overflowing true trace a ConditioningError.
    """
    if d < 1 or trials < 1:
        raise UsageError("need d >= 1 and trials >= 1")
    if not 0.5 < p < math.inf:
        raise UsageError("need finite p > 1/2")
    if not 1.0 < approx_factor < math.inf:
        raise UsageError("need finite approximation factor C > 1")
    if budget < 0:
        raise UsageError("need budget >= 0")
    need = algorithm.queries(d)
    if need > budget:
        raise UsageError(f"{algorithm.describe()} needs budget >= {need}, got {budget}")
    records = []
    for start, stop in _trial_stacks(trials, 8 * d * d):
        ids = range(start, stop)
        w = sample_wishart_stack(d, rng, ids, 0)
        lam = eigvalsh_checked(w)
        with np.errstate(over="ignore"):
            true = np.sum(np.maximum(lam, 1e-300) ** (-p), axis=-1)
        overflow = np.flatnonzero(~np.isfinite(true))
        if len(overflow):
            raise ConditioningError(f"trial {start + overflow[0]}: true trace "
                                    f"tr(W^-p) overflows at p={p:g}")
        oracle = MeteredOracle(w, budget)
        outcomes = algorithm.run_stack(oracle, p, lambda law: rng.draws(ids, law, 1))
        for i, true_tr, used, outcome in zip(ids, true.tolist(), oracle.count.tolist(),
                                             outcomes):
            error = str(outcome) if isinstance(outcome, SpectrumError) else None
            estimate = math.nan if error is not None else outcome
            success = true_tr / approx_factor <= estimate <= approx_factor * true_tr
            records.append(TrialRecord(i, estimate, true_tr, used, success, error=error))
    return GameResult(
        d, float(p), float(approx_factor), budget, trials, algorithm.describe(),
        sum(r.success for r in records), budget_violations=0, records=records,
    )
