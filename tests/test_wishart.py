import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from tracebounds.krylov import fa_times_vec_oracle

import tracebounds.krylov as krylov_module
import tracebounds.wishart as wishart_module
from tracebounds.errors import (
    BudgetExceededError,
    ConditioningError,
    RankDeficiencyError,
    SpectrumError,
    UsageError,
)
from conftest import make_trials_singular
from tracebounds.linalg import (
    SymMatrix,
    bidiagonal_counts,
    cholesky,
    orthonormal_complement,
    qr_columns,
    sample_spd_with_spectrum,
    sample_wishart,
    sample_wishart_stack,
    sym_eigen,
    symmetrize,
)
from tracebounds.rng import RngState, rademacher
from tracebounds.wishart import (
    ConstantGuess,
    ExactRecovery,
    HutchinsonKrylov,
    MeteredOracle,
    PosteriorTestReport,
    TrialRecord,
    eig_cdf_experiment,
    inv_trace_tail_experiment,
    lambda_max_tail_experiment,
    make_transcript,
    posterior_decompose,
    posterior_distribution_test,
    query_game,
    revealed_blocks,
)


class TestPosteriorDecomposition:
    def test_hand_diagonal_single_query(self):
        a, b = 3.0, 7.0
        w = SymMatrix(np.diag([a, b]))
        dec = posterior_decompose(w, make_transcript(w, np.eye(2)[:, :1]))
        np.testing.assert_allclose(dec.y1, [[np.sqrt(a)]])
        np.testing.assert_allclose(dec.y2, [[0.0]], atol=1e-14)
        np.testing.assert_allclose(dec.wtilde.entries, [[b]])

    def test_no_queries_is_identity(self):
        g = RngState(60).generator()
        w = sample_wishart(5, g)
        dec = posterior_decompose(w, make_transcript(w, np.zeros((5, 0))))
        np.testing.assert_allclose(dec.v, np.eye(5))
        np.testing.assert_allclose(dec.wtilde.entries, w.entries)

    def test_block_residual_random(self):
        g = RngState(61).generator()
        w = sample_wishart(10, g)
        queries = g.standard_normal((10, 3))
        dec = posterior_decompose(w, make_transcript(w, queries))
        assert dec.block_residual(w) <= 1e-10 * max(1.0, w.max_norm())

    def test_interlacing(self):
        # wtilde = M - Y2 Y2^T with M a principal-block compression of W,
        # so every eigenvalue of wtilde is at most the matching one of W.
        g = RngState(62).generator()
        w = sample_wishart(12, g)
        queries = g.standard_normal((12, 4))
        dec = posterior_decompose(w, make_transcript(w, queries))
        lam_w = np.linalg.eigvalsh(w.entries)
        lam_t = np.linalg.eigvalsh(dec.wtilde.entries)
        assert np.all(lam_t <= lam_w[4:] + 1e-10)
        assert lam_t[0] >= -1e-10

    def test_adversarial_eigenvector_queries(self):
        g = RngState(63).generator()
        w = sample_wishart(9, g)
        vecs = np.linalg.eigh(w.entries)[1]
        dec = posterior_decompose(w, make_transcript(w, vecs[:, :3]))
        assert dec.block_residual(w) <= 1e-10 * max(1.0, w.max_norm())

    def test_transcript_only_matches_w_aware(self):
        # revealed_blocks never touches W; rebuild Y1, Y2 with W in hand
        # and check the two constructions agree.
        g = RngState(64).generator()
        w = sample_wishart(8, g)
        queries = g.standard_normal((8, 3))
        t = make_transcript(w, queries)
        v, y1, y2 = revealed_blocks(t)
        q, _ = qr_columns(queries)
        comp = orthonormal_complement(q, 8)
        y1_ref = cholesky(SymMatrix((q.T @ w.entries @ q + (q.T @ w.entries @ q).T) / 2))
        y2_ref = np.linalg.solve(y1_ref, (comp.T @ w.entries @ q).T).T
        np.testing.assert_allclose(y1, y1_ref, atol=1e-10)
        np.testing.assert_allclose(y2, y2_ref, atol=1e-10)

    def test_dependent_queries_rejected(self):
        g = RngState(65).generator()
        w = sample_wishart(6, g)
        q = g.standard_normal((6, 2))
        queries = np.column_stack([q, q[:, 0] + q[:, 1]])
        with pytest.raises(RankDeficiencyError):
            make_transcript(w, queries)

    def test_n_equals_d_rejected(self):
        g = RngState(66).generator()
        w = sample_wishart(4, g)
        with pytest.raises(ValueError, match="n < d"):
            make_transcript(w, np.eye(4))


def wishart_and_transcript(d, n, seed):
    rng = RngState(seed)
    w = sample_wishart(d, rng.child(0))
    return w, make_transcript(w, rng.child(1).standard_normal((d, n)))


posterior_cases = st.integers(min_value=1, max_value=16).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(min_value=0, max_value=d - 1),
                        st.integers(min_value=0, max_value=2**32 - 1)))


class TestPosteriorProperties:
    @settings(max_examples=60, deadline=None)
    @given(posterior_cases)
    def test_block_identity(self, case):
        d, n, seed = case
        w, t = wishart_and_transcript(d, n, seed)
        dec = posterior_decompose(w, t)
        assert dec.block_residual(w) <= 1e-8 * w.max_norm()
        np.testing.assert_allclose(dec.v @ dec.v.T, np.eye(d), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(posterior_cases)
    def test_cauchy_interlacing(self, case):
        # W~ is the Schur complement of the revealed n x n block of V W V^T,
        # so W~^-1 is a principal block of (V W V^T)^-1 and Cauchy gives
        # lambda_j(W) <= lambda_j(W~) <= lambda_(j+n)(W) for j = 1..d-n.
        d, n, seed = case
        w, t = wishart_and_transcript(d, n, seed)
        lam_w = np.linalg.eigvalsh(w.entries)
        lam_t = np.linalg.eigvalsh(posterior_decompose(w, t).wtilde.entries)
        tol = 1e-10 * lam_w[-1]
        assert np.all(lam_w[:d - n] <= lam_t + tol)
        assert np.all(lam_t <= lam_w[n:] + tol)


def per_trial_posterior_samples(d, n, trials, rng):
    """Reference: the loop posterior_distribution_test ran before it
    stacked its trials, one posterior_decompose per trial."""
    dn = d - n
    scale = d / dn
    queries = np.eye(d)[:, :n]
    out = np.empty((5, trials))
    for i in range(trials):
        w = sample_wishart(d, rng.child(0, i))
        dec = posterior_decompose(w, make_transcript(w, queries))
        wt = scale * dec.wtilde.entries
        comp_t = dec.v[n:, :]
        ref = sample_wishart(dn, rng.child(1, i))
        out[:, i] = (
            np.trace(wt),
            np.linalg.eigvalsh(wt)[0] * dn * dn,
            scale * np.trace(comp_t @ w.entries @ comp_t.T),
            np.trace(ref.entries),
            np.linalg.eigvalsh(ref.entries)[0] * dn * dn,
        )
    return out


class TestPosteriorDistribution:
    def test_posterior_matches_fresh_wishart(self):
        rep = posterior_distribution_test(12, 4, 600, RngState(67))
        assert rep.ks_trace[1] > 0.01
        assert rep.ks_lambda_min[1] > 0.01

    def test_negative_control_rejected(self):
        rep = posterior_distribution_test(12, 4, 600, RngState(68))
        assert rep.ks_trace_uncorrected[1] < 0.01

    @pytest.mark.parametrize("d, n, trials", [(8, 0, 300), (8, 7, 300),
                                              (32, 8, 50)])
    def test_stacked_samples_match_per_trial_loop(self, d, n, trials):
        # Stacks hold 128 trials at d = 8 and 8 at d = 32.
        got = wishart_module._posterior_samples(d, n, trials, RngState(90))
        want = per_trial_posterior_samples(d, n, trials, RngState(90))
        assert got.shape == want.shape == (5, trials)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
        report = posterior_distribution_test(d, n, trials, RngState(90))
        tr_post, lmin_post, tr_unc, tr_ref, lmin_ref = want
        assert report == PosteriorTestReport(
            d, n, trials, wishart_module._ks_2samp(tr_post, tr_ref),
            wishart_module._ks_2samp(lmin_post, lmin_ref),
            wishart_module._ks_2samp(tr_unc, tr_ref))

    @pytest.mark.parametrize("singular, pivot", [((5, 7), 2), ((7,), 1)])
    def test_first_failing_trial_raises(self, monkeypatch, singular, pivot):
        # Trial 5's revealed 2 x 2 block has equal rows (pivot 2 fails),
        # trial 7's a zero first row (pivot 1 fails); both share the first
        # stack of 8 at d = 32, and the lower trial index decides.
        def rigged(d, rngs):
            w = sample_wishart_stack(d, rngs)
            if d == 32 and 5 in singular:
                w[5, 1], w[5, :, 1] = w[5, 0], w[5, :, 0]
            if d == 32 and 7 in singular:
                w[7, 0], w[7, :, 0] = 0.0, 0.0
            return w
        monkeypatch.setattr(wishart_module, "sample_wishart_stack", rigged)
        with pytest.raises(ConditioningError, match=f"pivot {pivot} = "):
            posterior_distribution_test(32, 8, 16, RngState(91))

    def test_report_round_trip_keys(self):
        rep = posterior_distribution_test(6, 2, 50, RngState(69))
        d = rep.to_dict()
        assert set(d) == {"d", "n", "trials", "ks_trace", "ks_lambda_min",
                          "ks_trace_uncorrected"}


def _assert_ks_matches_scipy(x, y):
    """_ks_2samp equals scipy's exact ks_2samp bit for bit wherever scipy's
    exact sum stays in [0, 1]; where it rounds above 1, scipy warns and
    falls back to its asymptotic law, and the exact answer is 1.0."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref = ks_2samp(x, y, method="exact")
    stat, p = wishart_module._ks_2samp(x, y)
    ref_stat, ref_p = float(ref.statistic), float(ref.pvalue)
    assert stat.hex() == ref_stat.hex()
    if any("Exact calculation unsuccessful" in str(w.message) for w in caught):
        assert ref_p >= 0.9999
        assert p == 1.0
    else:
        assert p.hex() == ref_p.hex()


class TestKsTwoSample:
    def test_every_gap_up_to_n_120(self):
        # y = x + h - 1/2 makes the largest count gap exactly h.
        for n in range(1, 121):
            x = np.arange(n, dtype=np.float64)
            for h in range(1, n + 1):
                y = x + h - 0.5
                assert wishart_module._ks_2samp(x, y)[0] == h / n
                _assert_ks_matches_scipy(x, y)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=2000),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=40))
    def test_random_and_tied_samples_match_scipy(self, n, seed, levels):
        # levels == 0: continuous samples; otherwise values on `levels`
        # integers, so both samples are full of ties.
        g = np.random.default_rng(seed)
        if levels:
            x = g.integers(0, levels, n).astype(np.float64)
            y = g.integers(0, levels, n).astype(np.float64)
        else:
            x = g.standard_normal(n)
            y = g.standard_normal(n) + g.uniform(-0.5, 0.5)
        _assert_ks_matches_scipy(x, y)

    def test_identical_samples(self):
        x = np.array([3.0, 1.0, 2.0, 2.0])
        assert wishart_module._ks_2samp(x, x[::-1]) == (0.0, 1.0)
        _assert_ks_matches_scipy(x, x[::-1])

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError, match="equal sample sizes"):
            wishart_module._ks_2samp(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            wishart_module._ks_2samp(np.array([0.0, bad]), np.zeros(2))


class TestEigenLaws:
    def test_eig_cdf_d1_closed_form(self):
        # d=1: lambda_min = g^2 with g standard normal, so
        # Pr{lambda <= x} = 2 Phi(sqrt(x)) - 1; at x=0.25 that is ~0.3829.
        rows = eig_cdf_experiment(1, 4000, [0.25], RngState(70))
        assert abs(rows[0].probability - 0.3829) <= 3 * rows[0].stderr + 0.005

    def test_eig_cdf_x_zero_is_zero(self):
        rows = eig_cdf_experiment(4, 200, [0.0], RngState(71))
        assert rows[0].count == 0

    def test_eig_cdf_monotone(self):
        rows = eig_cdf_experiment(8, 1500, [0.01, 0.04, 0.16, 0.64], RngState(72))
        probs = [r.probability for r in rows]
        assert probs == sorted(probs)

    def test_eig_cdf_rejects_bad_x(self):
        for x in (1.5, -0.1, np.nan):
            with pytest.raises(ValueError):
                eig_cdf_experiment(4, 10, [x], RngState(73))

    @pytest.mark.parametrize("t", [-3.0, np.nan, np.inf])
    def test_lambda_max_tail_rejects_bad_t(self, t):
        with pytest.raises(ValueError, match="finite and >= 0"):
            lambda_max_tail_experiment(4, 10, [0.0, t], RngState(73))

    @pytest.mark.parametrize("experiment", [eig_cdf_experiment,
                                            lambda_max_tail_experiment])
    def test_d0_is_usage_error(self, experiment):
        # Checked before any threshold is scaled by 1/d^2: no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="d >= 1"):
                experiment(0, 10, [0.1], RngState(73))

    def test_lambda_max_tail_decreasing(self):
        rows = lambda_max_tail_experiment(8, 1500, [0.0, 0.25, 0.5, 1.0],
                                          RngState(74))
        probs = [r.probability for r in rows]
        assert probs == sorted(probs, reverse=True)
        assert rows[-1].probability <= 0.1


def dense_spectra(d, trials, rng):
    """Reference sampler: eigvalsh of G G^T / d for each trial's dense G,
    in stacks of 64 trials."""
    return np.concatenate([
        np.linalg.eigvalsh(sample_wishart_stack(
            d, [rng.child(i) for i in range(start, min(start + 64, trials))]))
        for start in range(0, trials, 64)])


def bidiagonal_spectra(d, trials, rng):
    stacks = wishart_module._trial_bidiagonals(d, trials, rng)
    return np.concatenate([wishart_module._bidiagonal_spectra(a, b)
                           for a, b in stacks])


def per_trial_bidiagonal_spectra(d, trials, rng):
    """Reference: one trial at a time, its 2d - 1 chi-square variates
    drawn in the documented order and one SVD of its upper bidiagonal."""
    dofs = np.r_[np.arange(d, 0, -1), np.arange(d - 1, 0, -1)].astype(float)
    out = np.empty((trials, d))
    for i in range(trials):
        chi = np.sqrt(rng.child(i).chisquare(dofs))
        upper = np.diag(chi[:d]) + np.diag(chi[d:], 1)
        out[i] = np.linalg.svd(upper, compute_uv=False)[::-1] ** 2 / d
    return out


def law_statistics(lam):
    """lambda_min, lambda_max and tr(W^-1) of each trial's spectrum."""
    return lam[:, 0], lam[:, -1], np.sum(1.0 / lam, axis=1)


def dense_stack_trials(d):
    return max(1, wishart_module._STACK_BYTES // (8 * d * d))


def bidiagonal_stack_trials(d):
    return max(1, wishart_module._STACK_BYTES // (8 * (2 * d - 1)))


LAW_TRIALS = 2000


@pytest.fixture(scope="module")
def dense_laws():
    return {d: law_statistics(dense_spectra(d, LAW_TRIALS, RngState(94)))
            for d in (2, 8, 64)}


def chi_d_subdiagonal(d):
    """Negative control: every subdiagonal entry drawn as chi_d."""
    return np.r_[np.arange(d, 0, -1), np.full(d - 1, d)].astype(float)


class TestTrialSpectra:
    # (16, 31..33) and (64, 3) cross the dense SVD sub-stacks (32 and 2
    # matrices), (16, 265) and (64, 65) the bidiagonal stacks (264 and 64).
    @pytest.mark.parametrize("d, trials", [
        (1, 7), (5, 333), (64, 200), (300, 3),
        (16, dense_stack_trials(16) - 1), (16, dense_stack_trials(16)),
        (16, dense_stack_trials(16) + 1), (64, dense_stack_trials(64) + 1),
        (16, bidiagonal_stack_trials(16) + 1),
        (64, bidiagonal_stack_trials(64) + 1),
    ])
    def test_equal_to_per_trial_loop(self, d, trials):
        stacks = list(wishart_module._trial_bidiagonals(d, trials, RngState(92)))
        assert all(len(a) <= bidiagonal_stack_trials(d) for a, _ in stacks)
        got = np.concatenate([wishart_module._bidiagonal_spectra(a, b)
                              for a, b in stacks])
        np.testing.assert_array_equal(
            got, per_trial_bidiagonal_spectra(d, trials, RngState(92)))

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_equal_in_law_to_dense_sampler(self, d, dense_laws):
        got = law_statistics(bidiagonal_spectra(d, LAW_TRIALS, RngState(95)))
        for name, x, y in zip(("lambda_min", "lambda_max", "tr W^-1"),
                              got, dense_laws[d]):
            assert wishart_module._ks_2samp(x, y)[1] > 0.01, name

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_ks_rejects_chi_d_subdiagonal(self, d, dense_laws, monkeypatch):
        monkeypatch.setattr(wishart_module, "_bidiagonal_dofs", chi_d_subdiagonal)
        got = law_statistics(bidiagonal_spectra(d, LAW_TRIALS, RngState(95)))
        for name, x, y in zip(("lambda_min", "lambda_max", "tr W^-1"),
                              got, dense_laws[d]):
            assert wishart_module._ks_2samp(x, y)[1] < 0.01, name

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=24),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_counts_equal_svd_counts(self, d, m, seed):
        # Entries and shifts spread over many orders of magnitude; a
        # (trial, shift) pair within a relative 1e-8 of an eigenvalue is a
        # tie and is skipped.
        g = np.random.default_rng(seed)
        a = np.exp(g.uniform(-8.0, 4.0, (5, d)))
        b = np.exp(g.uniform(-8.0, 4.0, (5, d - 1)))
        shifts = np.exp(g.uniform(-30.0, 10.0, m))
        upper = np.zeros((5, d, d))
        upper[:, np.arange(d), np.arange(d)] = a
        upper[:, np.arange(d - 1), np.arange(1, d)] = b
        lam = np.linalg.svd(upper, compute_uv=False) ** 2
        gap = np.min(np.abs(lam[:, :, None] / shifts - 1.0), axis=1)
        want = np.sum(lam[:, :, None] < shifts, axis=1)
        got = bidiagonal_counts(a, b, shifts)
        away = gap > 1e-8
        np.testing.assert_array_equal(got[away], want[away])

    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_zero_diagonal_entry_gives_defined_count(self, j):
        # B with a_j = 0 is exactly singular.  At shift 0 the pivot D_j is
        # 0 - 0; the pivmin guard counts it (lambda = 0 <= 0) where the
        # unguarded recurrence would go on with 0/0.
        (a, b), = wishart_module._trial_bidiagonals(5, 4, RngState(98))
        a[:, j] = 0.0
        lam = wishart_module._bidiagonal_spectra(a, b) * 5
        assert np.all(lam[:, 0] == 0.0)
        shifts = np.array([0.0, 1e-300, 0.5, 2.0, 50.0])
        got = bidiagonal_counts(a, b, shifts)
        assert np.all(got[:, 0] == 1)
        np.testing.assert_array_equal(
            got[:, 1:], np.sum(lam[:, :, None] < shifts[1:], axis=1))

    @pytest.mark.parametrize("b, want", [
        # b_1 = 0 splits B: its spectrum is {4} and that of [[1, 0], [1, 1]]
        # times its transpose, 0.38 and 2.62.  The clamped ratio restarts
        # the second block at -tau; unclamped, 0 * inf = NaN would go on.
        ([0.0, 1.0], [2, 3, 3]),
        # Spectrum 0.21, 2.17, 8.62: e_1 times the clamped ratio overflows,
        # and the inf/inf ratio after it is taken as 1, its limit.
        ([2.0, 1.0], [2, 2, 2]),
    ])
    def test_exact_zero_pivot(self, b, want):
        # a_1^2 equals the shift 4, so D_1 = 0 exactly.
        a = np.array([[2.0, 1.0, 1.0]])
        got = bidiagonal_counts(a, np.array([b]), [3.9, 4.0, 4.1])
        assert got.tolist() == [want]

    def test_tiny_last_diagonal_keeps_lambda_min(self):
        # a_d = 1e-150 puts lambda_min(B B^T) near 1e-300.  The reference
        # is det(B B^T) = prod a_i^2 over the other eigenvalues, which are
        # well conditioned; eigvalsh of the dense B B^T has an absolute
        # error near eps ||B||^2 and loses lambda_min altogether.
        d = 8
        (a, b), = wishart_module._trial_bidiagonals(d, 1, RngState(96))
        a[0, -1] = 1e-150
        bmat = np.diag(a[0]) + np.diag(b[0], -1)
        dense = np.linalg.eigvalsh(bmat @ bmat.T)
        want = np.prod(a[0] ** 2) / np.prod(dense[1:])
        lam = wishart_module._bidiagonal_spectra(a, b)[0] * d
        assert abs(lam[0] - want) <= 1e-10 * want
        assert bidiagonal_counts(a, b, [want * (1 - 1e-10),
                                        want * (1 + 1e-10)]).tolist() == [[0, 1]]
        assert abs(dense[0] - want) > want

    def test_only_exactly_singular_draws_dropped(self, monkeypatch):
        # A zero diagonal entry makes B exactly singular, and its smallest
        # singular value comes out as exactly 0; a nearly singular B keeps
        # its relatively accurate sigma_min and its row.
        make_trials_singular(monkeypatch, [1])
        rep = inv_trace_tail_experiment(3, 5, 1.0, RngState(93))
        assert rep.dropped == 1 and len(rep.samples) == 4


class TestInvTraceTail:
    def test_d2_algebraic_identity(self):
        # p=1, d=2: tr(W^{-1}) = tr(W)/det(W); spot-check against the
        # eigenvalue route on the same draws, W = B B^T / 2 with
        # B = [[a_1, 0], [b_1, a_2]].
        rng = RngState(75)
        rep = inv_trace_tail_experiment(2, 50, 1.0, rng)
        (a, b), = wishart_module._trial_bidiagonals(2, 50, rng)
        tr = (a[:, 0] ** 2 + a[:, 1] ** 2 + b[:, 0] ** 2) / 2
        det = (a[:, 0] * a[:, 1]) ** 2 / 4
        direct = tr / det / 2 ** 2
        np.testing.assert_allclose(np.sort(rep.samples), np.sort(direct),
                                   atol=1e-10, rtol=1e-10)

    def test_seed_batch_stability(self):
        q1 = inv_trace_tail_experiment(8, 1500, 0.75, RngState(76)).quantiles[0.5]
        q2 = inv_trace_tail_experiment(8, 1500, 0.75, RngState(77)).quantiles[0.5]
        assert max(q1, q2) / min(q1, q2) <= 1.5

    def test_per_index_profile_bounded(self):
        rep = inv_trace_tail_experiment(10, 800, 1.0, RngState(78))
        assert rep.per_index_q99.shape == (10,)
        assert np.all(rep.per_index_q99 > 0)

    def test_p_validation(self):
        with pytest.raises(ValueError, match="p > 1/2"):
            inv_trace_tail_experiment(4, 10, 0.5, RngState(79))

    def test_all_trials_dropped_raises(self, monkeypatch):
        make_trials_singular(monkeypatch, range(5))
        with pytest.raises(ConditioningError, match=r"d=3.*trials=5"):
            inv_trace_tail_experiment(3, 5, 1.0, RngState(80))


def per_probe_hutchinson_krylov(oracle, p, g, n_probes, m):
    """Reference: HutchinsonKrylov on one trial with one rademacher draw
    and one Lanczos run per probe, where it draws all probes at once."""
    d = oracle.dim
    qforms = np.empty(n_probes)
    for s in range(n_probes):
        z = rademacher(g, d)
        y, _, _ = fa_times_vec_oracle([oracle.matvec], d, z, m, lambda v: v ** (-p))
        qforms[s] = z @ y
    return float(np.mean(qforms))


def one_trial_at_a_time_game(d, p, c, algorithm, budget, trials, rng):
    """Reference: the game played one trial at a time, with one W, one
    eigensolve and one algorithm run per trial.  Returns the records."""
    records = []
    for i in range(trials):
        w = SymMatrix(wishart_module.sample_wishart_stack(d, [rng.child(0, i)])[0])
        lam = sym_eigen(w).eigvals
        true_tr = float(np.sum(np.maximum(lam, 1e-300) ** (-p)))
        oracle = MeteredOracle(w, budget)
        error, estimate = None, math.nan
        try:
            estimate = solo_run(algorithm, oracle, p, rng.child(1, i))
        except SpectrumError as exc:
            error = str(exc)
        success = error is None and true_tr / c <= estimate <= c * true_tr
        records.append(TrialRecord(i, estimate, true_tr, oracle.count, success,
                                   False, error))
    return records


def solo_run(algorithm, oracle, p, g):
    """Reference: one trial of ExactRecovery or HutchinsonKrylov alone."""
    d = oracle.dim
    if isinstance(algorithm, ExactRecovery):
        lam = sym_eigen(symmetrize(oracle.matvec(np.eye(d)))).eigvals
        if lam[0] <= 0:
            raise SpectrumError(float(lam[0]))
        return float(np.sum(lam ** (-p)))

    def f(vals):
        smallest = float(np.min(vals))
        if smallest <= 0:
            raise SpectrumError(smallest)
        return vals ** (-p)

    nv = algorithm.n_probes
    z = rademacher(g, nv * d).reshape(nv, d).T
    y, _, (error,) = fa_times_vec_oracle([oracle.matvec], d, z, algorithm.m, f)
    if error is not None:
        raise error
    return float(np.mean(np.einsum("ij,ij->j", z, y)))


def record_bytes(records):
    """Each record as JSON text, so NaN estimates compare equal and every
    float compares by its exact repr."""
    return [json.dumps(r.to_dict()) for r in records]


def patch_trials(monkeypatch, matrices):
    """Let the next game draw matrices[i] in place of trial i's W; the game
    calls sample_wishart_stack on its trials in order."""
    real = sample_wishart_stack
    seen = [0]

    def stack(d, rngs):
        w = real(d, rngs)
        for t in range(len(rngs)):
            if seen[0] + t in matrices:
                w[t] = matrices[seen[0] + t]
        seen[0] += len(rngs)
        return w

    monkeypatch.setattr(wishart_module, "sample_wishart_stack", stack)


class TestQueryGame:
    def test_metered_oracle_enforces_budget(self):
        w = sample_wishart(4, RngState(80).generator())
        oracle = MeteredOracle(w, 2)
        oracle.matvec(np.ones(4))
        oracle.matvec(np.ones(4))
        with pytest.raises(BudgetExceededError):
            oracle.matvec(np.ones(4))
        assert oracle.count == 2

    def test_metered_oracle_charges_blocks(self):
        w = sample_wishart(4, RngState(80).generator())
        oracle = MeteredOracle(w, 5)
        block = np.ones((4, 3))
        np.testing.assert_array_equal(oracle.matvec(block), w.entries @ block)
        assert oracle.count == 3
        with pytest.raises(BudgetExceededError):
            oracle.matvec(block)
        assert oracle.count == 3  # refused before the product
        oracle.matvec(np.ones((4, 2)))
        assert oracle.count == 5

    def test_oracle_lanczos_charges_realized_steps(self):
        w = SymMatrix(np.diag([1.0, 2.0, 5.0, 7.0]))
        z = np.array([[1.0, 1.0, 0.0, 0.0],
                      [1.0, -1.0, 1.0, 1.0],
                      [1.0, 1.0, 1.0, 1.0]]).T
        oracle = MeteredOracle(w, 12)
        y, steps, errors = fa_times_vec_oracle([oracle.matvec], 4, z, 4, "inv")
        assert steps == oracle.count == 10
        assert errors == [None]
        np.testing.assert_allclose(y, z / np.diag(w.entries)[:, None], rtol=1e-12)

    def test_oracle_lanczos_group_error_stops_its_later_chunks(self, monkeypatch):
        # Two columns per chunk: chunks (a0, a1), (a2, b0), (b1, b2).  f
        # rejects a's Ritz values in the first chunk, so a2 never runs, as
        # when a runs alone; b's columns come out as in a run of b alone, up
        # to rounding: b0 runs in a chunk of its own.
        d, m = 6, 3
        monkeypatch.setattr(krylov_module, "_CHUNK_BYTES", 2 * 8 * m * d)
        spd = sample_spd_with_spectrum(d, 16.0, RngState(96))
        a = MeteredOracle(SymMatrix(np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, 6.0])), 9)
        b = MeteredOracle(spd, 9)
        z = rademacher(RngState(97).generator(), 6 * d).reshape(6, d).T
        y, steps, errors = fa_times_vec_oracle([a.matvec, b.matvec], d, z, m, "inv")
        assert (a.count, b.count, steps) == (2 * m, 3 * m, 5 * m)
        assert isinstance(errors[0], SpectrumError) and errors[1] is None
        assert np.isnan(y[:, :3]).all()
        want, _, _ = fa_times_vec_oracle([lambda v: spd.entries @ v], d, z[:, 3:],
                                         m, "inv")
        np.testing.assert_allclose(y[:, 3:], want, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("d, nv, m", [(64, 8, 32), (7, 3, 5), (5, 5, 5)])
    def test_hutchinson_krylov_matches_per_probe_loop(self, d, nv, m):
        # spec in [1, 16]: on ill-conditioned Wishart draws f(T) = T^{-p}
        # magnifies last-bit differences of the block product by cond(W).
        rng = RngState(87)
        for i in range(3):
            w = sample_spd_with_spectrum(d, 16.0, rng.child(0, i))
            oracle = MeteredOracle(w, nv * m)
            got, = HutchinsonKrylov(nv, m).run_stack([oracle], 1.5, [rng.child(1, i)])
            assert oracle.count == nv * m
            ref_oracle = MeteredOracle(w, nv * m)
            want = per_probe_hutchinson_krylov(ref_oracle, 1.5, rng.child(1, i),
                                               nv, m)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_game_ledger_is_nv_times_m(self):
        res = query_game(64, 1.0, 2.0, HutchinsonKrylov(8, 32), budget=256,
                         trials=5, rng=RngState(88))
        assert all(r.queries_used == 256 for r in res.records)

    def test_spectrum_error_trial_charges_every_probe(self, monkeypatch):
        # Each probe's smallest Ritz value is at most its Rayleigh quotient,
        # the mean eigenvalue -1.5 < 0; all probes' Lanczos steps are
        # charged before the eigensolve raises.
        lam = np.array([-1.0, -2.0, -3.0, -4.0, -5.0, 6.0])
        monkeypatch.setattr(wishart_module, "sample_wishart_stack",
                            lambda d, rngs: np.stack([np.diag(lam)] * len(rngs)))
        res = query_game(6, 1.0, 2.0, HutchinsonKrylov(3, 2), budget=6,
                         trials=2, rng=RngState(89))
        assert [r.queries_used for r in res.records] == [6, 6]
        assert all(r.error is not None and not r.success for r in res.records)

    @pytest.mark.parametrize("algorithm, d, budget", [
        (HutchinsonKrylov(8, 32), 64, 256),
        (HutchinsonKrylov(1, 32), 64, 32),
        (ExactRecovery(), 64, 64),
    ])
    @pytest.mark.parametrize("stacks, extra", [(0, 1), (1, -1), (1, 0), (1, 1),
                                               (2, 1)])
    def test_stacked_game_matches_one_trial_at_a_time(self, algorithm, d, budget,
                                                     stacks, extra):
        # stacks * k + extra trials: 1, k - 1, k, k + 1 and 2k + 1 around
        # the stack size k (4 for 8 probes, 16 for 1 probe and for exact).
        # A single probe takes other memory layouts than a block of them.
        width = d
        if isinstance(algorithm, HutchinsonKrylov):
            width = max(d, algorithm.n_probes * algorithm.m)
        k = wishart_module._GAME_STACK_BYTES // (8 * d * width)
        trials = stacks * k + extra
        res = query_game(d, 1.0, 2.0, algorithm, budget, trials, RngState(92))
        ref = one_trial_at_a_time_game(d, 1.0, 2.0, algorithm, budget, trials,
                                       RngState(92))
        assert record_bytes(res.records) == record_bytes(ref)
        assert res.success_count == sum(r.success for r in ref)

    def test_spectrum_error_stops_only_its_trial(self, monkeypatch):
        # Trial 1 shares its stack with three Wishart trials; its W has the
        # spectrum of test_spectrum_error_trial_charges_every_probe.
        args = (6, 1.0, 2.0, HutchinsonKrylov(3, 2), 6, 4)
        bad = {1: np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, 6.0])}
        clean = query_game(*args, rng=RngState(93))
        patch_trials(monkeypatch, bad)
        res = query_game(*args, rng=RngState(93))
        patch_trials(monkeypatch, bad)
        ref = one_trial_at_a_time_game(*args, RngState(93))
        assert record_bytes(res.records) == record_bytes(ref)
        assert res.records[1].error.startswith("nonpositive spectral value")
        assert res.records[1].queries_used == 6
        assert [r.error for r in res.records] == [None, res.records[1].error, None, None]
        keep = [0, 2, 3]
        assert (record_bytes([res.records[i] for i in keep])
                == record_bytes([clean.records[i] for i in keep]))

    def test_breakdown_charges_only_its_trial(self, monkeypatch):
        # On W = 2 I every column breaks down after its first step.
        args = (8, 1.0, 2.0, HutchinsonKrylov(2, 4), 8, 5)
        twice = {2: 2.0 * np.eye(8)}
        clean = query_game(*args, rng=RngState(94))
        patch_trials(monkeypatch, twice)
        res = query_game(*args, rng=RngState(94))
        patch_trials(monkeypatch, twice)
        ref = one_trial_at_a_time_game(*args, RngState(94))
        assert record_bytes(res.records) == record_bytes(ref)
        assert [r.queries_used for r in res.records] == [8, 8, 2, 8, 8]
        assert res.records[2].true_trace == 4.0
        assert res.records[2].estimate == pytest.approx(4.0, rel=1e-14)
        keep = [0, 1, 3, 4]
        assert (record_bytes([res.records[i] for i in keep])
                == record_bytes([clean.records[i] for i in keep]))

    def test_negative_budget_is_usage_error(self):
        with pytest.raises(UsageError, match="budget >= 0"):
            query_game(4, 1.0, 2.0, ConstantGuess(1.0), budget=-5, trials=2,
                       rng=RngState(95))

    def test_exact_recovery_always_wins(self):
        res = query_game(8, 1.0, 2.0, ExactRecovery(), budget=8, trials=30,
                         rng=RngState(81))
        assert res.success_rate == 1.0
        assert res.budget_violations == 0
        assert all(r.queries_used == 8 for r in res.records)

    def test_constant_guess_capped(self):
        # no constant wins reliably: tr(W^{-1}) has heavy d^2-scale tails
        d = 32
        rates = []
        for c in np.geomspace(d / 4, 4 * d ** 2, 7):
            res = query_game(d, 1.0, 2.0, ConstantGuess(float(c)), budget=0,
                             trials=500, rng=RngState(82))
            rates.append(res.success_rate)
        assert max(rates) <= 0.9

    def test_hutchinson_krylov_respects_budget(self):
        res = query_game(16, 1.0, 2.0, HutchinsonKrylov(4, 8), budget=32,
                         trials=10, rng=RngState(83))
        assert res.budget_violations == 0
        assert all(r.queries_used <= 32 for r in res.records)

    def test_game_determinism(self):
        kwargs = dict(d=8, p=1.0, approx_factor=2.0,
                      algorithm=HutchinsonKrylov(2, 4), budget=8, trials=5)
        r1 = query_game(rng=RngState(84), **kwargs)
        r2 = query_game(rng=RngState(84), **kwargs)
        assert r1.to_dict() == r2.to_dict()

    def test_validation(self):
        with pytest.raises(ValueError, match="C > 1"):
            query_game(4, 1.0, 1.0, ExactRecovery(), budget=4, trials=1,
                       rng=RngState(85))
        with pytest.raises(ValueError, match="budget >= d"):
            query_game(4, 1.0, 2.0, ExactRecovery(), budget=3, trials=1,
                       rng=RngState(86))

    @pytest.mark.parametrize("d, trials", [(4, 0), (0, 1)])
    def test_empty_game_is_usage_error(self, d, trials):
        with pytest.raises(UsageError, match="d >= 1 and trials >= 1"):
            query_game(d, 1.0, 2.0, ConstantGuess(1.0), budget=4,
                       trials=trials, rng=RngState(87))

    @pytest.mark.parametrize("nv, m", [(0, 2), (2, 0)])
    def test_hutchinson_krylov_needs_a_probe_and_a_step(self, nv, m):
        with pytest.raises(UsageError, match="n_probes >= 1 and m >= 1"):
            HutchinsonKrylov(nv, m)
