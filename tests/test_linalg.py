import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, norm

from tracebounds.errors import (
    EigenConvergenceError,
    NotPositiveDefiniteError,
    RankDeficiencyError,
    UsageError,
)
from tracebounds.linalg import (
    SymMatrix,
    cholesky,
    eigh_checked,
    orthonormal_complement,
    qr_columns,
    sample_gaussian_matrix,
    sample_spd_with_spectrum,
    sample_wishart,
    sample_wishart_stack,
    sym_eigen,
    symmetrize,
)
from tracebounds.rng import RngState


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_dim(self):
        assert SymMatrix(np.eye(4)).dim == 4


class TestSymEigen:
    def test_identity(self):
        eig = sym_eigen(SymMatrix(np.eye(3)))
        np.testing.assert_allclose(eig.eigvals, [1, 1, 1])
        np.testing.assert_allclose(eig.eigvecs.T @ eig.eigvecs, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        eig = sym_eigen(SymMatrix(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(eig.eigvals, [1.0, 2.0, 3.0])

    def test_matches_characteristic_polynomial_bisection(self):
        # Independent oracle: eigenvalues are the roots of det(A - x I),
        # located by sign-change bisection on the characteristic polynomial.
        g = RngState(2024).generator()
        a = symmetrize(g.standard_normal((4, 4)))
        eig = sym_eigen(a)

        def charpoly(x):
            return np.linalg.det(a.entries - x * np.eye(4))

        roots = []
        grid = np.linspace(-8.0, 8.0, 20001)
        vals = np.array([charpoly(x) for x in grid])
        for i in np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(80):
                mid = (lo + hi) / 2
                if np.sign(charpoly(lo)) != np.sign(charpoly(mid)):
                    hi = mid
                else:
                    lo = mid
            roots.append((lo + hi) / 2)
        assert len(roots) == 4
        np.testing.assert_allclose(eig.eigvals, sorted(roots), atol=1e-8)

    def test_reconstruction_invariant(self):
        for i in range(5):
            g = RngState(5, i).generator()
            a = symmetrize(g.standard_normal((9, 9)))
            eig = sym_eigen(a)
            resid = np.max(np.abs(a.entries - eig.reconstruct()))
            assert resid <= 1e-8 * a.max_norm() * a.dim

    def test_stacked_solve_matches_one_at_a_time(self):
        g = RngState(6).generator()
        stack = np.array([symmetrize(g.standard_normal((5, 5))).entries
                          for _ in range(4)])
        vals, vecs = eigh_checked(stack)
        for i in range(4):
            eig = sym_eigen(SymMatrix(stack[i]))
            np.testing.assert_array_equal(vals[i], eig.eigvals)
            np.testing.assert_array_equal(vecs[i], eig.eigvecs)

    def test_stacked_solve_keeps_residual_contract(self, monkeypatch):
        g = RngState(7).generator()
        stack = np.array([symmetrize(g.standard_normal((5, 5))).entries
                          for _ in range(3)])
        real_eigh = np.linalg.eigh

        def eigh_with_one_bad_pair(m):
            vals, vecs = real_eigh(m)
            vals = vals.copy()
            vals[1, 0] += 1e-3  # one wrong eigenvalue in the middle matrix
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", eigh_with_one_bad_pair)
        with pytest.raises(EigenConvergenceError):
            eigh_checked(stack)


    @pytest.mark.parametrize("k", [6, 3])
    def test_apply_function_to_block_matches_solve(self, k):
        # f(A) X = A^{-1} X for a d x d and a d x 3 block, column by column.
        a = sample_spd_with_spectrum(6, 8.0, RngState(1))
        x = RngState(2).generator().standard_normal((6, k))
        got = sym_eigen(a).apply_function(lambda v: 1.0 / v, x)
        np.testing.assert_allclose(got, np.linalg.solve(a.entries, x),
                                   rtol=0, atol=1e-12)


class TestSampling:
    def test_gaussian_deterministic(self):
        x = sample_gaussian_matrix(1, 1, RngState(77))
        y = sample_gaussian_matrix(1, 1, RngState(77))
        assert x == y

    def test_gaussian_moments(self):
        x = sample_gaussian_matrix(1000, 1, RngState(8))
        assert abs(np.mean(x)) < 0.1
        assert abs(np.var(x) - 1.0) < 0.15

    def test_gaussian_stream_separation(self):
        a = sample_gaussian_matrix(2, 3, RngState(9, 0))
        b = sample_gaussian_matrix(2, 3, RngState(9, 1))
        assert not np.allclose(a, b)

    def test_wishart_d1_chi_square_law(self):
        # W = g^2 for d = 1, so Pr{W <= x} = 2 Phi(sqrt(x)) - 1.
        samples = np.array([
            sample_wishart(1, RngState(11, i)).entries[0, 0] for i in range(10000)
        ])
        stat = kstest(samples, lambda x: 2 * norm.cdf(np.sqrt(np.maximum(x, 0))) - 1)
        assert stat.pvalue > 0.01

    def test_wishart_psd(self):
        for i in range(20):
            w = sample_wishart(5, RngState(12, i))
            assert np.linalg.eigvalsh(w.entries)[0] >= -1e-10

    def test_wishart_mean_trace(self):
        traces = [
            np.trace(sample_wishart(8, RngState(13, i)).entries)
            for i in range(10000)
        ]
        assert abs(np.mean(traces) - 8.0) <= 0.16  # within 2% of d

    def test_wishart_stack_is_per_draw_sampler(self):
        rngs = [RngState(15, i) for i in range(4)]
        w = sample_wishart_stack(6, rngs)
        assert w.shape == (4, 6, 6)
        for i, rng in enumerate(rngs):
            np.testing.assert_array_equal(w[i], sample_wishart(6, rng).entries)
            g = sample_gaussian_matrix(6, 6, rng)
            np.testing.assert_array_equal(w[i], g @ g.T / 6)
        np.testing.assert_array_equal(w, np.swapaxes(w, 1, 2))

    def test_spd_spectrum_pinned(self):
        a = sample_spd_with_spectrum(10, 16.0, RngState(14))
        lam = np.linalg.eigvalsh(a.entries)
        assert lam[0] == pytest.approx(1.0, abs=1e-9)
        assert lam[-1] == pytest.approx(16.0, abs=1e-8)

    @pytest.mark.parametrize("kappa", [0.5, np.inf])
    def test_spd_rejects_kappa_out_of_range(self, kappa):
        with pytest.raises(UsageError, match="kappa >= 1"):
            sample_spd_with_spectrum(6, kappa, RngState(14))

    def test_negative_seed_is_usage_error(self):
        with pytest.raises(UsageError, match="nonnegative"):
            RngState(-1)


def loop_cholesky(a):
    """Reference: the column loop linalg.cholesky ran before it called
    LAPACK; returns L, or (1-based index, pivot) of the first pivot at or
    below 1e-12 * max(1, ||S||_max)."""
    d = a.shape[0]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(a))))
    low = np.zeros((d, d))
    for j in range(d):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        if pivot <= tol:
            return j + 1, float(pivot)
        low[j, j] = np.sqrt(pivot)
        low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(SymMatrix(np.eye(2))), np.eye(2))

    def test_hand_2x2(self):
        low = cholesky(SymMatrix(np.array([[4.0, 2.0], [2.0, 2.0]])))
        np.testing.assert_allclose(low, [[2.0, 0.0], [1.0, 1.0]], atol=1e-14)

    def test_indefinite_raises_with_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert exc.value.pivot_index == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_round_trip_random_triangular(self, seed):
        g = RngState(seed).generator()
        d = int(g.integers(1, 7))
        low = np.tril(g.standard_normal((d, d)))
        np.fill_diagonal(low, np.abs(np.diag(low)) + 0.3)
        s = SymMatrix(low @ low.T)
        np.testing.assert_allclose(
            cholesky(s), low, atol=1e-10 * max(1.0, s.max_norm())
        )


    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_failing_pivot_matches_column_loop(self, seed):
        # S = L D L^T with one diagonal entry of D negative or zero fails at
        # that column: LAPACK (negative) or the tolerance (zero) finds it.
        g = RngState(seed).generator()
        d = int(g.integers(1, 12))
        low = np.tril(g.standard_normal((d, d)))
        np.fill_diagonal(low, np.abs(np.diag(low)) + 0.3)
        signs = np.ones(d)
        j = int(g.integers(0, d))
        signs[j] = float(g.choice([-1.0, 0.0]))
        a = (low * signs) @ low.T
        a = (a + a.T) / 2.0
        index, pivot = loop_cholesky(a)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(SymMatrix(a))
        assert exc.value.pivot_index == index == j + 1
        assert exc.value.pivot_value == pytest.approx(
            pivot, abs=1e-10 * max(1.0, np.max(np.abs(a))))

    def test_stack_equals_one_at_a_time(self):
        g = RngState(24).generator()
        low = np.tril(g.standard_normal((5, 7, 7)))
        low[:, range(7), range(7)] = np.abs(low[:, range(7), range(7)]) + 0.3
        stack = low @ np.swapaxes(low, 1, 2)
        got = cholesky(stack)
        for s, l in zip(stack, got):
            np.testing.assert_array_equal(l, cholesky(SymMatrix(s)))
            np.testing.assert_allclose(l, loop_cholesky(s), atol=1e-12 * np.max(s))

    @pytest.mark.parametrize("order, index, pivot", [
        ((0, 1, 2), 3, -1.0),    # LAPACK rejects matrix 1 at pivot 3
        ((0, 2, 1), 2, 1e-13),   # below tolerance before LAPACK stops
        ((0, 3, 1), 1, 1e-13),   # LAPACK takes matrix 3, the tolerance not
        ((0, 3), 1, 1e-13),      # ... also when LAPACK takes the whole stack
    ])
    def test_stack_raises_for_first_failing_matrix(self, order, index, pivot):
        stack = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0]),
                          np.diag([1.0, 1e-13, -1.0]),
                          np.diag([1e-13, 1.0, 1.0])])[list(order)]
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(stack)
        assert exc.value.pivot_index == index
        assert exc.value.pivot_value == pytest.approx(pivot, rel=1e-15)


class TestQrColumns:
    def test_orthonormal_input_fixed_point(self):
        g = RngState(21).generator()
        q0, _ = np.linalg.qr(g.standard_normal((6, 3)))
        q, r = qr_columns(q0)
        # Q equals the input up to column signs; R is a sign matrix.
        np.testing.assert_allclose(np.abs(q0.T @ q), np.eye(3), atol=1e-10)
        np.testing.assert_allclose(np.abs(r), np.eye(3), atol=1e-10)

    def test_single_column(self):
        q, r = qr_columns(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(q, [[0.6], [0.8]])
        np.testing.assert_allclose(r, [[5.0]])

    def test_dependent_columns(self):
        col = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(RankDeficiencyError) as exc:
            qr_columns(np.hstack([col, col]))
        assert exc.value.column == 2

    def test_reconstruction(self):
        g = RngState(22).generator()
        m = g.standard_normal((8, 4))
        q, r = qr_columns(m)
        np.testing.assert_allclose(q @ r, m, atol=1e-10 * np.max(np.abs(m)))
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-10)

    def test_complement(self):
        g = RngState(23).generator()
        q, _ = qr_columns(g.standard_normal((7, 3)))
        comp = orthonormal_complement(q, 7)
        full = np.hstack([q, comp])
        np.testing.assert_allclose(full.T @ full, np.eye(7), atol=1e-10)
