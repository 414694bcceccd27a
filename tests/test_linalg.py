import ctypes
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, norm

import tracebounds.linalg as linalg
import tracebounds.wishart as wishart
from tracebounds.cli import main
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
    eigvalsh_checked,
    orthonormal_complement,
    qr_columns,
    sample_gaussian_matrix,
    sample_spd_with_spectrum,
    sample_wishart,
    sample_wishart_stack,
    spectrum_within,
    sym_eigen,
    symmetrize,
)
from tracebounds.rng import RngState


def blas_threads(monkeypatch, width):
    """Make linalg read `width` as OpenBLAS's thread count."""
    monkeypatch.setattr(linalg, "_blas_thread_control",
                        lambda: ((lambda: width), None))


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_dim(self):
        assert SymMatrix(np.eye(4)).dim == 4

    def test_rejects_nan_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymMatrix(np.array([[np.nan, 1.0], [5.0, 2.0]]))


class TestSymmetrize:
    def test_keeps_huge_finite_entries(self):
        s = symmetrize(np.array([[1e308, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(s.entries, [[1e308, 0.0], [0.0, 1.0]])

    def test_same_bits_as_sum_then_halve(self):
        m = RngState(3).generator().standard_normal((6, 6))
        np.testing.assert_array_equal(symmetrize(m).entries, (m + m.T) / 2.0)


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
            product = (eig.eigvecs * eig.eigvals) @ eig.eigvecs.T
            resid = np.max(np.abs(a.entries - product))
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

    def test_nan_entry_fails_residual_contract(self):
        with pytest.raises(EigenConvergenceError):
            eigh_checked(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_nan_in_one_matrix_of_a_stack_fails(self):
        stack = np.array([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]], np.eye(2)])
        with pytest.raises(EigenConvergenceError):
            eigh_checked(stack)

    def test_eigensolve_runs_on_one_blas_thread(self, monkeypatch):
        get, put = linalg._blas_thread_control()
        before, seen, real = get(), [], np.linalg.eigh

        def eigh(m):
            seen.append(get())
            if len(seen) == 2:
                raise np.linalg.LinAlgError("no convergence")
            return real(m)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        eigh_checked(np.eye(3))
        with pytest.raises(EigenConvergenceError):
            eigh_checked(np.eye(3))
        assert seen == [1, 1] and get() == before

    def test_concurrent_eigensolves_restore_the_thread_count(self, monkeypatch):
        # Thread b starts its eigensolve while a's runs pinned; unserialized,
        # b saves the pinned 1 and restores it after a has restored 2.
        get, put = linalg._blas_thread_control()
        before = get()
        put(2)
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen, real = [], np.linalg.eigh

        def eigh(m):
            seen.append(get())
            if threading.current_thread().name == "a":
                a_in.set()
                b_in.wait(0.5)
            else:
                b_in.set()
                a_out.wait(5)
            return real(m)

        def run_a():
            eigh_checked(np.eye(3))
            a_out.set()

        def run_b():
            a_in.wait(5)
            eigh_checked(np.eye(3))

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        threads = [threading.Thread(target=run_a, name="a"),
                   threading.Thread(target=run_b, name="b")]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert seen == [1, 1] and get() == 2
        finally:
            put(before)

    def test_nested_pins_restore_the_outer_count(self):
        # The CLI pins a whole subcommand and the eigensolves in it pin
        # again; a lock that is not reentrant would hang the inner pin.
        get, put = linalg._blas_thread_control()
        before, seen = get(), []

        def nested():
            with linalg._one_blas_thread():
                with linalg._one_blas_thread():
                    seen.append((get(), list(linalg._PINNED_FROM)))
                    eigh_checked(np.eye(3))
                seen.append((get(), list(linalg._PINNED_FROM)))
            seen.append((get(), list(linalg._PINNED_FROM)))

        put(2)
        try:
            worker = threading.Thread(target=nested, daemon=True)
            worker.start()
            worker.join(10)
            assert not worker.is_alive(), "nested pin deadlocked"
            assert seen == [(1, [2, 1]), (1, [2]), (2, [])]
        finally:
            put(before)

    def test_missing_blas_thread_control_fails_loudly(self, monkeypatch):
        # Windows numpy wheels (no symbol lookup through dependencies),
        # Accelerate and MKL builds: the module exports no thread control.
        monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: object())
        with pytest.raises(RuntimeError, match="thread count"):
            linalg._blas_thread_control.__wrapped__()

    def test_missing_dlasq1_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: object())
        with pytest.raises(RuntimeError, match="no LAPACK dlasq1"):
            linalg._dlasq1.__wrapped__()

    @pytest.mark.parametrize("code", [1, 2, 3, -201])
    def test_dlasq1_failure_raises_eigen_convergence_error(self, code,
                                                            monkeypatch):
        # dlasq1 fails on rows 1 and 2 of three bidiagonals, with different
        # codes; the row is read from the diagonal the pointer points at.
        # Under every width the error names the lowest failing row.
        def dlasq1(n, d, e, work, info):
            row = int(ctypes.c_double.from_address(d).value)
            calls.append(row)
            info.value = {1: code, 2: 7}.get(row, 0)

        monkeypatch.setattr(linalg, "_dlasq1", lambda: (dlasq1, ctypes.c_int64))
        a, b = np.arange(3.0)[:, None] * np.ones(4), np.ones((3, 3))
        for width in (1, 2, 3):
            calls = []
            blas_threads(monkeypatch, width)
            with pytest.raises(EigenConvergenceError,
                               match=rf"bidiagonal 1: INFO = {code}$"):
                linalg.bidiagonal_singular_values(a, b)
            assert 1 in calls and len(calls) == len(set(calls))


    @pytest.mark.parametrize("k", [6, 3])
    def test_apply_function_to_block_matches_solve(self, k):
        # f(A) X = A^{-1} X for a d x d and a d x 3 block, column by column.
        a = sample_spd_with_spectrum(6, 8.0, RngState(1))
        x = RngState(2).generator().standard_normal((6, k))
        got = sym_eigen(a).apply_function(lambda v: 1.0 / v, x)
        np.testing.assert_allclose(got, np.linalg.solve(a.entries, x),
                                   rtol=0, atol=1e-12)


def rotated_stack(k, d, kappa, seed):
    """k exactly symmetric d x d matrices Q diag(lam) Q^T, each with a
    random orthogonal Q and lam log-uniform on [1, kappa], at a random
    scale; the spectrum holds both endpoints once d >= 2."""
    g = RngState(seed).generator()
    stack = np.empty((k, d, d))
    for i in range(k):
        q, _ = np.linalg.qr(g.standard_normal((d, d)))
        lam = np.exp(g.uniform(0.0, np.log(kappa), size=d))
        lam[0], lam[-1] = 1.0, kappa
        m = (q * (lam * 10.0 ** g.uniform(-3, 3))) @ q.T
        stack[i] = m / 2.0 + m.T / 2.0
    return stack


rotated = dict(k=st.integers(1, 8), d=st.integers(1, 64),
               log_kappa=st.floats(0.0, 12.0),
               seed=st.integers(0, 2 ** 32 - 1))


class TestEigvalshChecked:
    @settings(max_examples=40, deadline=None)
    @given(**rotated)
    def test_values_equal_eigh_checked(self, k, d, log_kappa, seed):
        # Both solvers are backward stable: each value within
        # 8 d eps max|lam| of the other's (0.75 d eps measured).
        stack = rotated_stack(k, d, 10.0 ** log_kappa, seed)
        got = eigvalsh_checked(stack)
        want, _ = eigh_checked(stack)
        assert got.shape == want.shape
        tol = 8 * d * np.finfo(np.float64).eps * np.max(np.abs(want), axis=1)
        assert np.all(np.abs(got - want) <= tol[:, None])
        assert np.all(np.diff(got, axis=1) >= 0)

    @settings(max_examples=20, deadline=None)
    @given(**rotated)
    def test_bytes_equal_at_one_and_two_blas_threads(self, k, d, log_kappa,
                                                     seed):
        stack = rotated_stack(k, d, 10.0 ** log_kappa, seed)
        get, put = linalg._blas_thread_control()
        before = get()
        try:
            put(1)
            one = eigvalsh_checked(stack)
            put(2)
            two = eigvalsh_checked(stack)
            assert get() == 2
        finally:
            put(before)
        assert one.tobytes() == two.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(**rotated)
    def test_single_matrix_equals_its_row_of_a_stack(self, k, d, log_kappa,
                                                     seed):
        stack = rotated_stack(k, d, 10.0 ** log_kappa, seed)
        vals = eigvalsh_checked(stack)
        for i in range(k):
            assert eigvalsh_checked(stack[i]).tobytes() == vals[i].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 8), d=st.integers(2, 64),
           log_kappa=st.floats(np.log10(2.0), 12.0),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_mutants_fail_the_moment_contract(self, k, d, log_kappa, seed,
                                              data):
        # One matrix of the stack: its largest eigenvalue dropped, its sign
        # flipped, or its smallest and largest moved 1e-6 ||M||_2 apart.
        stack = rotated_stack(k, d, 10.0 ** log_kappa, seed)
        row = data.draw(st.integers(0, k - 1))

        def drop(vals):
            return vals[..., :-1]

        def flip(vals):
            vals[row, -1] *= -1.0
            return vals

        def apart(vals):
            step = 1e-6 * np.max(np.abs(vals[row]))
            vals[row, 0] -= step
            vals[row, -1] += step
            return vals

        real = np.linalg.eigvalsh
        for mutate in (drop, flip, apart):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np.linalg, "eigvalsh",
                              lambda m: mutate(real(m).copy()))
                with pytest.raises(EigenConvergenceError, match="moments"):
                    eigvalsh_checked(stack)

    def test_nan_entry_fails_moment_contract(self):
        with pytest.raises(EigenConvergenceError):
            eigvalsh_checked(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        stack = np.array([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]], np.eye(2)])
        with pytest.raises(EigenConvergenceError):
            eigvalsh_checked(stack)

    def test_nan_trial_makes_game_exit_3(self, monkeypatch, capsys):
        real = wishart.sample_wishart_stack

        def stack_with_nan(d, rng, ids, *prefix):
            w = real(d, rng, ids, *prefix)
            w[-1, 0, 0] = np.nan
            return w

        monkeypatch.setattr(wishart, "sample_wishart_stack", stack_with_nan)
        assert main(["wishart", "game", "--d", "8", "--algo", "hutch",
                     "--nv", "2", "--m", "4", "--budget", "8", "--trials",
                     "3", "--seed", "1"]) == 3
        assert capsys.readouterr().err.startswith("error: eigen")

    def test_runs_on_one_blas_thread(self, monkeypatch):
        get, put = linalg._blas_thread_control()
        before, seen, real = get(), [], np.linalg.eigvalsh

        def eigvalsh(m):
            seen.append(get())
            if len(seen) == 2:
                raise np.linalg.LinAlgError("no convergence")
            return real(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        eigvalsh_checked(np.eye(3))
        with pytest.raises(EigenConvergenceError, match="did not converge"):
            eigvalsh_checked(np.eye(3))
        assert seen == [1, 1] and get() == before

    def test_zero_and_huge_matrices_pass(self):
        # In units of ||M||_max no square overflows, and a zero matrix has
        # a zero scale floor, not a zero division.
        np.testing.assert_array_equal(eigvalsh_checked(np.zeros((3, 3))),
                                      np.zeros(3))
        vals = eigvalsh_checked(np.diag([1e300, -2e300, 3e300]))
        np.testing.assert_array_equal(vals, [-2e300, 1e300, 3e300])


def dense_upper_bidiagonal(a, b):
    k, d = a.shape
    m = np.zeros((k, d, d))
    m[:, np.arange(d), np.arange(d)] = a
    m[:, np.arange(d - 1), np.arange(1, d)] = b
    return m


class TestBidiagonalSingularValues:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 40), d=st.integers(1, 64),
           width=st.sampled_from([1, 2, 3, 7]), seed=st.integers(0, 2**32 - 1))
    def test_equal_to_dense_svd_at_every_width(self, k, d, width, seed):
        # Any width gives np.linalg.svd's values of the dense bidiagonal,
        # bit for bit, exact zeros on either diagonal included.
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((k, d)), rng.standard_normal((k, d - 1))
        a[rng.random(a.shape) < 0.1] = 0.0
        b[rng.random(b.shape) < 0.1] = 0.0
        with pytest.MonkeyPatch.context() as monkeypatch:
            blas_threads(monkeypatch, width)
            got = linalg.bidiagonal_singular_values(a, b)
        np.testing.assert_array_equal(
            got, np.linalg.svd(dense_upper_bidiagonal(a, b), compute_uv=False))

    @pytest.mark.parametrize("k, width", [
        (1, 1), (1, 2), (1, 7), (5, 1), (5, 2), (5, 3), (2, 7), (40, 7)])
    def test_starts_a_thread_per_range_after_the_first(self, k, width, monkeypatch):
        started = []

        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(linalg.threading, "Thread", Thread)
        blas_threads(monkeypatch, width)
        linalg.bidiagonal_singular_values(np.ones((k, 3)), np.ones((k, 2)))
        assert len(started) <= min(k, width) - 1
        if k == 1 or width == 1:
            assert not started

    def test_lowest_failing_range_wins_under_contention(self, monkeypatch):
        # Six workers fail on the first row of their ranges at once, with
        # thread switches forced often; a lost failure record of the first
        # worker would name row 20 or later.
        def dlasq1(n, d, e, work, info):
            row = int(ctypes.c_double.from_address(d).value)
            info.value = row + 1 if row >= 10 else 0

        monkeypatch.setattr(linalg, "_dlasq1", lambda: (dlasq1, ctypes.c_int64))
        blas_threads(monkeypatch, 7)
        a, b = np.arange(70.0)[:, None] * np.ones(2), np.ones((70, 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                with pytest.raises(EigenConvergenceError,
                                   match=r"bidiagonal 10: INFO = 11$"):
                    linalg.bidiagonal_singular_values(a, b)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # Rows 2 and 3 of four run on the one worker at width 2; the
        # caller's range waits until the worker has raised.
        real, index = linalg._dlasq1()
        raised = threading.Event()

        def dlasq1(n, d, e, work, info):
            row = int(ctypes.c_double.from_address(d).value)
            if row == 3:
                assert threading.current_thread() is not threading.main_thread()
                raised.set()
                raise RuntimeError("row 3")
            if row == 0:
                raised.wait(5)
            real(n, d, e, work, info)

        monkeypatch.setattr(linalg, "_dlasq1", lambda: (dlasq1, index))
        blas_threads(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="row 3"):
            linalg.bidiagonal_singular_values(
                np.arange(4.0)[:, None] * np.ones(3), np.ones((4, 2)))
        assert raised.is_set() and threading.active_count() == before


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
        w = sample_wishart_stack(6, RngState(15), range(4))
        assert w.shape == (4, 6, 6)
        for i in range(4):
            np.testing.assert_array_equal(
                w[i], sample_wishart(6, RngState(15).child(i)).entries)
            g = sample_gaussian_matrix(6, 6, RngState(15).child(i))
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


class TestSpectrumWithin:
    def test_endpoints_on_the_interval_pass(self):
        # cholesky's pivot gate rejects A - I, whose smallest eigenvalue is
        # 0; with tau > 0 the guard passes both endpoints.
        a = SymMatrix(np.diag([1.0, 3.0, 16.0]))
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(a.entries - np.eye(3))
        assert spectrum_within(a, 1.0, 16.0, 1.6e-11)
        assert spectrum_within(a, 1.0 + 1e-12, 16.0, 1.6e-11)
        assert not spectrum_within(a, 1.0 + 1e-10, 16.0, 1.6e-11)
        assert not spectrum_within(a, 1.0, 16.0 - 1e-10, 1.6e-11)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=2, max_value=40),
           st.floats(min_value=2.0, max_value=1e4),
           st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=-4.0, max_value=4.0),
           st.floats(min_value=-4.0, max_value=4.0),
           st.sampled_from([1.0, 1e3, 1e9]))
    def test_agrees_with_eigvalsh(self, d, kappa, seed, lo_off, hi_off, unit):
        # The extreme eigenvalues sit lo_off and hi_off times unit * tau
        # from 1 and kappa.  The guard and eigvalsh agree unless one of
        # them lies within tau of its endpoint (widened by a tenth of tau
        # for the rounding of the factorization and the eigensolve).
        tau = 1e-12 * kappa
        g = np.random.default_rng(seed)
        lam = np.exp(g.uniform(0.0, np.log(kappa), size=d))
        lam[0] = 1.0 + lo_off * unit * tau
        lam[-1] = kappa + hi_off * unit * tau
        q, _ = np.linalg.qr(g.standard_normal((d, d)))
        a = symmetrize((q * lam) @ q.T)
        ev = np.linalg.eigvalsh(a.entries)
        assume(abs(ev[0] - 1.0) > 1.1 * tau and abs(ev[-1] - kappa) > 1.1 * tau)
        inside = bool(ev[0] >= 1.0 and ev[-1] <= kappa)
        assert spectrum_within(a, 1.0, kappa, tau) == inside


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
        # A negative entry gives a pivot of -L_jj^2 <= -0.09 from a
        # real-valued L, so the rounded LAPACK pivot is compared with the
        # column loop's.  A zero pivot from a real-valued L is rounding noise
        # that the two summation orders can put on opposite sides of the
        # tolerance, so for D_jj = 0 L is unit lower triangular in {-1, 0, 1}
        # and S is scaled by a power of four: S and every pivot up to column j
        # are exact, and the zero pivot is 0.0 in both factorizations.
        g = RngState(seed).generator()
        d = int(g.integers(1, 12))
        low = np.tril(g.standard_normal((d, d)))
        np.fill_diagonal(low, np.abs(np.diag(low)) + 0.3)
        signs = np.ones(d)
        j = int(g.integers(0, d))
        signs[j] = float(g.choice([-1.0, 0.0]))
        if signs[j] < 0:
            a = (low * signs) @ low.T
            a = (a + a.T) / 2.0
        else:
            low = np.tril(g.integers(-1, 2, size=(d, d)).astype(np.float64), -1)
            np.fill_diagonal(low, 1.0)
            a = (low * signs) @ low.T * 4.0 ** int(g.integers(-15, 16))
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

    @pytest.mark.parametrize("index", [1, 2])
    def test_nan_pivot_fails(self, index):
        s = np.diag([1e6, 1.0])
        s[index - 1, index - 1] = np.nan
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(s)
        assert exc.value.pivot_index == index
        assert np.isnan(exc.value.pivot_value)

    def test_nan_in_one_matrix_of_a_stack_fails(self):
        stack = np.array([np.eye(2), [[1.0, 0.0], [0.0, np.nan]], np.eye(2)])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(stack)
        assert exc.value.pivot_index == 2
        assert np.isnan(exc.value.pivot_value)


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

    @pytest.mark.parametrize("column", [1, 2])
    def test_nan_column_fails(self, column):
        m = np.eye(3)[:, :2]
        m[column - 1, column - 1] = np.nan
        with pytest.raises(RankDeficiencyError) as exc:
            qr_columns(m)
        assert exc.value.column == column

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
