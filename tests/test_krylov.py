import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tracebounds import krylov, linalg
from tracebounds.approx import ApproxTarget, inv_poly, sup_error
from tracebounds.chebyshev import ChebPoly
from tracebounds.errors import SpectrumError
from tracebounds.hutchinson import ChebBackend, LanczosBackend, ProbeSpec, hutchinson
from tracebounds.krylov import (
    fa_times_vec_lanczos,
    fa_times_vec_oracle,
    poly_times_block,
)
from tracebounds.linalg import (
    SymMatrix,
    panel_product,
    sample_spd_with_spectrum,
    sample_wishart,
    sym_eigen,
    symmetrize,
)
from tracebounds.rng import RngState


def run_lanczos(a, z, m):
    """krylov._lanczos_block on an explicit matrix at the breakdown tolerance
    fa_times_vec_lanczos uses; z is a length-d vector or a d x k block."""
    matvec, zb, tol = krylov._sym_args(a, z, m)
    return tuple(x[0] for x in krylov._lanczos_block(matvec, zb, m, tol))


def tridiagonal(alpha, beta, s):
    """The s x s tridiagonal T of one column's recurrence."""
    off = beta[: s - 1]
    return np.diag(alpha[:s]) + np.diag(off, 1) + np.diag(off, -1)


def assert_lanczos_invariants(a, q, alpha, beta, s):
    """Orthonormal basis over s steps and A Q = Q T on its first s - 1 columns
    (the last column carries the residual r e_s^T, which is never formed)."""
    basis = q[:s].T
    assert np.max(np.abs(basis.T @ basis - np.eye(s))) <= 1e-8
    resid = a.entries @ basis - basis @ tridiagonal(alpha, beta, s)
    assert np.max(np.abs(resid[:, :-1]), initial=0.0) <= 1e-8 * a.max_norm() * a.dim


class TestLanczos:
    def test_identity_terminates_after_one_step(self):
        q, alpha, beta, steps, _ = run_lanczos(SymMatrix(np.eye(5)), np.ones(5), 3)
        assert steps.tolist() == [1]
        np.testing.assert_allclose(alpha[0, :1], [1.0])

    def test_hand_2x2(self):
        a = SymMatrix(np.diag([1.0, 2.0]))
        q, alpha, beta, steps, _ = run_lanczos(a, np.array([1.0, 1.0]) / np.sqrt(2), 2)
        ritz = np.linalg.eigvalsh(tridiagonal(alpha[0], beta[0], steps[0]))
        np.testing.assert_allclose(ritz, [1.0, 2.0], atol=1e-12)

    def test_full_space_ritz_equals_spectrum(self):
        g = RngState(41).generator()
        a = symmetrize(g.standard_normal((8, 8)))
        q, alpha, beta, steps, _ = run_lanczos(a, g.standard_normal(8), 8)
        assert steps.tolist() == [8]
        ritz = np.linalg.eigvalsh(tridiagonal(alpha[0], beta[0], 8))
        np.testing.assert_allclose(ritz, sym_eigen(a).eigvals, atol=1e-8)

    def test_factorization_invariants(self):
        g = RngState(42).generator()
        a = symmetrize(g.standard_normal((10, 10)))
        z = g.standard_normal(10)
        q, alpha, beta, steps, znorm = run_lanczos(a, z, 6)
        assert steps.tolist() == [6]
        np.testing.assert_allclose(q[0, 0] * znorm[0], z, rtol=1e-15)
        assert_lanczos_invariants(a, q[0], alpha[0], beta[0], 6)

    def test_zero_start_vector(self):
        with pytest.raises(ValueError, match="nonzero"):
            fa_times_vec_lanczos(SymMatrix(np.eye(3)), np.zeros(3), 2, "identity")

    def test_early_termination_flagged(self):
        # start vector spans an invariant 2-d subspace of a block-diagonal A
        a = SymMatrix(np.diag([1.0, 2.0, 5.0, 7.0]))
        z = np.array([1.0, 1.0, 0.0, 0.0])
        q, alpha, beta, steps, _ = run_lanczos(a, z, 4)
        assert steps.tolist() == [2]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=10 ** 6))
    def test_block_recurrence_properties(self, d, k, m, seed):
        m = min(m, d)
        g = RngState(seed).generator()
        a = sample_spd_with_spectrum(d, 8.0, g)
        z = g.standard_normal((d, k))
        q, alpha, beta, steps, _ = run_lanczos(a, z, m)
        assert steps.shape == (k,) and np.all((1 <= steps) & (steps <= m))
        for c in range(k):
            assert_lanczos_invariants(a, q[c], alpha[c], beta[c], steps[c])
        _, mvps = fa_times_vec_lanczos(a, z, m, "inv")
        assert mvps == int(np.sum(steps))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.0, max_value=8.0), st.booleans(),
           st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_basis_without_three_term_step(self, d, m, log_kappa, rotate, ranks, seed):
        # A q_j goes straight into two Gram-Schmidt passes; kappa reaches
        # 1e8.  Column c starts in the span of ranks[c] eigenvectors (all of
        # them at 0).  Unrotated, that span is exactly invariant, so the
        # column stops after at most that many steps; rotated, the rounding
        # outside it grows step by step and the column may run on.
        m = min(m, d)
        rng = RngState(seed)
        lam = np.exp(rng.child(0).uniform(0.0, log_kappa * np.log(10.0), size=d))
        vecs = np.linalg.qr(rng.child(1).standard_normal((d, d)))[0] if rotate else np.eye(d)
        a = symmetrize((vecs * lam) @ vecs.T)
        ranks = [min(r, d) or d for r in ranks]
        z = np.stack([vecs[:, :r] @ rng.child(2, c).standard_normal(r)
                      for c, r in enumerate(ranks)], axis=1)
        matvec, zb, tol = krylov._sym_args(a, z, m)
        outputs = []

        def caching(v, live):
            out = matvec(v, live)
            outputs.append((out, out.copy()))
            return out

        q, alpha, beta, steps, _ = (x[0] for x in krylov._lanczos_block(caching, zb, m, tol))
        for c, r in enumerate(ranks):
            assert 1 <= steps[c] <= (m if rotate else min(r, m))
            assert_lanczos_invariants(a, q[c], alpha[c], beta[c], steps[c])
        assert all(np.array_equal(out, copy) for out, copy in outputs)


class TestFaTimesVec:
    def test_identity_matrix_inverse(self):
        z = RngState(43).generator().standard_normal(6)
        y, mvps = fa_times_vec_lanczos(SymMatrix(np.eye(6)), z, 3, "inv")
        np.testing.assert_allclose(y, z, atol=1e-12)

    def test_diag_inv_sqrt_exact(self):
        a = SymMatrix(np.diag([1.0, 4.0]))
        z = np.array([1.0, 1.0]) / np.sqrt(2)
        y, mvps = fa_times_vec_lanczos(a, z, 2, "inv_sqrt")
        np.testing.assert_allclose(y, np.array([1.0, 0.5]) / np.sqrt(2), atol=1e-12)
        assert mvps == 2

    def test_nonpositive_ritz_raises(self):
        a = SymMatrix(np.diag([-1.0, 2.0]))
        with pytest.raises(SpectrumError):
            fa_times_vec_lanczos(a, np.ones(2), 2, "inv")

    def test_exp_of_early_stop_on_negative_spectrum(self):
        # Every column of -1000 I stops after one step, and exp(-1000) is 0.
        z = RngState(45).generator().standard_normal((3, 2))
        y, mvps = fa_times_vec_lanczos(SymMatrix(-1000.0 * np.eye(3)), z, 3, "exp")
        assert mvps == 2
        assert np.array_equal(y, np.zeros((3, 2)))
        # The first column stops after one step and the second after three,
        # so the first's T is padded: exp must meet no value outside it.
        a = SymMatrix(np.diag([-1000.0, -1000.0, -1.0, -2.0]))
        z = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]).T
        y, mvps = fa_times_vec_lanczos(a, z, 4, "exp")
        assert mvps == 1 + 3
        np.testing.assert_allclose(y, np.exp(np.diag(a.entries))[:, None] * z,
                                   rtol=1e-12, atol=1e-14)

    def test_saturation_exactness(self):
        g = RngState(44).generator()
        a = sample_spd_with_spectrum(12, 8.0, g)
        z = g.standard_normal(12)
        exact = sym_eigen(a).apply_function(lambda v: v ** -0.5, z)
        y, mvps = fa_times_vec_lanczos(a, z, 12, "inv_sqrt")
        assert mvps == 12
        assert np.linalg.norm(y - exact) <= 1e-6 * np.linalg.norm(exact)

    @pytest.mark.parametrize("draw", ["kappa_1e4", "wishart"])
    def test_full_space_quadratic_forms_are_exact(self, draw):
        # At m = d the Gauss quadrature z^T f(T_d) z is z^T A^{-1} z itself,
        # on ill-conditioned spectra too, but only while the basis stays
        # orthogonal: a recurrence without reorthogonalization misses this.
        rng = RngState(45)
        for i in range(4):
            if draw == "wishart":
                a = sample_wishart(32, rng.child(0, i))
            else:
                a = sample_spd_with_spectrum(64, 1e4, rng.child(0, i))
            z = rng.child(1, i).standard_normal((a.dim, 8))
            y, _ = fa_times_vec_lanczos(a, z, a.dim, "inv")
            got = np.einsum("ij,ij->j", z, y)
            want = np.einsum("ij,ij->j", z, np.linalg.solve(a.entries, z))
            np.testing.assert_allclose(got, want, rtol=1e-7, atol=0)

    def test_error_within_polynomial_bound(self):
        # m-step Lanczos must beat any certified degree-(m-1) polynomial.
        kappa = 16.0
        d = 24
        a = SymMatrix(np.diag(np.linspace(1.0, kappa, d)))
        z = np.ones(d) / np.sqrt(d)
        exact = 1.0 / np.diag(a.entries) * z
        family = []
        for delta in np.logspace(np.log10(0.49), -6, 40):
            p = inv_poly(kappa, float(delta))
            err = sup_error(p, ApproxTarget("inv", kappa=kappa, delta=float(delta)),
                            max(4096, 10 * p.degree()))
            family.append((p.degree(), err))
        for m in range(2, 21):
            certs = [err for deg, err in family if deg <= m - 1]
            if not certs:
                continue
            y, _ = fa_times_vec_lanczos(a, z, m, "inv")
            lan_err = np.linalg.norm(y - exact)
            assert lan_err <= min(certs) * (1 + 1e-6)


def reciprocal_or_raise(vals):
    """1 / vals through a callable, which takes the eigen route; raises
    SpectrumError naming the smallest value as the "inv" tag does."""
    smallest = float(np.min(vals))
    if smallest <= 0:
        raise SpectrumError(smallest)
    return 1.0 / vals


class TestInvPivots:
    """f = "inv" reads T^-1 e_1 from T's backward pivots; every other f,
    callables included, eigensolves T."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=40),
           st.floats(min_value=1.0, max_value=1e6), st.integers(min_value=0, max_value=10 ** 6))
    def test_pivots_match_the_eigen_route(self, d, m, kappa, seed):
        m = min(m, d)
        rng = RngState(seed)
        a = sample_spd_with_spectrum(d, kappa, rng.child(0))
        z = rng.child(1).standard_normal((d, 3))
        got, steps = fa_times_vec_lanczos(a, z, m, "inv")
        want, want_steps = fa_times_vec_lanczos(a, z, m, lambda v: 1.0 / v)
        assert steps == want_steps
        err = np.linalg.norm(got - want, axis=0)
        assert np.all(err <= 1e-12 * kappa * np.linalg.norm(want, axis=0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.floats(min_value=1.0, max_value=1e6),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_full_space_is_the_dense_solve(self, d, kappa, seed):
        # The forward error of either solve grows like kappa d eps, so the
        # 1e-10 bound is widened once kappa d passes 1e5.
        rng = RngState(seed)
        a = sample_spd_with_spectrum(d, kappa, rng.child(0))
        z = rng.child(1).standard_normal((d, 3))
        got, _ = fa_times_vec_lanczos(a, z, d, "inv")
        want = np.linalg.solve(a.entries, z)
        rtol = max(1e-10, 1e-15 * kappa * d)
        err = np.linalg.norm(got - want, axis=0)
        assert np.all(err <= rtol * np.linalg.norm(want, axis=0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=40),
           st.floats(min_value=2.0, max_value=1e6), st.integers(min_value=0, max_value=10 ** 6))
    def test_indefinite_operator_raises_the_eigen_routes_value(self, d, m, kappa, seed):
        # Shift B's spectrum [1, kappa] down past every probe's Rayleigh
        # quotient but not past kappa: A is indefinite, and every alpha_1,
        # hence the smallest Ritz value, is negative.
        m = min(m, d)
        rng = RngState(seed)
        b = sample_spd_with_spectrum(d, kappa, rng.child(0)).entries
        z = rng.child(1).standard_normal((d, 3))
        quotient = float(np.max(np.einsum("ij,ij->j", z, b @ z) / np.sum(z * z, axis=0)))
        assume(quotient < kappa)
        a = SymMatrix(b - (quotient + kappa) / 2.0 * np.eye(d))
        with pytest.raises(SpectrumError) as got:
            fa_times_vec_lanczos(a, z, m, "inv")
        with pytest.raises(SpectrumError) as want:
            fa_times_vec_lanczos(a, z, m, reciprocal_or_raise)
        assert got.value.value == want.value.value < 0


def poly_times_vec(a, p, z):
    """p(A) z through the block Clenshaw as a d x 1 block."""
    y, mvps = poly_times_block(a, p, z[:, None])
    return y[:, 0], mvps


class TestPolyTimesVec:
    def test_linear_polynomial_is_matvec(self):
        g = RngState(45).generator()
        a = symmetrize(g.standard_normal((5, 5)) * 0.1)
        z = g.standard_normal(5)
        p = ChebPoly((-1.0, 1.0), [0.0, 1.0])
        y, mvps = poly_times_vec(a, p, z)
        np.testing.assert_allclose(y, a.entries @ z, atol=1e-12)
        assert mvps == 1

    def test_inv_poly_componentwise(self):
        a = SymMatrix(np.diag([1.0, 2.0, 4.0]))
        z = RngState(46).generator().standard_normal(3)
        p = inv_poly(4.0, 0.1)
        y, mvps = poly_times_vec(a, p, z)
        target = np.array([1.0, 0.5, 0.25]) * z
        assert np.max(np.abs(y - target) / np.abs(z)) <= 0.025
        assert mvps == p.degree()

    def test_matches_eigendecomposition_oracle(self):
        g = RngState(47).generator()
        a = symmetrize(g.standard_normal((6, 6)) * 0.15)
        z = g.standard_normal(6)
        p = ChebPoly((-1.0, 1.0), g.standard_normal(6))
        eig = sym_eigen(a)
        expected = eig.eigvecs @ (p.evaluate(eig.eigvals) * (eig.eigvecs.T @ z))
        y, _ = poly_times_vec(a, p, z)
        np.testing.assert_allclose(y, expected, atol=1e-10)

    def test_block_matches_per_vector(self):
        g = RngState(48).generator()
        a = sample_spd_with_spectrum(8, 4.0, g)
        p = inv_poly(4.0, 0.1)
        zblock = g.standard_normal((8, 5))
        yblock, mvps = poly_times_block(a, p, zblock)
        assert mvps == p.degree() * 5
        for j in range(5):
            y, _ = poly_times_vec(a, p, zblock[:, j])
            np.testing.assert_allclose(yblock[:, j], y, atol=1e-10)

    def test_constant_poly_costs_nothing(self):
        p = ChebPoly((-1.0, 1.0), [2.5])
        y, mvps = poly_times_vec(SymMatrix(np.eye(3)), p, np.ones(3))
        np.testing.assert_allclose(y, 2.5 * np.ones(3))
        assert mvps == 0


class TestBatchedLanczos:
    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_columns_match_solo_runs(self, k):
        d, m = 256, 64
        assert 17 > krylov._CHUNK_BYTES // (8 * m * d)  # k=17 spans chunks
        g = RngState(52).generator()
        a = sample_spd_with_spectrum(d, 16.0, g)
        z = g.standard_normal((d, k))
        y, mvps = fa_times_vec_lanczos(a, z, m, "inv_sqrt")
        assert y.shape == (d, k)
        solo_mvps = 0
        for c in range(k):
            yc, mc = fa_times_vec_lanczos(a, z[:, c], m, "inv_sqrt")
            solo_mvps += mc
            assert np.linalg.norm(y[:, c] - yc) <= 1e-12 * np.linalg.norm(yc)
        assert mvps == solo_mvps == k * m

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([5, 33, 64, 192, 300]),
           k=st.integers(min_value=1, max_value=20),
           m=st.integers(min_value=1, max_value=12),
           f=st.sampled_from(["inv", "inv_sqrt"]),
           chunk_bytes=st.integers(min_value=1, max_value=2 ** 21),
           data=st.data())
    def test_column_bytes_ignore_chunks_splits_and_order(self, d, k, m, f,
                                                         chunk_bytes, data):
        # A column's bytes depend on A, its start vector and m alone: not on
        # the chunk bound, the other columns of its call, its position or
        # the layout of z (a fancy-indexed block is column-major).  Gaussian
        # start vectors, unlike Rademacher ones, have inexact norms.
        m = min(m, d)
        perm = data.draw(st.permutations(range(k)))
        cuts = sorted(data.draw(st.sets(st.integers(1, k - 1))) if k > 1 else [])
        g = RngState(d * 1000 + k).generator()
        a = sample_spd_with_spectrum(d, 16.0, g)
        z = g.standard_normal((d, k))
        with linalg._one_blas_thread():
            want, _ = fa_times_vec_lanczos(a, z, m, f)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(krylov, "_CHUNK_BYTES", chunk_bytes)
                for part in np.split(np.array(perm), cuts):
                    got, mvps = fa_times_vec_lanczos(a, z[:, part], m, f)
                    assert mvps == len(part) * m
                    for j, c in enumerate(part):
                        assert got[:, j].tobytes() == want[:, c].tobytes()

    def test_mixed_breakdown_block(self):
        a = SymMatrix(np.diag([1.0, 2.0, 5.0, 7.0]))
        z = np.array([[1.0, 1.0, 0.0, 0.0],
                      [1.0, -1.0, 1.0, 1.0],
                      [1.0, 1.0, 1.0, 1.0]]).T
        steps = run_lanczos(a, z, 4)[3]
        assert steps.tolist() == [2, 4, 4]
        y, mvps = fa_times_vec_lanczos(a, z, 4, "inv")
        assert mvps == 10
        for c in range(3):
            yc, _ = fa_times_vec_lanczos(a, z[:, c], 4, "inv")
            np.testing.assert_allclose(y[:, c], yc, rtol=1e-12, atol=0)
            np.testing.assert_allclose(y[:, c], z[:, c] / np.diag(a.entries),
                                       rtol=1e-12)

    def test_block_bases_stay_orthonormal(self):
        # Without reorthogonalization the basis loses orthogonality within
        # a few dozen steps on a spread spectrum.
        g = RngState(54).generator()
        a = sample_spd_with_spectrum(120, 1e4, g)
        q, _, _, steps, _ = run_lanczos(a, g.standard_normal((120, 3)), 80)
        assert steps.tolist() == [80, 80, 80]
        for basis in q:
            assert np.max(np.abs(basis @ basis.T - np.eye(80))) <= 1e-8

    def test_nonpositive_ritz_in_block_raises(self):
        a = SymMatrix(np.diag([-1.0, 2.0, 3.0]))
        z = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 0.0]]).T
        with pytest.raises(SpectrumError):
            fa_times_vec_lanczos(a, z, 2, "inv")

    def test_block_clenshaw_matches_dense_oracle(self):
        g = RngState(53).generator()
        a = sample_spd_with_spectrum(20, 4.0, g)
        backend = ChebBackend(ChebPoly((0.5, 5.0), g.standard_normal(12)))
        z = g.standard_normal((20, 6))
        y, mvps = backend.apply_block(a, z)
        dense = sym_eigen(a).apply_function(backend.poly.evaluate, np.eye(20))
        np.testing.assert_allclose(y, dense @ z, rtol=0, atol=1e-10)
        assert mvps == 6 * backend.poly.degree()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=10 ** 6))
    def test_ledger_is_probes_times_cost(self, d, probes, m, seed):
        m = min(m, d)
        a = sample_spd_with_spectrum(d, 8.0, RngState(seed).child(0))
        spec = ProbeSpec("gaussian", probes, RngState(seed, 1))
        p = inv_poly(8.0, 0.1)
        assert hutchinson(a, ChebBackend(p), spec).mvp_count == probes * p.degree()
        # Gaussian probes on a generic spectrum never break down before m.
        assert hutchinson(a, LanczosBackend("inv", m), spec).mvp_count == probes * m


def operator_entries(kind, d, rng):
    """A d x d SPD matrix, 2 I (every column breaks down after one step) or
    one with negative spectrum (f = inv rejects it)."""
    if kind == "spd":
        return sample_spd_with_spectrum(d, 8.0, rng).entries
    return 2.0 * np.eye(d) if kind == "2I" else np.diag(-np.arange(1.0, d + 1))


def recording(entries, seen):
    """A stack matvec by the g x d x d entries, through the Lanczos product,
    that appends each (V, live) it receives to seen."""
    def matvec(v, live):
        seen.append((v.copy(), live.copy()))
        return product(entries)(v, live)
    return matvec


def product(entries):
    """The stack matvec of the g x d x d entries as a Lanczos run forms it."""
    return lambda v, live: panel_product(v.swapaxes(1, 2), entries).swapaxes(1, 2)


class TestOperatorStack:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["spd", "2I", "negative"]),
                    min_size=1, max_size=4),
           st.integers(min_value=1, max_value=20),
           st.integers(min_value=2, max_value=16),
           st.integers(min_value=1, max_value=16),
           st.sampled_from([8, 16]),
           st.sampled_from(["inv", "exp"]),
           st.integers(min_value=0, max_value=10 ** 6))
    # f rejects the negative operator in the first of two chunks; alone, its
    # twelve columns run in one chunk.
    @example(["spd", "negative"], 12, 4, 2, 8, "inv", 0)
    def test_each_operator_matches_its_solo_run(self, kinds, c, d, m, width, f, seed):
        # Chunks of `width` columns of each operator, against a solo run's
        # chunks of g * width columns; any chunk width, one column included,
        # gives a column the same bits.
        m = min(m, d)
        g = len(kinds)
        rng = RngState(seed)
        entries = np.stack([operator_entries(kind, d, rng.child(0, i))
                            for i, kind in enumerate(kinds)])
        z = rng.child(1).standard_normal((g, d, c))
        seen = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(krylov, "_CHUNK_BYTES", width * 8 * g * m * d)
            y, mvps, errors = fa_times_vec_oracle(recording(entries, seen),
                                                  d, z, m, f)
            for t in range(g):
                want, steps, (error,) = fa_times_vec_oracle(
                    product(entries[t : t + 1]), d, z[t : t + 1], m, f)
                assert y[t].tobytes() == want[0].tobytes()
                assert type(errors[t]) is type(error)
                assert sum(int(live[t].sum()) for _, live in seen) == steps
        assert mvps == sum(int(live.sum()) for _, live in seen)
        for v, live in seen:
            norms = np.linalg.norm(v, axis=1)
            assert np.all(norms[live] > 0) and np.all(norms[~live] == 0)

    def test_exp_of_mixed_early_stops(self):
        # Columns stop after 1 (-1000 I), 3 (three distinct eigenvalues) and
        # 4 (generic SPD) steps; each must match exp(A) z.
        d = 4
        entries = [-1000.0 * np.eye(d), np.diag([-30.0, -30.0, 0.5, 1.0]),
                   sample_spd_with_spectrum(d, 8.0, RngState(46).generator()).entries]
        z = RngState(47).generator().standard_normal((3, d, 2))
        y, mvps, errors = fa_times_vec_oracle(
            lambda v, live: np.stack(entries) @ v, d, z, d, "exp")
        assert errors == [None, None, None]
        assert mvps == 2 * (1 + 3 + 4)
        for e, zt, yt in zip(entries, z, y):
            exact = sym_eigen(SymMatrix(e)).apply_function(np.exp, zt)
            np.testing.assert_allclose(yt, exact, rtol=1e-10, atol=1e-12)
