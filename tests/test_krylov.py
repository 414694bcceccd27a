import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import krylov
from tracebounds.approx import ApproxTarget, inv_poly, sup_error
from tracebounds.chebyshev import ChebPoly
from tracebounds.errors import SpectrumError
from tracebounds.hutchinson import ChebBackend, LanczosBackend, ProbeSpec, hutchinson
from tracebounds.krylov import fa_times_vec_lanczos, poly_times_block
from tracebounds.linalg import (
    SymMatrix,
    sample_spd_with_spectrum,
    sym_eigen,
    symmetrize,
)
from tracebounds.rng import RngState


def run_lanczos(a, z, m):
    """krylov._lanczos_block on an explicit matrix at the breakdown tolerance
    fa_times_vec_lanczos uses; z is a length-d vector or a d x k block."""
    matvec, zb, tol = krylov._sym_args(a, z, m)
    owner = np.zeros(zb.shape[1], dtype=np.intp)  # one matvec for every column
    return krylov._lanczos_block([matvec], owner, zb, m, tol)


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

    def test_saturation_exactness(self):
        g = RngState(44).generator()
        a = sample_spd_with_spectrum(12, 8.0, g)
        z = g.standard_normal(12)
        exact = sym_eigen(a).apply_function(lambda v: v ** -0.5, z)
        y, mvps = fa_times_vec_lanczos(a, z, 12, "inv_sqrt")
        assert mvps == 12
        assert np.linalg.norm(y - exact) <= 1e-6 * np.linalg.norm(exact)

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
        np.testing.assert_allclose(y, backend.matrix(a) @ z, rtol=0, atol=1e-10)
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
