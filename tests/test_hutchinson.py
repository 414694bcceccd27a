import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import linalg
from tracebounds.approx import ApproxTarget, inv_poly
from tracebounds.errors import UsageError
from tracebounds.hutchinson import (
    ChebBackend,
    ExactBackend,
    LanczosBackend,
    ProbeSpec,
    bias_bound,
    build_target_poly,
    estimate_tr_f,
    hutchinson,
    quadratic_forms,
)
from tracebounds.linalg import SymMatrix, sample_spd_with_spectrum, sym_eigen
from tracebounds.rng import RngState


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 191, 192, 513])
@pytest.mark.parametrize("s", [0, 1, 63, 64, 65, 130])
def test_rademacher_probes_are_rademacher_draws(n, s):
    # ProbeSpec reads the signs from the stream's raw Philox words; on a
    # fresh stream they are numpy's integers(0, 2) draws.  Ids 63 and 64
    # sit on either side of the first 64-id key block.
    for seed in (0, 12, 2 ** 70 + 3):
        spec = ProbeSpec("rademacher", s + 1, RngState(seed, 4))
        want = RngState(seed, 4).child(s).integers(0, 2, size=n) * 2.0 - 1.0
        assert spec.draw(n)[:, s].tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([5, 33, 64, 192]),
       k=st.integers(min_value=1, max_value=12),
       m=st.integers(min_value=1, max_value=12),
       f=st.sampled_from(["inv", "inv_sqrt"]),
       kind=st.sampled_from(["rademacher", "gaussian"]),
       data=st.data())
def test_lanczos_form_bytes_ignore_probe_count_split_and_order(d, k, m, f, kind,
                                                               data):
    # A probe's quadratic form depends on A, the probe and m alone: not on
    # the probe count, the other probes of its block or its column.
    m = min(m, d)
    a = sample_spd_with_spectrum(d, 16.0, RngState(d * 100 + k).generator())
    backend = LanczosBackend(f, m)
    spec = ProbeSpec(kind, k, RngState(k, 3))
    count = data.draw(st.integers(min_value=1, max_value=k))
    perm = data.draw(st.permutations(range(k)))
    cuts = sorted(data.draw(st.sets(st.integers(1, k - 1))) if k > 1 else [])
    z = spec.draw(d)
    with linalg._one_blas_thread():
        want = hutchinson(a, backend, spec).quadratic_forms
        fewer = ProbeSpec(kind, count, spec.rng)
        got = hutchinson(a, backend, fewer).quadratic_forms
        assert got.tobytes() == want[:count].tobytes()
        for part in np.split(np.array(perm), cuts):
            y, _ = backend.apply_block(a, z[:, part])
            assert quadratic_forms(z[:, part], y).tobytes() == want[part].tobytes()


def exhaustive_rademacher_mean(a, backend):
    """Average z^T f(A) z over all 2^d sign vectors: the exact expectation."""
    d = a.dim
    z = np.array(list(itertools.product([-1.0, 1.0], repeat=d))).T
    y, _ = backend.apply_block(a, z)
    return float(np.sum(z * y)) / 2 ** d


class TestHutchinson:
    def test_identity_trace_is_exact(self):
        a = SymMatrix(np.eye(7))
        est = hutchinson(a, ExactBackend("identity"),
                         ProbeSpec("rademacher", 5, RngState(7)))
        assert est.value == pytest.approx(7.0, abs=1e-12)
        assert est.sample_stddev == pytest.approx(0.0, abs=1e-12)

    def test_2x2_brute_force(self):
        a = SymMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        backend = ExactBackend("identity")
        assert exhaustive_rademacher_mean(a, backend) == pytest.approx(5.0)

    def test_cheb_backend_within_bias_bound(self):
        a = SymMatrix(np.diag([1.0, 2.0, 4.0]))
        target = ApproxTarget("inv", kappa=4.0, delta=0.1)
        backend = ChebBackend(inv_poly(4.0, 0.1), "inv")
        est = hutchinson(a, backend, ProbeSpec("rademacher", 10_000, RngState(8)))
        true_trace = 1.0 + 0.5 + 0.25
        bias = bias_bound(target, 3)
        assert abs(est.value - true_trace) <= bias + 4 * est.standard_error()

    def test_mvp_ledger_cheb(self):
        a = SymMatrix(np.diag([1.0, 2.0]))
        p = inv_poly(4.0, 0.1)
        est = hutchinson(a, ChebBackend(p, "inv"),
                         ProbeSpec("rademacher", 6, RngState(9)))
        assert est.mvp_count == 6 * p.degree()

    def test_mvp_ledger_lanczos(self):
        a = SymMatrix(np.diag([1.0, 2.0, 4.0, 8.0]))
        est = hutchinson(a, LanczosBackend("inv", 3),
                         ProbeSpec("gaussian", 5, RngState(10)))
        assert est.mvp_count == 5 * 3

    def test_probe_determinism(self):
        a = SymMatrix(np.diag([1.0, 3.0]))
        kwargs = dict(a=a, backend=ExactBackend("identity"))
        e1 = hutchinson(probes=ProbeSpec("gaussian", 20, RngState(11)), **kwargs)
        e2 = hutchinson(probes=ProbeSpec("gaussian", 20, RngState(11)), **kwargs)
        assert e1.value == e2.value
        np.testing.assert_array_equal(e1.quadratic_forms, e2.quadratic_forms)

    @pytest.mark.parametrize("backend_name", ["exact", "lanczos", "cheb"])
    def test_exhaustive_unbiasedness_small_d(self, backend_name):
        # with all 2^d Rademacher probes the estimator equals tr f(A) exactly
        g = RngState(12).generator()
        for d in (2, 3, 4):
            a = sample_spd_with_spectrum(d, 4.0, g)
            eig = sym_eigen(a)
            true_val = np.sum(1.0 / eig.eigvals)
            if backend_name == "exact":
                backend = ExactBackend("inv")
                true_trace = true_val
            elif backend_name == "lanczos":
                backend = LanczosBackend("inv", d)
                true_trace = true_val
            else:
                p = inv_poly(4.0, 0.01)
                backend = ChebBackend(p, "inv")
                true_trace = np.sum(p.evaluate(np.clip(eig.eigvals, 1.0, 4.0)))
            mean = exhaustive_rademacher_mean(a, backend)
            assert abs(mean - true_trace) <= 1e-10

    def test_stddev_scaling(self):
        g = RngState(13).generator()
        a = sample_spd_with_spectrum(32, 16.0, g)
        errs = {}
        for n in (64, 256, 1024):
            est = hutchinson(a, ExactBackend("inv"),
                             ProbeSpec("rademacher", n, RngState(14)))
            errs[n] = est.standard_error()
        # standard error should shrink like 1/sqrt(N_v), within 30%
        assert errs[256] / errs[64] == pytest.approx(0.5, rel=0.3)
        assert errs[1024] / errs[256] == pytest.approx(0.5, rel=0.3)


class TestBiasBound:
    def test_inv_example(self):
        assert bias_bound(ApproxTarget("inv", kappa=4.0, delta=0.1), 10) \
            == pytest.approx(10 * 0.1 / 4.0)

    def test_inv_sqrt_example(self):
        assert bias_bound(ApproxTarget("inv_sqrt", kappa=16.0, delta=0.4), 1) \
            == pytest.approx(0.4 / 4.0)

    def test_monomial_rejected(self):
        with pytest.raises(UsageError):
            ApproxTarget("monomial", kappa=16.0, delta=0.1)


class TestEstimateTrF:
    def test_total_error_decomposition(self):
        g = RngState(15).generator()
        d, kappa = 16, 8.0
        a = sample_spd_with_spectrum(d, kappa, g)
        target = ApproxTarget("inv_sqrt", kappa=kappa, delta=0.01)
        est = estimate_tr_f(a, target, 2048, RngState(16))
        true_trace = np.sum(sym_eigen(a).eigvals ** -0.5)
        budget = bias_bound(target, d) + 4 * est.standard_error()
        assert abs(est.value - true_trace) <= budget

    def test_backend_poly_certified(self):
        target = ApproxTarget("inv", kappa=4.0, delta=0.1)
        p = build_target_poly(target)
        xs = np.linspace(1.0, 4.0, 2000)
        assert np.max(np.abs(p.evaluate(xs) - 1.0 / xs)) <= 0.1 / 4.0

    def test_gaussian_probes_supported(self):
        a = SymMatrix(np.diag([1.0, 2.0, 4.0]))
        target = ApproxTarget("inv", kappa=4.0, delta=0.01)
        est = estimate_tr_f(a, target, 4000, RngState(17), probe_kind="gaussian")
        assert est.value == pytest.approx(1.75, abs=0.3)
