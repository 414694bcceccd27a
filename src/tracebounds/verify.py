"""Fast invariant battery behind the `tracebounds verify` subcommand.

Each check returns silently on success and raises AssertionError (or any
library error) on failure; the CLI prints one PASS/FAIL line per check.
"""

from __future__ import annotations

import numpy as np

from . import wishart
from .approx import (
    ApproxTarget,
    cheb_grid,
    inv_poly,
    monomial_cheb_approx,
    series_poly,
    sup_error,
)
from .hutchinson import (
    ChebBackend,
    ExactBackend,
    LanczosBackend,
    ProbeSpec,
    build_target_poly,
    hutchinson,
)
from .krylov import fa_times_vec_lanczos, poly_times_block
from .linalg import (
    SymMatrix,
    bidiagonal_counts,
    cholesky,
    sample_spd_with_spectrum,
    sample_wishart,
    sym_eigen,
)
from .rng import RngState
from .wishart import (
    _bidiagonal_spectra,
    _posterior_samples,
    _trial_bidiagonals,
    make_transcript,
    posterior_decompose,
)


def check_eigen_reconstruction():
    rng = RngState(101)
    for i, d in enumerate((3, 8, 17)):
        g = rng.child(i).standard_normal((d, d))
        a = SymMatrix((g + g.T) / 2.0)
        eig = sym_eigen(a)
        product = (eig.eigvecs * eig.eigvals) @ eig.eigvecs.T
        resid = np.max(np.abs(a.entries - product))
        assert resid <= 1e-8 * max(1.0, a.max_norm()) * d, f"residual {resid:g}"


def check_cholesky_round_trip():
    rng = RngState(102)
    for i in range(5):
        g = rng.child(i)
        d = 6
        low = np.tril(g.standard_normal((d, d)))
        np.fill_diagonal(low, np.abs(np.diag(low)) + 0.5)
        s = SymMatrix(low @ low.T)
        low2 = cholesky(s)
        assert np.max(np.abs(low2 - low)) <= 1e-10 * max(1.0, s.max_norm())


def check_wishart_psd():
    rng = RngState(103)
    for i in range(10):
        w = sample_wishart(6, rng.child(i))
        assert np.linalg.eigvalsh(w.entries)[0] >= -1e-10


def check_monomial_certificates():
    xs = cheb_grid((-1.0, 1.0), 4096)
    for s in (1, 3, 7, 25):
        for delta in (0.1, 0.01):
            p = monomial_cheb_approx(s, delta)
            err = float(np.max(np.abs(p.evaluate(xs) - xs ** s)))
            assert err <= delta, f"s={s} delta={delta} err={err:g}"


def check_inverse_certificates():
    for kappa in (2.0, 16.0):
        for delta in (0.4, 0.01):
            for kind in ("inv_sqrt", "inv"):
                target = ApproxTarget(kind, kappa=kappa, delta=delta)
                err = sup_error(build_target_poly(target), target, 4096)
                assert err <= target.delta / target.scale


def check_poly_witness():
    # The paper's series construction stays checked next to the interpolant
    # that replaced it: both meet the certificate on the grid, and the
    # series needs at least the interpolant's degree.
    for kind in ("inv_sqrt", "inv"):
        target = ApproxTarget(kind, kappa=64.0, delta=0.01)
        series, interp = series_poly(target), build_target_poly(target)
        for p in (series, interp):
            assert sup_error(p, target, 4096) <= target.delta / target.scale
        assert series.degree() >= interp.degree(), \
            f"{kind}: series degree {series.degree()} < {interp.degree()}"


def check_lanczos_saturation():
    rng = RngState(104)
    a = sample_spd_with_spectrum(10, 8.0, rng.child(0))
    z = rng.child(1).standard_normal(10)
    eig = sym_eigen(a)
    exact = eig.apply_function(lambda v: 1.0 / v, z)
    approx, mvps = fa_times_vec_lanczos(a, z, 10, "inv")
    assert mvps == 10
    assert np.linalg.norm(approx - exact) <= 1e-6 * np.linalg.norm(exact)


def check_mvp_ledger():
    rng = RngState(105)
    a = sample_spd_with_spectrum(12, 4.0, rng.child(0))
    p = inv_poly(4.0, 0.1)
    _, mvps = poly_times_block(a, p, rng.child(1).standard_normal((12, 1)))
    assert mvps == p.degree()
    est = hutchinson(a, ChebBackend(p), ProbeSpec("rademacher", 7, RngState(105, 1)))
    assert est.mvp_count == 7 * p.degree()
    est = hutchinson(a, LanczosBackend("inv", 5), ProbeSpec("rademacher", 3, RngState(105, 2)))
    assert est.mvp_count == 3 * 5


def check_hutchinson_exhaustive():
    rng = RngState(106)
    d = 3
    a = sample_spd_with_spectrum(d, 4.0, rng.child(0))
    backend = ExactBackend("inv")
    tr_exact = float(np.trace(backend.matrix(a)))
    signs = np.array([[1.0 if bits >> j & 1 else -1.0 for bits in range(2 ** d)]
                      for j in range(d)])
    w, _ = backend.apply_block(a, signs)
    total = float(np.sum(signs * w))
    assert abs(total / 2 ** d - tr_exact) <= 1e-10


def check_posterior_identity():
    rng = RngState(107)
    for i in range(20):
        w = sample_wishart(10, rng.child(0, i))
        q = rng.child(1, i).standard_normal((10, 3))
        dec = posterior_decompose(w, make_transcript(w, q))
        assert dec.block_residual(w) <= 1e-8 * w.max_norm()
        lmin_w = np.linalg.eigvalsh(w.entries)[0]
        lmin_wt = np.linalg.eigvalsh(dec.wtilde.entries)[0]
        assert lmin_w <= lmin_wt + 1e-10


def check_wishart_bidiagonal():
    # Each of 12 spectra at d = 40 is checked bit for bit against the
    # dense SVD of its upper bidiagonal B^T, against eigvalsh of its own
    # B B^T / d, and by the qd counts at the midpoints between its
    # eigenvalues against the count 0..d each midpoint separates.
    d = 40
    for a, b in _trial_bidiagonals(d, 12, RngState(108)):
        spectra = _bidiagonal_spectra(a, b)
        for i, lam in enumerate(spectra):
            bmat = np.diag(a[i]) + np.diag(b[i], -1)
            sigma = np.linalg.svd(bmat.T, compute_uv=False)
            assert np.array_equal(lam, sigma[::-1] ** 2 / d), f"trial {i}: SVD"
            want = np.linalg.eigvalsh(bmat @ bmat.T / d)
            err = np.max(np.abs(lam - want))
            assert err <= 1e-12 * want[-1], f"trial {i}: spectrum error {err:g}"
            mids = np.concatenate([[lam[0] / 2], (lam[1:] + lam[:-1]) / 2,
                                   [2 * lam[-1]]])
            counts = bidiagonal_counts(a[i:i + 1], b[i:i + 1], mids * d)[0]
            assert np.array_equal(counts, np.arange(d + 1)), f"trial {i}: counts"


def check_wishart_batched_trials():
    # Two full stacks of d x d matrices and part of a third, whatever the
    # bound (32 trials a stack at d = 32 and 256 KiB, so 68 trials).
    d, n = 32, 8
    trials = 2 * max(1, wishart._STACK_BYTES // (8 * d * d)) + 4
    rng = RngState(109)
    got = _posterior_samples(d, n, trials, rng)
    scale, queries = d / (d - n), np.eye(d)[:, :n]
    for i in range(trials):
        w = sample_wishart(d, rng.child(0, i))
        dec = posterior_decompose(w, make_transcript(w, queries))
        wt = scale * dec.wtilde.entries
        comp_t = dec.v[n:]
        ref = sample_wishart(d - n, rng.child(1, i)).entries
        want = (np.trace(wt), np.linalg.eigvalsh(wt)[0] * (d - n) ** 2,
                scale * np.trace(comp_t @ w.entries @ comp_t.T),
                np.trace(ref), np.linalg.eigvalsh(ref)[0] * (d - n) ** 2)
        err = np.max(np.abs(got[:, i] - want) / np.abs(want))
        assert err <= 1e-12, f"posterior trial {i}: relative error {err:g}"


ALL_CHECKS = [
    ("eigen_reconstruction", check_eigen_reconstruction),
    ("cholesky_round_trip", check_cholesky_round_trip),
    ("wishart_psd", check_wishart_psd),
    ("monomial_certificates", check_monomial_certificates),
    ("inverse_certificates", check_inverse_certificates),
    ("poly_witness", check_poly_witness),
    ("lanczos_saturation", check_lanczos_saturation),
    ("mvp_ledger", check_mvp_ledger),
    ("hutchinson_exhaustive", check_hutchinson_exhaustive),
    ("posterior_identity", check_posterior_identity),
    ("wishart_bidiagonal", check_wishart_bidiagonal),
    ("wishart_batched_trials", check_wishart_batched_trials),
]


def run_all(report=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, fn in ALL_CHECKS:
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures += 1
            report(f"FAIL {name}: {exc}")
        else:
            report(f"PASS {name}")
    return failures
