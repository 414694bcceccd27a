"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Lines are written to the real stdout so they survive pytest capture; run
with ``pytest tests/test_acceptance.py -v`` and the verdicts appear inline.
Every test also enforces its own runtime limit.
"""

import itertools
import sys
import time

import numpy as np

import conftest
from tracebounds.approx import ApproxTarget, inv_poly, inv_sqrt_poly, sup_error
from tracebounds.cli import main as cli_main
from tracebounds.hutchinson import (
    ChebBackend,
    ExactBackend,
    LanczosBackend,
    bias_bound,
    estimate_tr_f,
)
from tracebounds.krylov import fa_times_vec_lanczos
from tracebounds.linalg import (
    SymMatrix,
    sample_spd_with_spectrum,
    sample_wishart,
    sym_eigen,
)
from tracebounds.rng import RngState
from tracebounds.wishart import (
    ExactRecovery,
    HutchinsonKrylov,
    eig_cdf_experiment,
    inv_trace_tail_experiment,
    make_transcript,
    posterior_decompose,
    posterior_distribution_test,
    query_game,
)


def _verdict(num: int, desc: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    line = f"[ACCEPTANCE {num:2d}] {status}  {desc}  ({elapsed:.1f}s, limit {limit:.0f}s)"
    print(line, file=sys.__stdout__, flush=True)
    conftest.verdict_lines.append(line)
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < limit, f"criterion {num} exceeded {limit:.0f}s ({elapsed:.1f}s)"


LATTICE = list(itertools.product([2.0, 4.0, 16.0, 64.0], [0.4, 0.1, 0.01]))


def test_criterion_01_inv_sqrt_certificates():
    t0 = time.perf_counter()
    ok = True
    for kappa, delta in LATTICE:
        p = inv_sqrt_poly(kappa, delta)
        err = sup_error(p, ApproxTarget("inv_sqrt", kappa=kappa, delta=delta),
                        max(4096, 10 * p.degree()))
        ok &= err <= delta / np.sqrt(kappa)
    _verdict(1, "inv_sqrt certificates <= delta/sqrt(kappa) on full lattice",
             ok, time.perf_counter() - t0, 10)


def test_criterion_02_inv_certificates():
    t0 = time.perf_counter()
    ok = True
    for kappa, delta in LATTICE:
        p = inv_poly(kappa, delta)
        err = sup_error(p, ApproxTarget("inv", kappa=kappa, delta=delta),
                        max(4096, 10 * p.degree()))
        ok &= err <= delta / kappa
    _verdict(2, "inv certificates <= delta/kappa on full lattice",
             ok, time.perf_counter() - t0, 10)


def test_criterion_03_degree_scaling():
    t0 = time.perf_counter()
    delta = 0.1
    ratios = []
    for kappa in (4.0, 16.0, 64.0, 256.0):
        deg = inv_poly(kappa, delta).degree()
        ratios.append(deg / (np.sqrt(kappa) * np.log(kappa / delta)))
    ok = max(ratios) / min(ratios) <= 4.0
    _verdict(3, "inv_poly degree tracks sqrt(kappa) log(kappa/delta) within 4x",
             ok, time.perf_counter() - t0, 30)


def test_criterion_04_exhaustive_hutchinson():
    t0 = time.perf_counter()
    g = RngState(100).generator()
    kappa = 4.0
    p = inv_poly(kappa, 0.1)
    ok = True
    for k in range(20):
        d = 2 + k % 3
        a = sample_spd_with_spectrum(d, kappa, g)
        eig = sym_eigen(a)
        backends = [
            (ExactBackend("inv"), float(np.sum(1.0 / eig.eigvals))),
            (LanczosBackend("inv", d), float(np.sum(1.0 / eig.eigvals))),
            (ChebBackend(p, "inv"),
             float(np.sum(p.evaluate(np.clip(eig.eigvals, 1.0, kappa))))),
        ]
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=d))).T
        for backend, truth in backends:
            y, _ = backend.apply_block(a, signs)
            ok &= abs(float(np.sum(signs * y)) / 2 ** d - truth) <= 1e-10
    _verdict(4, "exhaustive Rademacher averaging reproduces tr(g(A)) to 1e-10",
             ok, time.perf_counter() - t0, 5)


def test_criterion_05_trace_pipeline():
    t0 = time.perf_counter()
    d, kappa, delta, n_probes = 64, 16.0, 0.01, 1024
    target = ApproxTarget("inv", kappa=kappa, delta=delta)
    bias = bias_bound(target, d)
    assert abs(bias - 0.04) < 1e-12
    passes = 0
    for seed in range(20):
        a = sample_spd_with_spectrum(d, kappa, RngState(seed, stream=5))
        true_trace = float(np.sum(1.0 / sym_eigen(a).eigvals))
        est = estimate_tr_f(a, target, n_probes, RngState(seed, stream=6))
        if abs(est.value - true_trace) <= 3 * est.standard_error() + bias:
            passes += 1
    _verdict(5, f"end-to-end inv trace at d=64 within 3 SE + bias ({passes}/20 seeds)",
             passes >= 19, time.perf_counter() - t0, 60)


def test_criterion_06_krylov_polynomial_equivalence():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for kappa in (4.0, 16.0):
        d = 32
        a = SymMatrix(np.diag(np.linspace(1.0, kappa, d)))
        z = np.ones(d) / np.sqrt(d)
        exact = (1.0 / np.diag(a.entries)) * z
        family = []
        for delta in np.logspace(np.log10(0.49), -7, 50):
            p = inv_poly(kappa, float(delta))
            err = sup_error(p, ApproxTarget("inv", kappa=kappa, delta=float(delta)),
                            max(4096, 10 * p.degree()))
            family.append((p.degree(), err))
        for m in range(2, 21):
            certs = [err for deg, err in family if deg <= m - 1]
            if not certs:
                continue
            checked += 1
            y, _ = fa_times_vec_lanczos(a, z, m, "inv")
            ok &= np.linalg.norm(y - exact) <= min(certs) * (1 + 1e-6)
    _verdict(6, f"Lanczos error beats degree m-1 inv_poly certificate ({checked} cases)",
             ok and checked > 0, time.perf_counter() - t0, 30)


def test_criterion_07_posterior_identity_interlacing():
    t0 = time.perf_counter()
    ok = True
    trial = 0
    for d, n in ((8, 2), (12, 4), (16, 8)):
        for i in range(500):
            rng = RngState(200, stream=trial)
            trial += 1
            g = rng.generator()
            w = sample_wishart(d, g)
            dec = posterior_decompose(w, make_transcript(w, g.standard_normal((d, n))))
            ok &= dec.block_residual(w) <= 1e-8 * w.max_norm()
            lmin_w = np.linalg.eigvalsh(w.entries)[0]
            lmin_t = np.linalg.eigvalsh(dec.wtilde.entries)[0]
            ok &= lmin_w <= lmin_t + 1e-12
    _verdict(7, "posterior block identity + lambda_min interlacing, 1500 trials",
             ok, time.perf_counter() - t0, 60)


def test_criterion_08_posterior_distribution():
    t0 = time.perf_counter()
    rep = posterior_distribution_test(12, 4, 2000, RngState(300))
    ok = (rep.ks_trace.p_value > 0.01 and rep.ks_lambda_min.p_value > 0.01
          and rep.ks_trace_uncorrected.p_value < 0.01)
    _verdict(8, "posterior KS vs Wishart(8): tr p={:.2f}, lmin p={:.2f}, control p={:.1e}".format(
        rep.ks_trace.p_value, rep.ks_lambda_min.p_value, rep.ks_trace_uncorrected.p_value),
        ok, time.perf_counter() - t0, 300)


def test_criterion_09_lambda_min_cdf_scaling():
    t0 = time.perf_counter()
    xs = [0.01, 0.04, 0.16, 0.64]
    rows = eig_cdf_experiment(16, 20_000, xs, RngState(400))
    probs = [r.probability for r in rows]
    ratio = probs[1] / probs[0]
    ok = 1.4 <= ratio <= 2.8 and probs == sorted(probs)
    _verdict(9, f"lambda_min CDF sqrt(x) scaling: F(0.04)/F(0.01) = {ratio:.2f}",
             ok, time.perf_counter() - t0, 180)


def test_criterion_10_inverse_trace_collapse():
    t0 = time.perf_counter()
    ok = True
    for p in (0.75, 1.0, 2.0):
        medians = []
        for k, d in enumerate((8, 16, 32)):
            rep = inv_trace_tail_experiment(d, 2000, p, RngState(500, stream=k))
            medians.append(rep.quantiles[0.5])
        ok &= max(medians) / min(medians) <= 4.0
    _verdict(10, "median tr(W^-p)/d^2p varies across d by at most 4x per p",
             ok, time.perf_counter() - t0, 300)


def test_criterion_11_query_game_sanity():
    t0 = time.perf_counter()
    exact = query_game(16, 1.0, 2.0, ExactRecovery(), budget=16, trials=50,
                       rng=RngState(600))
    d = 64
    big = query_game(d, 1.0, 2.0, HutchinsonKrylov(8, 32), budget=4 * d,
                     trials=200, rng=RngState(601))
    small = query_game(d, 1.0, 2.0, HutchinsonKrylov(2, 4), budget=d // 8,
                       trials=200, rng=RngState(602))
    ok = (exact.success_rate == 1.0
          and exact.budget_violations == 0
          and big.budget_violations == 0
          and small.budget_violations == 0
          and big.success_rate > small.success_rate)
    _verdict(11, "query game: exact=1.0, hutch 4d rate {:.2f} > d/8 rate {:.2f}".format(
        big.success_rate, small.success_rate),
        ok, time.perf_counter() - t0, 600)


def test_criterion_12_csv_determinism(tmp_path):
    t0 = time.perf_counter()
    runs = [
        ["wishart", "eigcdf", "--d", "8", "--trials", "300", "--seed", "7",
         "--format", "csv"],
        ["wishart", "lmax", "--d", "8", "--trials", "300", "--seed", "7",
         "--format", "csv"],
        ["wishart", "invtrace", "--d", "8", "--trials", "200", "--seed", "7",
         "--format", "csv"],
        ["wishart", "game", "--d", "8", "--algo", "exact", "--budget", "8",
         "--trials", "20", "--seed", "7", "--format", "csv"],
    ]
    ok = True
    for k, argv in enumerate(runs):
        a = tmp_path / f"a{k}.csv"
        b = tmp_path / f"b{k}.csv"
        ok &= cli_main(argv + ["--out", str(a)]) == 0
        ok &= cli_main(argv + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    _verdict(12, "experiment subcommands are byte-identical for a fixed seed",
             ok, time.perf_counter() - t0, 60)
