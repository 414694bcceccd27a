import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as _cheb

import tracebounds.linalg as linalg
from tracebounds.approx import (
    DEGREE_LAW_CONSTANT,
    ApproxTarget,
    _cheb_coeffs,
    _cheb_nodes,
    _rounding_bound,
    _series_sum,
    inv_poly,
    inv_sqrt_poly,
    monomial_cheb_approx,
    series_poly,
    sup_error,
    sup_error_bound,
    taylor_truncation_length,
)
from tracebounds.chebyshev import ChebPoly, cheb_grid
from tracebounds.rng import RngState


class TestChebPoly:
    def test_t3_value(self):
        p = ChebPoly((-1.0, 1.0), [0.0, 0.0, 0.0, 1.0])
        assert p.evaluate(0.5) == pytest.approx(-1.0)  # T_3 = 4x^3 - 3x

    def test_affine_map(self):
        p = ChebPoly((0.0, 2.0), [0.0, 1.0])
        assert p.evaluate(1.5) == pytest.approx(0.5)

    def test_matches_power_basis_oracle(self):
        g = RngState(31).generator()
        coeffs = g.standard_normal(7)
        p = ChebPoly((-1.0, 1.0), coeffs)
        power = _cheb.cheb2poly(coeffs)
        xs = g.uniform(-1, 1, size=50)
        expected = np.polyval(power[::-1], xs)
        np.testing.assert_allclose(p.evaluate(xs), expected, atol=1e-12)

    def test_outside_interval_warns(self):
        p = ChebPoly((0.0, 1.0), [1.0, 0.5])
        with pytest.warns(RuntimeWarning):
            p.evaluate(2.0)

    def test_json_round_trip_exact(self):
        g = RngState(32).generator()
        p = ChebPoly((1.0, 16.0), g.standard_normal(9))
        q = ChebPoly.from_dict(json.loads(json.dumps(p.to_dict())))
        assert q.interval == p.interval
        assert np.array_equal(q.coeffs, p.coeffs)  # bit-exact via repr

    def test_serialized_form(self):
        obj = json.loads(json.dumps(ChebPoly((0.0, 2.0), [0.25, 0.5]).to_dict()))
        assert obj == {"interval": [0.0, 2.0], "coeffs": [0.25, 0.5]}


def _monomial_error(p: ChebPoly, s: int) -> float:
    """Max |p(x) - x^s| over 4096 Chebyshev points of [-1, 1]."""
    xs = cheb_grid((-1.0, 1.0), 4096)
    return float(np.max(np.abs(p.evaluate(xs) - xs ** s)))


class TestMonomialApprox:
    def test_square_exact(self):
        p = monomial_cheb_approx(2, 0.1)
        np.testing.assert_allclose(p.coeffs, [0.5, 0.0, 0.5])

    def test_linear_exact(self):
        p = monomial_cheb_approx(1, 0.3)
        np.testing.assert_allclose(p.coeffs, [0.0, 1.0])

    def test_s8_exact_and_s50_compressed(self):
        p8 = monomial_cheb_approx(8, 0.01)
        assert p8.degree() == 8  # cap 10 >= 8, expansion kept in full
        assert _monomial_error(p8, 8) <= 1e-12
        p50 = monomial_cheb_approx(50, 0.1)
        assert p50.degree() == 18
        assert _monomial_error(p50, 50) <= 0.1

    @pytest.mark.parametrize("s", list(range(1, 13)) + [25, 50])
    @pytest.mark.parametrize("delta", [0.1, 0.01])
    def test_compression_lattice(self, s, delta):
        p = monomial_cheb_approx(s, delta)
        assert p.degree() <= min(s, math.ceil(math.sqrt(2 * s * math.log(2 / delta))))
        assert _monomial_error(p, s) <= delta


def _exact_monomial_coeffs(s, delta):
    """Compressed expansion of x^s from exact integer binomials.

    Python's int / int true division is correctly rounded, so every entry
    is the float nearest to 2^(1-s) C(s, (s-j)/2) (halved at j = 0).
    """
    deg = min(s, math.ceil(math.sqrt(2 * s * math.log(2 / delta))))
    c = np.zeros(deg + 1)
    for j in range(s % 2, deg + 1, 2):
        c[j] = 2 * math.comb(s, (s - j) // 2) / 2 ** s
    if s % 2 == 0:
        c[0] /= 2
    return c


class TestMonomialExactReference:
    @staticmethod
    def _check(s, delta):
        got = monomial_cheb_approx(s, delta).coeffs
        ref = _exact_monomial_coeffs(s, delta)
        assert got.shape == ref.shape
        assert np.all(got[ref == 0.0] == 0.0)
        nz = ref != 0.0
        assert np.max(np.abs(got[nz] - ref[nz]) / ref[nz]) <= 1e-13

    @pytest.mark.parametrize("delta", [0.5, 0.1, 1e-3, 1e-8, 1e-15])
    def test_every_power_up_to_300(self, delta):
        for s in range(1, 301):
            self._check(s, delta)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=300),
           st.floats(min_value=1e-15, max_value=0.99))
    def test_property(self, s, delta):
        self._check(s, delta)


def _series_sum_reference(coeff_of_t, sub_delta_of_t, length):
    """The per-term definition, sum_t c_t p_t with p_t the compressed
    expansion of y^t at accuracy delta_t, each p_t from exact binomials."""
    acc = np.array([coeff_of_t(0)])
    for t in range(1, length + 1):
        c = coeff_of_t(t) * _exact_monomial_coeffs(t, sub_delta_of_t(t))
        if len(c) > len(acc):
            acc = np.pad(acc, (0, len(c) - len(acc)))
        acc[: len(c)] += c
    return acc


@pytest.mark.parametrize("kappa", [4.0, 16.0, 64.0])
@pytest.mark.parametrize("delta", [0.1, 0.001])
def test_series_sum_matches_per_term_definition(kappa, delta):
    big_t = taylor_truncation_length(kappa, delta / 2)
    binom_coeffs = [1.0]
    for t in range(1, big_t + 1):
        binom_coeffs.append(binom_coeffs[-1] * (-0.5 - t + 1) / t)
    cases = [  # the two series that inv_poly and inv_sqrt_poly sum
        (lambda t: (-1.0) ** t, lambda t: delta / (2.0 * big_t)),
        (lambda t: binom_coeffs[t], lambda t: delta / (4.0 * t * t)),
    ]
    for coeff_of_t, sub_delta_of_t in cases:
        got = _series_sum(coeff_of_t, sub_delta_of_t, big_t).coeffs
        ref = _series_sum_reference(coeff_of_t, sub_delta_of_t, big_t)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


#: series_poly degrees of the (inv, inv_sqrt) targets at delta = 0.4, 0.1,
#: 0.01, 0.001, as the per-term scipy binom.pmf construction gave them.
PINNED_DEGREES = {
    2.0: [(3, 3), (5, 5), (8, 8), (11, 11)],
    16.0: [(30, 40), (39, 49), (53, 64), (66, 79)],
    64.0: [(78, 105), (95, 123), (122, 153), (150, 183)],
    256.0: [(190, 257), (223, 294), (278, 354), (333, 412)],
    1024.0: [(447, 609), (513, 682), (622, 800), (730, 916)],
}


@pytest.mark.parametrize("kappa", sorted(PINNED_DEGREES))
def test_degrees_pinned(kappa):
    got = [tuple(series_poly(ApproxTarget(kind, kappa=kappa, delta=d)).degree()
                 for kind in ("inv", "inv_sqrt"))
           for d in (0.4, 0.1, 0.01, 0.001)]
    assert got == PINNED_DEGREES[kappa]


@pytest.mark.parametrize("kind, delta", [
    ("inv", 0.001), ("inv_sqrt", 0.1), ("inv_sqrt", 0.001)])
def test_series_bytes_ignore_blas_thread_count(kind, delta):
    # A Vandermonde product through BLAS rounds by the thread count at these
    # points; the re-expansion on [1, kappa] must make no BLAS call.
    target = ApproxTarget(kind, kappa=1024.0, delta=delta)
    get, put = linalg._blas_thread_control()
    before = get()
    try:
        coeffs = []
        for threads in (1, 2):
            put(threads)
            coeffs.append(series_poly(target).coeffs.tobytes())
    finally:
        put(before)
    assert coeffs[0] == coeffs[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=400),
       st.floats(min_value=2.0, max_value=1e4),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cheb_coeffs_match_chebinterpolate(n, kappa, seed):
    # Both recover a degree-n polynomial on [1, kappa] from its values, the
    # DCT at the n + 1 _cheb_nodes, numpy's Vandermonde solve at the n + 1
    # first-kind points; relative tolerance 1e-12 of the largest coefficient.
    c = np.random.default_rng(seed).standard_normal(n + 1)
    p = ChebPoly((1.0, kappa), c)
    got = _cheb_coeffs(p.evaluate(_cheb_nodes(kappa, n)))
    ref = _cheb.chebinterpolate(lambda u: _cheb.chebval(u, c), n)
    assert got.shape == ref.shape == c.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


#: (inv_poly, inv_sqrt_poly) degrees, those of the Chebyshev interpolants, on
#: the lattice of PINNED_DEGREES.
INTERPOLANT_DEGREES = {
    2.0: [(3, 2), (4, 3), (5, 4), (7, 6)],
    16.0: [(18, 13), (21, 16), (26, 20), (31, 25)],
    64.0: [(45, 32), (51, 38), (61, 48), (71, 57)],
    256.0: [(109, 76), (121, 88), (140, 107), (160, 126)],
    1024.0: [(254, 176), (277, 199), (316, 238), (355, 277)],
}


@pytest.mark.parametrize("kappa", sorted(INTERPOLANT_DEGREES))
def test_interpolant_degrees_pinned(kappa):
    got = [(inv_poly(kappa, d).degree(), inv_sqrt_poly(kappa, d).degree())
           for d in (0.4, 0.1, 0.01, 0.001)]
    assert got == INTERPOLANT_DEGREES[kappa]
    for (n_inv, n_sqrt), (s_inv, s_sqrt) in zip(got, PINNED_DEGREES[kappa]):
        assert n_inv <= s_inv and n_sqrt <= s_sqrt


def _within_on_fine_grid(p: ChebPoly, target: ApproxTarget, bound: float) -> bool:
    """Whether |p - f| <= bound on 2^16 Chebyshev points and both ends."""
    a, b = p.interval
    xs = np.concatenate([[a, b], cheb_grid(p.interval, 2 ** 16)])
    return float(np.max(np.abs(p.evaluate(xs) - target.function()(xs)))) <= bound


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=2.0, max_value=1024.0),
       st.floats(min_value=1e-6, max_value=0.49),
       st.sampled_from(["inv", "inv_sqrt"]))
def test_sup_error_bound_is_an_upper_bound(kappa, delta, kind):
    target = ApproxTarget(kind, kappa=kappa, delta=delta)
    p = (inv_poly if kind == "inv" else inv_sqrt_poly)(kappa, delta)
    bound = sup_error_bound(target, p.degree())
    assert bound <= delta / target.scale
    assert _within_on_fine_grid(p, target, bound)
    # Negative control: the grid error sits 16-4500x below the bound here,
    # so a bound 10^4 times too small must fail the same check.
    assert not _within_on_fine_grid(p, target, bound / 1e4)


_PI = np.longdouble("3.14159265358979323846264338327950288")


def _interpolant_coeffs_long_double(kind, kappa, n):
    """Coefficients of the degree-n Chebyshev interpolant on [1, kappa] by
    the direct DCT-I sum in long double, at nodes and values in long double."""
    ld = np.longdouble
    j = np.arange(n + 1)
    x = 1 + (ld(kappa) - 1) * np.sin(_PI * (n - j).astype(ld) / (2 * n)) ** 2
    v = 1 / x if kind == "inv" else 1 / np.sqrt(x)
    v[[0, n]] /= 2
    c = (2 / ld(n)) * (v @ np.cos(_PI * (np.outer(j, j) % (2 * n)).astype(ld) / n))
    c[[0, n]] /= 2
    return c


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=2.0, max_value=1024.0),
       st.floats(min_value=1e-6, max_value=0.49),
       st.sampled_from(["inv", "inv_sqrt"]))
def test_coefficient_rounding_within_its_bound(kappa, delta, kind):
    # The rounding term of sup_error_bound bounds the 1-norm of the
    # coefficient errors; long double carries 11 more bits than the FFT.
    p = (inv_poly if kind == "inv" else inv_sqrt_poly)(kappa, delta)
    ref = _interpolant_coeffs_long_double(kind, kappa, p.degree())
    assert float(np.sum(np.abs(p.coeffs - ref))) <= _rounding_bound(p.degree())


class TestTaylorTruncationLength:
    def test_hand_case(self):
        assert taylor_truncation_length(2.0, 0.25) == 2

    def test_immediately_satisfied(self):
        assert taylor_truncation_length(2.0, 2.0) == 0

    def test_matches_linear_scan_oracle(self):
        kappa, delta_half = 16.0, 0.05
        t = 0
        while kappa * (1 - 1 / kappa) ** (t + 1) > delta_half:
            t += 1
        assert taylor_truncation_length(kappa, delta_half) == t

    def test_upper_bound(self):
        for kappa in (2.0, 7.0, 64.0):
            for dh in (0.3, 0.01):
                t = taylor_truncation_length(kappa, dh)
                assert t <= math.ceil(kappa * math.log(2 * kappa / dh)) + 1

    @pytest.mark.parametrize("kappa, delta_half", [
        (math.inf, 0.05), (math.nan, 0.05), (16.0, math.nan), (16.0, math.inf)])
    def test_rejects_nonfinite(self, kappa, delta_half):
        # kappa = inf makes the ratio 1 - 1/kappa exactly 1, so the scan
        # would never end; a NaN would end it at once with T = 0.
        with pytest.raises(ValueError, match="finite"):
            taylor_truncation_length(kappa, delta_half)


@pytest.mark.parametrize("kind, kappa, delta", [
    ("inv", math.inf, 0.1), ("inv", math.nan, 0.1), ("inv_sqrt", math.inf, 0.1),
    ("inv_sqrt", 16.0, math.nan), ("inv", 16.0, math.inf)])
def test_approx_target_rejects_nonfinite(kind, kappa, delta):
    with pytest.raises(ValueError):
        ApproxTarget(kind, kappa=kappa, delta=delta)
    with pytest.raises(ValueError):
        (inv_poly if kind == "inv" else inv_sqrt_poly)(kappa, delta)


class TestInvSqrtPoly:
    def test_value_at_one(self):
        q = inv_sqrt_poly(2.0, 0.4)
        assert abs(q.evaluate(1.0) - 1.0) <= 0.4 / math.sqrt(2)

    def test_value_at_kappa(self):
        q = inv_sqrt_poly(4.0, 0.1)
        assert abs(q.evaluate(4.0) - 0.5) <= 0.05

    def test_certificate_and_sqrt_kappa_degree_growth(self):
        q16 = inv_sqrt_poly(16.0, 0.1)
        err = sup_error(q16, ApproxTarget("inv_sqrt", kappa=16.0, delta=0.1), 4096)
        assert err <= 0.025
        q64 = inv_sqrt_poly(64.0, 0.1)
        # doubling sqrt(kappa) should roughly double the degree; allow the
        # documented 1.6x slack for the log factor
        assert q64.degree() / q16.degree() <= 2 * 1.6

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            inv_sqrt_poly(1.5, 0.1)
        with pytest.raises(ValueError):
            inv_sqrt_poly(4.0, 0.6)


class TestInvPoly:
    def test_value_at_one(self):
        r = inv_poly(2.0, 0.4)
        assert abs(r.evaluate(1.0) - 1.0) <= 0.2

    def test_value_mid_interval(self):
        r = inv_poly(4.0, 0.1)
        assert abs(r.evaluate(2.0) - 0.5) <= 0.025

    def test_kappa_64_certificate(self):
        r = inv_poly(64.0, 0.1)
        assert r.degree() <= 4.0 * math.sqrt(64) * math.log(640)
        err = sup_error(r, ApproxTarget("inv", kappa=64.0, delta=0.1), 4096)
        assert err <= 0.1 / 64


@pytest.mark.parametrize("kappa", [2.0, 4.0, 16.0, 64.0])
@pytest.mark.parametrize("delta", [0.4, 0.1, 0.01])
def test_certificate_lattice(kappa, delta):
    q = inv_sqrt_poly(kappa, delta)
    assert sup_error(q, ApproxTarget("inv_sqrt", kappa=kappa, delta=delta), 4096) \
        <= delta / math.sqrt(kappa)
    r = inv_poly(kappa, delta)
    assert sup_error(r, ApproxTarget("inv", kappa=kappa, delta=delta), 4096) \
        <= delta / kappa


def test_degree_law_single_constant():
    # The documented law, degree <= DEGREE_LAW_CONSTANT * sqrt(kappa) *
    # ln(kappa / delta), for both builders over the supported range.
    for build in (inv_poly, inv_sqrt_poly):
        for kappa in (2.0, 4.0, 16.0, 64.0, 256.0, 1024.0):
            for delta in (0.4, 0.1, 0.01, 0.001):
                law = math.sqrt(kappa) * math.log(kappa / delta)
                ratio = build(kappa, delta).degree() / law
                assert 0.05 <= ratio <= DEGREE_LAW_CONSTANT, (build, kappa, delta)


class TestSupError:
    def test_exact_representation(self):
        p = monomial_cheb_approx(2, 0.1)
        assert _monomial_error(p, 2) <= 1e-14

    def test_zero_poly_vs_inverse(self):
        p = ChebPoly((1.0, 2.0), [0.0])
        assert sup_error(p, ApproxTarget("inv", kappa=2.0), 4096) \
            == pytest.approx(1.0, abs=1e-6)

    def test_recertification(self):
        q = inv_sqrt_poly(16.0, 0.1)
        assert sup_error(q, ApproxTarget("inv_sqrt", kappa=16.0, delta=0.1), 8192) \
            <= 0.025

    def test_grid_size_floor(self):
        p = ChebPoly((-1.0, 1.0), np.ones(200))
        with pytest.raises(ValueError):
            sup_error(p, ApproxTarget("inv", kappa=16.0, delta=0.1), 1024)


def test_series_triangle_inequality_audit():
    # Rebuild the inverse-square-root series independently and check that
    # the measured total error on the reference interval is bounded by the
    # measured truncation error plus the weighted per-term certified errors.
    kappa, delta = 16.0, 0.1
    big_t = taylor_truncation_length(kappa, delta / 2)
    coeffs = [1.0]
    for t in range(1, big_t + 1):
        coeffs.append(coeffs[-1] * (-0.5 - t + 1) / t)
    subpolys = [None] + [
        monomial_cheb_approx(t, delta / (4 * t * t)) for t in range(1, big_t + 1)
    ]
    ys = np.linspace(-(1 - 1 / kappa), 0.0, 4001)
    truth = (1.0 + ys) ** -0.5
    series = sum(coeffs[t] * ys ** t for t in range(big_t + 1))
    approx = coeffs[0] * np.ones_like(ys)
    per_term_budget = 0.0
    for t in range(1, big_t + 1):
        approx = approx + coeffs[t] * subpolys[t].evaluate(ys)
        grid = cheb_grid((-1.0, 1.0), max(1024, 10 * subpolys[t].degree()))
        cert = float(np.max(np.abs(subpolys[t].evaluate(grid) - grid ** t)))
        per_term_budget += abs(coeffs[t]) * cert
    total = float(np.max(np.abs(truth - approx)))
    truncation = float(np.max(np.abs(truth - series)))
    assert total <= truncation + per_term_budget + 1e-12
