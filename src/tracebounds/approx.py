"""Explicit polynomial approximations of x^s, x^{-1/2} and x^{-1}.

The inverse-square-root and inverse constructions follow the same recipe:
a truncated series in y = x/kappa - 1 (binomial series for the square
root, geometric series for the inverse), each monomial y^t replaced by a
compressed Chebyshev approximant, and the sum rescaled back to [1, kappa].
The compression is the x^s construction of Sachdeva & Vishnoi, *Faster
Algorithms via Approximation Theory* (2014), Thm 3.3: keep the Chebyshev
coefficients of y^t up to degree ~sqrt(t log(1/delta)).  The exact
coefficients of y^t come from those of y^(t-1) by one multiplication by y
(y T_0 = T_1, y T_j = (T_(j-1) + T_(j+1)) / 2), so the whole series is one
pass of halvings and sums of positive numbers.
Every returned polynomial carries a grid-certified sup-norm error; a
certificate failure raises instead of returning a bad polynomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .chebyshev import ChebPoly, cheb_grid
from .errors import CertificateError, UsageError

#: Documented constant for the degree law: degree(inv_sqrt_poly(kappa, delta))
#: and degree(inv_poly(kappa, delta)) are bounded by C0 * sqrt(kappa) *
#: ln(kappa / delta) over the supported parameter range.
DEGREE_LAW_CONSTANT = 4.0


@dataclass(frozen=True)
class ApproxTarget:
    """Scalar function a polynomial is certified against.

    kind is one of "inv_sqrt", "inv", "monomial".  kappa is the upper end
    of the [1, kappa] interval (unused for monomial); s is the monomial
    power.
    """

    kind: str
    kappa: float | None = None
    delta: float | None = None
    s: int | None = None

    def __post_init__(self):
        if self.kind not in ("inv_sqrt", "inv", "monomial"):
            raise UsageError(f"unknown target kind {self.kind!r}")
        if self.kind == "monomial":
            if self.s is None or self.s < 1:
                raise UsageError("monomial target needs integer s >= 1")
        else:
            if self.kappa is None or not 2 <= self.kappa < math.inf:
                raise UsageError("need finite kappa >= 2")
            if self.delta is not None and not 0 < self.delta < 0.5:
                raise UsageError("need 0 < delta < 1/2")

    @property
    def scale(self) -> float:
        """Divisor of delta in the certified sup error: sqrt(kappa) for
        inv_sqrt, kappa for inv.  Monomial targets have none."""
        if self.kind == "monomial":
            raise ValueError("monomial targets carry no certificate scale")
        return math.sqrt(self.kappa) if self.kind == "inv_sqrt" else self.kappa

    def function(self):
        if self.kind == "inv_sqrt":
            return lambda x: x ** -0.5
        if self.kind == "inv":
            return lambda x: 1.0 / x
        return lambda x, s=self.s: x ** s


def _times_y(c: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of y * sum_j c_j T_j(y)."""
    # y T_j = (T_(j-1) + T_(j+1)) / 2 for j >= 1 is one 3-tap convolution;
    # y T_0 = T_1 takes the full weight, so c_0 is added a second time.
    out = np.convolve(c, (0.5, 0.0, 0.5))[1:]
    out[1] += 0.5 * c[0]
    return out


def _power_expansions(n: int):
    """Yield the Chebyshev coefficients of y^t on [-1, 1] for t = 1..n.

    Entry j of y^t is 2^(1-t) C(t, (t-j)/2) (halved at j = 0), which
    Hoeffding bounds by 2 exp(-j^2 / (2t)).  Entries with j > 40 sqrt(t)
    are therefore below 2 e^-800 and round to 0.0 in float64; they are
    dropped, which keeps the work per power at O(sqrt(t)) once t > 1600.
    """
    c = np.ones(1)
    for t in range(1, n + 1):
        c = _times_y(c)[: int(40.0 * math.sqrt(t)) + 5]
        yield c


def _compressed_degree(s: int, delta: float) -> int:
    return min(s, math.ceil(math.sqrt(2.0 * s * math.log(2.0 / delta))))


def monomial_cheb_approx(s: int, delta: float) -> ChebPoly:
    """Low-degree Chebyshev compression of x^s on [-1, 1].

    Truncates the exact Chebyshev expansion of x^s at degree
    ceil(sqrt(2 s ln(2/delta))); the dropped tail has total mass <= delta
    by the binomial tail bound, so |p(x) - x^s| <= delta on [-1, 1].
    """
    if s < 1:
        raise UsageError("s must be a positive integer")
    if not 0 < delta < 1:
        raise UsageError("need 0 < delta < 1")
    # The expansion x^s = sum_j w_j 2^(1-s) C(s, (s-j)/2) T_j over j = s mod 2
    # (w_0 = 1/2, else 1) is built by s multiplications by x; every step
    # halves and adds positive numbers, so no binomial is ever formed.
    for c in _power_expansions(s):
        pass
    return ChebPoly((-1.0, 1.0), c[: _compressed_degree(s, delta) + 1])


def taylor_truncation_length(kappa: float, delta_half: float) -> int:
    """Smallest T with kappa (1 - 1/kappa)^(T+1) <= delta_half.

    Exact scan rather than the asymptotic O(kappa log(kappa/delta))
    formula, so downstream certificates hold at small kappa.
    """
    if not 2 <= kappa < math.inf:
        raise UsageError("need finite kappa >= 2")
    if not 0 < delta_half < math.inf:
        raise UsageError("need finite delta_half > 0")
    ratio = 1.0 - 1.0 / kappa
    t = 0
    bound = kappa * ratio  # value at T = 0
    while bound > delta_half:
        t += 1
        bound *= ratio
    return t


def sup_error(p: ChebPoly, target: ApproxTarget, grid_size: int) -> float:
    """Max |p(x) - f(x)| over a Chebyshev-spaced grid of the interval.

    A grid maximum is a lower bound on the true sup norm; grid_size must
    be at least max(1024, 10 * degree) so the gap is negligible for the
    degrees this library constructs.
    """
    minimum = max(1024, 10 * p.degree())
    if grid_size < minimum:
        raise UsageError(f"grid_size must be >= {minimum}")
    return _grid_sup_error(p.interval, p.coeffs.tobytes(), target, grid_size)


# poly build asks the certificate gate's question again, on the same grid,
# right after the gate; one remembered answer spares that second pass.  The
# key is the polynomial's value, so a hit returns what a new pass would.
@functools.lru_cache(maxsize=1)
def _grid_sup_error(interval, coeff_bytes: bytes, target: ApproxTarget,
                    grid_size: int) -> float:
    p = ChebPoly(interval, np.frombuffer(coeff_bytes))
    xs = cheb_grid(interval, grid_size)
    f = target.function()
    return float(np.max(np.abs(p.evaluate(xs) - f(xs))))


def _series_sum(coeff_of_t, sub_delta_of_t, length: int) -> ChebPoly:
    """sum_t c_t p_t(y) on [-1, 1] with p_t = monomial_cheb_approx(t, ...).

    One pass over the powers of y: each p_t is a prefix of the exact
    expansion of y^t, added to the sum as soon as that expansion is built.
    """
    degrees = [_compressed_degree(t, sub_delta_of_t(t))
               for t in range(1, length + 1)]
    acc = np.zeros(max(degrees, default=0) + 1)
    acc[0] = coeff_of_t(0)
    for t, (deg, c) in enumerate(zip(degrees, _power_expansions(length)), start=1):
        acc[: deg + 1] += coeff_of_t(t) * c[: deg + 1]
    return ChebPoly((-1.0, 1.0), acc)


def _rescale_to_interval(h: ChebPoly, kappa: float, scale: float) -> ChebPoly:
    """scale * h(x/kappa - 1) re-expanded on [1, kappa].

    The composition is realized by Chebyshev interpolation at degree(h)+1
    nodes of [1, kappa], which is exact for polynomials and avoids
    power-basis blowup at high degree.
    """
    deg = h.degree()
    mid, half = (1.0 + kappa) / 2.0, (kappa - 1.0) / 2.0

    def g(u):
        x = mid + half * np.asarray(u)
        return scale * _cheb.chebval(x / kappa - 1.0, h.coeffs)

    coeffs = _cheb.chebinterpolate(g, deg)
    return ChebPoly((1.0, kappa), coeffs).trimmed()


def _certify(p: ChebPoly, target: ApproxTarget) -> ChebPoly:
    bound = target.delta / target.scale
    achieved = sup_error(p, target, max(4096, 10 * p.degree()))
    if achieved > bound:
        raise CertificateError(achieved, bound)
    return p


def inv_sqrt_poly(kappa: float, delta: float) -> ChebPoly:
    """Polynomial on [1, kappa] with |p(x) - x^{-1/2}| <= delta/sqrt(kappa).

    Built from the binomial series of (1+y)^{-1/2}: truncation length T
    chosen so the series tail is <= delta/2, each monomial y^t compressed
    to accuracy delta/(4 t^2), and the sum mapped to [1, kappa] with a
    1/sqrt(kappa) scaling.
    """
    target = ApproxTarget("inv_sqrt", kappa=kappa, delta=delta)
    T = taylor_truncation_length(kappa, delta / 2.0)

    binom_coeffs = np.empty(T + 1)
    binom_coeffs[0] = 1.0
    for t in range(1, T + 1):
        # c_t = C(-1/2, t) by the stable |c_t| <= 1 recurrence.
        binom_coeffs[t] = binom_coeffs[t - 1] * (-0.5 - t + 1) / t

    h = _series_sum(
        lambda t: binom_coeffs[t],
        lambda t: delta / (4.0 * t * t),
        T,
    )
    q = _rescale_to_interval(h, kappa, 1.0 / math.sqrt(kappa))
    return _certify(q, target)


def inv_poly(kappa: float, delta: float) -> ChebPoly:
    """Polynomial on [1, kappa] with |p(x) - 1/x| <= delta/kappa.

    Same pipeline as inv_sqrt_poly but with the geometric series
    (1+y)^{-1} = sum (-1)^t y^t, per-term accuracy delta/(2T), and a
    1/kappa final scaling.
    """
    target = ApproxTarget("inv", kappa=kappa, delta=delta)
    T = taylor_truncation_length(kappa, delta / 2.0)
    per_term = delta / (2.0 * T)
    h = _series_sum(lambda t: (-1.0) ** t, lambda t: per_term, T)
    r = _rescale_to_interval(h, kappa, 1.0 / kappa)
    return _certify(r, target)
