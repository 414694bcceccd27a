"""Explicit polynomial approximations of x^s, x^{-1/2} and x^{-1}.

inv_sqrt_poly and inv_poly return the Chebyshev interpolant of f on
[1, kappa] at the smallest degree n whose Bernstein-ellipse bound (Trefethen,
*Approximation Theory and Approximation Practice*, Thm 8.2) is at most half
the target delta/scale; sup_error_bound adds a rounding term for the
computed coefficients to that bound, an upper bound on the sup error.

series_poly keeps the paper's construction as a witness and a reference: a
truncated series in y = x/kappa - 1 (binomial series for the square root,
geometric series for the inverse), each monomial y^t replaced by a
compressed Chebyshev approximant, and the sum rescaled back to [1, kappa].
The compression is the x^s construction of Sachdeva & Vishnoi, *Faster
Algorithms via Approximation Theory* (2014), Thm 3.3: keep the Chebyshev
coefficients of y^t up to degree ~sqrt(t log(1/delta)).  The exact
coefficients of y^t come from those of y^(t-1) by one multiplication by y
(y T_0 = T_1, y T_j = (T_(j-1) + T_(j+1)) / 2), so the whole series is one
pass of halvings and sums of positive numbers.  The sum is re-expanded on
[1, kappa] by the same DCT as the interpolant, with no BLAS call, so its
bytes do not depend on the BLAS thread count.  Its degree is 1-3.5x the
interpolant's for kappa in [2, 1024].

Every returned polynomial also carries a grid-certified sup-norm error; a
certificate failure raises instead of returning a bad polynomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .chebyshev import ChebPoly, cheb_grid, grid_values
from .errors import CertificateError, UsageError

#: Documented constant for the degree law: degree(inv_sqrt_poly(kappa, delta))
#: and degree(inv_poly(kappa, delta)) are bounded by C0 * sqrt(kappa) *
#: ln(kappa / delta) over the supported parameter range.
DEGREE_LAW_CONSTANT = 4.0


@dataclass(frozen=True)
class ApproxTarget:
    """Scalar function a polynomial is certified against: x^{-1/2} (kind
    "inv_sqrt") or 1/x (kind "inv") on [1, kappa]."""

    kind: str
    kappa: float
    delta: float

    def __post_init__(self):
        if self.kind not in ("inv_sqrt", "inv"):
            raise UsageError(f"unknown target kind {self.kind!r}")
        if not 2 <= self.kappa < math.inf:
            raise UsageError("need finite kappa >= 2")
        if not 0 < self.delta < 0.5:
            raise UsageError("need 0 < delta < 1/2")

    @property
    def scale(self) -> float:
        """Divisor of delta in the certified sup error: sqrt(kappa) for
        inv_sqrt, kappa for inv."""
        return math.sqrt(self.kappa) if self.kind == "inv_sqrt" else self.kappa

    def function(self):
        if self.kind == "inv_sqrt":
            return lambda x: x ** -0.5
        return lambda x: 1.0 / x


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


# bench/tracing.py wraps approx.monomial_cheb_approx by name; keep it
# importable.
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
    """Max |p(x) - f(x)| over the grid_size first-kind Chebyshev points of
    the interval.

    A grid maximum is a lower bound on the true sup norm; grid_size must
    be at least max(1024, 10 * degree) so the gap is negligible for the
    degrees this library constructs.  p is evaluated on the grid by
    chebyshev.grid_values, one real FFT with no BLAS call, so the result
    does not depend on the BLAS thread count; each value errs by
    O(eps log2(2 grid_size) sum_j |c_j|), and f is evaluated at the points
    of cheb_grid, each within a few eps, relative, of the point the FFT
    evaluates p at.
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
    f = target.function()(cheb_grid(interval, grid_size))
    return float(np.max(np.abs(grid_values(p, grid_size) - f)))


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


def _cheb_nodes(kappa: float, n: int) -> np.ndarray:
    """The n + 1 points (kappa + 1) / 2 + (kappa - 1) / 2 cos(j pi / n) of
    [1, kappa], computed as 1 + (kappa - 1) sin^2(pi (n - j) / (2n)):
    accurate to a few eps relative to x also near x = 1."""
    return 1.0 + (kappa - 1.0) * np.sin(np.pi * np.arange(n, -1, -1) / (2 * n)) ** 2


def _cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the degree-n interpolant through the n + 1
    values at _cheb_nodes: their DCT-I, taken as the real FFT of their even
    extension.  O(n log n) time, O(n) memory and no BLAS call, so the bytes
    do not depend on the BLAS thread count."""
    n = len(values) - 1
    coeffs = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / n
    coeffs[[0, n]] /= 2.0
    return coeffs


def _rescale_to_interval(h: ChebPoly, kappa: float, scale: float) -> ChebPoly:
    """scale * h(x/kappa - 1) re-expanded on [1, kappa].

    The composition is realized by Chebyshev interpolation at the
    degree(h)+1 _cheb_nodes of [1, kappa], which is exact for polynomials
    and avoids power-basis blowup at high degree; the result has degree
    deg(h) by construction.
    """
    x = _cheb_nodes(kappa, h.degree())
    values = scale * _cheb.chebval(x / kappa - 1.0, h.coeffs)
    return ChebPoly((1.0, kappa), _cheb_coeffs(values))


def _certify(p: ChebPoly, target: ApproxTarget) -> ChebPoly:
    bound = target.delta / target.scale
    achieved = sup_error(p, target, max(4096, 10 * p.degree()))
    if not achieved <= bound:
        raise CertificateError(achieved, bound)
    return p


def series_poly(target: ApproxTarget) -> ChebPoly:
    """The paper's witness: the compressed truncated series of an inv or
    inv_sqrt target, grid-certified to |p(x) - f(x)| <= delta/scale.

    A truncated series in y = x/kappa - 1 of length T, chosen so the series
    tail is <= delta/2: the binomial series of (1+y)^{-1/2} with each
    monomial y^t compressed to accuracy delta/(4 t^2), or the geometric
    series (1+y)^{-1} = sum (-1)^t y^t with per-term accuracy delta/(2T).
    The sum is mapped to [1, kappa] with a 1/scale scaling.  Its degree
    follows the law O(sqrt(kappa) log(kappa/delta)), at 1-3.5x the degree
    of the interpolant that inv_poly and inv_sqrt_poly return.
    """
    kappa, delta = target.kappa, target.delta
    T = taylor_truncation_length(kappa, delta / 2.0)
    if target.kind == "inv_sqrt":
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
    else:
        per_term = delta / (2.0 * T)
        h = _series_sum(lambda t: (-1.0) ** t, lambda t: per_term, T)
    return _certify(_rescale_to_interval(h, kappa, 1.0 / target.scale), target)


def _ellipses(target: ApproxTarget):
    """(rho, m): the radii rho of the Bernstein ellipses the bound tries,
    19 points evenly spaced in (1, rho_0), and m = max |f| on each.

    In u = (2x - kappa - 1) / (kappa - 1) the pole (inv) or branch point
    (inv_sqrt) of f at x = 0 sits at u = -u_0, u_0 = (kappa + 1) /
    (kappa - 1), on the ellipse of radius rho_0 = u_0 + sqrt(u_0^2 - 1).
    Inside it, |x| = h |u + u_0| with h = (kappa - 1) / 2, which is
    smallest at the ellipse's left vertex -(rho + 1/rho) / 2; so |1/x| <=
    1 / (h (u_0 - (rho + 1/rho) / 2)) there, and |x^{-1/2}| its square root.
    m is inf where that difference rounds to 0, from kappa ~ 1.4e15 on.
    """
    kappa = target.kappa
    h = (kappa - 1.0) / 2.0
    u0 = (kappa + 1.0) / (kappa - 1.0)
    rho0 = u0 + math.sqrt(u0 * u0 - 1.0)
    rho = 1.0 + (rho0 - 1.0) * np.arange(1, 20) / 20.0
    with np.errstate(divide="ignore"):
        m = 1.0 / (h * (u0 - (rho + 1.0 / rho) / 2.0))
    return rho, (np.sqrt(m) if target.kind == "inv_sqrt" else m)


#: The highest interpolant degree a certified build goes to.  A degree-n
#: build's grid gate holds a few hundred bytes for each of its max(4096, 10 n)
#: points (degree 57,733 peaked at 210 MB), so a larger n is refused before
#: anything is allocated.  An explicit grid size (poly build/error --grid) is
#: the caller's own request and is not capped.
MAX_DEGREE = 2 ** 16


def _interpolant_degree(target: ApproxTarget) -> int:
    """Smallest n >= 1 whose ellipse bound min_rho 4 m rho^-n / (rho - 1)
    is at most half of delta/scale.  CertificateError if no n is finite, or
    if n passes MAX_DEGREE, achieved then being sup_error_bound at MAX_DEGREE."""
    rho, m = _ellipses(target)
    half = target.delta / target.scale / 2.0
    n = np.min(np.ceil(np.log(4.0 * m / ((rho - 1.0) * half)) / np.log(rho)))
    if not n < math.inf:
        raise CertificateError(math.inf, 2.0 * half)
    if n > MAX_DEGREE:
        raise CertificateError(
            sup_error_bound(target, MAX_DEGREE), 2.0 * half,
            f"certified degree {int(n)} exceeds the ceiling MAX_DEGREE = {MAX_DEGREE}")
    return max(1, int(n))


def _rounding_bound(degree: int) -> float:
    """Bound on sum_j |c_j - c~_j| for the coefficients c~_j that
    _interpolant computes of the degree-n interpolant with coefficients c_j:
    2 sqrt(n + 1) (8 log2(2n) + 13) eps.

    The nodes 1 + (kappa - 1) sin^2(pi (n - j) / (2n)) carry a relative
    error of at most 10 eps, so with |f| <= 1 on [1, kappa] each value is
    off by at most 12 eps; the DCT-I maps values of max modulus v to
    coefficients of 1-norm at most 2 sqrt(n + 1) v; the FFT errs by at most
    8 log2(2n) eps of its output's 2-norm (the radix-2 bound of Higham,
    *Accuracy and Stability of Numerical Algorithms*, Thm 24.2, which
    tests/test_approx.py checks numpy's FFT to meet against a long-double
    reference); the final division adds eps per unit of the 1-norm.
    """
    eps = np.finfo(np.float64).eps
    return 2.0 * math.sqrt(degree + 1) * (8.0 * math.log2(2 * degree) + 13.0) * eps


def sup_error_bound(target: ApproxTarget, degree: int) -> float:
    """Upper bound on sup |p(x) - f(x)| over [1, kappa] for p the degree-n
    Chebyshev interpolant that inv_poly and inv_sqrt_poly return.

    The sum of two terms.  The ellipse bound min_rho 4 m rho^-n / (rho - 1)
    (Trefethen, *Approximation Theory and Approximation Practice*, Thm 8.2)
    bounds |I_n f - f| for the exact interpolant I_n f.  The rounding term
    of _rounding_bound bounds the 1-norm of the computed coefficients'
    errors, hence |p - I_n f| as |T_j| <= 1.  It bounds the polynomial, not
    its rounded evaluation.
    """
    rho, m = _ellipses(target)
    ellipse = float(np.min(4.0 * m * rho ** -float(degree) / (rho - 1.0)))
    return ellipse + _rounding_bound(degree)


def _interpolant(kind: str, kappa: float, delta: float) -> ChebPoly:
    """The Chebyshev interpolant of the target at the n + 1 _cheb_nodes,
    for the n of _interpolant_degree, its coefficients by _cheb_coeffs.
    Raises CertificateError if sup_error_bound exceeds delta/scale (the
    rounding term can, at a delta near machine precision), then runs the
    grid gate.
    """
    target = ApproxTarget(kind, kappa=kappa, delta=delta)
    n = _interpolant_degree(target)
    bound = target.delta / target.scale
    certified = sup_error_bound(target, n)
    if certified > bound:
        raise CertificateError(certified, bound)
    values = target.function()(_cheb_nodes(kappa, n))
    return _certify(ChebPoly((1.0, kappa), _cheb_coeffs(values)), target)


def inv_sqrt_poly(kappa: float, delta: float) -> ChebPoly:
    """Polynomial on [1, kappa] with |p(x) - x^{-1/2}| <= delta/sqrt(kappa):
    the Chebyshev interpolant at its ellipse-certified degree."""
    return _interpolant("inv_sqrt", kappa, delta)


def inv_poly(kappa: float, delta: float) -> ChebPoly:
    """Polynomial on [1, kappa] with |p(x) - 1/x| <= delta/kappa: the
    Chebyshev interpolant at its ellipse-certified degree."""
    return _interpolant("inv", kappa, delta)
