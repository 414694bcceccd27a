"""Chebyshev-basis polynomials on an arbitrary interval [a, b].

A ChebPoly stores coefficients c_0..c_D with value
``sum_j c_j T_j(u)`` at ``u = 2 (x - a) / (b - a) - 1``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb


@dataclass(frozen=True)
class ChebPoly:
    interval: tuple[float, float]
    coeffs: np.ndarray

    def __post_init__(self):
        if len(self.interval) != 2:
            raise ValueError(
                f"interval must be two numbers, got {list(self.interval)}")
        a, b = float(self.interval[0]), float(self.interval[1])
        if not a < b:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if c.ndim != 1 or c.size == 0:
            raise ValueError(
                f"coeffs must be a nonempty 1-D list, got shape {c.shape}")
        object.__setattr__(self, "interval", (a, b))
        object.__setattr__(self, "coeffs", c)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def mapped(self, x):
        """Affine map of x into the reference variable u on [-1, 1]."""
        a, b = self.interval
        return (2.0 * np.asarray(x, dtype=np.float64) - (a + b)) / (b - a)

    def evaluate(self, x):
        """Clenshaw evaluation at scalar or array x.

        Evaluation outside [a, b] is permitted but flagged with a warning,
        since accuracy guarantees only hold on the interval.
        """
        a, b = self.interval
        xv = np.asarray(x, dtype=np.float64)
        if np.any(xv < a) or np.any(xv > b):
            warnings.warn(
                f"evaluating ChebPoly outside its interval [{a}, {b}]",
                RuntimeWarning,
                stacklevel=2,
            )
        out = _cheb.chebval(self.mapped(xv), self.coeffs)
        return float(out) if np.isscalar(x) else out

    def to_dict(self) -> dict:
        return {"interval": list(self.interval), "coeffs": self.coeffs.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "ChebPoly":
        return cls(tuple(obj["interval"]), np.asarray(obj["coeffs"], dtype=np.float64))


def cheb_grid(interval, n: int) -> np.ndarray:
    """The n first-kind Chebyshev points of the interval, ascending:
    (a + b) / 2 + (b - a) / 2 cos(pi (2k + 1) / (2n)), k = n - 1 .. 0,
    computed as a + (b - a) sin^2(pi (2m + 1) / (4n)), m = 0 .. n - 1.
    Each is within a few eps, relative, of the exact point at both ends of
    the interval; the midpoint form is off by about eps (b - a) near a,
    eps kappa relative on [1, kappa]."""
    a, b = interval
    return a + (b - a) * np.sin(np.pi * (2 * np.arange(n) + 1) / (4 * n)) ** 2


def grid_values(p: ChebPoly, n: int) -> np.ndarray:
    """Values of p at the n points of cheb_grid(p.interval, n), ascending.

    At the k-th point in descending order, sum_j c_j cos(pi j (2k + 1) /
    (2n)) is a DCT-III of the coefficients, taken as one real inverse FFT of
    length 2n of X_j = c_j e^(i pi j / (2n)), with X_0 = 2 c_0 and zeros past
    the degree: O(n log n) time, O(n) memory and no BLAS call.  Each value
    errs by O(eps log2(2n) sum_j |c_j|) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, Thm 24.2).  Needs n > degree, so no term aliases.
    """
    c = p.coeffs
    if c.size > n:
        raise ValueError(
            f"need more grid points than coefficients, got {n} for {c.size}")
    twiddled = np.zeros(n + 1, dtype=np.complex128)
    twiddled[: c.size] = c * np.exp(1j * np.pi / (2 * n) * np.arange(c.size))
    twiddled[0] = 2.0 * c[0]
    return n * np.fft.irfft(twiddled, 2 * n)[n - 1 :: -1]
