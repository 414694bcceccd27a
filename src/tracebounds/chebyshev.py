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
    """n Chebyshev points (first kind) of the interval, ascending."""
    a, b = interval
    k = np.arange(n)
    u = np.cos(np.pi * (2 * k + 1) / (2 * n))
    return (a + b) / 2.0 + (b - a) / 2.0 * u[::-1]
