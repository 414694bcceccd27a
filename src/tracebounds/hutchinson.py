"""Hutchinson's stochastic trace estimator over pluggable f(A) Z backends.

A backend acts only through ``apply_block(a, Z) -> (W, mvps)``: g(A) Z for
the d x k block of all probes in one call (an eigendecomposition, batched
Lanczos in column chunks whose basis stays under about 1 MiB, or one
Clenshaw sweep) with the MVPs it consumed.

Every estimate carries its per-probe quadratic forms and an exact ledger of
matrix-vector products consumed, the cost currency of the estimator:
total cost = N_v * (MVPs per probe).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .approx import ApproxTarget, inv_poly, inv_sqrt_poly
from .chebyshev import ChebPoly
from .errors import ConditioningError, UsageError
from .krylov import apply_scalar_function, fa_times_vec_lanczos, poly_times_block
from .linalg import SymMatrix, sym_eigen
from .rng import RngState, rademacher


@dataclass(frozen=True)
class ProbeSpec:
    """Probe distribution, count and RNG for a Hutchinson run.

    Probe s draws from rng.child(s), bit for bit, through rng.draws, so the
    probes do not depend on the order in which they are drawn.
    """

    kind: str
    count: int
    rng: RngState

    def __post_init__(self):
        if self.kind not in ("rademacher", "gaussian"):
            raise UsageError(f"unknown probe kind {self.kind!r}")
        if self.count < 1:
            raise UsageError("probe count must be >= 1")

    def draw(self, dim: int) -> np.ndarray:
        """The dim x count probe block, probe s in column s."""
        law = ((lambda g: rademacher(g, dim)) if self.kind == "rademacher"
               else (lambda g: g.standard_normal(dim)))
        return np.column_stack(self.rng.draws(range(self.count), law))


@dataclass(frozen=True)
class TraceEstimate:
    """Hutchinson output: mean of quadratic forms plus the MVP ledger."""

    value: float
    quadratic_forms: np.ndarray
    mvp_count: int
    backend: str
    sample_stddev: float

    def standard_error(self) -> float:
        """Sample stddev of the mean, the 1/sqrt(N_v) statistical scale."""
        return self.sample_stddev / math.sqrt(len(self.quadratic_forms))


class ExactBackend:
    """g(A) z through a full eigendecomposition; consumes no metered MVPs."""

    def __init__(self, f):
        self.f = f

    def describe(self) -> str:
        return f"exact({_func_name(self.f)})"

    def apply_block(self, a: SymMatrix, zblock: np.ndarray):
        g = functools.partial(apply_scalar_function, self.f)
        return sym_eigen(a).apply_function(g, zblock), 0


class LanczosBackend:
    """g(A) z = m-step Lanczos approximation of f(A) z; m MVPs per probe."""

    def __init__(self, f, m: int):
        self.f = f
        self.m = m

    def describe(self) -> str:
        return f"lanczos({_func_name(self.f)}, m={self.m})"

    def apply_block(self, a: SymMatrix, zblock: np.ndarray):
        return fa_times_vec_lanczos(a, zblock, self.m, self.f)


class ChebBackend:
    """g(A) z = p(A) z for an explicit ChebPoly; degree(p) MVPs per probe."""

    def __init__(self, poly: ChebPoly, label: str = "cheb"):
        self.poly = poly
        self.label = label

    @classmethod
    def for_target(cls, target: ApproxTarget) -> "ChebBackend":
        """The certified polynomial of an inv or inv_sqrt target, labelled
        with its kind, kappa and delta."""
        return cls(build_target_poly(target), label=(
            f"cheb[{target.kind}, kappa={target.kappa:g}, delta={target.delta:g}]"))

    def describe(self) -> str:
        a, b = self.poly.interval
        return f"{self.label}(degree={self.poly.degree()}, interval=[{a:g},{b:g}])"

    def apply_block(self, a: SymMatrix, zblock: np.ndarray):
        return poly_times_block(a, self.poly, zblock)


def _func_name(f) -> str:
    if callable(f):
        return getattr(f, "__name__", "callable")
    return str(f)


def quadratic_forms(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """z_s . w_s for each column s of ... x d x k blocks, summed in row
    order by one accumulation: a form's bits depend on its column alone,
    where a sum or an einsum picks its order by the block's width and layout."""
    return np.cumsum(z * w, axis=-2)[..., -1, :]


def hutchinson(a: SymMatrix, backend, probes: ProbeSpec) -> TraceEstimate:
    """Average of z^T g(A) z over the probe spec.

    The estimator is unbiased for tr(g(A)); when g approximates f the
    systematic part is bounded separately by bias_bound.  Forms, or their
    mean or sample stddev, that are not finite raise ConditioningError.
    """
    zblock = probes.draw(a.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        wblock, total_mvps = backend.apply_block(a, zblock)
        qforms = quadratic_forms(zblock, wblock)
        value = float(np.mean(qforms))
        stddev = float(np.std(qforms, ddof=1)) if probes.count > 1 else 0.0
    if not (math.isfinite(value) and math.isfinite(stddev)):
        bad = np.flatnonzero(~np.isfinite(qforms))
        what = f"probe {bad[0]}'s quadratic form" if len(bad) else "the forms' mean or stddev"
        raise ConditioningError(f"{what} is not finite")
    return TraceEstimate(value, qforms, int(total_mvps), backend.describe(), stddev)


def bias_bound(target: ApproxTarget, d: int) -> float:
    """Certified bound on |tr(p(A)) - tr(f(A))| for spectrum in [1, kappa].

    Sums the scalar certificate over d eigenvalues: d * delta / scale,
    with scale = sqrt(kappa) for inv_sqrt and kappa for inv.
    """
    return d * target.delta / target.scale


def build_target_poly(target: ApproxTarget) -> ChebPoly:
    if target.kind == "inv_sqrt":
        return inv_sqrt_poly(target.kappa, target.delta)
    return inv_poly(target.kappa, target.delta)


def estimate_tr_f(
    a: SymMatrix, target: ApproxTarget, n_probes: int, rng: RngState,
    probe_kind: str = "rademacher",
) -> TraceEstimate:
    """End-to-end pipeline: build the certified polynomial, run Hutchinson.

    The caller asserts spec(A) is inside [1, target.kappa].  mvp_count is
    exactly n_probes * degree(p).
    """
    probes = ProbeSpec(probe_kind, n_probes, rng)
    return hutchinson(a, ChebBackend.for_target(target), probes)
