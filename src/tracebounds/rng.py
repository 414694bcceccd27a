"""Reproducible random number generation.

All randomness in the library flows through :class:`RngState`, a (seed,
stream) pair mapped onto numpy's counter-based Philox generator via
``SeedSequence(seed, spawn_key=(stream, ...))``.  Identical (seed, stream)
pairs produce identical draw sequences on every platform, and distinct
stream ids (or child paths) produce statistically independent streams, so
parallel trials can use disjoint streams without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class RngState:
    """Seed plus stream id identifying one deterministic random stream."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise UsageError("seed and stream must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return self.child()

    def child(self, *path: int) -> np.random.Generator:
        """Generator for the substream addressed by ``path``.

        Used for per-probe and per-trial streams: probe/trial ``i`` draws
        from ``child(i)``, making results order-independent.
        """
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream, *path))
        return np.random.Generator(np.random.Philox(seq))


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngState or an already-built Generator."""
    if isinstance(rng, RngState):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngState or Generator, got {type(rng).__name__}")


def rademacher(g: np.random.Generator, n: int) -> np.ndarray:
    """Length-n vector of i.i.d. +-1 entries."""
    return g.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
