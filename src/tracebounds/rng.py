"""Reproducible random number generation.

All randomness in the library flows through :class:`RngState`, a (seed,
stream) pair mapped onto numpy's counter-based Philox generator.  The
stream addressed by ``child(*path)`` is, bit for bit,
``Philox(SeedSequence(seed, spawn_key=(stream, *path)))``.  Identical (seed,
stream) pairs produce identical draw sequences on every platform, and
distinct stream ids (or child paths) produce statistically independent
streams, so parallel trials can use disjoint streams without coordination.

The Philox key is derived here rather than by ``SeedSequence``, which would
hash the seed again for every stream.  This module repeats numpy's
``SeedSequence`` pool hash on uint32 words: the pool after the seed and
every spawn id but the last is cached per (seed, id prefix), and the last
id is hashed, on uint32 arrays, for an aligned block of 64 ids at once,
whose 64 keys are cached too.  Such a block never crosses a 2**32
boundary, so its ids share their word count and high words.  This relies
on numpy's ``SeedSequence`` algorithm, which numpy keeps stable across
versions; the tests check the keys against ``SeedSequence`` itself.  One
consequence: the ``bit_generator.seed_seq`` of a child stream is a
read-only key holder, not a ``SeedSequence``, so ``Generator.spawn`` on it
raises ``TypeError``.

Per-trial and per-probe streams are drawn through ``draws(ids, draw,
*prefix)``: element ``i`` is ``draw(child(*prefix, i))`` bit for bit, but one
generator serves the whole call, its Philox reset to each id's cached key,
since a reset costs less than half of building a ``Generator``.  ``child()``
stays for single streams.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_BLOCK = 64


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
        seed, *prefix, last = map(_entropy_int, (self.seed, self.stream, *path))
        keys = _key_block(seed, tuple(prefix), last // _BLOCK)
        return np.random.Generator(np.random.Philox(_PhiloxKey(keys[last % _BLOCK])))

    def draws(self, ids, draw, *prefix: int) -> list:
        """``[draw(self.child(*prefix, i)) for i in ids]``, bit for bit, from
        one generator.

        ``child()`` builds it for the first id; for each later id its Philox
        is put back to the start of that id's stream: counter 0, the id's
        cached key, an empty buffer (``buffer_pos`` 4) and no pending 32-bit
        half word.  So ``draw`` must take what it needs from the generator it
        is handed and keep no reference to it, as the next id reuses it.
        """
        ids = list(ids)
        if not ids:
            return []
        g = self.child(*prefix, ids[0])
        out = [draw(g)]
        seed, *head = map(_entropy_int, (self.seed, self.stream, *prefix))
        head = tuple(head)
        zeros = np.zeros(4, dtype=np.uint64)
        counter_key = {"counter": zeros, "key": None}
        state = {"bit_generator": "Philox", "state": counter_key, "buffer": zeros,
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for i in map(_entropy_int, ids[1:]):
            counter_key["key"] = _key_block(seed, head, i // _BLOCK)[i % _BLOCK]
            g.bit_generator.state = state
            out.append(draw(g))
        return out


def _entropy_int(x) -> int:
    """``x`` as an int, raising TypeError or ValueError where SeedSequence would."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    return x


def _words(n: int) -> list[int]:
    """The uint32 words of ``n``, least significant first, as numpy splits it."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash(value, const: int, mult: int):
    """numpy's ``hashmix`` of ``value`` and the next hash constant.

    Here and in ``_mix`` a word is a Python int below 2**32 or a uint32
    array of words; the masks keep the int arithmetic in uint32.
    """
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    r = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
    return r ^ r >> 16


def _absorb(pool, const: int, words) -> tuple[tuple, int]:
    """Mix entropy words past the first four into every pool word."""
    pool = list(pool)
    for word in words:
        for i in range(_POOL_SIZE):
            h, const = _hash(word, const, _MULT_A)
            pool[i] = _mix(pool[i], h)
    return tuple(pool), const


@functools.lru_cache(maxsize=16)
def _prefix_pool(seed: int, ids: tuple[int, ...]) -> tuple[tuple, int]:
    """SeedSequence pool and hash constant after the seed and ``ids``.

    A spawn key pads the seed to the pool size, so the seed alone fills the
    pool before its words are mixed together.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool, const = [], _INIT_A
    for word in entropy[:_POOL_SIZE]:
        h, const = _hash(word, const, _MULT_A)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    return _absorb(pool, const,
                   entropy[_POOL_SIZE:] + [w for i in ids for w in _words(i)])


@functools.lru_cache(maxsize=16)
def _key_block(seed: int, ids: tuple[int, ...], block: int) -> np.ndarray:
    """Read-only (64, 2) uint64 Philox keys of spawn keys ``(*ids, 64*block + j)``.

    Row ``j`` is ``SeedSequence(seed, spawn_key=(*ids, 64*block + j))
    .generate_state(2, np.uint64)``.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PhiloxKey)
    pool, const = _prefix_pool(seed, ids)
    low, *high = _words(block * _BLOCK)
    lows = np.arange(low, low + _BLOCK, dtype=np.uint32)
    pool, _ = _absorb(pool, const, [lows, *high])
    out, const = [], _INIT_B
    for word in pool:
        h, const = _hash(word, const, _MULT_B)
        out.append(h)
    keys = np.stack(out, axis=1).astype("<u4").view("<u8").astype(np.uint64)
    keys.flags.writeable = False
    return keys


class _PhiloxKey:
    """Seed sequence that hands Philox one precomputed key.

    Philox takes it as an ``ISeedSequence``, which ``_key_block``, the only
    source of keys, registers it as.  It does not subclass one so that
    importing this module leaves ``numpy.random`` unloaded: the ``poly``
    commands draw no random numbers.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds one Philox key: generate_state(2, np.uint64)")
        return self.key


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngState or an already-built Generator."""
    if isinstance(rng, RngState):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngState or Generator, got {type(rng).__name__}")


def rademacher(g: np.random.Generator, n: int) -> np.ndarray:
    """Length-n vector of i.i.d. +-1 entries: the top bit of each 32-bit half
    of the next ceil(n/2) raw Philox words, low half first; on a fresh stream,
    ``g.integers(0, 2, size=n) * 2.0 - 1.0`` bit for bit.  A second call starts
    a fresh word where integers would go on mid-word, so draw once and split."""
    halves = g.bit_generator.random_raw((n + 1) // 2).astype("<u8").view("<u4")
    return (halves[:n] >> 31).astype(np.float64) * 2.0 - 1.0
