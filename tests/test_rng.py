"""RngState streams against numpy's SeedSequence, the reference they copy."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracebounds.errors import UsageError
from tracebounds.rng import RngState

# Ids at the edges of a 64-id key block and of a uint32 word.
EDGE_IDS = [0, 63, 64, 2**32 - 1, 2**32, 2**32 + 63]

ids = st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, 2**40 - 1))


def reference(seed, stream, *path):
    """The stream as numpy spawns it."""
    seq = np.random.SeedSequence(seed, spawn_key=(stream, *path))
    return np.random.Generator(np.random.Philox(seq))


def philox_key(g):
    return g.bit_generator.state["state"]["key"]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**140 - 1), st.integers(0, 2**40 - 1),
       st.lists(ids, max_size=3))
@example(0, 0, [])
@example(2**128, 2**32 + 63, [2**32 - 1, 64, 63])
@example(2**96 - 1, 64, [2**32, 0])
def test_child_key_matches_seed_sequence(seed, stream, path):
    want = np.random.SeedSequence(seed, spawn_key=(stream, *path)).generate_state(
        2, np.uint64)
    np.testing.assert_array_equal(philox_key(RngState(seed, stream).child(*path)), want)


@pytest.mark.parametrize("seed, stream, path", [
    (0, 0, ()),
    (5, 0, (1, 63)),
    (340282366920938463463374607431768211457, 3, (2**32 + 63,)),
    (18446744073709551621, 0, (64,)),
])
def test_first_draws_match_seed_sequence(seed, stream, path):
    got = RngState(seed, stream).child(*path)
    want = reference(seed, stream, *path)
    np.testing.assert_array_equal(got.standard_normal(64), want.standard_normal(64))
    np.testing.assert_array_equal(got.integers(0, 2**40, size=64),
                                  want.integers(0, 2**40, size=64))
    np.testing.assert_array_equal(got.chisquare(np.arange(1.0, 65.0)),
                                  want.chisquare(np.arange(1.0, 65.0)))


def test_children_are_independent_objects():
    rng = RngState(11)
    a, b = rng.child(2), rng.child(2)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.standard_normal(8)
    np.testing.assert_array_equal(b.standard_normal(8), first)
    a.standard_normal(100)
    np.testing.assert_array_equal(rng.child(2).standard_normal(8), first)
    np.testing.assert_array_equal(b.standard_normal(8),
                                  reference(11, 0, 2).standard_normal(16)[8:])


def test_bad_ids_raise_as_seed_sequence_does():
    rng = RngState(1)
    with pytest.raises(ValueError):
        rng.child(-1)
    with pytest.raises(ValueError):
        rng.child(0, -64)
    with pytest.raises(TypeError):
        rng.child(1.0)
    with pytest.raises(TypeError):
        rng.child(0, np.float64(64.0))
    with pytest.raises(UsageError):
        RngState(-1)


def test_numpy_integer_ids_address_the_same_stream():
    np.testing.assert_array_equal(philox_key(RngState(np.int64(3)).child(np.uint32(70))),
                                  philox_key(reference(3, 0, 70)))
