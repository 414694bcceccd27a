"""RngState streams against numpy's SeedSequence, the reference they copy."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracebounds.errors import UsageError
from tracebounds.rng import RngState, rademacher

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


# One law per way the program draws, and two that leave a stream inside a
# Philox buffer: random_raw(1) after one of its four words, and an odd
# number of uint32 draws with half a word pending.
LAWS = {
    "chisquare": lambda g: g.chisquare(np.arange(1.0, 12.0)),
    "normal_vector": lambda g: g.standard_normal(6),
    "normal_matrix": lambda g: g.standard_normal((6, 6)),
    "rademacher_odd": lambda g: rademacher(g, 7),
    "raw_mid_buffer": lambda g: g.bit_generator.random_raw(1),
    "uint32_half_word": lambda g: g.integers(0, 2**31, size=3, dtype=np.uint32),
}

# Ids on both sides of a 64-id key block, unordered and repeated, one past
# 2**32, and none.
ID_LISTS = [[63, 64, 65, 130], [130, 64, 64, 63, 0, 65, 130, 63],
            [2**32 + 1, 5, 2**32 + 1, 64], []]


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("ids", ID_LISTS)
@pytest.mark.parametrize("prefix", [(), (0,), (1,)])
def test_draws_equal_each_child_stream(law, ids, prefix):
    rng = RngState(2**70 + 9, 3)
    draw = LAWS[law]
    got = rng.draws(ids, draw, *prefix)
    want = [draw(rng.child(*prefix, i)) for i in ids]
    assert isinstance(got, list) and len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_draws_take_any_iterable_of_ids():
    rng = RngState(12)
    draw = LAWS["normal_vector"]
    want = [draw(rng.child(0, i)).tobytes() for i in range(200)]
    assert [a.tobytes() for a in rng.draws(range(200), draw, 0)] == want
    got = rng.draws((np.int64(i) for i in range(200)), draw, 0)
    assert [a.tobytes() for a in got] == want


def test_draws_reject_bad_ids_as_child_does():
    rng = RngState(1)
    draw = LAWS["normal_vector"]
    for ids, error in (([0, -1], ValueError), ([-1], ValueError),
                       ([0, 1.0], TypeError), ([np.float64(2.0)], TypeError)):
        with pytest.raises(error):
            rng.draws(ids, draw)
    with pytest.raises(ValueError):
        rng.draws([0, 1], draw, -2)
