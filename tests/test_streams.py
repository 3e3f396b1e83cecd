"""The array kernel for seeded streams against NumPy's own generators."""

import random

import numpy as np
import pytest

from torusflow.streams import Integers, seeded, uniforms
from torusflow.topology import apply_bond_failures, apply_site_failures, build_torus

# one-word, two-word, four-word and longer entropy, and both sides of each
# word boundary
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128 + 5, 3**100)
BOUNDS = (2, 3, 255, 4096, 2**31 + 1, 2**32 - 1)


def random_seeds(count, salt):
    """Seeds of 1 to 160 bits, so that blocks mix entropy lengths."""
    rng = random.Random(salt)
    return [rng.getrandbits(rng.choice((1, 8, 32, 33, 64, 127, 128, 129, 160)))
            for _ in range(count)]


def test_uniforms_match_default_rng_on_edge_seeds():
    got = uniforms(seeded(EDGE_SEEDS), 8192)
    for value, row in zip(EDGE_SEEDS, got):
        assert np.array_equal(row, np.random.default_rng(value).random(8192)), value


@pytest.mark.parametrize("count", [1, 2, 37, 600])
def test_uniforms_match_default_rng_on_random_seeds(count):
    seeds = random_seeds(500, count)
    got = uniforms(seeded(seeds), count)
    assert got.shape == (500, count)
    for value, row in zip(seeds, got):
        assert np.array_equal(row, np.random.default_rng(value).random(count)), value


@pytest.mark.parametrize("bound", BOUNDS)
def test_integers_match_default_rng(bound):
    """The array pass and the scalar draws after it, on streams that take
    the array path and on streams that reject a word; with n = 2**31 + 1
    about every other word is rejected."""
    seeds = [*EDGE_SEEDS, *random_seeds(100, bound)]
    count = 301  # odd, so the first scalar draw reads a pending high half
    ints = Integers(seeded(seeds), [bound] * len(seeds), count)
    for b, value in enumerate(seeds):
        rng = np.random.default_rng(value)
        assert np.array_equal(ints.first[b], rng.integers(0, bound, size=count)), value
        for _ in range(5):
            assert ints.draw(b) == rng.integers(0, bound), value


@pytest.mark.parametrize("bound", [3, 2**31 + 1])
def test_integers_long_streams(bound):
    ints = Integers(seeded(EDGE_SEEDS), [bound] * len(EDGE_SEEDS), 8192)
    for b, value in enumerate(EDGE_SEEDS):
        rng = np.random.default_rng(value)
        assert np.array_equal(ints.first[b], rng.integers(0, bound, size=8192)), value


@pytest.mark.parametrize("bound", [3, 2**31 + 1])
def test_integers_read_far_past_the_array_pass(bound):
    """1,200 draws per stream after a 10-draw pass, the streams taking
    turns: each stream's row is made again at twice its length several
    times, and no other stream's draws move."""
    ints = Integers(seeded(EDGE_SEEDS), [bound] * len(EDGE_SEEDS), 10)
    rngs = [np.random.default_rng(value) for value in EDGE_SEEDS]
    for rng, row in zip(rngs, ints.first):
        assert np.array_equal(row, rng.integers(0, bound, size=10))
    for _ in range(1200):
        for b, rng in enumerate(rngs):
            assert ints.draw(b) == rng.integers(0, bound), EDGE_SEEDS[b]
    assert min(row.size for row in ints._rows) >= 8 * (10 // 2 + 4)  # three doublings


def test_integers_mixed_bounds_in_one_block():
    seeds = random_seeds(300, 5)
    bounds = [random.Random(value).choice(BOUNDS) for value in seeds]
    ints = Integers(seeded(seeds), bounds, 64)
    for b, (value, bound) in enumerate(zip(seeds, bounds)):
        rng = np.random.default_rng(value)
        assert np.array_equal(ints.first[b], rng.integers(0, bound, size=64))
        assert ints.draw(b) == rng.integers(0, bound)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_scalar_redraw_after_an_odd_word_count(count):
    """A draw leaves half an output unread after an odd number of words;
    the next draw must read that half, as NumPy's buffered word does."""
    seeds = random_seeds(50, 77)
    ints = Integers(seeded(seeds), [1000] * len(seeds), count)
    for b, value in enumerate(seeds):
        rng = np.random.default_rng(value)
        assert np.array_equal(ints.first[b], rng.integers(0, 1000, size=count))
        for _ in range(7):
            assert ints.draw(b) == rng.integers(0, 1000)


def test_rows_of_one_seeding_pass():
    """A block seeds all its streams at once and draws from row subsets;
    NumPy integer seeds count as their values."""
    seeds = [5, 2**70, 9, np.uint64(2**64 - 1), np.int64(77)]
    streams = seeded(seeds)
    assert streams.shape == (4, 5, 1)
    rows = [4, 1, 3]
    got = uniforms(streams[:, rows], 40)
    for b, row in zip(rows, got):
        assert np.array_equal(row, np.random.default_rng(int(seeds[b])).random(40))
    ints = Integers(streams[:, [0, 2]], [7, 700], 9)
    for b, bound, row in zip((0, 2), (7, 700), ints.first):
        assert np.array_equal(row, np.random.default_rng(seeds[b]).integers(0, bound, size=9))


def test_empty_block():
    assert uniforms(seeded([]), 5).shape == (0, 5)
    assert Integers(seeded([]), [], 6).first.shape == (0, 6)


@pytest.mark.parametrize("bad", [-1, None, 1.5, 2.0, True, "7"])
def test_bad_seeds_raise(bad):
    """None would otherwise seed from the operating system and give a
    scenario that no one can reproduce."""
    topo = build_torus(4, 4)
    with pytest.raises(ValueError):
        seeded([0, bad])
    with pytest.raises(ValueError):
        apply_bond_failures(topo, 0.1, bad)
    with pytest.raises(ValueError):
        apply_site_failures(topo, 0.1, bad)


@pytest.mark.parametrize("bound", [-3, 0, 1, 2**32])
def test_bad_bounds_raise(bound):
    with pytest.raises(ValueError):
        Integers(seeded([1]), [bound], 3)
