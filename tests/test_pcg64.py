"""The vectorized SeedSequence/PCG64 evaluation against numpy itself."""

import numpy as np
import pytest

import sdelab as sl
from sdelab import _pcg64
from sdelab.engine import (BRIDGE_STREAM_TAG, StepPolicy, _float_bits,
                           sweep_paths)


def _random_master(rng):
    """0-5 entries whose values span 1 to 216 bits, zeros included."""
    return tuple(int.from_bytes(rng.bytes(27), "little") >> int(rng.integers(0, 217))
                 for _ in range(int(rng.integers(0, 6))))


# indices on both sides of 2**32, from where an index takes a second word
INDICES = np.array([0, 1, 7, 2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 3,
                    2 ** 33 + 5, 2 ** 62, 2 ** 63 - 1])

HALF_BITS = _float_bits(0.5)  # 0x3FE0000000000000: low uint32 word is 0

# (master, index) pairs
SPECIAL = [
    ((), 0), ((0,), 0), ((), 2 ** 32 - 1), ((), 2 ** 32), ((2 ** 63 + 12345,), 0),
    ((2 ** 64 - 1,), 7), ((2 ** 64,), 1), ((3 ** 90, 2), 5),  # wider than 64 bits
    ((2 ** 40,), 0),
    ((9, 2 ** 33), 17),  # tuple master
    ((1,), 0), ((2 ** 62 + 1,), 2 ** 32 + 3),
]


@pytest.fixture(scope="module")
def masters():
    rng = np.random.default_rng(2024)
    return [m for m, _ in SPECIAL] + [_random_master(rng) for _ in range(40)]


@pytest.fixture(scope="module")
def streams(masters):
    rng = np.random.default_rng(7)
    return SPECIAL + [(m, int(rng.choice(INDICES)) + int(rng.integers(0, 2)))
                      for m in masters for _ in range(4)]


def _words(pairs, tag=()):
    return np.vstack([_pcg64.hash_words(m, [i], tag) for m, i in pairs])


def _reference(master, indices, tag=()):
    return np.array([np.random.SeedSequence((*master, int(i), *tag))
                     .generate_state(4, np.uint64) for i in indices])


def test_seed_words_equal_seed_sequence(streams, masters):
    words = _words(streams)
    ref = np.array([np.random.SeedSequence((*m, i)).generate_state(4, np.uint64)
                    for m, i in streams])
    assert words.dtype == np.uint64
    assert np.array_equal(words, ref)
    # a whole index array under one master hashes like its rows one by one
    for m in masters[:20]:
        assert np.array_equal(_pcg64.hash_words(m, INDICES), _reference(m, INDICES))


@pytest.mark.parametrize("tag", [
    (), (BRIDGE_STREAM_TAG, HALF_BITS), (BRIDGE_STREAM_TAG, _float_bits(2.0 ** -1074)),
    (0,), (2 ** 32,), (7, 2 ** 64 - 1, 3 ** 50, 0),
])
def test_tagged_words_equal_seed_sequence(masters, tag):
    # the tag's words follow the index: masters of 0-5 entries and up to
    # 216 bits, index arrays that straddle 2**32 in any order, so one call
    # mixes rows of one and of two index words
    rng = np.random.default_rng(3)
    indices = rng.permutation(np.concatenate(
        [INDICES, np.arange(2 ** 32 - 20, 2 ** 32 + 20)]))
    for m in masters:
        ref = _reference(m, indices, tag)
        assert np.array_equal(_pcg64.hash_words(m, indices, tag), ref)
        # a subset of the indices hashes like the same rows of the whole
        rows = np.arange(0, indices.size, 7)
        assert np.array_equal(_pcg64.hash_words(m, indices[rows], tag), ref[rows])
    # a chunk of small indices, as a sweep has
    chunk = np.arange(8192, 8232)
    assert np.array_equal(_pcg64.hash_words((3,), chunk, tag),
                          _reference((3,), chunk, tag))


def test_negative_tag_raises_like_numpy():
    with pytest.raises(ValueError):
        _pcg64.hash_words((1,), [2], (BRIDGE_STREAM_TAG, -1))
    with pytest.raises(ValueError):
        np.random.SeedSequence((1, 2, BRIDGE_STREAM_TAG, -1))


def test_seeded_state_equals_pcg64_state(streams):
    seeded = _pcg64.seeded_state(_words(streams))
    for (m, i), row in zip(streams, seeded):
        st = np.random.PCG64((*m, i)).state["state"]
        assert (int(row[0]) << 64) | int(row[1]) == st["state"]
        assert (int(row[2]) << 64) | int(row[3]) == st["inc"]


def test_kth_uniform_equals_default_rng(streams):
    seeded = _pcg64.seeded_state(_words(streams))
    k_max = 3000
    draws = np.array([np.random.default_rng((*m, i)).uniform(size=k_max + 1)
                      for m, i in streams])
    for k in [0, 1, 2, 3, 63, 64, 255, 1023, 1024, 1025, 2047, 2999, 3000]:
        assert np.array_equal(_pcg64.kth_uniform(seeded, k), draws[:, k]), k
    rng = np.random.default_rng(5)
    for k in rng.integers(0, k_max + 1, size=20):
        rows = rng.choice(len(streams), size=30, replace=False)
        assert np.array_equal(_pcg64.kth_uniform(seeded[rows], k),
                              draws[rows, k]), k


def test_generator_equals_default_rng_normals(streams):
    # every generator is built before any draws: pointing the table at a
    # later row does not move a generator already built
    seeds = _pcg64.SeedTable(_words(streams))
    gens = [_pcg64.generator(seeds, row) for row in range(len(streams))]
    for (m, i), gen in zip(streams, gens):
        ref = np.random.default_rng((*m, i))
        assert np.array_equal(gen.standard_normal((300, 2)),
                              ref.standard_normal((300, 2)))


@pytest.mark.parametrize("bad", [((-1,), [0]), ((3,), [2, -1]),
                                 ((1, -(2 ** 70)), [0])])
def test_negative_entropy_raises_like_numpy(bad):
    master, indices = bad
    with pytest.raises(ValueError) as ours:
        _pcg64.hash_words(master, indices)
    with pytest.raises(ValueError) as theirs:
        np.random.SeedSequence((*master, min(indices)))
    assert str(ours.value) == str(theirs.value)


def test_bridge_sweep_builds_one_generator_per_path(monkeypatch):
    # bridge uniforms are evaluated from the step index, never drawn from
    # generators or buffers of their own
    built = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    field = sl.make_field("linear-1d")
    bars = (0.5, 2.0)
    res = sweep_paths(field, [1.0], 1.0, StepPolicy.fixed(1e-2), 3, np.arange(64),
                      barriers=bars, bridge=True)
    assert len(built) == 64
    assert res.cross_bridge.any()
