"""The vectorized SeedSequence/PCG64 evaluation against numpy itself."""

import numpy as np
import pytest

import sdelab as sl
from sdelab import _pcg64
from sdelab.engine import (BRIDGE_STREAM_TAG, Barrier, StepPolicy, _float_bits,
                           path_entropy, sweep_paths)


def _random_entropies(rng, n):
    """Tuples of 1-6 entries whose values span 1 to 64 bits, plus zeros."""
    out = []
    for _ in range(n):
        size = int(rng.integers(1, 7))
        vals = rng.integers(0, 2 ** 63, size=size, dtype=np.uint64)
        shifts = rng.integers(0, 64, size=size, dtype=np.uint64)
        out.append(tuple(int(v) << 1 >> int(s) for v, s in zip(vals, shifts)))
    return out


HALF_BITS = _float_bits(0.5)  # 0x3FE0000000000000: low uint32 word is 0

SPECIAL = [
    (0,), (0, 0), (2 ** 32 - 1,), (2 ** 32,), (2 ** 63 + 12345, 0),
    (2 ** 64 - 1, 7), (2 ** 64, 1), (3 ** 90, 2, 5),  # wider than 64 bits
    path_entropy(2 ** 40, 0),
    path_entropy((9, 2 ** 33), 17),  # tuple master
    (*path_entropy(1, 0), BRIDGE_STREAM_TAG, HALF_BITS),
    (*path_entropy(2 ** 62 + 1, 2 ** 32 + 3), BRIDGE_STREAM_TAG, HALF_BITS),
]


@pytest.fixture(scope="module")
def entropies():
    return SPECIAL + _random_entropies(np.random.default_rng(2024), 200)


def test_seed_words_equal_seed_sequence(entropies):
    words = _pcg64.seed_words(entropies)
    ref = np.array([np.random.SeedSequence(e).generate_state(4, np.uint64)
                    for e in entropies])
    assert words.dtype == np.uint64
    assert np.array_equal(words, ref)
    # one row at a time gives the same words as the ragged batch
    for e, row in zip(entropies[:20], words):
        assert np.array_equal(_pcg64.seed_words([e])[0], row)


@pytest.mark.parametrize("tag", [
    (), (BRIDGE_STREAM_TAG, HALF_BITS), (BRIDGE_STREAM_TAG, _float_bits(2.0 ** -1074)),
    (0,), (2 ** 32,), (7, 2 ** 64 - 1, 3 ** 50, 0),
])
def test_tagged_words_equal_seed_sequence(entropies, tag):
    # one word matrix hashes the tuples with any tag appended: entries of
    # one and two words (master seeds from 2**32 up, index 0), wider than 64
    # bits and tuples of every length mixed in one batch
    mixed = entropies + [path_entropy(2 ** 32 + 5, 0), path_entropy(1, 0),
                         path_entropy(2 ** 40, 2 ** 33), path_entropy(2 ** 63, 1)]
    words, counts = _pcg64.entropy_words(mixed)
    ref = np.array([np.random.SeedSequence((*e, *tag)).generate_state(4, np.uint64)
                    for e in mixed])
    assert np.array_equal(_pcg64.hash_words(words, counts, tag), ref)
    # a subset of the rows hashes like the whole, and so does a batch of
    # equally many words per row, as a sweep chunk has
    rows = np.arange(0, len(mixed), 7)
    assert np.array_equal(_pcg64.hash_words(words[rows], counts[rows], tag),
                          ref[rows])
    chunk = [path_entropy(3, i) for i in range(40)]
    assert np.array_equal(
        _pcg64.hash_words(*_pcg64.entropy_words(chunk), tag),
        [np.random.SeedSequence((*e, *tag)).generate_state(4, np.uint64)
         for e in chunk])


def test_negative_tag_raises_like_numpy():
    words, counts = _pcg64.entropy_words([(1, 2)])
    with pytest.raises(ValueError):
        _pcg64.hash_words(words, counts, (BRIDGE_STREAM_TAG, -1))
    with pytest.raises(ValueError):
        np.random.SeedSequence((1, 2, BRIDGE_STREAM_TAG, -1))


def test_seeded_state_equals_pcg64_state(entropies):
    seeded = _pcg64.seeded_state(_pcg64.seed_words(entropies))
    for e, row in zip(entropies, seeded):
        st = np.random.PCG64(e).state["state"]
        assert (int(row[0]) << 64) | int(row[1]) == st["state"]
        assert (int(row[2]) << 64) | int(row[3]) == st["inc"]


def test_kth_uniform_equals_default_rng(entropies):
    seeded = _pcg64.seeded_state(_pcg64.seed_words(entropies))
    k_max = 3000
    draws = np.array([np.random.default_rng(e).uniform(size=k_max + 1)
                      for e in entropies])
    for k in [0, 1, 2, 3, 63, 64, 255, 1023, 1024, 1025, 2047, 2999, 3000]:
        assert np.array_equal(_pcg64.kth_uniform(seeded, k), draws[:, k]), k
    rng = np.random.default_rng(5)
    for k in rng.integers(0, k_max + 1, size=20):
        rows = rng.choice(len(entropies), size=30, replace=False)
        assert np.array_equal(_pcg64.kth_uniform(seeded[rows], k),
                              draws[rows, k]), k


def test_generator_equals_default_rng_normals(entropies):
    words = _pcg64.seed_words(entropies)
    for e, row in zip(entropies, words):
        gen = _pcg64.generator(row)
        ref = np.random.default_rng(e)
        assert np.array_equal(gen.standard_normal((300, 2)),
                              ref.standard_normal((300, 2)))


@pytest.mark.parametrize("bad", [(-1,), (3, -1), (1, -(2 ** 70))])
def test_negative_entropy_raises_like_numpy(bad):
    with pytest.raises(ValueError) as ours:
        _pcg64.seed_words([(1, 2), bad])
    with pytest.raises(ValueError) as theirs:
        np.random.SeedSequence(bad)
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
    bars = (Barrier(0.5, "down"), Barrier(2.0, "up"))
    res = sweep_paths(field, [1.0], 1.0, StepPolicy.fixed(1e-2),
                      [path_entropy(3, i) for i in range(64)],
                      barriers=bars, bridge=True)
    assert len(built) == 64
    assert res.cross_bridge.any()
