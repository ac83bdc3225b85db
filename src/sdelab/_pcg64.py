"""numpy's SeedSequence and PCG64 evaluated for a whole chunk of paths at once.

A path is named by a master seed and its index, and its stream is numpy's
``default_rng((*master, index))``: a counter-style keyed stream, with the
master as the key and the index as the counter (Salmon et al. 2011).
``hash_words(master, indices, tag)`` computes
``SeedSequence((*master, i, *tag)).generate_state(4, np.uint64)`` for every
index in one vectorized pass; the master's and the tag's words are hashed
once per call, shared by every index.  ``seeded_state`` turns the words into
PCG64's seeded 128-bit ``(state, inc)``, and ``kth_uniform`` jumps each
stream straight to its k-th output, so the k-th ``Generator.uniform()`` draw
of a stream costs O(log k) without building the stream (O'Neill 2014).
``SeedTable`` holds a chunk's words once, and ``generator(seeds, row)``
builds the ordinary numpy Generator of one row from it, so every generator
of a chunk shares one seed object.
Every function reproduces numpy's own results bit for bit; the unit tests
compare them with numpy directly.

128-bit values are (hi, lo) pairs of uint64 arrays; products go through
32-bit limbs.  Only numpy is imported.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence hashing constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# PCG64 (XSL-RR 128/64) LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

_U32 = np.uint64(_MASK32)


def _int_words(value: int) -> list[int]:
    """numpy's coercion of one non-negative int to little-endian uint32 words."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(const)
    const = (const * _MULT_A) & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _pool_state(columns: list, n: int) -> np.ndarray:
    """``SeedSequence.generate_state(4, uint64)`` for n rows of equally many
    words.  ``columns[i]`` holds every row's i-th uint32 word: an (n,) array,
    or a one-element array for a word all rows share."""
    n_words = len(columns)
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        src = columns[i] if i < n_words else np.zeros(1, dtype=np.uint32)
        mixed, const = _hashmix(src, const)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, const = _hashmix(pool[i_src], const)
                pool[i_dst] = _mix(pool[i_dst], mixed)
    for i_src in range(_POOL_SIZE, n_words):
        for i_dst in range(_POOL_SIZE):
            mixed, const = _hashmix(columns[i_src], const)
            pool[i_dst] = _mix(pool[i_dst], mixed)

    const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # little-endian pairs of uint32 words form the uint64 words
    out = np.empty((n, _POOL_SIZE), dtype=np.uint64)
    for i in range(_POOL_SIZE):
        out[:, i] = state[2 * i] | (state[2 * i + 1] << np.uint64(32))
    return out


def hash_words(master, indices, tag=()) -> np.ndarray:
    """``SeedSequence((*master, i, *tag)).generate_state(4, np.uint64)`` for
    each index ``i``.

    Returns a (len(indices), 4) uint64 array.  The master's and the tag's
    words are one-element columns shared by every row, so they are hashed
    once per call, not once per index; the index adds one word per row, or
    two where it is at least 2**32.  Negative entries raise ValueError, as
    numpy does.
    """
    def shared(values):
        return [np.array([w], dtype=np.uint32)
                for v in values for w in _int_words(int(v))]

    head, tail = shared(master), shared(tag)
    idx = np.asarray(indices).reshape(-1)
    if idx.size and idx.min() < 0:
        raise ValueError("expected non-negative integer")
    idx = idx.astype(np.uint64)
    lo = (idx & _U32).astype(np.uint32)
    hi = (idx >> np.uint64(32)).astype(np.uint32)
    out = np.empty((idx.size, _POOL_SIZE), dtype=np.uint64)
    for wide in (False, True):
        rows = np.flatnonzero((hi > 0) == wide)
        if rows.size:
            own = [lo[rows], hi[rows]] if wide else [lo[rows]]
            out[rows] = _pool_state(head + own + tail, rows.size)
    return out


class SeedTable(ISeedSequence):
    """``hash_words`` rows that PCG64 reads one row at a time: ``generator``
    points the table at the row it builds, PCG64 reads it once, and every
    generator keeps the one table as its ``seed_seq``."""

    __slots__ = ("_words", "_row")

    def __init__(self, words: np.ndarray):
        self._words = np.ascontiguousarray(words, dtype=np.uint64)
        self._row = 0

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words[self._row]


def generator(seeds: SeedTable, row: int) -> np.random.Generator:
    """``np.random.default_rng(e)`` from row ``row`` of ``seeds``, the
    ``hash_words`` row of ``e``."""
    seeds._row = row
    return np.random.default_rng(np.random.PCG64(seeds))


# -- 128-bit arithmetic on (hi, lo) uint64 pairs ----------------------------

def _mul128(c, hi: np.ndarray, lo: np.ndarray):
    """The constant ``c`` times (hi, lo), mod 2**128.

    ``c`` is an int, or a list of ints that multiply the rows of 2-d
    (hi, lo) one each, so several products cost one pass.
    """
    sh = np.uint64(32)
    cs = [c] if isinstance(c, int) else list(c)
    shape = (len(cs),) + (1,) * (hi.ndim - 1)
    c_lo = np.array([v & _MASK64 for v in cs], dtype=np.uint64).reshape(shape)
    c_hi = np.array([(v >> 64) & _MASK64 for v in cs], dtype=np.uint64).reshape(shape)
    c0, c1 = c_lo & _U32, c_lo >> sh
    # full 128-bit product c_lo * lo through 32-bit limbs
    b0, b1 = lo & _U32, lo >> sh
    p00, p01, p10 = c0 * b0, c0 * b1, c1 * b0
    mid = (p00 >> sh) + (p01 & _U32) + (p10 & _U32)
    top = c1 * b1 + (p01 >> sh) + (p10 >> sh) + (mid >> sh)
    return top + c_lo * hi + c_hi * lo, c_lo * lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def seeded_state(words: np.ndarray) -> np.ndarray:
    """PCG64's seeded ``(state, inc)`` from ``hash_words`` rows.

    Returns an (n, 4) uint64 array of columns (state_hi, state_lo, inc_hi,
    inc_lo): the values ``PCG64(e).state`` reports before any draw.
    """
    words = np.asarray(words, dtype=np.uint64)
    s_hi, s_lo, q_hi, q_lo = words.T
    one = np.uint64(1)
    inc_hi = (q_hi << one) | (q_lo >> np.uint64(63))
    inc_lo = (q_lo << one) | one
    # state = 0; step; state += initstate; step
    hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
    hi, lo = _mul128(_PCG_MULT, hi, lo)
    hi, lo = _add128(hi, lo, inc_hi, inc_lo)
    return np.stack([hi, lo, inc_hi, inc_lo], axis=1)


def _jump(k: int) -> tuple[int, int]:
    """(A, G) with state_{k+1} = A * state_0 + G * inc (mod 2**128)."""
    a = pow(_PCG_MULT, k + 1, 1 << 128)
    # G = 1 + M + ... + M**k = (M**(k+1) - 1) / (M - 1); the division is exact
    # over the integers, so reducing mod (M - 1) * 2**128 first keeps G mod 2**128
    mod = (_PCG_MULT - 1) << 128
    g = (pow(_PCG_MULT, k + 1, mod) - 1) % mod // (_PCG_MULT - 1)
    return a, g & _MASK128


def kth_uniform(seeded: np.ndarray, k: int) -> np.ndarray:
    """``default_rng(e).uniform(size=k+1)[k]`` for each ``seeded_state`` row."""
    a, g = _jump(int(k))
    # rows (state, inc) of the seeded columns times (A, G) in one pass
    cols = np.ascontiguousarray(np.asarray(seeded, dtype=np.uint64).T)
    hi, lo = _mul128([a, g], cols[0::2], cols[1::2])
    hi, lo = _add128(hi[0], lo[0], hi[1], lo[1])
    # XSL-RR output: rotate (hi ^ lo) right by the top 6 bits of the state
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
