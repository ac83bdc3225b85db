"""numpy's SeedSequence and PCG64 evaluated for many entropy tuples at once.

``seed_words`` computes ``SeedSequence(e).generate_state(4, np.uint64)`` for
a whole chunk of entropy tuples in one vectorized pass over their uint32
words.  ``seeded_state`` turns those words into PCG64's seeded 128-bit
``(state, inc)``, and ``kth_uniform`` jumps each stream straight to its k-th
output, so the k-th ``Generator.uniform()`` draw of a stream costs O(log k)
without building the stream (O'Neill 2014; counter-style evaluation as in
Salmon et al. 2011).  ``generator`` builds the ordinary numpy Generator from
precomputed words.  Every function reproduces numpy's own results bit for
bit; the unit tests compare them with numpy directly.

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


def _column_words(column) -> tuple[np.ndarray, np.ndarray]:
    """Words of one tuple position across rows: a (n, w) uint32 matrix and the
    per-row word count."""
    try:
        vals = np.array(column, dtype=np.uint64)
    except OverflowError:  # negative, or wider than 64 bits
        per_row = [_int_words(int(v)) for v in column]
        counts = np.array([len(w) for w in per_row], dtype=np.int64)
        mat = np.zeros((len(per_row), int(counts.max())), dtype=np.uint32)
        for i, w in enumerate(per_row):
            mat[i, :len(w)] = w
        return mat, counts
    mat = np.stack([vals & _U32, vals >> np.uint64(32)], axis=1).astype(np.uint32)
    counts = np.where(mat[:, 1] > 0, 2, 1)
    return mat, counts


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(const)
    const = (const * _MULT_A) & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _pool_state(words: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, uint64)`` for rows of equally many words."""
    n, n_words = words.shape
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        src = words[:, i] if i < n_words else np.zeros(n, dtype=np.uint32)
        mixed, const = _hashmix(src, const)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, const = _hashmix(pool[i_src], const)
                pool[i_dst] = _mix(pool[i_dst], mixed)
    for i_src in range(_POOL_SIZE, n_words):
        for i_dst in range(_POOL_SIZE):
            mixed, const = _hashmix(words[:, i_src], const)
            pool[i_dst] = _mix(pool[i_dst], mixed)

    const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # little-endian pairs of uint32 words form the uint64 words
    return np.stack([state[2 * i] | (state[2 * i + 1] << np.uint64(32))
                     for i in range(_POOL_SIZE)], axis=1)


def seed_words(entropies) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every entropy tuple.

    Returns an (n, 4) uint64 array.  Tuples may differ in length and in the
    word count of their entries; rows are grouped by total word count.
    Negative entries raise ValueError, as numpy does.
    """
    entropies = [tuple(e) for e in entropies]
    n = len(entropies)
    out = np.empty((n, _POOL_SIZE), dtype=np.uint64)
    if not n:
        return out
    lengths = np.fromiter(map(len, entropies), dtype=np.int64, count=n)
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        group = [entropies[i] for i in rows] if rows.size < n else entropies
        cols = [_column_words(c) for c in zip(*group)]
        total = sum((counts for _, counts in cols),
                    np.zeros(rows.size, dtype=np.int64))
        words = np.zeros((rows.size, int(total.max(initial=0))), dtype=np.uint32)
        offset = np.zeros(rows.size, dtype=np.int64)
        for mat, counts in cols:
            for w in range(mat.shape[1]):
                has = np.flatnonzero(counts > w)
                words[has, offset[has] + w] = mat[has, w]
            offset += counts
        for n_words in np.unique(total):
            sel = np.flatnonzero(total == n_words)
            out[rows[sel]] = _pool_state(words[sel, :n_words])
    return out


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 precomputed state words."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def generator(words: np.ndarray) -> np.random.Generator:
    """``np.random.default_rng(e)`` from ``seed_words`` row of ``e``."""
    return np.random.default_rng(
        np.random.PCG64(_Words(np.ascontiguousarray(words, dtype=np.uint64))))


# -- 128-bit arithmetic on (hi, lo) uint64 pairs ----------------------------

def _mul128(c: int, hi: np.ndarray, lo: np.ndarray):
    """The constant ``c`` times (hi, lo), mod 2**128."""
    sh = np.uint64(32)
    c_lo, c_hi = c & _MASK64, (c >> 64) & _MASK64
    c0, c1 = np.uint64(c_lo & _MASK32), np.uint64(c_lo >> 32)
    # full 128-bit product c_lo * lo through 32-bit limbs
    b0, b1 = lo & _U32, lo >> sh
    p00, p01, p10 = c0 * b0, c0 * b1, c1 * b0
    mid = (p00 >> sh) + (p01 & _U32) + (p10 & _U32)
    top = c1 * b1 + (p01 >> sh) + (p10 >> sh) + (mid >> sh)
    c_lo = np.uint64(c_lo)
    return top + c_lo * hi + np.uint64(c_hi) * lo, c_lo * lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def seeded_state(words: np.ndarray) -> np.ndarray:
    """PCG64's seeded ``(state, inc)`` from ``seed_words`` rows.

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
    seeded = np.asarray(seeded, dtype=np.uint64)
    s_hi, s_lo, inc_hi, inc_lo = seeded.T
    hi, lo = _add128(*_mul128(a, s_hi, s_lo), *_mul128(g, inc_hi, inc_lo))
    # XSL-RR output: rotate (hi ^ lo) right by the top 6 bits of the state
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
