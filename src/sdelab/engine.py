"""Euler-Maruyama integration with reproducible per-path noise streams.

The module has two layers.  ``em_step``/``simulate_path`` are the scalar API:
one explicit Euler-Maruyama update and one fully recorded trajectory.  Under
both sits ``sweep_paths``, a vectorized driver that advances a block of paths
simultaneously, detects crossings of levels, each from the side of the start
level, incrementally, and retires paths at the end of the step they stop in,
a zero step for a path that blows up.  Its ``SweepResult`` records each fact
once: a path that a crossing stops ends there, so that crossing's time and
state are the path's end time and end state, and the capture at a time t is
the stopped state X(t ^ end time), for any number of times.  Every estimator
in the package runs on the same driver, so a path's realization depends only
on its name, the pair (master seed, path index), and the step policy, never
on batch size, worker count, or which functional is being accumulated.

Noise is numpy's own: each path's increments are
``default_rng((*master, index))`` normals, and each (path, barrier) bridge
uniform stream is the PCG64 stream of
``(*master, index, BRIDGE_STREAM_TAG, level bits)``, so enabling the bridge
never perturbs the increments.  One object owns a chunk's normal streams
(``_BlockStreams``): it hashes the chunk's seed words once
(``_pcg64.hash_words``) into one seed table that builds every generator,
works out its block, floor(128 / m) steps and at least one, from the noise
dimension m and the step budget ``horizon / h_min``, and keeps a generator
past its step-0 draw only if that budget outruns one block.  Live paths advance in
lockstep, so one step counter locates every path in its stream.  The
bridge uniforms are not buffered but evaluated directly at the step index
(``_pcg64.kth_uniform``), and only where the bridge probability exceeds
2^-53: a 53-bit uniform is a multiple of 2^-53, so a smaller probability
could trigger only on a uniform of exactly 0.  Each sweep step is one pass
over compact live-path arrays, and sigma and b are evaluated once per
state: the values at a step's end state serve its level and the next
step's update.  All barriers are tested at once as a (barrier, candidate
path) matrix, where a candidate is a live path whose new level reaches its
nearest uncrossed barrier or, with the bridge, whose bridge probability may
exceed 2^-53 for one (``bridge_candidates``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _pcg64
from . import coefficients as cf
from .coefficients import CoefficientField
from .errors import InvalidInputError, InvariantError, NumericalBlowupError

# Any state component beyond this magnitude aborts the path.
BLOWUP_LIMIT = 1e12

# Stream separator for Brownian-bridge uniforms, so enabling the bridge
# correction never perturbs the increment stream.
BRIDGE_STREAM_TAG = 0x42726467

DEFAULT_CHUNK = 8192
# normals per path in one block of the noise buffer
_NORMAL_BLOCK = 128

# The bridge cutoff (see sweep_paths) and the prefilter's bound on half the
# exponent: 53 ln 2 plus one nat, so that rounding can only add candidates.
_BRIDGE_P_MIN = 2.0 ** -53
_BRIDGE_HALF_EXPONENT = (53 * math.log(2) + 1) / 2


@dataclass(frozen=True)
class StepPolicy:
    """Step-size policy: fixed h, or level-adaptive shrinking near the zero set.

    The adaptive step at level L is clamp(level_fraction * L / (1 + L),
    h_min, h_max), so dyadic level bands stay resolvable as L -> 0.
    """

    kind: str = "level-adaptive"
    h_max: float = 1e-3
    h_min: float = 1e-7
    level_fraction: float = 0.01

    def __post_init__(self):
        # each message starts with the field it names
        if self.kind not in ("fixed", "level-adaptive"):
            raise InvalidInputError(
                f"kind: must be 'fixed' or 'level-adaptive', got {self.kind!r}")
        if not (0 < self.h_min <= self.h_max):
            raise InvalidInputError(f"h_min: need 0 < h_min <= h_max, got "
                                    f"h_min={self.h_min}, h_max={self.h_max}")
        if self.kind == "level-adaptive" and self.level_fraction <= 0:
            raise InvalidInputError("level_fraction: must be positive")

    @staticmethod
    def fixed(h: float) -> "StepPolicy":
        return StepPolicy(kind="fixed", h_max=h, h_min=h)

    def to_dict(self) -> dict:
        return asdict(self)

    def step_sizes(self, levels: np.ndarray) -> np.ndarray:
        if self.kind == "fixed":
            return np.full(levels.shape, self.h_max)
        raw = self.level_fraction * levels / (1.0 + levels)
        # np.clip's wrapper costs more than the two ufuncs on the sweep's
        # blocks, and agrees with them bit for bit, NaN included
        return np.minimum(np.maximum(raw, self.h_min), self.h_max)


@dataclass
class PathRealization:
    """One discretized trajectory with the noise that produced it."""

    times: np.ndarray       # (n_steps + 1,)
    states: np.ndarray      # (n_steps + 1, d)
    increments: np.ndarray  # (n_steps, m), the Brownian increments consumed
    seed: tuple[int, ...]
    absorbed: bool = False


@dataclass
class SweepResult:
    """Per-path functionals accumulated by :func:`sweep_paths`.

    A path stopped by a crossing (its first with ``stop_mode='first'``, its
    last with ``'all'``) ends there: that crossing's time and state are its
    ``end_times`` and ``end_states``.
    """

    end_times: np.ndarray      # (n,)
    end_states: np.ndarray     # (n, d)
    min_levels: np.ndarray     # (n,)
    cross_times: np.ndarray    # (n, n_barriers), nan where uncrossed
    cross_bridge: np.ndarray   # (n, n_barriers) bool
    capture_state: np.ndarray  # (n, n_times, d): X(min(capture_times[j], end))
    absorbed: np.ndarray       # (n,) bool
    blown_up: np.ndarray       # (n,) bool
    noise_sum: np.ndarray | None
    trajectory: PathRealization | None


def entropy_tuple(seed) -> tuple[int, ...]:
    """Normalize a seed (int, or tuple, list or array of ints) to an entropy
    tuple.

    Every entry must be a non-negative integer; a bool, a float or a
    negative entry raises InvalidInputError naming the seed.
    """
    is_seq = isinstance(seed, (tuple, list, np.ndarray))
    entries = tuple(seed) if is_seq else (seed,)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               and v >= 0 for v in entries):
        raise InvalidInputError(
            f"seed {seed!r}: entries must be non-negative integers")
    return tuple(map(int, entries))


def path_entropy(master_seed, path_index: int) -> tuple[int, ...]:
    """Entropy tuple ``(*master, path_index)`` of one path under a master seed.

    Derived from (master_seed, path_index) only, so serial and parallel runs
    consume identical noise regardless of scheduling.
    """
    return entropy_tuple((*entropy_tuple(master_seed), path_index))


def iter_chunks(n_paths: int, chunk_size: int = DEFAULT_CHUNK):
    """Fixed-size path-index blocks; the unit of work for parallel runs."""
    for lo in range(0, n_paths, chunk_size):
        yield np.arange(lo, min(lo + chunk_size, n_paths))


def _resolve_bridge(field: CoefficientField, flag) -> bool:
    """The bridge setting ``flag`` of a sweep of ``field``: ``"auto"`` turns
    the correction on exactly where it applies, on 1-d fields with
    ``abs_level_inverse``, and a true flag anywhere else is an error."""
    applies = field.d == 1 and field.abs_level_inverse is not None
    if flag == "auto":
        return applies
    if flag and not applies:
        raise InvalidInputError(
            "bridge correction needs a 1-d field with abs_level_inverse")
    return bool(flag)


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


class _BlockStreams:
    """A chunk's per-path normal generators, drained in lockstep blocks.

    Path i's stream is ``default_rng((*master, indices[i]))``.  The chunk's
    seed words are hashed once (``_pcg64.hash_words``) into one
    ``_pcg64.SeedTable``, and every generator is built from a row of it, so
    no generator holds a seed object of its own.  numpy Generators yield the
    same values whether drawn one at a time or in blocks, and whether or not
    they are drawn into ``out``, so each path's draws are exactly "one draw
    per step".  Paths start together and every live path takes every step,
    so all of them sit at the same buffer position: one step counter serves
    them all.  At each multiple of the block each live path draws straight
    into its own contiguous row of a path-major ``(n, block, m)`` buffer,
    and step k reads column k of the live rows.  A block is floor(128 / m)
    steps of the m-dimensional noise and at least one, so a row holds at
    most 128 normals unless one step needs more, and at most
    ``ceil(budget)`` steps, the most a sweep with step budget ``budget``
    (``horizon / h_min``) can take.

    A path's generator is built at its first refill, step 0, and kept only
    while it can still refill: when the budget fits in one block, each
    generator is built, drawn into its row and dropped in the same pass, and
    a later refill raises InvariantError rather than restart a stream.
    """

    def __init__(self, master, indices, m, budget):
        n = len(indices)
        block = math.ceil(min(max(1, _NORMAL_BLOCK // m), budget))
        self._seeds = _pcg64.SeedTable(_pcg64.hash_words(master, indices))
        self._gens = [None] * n if budget > block else None
        self._buf = np.empty((n, block, m))
        # the same memory as one opaque record per (path, step): a step then
        # gathers whole draws, not m floats at a time per row, which is
        # several times faster for m = 2
        record = np.dtype((np.void, self._buf.itemsize * m))
        self._records = self._buf.view(record).reshape(n, block)

    def draw(self, rows: np.ndarray, step: int) -> np.ndarray:
        buf, gens = self._buf, self._gens
        _, block, m = buf.shape
        k = step % block
        if k == 0:
            if step and gens is None:
                raise InvariantError(
                    f"step {step} refills a stream dropped after its one block")
            seeds = self._seeds
            # one Python iteration per live path: plain ints and locals keep
            # its overhead small next to the draw
            for i in rows.tolist():
                gen = gens[i] if step else _pcg64.generator(seeds, i)
                gen.standard_normal(out=buf[i])
                if gens is not None:
                    gens[i] = gen
        return self._records[:, k][rows].view(np.float64).reshape(rows.size, m)


def bridge_cross_probability(x0, x1, sigma, h, barrier_x, down) -> np.ndarray:
    """Brownian-bridge probability that |x| crosses ``barrier_x`` within steps.

    For each step from x0 to x1 of length h with diffusion coefficient sigma
    at x0, this is exp(-2 gap0 gap1 / (sigma^2 h)) where gap0, gap1 are the
    endpoints' distances from the barrier on the side the step starts
    (``down``: |x| above the barrier, else below).  Steps with an endpoint on
    or past the barrier, or with sigma = 0, get 0.  The step arguments are
    1-d; ``barrier_x`` and ``down`` broadcast against them, so a column of
    barriers gives one row of probabilities per barrier.
    """
    side = np.where(down, 1.0, -1.0)
    gap0 = (np.abs(x0) - barrier_x) * side
    gap1 = (np.abs(x1) - barrier_x) * side
    s0 = np.abs(sigma)
    ok = (gap0 > 0) & (gap1 > 0) & (s0 > 0)
    # exponent -inf, so probability 0, wherever the step cannot cross
    z = np.divide(-2.0 * gap0 * gap1, s0 ** 2 * h,
                  out=np.full(ok.shape, -np.inf), where=ok)
    return np.exp(z)


def bridge_candidates(x0, x1, sigma, h, x_dn, x_up) -> np.ndarray:
    """Steps whose bridge probability may exceed 2^-53 for some barrier.

    ``x_dn`` is, per step, the largest |x| position of an uncrossed down
    barrier (-inf without one) and ``x_up`` the smallest of an uncrossed up
    barrier (inf without one); the other arguments are those of
    ``bridge_cross_probability``.  A down barrier at or below ``x_dn`` has
    both gaps at least the gaps to ``x_dn`` (rounded subtraction is
    monotone), so its exponent 2 gap0 gap1 / (sigma^2 h) is at least the
    one to ``x_dn``, and likewise for up barriers.  A step is a candidate
    when that exponent is below 53 ln 2 plus one nat, which leaves room for
    the rounding of both computations, or when a gap to ``x_dn`` or ``x_up``
    is not positive and sigma^2 h > 0 (where sigma^2 h is 0 no probability
    exceeds 2^-53).  So the result is True wherever
    ``bridge_cross_probability`` exceeds 2^-53 for an uncrossed barrier,
    and on some steps where it does not.
    """
    ax0, ax1 = np.abs(x0), np.abs(x1)
    limit = _BRIDGE_HALF_EXPONENT * (np.abs(sigma) ** 2 * h)
    near = (ax0 - x_dn) * np.maximum(ax1 - x_dn, 0.0) < limit
    near |= (x_up - ax0) * np.maximum(x_up - ax1, 0.0) < limit
    return near


def _em_batch(X, Sig, Bv, h, DW):
    # one Euler-Maruyama update on an (n, d) block; h is (n,)
    return X + np.einsum("ijk,ik->ij", Sig, DW, optimize=False) + Bv * h[:, None]


def _state_at(X, X1, t, dt, s):
    # the state at time s on the linear interpolant of steps X -> X1 that
    # start at t and last dt
    frac = (s - t) / dt
    return X + (X1 - X) * frac[:, None]


def em_step(field: CoefficientField, x, h: float, dW) -> np.ndarray:
    """Single Euler-Maruyama update x + sigma(x) dW + b(x) h."""
    if not h > 0:
        raise InvalidInputError("step size must be positive")
    dw = np.asarray(dW, dtype=float)
    if dw.shape != (field.m,):
        raise InvalidInputError(
            f"increment has shape {dw.shape}, field expects ({field.m},)")
    if not np.all(np.isfinite(dw)):
        raise InvalidInputError("increment has non-finite entries")
    row, sig, drift = cf._coefficients_at(field, x)
    return _em_batch(row, sig, drift, np.array([float(h)]), dw[None])[0]


def sweep_paths(field: CoefficientField, start, horizon: float,
                policy: StepPolicy, master, indices, *,
                barriers: tuple = (),
                stop_mode: str = "first",
                capture_times=(),
                min_level_retire: float | None = None,
                bridge: bool = False,
                on_blowup: str = "raise",
                track_noise_sum: bool = False,
                record: bool = False) -> SweepResult:
    """Advance a block of paths from a common start until they stop.

    Path i of the block is named by ``(master, indices[i])``: ``master`` is a
    seed (int or tuple of ints) shared by the block and ``indices`` the
    paths' global indices, so its normals are those of
    ``default_rng(path_entropy(master, indices[i]))`` whatever block it is
    swept in, and a blowup error names that path.

    ``barriers`` are positive levels, each crossed from the side the start
    lies on: a level at or below the start level from above (down), one
    above it from below (up), so one equal to it is crossed at time 0.
    ``cross_times`` has a column per level, in the order given.

    Paths stop at the horizon, on absorption into the zero set, when the
    running grid-minimum of the level drops to ``min_level_retire``, on
    barrier crossings (with ``stop_mode='first'`` at the earliest crossing
    of any barrier, with ``'all'`` once every barrier has been crossed) or
    on numerical blowup, and retire at the end of the step they stop in.  A
    blown-up path's is a zero step, so it keeps its time, state and minimum.

    Crossings are detected on the piecewise-linear interpolant of the level
    along each step; with ``bridge=True`` (1-d fields with a symmetric
    monotone level only) an intra-step excursion past a still-uncrossed
    barrier is additionally triggered with the Brownian-bridge probability
    exp(-2 a b / (sigma^2 h)) (``bridge_cross_probability``).  The uniform
    compared with it at step k is the k-th draw of the (path, barrier)
    stream seeded by ``(*master, index, BRIDGE_STREAM_TAG, level bits)``,
    computed directly from the step index, so results remain reproducible
    pathwise and the increments are the same with the bridge on or off.

    Simultaneous crossings within one step resolve to the earliest
    interpolated time; exact ties resolve to the lower threshold.  A
    crossing stop (the earliest crossing with ``'first'``, with ``'all'``
    the latest of the step that leaves no barrier uncrossed) ends the path
    at that time, in the step's interpolated state, or a bridge trigger's
    barrier position.

    ``capture_state[:, j]`` is the stopped state X(min(capture_times[j], end
    time)): the state interpolated at that time on the step that contains
    it for a path still running then, else the path's end state.  The times
    may come in any order and may repeat; a time at the horizon gives the
    end states, and a sweep without capture times does no capture work.

    Each step is one pass.  The live paths' state sits in arrays of live
    rows, compressed only on steps where some path retires; a retiring
    path's end time, end state and minimum level are written once, and its
    capture state too at each capture time it ends by.  The
    barriers are one vector in ascending level order, so crossing tests,
    times and bridge probabilities are (barrier, candidate path) matrices
    whose first column minimum is the lower threshold.  A live path is a
    candidate when its new level reaches its highest uncrossed down level or
    its lowest uncrossed up level, or, with the bridge, when its bridge
    probability for the nearest uncrossed barrier on either side may exceed
    2^-53 (``bridge_candidates``); a step without candidates skips the
    matrices.  Only pairs whose bridge probability exceeds 2^-53 draw a
    uniform: a smaller one could trigger only on a uniform of exactly 0,
    which a pair meets with probability 2^-53 per step.  Normals come in
    lockstep blocks, one contiguous row per path (``_BlockStreams``).  Sigma
    and b are evaluated once per state: a step evaluates them at its end
    states, for their level and for the next step's update, and carries
    them with the live state; the start block's values come from
    ``field.sigma`` and ``field.b`` directly, so ``cf.sigma_batch`` is called
    once per step.
    """
    if horizon <= 0:
        raise InvalidInputError("horizon must be positive")
    if stop_mode not in ("first", "all"):
        raise InvalidInputError(f"unknown stop_mode {stop_mode!r}")
    if on_blowup not in ("raise", "retire"):
        raise InvalidInputError(f"unknown on_blowup {on_blowup!r}")
    start = cf._check_state(field, start)
    if not np.all(np.isfinite(start)):
        raise InvalidInputError("start point has non-finite entries")
    levels = np.asarray(barriers, dtype=float)
    if levels.ndim != 1 or not np.all(levels > 0):
        raise InvalidInputError("barriers must be positive levels")
    cap = np.asarray(capture_times, dtype=float)
    if cap.ndim != 1 or not np.all((0 <= cap) & (cap <= horizon)):
        raise InvalidInputError("capture_times must lie in [0, horizon]")
    bridge = _resolve_bridge(field, bridge)

    master = entropy_tuple(master)
    indices = np.asarray(indices)
    if indices.ndim != 1 or indices.size and (
            indices.dtype.kind not in "iu" or indices.min() < 0):
        raise InvalidInputError(
            "indices must be a 1-d array of non-negative integers")
    n = indices.size
    if record and n != 1:
        raise InvalidInputError("trajectory recording supports one path at a time")

    m = field.m
    lev0 = cf.level(field, start)
    # Columns in ascending level order; column j is barriers[order[j]].  A
    # level at or below the start's is crossed from above (down), when
    # side * level <= side * barrier level, and one above it from below.
    order = np.argsort(levels, kind="stable")
    nb = order.size
    levels = levels[order].reshape(nb, 1)
    side = np.where(levels <= lev0, 1.0, -1.0)
    side_levels = side * levels

    tol = cf.resolved_zero_tol(lev0)
    retire_level = -np.inf if min_level_retire is None else min_level_retire
    # a live path's running minimum lies above retire_level, so its level
    # retires it (absorption or the minimum) exactly at or below gone_level
    gone_level = max(tol, retire_level)
    horizon_eps = 1e-12 * max(1.0, horizon)
    # one row per capture time; a time at the horizon is inf, so that every
    # path takes its end state there when it retires
    cap = np.where(cap >= horizon - horizon_eps, np.inf, cap)[:, None]

    streams = _BlockStreams(master, indices, m, horizon / policy.h_min)
    # per-path nearest uncrossed barrier values: levels, and with the bridge
    # also the barriers' |x| positions
    ladder_values = levels[None]
    bridge_seeds = None
    if bridge and nb:
        # Python floats: a numpy scalar warns where the inverse overflows
        bridge_seeds = np.stack([_pcg64.seeded_state(_pcg64.hash_words(
            master, indices, (BRIDGE_STREAM_TAG, _float_bits(level))))
            for level in levels[:, 0].tolist()])
        barrier_x = np.array([field.abs_level_inverse(level)
                              for level in levels[:, 0].tolist()]).reshape(nb, 1)
        ladder_values = np.stack([levels, barrier_x])

    end_times = np.zeros(n)
    end_states = np.tile(start, (n, 1))
    min_levels = np.full(n, lev0)
    cross_times = np.full((n, nb), np.nan)
    cross_bridge = np.zeros((n, nb), dtype=bool)
    capture_state = np.tile(start, (n, cap.size, 1))
    absorbed = np.zeros(n, dtype=bool)
    blown_up = np.zeros(n, dtype=bool)
    noise_sum = np.zeros((n, m)) if track_noise_sum else None

    rec_times, rec_states, rec_incs = [0.0], [start.copy()], []

    # Degenerate starts stop every path at time 0: already absorbed, already
    # at a barrier, already below the min-level retirement threshold, or a
    # horizon too short to step.
    crossed0 = levels[:, 0] == lev0
    if lev0 <= tol:
        absorbed[:] = True
        stop0 = True
    else:
        cross_times[:, crossed0] = 0.0
        stop0 = crossed0.any() if stop_mode == "first" else nb and crossed0.all()
        stop0 = stop0 or lev0 <= retire_level or horizon <= horizon_eps

    is_down = side > 0

    def nearest(unc):
        # rows dn, up (and with the bridge x_dn, x_up) for each column of the
        # (nb, k) uncrossed mask: the highest uncrossed down and the lowest
        # uncrossed up value of each ladder_values row
        dn = np.where(unc & is_down, ladder_values, -np.inf).max(axis=1, initial=-np.inf)
        up = np.where(unc & ~is_down, ladder_values, np.inf).min(axis=1, initial=np.inf)
        return np.stack([dn, up], axis=1).reshape(-1, unc.shape[1])

    # live state, one entry per live path: Sig and Bv are sigma and b at X,
    # and dW_sum is None unless noise sums are tracked.  ``uncrossed`` and
    # ``near`` have one column per live path with stop_mode 'all'; with
    # 'first' a crossing stops its path, so every live path keeps the
    # start's and they are one column broadcast against the paths.  An
    # uncrossed down barrier always lies strictly below the current level
    # and an uncrossed up barrier strictly above it, so a path crosses on
    # the interpolant exactly when lev1 <= dn or lev1 >= up.
    per_path = stop_mode == "all"
    idx = np.arange(0 if stop0 else n)
    X = np.tile(start, (idx.size, 1))
    Sig, Bv = field.sigma(X), field.b(X)
    t = np.zeros(idx.size)
    lev = np.full(idx.size, lev0)
    lo = lev.copy()
    uncrossed = np.repeat(~crossed0[:, None], idx.size if per_path else 1, axis=1)
    near = np.repeat(nearest(~crossed0[:, None]), uncrossed.shape[1], axis=1)
    dW_sum = np.zeros((idx.size, m)) if track_noise_sum else None

    def retire(gone, t_end, x_end, lo_end):
        # write the retiring paths' results once; return the live state
        # without them.  Index takes, not boolean masks: a mask on a 2-d
        # array costs several times as much.
        out, keep = np.flatnonzero(gone), np.flatnonzero(~gone)
        rows = idx[out]
        end_times[rows] = t_end[out]
        end_states[rows] = x_end.take(out, axis=0)
        min_levels[rows] = lo_end[out]
        if cap.size:
            jc, early = np.nonzero(t_end[out] <= cap)
            capture_state[rows[early], jc] = x_end.take(out[early], axis=0)
        if track_noise_sum:
            noise_sum[rows] = dW_sum.take(out, axis=0)
        return (idx[keep], X.take(keep, axis=0), Sig.take(keep, axis=0),
                Bv.take(keep, axis=0), t[keep], lev[keep], lo[keep],
                uncrossed.take(keep, axis=1) if per_path else uncrossed,
                near.take(keep, axis=1) if per_path else near,
                None if dW_sum is None else dW_sum.take(keep, axis=0))

    step = 0
    while idx.size:
        h = np.minimum(policy.step_sizes(lev), horizon - t)
        dW = streams.draw(idx, step) * np.sqrt(h)[:, None]
        X1 = _em_batch(X, Sig, Bv, h, dW)

        # NaN and inf fail the comparison too
        ok = np.abs(X1) <= BLOWUP_LIMIT
        bad = None if ok.all() else ~ok.all(axis=1)
        if bad is not None:
            if on_blowup == "raise":
                i = int(indices[idx[np.argmax(bad)]])
                raise NumericalBlowupError(
                    f"state left trusted range at step {step} (path {i})",
                    step_index=step, path_index=i, seed=(*master, i))
            X1[bad], h[bad], dW[bad] = X[bad], 0.0, 0.0

        Sig1, Bv1 = cf.sigma_batch(field, X1), cf.b_batch(field, X1)
        lev1 = cf._level_of(Sig1, Bv1)
        t1 = t + h
        # realized step duration; used for every within-step time
        # interpolation so crossing times recomputed from a recorded grid
        # (whose spacing is diff of cumulative times) match bit for bit
        dt = t1 - t

        t_end, x_end, stop = t1, X1, None
        if nb:
            reach = (lev1 <= near[0]) | (lev1 >= near[1])
            if bridge_seeds is not None:
                reach |= bridge_candidates(X[:, 0], X1[:, 0], Sig[:, 0, 0], dt,
                                           near[2], near[3])
            cand = np.flatnonzero(reach)
        if nb and cand.size:
            lv, lv1, tt, ddt = lev[cand], lev1[cand], t[cand], dt[cand]
            unc = uncrossed.take(cand, axis=1) if per_path else uncrossed
            hit = unc & (side * lv1 <= side_levels)
            tc = np.full(hit.shape, np.inf)
            jj, ii = np.nonzero(hit)
            tc[jj, ii] = tt[ii] + (levels[jj, 0] - lv[ii]) / (lv1[ii] - lv[ii]) * ddt[ii]
            if bridge_seeds is not None:
                p = bridge_cross_probability(X[cand, 0], X1[cand, 0],
                                             Sig[cand, 0, 0], ddt, barrier_x, is_down)
                jj, ii = np.nonzero(unc & ~hit & (p > _BRIDGE_P_MIN))
                if jj.size:
                    # The uniform of a (path, barrier) pair at step k is the
                    # k-th output of its stream, evaluated from k alone, so
                    # the pairs skipped at earlier steps do not shift it.
                    paths = idx[cand[ii]]
                    u = _pcg64.kth_uniform(bridge_seeds[jj, paths], step)
                    trig = u < p[jj, ii]
                    jj, ii = jj[trig], ii[trig]
                    tc[jj, ii] = tt[ii] + 0.5 * ddt[ii]
                    cross_bridge[paths[trig], jj] = True
            new = tc < np.inf
            # cc: the crossing columns of the candidate matrices; c: the
            # same columns of the live state
            cc = np.flatnonzero(new.any(axis=0))
            c = cand[cc]
            if c.size:
                rows = idx[c]
                tcc = tc[:, cc]
                jn, cn = np.nonzero(new[:, cc])
                cross_times[rows[cn], jn] = tcc[jn, cn]
                if per_path:
                    # only the paths with no barrier left stop, at their
                    # latest crossing of this step
                    left = uncrossed[:, c] & ~new[:, cc]
                    uncrossed[:, c] = left
                    near[:, c] = nearest(left)
                    done = ~left.any(axis=0)
                    c, rows, tcc = c[done], rows[done], tcc[:, done]
                    jb = np.where(new[:, cc[done]], tcc, -np.inf).argmax(axis=0)
                else:
                    # the path stops at its earliest crossing
                    jb = tcc.argmin(axis=0)
            if c.size:
                stop_time = tcc[jb, np.arange(c.size)]
                stop_state = _state_at(X[c], X1[c], t[c], dt[c], stop_time)
                if bridge_seeds is not None:
                    bb = cross_bridge[rows, jb]
                    sgn = np.sign(X[c[bb], 0])
                    sgn[sgn == 0] = 1.0
                    stop_state[bb, 0] = sgn * barrier_x[jb[bb], 0]
                stop = np.zeros(idx.size, dtype=bool)
                stop[c] = True
                t_end, x_end = t1.copy(), X1.copy()
                t_end[c], x_end[c] = stop_time, stop_state

        if cap.size:
            # a path ending by a capture time takes its end state in retire
            jc, k = np.nonzero((t <= cap) & (cap < t_end))
            if k.size:
                capture_state[idx[k], jc] = _state_at(X[k], X1[k], t[k], dt[k],
                                                      cap[jc, 0])

        # retirement after the step; a crossing retirement takes precedence
        # and keeps the minimum level of the steps before it
        lo1 = np.minimum(lo, lev1)
        gone = (lev1 <= gone_level) | (horizon - t1 <= horizon_eps)
        if stop is not None:
            gone |= stop
            lo1[stop] = lo[stop]
        if bad is not None:
            gone |= bad
            blown_up[idx[bad]] = True
        if track_noise_sum:
            dW_sum += dW
        if record and bad is None:
            rec_times.append(float(t1[0]))
            rec_states.append(X1[0].copy())
            rec_incs.append(dW[0].copy())
        X, Sig, Bv, t, lev, lo = X1, Sig1, Bv1, t1, lev1, lo1
        if gone.any():
            absorb = lev <= tol
            if stop is not None:
                absorb &= ~stop
            absorbed[idx[absorb]] = True
            (idx, X, Sig, Bv, t, lev, lo, uncrossed, near,
             dW_sum) = retire(gone, t_end, x_end, lo)
        step += 1

    trajectory = None
    if record:
        trajectory = PathRealization(
            times=np.asarray(rec_times),
            states=np.asarray(rec_states),
            increments=(np.asarray(rec_incs) if rec_incs
                        else np.zeros((0, m))),
            seed=(*master, int(indices[0])),
            absorbed=bool(absorbed[0]),
        )

    # back to the caller's barrier order
    unsort = np.argsort(order)
    return SweepResult(
        end_times=end_times, end_states=end_states, min_levels=min_levels,
        cross_times=cross_times[:, unsort],
        cross_bridge=cross_bridge[:, unsort], capture_state=capture_state,
        absorbed=absorbed, blown_up=blown_up,
        noise_sum=noise_sum, trajectory=trajectory)


# ---------------------------------------------------------------------------
# Parallel chunk plumbing
# ---------------------------------------------------------------------------
#
# Estimators describe their Monte Carlo work as a sweep spec and a reducer.
# The spec is a dict of ``sweep_paths`` keyword arguments without ``field``
# and ``indices``, so the sweep's signature is its schema and its validation.
# The reducer is a module-level function ``reduce(field, spec, result)``,
# possibly a functools.partial of one, which turns a chunk's SweepResult
# into its fixed-size partial; it pickles by reference, so pool workers
# import it by its qualified name.  Chunk boundaries are a fixed function of
# n_paths alone and each path's noise depends only on (master seed, path
# index), so results are identical for any worker count; workers rebuild
# catalog fields from their (name, params) reference instead of pickling
# closures.

def _reduce_chunk(reduce, field, indices, spec):
    # the one place an estimator's sweep runs; sweep_paths is looked up at
    # call time, so a patched engine.sweep_paths sees every chunk
    return reduce(field, spec, sweep_paths(field, indices=indices, **spec))


def _parallel_entry(packed):
    reduce, field_ref, indices, spec = packed
    return _reduce_chunk(reduce, cf.make_field(field_ref[0], **field_ref[1]),
                         indices, spec)


def map_path_chunks(reduce, field: CoefficientField, index_chunks,
                    spec: dict, workers: int = 1):
    """Sweep each index chunk as ``spec`` says and reduce it, serially or in
    a pool.

    Returns ``reduce(field, spec, sweep_paths(field, indices=chunk, **spec))``
    per chunk, in chunk order; callers combine the partials sequentially so
    the reduction is byte-identical for any worker count.
    """
    index_chunks = list(index_chunks)
    if workers <= 1:
        return [_reduce_chunk(reduce, field, c, spec) for c in index_chunks]
    if field.catalog_ref is None:
        raise InvalidInputError(
            "parallel execution requires a catalog field (picklable reference)")
    from concurrent.futures import ProcessPoolExecutor
    packed = [(reduce, field.catalog_ref, c, spec) for c in index_chunks]
    # the pool forks all its workers at the first submit: one a chunk at most
    with ProcessPoolExecutor(max_workers=min(workers, len(packed)) or 1) as ex:
        return list(ex.map(_parallel_entry, packed))


def simulate_path(field: CoefficientField, start, horizon: float,
                  policy: StepPolicy, seed) -> PathRealization:
    """Simulate one recorded trajectory.

    The path terminates at the horizon or upon absorption into the zero set
    (level within tolerance of zero); the recorded grid then ends at the
    absorption step.  Identical (seed, policy, field, start, horizon)
    reproduce the identical trajectory bit for bit.  The seed's last entry
    is the path index and the entries before it the master seed, so
    ``path_entropy(master, i)`` replays row i of a sweep under ``master``.
    """
    seed = entropy_tuple(seed)
    if not seed:
        raise InvalidInputError("seed () names no path: it needs a path index")
    res = sweep_paths(field, start, horizon, policy, seed[:-1], [seed[-1]],
                      record=True, on_blowup="raise")
    return res.trajectory
