"""Euler-Maruyama integration with reproducible per-path noise streams.

The module has two layers.  ``em_step``/``simulate_path`` are the scalar API:
one explicit Euler-Maruyama update and one fully recorded trajectory.  Under
both sits ``sweep_paths``, a vectorized driver that advances a block of paths
simultaneously, detects level-threshold crossings incrementally, and retires
paths as they stop.  Every estimator in the package runs on the same driver,
so a path's realization depends only on its entropy tuple and the step
policy, never on batch size, worker count, or which functional is being
accumulated.

Noise is numpy's own: each path's increments are ``default_rng(entropy)``
normals, and each (path, barrier) bridge uniform stream is the PCG64 stream
of ``(*entropy, BRIDGE_STREAM_TAG, level bits)``, so enabling the bridge
never perturbs the increments.  The sweep builds one generator per path for
the normals; the bridge uniforms are not buffered but evaluated directly at
the step index (``_pcg64.kth_uniform``), and only where the bridge
probability is positive.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import _pcg64
from . import coefficients as cf
from .coefficients import CoefficientField
from .errors import InvalidInputError, NumericalBlowupError

# Any state component beyond this magnitude aborts the path.
BLOWUP_LIMIT = 1e12

# Stream separator for Brownian-bridge uniforms, so enabling the bridge
# correction never perturbs the increment stream.
BRIDGE_STREAM_TAG = 0x42726467

DEFAULT_CHUNK = 8192
_NORMAL_BLOCK = 256


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
        if self.kind not in ("fixed", "level-adaptive"):
            raise InvalidInputError(f"unknown step policy kind {self.kind!r}")
        if not (0 < self.h_min <= self.h_max):
            raise InvalidInputError("need 0 < h_min <= h_max")
        if self.kind == "level-adaptive" and self.level_fraction <= 0:
            raise InvalidInputError("level_fraction must be positive")

    @staticmethod
    def fixed(h: float) -> "StepPolicy":
        return StepPolicy(kind="fixed", h_max=h, h_min=h)

    @staticmethod
    def adaptive(h_max: float = 1e-3, h_min: float = 1e-7,
                 level_fraction: float = 0.01) -> "StepPolicy":
        return StepPolicy(kind="level-adaptive", h_max=h_max, h_min=h_min,
                          level_fraction=level_fraction)

    def to_dict(self) -> dict:
        return asdict(self)

    def step_sizes(self, levels: np.ndarray) -> np.ndarray:
        if self.kind == "fixed":
            return np.full(levels.shape, self.h_max)
        raw = self.level_fraction * levels / (1.0 + levels)
        return np.clip(raw, self.h_min, self.h_max)


@dataclass
class PathRealization:
    """One discretized trajectory with the noise that produced it."""

    times: np.ndarray       # (n_steps + 1,)
    states: np.ndarray      # (n_steps + 1, d)
    increments: np.ndarray  # (n_steps, m), the Brownian increments consumed
    seed: tuple[int, ...]
    step_policy: StepPolicy
    absorbed: bool = False


@dataclass(frozen=True)
class Barrier:
    """A positive level threshold approached from above (down) or below (up)."""

    level: float
    direction: str

    def __post_init__(self):
        if self.level <= 0:
            raise InvalidInputError("barrier level must be positive")
        if self.direction not in ("down", "up"):
            raise InvalidInputError(f"barrier direction {self.direction!r}")


@dataclass
class SweepResult:
    """Per-path functionals accumulated by :func:`sweep_paths`."""

    indices: np.ndarray
    end_times: np.ndarray
    end_states: np.ndarray
    min_levels: np.ndarray
    crossed: np.ndarray        # (n, n_barriers) bool
    cross_times: np.ndarray    # (n, n_barriers), nan where uncrossed
    cross_bridge: np.ndarray   # (n, n_barriers) bool
    first_barrier: np.ndarray  # (n,) int, -1 where no crossing
    first_time: np.ndarray     # (n,), nan where no crossing
    first_state: np.ndarray    # (n, d)
    captured: np.ndarray       # (n,) bool
    capture_state: np.ndarray  # (n, d)
    absorbed: np.ndarray       # (n,) bool
    blown_up: np.ndarray       # (n,) bool
    noise_sum: np.ndarray | None
    trajectory: PathRealization | None


def entropy_tuple(seed) -> tuple[int, ...]:
    """Normalize a seed (int or sequence of ints) to an entropy tuple."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def path_entropy(master_seed, path_index: int) -> tuple[int, ...]:
    """Entropy tuple of one path under a master seed (int or tuple).

    Derived from (master_seed, path_index) only, so serial and parallel runs
    consume identical noise regardless of scheduling.
    """
    return (*entropy_tuple(master_seed), int(path_index))


def iter_chunks(n_paths: int, chunk_size: int = DEFAULT_CHUNK):
    """Fixed-size path-index blocks; the unit of work for parallel runs."""
    for lo in range(0, n_paths, chunk_size):
        yield np.arange(lo, min(lo + chunk_size, n_paths))


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


class _BlockStreams:
    """Per-path normal generators drained in fixed blocks.

    numpy Generators yield the same values whether drawn one at a time or in
    blocks, so draw order per path is exactly "one draw per step" while the
    Python-level generator overhead is amortized.  ``words`` are the paths'
    ``_pcg64.seed_words``, so each generator is ``default_rng(entropy)``.
    """

    def __init__(self, words, shape_per_draw, block):
        self._gens = [_pcg64.generator(w) for w in words]
        self._shape = shape_per_draw
        self._block = block
        n = len(self._gens)
        self._buf = np.empty((n, block) + shape_per_draw)
        self._ptr = np.full(n, block, dtype=np.int64)

    def draw(self, pos: np.ndarray) -> np.ndarray:
        need = pos[self._ptr[pos] >= self._block]
        for i in need:
            self._buf[i] = self._gens[i].standard_normal(
                (self._block,) + self._shape)
        self._ptr[need] = 0
        out = self._buf[pos, self._ptr[pos]]
        self._ptr[pos] += 1
        return out


def bridge_cross_probability(x0, x1, sigma, h, barrier_x: float,
                             direction: str) -> np.ndarray:
    """Brownian-bridge probability that |x| crosses ``barrier_x`` within steps.

    For each step from x0 to x1 of length h with diffusion coefficient sigma
    at x0, this is exp(-2 gap0 gap1 / (sigma^2 h)) where gap0, gap1 are the
    endpoints' distances from the barrier on the side the step starts
    ('down': |x| above the barrier, 'up': below).  Steps with an endpoint on
    or past the barrier, or with sigma = 0, get 0.
    """
    u0, u1, s0 = np.abs(x0), np.abs(x1), np.abs(sigma)
    if direction == "down":
        gap0, gap1 = u0 - barrier_x, u1 - barrier_x
    else:
        gap0, gap1 = barrier_x - u0, barrier_x - u1
    ok = (gap0 > 0) & (gap1 > 0) & (s0 > 0)
    p = np.zeros(ok.shape)
    p[ok] = np.exp(-2.0 * gap0[ok] * gap1[ok] / (s0[ok] ** 2 * h[ok]))
    return p


def _em_batch(X, Sig, Bv, h, DW):
    # one Euler-Maruyama update on an (n, d) block; h is (n,)
    return X + np.einsum("ijk,ik->ij", Sig, DW, optimize=False) + Bv * h[:, None]


def em_step(field: CoefficientField, x, h: float, dW) -> np.ndarray:
    """Single Euler-Maruyama update x + sigma(x) dW + b(x) h."""
    x = cf._check_state(field, x)
    if not h > 0:
        raise InvalidInputError("step size must be positive")
    dw = np.asarray(dW, dtype=float)
    if dw.shape != (field.m,):
        raise InvalidInputError(
            f"increment has shape {dw.shape}, field expects ({field.m},)")
    if not np.all(np.isfinite(dw)):
        raise InvalidInputError("increment has non-finite entries")
    sig = np.asarray(field.sigma(x), dtype=float)
    if sig.shape != (field.d, field.m):
        raise InvalidInputError(
            f"sigma returned shape {sig.shape}, expected ({field.d}, {field.m})")
    drift = np.asarray(field.b(x), dtype=float)
    return x + np.einsum("jk,k->j", sig, dw, optimize=False) + drift * float(h)


def sweep_paths(field: CoefficientField, start, horizon: float,
                policy: StepPolicy, entropies, *,
                indices=None,
                barriers: tuple = (),
                stop_mode: str = "first",
                capture_time: float | None = None,
                min_level_retire: float | None = None,
                bridge: bool = False,
                on_blowup: str = "raise",
                track_noise_sum: bool = False,
                record: bool = False) -> SweepResult:
    """Advance a block of paths from a common start until they stop.

    Paths stop at the horizon, on absorption into the zero set, on numerical
    blowup, when the running grid-minimum of the level drops to
    ``min_level_retire``, or on barrier crossings: with ``stop_mode='first'``
    at the earliest crossing of any barrier, with ``'all'`` once every
    barrier has been crossed.

    Crossings are detected on the piecewise-linear interpolant of the level
    along each step; with ``bridge=True`` (1-d fields with a symmetric
    monotone level only) an intra-step excursion past a still-uncrossed
    barrier is additionally triggered with the Brownian-bridge probability
    exp(-2 a b / (sigma^2 h)) (``bridge_cross_probability``).  The uniform
    compared with it at step k is the k-th draw of the (path, barrier)
    stream seeded by ``(*entropy, BRIDGE_STREAM_TAG, level bits)``, computed
    directly from the step index, so results remain reproducible pathwise
    and the increments are the same with the bridge on or off.

    Simultaneous crossings within one step resolve to the earliest
    interpolated time; exact ties resolve to the lower threshold.
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
    if capture_time is not None and not (0 <= capture_time <= horizon):
        raise InvalidInputError("capture_time must lie in [0, horizon]")
    if bridge and (field.d != 1 or field.abs_level_inverse is None):
        raise InvalidInputError(
            "bridge correction needs a 1-d field with abs_level_inverse")

    entropies = [entropy_tuple(e) for e in entropies]
    n = len(entropies)
    if indices is None:
        indices = np.arange(n)
    else:
        indices = np.asarray(indices)
    if record and n != 1:
        raise InvalidInputError("trajectory recording supports one path at a time")

    d, m = field.d, field.m
    # barriers are processed in increasing level order so that exact time
    # ties resolve to the lower threshold
    order = np.argsort([b.level for b in barriers], kind="stable")
    barriers = tuple(barriers)
    nb = len(barriers)

    lev0 = cf.level(field, start)
    tol = cf.resolved_zero_tol(field, lev0)

    streams = _BlockStreams(_pcg64.seed_words(entropies), (m,), _NORMAL_BLOCK)
    bridge_seeds = None
    if bridge and nb:
        bridge_seeds = []
        for b in barriers:
            tag = (BRIDGE_STREAM_TAG, _float_bits(b.level))
            bridge_seeds.append(_pcg64.seeded_state(
                _pcg64.seed_words([e + tag for e in entropies])))
        u_barrier_x = [field.abs_level_inverse(b.level) for b in barriers]

    X = np.tile(start, (n, 1))
    t = np.zeros(n)
    lev = np.full(n, lev0)

    end_times = np.zeros(n)
    end_states = np.tile(start, (n, 1))
    min_levels = np.full(n, lev0)
    crossed = np.zeros((n, nb), dtype=bool)
    cross_times = np.full((n, nb), np.nan)
    cross_bridge = np.zeros((n, nb), dtype=bool)
    first_barrier = np.full(n, -1, dtype=np.int64)
    first_time = np.full(n, np.nan)
    first_state = np.tile(start, (n, 1))
    captured = np.zeros(n, dtype=bool)
    capture_state = np.zeros((n, d))
    absorbed = np.zeros(n, dtype=bool)
    blown_up = np.zeros(n, dtype=bool)
    noise_sum = np.zeros((n, m)) if track_noise_sum else None

    rec_times, rec_states, rec_incs = [0.0], [start.copy()], []

    act = np.arange(n)
    horizon_eps = 1e-12 * max(1.0, horizon)

    # Degenerate starts: already absorbed, already at/through a barrier, or
    # already below the min-level retirement threshold.
    if lev0 <= tol:
        absorbed[:] = True
        act = act[:0]
    else:
        stop0 = np.zeros(n, dtype=bool)
        for j in order:
            brr = barriers[j]
            hit0 = lev0 <= brr.level if brr.direction == "down" else lev0 >= brr.level
            if hit0:
                crossed[:, j] = True
                cross_times[:, j] = 0.0
                new = first_barrier == -1
                first_barrier[new] = j
                first_time[new] = 0.0
                if stop_mode == "first":
                    stop0[:] = True
        if stop_mode == "all" and nb and crossed.all(axis=1).any():
            stop0 |= crossed.all(axis=1)
        if capture_time == 0.0:
            captured[:] = True
            capture_state[:] = start
        if min_level_retire is not None and lev0 <= min_level_retire:
            stop0[:] = True
        if np.any(stop0):
            act = act[:0] if stop0.all() else act[~stop0]

    step_idx = 0
    while act.size:
        pos = act
        rem = horizon - t[pos]
        at_end = rem <= horizon_eps
        if np.any(at_end):
            fin = pos[at_end]
            end_times[fin] = t[fin]
            end_states[fin] = X[fin]
            if capture_time is not None and capture_time >= horizon - horizon_eps:
                captured[fin] = True
                capture_state[fin] = X[fin]
            pos = pos[~at_end]
            act = pos
            if not pos.size:
                break

        h = policy.step_sizes(lev[pos])
        h = np.minimum(h, horizon - t[pos])
        Z = streams.draw(pos)
        dW = Z * np.sqrt(h)[:, None]
        X0 = X[pos]
        Sig = cf.sigma_batch(field, X0)
        Bv = cf.b_batch(field, X0)
        X1 = _em_batch(X0, Sig, Bv, h, dW)

        bad = ~np.isfinite(X1).all(axis=1) | (np.abs(X1) > BLOWUP_LIMIT).any(axis=1)
        if np.any(bad):
            if on_blowup == "raise":
                i = int(np.flatnonzero(bad)[0])
                raise NumericalBlowupError(
                    f"state left trusted range at step {step_idx} "
                    f"(path {int(indices[pos[i]])})",
                    step_index=step_idx,
                    path_index=int(indices[pos[i]]),
                    seed=entropies[pos[i]])
            dead = pos[bad]
            blown_up[dead] = True
            end_times[dead] = t[dead]
            end_states[dead] = X[dead]
            keep = ~bad
            pos, h, Z, dW, X0, Sig, X1 = (
                pos[keep], h[keep], Z[keep], dW[keep], X0[keep], Sig[keep], X1[keep])
            if not pos.size:
                act = pos
                step_idx += 1
                continue

        lev1 = cf.level_batch(field, X1)
        t0v = t[pos]
        t1v = t0v + h
        # realized step duration; used for every within-step time
        # interpolation so crossing times recomputed from a recorded grid
        # (whose spacing is diff of cumulative times) match bit for bit
        dtv = t1v - t0v
        lev0v = lev[pos]

        best_time = np.full(pos.size, np.inf)
        best_j = np.full(pos.size, -1, dtype=np.int64)
        best_state = None
        if nb:
            best_state = np.empty((pos.size, d))
            for j in order:
                brr = barriers[j]
                unc = ~crossed[pos, j]
                if brr.direction == "down":
                    hit = unc & (lev0v > brr.level) & (lev1 <= brr.level)
                else:
                    hit = unc & (lev0v < brr.level) & (lev1 >= brr.level)
                tc = np.full(pos.size, np.inf)
                if np.any(hit):
                    theta = (brr.level - lev0v[hit]) / (lev1[hit] - lev0v[hit])
                    tc[hit] = t0v[hit] + theta * dtv[hit]
                is_bridge = np.zeros(pos.size, dtype=bool)
                if bridge_seeds is not None:
                    at = np.flatnonzero(unc & ~hit)
                    p = bridge_cross_probability(
                        X0[at, 0], X1[at, 0], Sig[at, 0, 0], dtv[at],
                        u_barrier_x[j], brr.direction)
                    draw = p > 0
                    if np.any(draw):
                        # A (path, barrier) pair is assessed at step k only if
                        # it was assessed at every earlier step: paths start
                        # together at step 0, advance in lockstep and never
                        # come back once retired, and a barrier never becomes
                        # uncrossed again.  So the uniform it would draw at
                        # step k is the k-th output of its stream.  Pairs with
                        # p = 0 cannot trigger, whatever they draw.
                        at = at[draw]
                        u = _pcg64.kth_uniform(bridge_seeds[j][pos[at]], step_idx)
                        where = at[u < p[draw]]
                        if where.size:
                            tc[where] = t0v[where] + 0.5 * dtv[where]
                            is_bridge[where] = True
                new_cross = tc < np.inf
                if np.any(new_cross):
                    rows = pos[new_cross]
                    crossed[rows, j] = True
                    cross_times[rows, j] = tc[new_cross]
                    cross_bridge[rows, j] = is_bridge[new_cross]
                    better = new_cross & (tc < best_time)
                    if np.any(better):
                        bi = np.flatnonzero(better)
                        best_time[bi] = tc[bi]
                        best_j[bi] = j
                        frac = (best_time[bi] - t0v[bi]) / dtv[bi]
                        states = X0[bi] + (X1[bi] - X0[bi]) * frac[:, None]
                        if bridge_seeds is not None:
                            bb = is_bridge[bi]
                            if np.any(bb):
                                sgn = np.sign(X0[bi][bb, 0])
                                sgn[sgn == 0] = 1.0
                                states[bb, 0] = sgn * u_barrier_x[j]
                        best_state[bi] = states

        if capture_time is not None:
            cap = (~captured[pos]) & (t0v <= capture_time) & (capture_time < t1v)
            cap &= capture_time < best_time
            if np.any(cap):
                frac = (capture_time - t0v[cap]) / dtv[cap]
                rows = pos[cap]
                captured[rows] = True
                capture_state[rows] = X0[cap] + (X1[cap] - X0[cap]) * frac[:, None]

        fresh = best_j >= 0
        if np.any(fresh):
            rows = pos[fresh]
            new = first_barrier[rows] == -1
            if np.any(new):
                rn = rows[new]
                sel = np.flatnonzero(fresh)[new]
                first_barrier[rn] = best_j[sel]
                first_time[rn] = best_time[sel]
                first_state[rn] = best_state[sel]

        retire = np.zeros(pos.size, dtype=bool)
        if nb and stop_mode == "first":
            stop_now = fresh
            if np.any(stop_now):
                rows = pos[stop_now]
                end_times[rows] = first_time[rows]
                end_states[rows] = first_state[rows]
                retire |= stop_now
        elif nb and stop_mode == "all":
            done_all = crossed[pos].all(axis=1) & ~retire
            if np.any(done_all):
                rows = pos[done_all]
                end_times[rows] = np.nanmax(cross_times[rows], axis=1)
                end_states[rows] = X1[done_all]
                retire |= done_all

        live = ~retire
        if np.any(live):
            rows = pos[live]
            min_levels[rows] = np.minimum(min_levels[rows], lev1[live])
            absorb = lev1[live] <= tol
            if np.any(absorb):
                ra = rows[absorb]
                absorbed[ra] = True
                end_times[ra] = t1v[live][absorb]
                end_states[ra] = X1[live][absorb]
            stop_low = np.zeros(rows.size, dtype=bool)
            if min_level_retire is not None:
                stop_low = min_levels[rows] <= min_level_retire
                sl = stop_low & ~absorb
                if np.any(sl):
                    rl = rows[sl]
                    end_times[rl] = t1v[live][sl]
                    end_states[rl] = X1[live][sl]
            gone = absorb | stop_low
            retire[np.flatnonzero(live)[gone]] = True

        X[pos] = X1
        lev[pos] = lev1
        t[pos] = t1v
        if noise_sum is not None:
            noise_sum[pos] += dW
        if record:
            rec_times.append(float(t1v[0]))
            rec_states.append(X1[0].copy())
            rec_incs.append(dW[0].copy())

        act = pos[~retire]
        step_idx += 1

    trajectory = None
    if record:
        trajectory = PathRealization(
            times=np.asarray(rec_times),
            states=np.asarray(rec_states),
            increments=(np.asarray(rec_incs) if rec_incs
                        else np.zeros((0, m))),
            seed=entropies[0],
            step_policy=policy,
            absorbed=bool(absorbed[0]),
        )

    return SweepResult(
        indices=indices, end_times=end_times, end_states=end_states,
        min_levels=min_levels, crossed=crossed, cross_times=cross_times,
        cross_bridge=cross_bridge, first_barrier=first_barrier,
        first_time=first_time, first_state=first_state, captured=captured,
        capture_state=capture_state, absorbed=absorbed, blown_up=blown_up,
        noise_sum=noise_sum, trajectory=trajectory)


# ---------------------------------------------------------------------------
# Parallel chunk plumbing
# ---------------------------------------------------------------------------
#
# Estimators express their Monte Carlo work as a kernel over a block of path
# indices: a module-level function ``kernel(field, indices, params)``, which
# pickles by reference, so pool workers import it by its qualified name.
# Chunk boundaries are a fixed function of n_paths alone and each path's
# noise depends only on (master seed, path index), so results are identical
# for any worker count; workers rebuild catalog fields from their
# (name, params) reference instead of pickling closures.

def _parallel_entry(packed):
    kernel, field_ref, indices, params = packed
    return kernel(cf.make_field(field_ref[0], **field_ref[1]), indices, params)


def map_path_chunks(kernel, field: CoefficientField, index_chunks,
                    params: dict, workers: int = 1):
    """Run a module-level kernel over index chunks, serially or in a pool.

    Returns per-chunk partial results in chunk order; callers combine them
    sequentially so the reduction is byte-identical for any worker count.
    """
    index_chunks = list(index_chunks)
    if workers <= 1:
        return [kernel(field, c, params) for c in index_chunks]
    if field.catalog_ref is None:
        raise InvalidInputError(
            "parallel execution requires a catalog field (picklable reference)")
    from concurrent.futures import ProcessPoolExecutor
    packed = [(kernel, field.catalog_ref, c, params) for c in index_chunks]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(_parallel_entry, packed))


def simulate_path(field: CoefficientField, start, horizon: float,
                  policy: StepPolicy, seed) -> PathRealization:
    """Simulate one recorded trajectory.

    The path terminates at the horizon or upon absorption into the zero set
    (level within tolerance of zero); the recorded grid then ends at the
    absorption step.  Identical (seed, policy, field, start, horizon)
    reproduce the identical trajectory bit for bit.
    """
    res = sweep_paths(field, start, horizon, policy, [entropy_tuple(seed)],
                      record=True, on_blowup="raise")
    return res.trajectory
