"""Level-set first passages, band exit times, and the dyadic escape decomposition.

All operations here act on the piecewise-linear interpolant of the level
function along a discretized path.  Crossing times are therefore exact for
the interpolant, not for the underlying continuous-time process; the optional
Brownian-bridge correction recovers part of the intra-step excursions that
plain interpolation misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coefficients as cf
from . import verification as vf
from .coefficients import CoefficientField
# perfbench's tracer patches sweep_paths and map_path_chunks here by name
from .engine import (Barrier, BRIDGE_STREAM_TAG, PathRealization, StepPolicy,
                     _float_bits, _resolve_bridge, bridge_cross_probability,
                     iter_chunks, map_path_chunks, sweep_paths)
from .errors import InvalidInputError

METHODS = ("interpolated", "bridge-corrected")


@dataclass(frozen=True)
class LevelCrossing:
    """First-passage record for one level threshold on one path.

    ``time`` is the crossing time, or the path's final time when
    ``censored`` is set.  ``method`` records how the reported time was
    produced; a bridge-corrected request that resolves by plain interpolation
    reports "interpolated".
    """

    threshold: float
    time: float
    censored: bool
    direction: str
    method: str


def _path_levels(field: CoefficientField, path: PathRealization) -> np.ndarray:
    return cf.level_batch(field, path.states)


def _interp_crossing(levels, times, threshold, downward):
    """First index i and time where the linear level interpolant meets the
    threshold, or None."""
    if downward:
        far = levels <= threshold
    else:
        far = levels >= threshold
    if far[0]:
        return 0, float(times[0]), True
    hits = np.flatnonzero(far[1:])
    if hits.size == 0:
        return None
    i = int(hits[0])
    theta = (threshold - levels[i]) / (levels[i + 1] - levels[i])
    return i, float(times[i] + theta * (times[i + 1] - times[i])), False


def first_hitting_time(path: PathRealization, field: CoefficientField,
                       threshold: float,
                       method: str = "interpolated") -> LevelCrossing:
    """Earliest time the path's interpolated level equals the threshold.

    The interpolated method solves the linear crossing within the step; the
    bridge-corrected method additionally triggers intra-step excursions
    with the Brownian-bridge probability (1-d fields with a symmetric
    monotone level only).  A path starting exactly at the threshold crosses
    at time 0.  Censored results carry the path's final time.
    """
    if threshold <= 0:
        raise InvalidInputError("threshold must be positive")
    if method not in METHODS:
        raise InvalidInputError(f"unknown crossing method {method!r}")
    levels = _path_levels(field, path)
    times = path.times
    end_time = float(times[-1])
    downward = levels[0] >= threshold
    direction = "down" if downward else "up"

    found = _interp_crossing(levels, times, threshold, downward)
    interp_i = len(times) - 1 if found is None else found[0]
    interp_t = None if found is None else found[1]

    if method == "bridge-corrected":
        _resolve_bridge(field, True)
        n_assess = interp_i  # steps strictly before the interpolated crossing
        if found is not None and found[2]:
            n_assess = 0
        if n_assess > 0:
            rng = np.random.default_rng(
                (*path.seed, BRIDGE_STREAM_TAG, _float_bits(threshold)))
            u = rng.uniform(size=n_assess)
            sig = cf.sigma_batch(field, path.states[:n_assess])
            h = np.diff(times[:n_assess + 1])
            p = bridge_cross_probability(
                path.states[:n_assess, 0], path.states[1:n_assess + 1, 0],
                sig[:, 0, 0], h, field.abs_level_inverse(threshold), downward)
            trig = np.flatnonzero(u < p)
            if trig.size:
                j = int(trig[0])
                t = float(times[j] + 0.5 * h[j])
                return LevelCrossing(threshold, t, False, direction,
                                     "bridge-corrected")
        # no intra-step trigger: fall through to the interpolated answer

    if found is None:
        return LevelCrossing(threshold, end_time, True, direction, "interpolated")
    return LevelCrossing(threshold, interp_t, False, direction, "interpolated")


def sandwich_time(path: PathRealization, field: CoefficientField,
                  base_level: float, band_index: int,
                  method: str = "interpolated") -> LevelCrossing:
    """Exit time of the dyadic band around base_level / 2**band_index.

    Returns the earlier of the down-crossing at base_level / 2**(band_index+1)
    and the up-crossing at base_level / 2**(band_index-1); exact ties resolve
    to the lower threshold.  The path must start at the band's center level
    within 5% relative tolerance.
    """
    lower, upper = (b.level for b in vf._band_spec(
        field, path.states[0], base_level, band_index, False)["barriers"])
    down = first_hitting_time(path, field, lower, method)
    up = first_hitting_time(path, field, upper, method)
    if down.censored and up.censored:
        return down
    if down.censored:
        return up
    if up.censored:
        return down
    return down if down.time <= up.time else up


def _escape_increments(cross_times: np.ndarray) -> np.ndarray:
    """Band transit times of a chunk's nested down-crossing times.

    ``cross_times`` is ``(n, depth)``, nan where a level was not crossed.  A
    bridge trigger can mark a deeper level without a shallower one;
    continuity of the underlying level then implies the shallower passage,
    so it is backfilled with the time of the next deeper crossing.  The
    passage times are then made nondecreasing from 0.  The result is
    ``(n, depth)`` with nan from the first uncrossed level on: after the
    backfill the uncrossed levels are a suffix of each row, and the running
    maximum carries nan forward.
    """
    times = cross_times.copy()
    for j in range(times.shape[1] - 2, -1, -1):
        gap = np.isnan(times[:, j])
        times[gap, j] = times[gap, j + 1]
    times = np.maximum.accumulate(np.maximum(times, 0.0), axis=1)
    return np.diff(times, axis=1, prepend=0.0)


def _dyadic_increments(field: CoefficientField, spec, res):
    return _escape_increments(res.cross_times)


def dyadic_escape_batch(field: CoefficientField, start, depth: int,
                        horizon: float, policy: StepPolicy, master_seed,
                        n_paths: int, bridge: bool = False,
                        workers: int = 1) -> np.ndarray:
    """Dyadic escape decompositions of n_paths independent paths.

    Row i holds path i's transit times between the successive levels
    ``L0 / 2**(k+1)``, where ``L0`` is the start level (passed at time 0).
    Once a halved level is not reached within the horizon, that increment
    and every deeper one are censored and hold nan.
    """
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    start = vf._off_zero_set(field, start)
    lev0 = cf.level(field, start)
    spec = {"start": start, "horizon": horizon, "policy": policy,
            "master": master_seed, "stop_mode": "all", "bridge": bridge,
            "barriers": tuple(Barrier(vf._halved(lev0, j + 1), "down")
                              for j in range(depth))}
    return np.concatenate(map_path_chunks(
        _dyadic_increments, field, iter_chunks(n_paths), spec, workers))


class _EscapeRows:
    """The (path, band) rows of an increment array, built as they are read.

    Iterating yields one dict per (path, band) in path-major order; every
    pass yields the same rows, and ``len()`` is their count, so a table of
    n_paths x depth rows never sits in memory as dicts.
    """

    def __init__(self, increments: np.ndarray, t0: float):
        self._increments = increments
        self._t0 = t0

    def __len__(self) -> int:
        return self._increments.size

    def __iter__(self):
        t0 = self._t0
        for pid, row in enumerate(self._increments):
            for k, inc in enumerate(row.tolist()):
                cen = math.isnan(inc)
                yield {"path_id": pid, "k": k,
                       "increment": "" if cen else inc,
                       "censored": cen, "ge_t0": inc >= t0}


def escape_csv_rows(increments: np.ndarray, t0: float) -> _EscapeRows:
    """One row per (path, band): path_id, k, increment, censored, ge_t0.

    Returns a re-iterable row source over ``increments`` with ``len()``,
    not a list: the rows are built as a writer reads them.
    """
    return _EscapeRows(increments, t0)
