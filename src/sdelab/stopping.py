"""Level-set first passages, band exit times, and the dyadic escape decomposition.

All operations here act on the piecewise-linear interpolant of the level
function along a discretized path.  Crossing times are therefore exact for
the interpolant, not for the underlying continuous-time process; the optional
Brownian-bridge correction recovers part of the intra-step excursions that
plain interpolation misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coefficients as cf
from . import verification as vf
from .coefficients import CoefficientField
from .engine import (Barrier, BRIDGE_STREAM_TAG, PathRealization, StepPolicy,
                     _float_bits, bridge_cross_probability, iter_chunks,
                     map_path_chunks, path_entropy, sweep_paths)
from .errors import InvalidInputError

METHODS = ("grid", "interpolated", "bridge-corrected")


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


@dataclass
class DyadicEscapeRecord:
    """Transit times between successive halved levels, starting from the
    initial level ``start_level`` (whose passage time is 0 by convention)."""

    start_level: float
    increments: np.ndarray  # (depth,), nan where censored
    censored: np.ndarray    # (depth,) bool
    t0: float

    @property
    def count_ge_t0(self) -> int:
        live = ~self.censored
        return int(np.sum(self.increments[live] >= self.t0))


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

    The grid method reports the first grid time with the level on the far
    side; the interpolated method solves the linear crossing within the step;
    the bridge-corrected method additionally triggers intra-step excursions
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

    if method == "grid":
        if found is None:
            return LevelCrossing(threshold, end_time, True, direction, "grid")
        i, _, at_start = found
        t = float(times[0]) if at_start else float(times[i + 1])
        return LevelCrossing(threshold, t, False, direction, "grid")

    interp_i = len(times) - 1 if found is None else found[0]
    interp_t = None if found is None else found[1]

    if method == "bridge-corrected":
        if field.d != 1 or field.abs_level_inverse is None:
            raise InvalidInputError(
                "bridge correction needs a 1-d field with abs_level_inverse")
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
    vf._check_band_start(field, path.states[0], base_level, band_index)
    down = first_hitting_time(path, field, base_level / 2.0 ** (band_index + 1),
                              method)
    up = first_hitting_time(path, field, base_level / 2.0 ** (band_index - 1),
                            method)
    if down.censored and up.censored:
        return down
    if down.censored:
        return up
    if up.censored:
        return down
    return down if down.time <= up.time else up


def _monotone_crossings(cross_times: np.ndarray,
                        crossed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clean one path's nested down-crossing records into a censored,
    nondecreasing time series.

    A bridge trigger can mark a deeper threshold without the shallower one;
    continuity of the underlying level then implies the shallower passage, so
    it is backfilled at the same time.
    """
    times = cross_times.copy()
    hit = crossed.copy()
    depth = hit.size
    for j in range(depth - 1, 0, -1):
        if hit[j] and not hit[j - 1]:
            hit[j - 1] = True
            times[j - 1] = times[j]
    prev = 0.0
    censored = np.zeros(depth, dtype=bool)
    for j in range(depth):
        if not hit[j]:
            censored[j:] = True
            times[j:] = np.nan
            break
        times[j] = max(times[j], prev)
        prev = times[j]
    return times, censored


def _kernel_dyadic(field: CoefficientField, indices, p):
    barriers = tuple(Barrier(lv, "down") for lv in p["levels"])
    res = sweep_paths(field, p["start"], p["horizon"], p["policy"],
                      [path_entropy(p["master"], i) for i in indices],
                      indices=indices, barriers=barriers, stop_mode="all",
                      bridge=p["bridge"])
    return res.cross_times, res.crossed


def dyadic_escape_batch(field: CoefficientField, start, depth: int,
                        horizon: float, policy: StepPolicy, master_seed,
                        n_paths: int, t0: float | None = None,
                        bridge: bool = False,
                        workers: int = 1) -> list[DyadicEscapeRecord]:
    """Dyadic escape decompositions of n_paths independent paths."""
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    start = np.asarray(start, dtype=float)
    lev0 = cf.level(field, start)
    if lev0 <= cf.resolved_zero_tol(field, lev0):
        raise InvalidInputError("start point lies in the zero set")
    if t0 is None:
        if field.lipschitz_k is None:
            raise InvalidInputError(
                "field has no declared Lipschitz bound; pass t0 explicitly")
        t0 = vf.persistence_t0(field.m, field.lipschitz_k)
    levels = [lev0 / 2.0 ** (j + 1) for j in range(depth)]
    params = {"start": start, "horizon": horizon, "policy": policy,
              "master": master_seed, "levels": levels, "bridge": bridge}
    partials = map_path_chunks(_kernel_dyadic, field, iter_chunks(n_paths),
                               params, workers)
    records = []
    for cross_times, crossed in partials:
        for row_t, row_c in zip(cross_times, crossed):
            times, censored = _monotone_crossings(row_t, row_c)
            series = np.concatenate([[0.0], times])
            incs = np.diff(series)
            incs[censored] = np.nan
            records.append(DyadicEscapeRecord(
                start_level=lev0, increments=incs, censored=censored, t0=t0))
    return records


def dyadic_escape(field: CoefficientField, start, depth: int, horizon: float,
                  policy: StepPolicy, seed, t0: float | None = None,
                  bridge: bool = False) -> DyadicEscapeRecord:
    """Dyadic escape decomposition of a single path.

    The start level defines the top of the ladder; its own passage time is 0.
    Once a halved level is not reached within the horizon, that increment and
    every deeper one are censored.
    """
    return dyadic_escape_batch(field, start, depth, horizon, policy,
                               master_seed=seed, n_paths=1, t0=t0,
                               bridge=bridge)[0]


def escape_csv_rows(records: list[DyadicEscapeRecord]) -> list[dict]:
    """One row per (path, band): path_id, k, increment, censored, ge_t0."""
    rows = []
    for pid, rec in enumerate(records):
        for k in range(rec.increments.size):
            cen = bool(rec.censored[k])
            inc = "" if cen else float(rec.increments[k])
            ge = (not cen) and rec.increments[k] >= rec.t0
            rows.append({"path_id": pid, "k": k, "increment": inc,
                         "censored": cen, "ge_t0": bool(ge)})
    return rows
