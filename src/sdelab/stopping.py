"""The dyadic escape decomposition of a path and its CSV rows.

The passages of the halved levels are those of the piecewise-linear
interpolant of the level function along a discretized path, as the sweep
detects them.  Crossing times are therefore exact for the interpolant, not
for the underlying continuous-time process; the optional Brownian-bridge
correction recovers part of the intra-step excursions that plain
interpolation misses.
"""

from __future__ import annotations

import math

import numpy as np

from . import coefficients as cf
from . import verification as vf
from .coefficients import CoefficientField
# perfbench's tracer patches sweep_paths and map_path_chunks here by name
from .engine import StepPolicy, iter_chunks, map_path_chunks, sweep_paths
from .errors import InvalidInputError


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
            "barriers": tuple(vf._halved(lev0, j + 1) for j in range(depth))}
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
