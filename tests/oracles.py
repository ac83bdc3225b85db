"""Independent references the tests compare the package against.

The package computes every number with one sweep, ``engine.sweep_paths``.
The functions here are second routes to some of those numbers, kept apart
from it on purpose: ``first_hitting_time`` and ``sandwich_time`` scan a
recorded path for its level crossings after the fact, ``frobenius_norm`` is
the entrywise matrix norm, and ``escape_rate_product`` is the band escape
bound before simplification.  A test that finds them equal to the package's
answer has compared two computations, not one with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sdelab import coefficients as cf
from sdelab import verification as vf
from sdelab.coefficients import CoefficientField
from sdelab.engine import (BRIDGE_STREAM_TAG, PathRealization, _float_bits,
                           _resolve_bridge, bridge_cross_probability)
from sdelab.errors import InvalidInputError

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
    lower, upper = vf._band_spec(
        field, path.states[0], base_level, band_index, False)["barriers"]
    down = first_hitting_time(path, field, lower, method)
    up = first_hitting_time(path, field, upper, method)
    if down.censored and up.censored:
        return down
    if down.censored:
        return up
    if up.censored:
        return down
    return down if down.time <= up.time else up


def frobenius_norm(mat) -> float:
    """Square root of the sum of squared matrix entries."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("matrix has non-finite entries")
    return float(np.sqrt(np.sum(arr * arr)))


def escape_rate_product(band_level: float, band_index: int, t: float,
                        noise_dim: int, lipschitz_bound: float) -> float:
    """Band-specific escape bound before simplification.

    (2^(k+1)/A) * 2 (3A/2^k)^(1/2) * K * sqrt((m+1) (A/2^(k-1)) t); dividing
    by sqrt(t) must reproduce :func:`escape_rate_constant` for every
    (A, k, t).  Kept unsimplified on purpose as the independent route.
    """
    a, k = band_level, band_index
    return ((2.0 ** (k + 1) / a)
            * 2.0 * math.sqrt(3.0 * a / 2.0 ** k)
            * lipschitz_bound
            * math.sqrt((noise_dim + 1.0) * (a / 2.0 ** (k - 1)) * t))
