"""Monte Carlo estimators and closed-form constants for the quantitative checks.

Every checker estimates the left-hand side of one inequality by Monte Carlo
and compares a confidence bound against the analytic right-hand side, so
sampling noise cannot produce spurious failures: upper bounds are violated
only when the CI-lower of the estimate exceeds the bound, lower bounds only
when the CI-upper falls short.  Every interval is two-sided at 95 %.

Proportions get Wilson intervals.  scipy is imported only where it is used:
by the accessibility integral.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from . import coefficients as cf
from .coefficients import CoefficientField
# perfbench's tracer patches sweep_paths and map_path_chunks here by name
from .engine import (StepPolicy, _resolve_bridge, entropy_tuple, iter_chunks,
                     map_path_chunks, sweep_paths)
from .errors import InvalidInputError

# Fitted strong-convergence exponent the engine is expected to reproduce.
STRONG_ORDER_WINDOW = (0.35, 0.65)

# Two-sided 95 % normal quantile, bit-equal to scipy's norm.ppf(0.5 +
# 0.95 / 2.0); statistics.NormalDist().inv_cdf(0.975) is two ulps lower.
Z_95 = 1.959963984540054


# ---------------------------------------------------------------------------
# Closed-form constants
# ---------------------------------------------------------------------------

def escape_rate_constant(noise_dim: int, lipschitz_bound: float) -> float:
    """Constant C with P[band exit by time t] <= C sqrt(t) for t <= 1.

    C = 4 sqrt(6) K sqrt(m+1); it depends only on the noise dimension and the
    Lipschitz bound, not on the band level or depth.
    """
    if noise_dim < 1:
        raise InvalidInputError("noise_dim must be >= 1")
    if lipschitz_bound < 0:
        raise InvalidInputError("lipschitz_bound must be nonnegative")
    return 4.0 * math.sqrt(6.0) * lipschitz_bound * math.sqrt(noise_dim + 1.0)


def persistence_window(c: float) -> float:
    """Largest capped time window t0 in (0, 1) with C sqrt(t0) <= 1/2.

    Returns min(1/(4 C^2), 1/2), nudged down by ulps if needed so the
    defining inequality holds exactly in floating point.
    """
    if c < 0:
        raise InvalidInputError("constant must be nonnegative")
    if c == 0:
        return 0.5
    t0 = min(1.0 / (4.0 * c * c), 0.5)
    while c * math.sqrt(t0) > 0.5:
        t0 = math.nextafter(t0, 0.0)
    return t0


def persistence_t0(noise_dim: int, lipschitz_bound: float) -> float:
    """Persistence window t0 of a field with noise dimension m and bound K."""
    return persistence_window(escape_rate_constant(noise_dim, lipschitz_bound))


def default_escape_time_grid(c: float) -> list[float]:
    """Geometric grid t0 * 2^j clipped to the informative range (C sqrt(t) < 1)."""
    t0 = persistence_window(c)
    cap = 1.0 if c == 0 else min(1.0, 1.0 / (c * c))
    return [t0 * 2.0 ** j for j in range(-3, 2) if t0 * 2.0 ** j < cap]


# ---------------------------------------------------------------------------
# Estimates with confidence intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateWithCI:
    point: float
    ci_low: float
    ci_high: float
    n: int
    method: str
    censored_n: int = 0

    def __post_init__(self):
        for name in ("point", "ci_low", "ci_high"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("n", "censored_n"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if not (self.ci_low <= self.point + 1e-12
                and self.point <= self.ci_high + 1e-12):
            raise InvalidInputError("confidence interval does not bracket point")

    def to_dict(self) -> dict:
        return {"point": self.point, "ci_low": self.ci_low,
                "ci_high": self.ci_high, "n": self.n,
                "censored_n": self.censored_n, "method": self.method}


def estimate_with_ci(successes: int, n: int, *,
                     censored_n: int = 0) -> EstimateWithCI:
    """Binomial proportion estimate with a two-sided 95 % Wilson interval."""
    if n < 1 or successes < 0 or successes > n:
        raise InvalidInputError(f"invalid counts: {successes}/{n}")
    p_hat = successes / n
    z = Z_95
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n
                                   + z * z / (4.0 * n * n))
    low = min(max(center - half, 0.0), p_hat)
    high = max(min(center + half, 1.0), p_hat)
    return EstimateWithCI(p_hat, low, high, n, "wilson", censored_n)


def _mean_with_ci(total: float, total_sq: float, n: int,
                  censored_n: int) -> EstimateWithCI:
    """Normal-theory 95 % CI for a sample mean from accumulated moments."""
    if n < 2:
        raise InvalidInputError("need at least 2 samples for a mean CI")
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    half = Z_95 * math.sqrt(var / n)
    return EstimateWithCI(mean, mean - half, mean + half, n, "normal",
                          censored_n)


@dataclass
class BoundCheckReport:
    """One estimated quantity against one analytic bound.

    ``direction`` is 'upper' when the estimate must stay below the bound
    (checked via CI-lower) and 'lower' when it must stay above (via
    CI-upper).  ``satisfied`` and ``slack`` are always recomputed.
    """

    bound_name: str
    lhs_estimate: EstimateWithCI
    rhs_value: float
    direction: str = "upper"
    parameters: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.rhs_value = float(self.rhs_value)

    @property
    def satisfied(self) -> bool:
        if self.direction == "upper":
            return bool(self.lhs_estimate.ci_low <= self.rhs_value)
        return bool(self.lhs_estimate.ci_high >= self.rhs_value)

    @property
    def slack(self) -> float:
        return float(self.rhs_value - self.lhs_estimate.point)

    def to_json_dict(self) -> dict:
        return {"bound_name": self.bound_name,
                "parameters": self.parameters,
                "lhs": self.lhs_estimate.to_dict(),
                "rhs": self.rhs_value,
                "direction": self.direction,
                "satisfied": self.satisfied,
                "slack": self.slack}


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _require_k(field: CoefficientField, override) -> float:
    k = override if override is not None else field.lipschitz_k
    if k is None:
        raise InvalidInputError(
            "no Lipschitz bound available: declare one on the field, pass "
            "lipschitz_k explicitly, or estimate one with estimate_lipschitz")
    return float(k)


def _halved(level: float, j: int) -> float:
    """level / 2^j, which must be positive and finite.

    math.ldexp is bit-equal to the division wherever that is finite and
    normal, and unlike 2.0 ** j it does not overflow for j >= 1024.
    """
    out = math.ldexp(level, -j)
    if not 0.0 < out < math.inf:
        raise InvalidInputError(
            f"level {level:g} / 2^{j} is {out:g}, not positive and finite")
    return out


def _band_levels(band_level: float, band_index: int) -> tuple:
    """The band's lower, center and upper levels A/2^(k+1), A/2^k, A/2^(k-1)."""
    if band_index < 1:
        raise InvalidInputError("band_index must be >= 1")
    return tuple(_halved(band_level, band_index + j) for j in (1, 0, -1))


def _floats(values) -> list[float]:
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"expected numbers, got {values!r}") from None


def _unit_grid(t_grid) -> list[float]:
    """The checkers' times as floats, each in (0, 1]."""
    t_grid = _floats(t_grid)
    if not t_grid:
        raise InvalidInputError("t_grid must be nonempty")
    if any(not (0.0 < t <= 1.0) for t in t_grid):
        raise InvalidInputError("every t must lie in (0, 1]")
    return t_grid


def _eps_grid(eps_grid) -> list[float]:
    """The hitting levels as floats: positive, finite, strictly decreasing."""
    eps_grid = _floats(eps_grid)
    if not eps_grid or any(not 0.0 < e < math.inf for e in eps_grid):
        raise InvalidInputError("eps_grid must be nonempty, positive and finite")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise InvalidInputError("eps_grid must be strictly decreasing")
    return eps_grid


def _enough_paths(n_paths: int):
    # a mean's confidence interval needs two samples
    if n_paths < 2:
        raise InvalidInputError("need at least 2 paths")


def _off_zero_set(field: CoefficientField, start) -> np.ndarray:
    start = np.asarray(start, dtype=float)
    if cf.in_zero_set(field, start):
        raise InvalidInputError("start point lies in the zero set")
    return start


def _band_start(field: CoefficientField, x, target: float) -> np.ndarray:
    """x, which must lie at the band's center level within 5 %."""
    x = np.asarray(x, dtype=float)
    lev = cf.level(field, x)
    if abs(lev - target) > 0.05 * target:
        raise InvalidInputError(
            f"start level {lev:g} is not {target:g} within 5% tolerance")
    return x


def _band_spec(field: CoefficientField, x, band_level: float,
               band_index: int, bridge) -> dict:
    """The band checkers' sweep keywords: start x at the band's center level
    within 5 %, stopped by the band's lower and upper barriers."""
    lower, target, upper = _band_levels(band_level, band_index)
    return {"start": _band_start(field, x, target),
            "barriers": (lower, upper),
            "bridge": _resolve_bridge(field, bridge)}


def _persistence_start(field: CoefficientField, start,
                       floor_level: float) -> np.ndarray:
    """start, whose level must be at least floor_level = A/2^k."""
    start = np.asarray(start, dtype=float)
    lev = cf.level(field, start)
    if lev < floor_level * (1 - 1e-12):
        raise InvalidInputError(
            f"start level {lev:g} is below A/2^k = {floor_level:g}")
    return start


def _level_change_factor(center: float, k_bound: float) -> float:
    """2 (3 A/2^k)^(1/2) K, the level-change bound over sqrt(displacement)."""
    return 2.0 * math.sqrt(3.0 * center) * k_bound


def _window_t0(t0: float) -> float:
    if not 0.0 < t0 < 1.0:
        raise InvalidInputError("t0 must lie in (0, 1)")
    return t0


def _sum_chunks(partials) -> list:
    """Elementwise sum of the reducers' fixed-size partials, in chunk order.

    Each partial is a tuple of numbers or count arrays.  The sum starts from
    the first partial; a running float total that started at 0.0 would get
    the same bits, since 0.0 + x == x.
    """
    if not partials:
        raise InvalidInputError("need at least one path")
    total = list(partials[0])
    for part in partials[1:]:
        total = [a + b for a, b in zip(total, part)]
    return total


# ---------------------------------------------------------------------------
# Chunk reducers: each estimator's sweep spec runs through map_path_chunks,
# and reduce(field, spec, result) turns each chunk's SweepResult into a partial
# ---------------------------------------------------------------------------

def _escape_exits(field, spec, res, *, t_grid):
    # per t, the paths that left the band by t; the paths still in it; n
    exited = ~np.isnan(res.cross_times).all(axis=1)
    exits = np.count_nonzero(
        exited & (res.end_times <= np.asarray(t_grid)[:, None]), axis=1)
    return exits, int(np.count_nonzero(~exited)), exited.size


def _band_functionals(field, spec, res):
    # one sweep to time 1 captures the stopped state at every t of the grid;
    # row j of the moments holds the four sums of capture_times[j]
    x = spec["start"]
    exited = ~np.isnan(res.cross_times).all(axis=1)
    lev_x = cf.level(field, x)
    n = exited.size
    moments = np.zeros((len(spec["capture_times"]), 4))
    for j in range(moments.shape[0]):
        states = res.capture_state[exited, j]
        v = np.zeros(n)
        w = np.zeros(n)
        if states.size:
            diff = states - x
            v[exited] = np.einsum("ij,ij->i", diff, diff)
            w[exited] = np.abs(lev_x - cf.level_batch(field, states))
        moments[j] = np.sum(v), np.sum(v * v), np.sum(w), np.sum(w * w)
    return moments, int(np.sum(~exited)), n


def _hitting_counts(field, spec, res, *, eps_grid):
    # per eps, the paths whose minimum level reached it; blowups; n
    counts = np.array([(res.min_levels <= e).sum() for e in eps_grid],
                      dtype=np.int64)
    return counts, int(np.sum(res.blown_up)), res.min_levels.size


def _strong_error(field, spec, res):
    exact = spec["start"][0] * np.exp(-0.5 * spec["horizon"]
                                      + res.noise_sum[:, 0])
    return np.sum(np.abs(res.end_states[:, 0] - exact)), exact.size


# ---------------------------------------------------------------------------
# Bound checkers
# ---------------------------------------------------------------------------

def _band_moments(field, x, band_level, band_index, t_grid, n_paths, policy,
                  seed, bridge, workers):
    # (t, its sums of v, v^2, w, w^2) per t, the censored count, n, the bridge
    t_grid = _unit_grid(t_grid)
    _enough_paths(n_paths)
    spec = {**_band_spec(field, x, band_level, band_index, bridge),
            "horizon": 1.0, "policy": policy, "master": seed,
            "capture_times": t_grid}
    moments, cens, n = _sum_chunks(map_path_chunks(
        _band_functionals, field, iter_chunks(n_paths), spec, workers))
    return list(zip(t_grid, moments.tolist())), cens, n, spec["bridge"]


def check_displacement_bound(field: CoefficientField, x, band_level: float,
                             band_index: int, t_grid, n_paths: int,
                             policy: StepPolicy, seed, *,
                             bridge="auto", workers: int = 1
                             ) -> list[BoundCheckReport]:
    """Second moment of the stopped displacement against (m+1) (A/2^(k-1)) t,
    for each t in the grid, all from one band sweep to time 1.

    Estimates E[|x - X(t ^ S)|^2 ; S <= 1] where S is the band exit time;
    paths still inside the band at time 1 contribute zero and are counted as
    censored.
    """
    per_t, cens, n, used_bridge = _band_moments(
        field, x, band_level, band_index, t_grid, n_paths, policy, seed,
        bridge, workers)
    scale = (field.m + 1.0) * _band_levels(band_level, band_index)[2]
    return [BoundCheckReport(
        "displacement", _mean_with_ci(sv, sv2, n, cens), scale * t, "upper",
        {"A": band_level, "k": band_index, "t": t, "m": field.m,
         "d": field.d, "field": field.name, "n_paths": n,
         "seed": list(entropy_tuple(seed)),
         "policy": policy.to_dict(), "bridge": used_bridge})
        for t, (sv, sv2, _, _) in per_t]


def check_level_change_bound(field: CoefficientField, x, band_level: float,
                             band_index: int, t_grid, n_paths: int,
                             policy: StepPolicy, seed, *,
                             lipschitz_k: float | None = None,
                             bridge="auto", workers: int = 1
                             ) -> list[BoundCheckReport]:
    """Mean absolute level change against the Lipschitz chain bound, for each
    t in the grid, all from one band sweep to time 1.

    Estimates E[|level(x) - level(X(t ^ S))| ; S <= 1] and compares it with
    2 (3 A/2^k)^(1/2) K sqrt(displacement estimate), taking the CI-upper of
    the displacement so both sides are noise-aware.  Fields violating the
    declared Lipschitz bound can and should fail this check.
    """
    k_bound = _require_k(field, lipschitz_k)
    per_t, cens, n, used_bridge = _band_moments(
        field, x, band_level, band_index, t_grid, n_paths, policy, seed,
        bridge, workers)
    factor = _level_change_factor(_band_levels(band_level, band_index)[1],
                                  k_bound)
    reports = []
    for t, (sv, sv2, sw, sw2) in per_t:
        disp = _mean_with_ci(sv, sv2, n, cens)
        rhs = factor * math.sqrt(max(disp.ci_high, 0.0))
        params = {"A": band_level, "k": band_index, "t": t, "m": field.m,
                  "K": k_bound, "field": field.name, "n_paths": n,
                  "policy": policy.to_dict(), "bridge": used_bridge,
                  "displacement": disp.to_dict()}
        reports.append(BoundCheckReport(
            "level-change", _mean_with_ci(sw, sw2, n, cens), rhs, "upper",
            params))
    return reports


def check_escape_probability_bound(field: CoefficientField, x,
                                   band_level: float, band_index: int,
                                   t_grid, n_paths: int, policy: StepPolicy,
                                   seed, *, lipschitz_k: float | None = None,
                                   bridge="auto", workers: int = 1
                                   ) -> list[BoundCheckReport]:
    """P[band exit by t] against C sqrt(t) for each t in the grid.

    Times with C sqrt(t) >= 1 are vacuous (any probability satisfies them)
    and are flagged as non-informative in the report parameters.
    """
    t_grid = _unit_grid(t_grid)
    spec = {**_band_spec(field, x, band_level, band_index, bridge),
            "horizon": max(t_grid), "policy": policy, "master": seed}
    k_bound = _require_k(field, lipschitz_k)
    c = escape_rate_constant(field.m, k_bound)
    exits, censored, n = _sum_chunks(map_path_chunks(
        partial(_escape_exits, t_grid=t_grid), field, iter_chunks(n_paths),
        spec, workers))
    reports = []
    for t, successes in zip(t_grid, exits):
        est = estimate_with_ci(int(successes), n, censored_n=censored)
        rhs = c * math.sqrt(t)
        params = {"A": band_level, "k": band_index, "t": t, "m": field.m,
                  "K": k_bound, "C": c, "informative": rhs < 1.0,
                  "field": field.name, "n_paths": n,
                  "policy": policy.to_dict(), "bridge": spec["bridge"]}
        reports.append(BoundCheckReport("escape-probability", est, rhs,
                                        "upper", params))
    return reports


def fitted_escape_exponent(reports: list[BoundCheckReport]) -> float | None:
    """Slope of log estimate vs log t over reports with nondegenerate estimates.

    Diagnostic only: the bound gives a sqrt(t) upper envelope, so a fitted
    slope far below 1/2 would be suspicious.  Each distinct usable t is
    fitted once, and with fewer than two no line is fitted: it returns None.
    """
    usable = {}
    for rep in reports:
        p = rep.lhs_estimate.point
        if 0.0 < p < 1.0:
            usable[rep.parameters["t"]] = p
    if len(usable) < 2:
        return None
    ts, ps = np.log(list(usable)), np.log(list(usable.values()))
    return float(np.polyfit(ts, ps, 1)[0])


def check_halving_persistence(field: CoefficientField, start,
                              band_level: float, band_index: int,
                              n_paths: int, policy: StepPolicy, seed, *,
                              t0: float, bridge="auto", workers: int = 1
                              ) -> BoundCheckReport:
    """P[level does not halve within t0] against the 1/2 lower bound.

    The start must have level >= band_level / 2**band_index.  The barrier is
    the next halved level band_level / 2**(band_index+1), and a path that
    has not reached it by t0 survives.  ``t0`` is given by the caller, for
    example ``persistence_t0`` of the field's Lipschitz bound.
    """
    barrier, floor_level, _ = _band_levels(band_level, band_index)
    spec = {"start": _persistence_start(field, start, floor_level),
            "horizon": _window_t0(t0), "policy": policy, "master": seed,
            "barriers": (barrier,),
            "bridge": _resolve_bridge(field, bridge)}
    _, survived, n = _sum_chunks(map_path_chunks(
        partial(_escape_exits, t_grid=[t0]), field, iter_chunks(n_paths),
        spec, workers))
    est = estimate_with_ci(survived, n, censored_n=survived)
    params = {"A": band_level, "k": band_index, "t0": t0, "m": field.m,
              "field": field.name, "n_paths": n, "policy": policy.to_dict(),
              "bridge": spec["bridge"]}
    return BoundCheckReport("halving-persistence", est, 0.5, "lower", params)


# ---------------------------------------------------------------------------
# Zero-set hitting and the 1-d accessibility integral
# ---------------------------------------------------------------------------

def estimate_zero_hitting(field: CoefficientField, start, horizon: float,
                          eps_grid, n_paths: int, policy: StepPolicy, seed, *,
                          workers: int = 1) -> list[EstimateWithCI]:
    """P[grid-minimum of the level drops to eps within the horizon], per eps.

    eps_grid must be strictly decreasing and positive; the estimates are then
    nonincreasing by construction.  Paths whose state leaves the trusted
    numeric range are retired with their minimum so far (the instability of
    explicit stepping for superlinear coefficients cannot push the recorded
    minimum down).  Such blown-up paths stay in ``n``, and in ``censored_n``
    unless their minimum had already reached eps.  Their number is summed
    but not reported yet.
    """
    eps_grid = _eps_grid(eps_grid)
    spec = {"start": _off_zero_set(field, start), "horizon": horizon,
            "policy": policy, "master": seed,
            "min_level_retire": eps_grid[-1], "on_blowup": "retire"}
    counts, _blown, n = _sum_chunks(map_path_chunks(
        partial(_hitting_counts, eps_grid=eps_grid), field,
        iter_chunks(n_paths), spec, workers))
    return [estimate_with_ci(int(c), n, censored_n=int(n - c))
            for c in counts]


# The accessibility integral is declared finite once the geometric tail
# estimate falls below this share of the partial sum, and divergent once
# the last _TREND_WINDOWS dyadic windows show no geometric decay; it stops
# after _MAX_WINDOWS windows.
_TAIL_REL_TOL = 1e-9
_TREND_WINDOWS = 12
_MAX_WINDOWS = 400


@dataclass(frozen=True)
class IntegralVerdict:
    """Outcome of the improper-integral accessibility test."""

    kind: str                  # "finite" | "divergent"
    value: float | None = None
    error: float | None = None
    windows: int = 0

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


def _window_sigma(sigma_1d, lo: float, hi: float):
    """sigma at the ends and the midpoint of the window [lo, hi], where it
    must be nonzero and finite."""
    for y in (lo, 0.5 * (lo + hi), hi):
        s = sigma_1d(y)
        if s == 0:
            raise InvalidInputError(f"sigma vanishes at y={y:g} inside (0, a]")
        if not np.isfinite(s):
            raise InvalidInputError(f"sigma non-finite at y={y:g}")


def accessibility_integral_1d(sigma_1d, a: float) -> IntegralVerdict:
    """Classify the integral of y / sigma(y)^2 over (0, a] near the origin.

    Integrates over dyadic windows [a/2^(j+1), a/2^j] by adaptive quadrature.
    If the window sums keep geometric decay, the tail is summed from the
    decay ratio and the integral is declared finite; if the last
    ``_TREND_WINDOWS`` windows show no geometric decay, the partial sums grow
    without it and the integral is declared divergent.  The origin is then
    reachable for the driftless 1-d equation exactly in the finite case.
    """
    if a <= 0:
        raise InvalidInputError("a must be positive")
    from scipy import integrate

    def integrand(y):
        s = sigma_1d(y)
        s2 = s * s
        # below the normal floats (0 too) y / s2 divides by 0 or by a value
        # of few bits, where quad warns of roundoff
        if s2 < sys.float_info.min:
            raise InvalidInputError(f"sigma^2 underflows at y={y:g}")
        return y / s2

    winsums: list[float] = []
    quad_err = 0.0
    total = 0.0
    decay_threshold = 1.0 - 1e-3
    for j in range(_MAX_WINDOWS):
        hi = a / 2.0 ** j
        lo = a / 2.0 ** (j + 1)
        _window_sigma(sigma_1d, lo, hi)
        val, err = integrate.quad(integrand, lo, hi, limit=200)
        winsums.append(val)
        quad_err += err
        total += val
        if len(winsums) <= _TREND_WINDOWS:
            continue
        recent = winsums[-_TREND_WINDOWS:]
        prev = winsums[-_TREND_WINDOWS - 1:-1]
        ratios = [r / q if q != 0 else np.inf for r, q in zip(recent, prev)]
        if all(q == 0 for q in recent):
            return IntegralVerdict("finite", total, quad_err, j + 1)
        if all(r >= decay_threshold for r in ratios):
            return IntegralVerdict("divergent", None, None, j + 1)
        rbar = max(ratios)
        if rbar < decay_threshold:
            tail = winsums[-1] * rbar / (1.0 - rbar)
            if tail <= _TAIL_REL_TOL * max(abs(total), 1e-300) + 1e-300:
                return IntegralVerdict("finite", total + tail,
                                       quad_err + 0.25 * tail, j + 1)
    # undecided after _MAX_WINDOWS: fall back to the trend of the last windows
    if winsums[-2] == 0 or winsums[-3] == 0:
        return IntegralVerdict("finite", total, quad_err, _MAX_WINDOWS)
    rbar = max(winsums[-1] / winsums[-2], winsums[-2] / winsums[-3])
    if rbar >= decay_threshold:
        return IntegralVerdict("divergent", None, None, _MAX_WINDOWS)
    tail = winsums[-1] * rbar / (1.0 - rbar)
    return IntegralVerdict("finite", total + tail, quad_err + tail,
                           _MAX_WINDOWS)


# ---------------------------------------------------------------------------
# Engine validation
# ---------------------------------------------------------------------------

# The most path-steps a strong-order study may take, n_paths x
# sum_e ceil(horizon 2^e): 2^36 path-steps run 1.3-3.6 h at 70-190 ns each.
MAX_STUDY_PATH_STEPS = 2 ** 36


def _study_steps(n_paths: int, h_exponents, horizon: float) -> list[float]:
    """The study's steps 2^-e, if its path-steps are at most
    MAX_STUDY_PATH_STEPS and there are two or more, none repeated, so that an
    order can be fitted with each step counted once."""
    hs = [_halved(1.0, e) for e in h_exponents]
    # horizon / h is exact, or inf; capping it keeps the count an exact int
    steps = n_paths * sum(math.ceil(min(horizon / h, 2.0 ** 64)) for h in hs)
    if steps > MAX_STUDY_PATH_STEPS:
        # steps is an exact int that may not fit a float, so it is not shown
        raise InvalidInputError(
            "n_paths x sum_e ceil(horizon 2^e) is more than 2^36 path-steps")
    if len(hs) < 2 or len(set(hs)) < len(hs):
        raise InvalidInputError("need at least two distinct exponents, "
                                "none repeated")
    return hs


def strong_order_study(n_paths: int = 2000, h_exponents=range(4, 11),
                       horizon: float = 1.0, start_x: float = 1.0,
                       master_seed=0, workers: int = 1) -> dict:
    """Strong error of the stepper against the exact linear-field solution.

    For each h = 2^-e the Euler paths and the closed form
    x exp(B_T - T/2) are built from the same increments; the fitted slope of
    log error vs log h should land in STRONG_ORDER_WINDOW.  A study of more
    than MAX_STUDY_PATH_STEPS path-steps or of fewer than two distinct h is
    rejected before it starts, and one with a strong error that is not
    positive, through which no order can be fitted, when that error is found.
    """
    field = cf.make_field("linear-1d")
    master = entropy_tuple(master_seed)
    h_exponents = list(h_exponents)
    hs = _study_steps(n_paths, h_exponents, horizon)
    errs = []
    for e, h in zip(h_exponents, hs):
        # each h has its own master seed (*master, e) and chunk-order sum
        spec = {"start": np.array([start_x]), "horizon": horizon,
                "policy": StepPolicy.fixed(h), "master": (*master, e),
                "track_noise_sum": True}
        total, n = _sum_chunks(map_path_chunks(
            _strong_error, field, iter_chunks(n_paths), spec, workers))
        errs.append(float(total / n))
        if not errs[-1] > 0:
            raise InvalidInputError(
                f"the strong error at h = 2^-{e} is {errs[-1]!r}, not positive")
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    low, high = STRONG_ORDER_WINDOW
    return {"h_grid": hs, "strong_errors": errs, "slope": slope,
            "n_paths": n_paths, "slope_window": [low, high],
            "satisfied": bool(low <= slope <= high)}
