import math
import sys
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import oracles
import sdelab as sl
from sdelab import InvalidInputError, StepPolicy, stopping, verification
from sdelab.engine import iter_chunks, map_path_chunks
from sdelab.verification import (Z_95, BoundCheckReport, EstimateWithCI,
                                  _escape_exits, _mean_with_ci, _sum_chunks)


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

def test_escape_rate_constant_values():
    assert sl.escape_rate_constant(1, 1.0) == pytest.approx(8 * math.sqrt(3),
                                                            rel=1e-14)
    assert sl.escape_rate_constant(1, 0.0) == 0.0
    assert sl.escape_rate_constant(3, 2.0) == pytest.approx(
        4 * math.sqrt(6) * 2 * math.sqrt(4), rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.floats(1e-3, 1e3))
def test_escape_rate_constant_homogeneous_in_k(m, k_bound):
    assert sl.escape_rate_constant(m, 2 * k_bound) == pytest.approx(
        2 * sl.escape_rate_constant(m, k_bound), rel=1e-12)


def test_unsimplified_product_is_level_independent():
    # the banded product divided by sqrt(t) must equal the closed form for
    # any (A, k, t): the simplification drops out exactly
    rng = np.random.default_rng(44)
    for m, k_bound in ((1, 1.0), (2, 0.7), (5, 3.2)):
        c = sl.escape_rate_constant(m, k_bound)
        for _ in range(10):
            a = float(rng.uniform(1e-4, 1e4))
            k = int(rng.integers(1, 30))
            t = float(rng.uniform(1e-6, 1.0))
            prod = oracles.escape_rate_product(a, k, t, m, k_bound)
            assert prod / math.sqrt(t) == pytest.approx(c, rel=1e-12)


def test_persistence_window_values():
    c = 8 * math.sqrt(3)
    assert sl.persistence_window(c) == pytest.approx(1 / 768, rel=1e-12)
    assert sl.persistence_window(0.0) == 0.5
    assert sl.persistence_window(1.0) == pytest.approx(0.25, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-6, 1e6))
def test_persistence_window_inequality_exact(c):
    t0 = sl.persistence_window(c)
    assert 0.0 < t0 < 1.0
    assert c * math.sqrt(t0) <= 0.5  # exact in floating point


def test_default_escape_time_grid_informative():
    c = sl.escape_rate_constant(1, 1.0)
    grid = sl.default_escape_time_grid(c)
    assert grid
    assert all(c * math.sqrt(t) < 1.0 for t in grid)
    assert all(b > a for a, b in zip(grid, grid[1:]))


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------

def test_wilson_boundary_and_symmetry():
    e = sl.estimate_with_ci(0, 100)
    assert e.point == 0.0 and e.ci_low == 0.0 and e.ci_high > 0.0
    e = sl.estimate_with_ci(50, 100)
    assert e.point == 0.5
    assert e.ci_low + e.ci_high == pytest.approx(1.0, abs=1e-12)
    e = sl.estimate_with_ci(100, 100)
    assert e.point == 1.0 and e.ci_high == 1.0


def test_estimate_with_ci_validation():
    with pytest.raises(InvalidInputError):
        sl.estimate_with_ci(-1, 10)
    with pytest.raises(InvalidInputError):
        sl.estimate_with_ci(11, 10)
    with pytest.raises(InvalidInputError):
        sl.estimate_with_ci(1, 0)
    # Wilson is the one interval: there is no method to choose
    with pytest.raises(TypeError):
        sl.estimate_with_ci(50, 100, "wilson")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 50), st.integers(1, 50))
def test_ci_bracket_and_range(successes, n):
    if successes > n:
        successes = n
    e = sl.estimate_with_ci(successes, n)
    assert 0.0 <= e.ci_low <= e.point <= e.ci_high <= 1.0


def test_wilson_coverage_bernoulli():
    rng = np.random.default_rng(42)
    covered = 0
    for _ in range(1000):
        s = int(rng.binomial(200, 0.3))
        e = sl.estimate_with_ci(s, 200)
        covered += e.ci_low <= 0.3 <= e.ci_high
    assert 0.93 <= covered / 1000 <= 0.97


def test_z95_is_the_scipy_quantile_bit_for_bit():
    z = float(stats.norm.ppf(0.5 + 0.95 / 2.0))
    assert np.float64(Z_95).view(np.uint64) == np.float64(z).view(np.uint64)


def test_estimate_invariant_enforced():
    with pytest.raises(InvalidInputError):
        EstimateWithCI(point=0.5, ci_low=0.6, ci_high=0.7, n=10,
                       method="wilson")


def test_mean_ci_from_moments():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    e = _mean_with_ci(vals.sum(), (vals ** 2).sum(), 4, 0)
    assert e.point == pytest.approx(2.5)
    half = 1.959963984540054 * vals.std(ddof=1) / 2.0
    assert e.ci_high - e.point == pytest.approx(half, rel=1e-9)
    zero = _mean_with_ci(0.0, 0.0, 5, 5)
    assert zero.point == zero.ci_low == zero.ci_high == 0.0


def test_bound_report_directions_and_json():
    est = EstimateWithCI(0.4, 0.3, 0.5, 100, "wilson")
    up = BoundCheckReport("x", est, 0.35, "upper", {"t": 1.0})
    assert up.satisfied  # ci_low 0.3 <= 0.35
    assert up.slack == pytest.approx(-0.05)
    down = BoundCheckReport("x", est, 0.45, "lower")
    assert down.satisfied  # ci_high 0.5 >= 0.45
    bad = BoundCheckReport("x", est, 0.25, "upper")
    assert not bad.satisfied
    doc = up.to_json_dict()
    assert set(doc) == {"bound_name", "parameters", "lhs", "rhs", "direction",
                        "satisfied", "slack"}
    assert set(doc["lhs"]) == {"point", "ci_low", "ci_high", "n",
                               "censored_n", "method"}


# ---------------------------------------------------------------------------
# Bound checkers
# ---------------------------------------------------------------------------

CONST_FIELD = sl.make_field("constant", sigma0=[[1.0]], b0=[0.0])
LINEAR = sl.make_field("linear-1d")
POL = StepPolicy.fixed(5e-4)


def test_displacement_constant_field_is_zero_and_satisfied():
    # level never moves, the band is never left, every contribution is zero
    [rep] = sl.check_displacement_bound(CONST_FIELD, [5.0], 2.0, 1, [0.5], 300,
                                        StepPolicy.fixed(1e-2), 1)
    assert rep.lhs_estimate.point == 0.0
    assert rep.lhs_estimate.censored_n == 300
    assert rep.satisfied


def test_level_change_constant_field_zero_both_sides():
    [rep] = sl.check_level_change_bound(CONST_FIELD, [5.0], 2.0, 1, [0.5], 300,
                                        StepPolicy.fixed(1e-2), 1)
    assert rep.lhs_estimate.point == 0.0
    assert rep.rhs_value == 0.0
    assert rep.satisfied


def test_displacement_gbm_satisfied_with_slack():
    [rep] = sl.check_displacement_bound(LINEAR, [1.0], 2.0, 1, [0.1], 3000,
                                        POL, 5)
    assert rep.satisfied
    assert rep.rhs_value == pytest.approx(2 * 2 * 0.1)
    assert rep.rhs_value > 2 * rep.lhs_estimate.point  # documented slack


def test_displacement_scaling_in_band_level():
    # doubling A doubles the bound exactly; the estimate follows suit and the
    # check stays satisfied (paired run through common random numbers)
    pol = StepPolicy.fixed(1e-3)
    [r1] = sl.check_displacement_bound(LINEAR, [1.0], 2.0, 1, [0.1], 2000,
                                       pol, 9)
    [r2] = sl.check_displacement_bound(LINEAR, [float(np.sqrt(2.0))], 4.0, 1,
                                       [0.1], 2000, pol, 9)
    assert r2.rhs_value == pytest.approx(2 * r1.rhs_value, rel=1e-12)
    assert r2.lhs_estimate.point == pytest.approx(2 * r1.lhs_estimate.point,
                                                  rel=0.02)
    assert r1.satisfied and r2.satisfied


def test_level_change_gbm_satisfied():
    [rep] = sl.check_level_change_bound(LINEAR, [1.0], 2.0, 1, [0.1], 3000,
                                        POL, 5)
    assert rep.satisfied
    assert rep.parameters["K"] == 1.0
    assert "displacement" in rep.parameters


def test_level_change_negative_control_can_fail():
    # alpha=1/2 power law is not Lipschitz near 0; with a (wrong) declared
    # bound K=1 the chain inequality must break down close to the origin
    field = sl.make_field("power-law-1d", alpha=0.5, lipschitz_k=1.0)
    [rep] = sl.check_level_change_bound(field, [1e-4], 2e-4, 1, [0.01], 1500,
                                        StepPolicy.fixed(1e-6), 6)
    assert not rep.satisfied
    assert rep.lhs_estimate.ci_low > rep.rhs_value


@pytest.mark.parametrize("case", ["linear-1d-bridge", "diag-linear"])
def test_band_checkers_grid_equals_one_time_calls(case):
    # a grid call reports each t exactly as a call with that t alone: one
    # sweep captures every t as a one-time sweep does.  The grid is
    # unsorted and repeats a time; it holds t = 1.0 (the end states) and
    # t = h / 4, before any path can exit (a linear crossing ends a step,
    # a bridge crossing sits mid-step)
    pol = StepPolicy.fixed(1e-2)
    if case == "diag-linear":
        field, x, bridge = sl.make_field("diag-linear", d=2), [0.5, 0.5], False
    else:
        field, x, bridge = LINEAR, [1.0], True
    band_level = 2.0 * sl.level(field, x)
    t_grid = [0.3, 1.0, 2.5e-3, 0.05, 0.3]
    for check, seed in ((sl.check_displacement_bound, 12),
                        (sl.check_level_change_bound, 13)):
        grid = check(field, x, band_level, 1, t_grid, 600, pol, seed,
                     bridge=bridge)
        assert [r.parameters["t"] for r in grid] == t_grid
        assert grid[0].parameters["bridge"] == bridge
        for t, rep in zip(t_grid, grid):
            [one] = check(field, x, band_level, 1, [t], 600, pol, seed,
                          bridge=bridge)
            assert rep.to_json_dict() == one.to_json_dict(), t
        assert grid[1].lhs_estimate.point > grid[2].lhs_estimate.point > 0


def test_band_checkers_validate_inputs():
    with pytest.raises(InvalidInputError):
        sl.check_displacement_bound(LINEAR, [1.0], 2.0, 1, [1.5], 200, POL, 0)
    with pytest.raises(InvalidInputError):  # one t outside (0, 1]
        sl.check_displacement_bound(LINEAR, [1.0], 2.0, 1, [0.1, 0.0], 200,
                                    POL, 0)
    with pytest.raises(InvalidInputError):  # an empty grid
        sl.check_level_change_bound(LINEAR, [1.0], 2.0, 1, [], 200, POL, 0)
    with pytest.raises(InvalidInputError):  # level(x)=1 is not A/2^k = 4
        sl.check_displacement_bound(LINEAR, [1.0], 8.0, 1, [0.1], 200, POL, 0)
    with pytest.raises(InvalidInputError):  # no Lipschitz bound anywhere
        sl.check_level_change_bound(sl.make_field("power-law-1d", alpha=0.5),
                                    [1.0], 2.0, 1, [0.1], 200, POL, 0)


def test_halved_levels_past_the_float_range():
    # A/2^j is math.ldexp(A, -j): the division's bits wherever that is
    # normal, and an InvalidInputError, not 2.0 ** j's OverflowError, where
    # no positive float is left
    for a in (2.0, 3.7e300, 1e-300, 0.1):
        for j in (0, 1, 7, 60, 1000, 1023):
            exact = a / 2.0 ** j
            if exact >= sys.float_info.min:
                assert verification._halved(a, j) == exact
    with pytest.raises(InvalidInputError):
        sl.check_displacement_bound(LINEAR, [1.0], 2.0, 2000, [0.1], 200,
                                    POL, 0)
    with pytest.raises(InvalidInputError):
        stopping.dyadic_escape_batch(LINEAR, [1.0], 1100, 1.0, POL, 0, 10)


def test_escape_bound_vacuous_times():
    c = sl.escape_rate_constant(1, 1.0)
    t_big = 0.9  # C sqrt(0.9) >> 1
    reps = sl.check_escape_probability_bound(LINEAR, [1.0], 2.0, 1, [t_big],
                                             500, StepPolicy.fixed(1e-3), 3)
    assert len(reps) == 1
    assert not reps[0].parameters["informative"]
    assert reps[0].rhs_value == pytest.approx(c * math.sqrt(t_big))
    assert reps[0].satisfied


def test_escape_bound_constant_field_never_exits():
    # constant level: the band is never left, every estimate is zero
    reps = sl.check_escape_probability_bound(CONST_FIELD, [0.0], 2.0, 1,
                                             [0.001, 0.002], 300,
                                             StepPolicy.fixed(1e-3), 1,
                                             lipschitz_k=0.0)
    for rep in reps:
        assert rep.lhs_estimate.point == 0.0
        assert rep.satisfied


def test_escape_bound_validation():
    with pytest.raises(InvalidInputError):
        sl.check_escape_probability_bound(LINEAR, [1.0], 2.0, 1, [], 500,
                                          POL, 3)
    with pytest.raises(InvalidInputError):
        sl.check_escape_probability_bound(LINEAR, [1.0], 2.0, 1, [2.0], 500,
                                          POL, 3)


def test_escape_bound_gbm_informative_grid():
    grid = sl.default_escape_time_grid(sl.escape_rate_constant(1, 1.0))
    reps = sl.check_escape_probability_bound(LINEAR, [1.0], 2.0, 1, grid,
                                             4000, StepPolicy.fixed(1e-5), 12)
    assert all(r.satisfied for r in reps)
    assert all(r.parameters["informative"] for r in reps)
    # estimates are nondecreasing in t by construction
    pts = [r.lhs_estimate.point for r in reps]
    assert all(b >= a for a, b in zip(pts, pts[1:]))


def test_escape_bound_negative_control_can_fail():
    # an understated K = 1e-3 puts C sqrt(t) far below the band-exit rate of
    # linear-1d (about half the paths by t = 0.1); with the declared K = 1
    # the same paths satisfy the bound at every t
    grid = [0.01, 0.03, 0.1]
    pol = StepPolicy.fixed(1e-3)
    bad = sl.check_escape_probability_bound(LINEAR, [1.0], 2.0, 1, grid, 1000,
                                            pol, 1, lipschitz_k=1e-3)
    assert bad[-1].parameters["t"] == 0.1
    assert not bad[-1].satisfied
    assert bad[-1].lhs_estimate.ci_low > bad[-1].rhs_value
    good = sl.check_escape_probability_bound(LINEAR, [1.0], 2.0, 1, grid,
                                             1000, pol, 1)
    assert all(r.satisfied for r in good)


def test_fitted_escape_exponent_on_observable_grid():
    reps = sl.check_escape_probability_bound(LINEAR, [1.0], 2.0, 1,
                                             [0.05, 0.1, 0.2, 0.4], 8000,
                                             StepPolicy.fixed(5e-4), 5)
    slope = sl.fitted_escape_exponent(reps)
    assert slope is not None
    assert slope >= 0.5 - 0.15
    # degenerate grids yield no exponent
    vac = sl.check_escape_probability_bound(LINEAR, [1.0], 2.0, 1, [1e-4],
                                            500, StepPolicy.fixed(1e-4), 5)
    assert sl.fitted_escape_exponent(vac) is None


def test_fitted_escape_exponent_fits_each_t_once():
    # a repeated t is one point of the fit, not two
    pol = StepPolicy.fixed(1e-3)
    once, twice = (sl.check_escape_probability_bound(
        LINEAR, [1.0], 2.0, 1, grid, 2000, pol, 3)
        for grid in ([0.03, 0.05, 0.1], [0.03, 0.05, 0.1, 0.1]))
    assert all(0 < r.lhs_estimate.point < 1 for r in once)
    assert twice[2].to_json_dict() == twice[3].to_json_dict()
    assert sl.fitted_escape_exponent(twice) == sl.fitted_escape_exponent(once)


def test_escape_bound_with_tiny_alpha_warns_nothing():
    # alpha < 1/2048 puts the |x| of the upper band level 2 past the largest
    # float: the bridge finds a barrier at inf, which no step crosses, and
    # finding it warns nothing.  One path of 200 leaves by the lower level
    field = sl.make_field("power-law-1d", alpha=4e-4, lipschitz_k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = sl.check_escape_probability_bound(
            field, [1.0], 2.0, 1, [0.01, 0.1], 200, StepPolicy.fixed(1e-2), 1,
            bridge=True)
    assert [r.lhs_estimate.point for r in reps] == [0.0, 0.005]


def test_halving_persistence_constant_field():
    rep = sl.check_halving_persistence(CONST_FIELD, [3.0], 2.0, 1, 300,
                                       StepPolicy.fixed(1e-3), 2, t0=0.01)
    assert rep.lhs_estimate.point == 1.0
    assert rep.satisfied
    assert rep.direction == "lower"


def test_halving_persistence_gbm():
    t0 = sl.persistence_window(sl.escape_rate_constant(1, 1.0))
    rep = sl.check_halving_persistence(LINEAR, [1.0], 2.0, 1, 2000,
                                       StepPolicy.fixed(1e-6), 9, t0=t0)
    assert rep.satisfied
    assert rep.lhs_estimate.ci_low > 0.9


def test_halving_persistence_negative_control():
    # deterministic decay tuned so the level halves at t0/2 < t0: the
    # persistence probability is 0 and the check must report unsatisfied
    t0 = 1.0 / 768.0
    field = sl.make_field("decay-1d", rate=math.log(2.0) / t0)
    lev = sl.level(field, [1.0])
    rep = sl.check_halving_persistence(field, [1.0], 2 * lev, 1, 200,
                                       StepPolicy.fixed(t0 / 2000), 4, t0=t0)
    assert rep.lhs_estimate.point == 0.0
    assert not rep.satisfied


def test_halving_persistence_rejects_low_starts():
    with pytest.raises(InvalidInputError):
        sl.check_halving_persistence(LINEAR, [0.1], 2.0, 1, 200, POL, 1,
                                     t0=0.001)


# ---------------------------------------------------------------------------
# Zero-set hitting and the integral criterion
# ---------------------------------------------------------------------------

def test_zero_hitting_gbm_rare_at_short_horizon():
    # P[min level <= 1e-6 within horizon 1] is ~1e-10 for the linear field
    ests = sl.estimate_zero_hitting(LINEAR, [1.0], 1.0, [1e-6], 2000,
                                    StepPolicy.fixed(1e-3), 8)
    assert ests[0].point <= 0.01


def test_zero_hitting_monotone_in_eps():
    ests = sl.estimate_zero_hitting(LINEAR, [1.0], 5.0, [1e-1, 1e-2, 1e-4],
                                    2000, StepPolicy.fixed(1e-3), 8)
    pts = [e.point for e in ests]
    assert all(a >= b for a, b in zip(pts, pts[1:]))


@settings(max_examples=50, deadline=None)
@given(alpha=st.sampled_from([0.25, 0.5, 1.0, 1.5]),
       eps=st.lists(st.floats(1e-4, 0.9), min_size=1, max_size=5, unique=True),
       seed=st.integers(0, 2**32 - 1))
def test_zero_hitting_never_increases_as_eps_shrinks(alpha, eps, seed):
    # alpha = 1.5 blows some paths up; they stay in n with their minimum
    field = sl.make_field("power-law-1d", alpha=alpha)
    grid = sorted(eps, reverse=True)
    ests = sl.estimate_zero_hitting(
        field, [1.0], 1.0, grid, 40,
        StepPolicy(h_max=1e-2, h_min=1e-4, level_fraction=0.05), seed)
    assert [e.n for e in ests] == [40] * len(grid)
    for wide, narrow in zip(ests, ests[1:]):
        assert narrow.point <= wide.point
        assert narrow.ci_low <= wide.ci_low and narrow.ci_high <= wide.ci_high
        assert narrow.censored_n >= wide.censored_n


def test_zero_hitting_unreachable_plateau():
    # sigma = b = 0 on x <= 0, but the drift pushes right from x=1: the zero
    # region is never approached
    field = sl.CoefficientField(
        d=1, m=1,
        sigma=lambda X: np.zeros((X.shape[0], 1, 1)),
        b=lambda X: np.clip(X, 0.0, 1.0),
        name="plateau")
    ests = sl.estimate_zero_hitting(field, [1.0], 2.0, [1e-2, 1e-4], 200,
                                    StepPolicy.fixed(1e-2), 3)
    assert all(e.point == 0.0 for e in ests)


def test_zero_hitting_validation():
    with pytest.raises(InvalidInputError, match="start point lies in the zero set"):
        sl.estimate_zero_hitting(LINEAR, [0.0], 1.0, [1e-2], 100, POL, 1)
    with pytest.raises(InvalidInputError):
        sl.estimate_zero_hitting(LINEAR, [1.0], 1.0, [1e-4, 1e-2], 100, POL, 1)
    with pytest.raises(InvalidInputError):
        sl.estimate_zero_hitting(LINEAR, [1.0], 1.0, [], 100, POL, 1)


def test_accessibility_integral_examples():
    v = sl.accessibility_integral_1d(lambda y: y ** 0.5, 1.0)
    assert v.is_finite
    assert abs(v.value - 1.0) <= v.error + 1e-9

    v = sl.accessibility_integral_1d(lambda y: y, 1.0)
    assert v.kind == "divergent"

    v = sl.accessibility_integral_1d(lambda y: 2.0, 0.8)
    assert v.is_finite
    assert v.value == pytest.approx(0.8 ** 2 / (2 * 4.0), rel=1e-9)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9])
def test_accessibility_integral_powers_finite(alpha):
    v = sl.accessibility_integral_1d(lambda y: y ** alpha, 1.0)
    assert v.is_finite
    closed = 1.0 / (2.0 - 2.0 * alpha)
    assert abs(v.value - closed) <= v.error + 1e-9 * closed


@pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5])
def test_accessibility_integral_powers_divergent(alpha):
    v = sl.accessibility_integral_1d(lambda y: y ** alpha, 1.0)
    assert v.kind == "divergent"


def test_accessibility_integral_rejects_vanishing_sigma():
    with pytest.raises(InvalidInputError):
        sl.accessibility_integral_1d(lambda y: y - 0.5, 1.0)
    with pytest.raises(InvalidInputError):
        sl.accessibility_integral_1d(lambda y: y, 0.0)


# The Gauss-Legendre rule against scipy's quad on each window as the
# reference: every smooth sigma gives quad's verdict and window count, and
# its windows are one piece each
_SMOOTH_SIGMAS = [pytest.param(lambda y, p=p: y ** p, 1.0, id=f"y^{p}")
                  for p in (0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 1.0, 1.01, 1.5)]
_SMOOTH_SIGMAS += [
    pytest.param(lambda y: y ** 0.5 * (1.0 + y), 1.0, id="y^0.5(1+y)"),
    pytest.param(lambda y: math.sqrt(y) + y, 1.0, id="sqrt(y)+y"),
    pytest.param(lambda y: y ** 0.7 * (1.0 + abs(math.log(y))), 1.0,
                 id="y^0.7(1+|log y|)"),
    pytest.param(lambda y: 2.0, 1.0, id="2"),
    pytest.param(lambda y: y ** 0.6, 1000.0, id="y^0.6-a1000")]


def _jump(y):
    # the integral over (0, 1] is 0.37 + 0.63 / 9 = 0.44
    return math.sqrt(y) * (1.0 if y < 0.37 else 3.0)


_HARD_SIGMAS = [
    pytest.param(lambda y: math.sqrt(y) + abs(y - 0.3), id="kink"),
    pytest.param(_jump, id="jump"),
    pytest.param(lambda y: math.sqrt(y) * (1.0 + 5.0 * abs(math.sin(40 * y))),
                 id="oscillation")]


def _by_quad(monkeypatch, sigma, a):
    with monkeypatch.context() as patch:
        patch.setattr(verification, "_window_integral",
                      lambda f, lo, hi: integrate.quad(f, lo, hi, limit=200))
        return sl.accessibility_integral_1d(sigma, a)


@pytest.mark.parametrize("sigma, a", _SMOOTH_SIGMAS)
def test_accessibility_integral_agrees_with_quad(monkeypatch, sigma, a):
    ref = _by_quad(monkeypatch, sigma, a)
    calls = []

    def counted(y):
        calls.append(y)
        return sigma(y)
    v = sl.accessibility_integral_1d(counted, a)
    assert (v.kind, v.windows) == (ref.kind, ref.windows)
    if v.is_finite:
        assert v.value == pytest.approx(ref.value, rel=1e-12, abs=0)
    # no window is bisected: each is one piece, whose sigma is checked at 3
    # points and summed by G20 on it and on its halves and by G10 on it
    assert len(calls) == (3 + 20 + 2 * 20 + 10) * v.windows


@pytest.mark.parametrize("sigma", _HARD_SIGMAS)
def test_accessibility_integral_hard_sigma(monkeypatch, sigma):
    # a kink, a jump or an oscillation inside a window is bisected until
    # the value lies within both methods' errors of quad's, and its own
    # error is no larger than quad's
    ref = _by_quad(monkeypatch, sigma, 1.0)
    v = sl.accessibility_integral_1d(sigma, 1.0)
    assert v.is_finite and v.windows == ref.windows
    assert abs(v.value - ref.value) <= v.error + ref.error
    assert v.error <= ref.error


def test_accessibility_integral_jump_within_its_error():
    v = sl.accessibility_integral_1d(_jump, 1.0)
    assert abs(v.value - 0.44) <= v.error


def test_strong_order_study_caps_its_path_steps():
    # n_paths x sum_e ceil(horizon 2^e) may reach 2^36, here (2^36 - 1) + 1,
    # and not pass it; the cap is checked before any path is swept
    assert verification._study_steps(1, [37, 1], 0.5 - 2.0 ** -37) == [
        2.0 ** -37, 0.5]
    assert verification._study_steps(1, [34, 35], 0.75) == [2.0 ** -34,
                                                            2.0 ** -35]
    for n_paths, h_exponents, horizon in [(2, [36], 1.0), (16, [3, 70], 1.0),
                                          (1, [4], 1e300), (1, [1074], 1.0),
                                          (10 ** 400, [4], 1.0)]:
        with pytest.raises(InvalidInputError, match="more than 2"):
            sl.strong_order_study(n_paths, h_exponents, horizon)
    # a line needs two distinct steps, each counted once
    for h_exponents in ([4], [4, 4], [3, 4, 4]):
        with pytest.raises(InvalidInputError, match="two distinct"):
            sl.strong_order_study(1, h_exponents)


# ---------------------------------------------------------------------------
# Chunk reduction: every estimator's spec and reducer over several chunks
# ---------------------------------------------------------------------------

def _recorded_maps(monkeypatch, module):
    """Record (reduce, field, spec, partials) of each map_path_chunks call
    that ``module`` makes."""
    calls = []
    real = module.map_path_chunks

    def recording(reduce, field, index_chunks, spec, workers=1):
        partials = real(reduce, field, index_chunks, spec, workers)
        calls.append((reduce, field, spec, partials))
        return partials
    monkeypatch.setattr(module, "map_path_chunks", recording)
    return calls


_COARSE = StepPolicy.fixed(1e-2)
_POWER_15 = sl.make_field("power-law-1d", alpha=1.5)

# each estimator, run on a few paths only to record its spec and reducer
_ESTIMATORS = {
    "escape-exits": (verification, lambda: sl.check_escape_probability_bound(
        LINEAR, [1.0], 2.0, 1, [0.01, 0.1], 8, _COARSE, 5, bridge=True)),
    "band-functionals": (verification, lambda: sl.check_displacement_bound(
        LINEAR, [1.0], 2.0, 1, [0.2, 1.0], 8, _COARSE, 5, bridge=True)),
    "persistence": (verification, lambda: sl.check_halving_persistence(
        LINEAR, [1.0], 2.0, 1, 8, _COARSE, 5, t0=0.1, bridge=True)),
    "hitting-counts": (verification, lambda: sl.estimate_zero_hitting(
        _POWER_15, [1.0], 10.0, [1e-2, 1e-4, 1e-6], 8, _COARSE, 600)),
    "strong-error": (verification, lambda: sl.strong_order_study(
        8, h_exponents=[3, 4], master_seed=5)),
    "dyadic-increments": (stopping, lambda: sl.dyadic_escape_batch(
        LINEAR, [1.0], 4, 1.0, _COARSE, 5, 8, bridge=True)),
}


def _bits(partials):
    parts = [p if isinstance(p, tuple) else (p,) for p in partials]
    return [[np.asarray(v).tobytes() for v in part] for part in parts]


@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_chunked_reduction_matches_across_workers_and_one_chunk(
        name, monkeypatch):
    module, run = _ESTIMATORS[name]
    calls = _recorded_maps(monkeypatch, module)
    run()
    assert calls
    for reduce, field, spec, _ in calls:
        chunked = {w: map_path_chunks(reduce, field, iter_chunks(64, 16),
                                      spec, w) for w in (1, 2)}
        assert len(chunked[1]) == 4
        assert _bits(chunked[1]) == _bits(chunked[2])
        (whole,) = map_path_chunks(reduce, field, [np.arange(64)], spec)
        if name == "dyadic-increments":
            assert _bits([np.concatenate(chunked[1])]) == _bits([whole])
            continue
        # the integer partials (counts, censored, survivors, blowups, n)
        # sum to those of one chunk; float sums depend on the grouping
        for total, one in zip(_sum_chunks(chunked[1]), whole):
            if np.asarray(one).dtype.kind in "iu":
                np.testing.assert_array_equal(total, one)


def test_hitting_counts_blowups(monkeypatch):
    # alpha = 1.5 with fixed h = 1e-2 blows some paths up; the reducer counts
    # them (the payload does not report them yet)
    calls = _recorded_maps(monkeypatch, verification)
    sl.estimate_zero_hitting(_POWER_15, [1.0], 10.0, [1e-2, 1e-4, 1e-6],
                             2000, _COARSE, 600)
    ((_, _, _, partials),) = calls
    assert sum(blown for _, blown, _ in partials) == 11


def test_halving_persistence_is_one_escape_sweep(monkeypatch):
    # one sweep to t0 with one down barrier at A/2^(k+1), reduced by the
    # escape checker's reducer: its never-exited count is the survivor count
    calls = _recorded_maps(monkeypatch, verification)
    rep = sl.check_halving_persistence(LINEAR, [1.0], 2.0, 1, 20_000,
                                       _COARSE, 5, t0=0.1)
    ((reduce, _, spec, partials),) = calls
    assert reduce.func is _escape_exits and reduce.keywords == {"t_grid": [0.1]}
    assert spec["horizon"] == 0.1
    assert spec["barriers"] == (0.5,)
    assert len(partials) == 3
    survived = sum(never for _, never, _ in partials)
    assert rep.lhs_estimate.censored_n == survived == round(
        rep.lhs_estimate.point * 20_000)
    assert 0 < survived < 20_000


_EXITS_BY_01 = partial(_escape_exits, t_grid=[0.1])


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    # a ProcessPoolExecutor forks all max_workers processes at its first
    # submit; this fake records the count and maps in this process, so no
    # process starts
    import concurrent.futures
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    spec = {"start": np.array([1.0]), "horizon": 0.1, "policy": _COARSE,
            "master": 1}
    pooled = map_path_chunks(_EXITS_BY_01, LINEAR, [np.arange(16)], spec,
                             10 ** 6)
    assert started == [1]
    serial = map_path_chunks(_EXITS_BY_01, LINEAR, [np.arange(16)], spec)
    assert _bits(pooled) == _bits(serial)


def test_parallel_runs_need_a_catalog_field():
    custom = sl.CoefficientField(d=1, m=1, sigma=LINEAR.sigma, b=LINEAR.b,
                                 lipschitz_k=1.0)
    spec = {"start": np.array([1.0]), "horizon": 0.1, "policy": _COARSE,
            "master": 1}
    with pytest.raises(InvalidInputError, match="catalog"):
        map_path_chunks(_EXITS_BY_01, custom, iter_chunks(32, 16), spec, 2)
    with pytest.raises(InvalidInputError, match="catalog"):
        sl.check_escape_probability_bound(custom, [1.0], 2.0, 1, [0.01], 32,
                                          _COARSE, 1, workers=2)
