"""Metamorphic relations of the sweep, bit for bit.

Chen, Cheung & Yiu (1998): where no oracle gives a sweep's output, a change
of input with a known effect on the output does.  On the linear fields the
Euler-Maruyama map commutes with x -> -x and with x -> 2x in floating
point, and the level sigma^2 + b^2 is even in x and scales by 4.  So on the
same noise, reflecting the start reflects every state and leaves every time
and level as it was, and doubling the start with the barrier levels times 4
doubles every state, multiplies every level by 4 and leaves every time.
The bridge's uniforms are seeded by the barrier level's bits, so the scaling
relation holds with the bridge off.  On power-law-1d with alpha = 2, where
sigma(x) = x^2, doubling the start and quartering the step, the horizon and
every time doubles every state and halves every increment.  The zero-set
tolerance scales with a start level of at least 1, so from there the
estimators' counts are unchanged by the scaling too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdelab as sl
from sdelab import StepPolicy
from sdelab.engine import sweep_paths

N_PATHS = 2000
CAPTURE_TIMES = (0.1, 0.5)
# (field, start): the level at the start is 1 on linear-1d and 10.5 on
# diag-linear
CASES = {
    "linear-1d": (sl.make_field("linear-1d"), [1.0]),
    "diag-linear-3": (sl.make_field("diag-linear", d=3), [1.0, -0.5, 2.0]),
}


def _sweep(field, start, level, *, scale=1.0, bridge=False, inner=False):
    # one down barrier at half the start's level and one up barrier at twice
    # it, both times `scale`; with `inner`, also an inner down barrier at
    # three quarters of it, whose crossing is recorded and does not stop
    # the path
    barriers = (scale * level / 2, scale * level * 2)
    if inner:
        barriers += (scale * level * 0.75,)
    return sweep_paths(field, start, 1.0, StepPolicy.fixed(1e-2), 11,
                       np.arange(N_PATHS), barriers=barriers,
                       capture_times=CAPTURE_TIMES, bridge=bridge,
                       track_noise_sum=True)


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


def _assert_same_times(res, ref):
    for name in ("end_times", "cross_times", "cross_bridge", "absorbed",
                 "blown_up", "noise_sum"):
        assert _same(getattr(res, name), getattr(ref, name)), name


def _assert_nontrivial(res, bridge):
    # every barrier is crossed, and with the bridge some crossing is its
    crossed = ~np.isnan(res.cross_times)
    assert crossed.any(axis=0).all()
    assert crossed.sum() >= N_PATHS // 4
    assert res.cross_bridge.any() == bridge


# 'first': both barriers are outer, so a path stops at the first one it
# crosses; 'all': an inner barrier is crossed on the way to the outer ones
STOPS = pytest.mark.parametrize("inner", [False, True], ids=["first", "all"])


@STOPS
@pytest.mark.parametrize("case, bridge", [("linear-1d", False),
                                          ("linear-1d", True),
                                          ("diag-linear-3", False)])
def test_reflection_reflects_states_and_keeps_times(case, bridge, inner):
    field, start = CASES[case]
    level = sl.level(field, start)
    ref = _sweep(field, start, level, bridge=bridge, inner=inner)
    res = _sweep(field, [-x for x in start], level, bridge=bridge, inner=inner)
    _assert_nontrivial(ref, bridge)
    _assert_same_times(res, ref)
    assert _same(res.min_levels, ref.min_levels)
    assert _same(res.end_states, -ref.end_states)
    assert _same(res.capture_state, -ref.capture_state)


@STOPS
@pytest.mark.parametrize("case", sorted(CASES))
def test_doubling_doubles_states_and_quadruples_levels(case, inner):
    field, start = CASES[case]
    level = sl.level(field, start)
    ref = _sweep(field, start, level, inner=inner)
    res = _sweep(field, [2 * x for x in start], level, scale=4.0, inner=inner)
    _assert_nontrivial(ref, False)
    _assert_same_times(res, ref)
    assert _same(res.min_levels, 4 * ref.min_levels)
    assert _same(res.end_states, 2 * ref.end_states)
    assert _same(res.capture_state, 2 * ref.capture_state)


# ---------------------------------------------------------------------------
# The same relations on drawn sweeps
# ---------------------------------------------------------------------------

@st.composite
def _drawn_sweeps(draw):
    """(field, start, sweep keyword arguments): a start whose level is at
    least 1, one to three barriers at drawn factors of that level and
    capture times, which may repeat."""
    field = CASES[draw(st.sampled_from(sorted(CASES)))][0]
    start = [draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 4.0))
             for _ in range(field.d)]
    level = sl.level(field, start)
    barriers = tuple(
        level / factor if below else level * factor
        for below, factor in draw(st.lists(
            st.tuples(st.booleans(), st.floats(1.1, 8.0)),
            min_size=1, max_size=3)))
    kwargs = {"barriers": barriers,
              "capture_times": draw(st.lists(st.sampled_from(
                  [0.0, 0.05, 0.1, 0.3, 0.5]), max_size=3))}
    return field, start, kwargs


def _drawn_sweep(field, start, **kwargs):
    return sweep_paths(field, start, 0.5, StepPolicy.fixed(1e-2), 7,
                       np.arange(256), track_noise_sum=True, **kwargs)


@settings(max_examples=25, deadline=None)
@given(sweep=_drawn_sweeps(), bridge=st.booleans())
def test_reflection_on_drawn_sweeps(sweep, bridge):
    field, start, kwargs = sweep
    bridge = bridge and field.d == 1
    ref = _drawn_sweep(field, start, bridge=bridge, **kwargs)
    res = _drawn_sweep(field, [-x for x in start], bridge=bridge, **kwargs)
    _assert_same_times(res, ref)
    assert _same(res.min_levels, ref.min_levels)
    assert _same(res.end_states, -ref.end_states)
    assert _same(res.capture_state, -ref.capture_state)


@settings(max_examples=25, deadline=None)
@given(sweep=_drawn_sweeps(), j=st.integers(1, 3))
def test_scaling_by_a_power_of_two_on_drawn_sweeps(sweep, j):
    field, start, kwargs = sweep
    ref = _drawn_sweep(field, start, **kwargs)
    scaled = tuple(4.0 ** j * level for level in kwargs["barriers"])
    res = _drawn_sweep(field, [2.0 ** j * x for x in start],
                       **{**kwargs, "barriers": scaled})
    _assert_same_times(res, ref)
    assert _same(res.min_levels, 4.0 ** j * ref.min_levels)
    assert _same(res.end_states, 2.0 ** j * ref.end_states)
    assert _same(res.capture_state, 2.0 ** j * ref.capture_state)


# ---------------------------------------------------------------------------
# Space and time: x -> 2x with t -> t/4 when sigma(x) = x^2
# ---------------------------------------------------------------------------

def test_space_time_scaling_of_the_square_law():
    field = sl.make_field("power-law-1d", alpha=2.0)
    level = sl.level(field, [0.5])

    def sweep(start, h, horizon, level_scale, time_scale):
        barriers = (level_scale * level / 2, level_scale * level * 2)
        return sweep_paths(field, [start], horizon, StepPolicy.fixed(h), 11,
                           np.arange(N_PATHS), barriers=barriers,
                           capture_times=[time_scale * t
                                          for t in CAPTURE_TIMES],
                           track_noise_sum=True)

    ref = sweep(0.5, 4e-2, 1.0, 1.0, 1.0)
    res = sweep(1.0, 1e-2, 0.25, 16.0, 0.25)
    _assert_nontrivial(ref, False)
    for name in ("absorbed", "blown_up", "cross_bridge"):
        assert _same(getattr(res, name), getattr(ref, name)), name
    assert _same(res.end_times, ref.end_times / 4)
    assert _same(res.cross_times, ref.cross_times / 4)
    assert _same(res.noise_sum, ref.noise_sum / 2)
    assert _same(res.min_levels, 16 * ref.min_levels)
    assert _same(res.end_states, 2 * ref.end_states)
    assert _same(res.capture_state, 2 * ref.capture_state)


# ---------------------------------------------------------------------------
# One layer up: the estimators' counts
# ---------------------------------------------------------------------------

def test_doubling_keeps_the_estimators_counts():
    # start level 4, so the zero-set tolerance scales with the level
    field = sl.make_field("linear-1d")
    policy = StepPolicy.fixed(1e-2)
    t_grid = [0.03, 0.1, 0.3]
    ref = sl.check_escape_probability_bound(field, [2.0], 8.0, 1, t_grid,
                                            N_PATHS, policy, 5, bridge=False)
    res = sl.check_escape_probability_bound(field, [4.0], 32.0, 1, t_grid,
                                            N_PATHS, policy, 5, bridge=False)
    assert [r.lhs_estimate for r in res] == [r.lhs_estimate for r in ref]
    assert 0 < ref[0].lhs_estimate.point < ref[-1].lhs_estimate.point < 1
    ref = sl.estimate_zero_hitting(field, [2.0], 1.0, [2.0, 1.0, 0.5],
                                   N_PATHS, policy, 5)
    res = sl.estimate_zero_hitting(field, [4.0], 1.0, [8.0, 4.0, 2.0],
                                   N_PATHS, policy, 5)
    assert res == ref
    assert 0 < ref[-1].point < ref[0].point < 1
