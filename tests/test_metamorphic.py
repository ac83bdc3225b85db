"""Metamorphic relations of the sweep, bit for bit.

Chen, Cheung & Yiu (1998): where no oracle gives a sweep's output, a change
of input with a known effect on the output does.  On the linear fields the
Euler-Maruyama map commutes with x -> -x and with x -> 2x in floating
point, and the level sigma^2 + b^2 is even in x and scales by 4.  So on the
same noise, reflecting the start reflects every state and leaves every time
and level as it was, and doubling the start with the barrier levels times 4
doubles every state, multiplies every level by 4 and leaves every time.
The bridge's uniforms are seeded by the barrier level's bits, so the scaling
relation holds with the bridge off.
"""

import numpy as np
import pytest

import sdelab as sl
from sdelab import StepPolicy
from sdelab.engine import Barrier, sweep_paths

N_PATHS = 2000
CAPTURE_TIMES = (0.1, 0.5)
# (field, start): the level at the start is 1 on linear-1d and 10.5 on
# diag-linear
CASES = {
    "linear-1d": (sl.make_field("linear-1d"), [1.0]),
    "diag-linear-3": (sl.make_field("diag-linear", d=3), [1.0, -0.5, 2.0]),
}


def _sweep(field, start, level, *, scale=1.0, stop_mode="first",
           bridge=False):
    # one down barrier at half the start's level and one up barrier at twice
    # it, both times `scale`
    barriers = (Barrier(scale * level / 2, "down"),
                Barrier(scale * level * 2, "up"))
    return sweep_paths(field, start, 1.0, StepPolicy.fixed(1e-2), 11,
                       np.arange(N_PATHS), barriers=barriers,
                       stop_mode=stop_mode, capture_times=CAPTURE_TIMES,
                       bridge=bridge, track_noise_sum=True)


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


def _assert_same_times(res, ref):
    for name in ("end_times", "cross_times", "cross_bridge", "first_barrier",
                 "absorbed", "blown_up", "noise_sum"):
        assert _same(getattr(res, name), getattr(ref, name)), name


def _assert_nontrivial(res, bridge):
    # both barriers are crossed, and with the bridge some crossing is its
    crossed = ~np.isnan(res.cross_times)
    assert crossed.any(axis=0).all()
    assert crossed.sum() >= N_PATHS // 4
    assert res.cross_bridge.any() == bridge


@pytest.mark.parametrize("stop_mode", ["first", "all"])
@pytest.mark.parametrize("case, bridge", [("linear-1d", False),
                                          ("linear-1d", True),
                                          ("diag-linear-3", False)])
def test_reflection_reflects_states_and_keeps_times(case, bridge, stop_mode):
    field, start = CASES[case]
    level = sl.level(field, start)
    ref = _sweep(field, start, level, stop_mode=stop_mode, bridge=bridge)
    res = _sweep(field, [-x for x in start], level, stop_mode=stop_mode,
                 bridge=bridge)
    _assert_nontrivial(ref, bridge)
    _assert_same_times(res, ref)
    assert _same(res.min_levels, ref.min_levels)
    assert _same(res.end_states, -ref.end_states)
    assert _same(res.capture_state, -ref.capture_state)


@pytest.mark.parametrize("stop_mode", ["first", "all"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_doubling_doubles_states_and_quadruples_levels(case, stop_mode):
    field, start = CASES[case]
    level = sl.level(field, start)
    ref = _sweep(field, start, level, stop_mode=stop_mode)
    res = _sweep(field, [2 * x for x in start], level, scale=4.0,
                 stop_mode=stop_mode)
    _assert_nontrivial(ref, False)
    _assert_same_times(res, ref)
    assert _same(res.min_levels, 4 * ref.min_levels)
    assert _same(res.end_states, 2 * ref.end_states)
    assert _same(res.capture_state, 2 * ref.capture_state)
