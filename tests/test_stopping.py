import csv
import io
import math

import numpy as np
import pytest
from scipy import stats

import oracles
import sdelab as sl
from sdelab import InvalidInputError, StepPolicy
from sdelab.engine import PathRealization, path_entropy, sweep_paths
from sdelab.cli import _write_csv
from sdelab.stopping import _escape_increments, escape_csv_rows


def _synthetic_path(states, times):
    """Path with prescribed 1-d states; pair with the alpha=1/2 power-law
    field so level(x) = |x| and the level samples equal the states."""
    states = np.asarray(states, dtype=float).reshape(-1, 1)
    return PathRealization(times=np.asarray(times, dtype=float),
                           states=states,
                           increments=np.zeros((len(times) - 1, 1)),
                           seed=(0,))


LEVEL_FIELD = sl.make_field("power-law-1d", alpha=0.5)


def test_interpolated_crossing_example():
    path = _synthetic_path([4, 3, 2, 1], [0, 1, 2, 3])
    c = oracles.first_hitting_time(path, LEVEL_FIELD, 2.5)
    assert c.time == pytest.approx(1.5)
    assert not c.censored
    assert c.direction == "down"
    assert c.method == "interpolated"
    with pytest.raises(InvalidInputError, match="unknown crossing method"):
        oracles.first_hitting_time(path, LEVEL_FIELD, 2.5, method="grid")


def test_censored_when_never_reached():
    path = _synthetic_path([4, 3, 2, 1], [0, 1, 2, 3])
    c = oracles.first_hitting_time(path, LEVEL_FIELD, 9.0)
    assert c.censored
    assert c.time == 3.0  # path's final time
    assert c.direction == "up"


def test_crossing_at_start_is_time_zero():
    path = _synthetic_path([4, 3, 2], [0, 1, 2])
    c = oracles.first_hitting_time(path, LEVEL_FIELD, 4.0)
    assert c.time == 0.0 and not c.censored


def test_upward_crossing():
    path = _synthetic_path([1, 2, 3], [0, 1, 2])
    c = oracles.first_hitting_time(path, LEVEL_FIELD, 2.5)
    assert c.direction == "up"
    assert c.time == pytest.approx(1.5)


def test_level_at_interpolated_crossing_matches_threshold():
    # invariant: interpolating the level linearly at the reported time
    # reproduces the threshold
    field = sl.make_field("linear-1d")
    path = sl.simulate_path(field, [1.0], 5.0, StepPolicy.fixed(1e-3), 42)
    levels = np.array([sl.level(field, s) for s in path.states])
    for thr in (0.5, 0.25):
        c = oracles.first_hitting_time(path, field, thr)
        if c.censored:
            continue
        interp = np.interp(c.time, path.times, levels)
        assert interp == pytest.approx(thr, rel=1e-9)


def test_gbm_mean_crossing_time_matches_inverse_gaussian():
    # level x^2 hitting e^-2 means log X (drift -1/2) hitting -1: the
    # first-passage law is inverse Gaussian with mean distance/drift = 2
    field = sl.make_field("linear-1d")
    thr = float(np.exp(-2.0))
    res = sweep_paths(field, [1.0], 50.0, StepPolicy.fixed(1e-3),
                      17, np.arange(3000),
                      barriers=(thr,), bridge=True)
    crossed = ~np.isnan(res.cross_times[:, 0])
    assert crossed.mean() > 0.995
    assert np.mean(res.end_times[crossed]) == pytest.approx(2.0, abs=0.15)


def test_sandwich_monotone_paths():
    down_path = _synthetic_path([1.0, 0.8, 0.6, 0.4, 0.2], range(5))
    c = oracles.sandwich_time(down_path, LEVEL_FIELD, 4.0, 2)  # band center 1.0
    assert c.threshold == 0.5 and not c.censored

    up_path = _synthetic_path([1.0, 1.3, 1.7, 2.1], range(4))
    c = oracles.sandwich_time(up_path, LEVEL_FIELD, 4.0, 2)
    assert c.threshold == 2.0 and not c.censored


def test_sandwich_validates_start_band():
    path = _synthetic_path([1.0, 0.9], [0, 1])
    with pytest.raises(InvalidInputError):
        oracles.sandwich_time(path, LEVEL_FIELD, 8.0, 2)  # expects start level 2
    with pytest.raises(InvalidInputError):
        oracles.sandwich_time(path, LEVEL_FIELD, 4.0, 0)


@pytest.mark.parametrize("method", ["interpolated", "bridge-corrected"])
def test_sandwich_equals_min_of_hitting_times(method):
    field = sl.make_field("linear-1d")
    pol = StepPolicy.fixed(2e-3)
    for i in range(40):
        path = sl.simulate_path(field, [1.0], 3.0, pol, path_entropy(23, i))
        sw = oracles.sandwich_time(path, field, 2.0, 1, method=method)
        down = oracles.first_hitting_time(path, field, 0.5, method=method)
        up = oracles.first_hitting_time(path, field, 2.0, method=method)
        best = [c for c in (down, up) if not c.censored]
        if not best:
            assert sw.censored
        else:
            assert sw.time == min(c.time for c in best)


def test_sweep_band_exit_equals_path_scan():
    # the incremental batch detector and the post-hoc path scan are the same
    # computation, bit for bit, with and without the bridge correction
    field = sl.make_field("linear-1d")
    pol = StepPolicy.fixed(1e-3)
    bars = (0.5, 2.0)
    for bridge, method in ((False, "interpolated"), (True, "bridge-corrected")):
        res = sweep_paths(field, [1.0], 2.0, pol, 7, np.arange(40),
                          barriers=bars, bridge=bridge)
        for i in range(40):
            p = sl.simulate_path(field, [1.0], 2.0, pol, path_entropy(7, i))
            sw = oracles.sandwich_time(p, field, 2.0, 1, method=method)
            if sw.censored:
                assert np.isnan(res.cross_times[i]).all()
            else:
                assert res.end_times[i] == sw.time
                assert res.cross_times[i, bars.index(sw.threshold)] == sw.time


def test_pathwise_threshold_ordering():
    # nested thresholds are crossed in order on the interpolated level path
    field = sl.make_field("linear-1d")
    for i in range(20):
        path = sl.simulate_path(field, [1.0], 10.0, StepPolicy.fixed(2e-3),
                                path_entropy(29, i))
        c_half = oracles.first_hitting_time(path, field, 0.5)
        c_quarter = oracles.first_hitting_time(path, field, 0.25)
        if not c_quarter.censored:
            assert not c_half.censored
            assert c_quarter.time >= c_half.time


def test_crossing_distribution_converges_under_refinement():
    # KS distance to a fine-grid reference shrinks as h -> 0
    field = sl.make_field("linear-1d")
    thr = float(np.exp(-0.5))

    def sample(h):
        res = sweep_paths(field, [1.0], 4.0, StepPolicy.fixed(h),
                          (11, int(1 / h)), np.arange(4000),
                          barriers=(thr,))
        return res.end_times[~np.isnan(res.cross_times[:, 0])]

    ref = sample(2.0 ** -10)
    ks = [stats.ks_2samp(sample(2.0 ** -e), ref).statistic for e in (4, 6, 8)]
    assert ks[0] > ks[1] > ks[2]


def test_dyadic_escape_unit_rate_field():
    # sigma = 0, b(x) = -(1.5 x)^(1/3) makes the level fall at exactly unit
    # rate, so the band transit times are the level gaps A / 2^(k+1)
    field = sl.CoefficientField(
        d=1, m=1,
        sigma=lambda X: np.zeros((X.shape[0], 1, 1)),
        b=lambda X: -np.cbrt(1.5 * X),
        name="unit-rate-decay")
    inc, = sl.dyadic_escape_batch(field, [1.0], 4, 5.0,
                                  StepPolicy.fixed(1e-5), 3, 1)
    a = sl.level(field, np.array([1.0]))
    assert a == pytest.approx(1.5 ** (2.0 / 3.0), rel=1e-12)
    expected = [a / 2.0 ** (k + 1) for k in range(4)]
    assert not np.isnan(inc).any()
    assert np.allclose(inc, expected, rtol=1e-3)
    assert np.sum(inc >= 0.01) == sum(e >= 0.01 for e in expected)


def test_dyadic_escape_constant_level_censors_everything():
    field = sl.make_field("constant", sigma0=[[1.0]], b0=[0.0])
    inc = sl.dyadic_escape_batch(field, [0.0], 3, 1.0, StepPolicy.fixed(1e-2),
                                 1, 1)
    assert inc.shape == (1, 3)
    assert np.isnan(inc).all()
    assert np.sum(inc >= 0.1) == 0


def test_dyadic_escape_rejects_zero_set_start():
    field = sl.make_field("linear-1d")
    with pytest.raises(InvalidInputError, match="start point lies in the zero set"):
        sl.dyadic_escape_batch(field, [0.0], 3, 1.0, StepPolicy.fixed(1e-2),
                               1, 1)


def test_dyadic_escape_gbm_increments():
    # each non-censored increment is nonnegative; per-band means match the
    # one-sided passage-time oracle mean ln 2 (log-halving distance over
    # drift 1/2) within Monte Carlo and discretization slack
    field = sl.make_field("linear-1d")
    inc = sl.dyadic_escape_batch(field, [1.0], 4, 50.0,
                                 StepPolicy.fixed(1e-3), 21, 400,
                                 bridge=True)
    cen = np.isnan(inc)
    assert np.all(inc[~cen] >= 0.0)
    assert cen.mean() < 0.02
    for k in range(4):
        live = ~cen[:, k]
        assert np.mean(inc[live, k]) == pytest.approx(np.log(2.0), abs=0.2)


def test_dyadic_escape_stops_at_a_bridge_trigger_of_the_deepest_level():
    # path 160 bridges the deepest level 1/256 at t = 1.0875 before its
    # level passes 1/128 on the interpolant.  The ladder's outer level stops
    # it there, so the shallower passage is backfilled from that trigger,
    # not taken from a crossing after it (the continuity rule of
    # _escape_increments)
    field = sl.make_field("power-law-1d", alpha=0.5)
    pol = StepPolicy.fixed(1e-3)
    inc = sl.dyadic_escape_batch(field, [1.0], 8, 2.0, pol, 0, 161, bridge=True)
    assert inc[160].tolist() == [
        0.5277525829450789, 0.02613530869926728, 0.18061210835565444,
        0.026000000000000023, 0.31099999999999217, 0.006999999999999229,
        0.008999999999999009, 0.0]
    res = sweep_paths(field, [1.0], 2.0, pol, 0, [160], bridge=True,
                      barriers=tuple(2.0 ** -(j + 1) for j in range(8)))
    assert np.isnan(res.cross_times[0, 6]) and res.cross_bridge[0, 7]
    assert res.end_times[0] == res.cross_times[0, 7]


def test_escape_increments_cleaning_rule():
    nan = np.nan
    cross_times = np.array([
        [nan, nan, 0.5, nan],      # a deeper level only: backfilled
        [0.5, 0.25, 0.375, 0.75],  # out of order: running maximum
        [0.25, 0.5, nan, nan],     # censored tail
        [0.0, 0.0, 0.125, 0.5],    # crossed at time 0
        [nan, nan, nan, nan],      # nothing crossed
        [0.25, nan, 0.125, nan],   # backfill below an earlier crossing
    ])
    inc = _escape_increments(cross_times)
    np.testing.assert_array_equal(inc, [
        [0.5, 0.0, 0.0, nan],
        [0.5, 0.0, 0.0, 0.25],
        [0.25, 0.25, nan, nan],
        [0.0, 0.0, 0.125, 0.375],
        [nan, nan, nan, nan],
        [0.25, 0.0, 0.0, nan],
    ])
    assert np.isnan(inc).tolist() == [
        [False, False, False, True], [False] * 4, [False, False, True, True],
        [False] * 4, [True] * 4, [False, False, False, True]]
    assert np.isnan(cross_times).sum() == 11  # the input is left as it was


def test_escape_csv_rows():
    field = sl.make_field("constant", sigma0=[[1.0]], b0=[0.0])
    inc = sl.dyadic_escape_batch(field, [0.0], 2, 1.0, StepPolicy.fixed(1e-2),
                                 1, 2)
    rows = list(escape_csv_rows(inc, 0.1))
    assert len(rows) == 4
    assert rows[0] == {"path_id": 0, "k": 0, "increment": "",
                       "censored": True, "ge_t0": False}
    assert {r["path_id"] for r in rows} == {0, 1}


def test_escape_csv_rows_stream_the_dict_rows():
    # censored tails, zeros, increments tied with t0 and 17-digit values
    t0 = 0.1
    nan = np.nan
    inc = np.array([[0.1, 0.30000000000000004, nan, nan],
                    [0.0, 0.0, 0.1, 2.0000000000000004e-05],
                    [nan, nan, nan, nan],
                    [0.09999999999999999, 0.1, 1.2345678901234567, nan]])
    # the rows as a list of dicts, one per (path, band)
    listed = []
    for pid, row in enumerate(inc.tolist()):
        for k, v in enumerate(row):
            cen = math.isnan(v)
            listed.append({"path_id": pid, "k": k,
                           "increment": "" if cen else v,
                           "censored": cen, "ge_t0": v >= t0})
    rows = escape_csv_rows(inc, t0)
    assert len(rows) == inc.size == 16
    assert list(rows) == listed
    assert list(rows) == listed  # a second pass gives the same rows

    want = io.StringIO(newline="")
    writer = csv.DictWriter(want, fieldnames=list(listed[0]))
    writer.writeheader()
    writer.writerows(listed)
    got = io.StringIO(newline="")
    _write_csv(got, rows)
    assert got.getvalue() == want.getvalue()
    assert "0.30000000000000004,False,True" in got.getvalue()
    assert "3,0,0.09999999999999999,False,False" in got.getvalue()
