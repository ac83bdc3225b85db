import gc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import first_hitting_time
import sdelab as sl
from sdelab import (InvalidInputError, InvariantError, NumericalBlowupError,
                    StepPolicy)
from sdelab import _pcg64, engine
from sdelab import coefficients as cf
from sdelab.engine import (SweepResult, _BlockStreams, bridge_candidates,
                           bridge_cross_probability, path_entropy, sweep_paths)


def test_em_step_examples():
    drift = sl.make_field("constant", sigma0=[[0.0]], b0=[2.0])
    x = sl.em_step(drift, [1.0], 0.5, [0.0])
    assert x[0] == 2.0  # x + c h

    lin = sl.make_field("linear-1d")
    assert sl.em_step(lin, [1.0], 0.01, [0.1])[0] == pytest.approx(1.1)
    assert sl.em_step(lin, [3.0], 0.2, [0.0])[0] == 3.0  # no noise, no drift


def test_em_step_validation():
    lin = sl.make_field("linear-1d")
    with pytest.raises(InvalidInputError):
        sl.em_step(lin, [1.0], -0.1, [0.0])
    with pytest.raises(InvalidInputError):
        sl.em_step(lin, [1.0], 0.1, [0.0, 0.0])
    with pytest.raises(InvalidInputError):
        sl.em_step(lin, [1.0], 0.1, [np.nan])
    with pytest.raises(InvalidInputError):
        sl.em_step(lin, [1.0, 2.0], 0.1, [0.0])


def test_step_policy_validation_and_sizes():
    with pytest.raises(InvalidInputError):
        StepPolicy(kind="bogus")
    with pytest.raises(InvalidInputError):
        StepPolicy(kind="fixed", h_max=1e-4, h_min=1e-3)
    pol = StepPolicy(h_max=1e-2, h_min=1e-5, level_fraction=0.1)
    levels = np.array([0.0, 1e-3, 1.0, 100.0])
    h = pol.step_sizes(levels)
    raw = 0.1 * levels / (1 + levels)
    assert np.allclose(h, np.clip(raw, 1e-5, 1e-2))
    assert np.all(StepPolicy.fixed(0.5).step_sizes(levels) == 0.5)


def test_adaptive_step_sizes_equal_np_clip_bit_for_bit():
    # step_sizes clamps with minimum(maximum(.)), which must agree with
    # np.clip on every level, at both edges and on non-finite ones: inf
    # makes raw inf / inf = NaN
    frac = 0.5
    at_min = 2.0 ** -20
    h_min = frac * at_min / (1.0 + at_min)
    pol = StepPolicy(h_max=0.25, h_min=h_min, level_fraction=frac)
    # raw steps exactly h_min (level 2^-20) and exactly h_max (level 1)
    levels = np.array([0.0, 5e-324, 1e-300, at_min, 1.0, 1e300, np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        raw = frac * levels / (1.0 + levels)
        h = pol.step_sizes(levels)
    assert raw[3] == h_min and raw[4] == 0.25
    ref = np.clip(raw, h_min, 0.25)
    assert np.array_equal(h.view(np.uint64), ref.view(np.uint64))
    assert np.isnan(h[-2:]).all()


def test_pure_drift_path_hits_exact_grid():
    field = sl.make_field("constant", sigma0=[[0.0]], b0=[1.0])
    path = sl.simulate_path(field, [0.0], 1.0, StepPolicy.fixed(0.25), 1)
    assert np.array_equal(path.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(path.states.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_drift_only_matches_euler_ode():
    field = sl.make_field("decay-1d", rate=2.0)
    h = 2.0 ** -6
    path = sl.simulate_path(field, [1.0], 1.0, StepPolicy.fixed(h), 3)
    x = 1.0
    for state in path.states[1:, 0]:
        x = x + (-2.0 * x) * h
        assert state == x


def test_reproducibility_bit_for_bit():
    field = sl.make_field("linear-1d")
    pol = StepPolicy(h_max=1e-2, h_min=1e-4, level_fraction=0.1)
    a = sl.simulate_path(field, [1.0], 1.0, pol, 12345)
    b = sl.simulate_path(field, [1.0], 1.0, pol, 12345)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.increments, b.increments)
    c = sl.simulate_path(field, [1.0], 1.0, pol, 12346)
    assert not np.array_equal(a.states, c.states)


def test_increments_replay_states_exactly():
    # replaying the recorded increments through em_step reproduces the states
    for field in (sl.make_field("linear-1d"), sl.make_field("diag-linear"),
                  sl.make_field("diag-linear", d=3)):
        start = np.full(field.d, 1.0)
        path = sl.simulate_path(field, start, 0.5, StepPolicy.fixed(2.0 ** -6),
                                (9, 4))
        dts = np.diff(path.times)
        for i in range(len(dts)):
            nxt = sl.em_step(field, path.states[i], dts[i],
                             path.increments[i])
            assert np.array_equal(nxt, path.states[i + 1])


def test_increment_variance_matches_step():
    field = sl.make_field("constant", sigma0=[[1.0]], b0=[0.0])
    h = 0.01
    incs = []
    for i in range(50):
        p = sl.simulate_path(field, [0.0], 1.0, StepPolicy.fixed(h),
                             path_entropy(77, i))
        incs.append(p.increments[:, 0])
    incs = np.concatenate(incs)
    # chi-square bounds on the pooled variance at the 1% level
    stat = np.sum(incs ** 2) / h
    lo, hi = stats.chi2.ppf([0.005, 0.995], incs.size)
    assert lo < stat < hi


def test_terminal_law_constant_field():
    # X_T - x0 is exactly Gaussian with variance T for constant sigma
    field = sl.make_field("constant", sigma0=[[1.0]], b0=[0.0])
    res = sweep_paths(field, [0.0], 1.0, StepPolicy.fixed(0.01),
                      3, np.arange(10000))
    term = res.end_states[:, 0]
    stat = np.sum(term ** 2)  # ~ chi2 with 10000 dof
    lo, hi = stats.chi2.ppf([0.005, 0.995], term.size)
    assert lo < stat < hi


def test_absorption_freezes_path():
    field = sl.make_field("decay-1d", rate=1.0)
    path = sl.simulate_path(field, [1.0], 40.0, StepPolicy.fixed(1e-3), 7)
    assert path.absorbed
    assert path.times[-1] < 40.0
    final_level = sl.level(field, path.states[-1])
    assert final_level <= 1e-12 * max(1.0, sl.level(field, [1.0]))


def test_start_with_non_finite_level_is_rejected():
    # 1e200 is finite but its level overflows; absorbing such a path at
    # step 0 would report a zero-set hit that never happened
    field = sl.make_field("linear-1d")
    with pytest.raises(InvalidInputError, match="not finite"):
        sl.simulate_path(field, [1e200], 1.0, StepPolicy.fixed(1e-2), 1)


def test_blowup_raises_with_context():
    field = sl.make_field("constant", sigma0=[[0.0]], b0=[1e16])
    with pytest.raises(NumericalBlowupError) as exc:
        sl.simulate_path(field, [0.0], 1.0, StepPolicy.fixed(1.0), 5)
    assert exc.value.step_index == 0
    # the seed (5,) is path 5 under the empty master: the error names the
    # path whose noise it used
    assert exc.value.path_index == 5
    assert exc.value.seed == (5,)


def test_blowup_in_a_later_chunk_replays_from_its_seed():
    # sigma 2e11 with h = 1 leaves the trusted range (1e12) on some paths
    # and at different steps, so the first blowup of a chunk that starts at
    # path 8192 is some later path of it; its error names that path, and its
    # seed replays the blowup on its own
    field = sl.make_field("constant", sigma0=[[2e11]], b0=[0.0])
    pol = StepPolicy.fixed(1.0)
    indices = np.arange(8192, 8256)
    res = sweep_paths(field, [0.0], 30.0, pol, 4, indices, on_blowup="retire")
    assert 0 < res.blown_up.sum() < indices.size
    with pytest.raises(NumericalBlowupError) as exc:
        sweep_paths(field, [0.0], 30.0, pol, 4, indices, on_blowup="raise")
    err = exc.value
    assert err.step_index > 0
    assert err.path_index in indices[res.blown_up]
    assert err.seed == path_entropy(4, err.path_index)
    with pytest.raises(NumericalBlowupError) as replay:
        sl.simulate_path(field, [0.0], 30.0, pol, err.seed)
    assert replay.value.step_index == err.step_index
    assert replay.value.path_index == err.path_index
    assert replay.value.seed == err.seed


@pytest.mark.parametrize("mode, bridge", [("first", False), ("all", False),
                                          ("all", True)])
def test_blown_up_path_ends_at_the_step_before_its_blowup(mode, bridge):
    # power-law-1d with alpha = 3 and h = 1/8 leaves the trusted range on
    # 11-14 of 64 paths by t = 4.  The blowup step takes |x| past 1e12, so
    # its interpolant crosses the up barrier at |x| = 1e11 too; the sweep
    # must not see that crossing.  A blown-up row ends where its recorded
    # grid ends, the step before the blowup, in every field of the row.
    # (With the bridge, every path bridges the down barrier before it can
    # blow up, so 'first' has no blowup to check.)
    field = sl.make_field("power-law-1d", alpha=3.0)
    h, horizon, master, caps = 2.0 ** -3, 4.0, 1, (0.5, 2.0, 4.0)
    pol = StepPolicy.fixed(h)
    barriers = (1e-3, 1e66)
    kw = dict(barriers=barriers, stop_mode=mode, capture_times=caps,
              bridge=bridge, on_blowup="retire", track_noise_sum=True)
    res = sweep_paths(field, [1.0], horizon, pol, master, np.arange(64), **kw)
    blown = np.flatnonzero(res.blown_up)
    crossed = ~np.isnan(res.cross_times).all(axis=1)
    assert blown.size and crossed.any() and (res.end_times == horizon).any()
    ends = res.end_times[blown]
    assert any(c < ends.max() for c in caps) and any(c >= ends.min() for c in caps)
    for i in blown:
        rec = sweep_paths(field, [1.0], horizon, pol, master, [i], record=True, **kw)
        path = rec.trajectory
        for f in fields(SweepResult):
            if f.name != "trajectory":
                assert np.array_equal(getattr(res, f.name)[i],
                                      getattr(rec, f.name)[0], equal_nan=True), f.name
        # the grid holds no zero step, and the next step from its last
        # point is the one that blew up
        assert np.all(np.diff(path.times) > 0)
        k = path.increments.shape[0]
        normals = np.random.default_rng(path_entropy(master, i)).standard_normal(
            (k + 1, field.m))
        assert not abs(sl.em_step(field, path.states[-1], h,
                                  normals[k] * np.sqrt(h))[0]) <= engine.BLOWUP_LIMIT
        assert res.end_times[i] == path.times[-1]
        assert np.array_equal(res.end_states[i], path.states[-1])
        assert res.min_levels[i] == min(cf.level(field, x) for x in path.states)
        for j, c in enumerate(caps):
            if c >= path.times[-1]:
                want = path.states[-1]
            else:
                s = np.searchsorted(path.times, c, side="right") - 1
                x0, x1 = path.states[s], path.states[s + 1]
                want = x0 + (x1 - x0) * ((c - path.times[s])
                                         / (path.times[s + 1] - path.times[s]))
            assert np.array_equal(res.capture_state[i, j], want), (i, c)
        noise = np.zeros(field.m)
        for dw in path.increments:
            noise = noise + dw
        assert np.array_equal(res.noise_sum[i], noise)
        # crossings are those of the recorded grid alone
        method = "bridge-corrected" if bridge else "interpolated"
        for j, level in enumerate(barriers):
            ref = first_hitting_time(path, field, level, method)
            assert np.isnan(res.cross_times[i, j]) == ref.censored
            if not ref.censored:
                assert res.cross_times[i, j] == ref.time
            assert res.cross_bridge[i, j] == (
                not ref.censored and ref.method == "bridge-corrected")


@pytest.mark.parametrize("seed, indices, match", [
    (-1, None, "seed"), (1.5, None, "seed"), (True, None, "seed"),
    ((1, -2), None, "seed"), ((3, 2.0), None, "seed"), ("7", None, "seed"),
    ((), None, "path index"),
    (-1, [0], "seed"), (1.5, [0], "seed"), ((True, 2), [0], "seed"),
    (3, [-1], "indices"), (3, [0.5], "indices"), (3, [[0]], "indices"),
])
def test_bad_seeds_are_typed_errors(seed, indices, match):
    # simulate_path(seed) and sweep_paths(master, indices) reject what numpy
    # would reject or silently truncate, naming the seed or the indices
    field = sl.make_field("linear-1d")
    pol = StepPolicy.fixed(1e-2)
    with pytest.raises(InvalidInputError, match=match):
        if indices is None:
            sl.simulate_path(field, [1.0], 1.0, pol, seed)
        else:
            sweep_paths(field, [1.0], 1.0, pol, seed, indices)


def test_sweep_split_invariance():
    # simulating [0..n) in one call or in two produces identical results
    field = sl.make_field("diag-linear")
    pol = StepPolicy.fixed(1e-3)
    indices = np.arange(40)
    whole = sweep_paths(field, [1.0, 1.0], 0.5, pol, 31, indices)
    left = sweep_paths(field, [1.0, 1.0], 0.5, pol, 31, indices[:17])
    right = sweep_paths(field, [1.0, 1.0], 0.5, pol, 31, indices[17:])
    assert np.array_equal(whole.end_states,
                          np.vstack([left.end_states, right.end_states]))
    assert np.array_equal(whole.min_levels,
                          np.concatenate([left.min_levels, right.min_levels]))


# (field, start, policy, bridge) of the sweep properties below.  With
# alpha = 3/2 the power law's barrier positions are ell^(1/3), and sqrt(ell)
# lies farther from the start |x| = 1 on both sides, so a bridge prefilter
# that used sqrt would miss pairs.
_SWEEP_CASES = {
    "linear-1d": (sl.make_field("linear-1d"), [1.0], StepPolicy.fixed(1e-2), False),
    "linear-1d-bridge": (sl.make_field("linear-1d"), [1.0],
                         StepPolicy.fixed(1e-2), True),
    "power-law-1d-bridge": (sl.make_field("power-law-1d", alpha=1.5), [1.0],
                            StepPolicy.fixed(1e-2), True),
    "diag-linear-adaptive": (sl.make_field("diag-linear"), [1.0, 1.0],
                             StepPolicy(h_max=1e-2, h_min=1e-4,
                                        level_fraction=0.05), False),
}

# barrier levels as multiples of the start level, each strictly below or
# above it
_barrier_multiples = st.lists(
    st.floats(0.1, 3.0).filter(lambda f: abs(f - 1.0) > 0.02),
    min_size=1, max_size=8, unique=True)


def _sweep_case(case, multiples):
    field, start, pol, bridge = _SWEEP_CASES[case]
    lev0 = cf.level(field, np.asarray(start, dtype=float))
    barriers = tuple(lev0 * f for f in multiples)
    return field, start, pol, bridge, barriers


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(sorted(_SWEEP_CASES)), multiples=_barrier_multiples,
       mode=st.sampled_from(["first", "all"]), master=st.integers(0, 2**32 - 1))
def test_sweep_equals_path_scan_property(case, multiples, mode, master):
    # every barrier's sweep crossing is the post-hoc scan of the recorded
    # path, bit for bit, and with 'first' the path ends at the earliest
    # one; a barrier the sweep leaves uncrossed is censored in the scan, or
    # with 'first' crossed after the path stopped.  power-law-1d
    # (alpha 3/2) leaves the trusted range on about 0.07 % of paths by
    # t = 1, before or after the sweep stops them, so both sides retire a
    # blown-up path and the path is recorded up to the step before its
    # blowup
    field, start, pol, bridge, barriers = _sweep_case(case, multiples)
    method = "bridge-corrected" if bridge else "interpolated"
    res = sweep_paths(field, start, 1.0, pol, master, np.arange(3),
                      barriers=barriers, stop_mode=mode, bridge=bridge,
                      on_blowup="retire")
    for i in range(3):
        rec = sweep_paths(field, start, 1.0, pol, master, [i], record=True,
                          on_blowup="retire")
        if res.blown_up[i]:
            assert rec.blown_up[0] and res.end_times[i] == rec.end_times[0]
        path = rec.trajectory
        ref = [first_hitting_time(path, field, level, method)
               for level in barriers]
        hits = sorted((r.time, level, j) for j, (r, level)
                      in enumerate(zip(ref, barriers)) if not r.censored)
        for j, r in enumerate(ref):
            if np.isnan(res.cross_times[i, j]):
                assert r.censored or mode == "first" and r.time > hits[0][0]
            else:
                assert not r.censored and res.cross_times[i, j] == r.time
        if mode == "first" and hits:
            assert res.end_times[i] == hits[0][0]
        if mode == "all" and len(hits) == len(barriers):
            # the path stops at its last crossing (a tie goes to the lower
            # threshold), in that state: the recorded step interpolated at
            # the end time, or the barrier's position for a bridge trigger
            t_end = hits[-1][0]
            last = min((lv, j) for t, lv, j in hits if t == t_end)[1]
            assert res.end_times[i] == t_end
            k = np.searchsorted(path.times, t_end) - 1
            x0, x1 = path.states[k], path.states[k + 1]
            frac = (t_end - path.times[k]) / (path.times[k + 1] - path.times[k])
            want = x0 + (x1 - x0) * frac
            if ref[last].method == "bridge-corrected":
                sgn = np.sign(x0[0]) or 1.0
                want = [sgn * field.abs_level_inverse(barriers[last])]
            assert np.array_equal(res.end_states[i], want)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(_SWEEP_CASES)), multiples=_barrier_multiples,
       mode=st.sampled_from(["first", "all"]), master=st.integers(0, 2**32 - 1),
       split=st.integers(0, 6),
       retire=st.none() | st.floats(0.05, 0.5))
def test_sweep_rows_do_not_depend_on_path_order(case, multiples, mode, master,
                                                split, retire):
    # a path's row is the same whatever batch it is swept in and wherever
    # it sits in that batch
    field, start, pol, bridge, barriers = _sweep_case(case, multiples)
    lev0 = cf.level(field, np.asarray(start, dtype=float))
    indices = np.arange(6)

    def sweep(rows):
        return sweep_paths(field, start, 1.0, pol, master, rows, barriers=barriers,
                           stop_mode=mode, bridge=bridge,
                           capture_times=(0.3, 1.0, 0.05),
                           min_level_retire=None if retire is None else retire * lev0,
                           on_blowup="retire", track_noise_sum=True)

    whole, left, right, rev = (sweep(indices), sweep(indices[:split]),
                               sweep(indices[split:]), sweep(indices[::-1]))
    for f in fields(SweepResult):
        if f.name == "trajectory":
            continue
        a = getattr(whole, f.name)
        joined = np.concatenate([getattr(left, f.name), getattr(right, f.name)])
        assert np.array_equal(a, joined, equal_nan=True), f.name
        assert np.array_equal(a, getattr(rev, f.name)[::-1], equal_nan=True), f.name


def test_bridge_prefilter_keeps_every_pair_above_2_pow_minus_53():
    # every uncrossed (step, barrier) pair whose bridge probability exceeds
    # 2^-53 belongs to a candidate step, whatever the other uncrossed
    # barriers: random steps, steps on either side of the 53 ln 2 cutoff,
    # sigma = 0, endpoints exactly on a barrier, no barrier on a side
    rng = np.random.default_rng(11)
    n, k = 40000, 3
    down_x = np.sort(rng.uniform(0.2, 1.0, (n, k)), axis=1)
    up_x = np.sort(rng.uniform(1.0, 3.0, (n, k)), axis=1)
    down_unc = rng.random((n, k)) < 0.6
    up_unc = rng.random((n, k)) < 0.6
    down_unc[: n // 10] = False          # no down barrier left
    up_unc[n // 10: n // 5] = False      # no up barrier left
    x_dn = np.where(down_unc, down_x, -np.inf).max(axis=1)
    x_up = np.where(up_unc, up_x, np.inf).min(axis=1)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    x0 = rng.uniform(0.1, 3.2, n)
    sigma = np.where(rng.random(n) < 0.05, 0.0, rng.uniform(0.01, 2.0, n))
    h = 10.0 ** rng.uniform(-6, -1, n)
    x1 = x0 + rng.normal(0, 1, n) * np.abs(sigma) * np.sqrt(h)
    # an exponent 2 gap0 gap1 / (sigma^2 h) within 1e-9 of 53 ln 2 for the
    # nearest barrier on one side
    edge = np.arange(n // 5, n // 2)
    use_dn = (edge % 2 == 0) & np.isfinite(x_dn[edge])
    use_up = (edge % 2 == 1) & np.isfinite(x_up[edge])
    bx = np.where(use_dn, x_dn[edge], x_up[edge])
    ok = (use_dn | use_up) & (sigma[edge] > 0)
    edge, bx, use_dn = edge[ok], bx[ok], use_dn[ok]
    side = np.where(use_dn, 1.0, -1.0)
    gap0 = rng.uniform(1e-4, 0.3, edge.size) * np.sqrt(h[edge])
    z = 53 * np.log(2) + rng.uniform(-1e-9, 1e-9, edge.size)
    gap1 = z * sigma[edge] ** 2 * h[edge] / (2 * gap0)
    x0[edge] = bx + side * gap0
    x1[edge] = bx + side * gap1
    # endpoints exactly on a barrier
    on = np.arange(n // 2, n // 2 + n // 20)
    x1[on] = np.where(np.isfinite(x_dn[on]), x_dn[on], down_x[on, -1])
    on = np.arange(n // 2 + n // 20, n // 2 + n // 10)
    x0[on] = np.where(np.isfinite(x_up[on]), x_up[on], up_x[on, 0])
    x0, x1 = sign * x0, sign * x1

    def above(xs, unc, down):
        p = np.stack([bridge_cross_probability(x0, x1, sigma, h, xs[:, j], down)
                      for j in range(k)], axis=1)
        return (unc & (p > 2.0 ** -53)).any(axis=1)

    need = above(down_x, down_unc, True) | above(up_x, up_unc, False)
    cand = bridge_candidates(x0, x1, sigma, h, x_dn, x_up)
    assert cand[need].all()
    # the cutoff cases fall on both sides of 2^-53, and the prefilter does
    # drop steps
    assert need[edge].any() and not need[edge].all()
    assert not cand.all()


def test_bridge_ignores_a_barrier_at_infinity():
    # a power-law field with a small alpha puts a band level's |x| at inf:
    # no step crosses it, on either side, and no step is a candidate for it
    x0 = np.array([0.5, -1.0, 3.0])
    x1 = np.array([0.7, -0.9, 2.0])
    sigma = np.array([1.0, 2.0, 0.0])
    h = np.full(3, 1e-2)
    for down in (True, False):
        p = bridge_cross_probability(x0, x1, sigma, h, np.inf, down)
        assert np.array_equal(p, np.zeros(3))
    assert not bridge_candidates(x0, x1, sigma, h, -np.inf, np.inf).any()


def test_single_path_matches_batch_row():
    field = sl.make_field("linear-1d")
    pol = StepPolicy(h_max=1e-2, h_min=1e-4, level_fraction=0.05)
    res = sweep_paths(field, [1.0], 1.0, pol, 8, np.arange(6))
    for i in range(6):
        p = sl.simulate_path(field, [1.0], 1.0, pol, path_entropy(8, i))
        assert p.states[-1, 0] == res.end_states[i, 0]
        assert p.times[-1] == res.end_times[i]


def test_generator_block_split_assumption():
    # block draws must equal step-by-step draws from the same stream, drawn
    # into an output row or not; the whole per-path buffering scheme rests
    # on this
    g1 = np.random.default_rng((5, 2))
    a = g1.standard_normal(64)
    g2 = np.random.default_rng((5, 2))
    b = np.concatenate([g2.standard_normal(13), g2.standard_normal(51)])
    assert np.array_equal(a, b)
    g3 = np.random.default_rng((5, 2))
    buf = np.full((3, 16, 2), np.nan)
    g3.standard_normal((16, 2), out=buf[1])
    g3.standard_normal((16, 2), out=buf[2])
    assert np.array_equal(buf[1:].reshape(-1), a)
    assert np.isnan(buf[0]).all()


def _live_generators():
    gc.collect()
    return sum(isinstance(o, np.random.Generator) for o in gc.get_objects())


def test_block_streams_follow_each_path_stream():
    # rows retire as the steps go on, across refills; a live row's draw at
    # step k is the k-th normal of its path's default_rng(entropy).  m = 32
    # makes a block of 128 // 32 = 4 steps
    ref = [np.random.default_rng(path_entropy(3, i)).standard_normal((11, 32))
           for i in range(6)]
    before = _live_generators()
    # a budget of 11 steps outruns the 4-step block: generators are kept
    streams = _BlockStreams((3,), np.arange(6), 32, 11)
    rows = np.arange(6)
    retire_at = {2: 1, 4: 0, 7: 2}   # step -> position of the row that goes
    for step in range(11):
        if step in retire_at:
            rows = np.delete(rows, retire_at[step])
        got = streams.draw(rows, step)
        assert np.array_equal(got, np.stack([ref[i][step] for i in rows]))
        if step == 0:
            assert _live_generators() == before + 6
            # every kept generator names the chunk's one seed table
            seeds = {id(g.bit_generator.seed_seq) for g in streams._gens}
            assert len(seeds) == 1
            assert isinstance(streams._gens[0].bit_generator.seed_seq,
                              _pcg64.SeedTable)
    del streams

    # one block covers the budget: each generator is built, drawn into its
    # row and dropped at step 0, and a second refill is an error rather than
    # a restarted stream
    streams = _BlockStreams((3,), np.arange(6), 32, 4)
    rows = np.arange(6)
    for step in range(4):
        got = streams.draw(rows, step)
        assert np.array_equal(got, np.stack([ref[i][step] for i in rows]))
        if step == 0:
            assert _live_generators() == before
    with pytest.raises(InvariantError, match="step 4"):
        streams.draw(rows, 4)


@pytest.mark.parametrize("name, params, h, n_steps", [
    pytest.param("linear-1d", {}, 2.0 ** -7, 128, id="linear-1d-128"),
    pytest.param("linear-1d", {}, 2.0 ** -7, 129, id="linear-1d-129"),
    pytest.param("diag-linear", {"d": 2}, 2.0 ** -6, 64, id="64"),
    pytest.param("diag-linear", {"d": 2}, 2.0 ** -6, 65, id="65"),
    pytest.param("diag-linear", {"d": 2}, 2.0 ** -7, 128, id="128"),
    pytest.param("diag-linear", {"d": 2}, 2.0 ** -7, 129, id="129"),
    pytest.param("diag-linear", {"d": 2}, 2.0 ** -8, 256, id="256"),
    pytest.param("diag-linear", {"d": 2}, 2.0 ** -8, 257, id="257")])
def test_sweep_at_the_generator_keep_boundary(name, params, h, n_steps):
    # a block is 128 // m steps: 128 for linear-1d, 64 for the 2-d
    # diag-linear field.  A sweep that fits one block (128 steps of
    # linear-1d, 64 of diag-linear) drops each generator after step 0; one
    # step more needs a second block, so it keeps them and refills, and
    # 128, 129, 256 and 257 steps of diag-linear take two to five blocks.
    # Either way each row is its path's replay bit for bit, and the
    # replay's increments are its default_rng normals times sqrt(h)
    field = sl.make_field(name, **params)
    start = np.ones(field.d)
    pol = StepPolicy.fixed(h)
    indices = np.array([0, 5, 9, 1000])
    res = sweep_paths(field, start, n_steps * h, pol, 3, indices)
    for row, i in enumerate(indices):
        path = sl.simulate_path(field, start, n_steps * h, pol,
                                path_entropy(3, i))
        assert path.times.size == n_steps + 1
        assert res.end_times[row] == path.times[-1]
        assert np.array_equal(res.end_states[row], path.states[-1])
        normals = np.random.default_rng(path_entropy(3, i)).standard_normal(
            (n_steps, field.m))
        assert np.array_equal(path.increments, normals * np.sqrt(h))


@pytest.mark.parametrize("name, params, h, horizon, retire, n, kinds", [
    # 2 blowups, 26 low-level and 20 horizon retirements
    pytest.param("power-law-1d", {"alpha": 1.5}, 2.0 ** -4, 12.0, 5e-4, 48,
                 ("blowup", "low", "horizon"), id="power-law-1d"),
    # sigma(X) is a view of X, so a state changed in place would show
    pytest.param("linear-1d", {}, 2.0 ** -6, 3.0, 0.1, 24, ("low", "horizon"),
                 id="linear-1d")])
def test_sweep_matches_an_em_step_loop(name, params, h, horizon, retire, n,
                                       kinds):
    # The sweep carries sigma and b from a step's end state to the next
    # step; a scalar Euler-Maruyama loop that evaluates them afresh at
    # every state must give each path's end time, end state and minimum
    # level bit for bit.  Both sweeps outrun one normal block, so streams
    # are refilled too.
    field = sl.make_field(name, **params)
    master = 1
    res = sweep_paths(field, [1.0], horizon, StepPolicy.fixed(h), master,
                      np.arange(n), min_level_retire=retire, on_blowup="retire")
    seen = {"blowup": res.blown_up.any(),
            "low": ((res.min_levels <= retire) & ~res.blown_up).any(),
            "horizon": (res.end_times == horizon).any()}
    assert all(seen[k] for k in kinds), seen
    n_steps = round(horizon / h)
    for i in np.flatnonzero(~res.blown_up):
        normals = np.random.default_rng(path_entropy(master, i)).standard_normal(
            (n_steps, field.m))
        x, t = np.array([1.0]), 0.0
        lo = sl.level(field, x)
        for dw in normals * np.sqrt(h):
            x = sl.em_step(field, x, h, dw)
            t += h
            lo = min(lo, sl.level(field, x))
            if lo <= retire:
                break
        assert res.end_times[i] == t
        assert np.array_equal(res.end_states[i], x)
        assert res.min_levels[i] == lo


@pytest.mark.parametrize("name, params, horizon, shape", [
    pytest.param("linear-1d", {}, 0.3, (3, 128, 1), id="linear-1d"),
    pytest.param("diag-linear", {"d": 2}, 0.3, (3, 64, 2), id="diag-linear-2"),
    pytest.param("diag-linear", {"d": 16}, 0.3, (3, 8, 16),
                 id="diag-linear-16"),
    pytest.param("constant", {"sigma0": [[1e-3] * 300], "b0": [0.0]}, 0.3,
                 (3, 1, 300), id="constant-m300"),
    pytest.param("linear-1d", {}, 0.1, (3, 100, 1), id="linear-1d-budget-100")])
def test_sweep_buffer_holds_at_most_128_normals_per_path(monkeypatch, name,
                                                         params, horizon,
                                                         shape):
    # a block is floor(128 / m) steps of m normals, and one step where m is
    # above 128; a step budget horizon / h_min below that caps it
    field = sl.make_field(name, **params)
    shapes = []

    class Recording(_BlockStreams):
        def __init__(self, *args):
            super().__init__(*args)
            shapes.append(self._buf.shape)

    monkeypatch.setattr(engine, "_BlockStreams", Recording)
    sweep_paths(field, np.ones(field.d), horizon, StepPolicy.fixed(1e-3), 4,
                np.arange(3))
    assert shapes == [shape]


@pytest.mark.parametrize("mode", ["first", "all"])
@pytest.mark.parametrize("h, barriers, first, all_", [
    # x -> -2x, the level 1, 4, 16, 64, 256 at times 0, 3, 6, 9, 12; up
    # barriers on grid levels, passed out of order
    (3.0, (256.0, 16.0),
     # first barrier crossed, its time, end state, min level
     (1, 6.0, 4.0, 1.0), (12.0, 16.0, 1.0)),
    # x -> x/2, the level 1, 1/4, 1/16, 1/64, 1/256 at times 0, 1/2, 1, 3/2, 2
    (0.5, (0.0625, 0.00390625),
     (0, 1.0, 0.25, 0.25), (2.0, 0.0625, 0.015625)),
])
def test_sweep_crosses_barriers_on_grid_levels(mode, h, barriers, first, all_):
    # a barrier equal to a grid level is crossed at that grid point, by the
    # sweep as by the scan of the recorded path (<=, not <), and the path
    # stops at that step, not at the next
    field = sl.make_field("decay-1d")
    pol = StepPolicy.fixed(h)
    res = sweep_paths(field, [1.0], 10 * h, pol, 1, [0], barriers=barriers,
                      stop_mode=mode)
    path = sl.simulate_path(field, [1.0], 10 * h, pol, path_entropy(1, 0))
    ref = [first_hitting_time(path, field, level) for level in barriers]
    assert not any(r.censored for r in ref)
    jb, t_first = first[:2]
    assert res.cross_times[0, jb] == ref[jb].time == t_first
    if mode == "first":
        x_end, lo = first[2:]
        assert np.isnan(res.cross_times[0, 1 - jb])
        assert res.end_times[0] == t_first
    else:
        t_last, x_end, lo = all_
        assert res.cross_times[0].tolist() == [r.time for r in ref]
        assert res.end_times[0] == t_last
    assert res.end_states[0, 0] == x_end
    assert res.min_levels[0] == lo


def test_sweep_barrier_at_start_and_validation():
    field = sl.make_field("linear-1d")
    pol = StepPolicy.fixed(1e-3)
    # a level equal to the start level is crossed at time 0 and one above it
    # is not, whatever order the levels come in
    for barriers in ((1.0,), (2.0, 1.0)):
        res = sweep_paths(field, [1.0], 1.0, pol, 1, [0], barriers=barriers,
                          stop_mode="first")
        assert res.end_times[0] == res.cross_times[0, -1] == 0.0
        assert np.isnan(res.cross_times[0, :-1]).all()
    # from a start below both levels, each is crossed upward, where the
    # scan of the recorded path crosses it
    res = sweep_paths(field, [0.5], 1.0, pol, 1, np.arange(16),
                      barriers=(2.0, 1.0), stop_mode="all")
    assert 0 < np.count_nonzero(~np.isnan(res.cross_times).any(axis=1)) < 16
    for i in range(16):
        path = sl.simulate_path(field, [0.5], 1.0, pol, path_entropy(1, i))
        for j, level in enumerate((2.0, 1.0)):
            ref = first_hitting_time(path, field, level)
            assert ref.direction == "up"
            assert np.array_equal(res.cross_times[i, j],
                                  np.nan if ref.censored else ref.time,
                                  equal_nan=True)
    with pytest.raises(InvalidInputError):
        sweep_paths(field, [1.0], -1.0, pol, 1, [0])
    for barriers in ((-1.0,), (float("nan"),)):
        with pytest.raises(InvalidInputError, match="barriers"):
            sweep_paths(field, [1.0], 1.0, pol, 1, [0], barriers=barriers)
    with pytest.raises(InvalidInputError):
        # bridge needs 1-d with a level inverse
        sweep_paths(sl.make_field("diag-linear"), [1.0, 1.0], 1.0, pol,
                    1, [0], bridge=True)


def test_capture_is_the_state_at_capture_time_or_end():
    # capture_state is X(min(capture time, end time)): a path still running
    # at the capture time is captured as the same path swept without
    # barriers is, also when with stop_mode 'all' it crosses a barrier in
    # the step holding the capture time and keeps going
    field = sl.make_field("linear-1d")
    pol = StepPolicy.fixed(1e-2)
    bars = tuple(2.0 ** -j for j in range(1, 7))
    indices = np.arange(4000)
    free = sweep_paths(field, [1.0], 1.0, pol, 5, indices, capture_times=(0.3,))
    assert free.capture_state.shape == (4000, 1, 1)
    for mode in ("first", "all"):
        res = sweep_paths(field, [1.0], 1.0, pol, 5, indices, barriers=bars,
                          stop_mode=mode, capture_times=(0.3,))
        live = res.end_times > 0.3
        near = (np.abs(res.cross_times - 0.3) < 1e-2).any(axis=1)
        assert np.count_nonzero(live & near) > 20 and not live.all()
        assert np.array_equal(res.capture_state[live], free.capture_state[live])
        assert np.array_equal(res.capture_state[~live, 0], res.end_states[~live])
        res = sweep_paths(field, [1.0], 1.0, pol, 5, indices[:500],
                          barriers=bars, stop_mode=mode, capture_times=(1.0,))
        assert np.array_equal(res.capture_state[:, 0], res.end_states)


@pytest.mark.parametrize("case", ["linear-1d-bridge", "diag-linear"])
def test_capture_times_in_any_order_give_their_columns(case):
    # column j of a multi-time capture is the capture of a sweep with
    # capture time capture_times[j] alone, bit for bit, whatever the order
    # of the times and with repeats; every other field is the sweep's own
    if case == "diag-linear":
        field, start, bridge = sl.make_field("diag-linear", d=2), [0.5, 0.5], False
    else:
        field, start, bridge = sl.make_field("linear-1d"), [1.0], True
    pol = StepPolicy.fixed(1e-2)
    lev0 = cf.level(field, np.asarray(start))
    kw = dict(barriers=(lev0 / 2, 2 * lev0),
              bridge=bridge, track_noise_sum=True)
    times = (0.3, 0.0, 1.0, 2.5e-3, 0.3, 0.05, 1.0 - 1e-13)
    indices = np.arange(400)
    plain = sweep_paths(field, start, 1.0, pol, 4, indices, **kw)
    assert plain.capture_state.shape == (400, 0, field.d)
    res = sweep_paths(field, start, 1.0, pol, 4, indices, capture_times=times, **kw)
    rev = sweep_paths(field, start, 1.0, pol, 4, indices,
                      capture_times=times[::-1], **kw)
    assert res.capture_state.shape == (400, len(times), field.d)
    assert np.array_equal(res.capture_state, rev.capture_state[:, ::-1])
    for j, t in enumerate(times):
        one = sweep_paths(field, start, 1.0, pol, 4, indices,
                          capture_times=[t], **kw)
        assert np.array_equal(res.capture_state[:, j], one.capture_state[:, 0]), t
    for f in fields(SweepResult):
        if f.name not in ("trajectory", "capture_state"):
            assert np.array_equal(getattr(res, f.name), getattr(plain, f.name),
                                  equal_nan=True), f.name
    # t = 0 is the start, and a time at the horizon the end state
    assert np.array_equal(res.capture_state[:, 1],
                          np.broadcast_to(start, (400, field.d)))
    assert np.array_equal(res.capture_state[:, 2], res.end_states)
    assert np.array_equal(res.capture_state[:, 6], res.end_states)
    # some paths stop before 0.05 and some run past 0.3
    assert 0 < np.count_nonzero(res.end_times < 0.05)
    assert 0 < np.count_nonzero(res.end_times > 0.3) < 400


@pytest.mark.parametrize("times", [(1.5,), (0.2, -0.1), (float("nan"),),
                                   [[0.2]], 0.2])
def test_capture_time_out_of_range_is_invalid(times):
    with pytest.raises(InvalidInputError, match="capture_times"):
        sweep_paths(sl.make_field("linear-1d"), [1.0], 1.0,
                    StepPolicy.fixed(1e-2), 1, [0], capture_times=times)


def test_all_stop_state_is_the_state_at_the_last_crossing():
    # decay-1d from 1 with h = 1/2: the level 1 -> 1/4 over the first step
    # meets 1/2 at t = 1/3, where the interpolated state is 2/3.  The path
    # ends there, and a capture time after it takes that state.
    field = sl.make_field("decay-1d")
    res = sweep_paths(field, [1.0], 2.0, StepPolicy.fixed(0.5), 1, [0],
                      barriers=(0.5,), stop_mode="all",
                      capture_times=(0.4,))
    assert res.end_times[0] == pytest.approx(1 / 3, abs=1e-15)
    assert res.end_states[0, 0] == pytest.approx(2 / 3, abs=1e-15)
    assert res.capture_state[0, 0, 0] == pytest.approx(2 / 3, abs=1e-15)


@pytest.mark.parametrize("case, barrier", [
    ("decay-1d", 0.5),
    ("linear-1d-bridge", 0.5),
    ("linear-1d-bridge", 2.0),
])
def test_one_barrier_all_equals_first(case, barrier):
    # with one barrier the last crossing is the first, so both stop modes
    # give the same sweep, bridge-triggered stops included
    if case == "decay-1d":
        field, pol, n = sl.make_field("decay-1d"), StepPolicy.fixed(0.5), 4
    else:
        field, pol, n = sl.make_field("linear-1d"), StepPolicy.fixed(1e-2), 3000
    bridge = case.endswith("bridge")
    res = {mode: sweep_paths(field, [1.0], 1.0, pol, 7, np.arange(n),
                             barriers=(barrier,), stop_mode=mode, bridge=bridge,
                             capture_times=(0.3,), track_noise_sum=True)
           for mode in ("first", "all")}
    if bridge:
        assert np.count_nonzero(res["all"].cross_bridge) > 500
    for f in fields(SweepResult):
        if f.name != "trajectory":
            assert np.array_equal(getattr(res["first"], f.name),
                                  getattr(res["all"], f.name),
                                  equal_nan=True), f.name


def test_strong_convergence_to_closed_form():
    res = sl.strong_order_study(n_paths=400, h_exponents=range(4, 10),
                                master_seed=77)
    assert res["satisfied"]
    assert 0.35 <= res["slope"] <= 0.65
    # errors decrease monotonically in h
    assert all(a > b for a, b in zip(res["strong_errors"],
                                     res["strong_errors"][1:]))
