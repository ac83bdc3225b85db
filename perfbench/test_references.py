"""Quick tests of the benchmark's closed-form references.

    python3 -m pytest -q perfbench/test_references.py
"""

import math
import random

import pytest

import references as ref


@pytest.mark.parametrize("t", [0.003, 0.01, 0.03, 0.1, 0.5, 2.0])
@pytest.mark.parametrize("half_width,drift", [(0.5 * math.log(2.0), -0.5),
                                              (0.3, 0.0), (1.0, 1.5)])
def test_images_match_eigenfunctions(t, half_width, drift):
    images = ref.two_sided_exit_prob(t, half_width, drift)
    eigen = ref.two_sided_exit_prob_eigen(t, half_width, drift)
    assert images == pytest.approx(eigen, abs=1e-9)


def test_wide_band_exit_is_the_sum_of_one_sided_passages():
    # with a wide band, leaving through both ends by t is negligible
    a, mu, t = 3.0, -0.5, 0.5
    up = ref.drifted_min_passage(a, -mu, t)   # max of B + mu s >= a
    down = ref.drifted_min_passage(a, mu, t)  # min of B + mu s <= -a
    assert ref.two_sided_exit_prob(t, a, mu) == pytest.approx(up + down,
                                                              rel=1e-6)


def test_default_grid_escape_probability_is_negligible():
    assert ref.escape_bridge_reference(2.0 / 768.0) == pytest.approx(
        2.25e-11, rel=0.01)


def test_driftless_passage_is_the_reflection_principle():
    for c in (0.1, 0.5, 2.0):
        assert ref.drifted_min_passage(c, 0.0, 1.0) == pytest.approx(
            2.0 * ref.norm_cdf(-c), rel=1e-12)


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
def test_hitting_bracket_upper_is_the_infimum(eps):
    lo, hi = ref.besq0_hitting_bracket(1.0, 1.0, eps)
    assert lo == pytest.approx(math.exp(-2.0))
    grid = [10.0 ** (k / 200.0) for k in range(-1600, 400)]
    best = math.exp(min(-2.0 / (1.0 + s) + 2.0 * eps / s for s in grid))
    assert lo < hi <= best * (1 + 1e-12)
    assert best == pytest.approx(hi, rel=1e-4)


def test_hitting_bracket_closes_as_eps_shrinks():
    widths = [ref.besq0_hitting_bracket(1.0, 1.0, e)[1] - math.exp(-2.0)
              for e in (1e-2, 1e-4, 1e-6)]
    assert widths[0] > widths[1] > widths[2] > 0
    assert widths[2] < 1e-3


def test_dyadic_bracket_against_sampled_exact_solution():
    # X_i(T) = exp(B_i(T) - 3T/2) exactly; sample the endpoint level
    rng = random.Random(5)
    n = 200_000
    levels = [2.0 * (math.exp(2.0 * rng.gauss(-1.5, 1.0))
                     + math.exp(2.0 * rng.gauss(-1.5, 1.0)))
              for _ in range(n)]
    for b in (2.0, 0.5, 0.125, 0.03125):
        lo, hi = ref.dyadic_diag_bracket(b, 1.0)
        frac = sum(lv <= b for lv in levels) / n
        assert abs(frac - lo) < 4.0 * math.sqrt(lo * (1 - lo) / n) + 1.0 / n
        assert lo < hi <= 1.0


def test_dyadic_lower_quadrature_has_converged():
    for b in (2.0, 0.25, 4.0 / 256.0):
        used = ref._endpoint_level_cdf(b, 1.0)
        fine = ref._endpoint_level_cdf(b, 1.0, panels=64000)
        assert used == pytest.approx(fine, rel=1e-5)
