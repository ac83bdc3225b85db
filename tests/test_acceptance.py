"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
import sdelab as sl
from sdelab import StepPolicy
from sdelab.cli import run_scenario, write_report


def _verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_engine_validation():
    t0 = time.perf_counter()
    res = sl.strong_order_study(n_paths=2000, h_exponents=range(4, 11),
                                master_seed=2024)
    elapsed = time.perf_counter() - t0
    ok = 0.35 <= res["slope"] <= 0.65 and elapsed < 60.0
    _verdict(1, "engine-validation", ok,
             f"slope={res['slope']:.3f} in [0.35,0.65], {elapsed:.1f}s < 60s")


def test_criterion_2_constant_derivation():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for m, k_bound in ((1, 1.0), (2, 0.31), (4, 7.5)):
        c = sl.escape_rate_constant(m, k_bound)
        assert c == pytest.approx(4 * math.sqrt(6) * k_bound
                                  * math.sqrt(m + 1), rel=1e-14)
        for _ in range(10):
            a = float(10.0 ** rng.uniform(-4, 4))
            k = int(rng.integers(1, 30))
            t = float(rng.uniform(1e-6, 1.0))
            ratio = oracles.escape_rate_product(a, k, t, m, k_bound) / math.sqrt(t)
            worst = max(worst, abs(ratio - c) / c)
    ok_const = worst <= 1e-12

    ok_t0 = True
    for c in 10.0 ** rng.uniform(-3, 3, size=100):
        t0 = sl.persistence_window(float(c))
        if not (0.0 < t0 < 1.0 and c * math.sqrt(t0) <= 0.5):
            ok_t0 = False
    _verdict(2, "constant-derivation", ok_const and ok_t0,
             f"max rel err {worst:.2e} <= 1e-12; C*sqrt(t0) <= 1/2 exact "
             f"for 100 random C")


def test_criterion_3_escape_bound():
    field = sl.make_field("linear-1d")
    c = sl.escape_rate_constant(1, 1.0)
    grid = sl.default_escape_time_grid(c)
    policy = StepPolicy.fixed(1e-5)
    t_start = time.perf_counter()
    all_ok = True
    details = []
    for k in (1, 2, 3):
        reports = sl.check_escape_probability_bound(
            field, [1.0], 2.0 ** k, k, grid, 100_000, policy, 300 + k)
        for rep in reports:
            if not (rep.satisfied and rep.parameters["informative"]):
                all_ok = False
        worst = max(r.lhs_estimate.ci_low / r.rhs_value for r in reports)
        details.append(f"k={k} max ci_low/rhs={worst:.2e}")
    elapsed = time.perf_counter() - t_start
    ok = all_ok and elapsed < 600.0
    _verdict(3, "escape-bound", ok,
             f"{'; '.join(details)}; {elapsed:.0f}s < 600s")


def test_criterion_4_displacement_and_level_change():
    policy = StepPolicy.fixed(2e-4)
    cases = [
        (sl.make_field("linear-1d"), [1.0]),
        (sl.make_field("diag-linear", d=2), [0.5, 0.5]),
    ]
    all_ok = True
    n_checks = 0
    t_grid = (0.01, 0.1, 1.0)
    for field, x in cases:
        for k in (1, 2):
            band_level = 2.0 ** k * sl.level(field, x)
            reports = (sl.check_displacement_bound(
                           field, x, band_level, k, t_grid, 5000, policy, 71)
                       + sl.check_level_change_bound(
                           field, x, band_level, k, t_grid, 5000, policy, 72))
            n_checks += len(reports)
            if not all(rep.satisfied for rep in reports):
                all_ok = False

    [control] = sl.check_level_change_bound(
        sl.make_field("power-law-1d", alpha=0.5, lipschitz_k=1.0),
        [1e-4], 2e-4, 1, [0.01], 2000, StepPolicy.fixed(1e-6), 73)
    ok = all_ok and n_checks == 24 and not control.satisfied
    _verdict(4, "displacement-and-level-change", ok,
             f"{n_checks} checks satisfied on Lipschitz fields; "
             f"non-Lipschitz control fails (lhs ci_low "
             f"{control.lhs_estimate.ci_low:.2e} > rhs "
             f"{control.rhs_value:.2e})")


def test_criterion_5_halving_persistence():
    t0 = sl.persistence_window(sl.escape_rate_constant(1, 1.0))
    ok_t0 = abs(t0 - 1.0 / 768.0) <= 1e-12 / 768.0
    rep = sl.check_halving_persistence(
        sl.make_field("linear-1d"), [1.0], 2.0, 1, 10_000,
        StepPolicy.fixed(1e-6), 500, t0=t0)
    ok = ok_t0 and rep.satisfied and rep.lhs_estimate.ci_low >= 0.9
    _verdict(5, "halving-persistence", ok,
             f"t0={t0:.6e} (1/768), P[T >= t0] ci_low="
             f"{rep.lhs_estimate.ci_low:.4f} >= 0.9")


def test_criterion_6_inaccessibility_vs_accessibility():
    verdicts = {}
    for alpha in (0.5, 1.0, 1.5):
        verdicts[alpha] = sl.accessibility_integral_1d(
            lambda y, a=alpha: y ** a, 1.0)
    ok_int = (verdicts[0.5].is_finite
              and abs(verdicts[0.5].value - 1.0) <= verdicts[0.5].error + 1e-9
              and verdicts[1.0].kind == "divergent"
              and verdicts[1.5].kind == "divergent")

    eps_grid = [1e-2, 1e-4, 1e-6]
    policy = StepPolicy.fixed(1e-3)
    pts = {}
    for alpha in (0.5, 1.0, 1.5):
        field = sl.make_field("power-law-1d", alpha=alpha)
        ests = sl.estimate_zero_hitting(field, [1.0], 10.0, eps_grid, 4000,
                                        policy, 600)
        pts[alpha] = [e.point for e in ests]
    ok_half = pts[0.5][-1] >= 0.3
    ok_one = (all(a > b for a, b in zip(pts[1.0], pts[1.0][1:]))
              and pts[1.0][-1] <= 0.5)
    ok_three_half = (all(a > b for a, b in zip(pts[1.5], pts[1.5][1:]))
                     and pts[1.5][-1] <= 0.1)
    ok = ok_int and ok_half and ok_one and ok_three_half
    _verdict(6, "inaccessibility-vs-accessibility", ok,
             f"integral: finite({verdicts[0.5].value:.6f})/divergent/divergent; "
             f"hitting alpha=0.5 {pts[0.5]}, alpha=1 {pts[1.0]}, "
             f"alpha=1.5 {pts[1.5]}")


def test_criterion_7_wilson_coverage():
    rng = np.random.default_rng(42)
    covered = 0
    for _ in range(1000):
        s = int(rng.binomial(200, 0.3))
        est = sl.estimate_with_ci(s, 200)
        covered += est.ci_low <= 0.3 <= est.ci_high
    rate = covered / 1000.0
    ok = 0.93 <= rate <= 0.97
    _verdict(7, "wilson-coverage", ok, f"coverage {rate:.3f} in [0.93, 0.97]")


def _payload_bytes(config, workers):
    report = run_scenario(config, workers=workers)
    return json.dumps(report.payload, sort_keys=True).encode()


def test_criterion_8_determinism(tmp_path):
    configs = [
        {
            "field": {"name": "linear-1d"},
            "start": [1.0],
            "horizon": 1.0,
            "policy": {"kind": "fixed", "h_max": 1e-3},
            "n_paths": 400,
            "master_seed": 7,
            "experiment": "hitting",
            "params": {"eps_grid": [1e-2, 1e-4, 1e-6]},
        },
        {
            "field": {"name": "linear-1d"},
            "start": [1.0],
            "horizon": 1.0,
            "policy": {"kind": "fixed", "h_max": 1e-4},
            "n_paths": 2000,
            "master_seed": 9,
            "experiment": "sqrt-bound",
            "params": {"A": 2.0, "k": 1},
        },
    ]
    ok = True
    for i, raw in enumerate(configs):
        config = sl.parse_scenario(json.dumps(raw))
        base = _payload_bytes(config, workers=1)
        if base != _payload_bytes(config, workers=1):
            ok = False
        if base != _payload_bytes(config, workers=4):
            ok = False
        # full CSV/JSON byte comparison across reruns
        blobs = []
        for sub in ("x", "y"):
            report = run_scenario(config, workers=1)
            out = tmp_path / f"{i}_{sub}"
            write_report(report, out)
            blob = b"".join(sorted(
                p.read_bytes() for p in out.glob("table_*.csv")))
            blobs.append(blob)
        if blobs[0] != blobs[1]:
            ok = False
    _verdict(8, "determinism", ok,
             "payloads identical across reruns and 1 vs 4 workers; "
             "CSV tables byte-identical")
