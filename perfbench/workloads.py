"""The benchmark's workloads: one scenario document each, and its output checks.

Each workload is a JSON scenario for ``sdelab run``; only the master seed
comes from the benchmark's ``--seed``.  A check receives the payload section
of ``report.json`` and the CSV tables of one run, and returns a list of
failure messages (empty when the outputs are right).  Tolerances are
``Z_TOL`` binomial standard errors around the references of
``references.py``, plus one path for the discreteness of a count, so a
correct program passes on any seed.
"""

from __future__ import annotations

import math

import references as ref

# Two-sided tolerance in standard errors: a correct program fails one
# compared estimate with probability below 1e-4.
Z_TOL = 4.0

T0 = 1.0 / 768.0  # persistence window of linear-1d, 1/(4 C^2) with C = 4 sqrt(12)


def _base(seed: int, n_paths: int) -> dict:
    return {"schema_version": 1, "horizon": 1.0, "n_paths": n_paths,
            "master_seed": seed, "lipschitz": {"mode": "declared"}}


def escape_bridge(seed: int) -> dict:
    """sqrt-bound on linear-1d with the bridge on and an extended t grid.

    The default grid t0 * 2^j stops at 0.0026, where the exact exit
    probability is 2e-11; 0.01, 0.03 and 0.1 make exits and bridge triggers
    happen, so the estimate has something to match.  The step h = 1e-3 is
    coarse on purpose: crossings missed between grid points lower the exit
    estimate by an amount that grows like sqrt(h), so with the bridge off the
    estimates at t = 0.03 and 0.1 fall many standard errors below the exact
    value, while the bridge recovers them.
    """
    t_grid = [T0 * 2.0 ** j for j in range(-3, 2)] + [0.01, 0.03, 0.1]
    return {**_base(seed, 16384),
            "field": {"name": "linear-1d", "params": {}}, "start": [1.0],
            "policy": {"kind": "fixed", "h_max": 1e-3},
            "experiment": "sqrt-bound",
            "params": {"A": 2.0, "k": 1, "t_grid": t_grid}, "bridge": "auto"}


def hitting_powerlaw(seed: int) -> dict:
    """hitting on power-law-1d (alpha = 1/2) with the level-adaptive policy."""
    return {**_base(seed, 8192),
            "field": {"name": "power-law-1d", "params": {"alpha": 0.5}},
            "start": [1.0],
            "policy": {"kind": "level-adaptive", "h_max": 1e-3, "h_min": 1e-7},
            "experiment": "hitting",
            "params": {"eps_grid": [1e-1, 1e-2, 1e-3, 1e-4]}}


def dyadic_diag(seed: int) -> dict:
    """dyadic-escape on diag-linear (d = 2) with eight bands."""
    return {**_base(seed, 4096),
            "field": {"name": "diag-linear", "params": {"d": 2}},
            "start": [1.0, 1.0],
            "policy": {"kind": "level-adaptive", "h_max": 1e-3},
            "experiment": "dyadic-escape", "params": {"depth": 8}}


def _outside(count: int, n: int, lo: float, hi: float) -> float | None:
    """Distance in standard errors by which count/n leaves [lo, hi], or None.

    The standard error is taken at the nearer end of the interval, and one
    path of slack covers the discreteness of the count.
    """
    for p, sign in ((lo, -1.0), (hi, 1.0)):
        dev = sign * (count - n * p)
        if dev > 0:
            tol = Z_TOL * math.sqrt(n * p * (1.0 - p)) + 1.0
            if dev > tol:
                return sign * dev / max(math.sqrt(n * p * (1.0 - p)), 1e-300)
    return None


def check_escape_bridge(payload: dict, tables: dict) -> list[str]:
    out = []
    reports = sorted(payload["reports"], key=lambda r: r["parameters"]["t"])
    prev = -1.0
    for rep in reports:
        t = rep["parameters"]["t"]
        lhs = rep["lhs"]
        if not rep["satisfied"]:
            out.append(f"escape bound unsatisfied at t={t:g}")
        if lhs["point"] < prev:
            out.append(f"estimate decreases at t={t:g}")
        prev = lhs["point"]
        n = lhs["n"]
        count = round(lhs["point"] * n)
        p = ref.escape_bridge_reference(t)
        z = _outside(count, n, p, p)
        if z is not None:
            out.append(f"exit probability at t={t:g}: {count}/{n} vs exact "
                       f"{p:.6g} (z={z:+.2f})")
    if len(tables.get("sqrt_bound", [])) != len(reports):
        out.append("table_sqrt_bound.csv does not list every t")
    return out


def check_hitting_powerlaw(payload: dict, tables: dict) -> list[str]:
    out = []
    prev = math.inf
    for eps, est in zip(payload["eps_grid"], payload["estimates"]):
        if est["point"] > prev:
            out.append(f"estimate increases as eps shrinks to {eps:g}")
        prev = est["point"]
        n = est["n"]
        count = round(est["point"] * n)
        lo, hi = ref.besq0_hitting_bracket(1.0, 1.0, eps)
        z = _outside(count, n, lo, hi)
        if z is not None:
            out.append(f"P[min level <= {eps:g}] = {count}/{n} outside "
                       f"[{lo:.5f}, {hi:.5f}] (z={z:+.2f})")
    if len(tables.get("hitting", [])) != len(payload["eps_grid"]):
        out.append("table_hitting.csv does not list every eps")
    return out


def check_dyadic_diag(payload: dict, tables: dict) -> list[str]:
    out = []
    n, depth, t0 = payload["n_paths"], payload["depth"], payload["t0"]
    rows = tables.get("dyadic_escape", [])
    if len(rows) != n * depth:
        return [f"CSV has {len(rows)} rows, expected {n} x {depth}"]
    censored = [0] * depth
    ge_t0 = [0] * depth
    for i, row in enumerate(rows):
        k = int(row["k"])
        if int(row["path_id"]) != i // depth or k != i % depth:
            return [f"CSV row {i} is out of (path, band) order"]
        cen = row["censored"] == "True"
        if cen:
            censored[k] += 1
        else:
            if k > 0 and rows[i - 1]["censored"] == "True":
                out.append(f"path {row['path_id']}: band {k} reached after "
                           "a censored band")
            inc = float(row["increment"])
            if not inc >= 0.0:
                out.append(f"path {row['path_id']}: increment {inc} < 0 "
                           f"in band {k}")
            ge_t0[k] += inc >= t0
        if (row["ge_t0"] == "True") != (not cen and float(row["increment"]) >= t0):
            out.append(f"path {row['path_id']}: ge_t0 flag wrong in band {k}")
    if out:
        return out[:5]
    per_band = payload["per_band"]
    if [b["n_censored"] for b in per_band] != censored:
        out.append("per-band censoring counts disagree with the CSV")
    if [b["count_ge_t0"] for b in per_band] != ge_t0:
        out.append("per-band count_ge_t0 disagrees with the CSV")
    if payload["count_ge_t0_total"] != sum(b["count_ge_t0"] for b in per_band):
        out.append("count_ge_t0_total is not the sum of the per-band counts")
    if any(a > b for a, b in zip(censored, censored[1:])):
        out.append("censoring is not monotone in k")
    start_level = payload["start_level"]
    for k in range(depth):
        b = start_level / 2.0 ** (k + 1)
        lo, hi = ref.dyadic_diag_bracket(b, 1.0)
        reached = n - censored[k]
        z = _outside(reached, n, lo, hi)
        if z is not None:
            out.append(f"P[level reaches {b:g}] = {reached}/{n} outside "
                       f"[{lo:.4f}, {hi:.4f}] (z={z:+.2f})")
    return out


WORKLOADS = {
    "escape-bridge": (escape_bridge, check_escape_bridge),
    "hitting-powerlaw": (hitting_powerlaw, check_hitting_powerlaw),
    "dyadic-diag": (dyadic_diag, check_dyadic_diag),
}
