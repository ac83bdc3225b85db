"""Declarative experiment runner: JSON scenarios in, JSON report and CSV tables out.

A scenario is parsed once: one table of (key, rule, default) rows per object
rejects unknown keys and names the key of each failure, and the parse builds
the field and the experiment's run, which run_scenario calls.  The normalized
config (defaults filled) is echoed in the report header.  Payloads depend on
the config alone, not on the worker count; run-varying data (timestamp, wall
clock, output directory) lives only in the report header.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import coefficients as cf
from . import stopping
from . import verification as vf
from .coefficients import CoefficientField
from .engine import StepPolicy, _resolve_bridge, path_entropy, simulate_path
from .errors import InvalidInputError, InvariantError, NumericalBlowupError

SCHEMA_VERSION = 1
# the fewest paths an experiment with confidence intervals accepts
N_PATHS_FLOOR = 100


def _fail(path: str, msg: str):
    raise InvalidInputError(f"{path}: {msg}")


REQUIRED = object()   # a row default: the key must be given
OPTIONAL = object()   # a row default: an absent key stays absent


def _checked(path: str, check, /, *args, **kwargs):
    """check(*args, **kwargs), an InvalidInputError from it naming the key
    path.

    The library's rules raise InvalidInputError without knowing the key; a
    path ending in "." prefixes a message that names its own field, as
    StepPolicy's do ("policy." + "h_min: ..."), any other path is the key.
    """
    try:
        return check(*args, **kwargs)
    except InvalidInputError as exc:
        sep = "" if path.endswith(".") else ": "
        raise InvalidInputError(f"{path}{sep}{exc}") from None


def _walk(path: str, raw: dict, rows) -> dict:
    """Pop the keys of the object ``raw`` at ``path``, one per (key, rule,
    default) row, in row order: a given value or else the default becomes
    rule(value), an error naming <path>.<key>.  A REQUIRED key must be given,
    an absent OPTIONAL key stays absent, and a key no row names is an error.
    """
    out = {}
    for key, rule, default in rows:
        key_path = f"{path}.{key}" if path else key
        if key in raw:
            out[key] = _checked(key_path, rule, raw.pop(key))
        elif default is REQUIRED:
            _fail(key_path, "missing required key")
        elif default is not OPTIONAL:
            out[key] = _checked(key_path, rule, default)
    if raw:
        _fail(path or "<root>", f"unknown keys: {sorted(raw)}")
    return out


def _positive(val) -> float:
    try:
        out = float(val)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"expected a finite number, got {val!r}") from None
    if not 0 < out < math.inf:
        raise InvalidInputError(f"must be positive and finite, got {out}")
    return out


def _rule(test, msg: str):
    """The rule that passes on a value for which test is true and rejects
    any other with msg, its {!r} the value."""
    def rule(val):
        if not test(val):
            raise InvalidInputError(msg.format(val))
        return val
    return rule


def _finite_numbers(val) -> bool:
    # an int too large for a float would overflow in np.asarray
    return isinstance(val, list) and all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in val)


# json.loads makes exact ints and floats, and a bool is not an int here
_pos_int = _rule(lambda val: type(val) is int and val >= 1,
                 "expected a positive integer, got {!r}")
_seed = _rule(lambda val: type(val) is int and val >= 0,
              "expected a nonnegative integer, got {!r}")
_list = _rule(lambda val: isinstance(val, list), "must be a list, got {!r}")


def _object(val, msg: str = "must be an object") -> dict:
    if not isinstance(val, dict):
        raise InvalidInputError(msg)
    return dict(val)


def _schema_version(val) -> int:
    if val != SCHEMA_VERSION:
        raise InvalidInputError(f"unsupported version {val!r}")
    return SCHEMA_VERSION


def _experiment(val) -> str:
    if not isinstance(val, str) or val not in EXPERIMENTS:
        raise InvalidInputError(
            f"unknown experiment {val!r}; valid: {list(EXPERIMENTS)}")
    return val


# The scenario's keys, one (key, rule, default) row each; _walk applies them.
# The objects field, policy, lipschitz and params are walked next, each with
# its own rows, and the rules that read two keys come after the walks.
_ROOT_KEYS = (
    ("schema_version", _schema_version, SCHEMA_VERSION),
    ("field", partial(_object, msg="must be an object {name, params}"),
     REQUIRED),
    ("start", _rule(_finite_numbers, "must be a list of finite numbers"),
     REQUIRED),
    ("horizon", _positive, REQUIRED),
    ("policy", lambda val: _object({} if val is None else val,
                                   "policy must be an object"), None),
    ("n_paths", _pos_int, REQUIRED),
    ("master_seed", _seed, REQUIRED),
    ("experiment", _experiment, REQUIRED),
    ("params", _object, {}),
    ("bridge", _rule(lambda val: val in ("auto", True, False),
                     "must be 'auto', true, or false, got {!r}"), "auto"),
    ("lipschitz", _object, {}),
)
_FIELD_KEYS = (
    ("name", _rule(lambda val: isinstance(val, str),
                   "must be a string, got {!r}"), REQUIRED),
    ("params", _object, {}),
)
# StepPolicy applies the policy's rules, and h_min's default depends on kind
_DEFAULT_POLICY = StepPolicy()
_POLICY_KEYS = (
    ("kind", lambda val: val, _DEFAULT_POLICY.kind),
    ("h_max", _positive, _DEFAULT_POLICY.h_max),
    ("h_min", _positive, OPTIONAL),
    ("level_fraction", _positive, _DEFAULT_POLICY.level_fraction),
)
# an estimated bound takes the box it samples, a declared one no key; a
# null region is the default box around the start
_LIPSCHITZ_MODE = ("mode", _rule(
    lambda val: val in ("declared", "estimated"),
    "must be 'declared' or 'estimated', got {!r}"), "declared")
_LIPSCHITZ_KEYS = {
    "declared": (_LIPSCHITZ_MODE,),
    "estimated": (_LIPSCHITZ_MODE, ("region", lambda val: val if val is None
                                    else _list(val), None)),
}


@dataclass
class ScenarioConfig:
    """A validated scenario: each key's value (``config.<key>``, defaults
    filled, ``policy`` a StepPolicy), the field it names, and
    ``run(workers)``, which runs its experiment."""

    values: dict
    field: CoefficientField = dc_field(compare=False, repr=False)
    run: Callable = dc_field(default=None, compare=False, repr=False)

    def __getattr__(self, key):
        try:
            return self.__dict__["values"][key]
        except KeyError:
            raise AttributeError(key) from None

    def to_dict(self) -> dict:
        """The normalized scenario, as validate echoes it."""
        return {**self.values, "policy": self.policy.to_dict()}


# The rule of each experiment param; an error names the key as
# params.<key>.  The CLI's helpers check JSON types, and a rule an estimator
# applies to a value is that estimator's own; the rules that involve more
# than one key are in the experiments' functions.
_PARAM_VALIDATORS = {
    "A": _positive,
    "k": _pos_int,
    "t": lambda t: vf._unit_grid([t])[0],
    "t0": _positive,
    "depth": _pos_int,
    "a": _positive,
    "eps_grid": lambda val: vf._eps_grid(_list(val)),
    "t_grid": lambda val: vf._unit_grid(_list(val)),
    "h_exponents": lambda val: [_pos_int(e) for e in _list(val)],
}


def _finite_number(text: str) -> float:
    # json.loads hook for number literals: bare NaN and +-Infinity are not
    # JSON, and a literal such as 1e999 would overflow to inf
    val = float(text)
    if not math.isfinite(val):
        raise InvalidInputError(
            f"config is not strict JSON: {text} is not a finite number")
    return val


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and fully validate a JSON scenario document, build its field and
    prepare its experiment's run."""
    try:
        raw = json.loads(text, parse_float=_finite_number,
                         parse_constant=_finite_number)
    except (ValueError, RecursionError) as exc:
        # ValueError: a syntax error, or an int of more than 4300 digits;
        # RecursionError: lists or objects nested about 1000 deep
        raise InvalidInputError(f"config is not well-formed JSON: {exc}") from None
    if not isinstance(raw, dict):
        _fail("<root>", "config must be a JSON object")
    values = _walk("", raw, _ROOT_KEYS)

    spec = values["field"] = _walk("field", values["field"], _FIELD_KEYS)
    field = _checked("field", cf.make_field, spec["name"], **spec["params"])
    # the state's dimension, and a finite level there
    x0 = np.asarray(values["start"], dtype=float)
    _checked("start", cf.level, field, x0)

    pol = _walk("policy", values["policy"], _POLICY_KEYS)
    h_min = pol.get("h_min", pol["h_max"] if pol["kind"] == "fixed"
                    else min(pol["h_max"], _DEFAULT_POLICY.h_min))
    values["policy"] = _checked("policy.", StepPolicy, pol["kind"],
                                pol["h_max"], h_min, pol["level_fraction"])

    exp = EXPERIMENTS[values["experiment"]]
    values["params"] = _walk(
        "params", values["params"],
        [(key, _PARAM_VALIDATORS[key], REQUIRED) for key in exp.required]
        + [(key, _PARAM_VALIDATORS[key], OPTIONAL) for key in exp.optional])

    lip = values["lipschitz"]
    lip = values["lipschitz"] = _walk("lipschitz", lip, _LIPSCHITZ_KEYS[
        "estimated" if lip.get("mode") == "estimated" else "declared"])
    if lip["mode"] == "estimated":
        _checked("lipschitz.", cf._sample_box, field,
                 _lipschitz_region(lip["region"], x0))

    if exp.ci_floor and values["n_paths"] < N_PATHS_FLOOR:
        _fail("n_paths", f"{values['experiment']!r} produces confidence "
                         f"intervals and requires n_paths >= {N_PATHS_FLOOR}")

    config = ScenarioConfig(values, field)
    config.run = exp.prepare(config, field, x0)
    return config


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    config: dict
    version: str
    timestamp_utc: str
    wall_clock_s: float
    payload: dict
    tables: dict          # table name -> iterable of row dicts
    checks: list          # satisfied flags of all bound checks in the run

    @property
    def all_satisfied(self) -> bool:
        return all(self.checks)

    def header_dict(self, out_dir: str | None) -> dict:
        return {"artifact_version": self.version,
                "timestamp_utc": self.timestamp_utc,
                "wall_clock_s": self.wall_clock_s,
                "out_dir": out_dir,
                "config": self.config}


def _lipschitz_region(region, start: np.ndarray):
    """The box of an estimated bound: the given [lo, hi], else the start
    +- (|start| + 1)."""
    if region is not None:
        return region
    radius = float(np.linalg.norm(start)) + 1.0
    return (start - radius, start + radius)


def _resolve_lipschitz(config: ScenarioConfig, field: CoefficientField,
                       start: np.ndarray):
    """Lipschitz bound per the config: declared on the field, or estimated."""
    lip = config.lipschitz
    if lip["mode"] == "declared":
        k_val = _checked("lipschitz.mode", vf._require_k, field, None)
        return k_val, {"mode": "declared", "value": k_val}
    region = _lipschitz_region(lip.get("region"), start)
    value = _checked("lipschitz.", cf.estimate_lipschitz, field, region)
    # the config's block, with the value and the box it was estimated on
    return value, {**lip, "value": value,
                   "region": [np.asarray(r).tolist() for r in region]}


def _resolve_t0(config: ScenarioConfig, field: CoefficientField,
                start: np.ndarray):
    """params.t0 if given, else the persistence window of the Lipschitz
    bound, which must lie in (0, 1): it is 0 once C^2 overflows."""
    t0 = config.params.get("t0")
    if t0 is not None:
        return t0, None
    k_val, k_source = _resolve_lipschitz(config, field, start)
    return _checked("field", vf._window_t0,
                    vf.persistence_t0(field.m, k_val)), k_source


def _bound_table_row(report):
    row = {k: v for k, v in report.parameters.items()
           if not isinstance(v, dict)}
    row.update({"bound_name": report.bound_name,
                "point": report.lhs_estimate.point,
                "ci_low": report.lhs_estimate.ci_low,
                "ci_high": report.lhs_estimate.ci_high,
                "n": report.lhs_estimate.n,
                "censored_n": report.lhs_estimate.censored_n,
                "rhs": report.rhs_value,
                "satisfied": report.satisfied,
                "slack": report.slack})
    return row


def _single_check(report, **payload):
    return ({"report": report.to_json_dict(), **payload},
            {"bound_checks": [_bound_table_row(report)]}, [report.satisfied])


def _finite_constant(config, name: str, value: float):
    # a constant of the Lipschitz bound K: the key is where K comes from
    if not math.isfinite(value):
        _fail("field" if config.lipschitz["mode"] == "declared"
              else "lipschitz", f"{name} is {value}, not finite")


# Each experiment is one function of (config, field, start).  It applies the
# experiment's input rules that involve more than one key, each the rule its
# estimator applies, named by its key; it resolves the Lipschitz bound, t0
# and the t grid; and it returns run(workers), which calls the estimator and
# returns (payload, tables, checks).  parse_scenario keeps run on the config
# and run_scenario calls it, again and again if asked, so validate rejects
# what run rejects and each is computed once.  run looks estimators up on
# their modules at call time, so wrapping a module attribute wraps every run.

def _band_center(config, field):
    # the bridge setting, and the band's center level A/2^k once its lower
    # and upper levels are checked
    _checked("bridge", _resolve_bridge, field, config.bridge)
    p = config.params
    return _checked("params.k", vf._band_levels, p["A"], p["k"])[1]


def _hitting(config, field, start):
    _checked("start", vf._off_zero_set, field, start)
    p = config.params

    def run(workers):
        ests = vf.estimate_zero_hitting(
            field, start, config.horizon, p["eps_grid"], config.n_paths,
            config.policy, config.master_seed, workers=workers)
        payload = {"eps_grid": p["eps_grid"],
                   "estimates": [e.to_dict() for e in ests]}
        rows = [{"eps": e, **est.to_dict()}
                for e, est in zip(p["eps_grid"], ests)]
        return payload, {"hitting": rows}, []
    return run


def _sqrt_bound(config, field, start):
    _checked("start", vf._band_start, field, start, _band_center(config, field))
    p = config.params
    k_val, k_source = _resolve_lipschitz(config, field, start)
    c = vf.escape_rate_constant(field.m, k_val)
    # the default grid of c, which must be nonempty
    t_grid = p.get("t_grid") or _checked(
        "field", vf._unit_grid, vf.default_escape_time_grid(c))
    _finite_constant(config, "escape-rate constant C", c)

    def run(workers):
        reports = vf.check_escape_probability_bound(
            field, start, p["A"], p["k"], t_grid, config.n_paths,
            config.policy, config.master_seed, lipschitz_k=k_val,
            bridge=config.bridge, workers=workers)
        slope = vf.fitted_escape_exponent(reports)
        payload = {"constant": c, "t0": vf.persistence_window(c),
                   "t_grid": t_grid, "k_source": k_source,
                   "fitted_exponent": slope,
                   "reports": [r.to_json_dict() for r in reports]}
        rows = [_bound_table_row(r) for r in reports]
        return payload, {"sqrt_bound": rows}, [r.satisfied for r in reports]
    return run


def _displacement(config, field, start):
    _checked("start", vf._band_start, field, start, _band_center(config, field))
    p = config.params

    def run(workers):
        return _single_check(vf.check_displacement_bound(
            field, start, p["A"], p["k"], [p["t"]], config.n_paths,
            config.policy, config.master_seed, bridge=config.bridge,
            workers=workers)[0])
    return run


def _level_change(config, field, start):
    _displacement(config, field, start)  # its input rules; its run is dropped
    p = config.params
    k_val, k_source = _resolve_lipschitz(config, field, start)
    _finite_constant(config, "level-change factor 2 (3 A/2^k)^(1/2) K",
                     vf._level_change_factor(_band_center(config, field), k_val))

    def run(workers):
        return _single_check(vf.check_level_change_bound(
            field, start, p["A"], p["k"], [p["t"]], config.n_paths,
            config.policy, config.master_seed, lipschitz_k=k_val,
            bridge=config.bridge, workers=workers)[0], k_source=k_source)
    return run


def _persistence(config, field, start):
    _checked("start", vf._persistence_start, field, start,
             _band_center(config, field))
    p = config.params
    if "t0" in p:
        _checked("params.t0", vf._window_t0, p["t0"])
    t0, k_source = _resolve_t0(config, field, start)

    def run(workers):
        return _single_check(vf.check_halving_persistence(
            field, start, p["A"], p["k"], config.n_paths, config.policy,
            config.master_seed, t0=t0, bridge=config.bridge,
            workers=workers), t0=t0, k_source=k_source)
    return run


def _dyadic_escape(config, field, start):
    _checked("start", vf._off_zero_set, field, start)
    depth = config.params["depth"]
    start_level = cf.level(field, start)
    # the deepest of the halved levels
    _checked("params.depth", vf._halved, start_level, depth)
    bridge = _checked("bridge", _resolve_bridge, field, config.bridge)
    t0, k_source = _resolve_t0(config, field, start)

    def run(workers):
        inc = stopping.dyadic_escape_batch(
            field, start, depth, config.horizon, config.policy,
            config.master_seed, config.n_paths, bridge=bridge, workers=workers)
        cen = np.isnan(inc)
        per_k = []
        for k in range(depth):
            live = ~cen[:, k]
            per_k.append({
                "k": k,
                "n_censored": int(cen[:, k].sum()),
                "mean_increment": (float(np.mean(inc[live, k]))
                                   if live.any() else None),
                "count_ge_t0": int(np.sum(inc[:, k] >= t0)),
            })
        payload = {"depth": depth, "t0": t0, "n_paths": config.n_paths,
                   "start_level": start_level,
                   "count_ge_t0_total": int(np.sum(inc >= t0)),
                   "per_band": per_k, "k_source": k_source}
        return (payload, {"dyadic_escape": stopping.escape_csv_rows(inc, t0)},
                [])
    return run


def _integral_1d(config, field, start):
    if field.d != 1:
        _fail("field", "integral-1d requires a 1-d field")
    a = config.params["a"]

    def sigma(y):
        return float(field.sigma(np.array([[y]]))[0, 0, 0])
    # the integral's first window [a/2, a]; a deeper one is checked by run
    _checked("field", vf._window_sigma, sigma, a / 2.0, a)

    def run(workers):
        verdict = _checked("field", vf.accessibility_integral_1d, sigma, a)
        payload = {"verdict": verdict.kind, "value": verdict.value,
                   "error": verdict.error, "windows": verdict.windows}
        return payload, {"integral": [payload.copy()]}, []
    return run


def _engine_validation(config, field, start):
    if field.name != "linear-1d":
        _fail("field", "engine-validation uses the linear-1d closed form")
    _checked("start", vf._off_zero_set, field, start)
    h_exponents = config.params.get("h_exponents", list(range(4, 11)))
    _checked("params.h_exponents", vf._study_steps, config.n_paths,
             h_exponents, config.horizon)

    def run(workers):
        # off the zero set a strong error is 0 only where the horizon is so
        # short that the Euler and exact paths agree
        res = _checked(
            "horizon", vf.strong_order_study, config.n_paths, h_exponents,
            config.horizon, start_x=float(start[0]),
            master_seed=config.master_seed, workers=workers)
        rows = [{"h": h, "strong_error": e, "n": config.n_paths}
                for h, e in zip(res["h_grid"], res["strong_errors"])]
        return res, {"strong_order": rows}, [res["satisfied"]]
    return run


@dataclass(frozen=True)
class Experiment:
    """One experiment kind: its params and its function."""

    prepare: Callable
    required: tuple = ()
    optional: tuple = ()
    # the output is a Monte Carlo estimate with a CI, so n_paths must reach
    # N_PATHS_FLOOR
    ci_floor: bool = False


EXPERIMENTS = {
    "hitting": Experiment(_hitting, ("eps_grid",), ci_floor=True),
    "sqrt-bound": Experiment(_sqrt_bound, ("A", "k"), ("t_grid",),
                             ci_floor=True),
    "displacement": Experiment(_displacement, ("A", "k", "t"), ci_floor=True),
    "level-change": Experiment(_level_change, ("A", "k", "t"), ci_floor=True),
    "persistence": Experiment(_persistence, ("A", "k"), ("t0",), ci_floor=True),
    "dyadic-escape": Experiment(_dyadic_escape, ("depth",), ("t0",)),
    "integral-1d": Experiment(_integral_1d, ("a",)),
    "engine-validation": Experiment(_engine_validation, (), ("h_exponents",)),
}


def run_scenario(config: ScenarioConfig, workers: int = 1) -> RunReport:
    """Run the parsed experiment and assemble the in-memory report."""
    t_start = time.perf_counter()
    payload, tables, checks = config.run(workers)
    return RunReport(
        config=config.to_dict(), version=__version__,
        timestamp_utc=datetime.now(timezone.utc).isoformat(),
        wall_clock_s=time.perf_counter() - t_start,
        payload=payload, tables=tables, checks=checks)


def _path_rows(field: CoefficientField, path) -> list[dict]:
    """One row per grid time of a path: t, x_1..x_d and the level."""
    levels = cf.level_batch(field, path.states)
    return [{"t": float(t), **{f"x_{k + 1}": float(v) for k, v in enumerate(x)},
             "level": float(lev)}
            for t, x, lev in zip(path.times, path.states, levels)]


def _write_csv(fh, rows):
    # the header is the first row's keys, and a row is written as its values,
    # so every row must have the header's keys in the header's order
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    header = tuple(first)
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerow(first.values())
    for row in rows:
        if tuple(row) != header:
            raise ValueError(f"row keys {tuple(row)} differ from the "
                             f"table's header {header}")
        writer.writerow(row.values())


@contextmanager
def _replacing(path: Path):
    """Text handle on a temporary file beside ``path``, renamed onto it on
    success and deleted on failure.  A temporary file that cannot be opened
    or renamed is an OSError naming ``path`` alone."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        fh = open(tmp, "w", newline="")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)


def write_report(report: RunReport, out_dir) -> list[str]:
    """Write report.json and one CSV per table.

    Returns the file names, report.json first.  report.json is the index of
    the tables, so it is removed first and written last: a write that fails
    leaves no report.json, and no file is ever left half-written.  A report
    that is not strict JSON (a NaN or an infinity) is an InvariantError, as
    validate rejects every input that would produce one.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    report_path.unlink(missing_ok=True)
    doc = {"header": report.header_dict(str(out.resolve())),
           "payload": report.payload,
           "tables": sorted(f"table_{name}.csv" for name in report.tables)}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvariantError(f"report is not strict JSON: {exc}") from None
    files = {f"table_{name}.csv": rows
             for name, rows in sorted(report.tables.items())}
    for name, rows in files.items():
        with _replacing(out / name) as fh:
            _write_csv(fh, rows)
    with _replacing(report_path) as fh:
        fh.write(text + "\n")
    return [str(report_path)] + [str(out / n) for n in files]


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _read_scenario(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{str(path)!r}: {exc}") from None
    return parse_scenario(text)


def _cmd_run(args) -> int:
    config = _read_scenario(args.config)
    # an --out that cannot be a directory fails before the sweep
    Path(args.out).mkdir(parents=True, exist_ok=True)
    report = run_scenario(config, workers=args.workers)
    written = write_report(report, args.out)
    for path in written:
        print(path)
    if report.checks:
        n_ok = sum(report.checks)
        print(f"bound checks: {n_ok}/{len(report.checks)} satisfied")
    return 0 if report.all_satisfied else 2


def _cmd_validate(args) -> int:
    config = _read_scenario(args.config)
    print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_catalog(_args) -> int:
    for entry in cf.catalog():
        fld = entry.field
        k = "n/a" if fld.lipschitz_k is None else f"{fld.lipschitz_k:g}"
        print(f"{entry.name}  (d={fld.d}, m={fld.m}, K={k})")
        print(f"    {entry.analytic_notes}")
    return 0


def _cmd_replay(args) -> int:
    config = _read_scenario(args.config)
    path = simulate_path(config.field, config.start, config.horizon,
                         config.policy,
                         path_entropy(config.master_seed, args.path))
    rows = _path_rows(config.field, path)
    if args.out_file is None:
        _write_csv(sys.stdout, rows)
    else:
        with _replacing(Path(args.out_file)) as fh:
            _write_csv(fh, rows)
    print(f"# path {args.path} seed={config.master_seed} "
          f"steps={len(rows) - 1} absorbed={path.absorbed} "
          f"final_level={rows[-1]['level']:g}",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdelab",
        description="Level-set hitting experiments for SDE coefficient fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config and echo it")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_cat = sub.add_parser("catalog", help="list built-in coefficient fields")
    p_cat.set_defaults(fn=_cmd_catalog)

    p_rep = sub.add_parser("replay", help="re-simulate one path for debugging")
    p_rep.add_argument("config")
    p_rep.add_argument("--path", type=int, required=True)
    p_rep.add_argument("--out-file", default=None)
    p_rep.set_defaults(fn=_cmd_replay)

    args = parser.parse_args(argv)
    try:
        # each value reported is checked where it is used, not by a warning
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except NumericalBlowupError as exc:
        print(f"numerical blowup: {exc} (step {exc.step_index}, "
              f"path {exc.path_index}, seed {exc.seed})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
