import contextlib
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sdelab as sl
from sdelab import InvalidInputError, InvariantError
from sdelab import cli
from sdelab import coefficients as cf
from sdelab.cli import main, parse_scenario, run_scenario, write_report
from test_golden_payloads import SCENARIOS


def _hitting_config(**overrides):
    cfg = {
        "field": {"name": "linear-1d"},
        "start": [1.0],
        "horizon": 1.0,
        "policy": {"kind": "fixed", "h_max": 1e-3},
        "n_paths": 400,
        "master_seed": 7,
        "experiment": "hitting",
        "params": {"eps_grid": [1e-2, 1e-4, 1e-6]},
    }
    cfg.update(overrides)
    return json.dumps(cfg)


def test_minimal_config_gets_default_policy():
    cfg = json.dumps({
        "field": {"name": "linear-1d"},
        "start": [1.0],
        "horizon": 1.0,
        "n_paths": 400,
        "master_seed": 1,
        "experiment": "hitting",
        "params": {"eps_grid": [1e-4]},
    })
    parsed = sl.parse_scenario(cfg)
    assert parsed.policy.kind == "level-adaptive"
    assert parsed.policy.h_max == 1e-3
    echo = parsed.to_dict()
    assert echo["policy"]["kind"] == "level-adaptive"
    assert "n_paths_floor" not in echo
    assert echo["bridge"] == "auto"


def test_dimension_mismatch_names_start():
    cfg = _hitting_config(start=[1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError, match="start"):
        sl.parse_scenario(cfg)


def test_unknown_experiment_lists_valid_names():
    cfg = _hitting_config(experiment="frobnicate")
    with pytest.raises(InvalidInputError) as exc:
        sl.parse_scenario(cfg)
    msg = str(exc.value)
    assert "experiment" in msg and "hitting" in msg and "sqrt-bound" in msg


def test_unknown_keys_are_errors():
    raw = json.loads(_hitting_config())
    raw["typo_key"] = 1
    with pytest.raises(InvalidInputError, match="typo_key"):
        sl.parse_scenario(json.dumps(raw))

    raw = json.loads(_hitting_config())
    raw["params"]["bogus"] = 2
    with pytest.raises(InvalidInputError, match="params"):
        sl.parse_scenario(json.dumps(raw))

    raw = json.loads(_hitting_config())
    raw["policy"]["h_typo"] = 0.1
    with pytest.raises(InvalidInputError, match="policy"):
        sl.parse_scenario(json.dumps(raw))

    # integral-1d's window counts are fixed, not scenario keys
    raw = json.loads(_hitting_config())
    raw["experiment"] = "integral-1d"
    for key in ("trend_windows", "max_windows"):
        raw["params"] = {"a": 1.0, key: 12}
        with pytest.raises(InvalidInputError, match=f"params.*{key}"):
            sl.parse_scenario(json.dumps(raw))


def test_missing_required_param_names_path():
    raw = json.loads(_hitting_config())
    raw["params"] = {}
    with pytest.raises(InvalidInputError, match="params.eps_grid"):
        sl.parse_scenario(json.dumps(raw))


def test_unknown_field_lists_catalog():
    raw = json.loads(_hitting_config())
    raw["field"]["name"] = "no-such"
    with pytest.raises(InvalidInputError, match="catalog"):
        sl.parse_scenario(json.dumps(raw))


def test_n_paths_floor_enforced_for_ci_experiments():
    floor = cli.N_PATHS_FLOOR
    with pytest.raises(InvalidInputError, match=f"n_paths >= {floor}"):
        sl.parse_scenario(_hitting_config(n_paths=floor - 1))
    assert sl.parse_scenario(_hitting_config(n_paths=floor)).n_paths == floor
    # the floor is a constant, not a scenario key
    with pytest.raises(InvalidInputError, match="n_paths_floor"):
        sl.parse_scenario(_hitting_config(n_paths=50, n_paths_floor=10))
    # non-CI experiments are exempt
    cfg = json.loads(_hitting_config(n_paths=1))
    cfg["experiment"] = "dyadic-escape"
    cfg["params"] = {"depth": 2, "t0": 0.01}
    sl.parse_scenario(json.dumps(cfg))


def test_readme_experiment_table_matches_the_experiments():
    # one row per experiment, whose backticked params outside parentheses
    # are its required keys and then its optional keys marked "?"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.splitlines()
    start = lines.index("| experiment | params | output tables |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, params = (cell.strip() for cell in line.split(" | ")[:2])
        while re.search(r"\([^()]*\)", params):
            params = re.sub(r"\([^()]*\)", "", params)
        rows.setdefault(name.strip("|` "), []).append(
            re.findall(r"`([^`]+)`", params))
    assert set(rows) == set(cli.EXPERIMENTS)
    for name, exp in cli.EXPERIMENTS.items():
        assert rows[name] == [[*exp.required,
                               *(f"{key}?" for key in exp.optional)]], name


def test_not_json_and_bad_seed():
    with pytest.raises(InvalidInputError, match="JSON"):
        sl.parse_scenario("{nope")
    with pytest.raises(InvalidInputError, match="master_seed"):
        sl.parse_scenario(_hitting_config(master_seed=-3))
    # a number literal that overflows to inf
    with pytest.raises(InvalidInputError, match="1e999"):
        sl.parse_scenario(_hitting_config().replace('"horizon": 1.0',
                                                    '"horizon": 1e999'))


@pytest.mark.parametrize("key, override", [
    ("field.name", {"field": {"name": ["linear-1d"]}}),
    # the estimate's seed and safety factor are constants, not keys
    ("lipschitz", {"lipschitz": {"mode": "estimated", "seed": 0}}),
    ("lipschitz", {"lipschitz": {"mode": "estimated", "safety": 1.25}}),
    ("lipschitz.region", {"lipschitz": {"mode": "estimated",
                                        "region": ["a", "b"]}}),
    # a builder's ValueError, and a non-integer dimension
    ("field", {"field": {"name": "constant", "params": {"sigma0": "a"}}}),
    ("field", {"field": {"name": "diag-linear", "params": {"d": 2.5}}}),
    ("field", {"field": {"name": "diag-linear", "params": {"d": "2"}}}),
    # bare NaN and Infinity literals are not JSON; an int past the float
    # range is no finite number either
    ("NaN", {"field": {"name": "power-law-1d",
                       "params": {"alpha": float("nan")}}}),
    ("Infinity", {"horizon": float("inf")}),
    ("-Infinity", {"start": [-float("inf")]}),
    ("horizon", {"horizon": 10 ** 400}),
    ("start", {"start": [10 ** 400]}),
    # finite, but its level overflows to inf
    ("start", {"start": [1e200]}),
    # a string float() reads as inf
    ("horizon", {"horizon": "inf"}),
    # a field parameter named like make_field's own argument
    ("field", {"field": {"name": "power-law-1d", "params": {"name": 1}}}),
])
def test_malformed_values_name_their_key(tmp_path, capsys, key, override):
    cfg = _hitting_config(**override)
    with pytest.raises(InvalidInputError, match=key):
        sl.parse_scenario(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert key in capsys.readouterr().err


def _main(argv):
    """main(argv)'s exit code and the lines it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().splitlines()


BASE = {"field": {"name": "linear-1d"}, "start": [1.0], "horizon": 1.0,
        "n_paths": 120, "master_seed": 1,
        "policy": {"kind": "fixed", "h_max": 1e-2}}
_POWER = {"field": {"name": "power-law-1d", "params": {"alpha": 0.5}}}
_SQRT = {"experiment": "sqrt-bound", "params": {"A": 2.0, "k": 1}}
# a declared K whose C^2 overflows: the derived t0 is 0, the default t grid
# empty
_HUGE_K = {"field": {"name": "power-law-1d",
                     "params": {"alpha": 1.0, "lipschitz_k": 1e200}}}
_ALPHA_12 = {"field": {"name": "power-law-1d", "params": {"alpha": 12.0}}}
# an estimated K whose C^2 overflows
_FAR_K = {**_ALPHA_12, "lipschitz": {"mode": "estimated",
                                     "region": [[1e20], [2e20]]}}


# sigma overflows in np.power at y = 5e299
_SIGMA_OVERFLOW = {**_ALPHA_12, "experiment": "integral-1d",
                   "params": {"a": 1e300}}


# Each input is well typed key by key, and only a rule of the estimators
# rejects it: validate applies that rule as run does, naming the key.  The
# inputs are BASE updated by each override; CI runs them through the
# installed script too.
VALIDATE_ERRORS = [
    # A/2^(k+1) or L0/2^depth is below the smallest float
    ("params.k", {"experiment": "displacement",
                  "params": {"A": 2.0, "k": 2000, "t": 0.5}}),
    ("params.k", {"experiment": "sqrt-bound", "params": {"A": 2.0, "k": 1500}}),
    ("params.k", {"experiment": "persistence", "params": {"A": 2.0, "k": 3000}}),
    ("params.depth", {"experiment": "dyadic-escape", "params": {"depth": 1100}}),
    # level 1 is not the band's center level A/2^k
    ("start", {"experiment": "displacement",
               "params": {"A": 2.0, "k": 2, "t": 0.5}}),
    ("start", {"experiment": "displacement",
               "params": {"A": 1e-300, "k": 1, "t": 0.5}}),
    ("start", {"experiment": "level-change",
               "params": {"A": 8.0, "k": 1, "t": 0.5}}),
    ("params.t_grid", {**_SQRT, "params": {"A": 2.0, "k": 1,
                                           "t_grid": [0.01, 2.0]}}),
    ("params.t0", {"experiment": "persistence",
                   "params": {"A": 2.0, "k": 1, "t0": 5}}),
    # level 1 is below A/2^k = 4
    ("start", {"experiment": "persistence", "params": {"A": 8.0, "k": 1}}),
    ("start", {"experiment": "hitting", "start": [0.0],
               "params": {"eps_grid": [1e-2]}}),
    ("start", {"experiment": "dyadic-escape", "start": [0.0],
               "params": {"depth": 2}}),
    # power-law-1d with alpha < 1 declares no Lipschitz bound
    ("lipschitz.mode", {**_POWER, **_SQRT}),
    ("lipschitz.mode", {**_POWER, "experiment": "level-change",
                        "params": {"A": 2.0, "k": 1, "t": 0.5}}),
    ("lipschitz.mode", {**_POWER, "experiment": "persistence",
                        "params": {"A": 2.0, "k": 1}}),
    ("lipschitz.region", {**_SQRT, "lipschitz": {
        "mode": "estimated", "region": [[1.0], [0.0]]}}),
    # the estimate's sample count is a constant, not a key
    ("lipschitz", {**_SQRT, "lipschitz": {"mode": "estimated",
                                          "samples": 4000}}),
    ("bridge", {"field": {"name": "diag-linear", "params": {"d": 2}},
                "start": [1.0, 1.0], "experiment": "dyadic-escape",
                "params": {"depth": 2}, "bridge": True}),
    # the step 2^-1100 is 0
    ("params.h_exponents", {"experiment": "engine-validation", "n_paths": 16,
                            "params": {"h_exponents": [3, 1100]}}),
    ("field", {**_HUGE_K, "experiment": "persistence",
               "params": {"A": 2.0, "k": 1}}),
    ("field", {**_HUGE_K, **_SQRT}),
    ("field", {**_HUGE_K, "experiment": "dyadic-escape", "n_paths": 16,
               "params": {"depth": 2}}),
    # sigma vanishes in the integral's first window [a/2, a]
    ("field", {"field": {"name": "decay-1d"}, "experiment": "integral-1d",
               "params": {"a": 1.0}}),
    ("field", {"field": {"name": "constant",
                         "params": {"sigma0": 0.0, "b0": 1.0}},
               "experiment": "integral-1d", "params": {"a": 1.0}}),
    ("field", {**_FAR_K, "experiment": "persistence",
               "params": {"A": 2.0, "k": 1}}),
    ("field", {**_FAR_K, **_SQRT}),
    ("field", {**_FAR_K, "experiment": "dyadic-escape", "n_paths": 16,
               "params": {"depth": 2}}),
    # the estimate's former defaults, spelled out
    ("lipschitz", {**_SQRT, "params": {"A": 2.0, "k": 1, "t_grid": [0.01]},
                   "lipschitz": {"mode": "estimated", "samples": 4000,
                                 "seed": 0, "safety": 1.25}}),
    # sigma overflows to inf on the box, so every quotient would be NaN
    ("lipschitz.region", {**_ALPHA_12, **_SQRT,
                          "params": {"A": 2.0, "k": 1, "t_grid": [0.01]},
                          "lipschitz": {"mode": "estimated",
                                        "region": [[1e26], [2e26]]}}),
    # C = 4 sqrt(6) K sqrt(m+1) and 2 (3 A/2^k)^(1/2) K overflow to inf
    ("field", {"field": {"name": "power-law-1d",
                         "params": {"alpha": 1.0, "lipschitz_k": 1e308}},
               **_SQRT, "params": {"A": 2.0, "k": 1, "t_grid": [0.01]}}),
    ("lipschitz", {**_FAR_K, "experiment": "level-change",
                   "params": {"A": 2.0, "k": 1, "t": 0.5}}),
    # 16 x 2^70 path-steps, more than a study may take
    ("params.h_exponents", {"experiment": "engine-validation", "n_paths": 16,
                            "params": {"h_exponents": [3, 70]}}),
    # a parameter name that breaks a line is named by its repr
    ("field", {"field": {"name": "power-law-1d",
                         "params": {"alpha": 0.5, "\x1e": 1}}, **_SQRT}),
    ("field", {"field": {"name": "power-law-1d",
                         "params": {"alpha": 0.5, "\r": 1}}, **_SQRT}),
    # a path-step count past every float, which the cap compares exactly
    ("params.h_exponents", {"experiment": "engine-validation",
                            "n_paths": 10 ** 400,
                            "params": {"h_exponents": [3, 4, 5]}}),
    # the zero set, where every strong error is 0 and no order is fitted
    ("start", {"experiment": "engine-validation", "start": [0.0],
               "params": {"h_exponents": [3, 4, 5]}}),
    ("field", _SIGMA_OVERFLOW),
    # Wilson is the one interval and the n_paths floor a constant: neither
    # is a key
    ("params", {"experiment": "hitting",
                "params": {"eps_grid": [0.1], "ci_method": "wilson"}}),
    ("<root>", {"experiment": "hitting", "params": {"eps_grid": [0.1]},
                "n_paths_floor": 10}),
    # one step size, through which no order is fitted
    ("params.h_exponents", {"experiment": "engine-validation", "n_paths": 64,
                            "master_seed": 11,
                            "params": {"h_exponents": [4, 4]}}),
    # a repeated step size, which the fit would count twice
    ("params.h_exponents", {"experiment": "engine-validation", "n_paths": 64,
                            "master_seed": 11,
                            "params": {"h_exponents": [3, 4, 4]}}),
]


@pytest.mark.parametrize("key, override", VALIDATE_ERRORS)
def test_validate_rejects_what_run_rejects(tmp_path, key, override):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, **override}))
    for argv in (["validate", str(cfg_path)],
                 ["run", str(cfg_path), "--out", str(tmp_path / "out")]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = _main(argv)
        assert code == 1 and len(err) == 1, (argv[0], err)
        assert err[0].startswith(f"error: {key}: "), (argv[0], err)


def test_numpy_warnings_leave_one_error_line(tmp_path):
    # the overflow's warning is no output
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, **_SIGMA_OVERFLOW}))
    for argv in (["validate", str(cfg_path)],
                 ["run", str(cfg_path), "--out", str(tmp_path / "out")]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = _main(argv)
        assert code == 1 and len(err) == 1, (argv[0], err)
        assert err[0].startswith("error: field: sigma non-finite"), err


# Inputs validate accepts whose error only the run can find: a horizon so
# short that every strong error is 0, and sigma^2 below the normal floats in
# a window deeper than the first.  BASE updated by each override, as above.
RUN_ERRORS = [
    ("horizon", {"experiment": "engine-validation", "horizon": 1e-300,
                 "params": {"h_exponents": [3, 4, 5]}}),
    ("field", {**_ALPHA_12, "experiment": "integral-1d",
               "params": {"a": 1e-10}}),
    ("field", {"field": {"name": "power-law-1d", "params": {"alpha": 6.0}},
               "experiment": "integral-1d", "params": {"a": 1e-40}}),
]


@pytest.mark.parametrize("key, override", RUN_ERRORS)
def test_run_errors_leave_one_error_line(tmp_path, key, override):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, **override}))
    assert _main(["validate", str(cfg_path)]) == (0, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 1 and len(err) == 1, err
    assert err[0].startswith(f"error: {key}: "), err


# Command lines whose files the operating system refuses, run in a directory
# that make_io_error_files has filled: a missing config, a directory, a
# config that is not UTF-8, --out naming a file or a path under one, and
# --out-file in a missing directory or naming a directory
IO_ERRORS = [
    ["validate", "missing.json"],
    ["validate", "."],
    ["validate", "latin-1.json"],
    ["run", "cfg.json", "--out", "cfg.json"],
    ["run", "cfg.json", "--out", "cfg.json/out"],
    ["replay", "cfg.json", "--path", "0", "--out-file", "missing/path.csv"],
    ["replay", "cfg.json", "--path", "0", "--out-file", "adir"],
]


def make_io_error_files(root):
    """The files IO_ERRORS names, in ``root``: a scenario that runs, a
    config in Latin-1 and a directory."""
    root = Path(root)
    (root / "cfg.json").write_text(_hitting_config(n_paths=100))
    (root / "latin-1.json").write_bytes('{"experiment": "\xe9"}'.encode("latin-1"))
    (root / "adir").mkdir()


@pytest.mark.parametrize("argv", IO_ERRORS, ids="-".join)
def test_file_errors_leave_one_error_line(tmp_path, monkeypatch, argv):
    # an unwritable --out fails before the sweep, and an error names the
    # file given, not the temporary file beside it
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_scenario reached")
    make_io_error_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_scenario", no_sweep)
    code, err = _main(argv)
    assert code == 1 and len(err) == 1, err
    assert err[0].startswith("error: ") and ".tmp" not in err[0], err
    # the error names the file the user gave, and no temporary file is left
    if argv[-1] in ("latin-1.json", "missing/path.csv", "adir"):
        assert f"'{argv[-1]}'" in err[0], err
    assert not list(tmp_path.glob("**/*.tmp"))


@pytest.mark.parametrize("experiment, params", [
    ("sqrt-bound", {"A": 2.0, "k": 1}),
    ("displacement", {"A": 2.0, "k": 1, "t": 0.2}),
    ("level-change", {"A": 2.0, "k": 1, "t": 0.2}),
])
def test_band_run_with_tiny_alpha(tmp_path, experiment, params):
    # alpha < 1/2048 puts the |x| of the upper band level 2 past the
    # largest float: the bridge sees a barrier at inf, which no step crosses
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        **BASE, "experiment": experiment, "params": params,
        "field": {"name": "power-law-1d",
                  "params": {"alpha": 4e-4, "lipschitz_k": 1}}}))
    code, err = _main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code in (0, 2) and err == [], err
    assert (tmp_path / "out" / "report.json").is_file()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_validate_echo_is_a_fixed_point(name):
    # the normalized scenario validate prints parses back to itself
    echo = parse_scenario(json.dumps(SCENARIOS[name])).to_dict()
    assert parse_scenario(json.dumps(echo)).to_dict() == echo


@pytest.mark.parametrize("text", [
    # int() and str() refuse more than 4300 digits
    _hitting_config().replace('"n_paths": 400', '"n_paths": ' + "9" * 5000),
    # the decoder's recursion limit
    _hitting_config().replace('"start": [1.0]',
                              '"start": ' + "[" * 5000 + "]" * 5000),
])
def test_json_past_the_decoders_limits_is_an_error(tmp_path, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code, err = _main(["validate", str(cfg_path)])
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: config is not well-formed JSON: ")


# the keys of cli's tables, so a new key is fuzzed without new test code
_TOP_KEYS = {key for key, _rule, _default in cli._ROOT_KEYS}
_TABLE_KEYS = _TOP_KEYS | set(cli._PARAM_VALIDATORS) | {
    key for rows in (cli._FIELD_KEYS, cli._POLICY_KEYS,
                     *cli._LIPSCHITZ_KEYS.values())
    for key, _rule, _default in rows}
_ERROR = re.compile(r"error: (?:config is not (?:strict|well-formed) JSON|"
                    r"(<root>|\w+)(?:\.\w+)*): ")


def _key_paths(doc, path=()):
    """Every key path of a JSON document: object keys and list indices."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, val in items:
        yield from _key_paths(val, path + (key,))


def _wrong_values():
    return st.one_of(
        st.none(), st.booleans(), st.text(max_size=6),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([float("nan"), float("inf"), -float("inf")]),
        st.integers(-2 ** 70, 2 ** 70),
        st.sampled_from([10 ** 400, -10 ** 400, 2 ** 64, -1]),
        st.recursive(st.integers(-3, 3), lambda inner: st.lists(inner, max_size=3),
                     max_leaves=8),
        st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_validate_on_mutated_scenarios(data):
    # ROADMAP aim 3: whatever a scenario holds, validate returns 0 or 1, and
    # 1 comes with one error line that names a key path or the JSON fault
    doc = copy.deepcopy(SCENARIOS[data.draw(st.sampled_from(sorted(SCENARIOS)))])
    path = data.draw(st.sampled_from(list(_key_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else doc
    kinds = ["value"] if path else []
    if isinstance(target, dict):
        kinds += ["add key"] + ["delete key"] * bool(target)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "value":
        parent[path[-1]] = data.draw(_wrong_values())
    elif kind == "add key":
        # a key of any table or of a field's params, which a keyword
        # argument may meet, or an unknown one
        target[data.draw(st.one_of(
            st.sampled_from(sorted(_TABLE_KEYS | {"alpha", "d"})),
            st.text(min_size=1, max_size=6)))] = data.draw(_wrong_values())
    else:
        del target[data.draw(st.sampled_from(sorted(target)))]
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code, err = _main(["validate", str(cfg_path)])
    assert code in (0, 1)
    if code == 1:
        assert len(err) == 1, err
        match = _ERROR.match(err[0])
        assert match, err
        assert match.group(1) in (None, "<root>") or match.group(1) in _TOP_KEYS


def test_broken_sweep_invariant_exits_1(tmp_path, capsys, monkeypatch):
    # a sweep invariant found broken is a typed error: main reports it and
    # returns 1, not a traceback; every estimator's sweep runs through
    # engine.sweep_paths
    from sdelab import engine

    def broken_sweep(*args, **kwargs):
        raise InvariantError("sweep lost a captured state")

    monkeypatch.setattr(engine, "sweep_paths", broken_sweep)
    cfg = json.loads(_hitting_config(n_paths=200,
                                     policy={"kind": "fixed", "h_max": 1e-2}))
    cfg["experiment"] = "displacement"
    cfg["params"] = {"A": 2.0, "k": 1, "t": 0.2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "captured state" in capsys.readouterr().err


def test_integral_requires_1d_field():
    cfg = json.loads(_hitting_config())
    cfg["field"] = {"name": "diag-linear", "params": {"d": 2}}
    cfg["start"] = [1.0, 1.0]
    cfg["experiment"] = "integral-1d"
    cfg["params"] = {"a": 1.0}
    with pytest.raises(InvalidInputError, match="1-d"):
        sl.parse_scenario(json.dumps(cfg))


def test_run_writes_report_and_tables(tmp_path):
    config = sl.parse_scenario(_hitting_config())
    report = run_scenario(config)
    files = write_report(report, tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "table_hitting.csv").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc) == {"header", "payload", "tables"}
    assert doc["header"]["config"]["experiment"] == "hitting"
    assert "timestamp_utc" in doc["header"]
    assert len(doc["payload"]["estimates"]) == 3
    csv_text = (tmp_path / "table_hitting.csv").read_text()
    assert csv_text.splitlines()[0] == \
        "eps,point,ci_low,ci_high,n,censored_n,method"
    assert len(files) == 2


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_rerun_is_byte_identical(tmp_path, name):
    # one parsed config runs again and again, as perfbench repeats it
    config = parse_scenario(json.dumps(SCENARIOS[name]))
    payloads = []
    tables = []
    for sub in ("a", "b"):
        report = run_scenario(config)
        files = write_report(report, tmp_path / sub)
        payloads.append(json.dumps(report.payload, sort_keys=True))
        tables.append([Path(f).read_bytes() for f in files[1:]])
    assert payloads[0] == payloads[1]
    assert tables[0] == tables[1]


def test_a_run_builds_its_field_and_estimate_once(tmp_path, monkeypatch):
    # parse_scenario builds the field and resolves the estimated bound;
    # run_scenario runs what the parse prepared
    calls = {"make_field": 0, "estimate_lipschitz": 0}

    def counting(name):
        real = getattr(cf, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(cf, name, counting(name))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        **BASE, **_SQRT, "params": {"A": 2.0, "k": 1, "t_grid": [0.01]},
        "lipschitz": {"mode": "estimated"}}))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"make_field": 1, "estimate_lipschitz": 1}


def test_a_report_that_is_not_strict_json_is_not_written(tmp_path):
    report = run_scenario(sl.parse_scenario(_hitting_config()))
    report.payload["estimates"][0]["point"] = float("inf")
    with pytest.raises(InvariantError, match="not strict JSON"):
        write_report(report, tmp_path)
    assert not (tmp_path / "report.json").exists()


def test_worker_count_does_not_change_payload():
    config = sl.parse_scenario(_hitting_config())
    p1 = json.dumps(run_scenario(config, workers=1).payload, sort_keys=True)
    p4 = json.dumps(run_scenario(config, workers=4).payload, sort_keys=True)
    assert p1 == p4


def test_main_run_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_hitting_config())
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0

    # unsatisfied bound check: the non-Lipschitz negative control
    bad = {
        "field": {"name": "power-law-1d",
                  "params": {"alpha": 0.5, "lipschitz_k": 1.0}},
        "start": [1e-4],
        "horizon": 1.0,
        "policy": {"kind": "fixed", "h_max": 1e-6},
        "n_paths": 800,
        "master_seed": 6,
        "experiment": "level-change",
        "params": {"A": 2e-4, "k": 1, "t": 0.01},
    }
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["run", str(bad_path), "--out", str(tmp_path / "out2")]) == 2

    # invalid config -> exit 1
    broken = tmp_path / "broken.json"
    broken.write_text(_hitting_config(experiment="nope"))
    assert main(["run", str(broken), "--out", str(tmp_path / "out3")]) == 1
    capsys.readouterr()


def test_main_validate_and_catalog(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_hitting_config())
    assert main(["validate", str(cfg_path)]) == 0
    echo = json.loads(capsys.readouterr().out)
    assert echo["experiment"] == "hitting"

    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "linear-1d" in out and "power-law-1d" in out


def test_scipy_stays_unloaded(tmp_path):
    # Only integral-1d imports scipy.  All steps run in one fresh
    # interpreter, which records the scipy modules loaded after each.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_hitting_config(
        n_paths=100, horizon=0.1, policy={"kind": "fixed", "h_max": 1e-2}))
    script = f"""
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
steps = {{}}
import sdelab
from sdelab import cli
steps["import"] = loaded()
assert cli.main(["catalog"]) == 0
steps["catalog"] = loaded()
assert cli.main(["validate", {str(cfg_path)!r}]) == 0
steps["validate"] = loaded()
with open({str(cfg_path)!r}) as fh:
    report = cli.run_scenario(cli.parse_scenario(fh.read()))
assert report.payload["estimates"][0]["method"] == "wilson"
steps["hitting"] = loaded()
print(json.dumps(steps))
"""
    src = str(Path(sl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.strip().splitlines()[-1])
    assert steps == {"import": [], "catalog": [], "validate": [],
                     "hitting": []}


def test_main_replay(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_hitting_config(n_paths=100))
    assert main(["replay", str(cfg_path), "--path", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "t,x_1,level"
    assert len(lines) > 10
    # a path index numpy would reject is a typed error, not a traceback
    assert main(["replay", str(cfg_path), "--path", "-1"]) == 1
    assert "-1): entries must be non-negative" in capsys.readouterr().err
    # a replay runs under the config's master seed
    with pytest.raises(SystemExit) as usage:
        main(["replay", str(cfg_path), "--path", "3", "--seed", "1"])
    assert usage.value.code == 2


def test_replay_out_file_is_written_only_on_success(tmp_path, capsys):
    # a failing replay leaves an existing --out-file as it was; a good one
    # writes the bytes it prints without --out-file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_hitting_config(n_paths=100))
    out = tmp_path / "path.csv"
    out.write_bytes(b"an earlier replay\n")
    assert main(["replay", str(cfg_path), "--path", "-1",
                 "--out-file", str(out)]) == 1
    assert out.read_bytes() == b"an earlier replay\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "path.csv"]
    capsys.readouterr()
    assert main(["replay", str(cfg_path), "--path", "3"]) == 0
    printed = capsys.readouterr().out
    assert main(["replay", str(cfg_path), "--path", "3",
                 "--out-file", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("path", [0, 3, 57])
def test_replay_path_is_row_of_the_run(tmp_path, path):
    # `replay --path i` simulates path i of the run: its grid-minimum level
    # is, bit for bit, the sweep's minimum level of index i under the
    # scenario's master seed, policy and horizon
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_hitting_config(
        n_paths=100, policy={"kind": "level-adaptive", "h_max": 1e-2,
                             "h_min": 1e-5, "level_fraction": 0.05}))
    out = tmp_path / "path.csv"
    assert main(["replay", str(cfg_path), "--path", str(path),
                 "--out-file", str(out)]) == 0
    with open(out, newline="") as fh:
        replayed = min(float(row["level"]) for row in csv.DictReader(fh))
    config = sl.parse_scenario(cfg_path.read_text())
    field = config.field
    one = sl.sweep_paths(field, config.start, config.horizon, config.policy,
                         config.master_seed, [path])
    run = sl.sweep_paths(field, config.start, config.horizon, config.policy,
                         config.master_seed, np.arange(60))
    assert replayed == one.min_levels[0] == run.min_levels[path]


def test_sqrt_bound_scenario_end_to_end(tmp_path):
    cfg = {
        "field": {"name": "linear-1d"},
        "start": [1.0],
        "horizon": 1.0,
        "policy": {"kind": "fixed", "h_max": 1e-4},
        "n_paths": 2000,
        "master_seed": 3,
        "experiment": "sqrt-bound",
        "params": {"A": 2.0, "k": 1},
    }
    config = sl.parse_scenario(json.dumps(cfg))
    report = run_scenario(config)
    assert report.checks and report.all_satisfied
    payload = report.payload
    assert payload["constant"] == pytest.approx(sl.escape_rate_constant(1, 1))
    assert len(payload["reports"]) == len(payload["t_grid"])
    write_report(report, tmp_path)
    assert (tmp_path / "table_sqrt_bound.csv").exists()


def test_sqrt_bound_fits_no_exponent_through_one_t(tmp_path):
    # a t grid of one distinct t has exits at it, but no line to fit
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        **BASE, **_SQRT, "n_paths": 2000, "policy": {"kind": "fixed",
                                                     "h_max": 1e-3},
        "params": {"A": 2.0, "k": 1, "t_grid": [0.1, 0.1]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _main(["run", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0 and err == [], err
    payload = json.loads((tmp_path / "report.json").read_text())["payload"]
    assert 0 < payload["reports"][0]["lhs"]["point"] < 1
    assert payload["fitted_exponent"] is None


def test_engine_validation_scenario():
    cfg = {
        "field": {"name": "linear-1d"},
        "start": [1.0],
        "horizon": 1.0,
        "n_paths": 400,
        "master_seed": 5,
        "experiment": "engine-validation",
        "params": {"h_exponents": [4, 5, 6, 7, 8]},
    }
    report = run_scenario(sl.parse_scenario(json.dumps(cfg)))
    assert report.payload["satisfied"]
    assert report.all_satisfied


def test_integral_scenario_divergent():
    cfg = {
        "field": {"name": "power-law-1d", "params": {"alpha": 1.0}},
        "start": [1.0],
        "horizon": 1.0,
        "n_paths": 1,
        "master_seed": 1,
        "experiment": "integral-1d",
        "params": {"a": 1.0},
    }
    report = run_scenario(sl.parse_scenario(json.dumps(cfg)))
    assert report.payload["verdict"] == "divergent"


def test_dyadic_scenario_table(tmp_path):
    cfg = {
        "field": {"name": "linear-1d"},
        "start": [1.0],
        "horizon": 20.0,
        "policy": {"kind": "fixed", "h_max": 2e-3},
        "n_paths": 50,
        "master_seed": 11,
        "experiment": "dyadic-escape",
        "params": {"depth": 3},
    }
    report = run_scenario(sl.parse_scenario(json.dumps(cfg)))
    assert report.payload["t0"] == pytest.approx(1 / 768, rel=1e-9)
    assert len(report.payload["per_band"]) == 3
    write_report(report, tmp_path)
    lines = (tmp_path / "table_dyadic_escape.csv").read_text().splitlines()
    assert lines[0] == "path_id,k,increment,censored,ge_t0"
    assert len(lines) == 1 + 50 * 3
