"""Golden sha256 digests of `sdelab run` payload bytes, one scenario per kind.

Each digest covers the payload section of report.json, serialized as
``write_report`` writes it, and every CSV table.  A change that moves any
payload byte of these small runs fails here; if the move is intended, the PR
says why and records the new digests.  Digests depend on numpy's random
streams, so they are pinned to the numpy major.minor they were recorded with.

Regenerate with ``PYTHONPATH=src python tests/test_golden_payloads.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sdelab.cli import parse_scenario, run_scenario, write_report

RECORDED_NUMPY = "2.4"

_LINEAR = {"field": {"name": "linear-1d"}, "start": [1.0], "horizon": 1.0,
           "master_seed": 11}

SCENARIOS = {
    "hitting": {
        "field": {"name": "power-law-1d", "params": {"alpha": 0.5}},
        "start": [1.0], "horizon": 0.5, "master_seed": 3, "n_paths": 200,
        "policy": {"kind": "level-adaptive", "h_max": 1e-2, "h_min": 1e-5},
        "experiment": "hitting", "params": {"eps_grid": [1e-1, 1e-2, 1e-3]}},
    # the default t grid never produces a band exit on linear-1d
    "sqrt-bound-default-grid": {
        **_LINEAR, "n_paths": 200, "policy": {"kind": "fixed", "h_max": 1e-3},
        "experiment": "sqrt-bound", "params": {"A": 2.0, "k": 1}},
    # coarse steps and a grid reaching 0.1: exits and bridge triggers happen
    "sqrt-bound-bridge": {
        **_LINEAR, "n_paths": 400, "policy": {"kind": "fixed", "h_max": 1e-2},
        "experiment": "sqrt-bound", "bridge": "auto",
        "params": {"A": 2.0, "k": 1, "t_grid": [0.01, 0.03, 0.1]}},
    # K estimated on the default box around the start, recorded in k_source
    "sqrt-bound-estimated": {
        **_LINEAR, "n_paths": 200, "policy": {"kind": "fixed", "h_max": 1e-2},
        "experiment": "sqrt-bound", "lipschitz": {"mode": "estimated"},
        "params": {"A": 2.0, "k": 1, "t_grid": [0.01, 0.03, 0.1]}},
    "displacement": {
        **_LINEAR, "n_paths": 200, "policy": {"kind": "fixed", "h_max": 1e-2},
        "experiment": "displacement", "params": {"A": 2.0, "k": 1, "t": 0.2}},
    "level-change": {
        **_LINEAR, "n_paths": 200, "policy": {"kind": "fixed", "h_max": 1e-2},
        "experiment": "level-change", "params": {"A": 2.0, "k": 1, "t": 0.2}},
    # the capture time is the horizon, here and in level-change-2d
    "displacement-at-horizon": {
        **_LINEAR, "n_paths": 200, "policy": {"kind": "fixed", "h_max": 1e-2},
        "experiment": "displacement", "params": {"A": 2.0, "k": 1, "t": 1.0}},
    "level-change-2d": {
        "field": {"name": "diag-linear", "params": {"d": 2}},
        "start": [0.5, 0.5], "horizon": 1.0, "master_seed": 11, "n_paths": 200,
        "policy": {"kind": "fixed", "h_max": 1e-2},
        "experiment": "level-change", "params": {"A": 2.0, "k": 1, "t": 1.0}},
    "persistence": {
        **_LINEAR, "n_paths": 200, "policy": {"kind": "fixed", "h_max": 1e-3},
        "experiment": "persistence", "params": {"A": 2.0, "k": 1}},
    "dyadic-escape-bridge": {
        **_LINEAR, "n_paths": 64,
        "policy": {"kind": "level-adaptive", "h_max": 1e-2},
        "experiment": "dyadic-escape", "params": {"depth": 4}},
    "dyadic-escape-2d": {
        "field": {"name": "diag-linear", "params": {"d": 2}},
        "start": [1.0, 1.0], "horizon": 1.0, "master_seed": 5, "n_paths": 64,
        "policy": {"kind": "level-adaptive", "h_max": 1e-2},
        "experiment": "dyadic-escape", "params": {"depth": 4}},
    "integral-1d": {
        **_LINEAR, "n_paths": 1, "experiment": "integral-1d",
        "params": {"a": 1.0}},
    # a finite verdict: its value and error come from the Gauss-Legendre rule
    "integral-1d-finite": {
        **_LINEAR, "n_paths": 1, "experiment": "integral-1d",
        "field": {"name": "power-law-1d", "params": {"alpha": 0.75}},
        "params": {"a": 1.0}},
    "engine-validation": {
        **_LINEAR, "n_paths": 64, "experiment": "engine-validation",
        "params": {"h_exponents": [3, 4, 5]}},
}

# recorded with numpy 2.4.6
GOLDEN = {
    "displacement":
        "bf74d306f13be1b7156f95d91f3a58d22b4bc9d06329eca25dd38dc9aab326fb",
    "displacement-at-horizon":
        "da96231835d18c13033a939aaeb720564b2a04fb255fc38034cdbe5e3762a1b3",
    "dyadic-escape-2d":
        "14f6586857a98c6948b406da50a4d86e32fef7a7801e90facb020ab58fae391e",
    "dyadic-escape-bridge":
        "fdf2701d524418de047a0e1216d54bf0c8ad948ba22b910e34c62b5e4c0e3346",
    "engine-validation":
        "4c4d99b000bca2a57e531c79905e83910779a02951251afb3a96f0e8003e51f9",
    "hitting":
        "c8ff9e905173f4a67cdde25bd8920d97639a10f7fe05c77b6eb7bccb468b778e",
    "integral-1d":
        "ffad3ecbd51ac325cf200d5b90f99a7d5798d65f31e7c152e4dcaf1ce00d633e",
    "integral-1d-finite":
        "fb1f557c2a38d8a2f78c117c81805f9ef40ed90e0d3fdebea7806dd5505ca52f",
    "level-change":
        "e3cf704065c2036918cc7ae8362109ac16b42f3bc7c018f486b89ff92a29b221",
    "level-change-2d":
        "b71edf3837c80f23de4557c091a7ec76829e65ba495fe0e155d190ab6685fb85",
    "persistence":
        "c495b23070416f95e7ec75f1304bc18e0f6ab8ef9894aab624f54468269a1fac",
    "sqrt-bound-bridge":
        "bd634f854acf487e81461350c504ea533a335862e5d90d5cd8e2017995cbfbee",
    "sqrt-bound-default-grid":
        "0521e1873de8538db1638678e93e8e4e019ed1cc483cc957e36d0009aa284ee7",
    "sqrt-bound-estimated":
        "12b7e4993037f9357cb6ef56ad941d7a02b67f7664cac9f979da1b1b72bc7c30",
}


def report_digest(out_dir: Path) -> str:
    """sha256 over the sha256 of the payload bytes and of each CSV table of
    the report written to ``out_dir``."""
    doc = json.loads((out_dir / "report.json").read_text())
    blobs = [json.dumps(doc["payload"], indent=2, sort_keys=True).encode()]
    blobs += [(out_dir / name).read_bytes() for name in doc["tables"]]
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(hashlib.sha256(blob).digest())
    return digest.hexdigest()


def payload_digest(config: dict, out_dir: Path, workers: int) -> str:
    report = run_scenario(parse_scenario(json.dumps(config)), workers=workers)
    write_report(report, out_dir)
    return report_digest(out_dir)


def _numpy_major_minor() -> str:
    return ".".join(np.__version__.split(".")[:2])


# workers=2 sends every chunk's sweep spec and reducer through the process
# pool, the reducer pickled as a module-level function; the digests must not
# depend on it.
@pytest.mark.parametrize("name, workers", [
    pytest.param(name, workers, id=name if workers == 1 else f"{name}-workers2")
    for name in sorted(SCENARIOS) for workers in (1, 2)])
def test_payload_digest_is_unchanged(name, workers, tmp_path):
    if _numpy_major_minor() != RECORDED_NUMPY:
        pytest.skip(f"digests recorded with numpy {RECORDED_NUMPY}")
    assert payload_digest(SCENARIOS[name], tmp_path, workers) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for key in sorted(SCENARIOS):
            out = Path(tmp) / key
            print(f'    "{key}":\n        "{payload_digest(SCENARIOS[key], out, 1)}",')
    print(f"numpy {np.__version__}", file=sys.stderr)
