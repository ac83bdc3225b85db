"""Golden sha256 digests of `sweep_paths` results, field by field.

The payload goldens of tests/test_golden_payloads.py see only reductions of
a sweep; a change that moves end times, end states or capture states on a
few rows can leave every payload byte as it was.  Each spec here runs one
256-path sweep and hashes every array of its `SweepResult` on its own, so a
failure names the fields that moved.  If the move is intended, the change
says why and records the new digests.  Like the payload digests they depend
on numpy's random streams, so they are pinned to the numpy major.minor they
were recorded with.

Regenerate with ``PYTHONPATH=src python tests/test_sweep_digests.py``.
"""

import dataclasses
import hashlib
import sys

import numpy as np
import pytest

from sdelab import StepPolicy, make_field, sweep_paths

RECORDED_NUMPY = "2.4"
N_PATHS = 256

_LINEAR = make_field("linear-1d")
_SQRT = make_field("power-law-1d", alpha=0.5)


def _ladder(level: float, depth: int = 8) -> tuple:
    # the dyadic-escape barriers: the start level halved 1..depth times
    return tuple(level / 2.0 ** (j + 1) for j in range(depth))


# name -> (field, start, horizon, policy, master, sweep keywords)
SPECS = {
    # a linear-1d band at A = 2, k = 1, with bridge triggers and captures
    "band-bridge-captures": (
        _LINEAR, [1.0], 1.0, StepPolicy.fixed(1e-2), 11,
        {"barriers": (0.5, 2.0), "bridge": True,
         "capture_times": (0.01, 0.1, 0.03, 1.0)}),
    "band-adaptive-noise-sum": (
        _LINEAR, [1.0], 1.0, StepPolicy("level-adaptive", h_max=1e-2), 12,
        {"barriers": (0.5, 2.0), "track_noise_sum": True}),
    # dyadic ladders: inner barriers only record their times
    "ladder-linear-bridge": (
        _LINEAR, [1.0], 2.0, StepPolicy.fixed(1e-3), 13,
        {"barriers": _ladder(1.0), "bridge": True}),
    "ladder-sqrt-fixed-bridge": (
        _SQRT, [1.0], 2.0, StepPolicy.fixed(1e-3), 14,
        {"barriers": _ladder(1.0), "bridge": True}),
    # the hitting estimator's sweep: stop at the deepest eps, retire blowups
    "hitting-retire": (
        _SQRT, [1.0], 2.0, StepPolicy("level-adaptive", h_max=1e-2,
                                      h_min=1e-5), 15,
        {"min_level_retire": 1e-2, "on_blowup": "retire"}),
    # explicit steps of sigma = |x|^3 blow up, here under the bridge
    "blowup-bridge": (
        make_field("power-law-1d", alpha=3.0), [1.0], 4.0,
        StepPolicy.fixed(1.0 / 8.0), 16,
        {"barriers": (1e6, 1e66, 1e300), "bridge": True,
         "on_blowup": "retire"}),
    # diag-linear in d = 3 has level 2 |x|^2, 6 at the start
    "diag-linear-3d-captures": (
        make_field("diag-linear", d=3), [1.0, 1.0, 1.0], 1.0,
        StepPolicy.fixed(1e-2), 17,
        {"barriers": (3.0, 12.0), "capture_times": (0.1, 0.5, 1.0)}),
    # the persistence checker's one down barrier
    "persistence": (
        _LINEAR, [1.0], 0.1, StepPolicy.fixed(1e-3), 18,
        {"barriers": (0.5,)}),
}


def sweep_digests(name: str) -> dict:
    """sha256 of each array of the spec's SweepResult, over its dtype, shape
    and bytes; fields that are None are left out."""
    field, start, horizon, policy, master, keywords = SPECS[name]
    res = sweep_paths(field, np.array(start), horizon, policy, master,
                      np.arange(N_PATHS), **keywords)
    digests = {}
    for f in dataclasses.fields(res):
        arr = getattr(res, f.name)
        if arr is not None:
            arr = np.ascontiguousarray(arr)
            digests[f.name] = hashlib.sha256(
                f"{arr.dtype.str} {arr.shape}".encode()
                + arr.tobytes()).hexdigest()
    return digests


# recorded with numpy 2.4.6
GOLDEN = {
    "band-adaptive-noise-sum": {
        "end_times":
            "9be7ff4ae45af53fc53f692be6ba8c226378b16e9114e6a917e529950543cb42",
        "end_states":
            "d12c0768eee27510ef3ece31e75006297474ea87421387f65eedca935fd57262",
        "min_levels":
            "6d64d6f893e3986df75c8ec2be38df166ef2c4880be79b5b728464a96f0c32cb",
        "cross_times":
            "4ca6f4d27fbce73d6be98cac2cc19f464a5309794fc496b0bc31ce2cb17d400e",
        "cross_bridge":
            "fdb5f052824083f2ca26f669abadb77fca3d53d5968513128b7a77725daec275",
        "capture_state":
            "d6b4ad29221a62bf705584143d4ee39d4521eb8e5b7a808f80e74f5d1fe7ac71",
        "absorbed":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
        "blown_up":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
        "noise_sum":
            "2d8677dcbbf2633169f45b895e5182e30918c97b3e88a65c5f71457820650a90",
    },
    "band-bridge-captures": {
        "end_times":
            "9158a64fa5ce47e6743a62f2665b9f24c1ef50c9a7e8e09eca9f6a264d75535c",
        "end_states":
            "ceed65eb6880da43b99584567dcedf478bacd50457f28c8a1c66ca2c90b12dfb",
        "min_levels":
            "728e6dde40b7046b8b864e74b088924a8ed0f85621ed7ca9d4a9c7a8132642b2",
        "cross_times":
            "9cb9f5a4344e40293396e77f4c9c5497bc6cc8dbd41e50bed710585ef3f3c10d",
        "cross_bridge":
            "ad727542d3a8ef3c7e5505d55e13d437a1d5f0c9b8fc9c5a25f052858186f7fe",
        "capture_state":
            "90d0274dd0dcd538ea468609f09a6cca06b3491207c5eaa0a102a7926f195fb1",
        "absorbed":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
        "blown_up":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
    },
    "blowup-bridge": {
        "end_times":
            "82d38671a492e0f7e6193436ef44fad3c64ffef3d515caeb6d41e2daff1d0f73",
        "end_states":
            "4ec18bc2f81d35a077a2b34ef624d94e99a9feeddf633b71010a0727f389d77a",
        "min_levels":
            "d6e8e2c52cd001790060c5b4952b7e8f6d9764818e3127cdfb3e7d46e1ba4fd1",
        "cross_times":
            "45823f781d5832d45c0d23936f71be305e4f1aeb310f76d9c51554f263c21889",
        "cross_bridge":
            "86dfcd7be150ff7c88397cae2d378d51cdc815aacf0fa566d95829abe769db72",
        "capture_state":
            "d6b4ad29221a62bf705584143d4ee39d4521eb8e5b7a808f80e74f5d1fe7ac71",
        "absorbed":
            "7f39567e84681686928427655d340488003b3dc489846b0153f7810201c61054",
        "blown_up":
            "e165858bbf2a6f6b7675b4c40afc1f13ec873f0ddbb925a8a6494880def681cc",
    },
    "diag-linear-3d-captures": {
        "end_times":
            "3adabe79cf32eb6776da15521d60802f5d907460016807b8f543e857bb806e0f",
        "end_states":
            "911a038fd7ed096d4816daf820974703876375a42e9a56036ff990af60c446f3",
        "min_levels":
            "b47c577fba712f2dde8433abd04e35484ddc405d3466468e3635598aeaeb705c",
        "cross_times":
            "fadc3e4f0b465221e35625a2fe8e85cf1d6e782e8cb955bacd836f9f8f3d0eb6",
        "cross_bridge":
            "fdb5f052824083f2ca26f669abadb77fca3d53d5968513128b7a77725daec275",
        "capture_state":
            "e41dec2de7017703215f360ab28c5733c122df5daaa1dae64a81e0f4cd373d7d",
        "absorbed":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
        "blown_up":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
    },
    "hitting-retire": {
        "end_times":
            "6cb18bedbf3ca8dda27679655bc951f0d91e85a4386816a15424c17c6075fd54",
        "end_states":
            "65959d4007abd5454920ee5cbf55f7654d2e6fa35e81d36c4ca606e816aa50f4",
        "min_levels":
            "9ec63afb318d065f1744d2e868ec46371dd653aed491ed5966303b23f25b8554",
        "cross_times":
            "ca1b3395a627efa0f505efc5285af469e4c615a73f4bbc540fd35b5186829489",
        "cross_bridge":
            "af8aea3c39505050d59614e80b120fe63bddfb147c953d3723b9f6daa8b4c65c",
        "capture_state":
            "d6b4ad29221a62bf705584143d4ee39d4521eb8e5b7a808f80e74f5d1fe7ac71",
        "absorbed":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
        "blown_up":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
    },
    "ladder-linear-bridge": {
        "end_times":
            "39eac1b5588c080766c36d111315f8c45119b7707e2c416a7ae2271fb3ff11fa",
        "end_states":
            "a121d29d60c1b0f893683004f7b693b27282d06b987f1ef928166b1a7290f7e0",
        "min_levels":
            "a2e5f41ebbd9068489e9f91c2e426ec767c177458c497e7089c3be13ef9c98f0",
        "cross_times":
            "24b3d8ff8d7c1120c6f49f864caf68aa104326d3ca8f2106ab6915046654f0da",
        "cross_bridge":
            "58702bfc404ae556d223bbb42a48c39590b643c872316924b1794f2a1c235933",
        "capture_state":
            "d6b4ad29221a62bf705584143d4ee39d4521eb8e5b7a808f80e74f5d1fe7ac71",
        "absorbed":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
        "blown_up":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
    },
    "ladder-sqrt-fixed-bridge": {
        "end_times":
            "e398b01f3c304d568582c297f8b607e6a535ea137902e002f415d9a788eed060",
        "end_states":
            "5138f3eab016d1e0a88fcf874a9626503679b97b3e9dbda5534e4a95d3ebb546",
        "min_levels":
            "a125544611871b99832456e149d9b42bcd492db8b541ab340ef67a8d66889052",
        "cross_times":
            "0f74e975ab3235e0fcc73fabb475381efb473384d276c8452d489851ac8625b6",
        "cross_bridge":
            "b3d92be8e50bee235050e2333d71ec39280a6bd450daa4bb14cbb474c84e799d",
        "capture_state":
            "d6b4ad29221a62bf705584143d4ee39d4521eb8e5b7a808f80e74f5d1fe7ac71",
        "absorbed":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
        "blown_up":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
    },
    "persistence": {
        "end_times":
            "0188013335989cf9cacefef8a772c829ac4608673232db4731a06e62a7b949ec",
        "end_states":
            "20f53d69f35e2ffd7372f538a78351f496d70ed632e733a7086291e8455a1421",
        "min_levels":
            "4187fe3d27d3f5745879b1241d9f66de123223dcec7ffac502cba592dd09d78d",
        "cross_times":
            "c66c1ce45631fff6d1da758c88b4387e7f9f631571dd952395548c0adb1e1e75",
        "cross_bridge":
            "b3ba3b81b3c7a78fbf67c382d5fff0e29cea56fef7a4d2a26d617757497bec4b",
        "capture_state":
            "d6b4ad29221a62bf705584143d4ee39d4521eb8e5b7a808f80e74f5d1fe7ac71",
        "absorbed":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
        "blown_up":
            "7ef4e10ee28fc56c7c3ef16db4fe3bd40eecd1cb79b27f75b3540e8fb3e60289",
    },
}


def _numpy_major_minor() -> str:
    return ".".join(np.__version__.split(".")[:2])


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sweep_digest_is_unchanged(name):
    if _numpy_major_minor() != RECORDED_NUMPY:
        pytest.skip(f"digests recorded with numpy {RECORDED_NUMPY}")
    digests = sweep_digests(name)
    assert sorted(digests) == sorted(GOLDEN[name])
    moved = [f for f in digests if digests[f] != GOLDEN[name][f]]
    assert not moved, f"{name}: the digests of {moved} moved"


if __name__ == "__main__":
    for key in sorted(SPECS):
        print(f'    "{key}": {{')
        for f, digest in sweep_digests(key).items():
            print(f'        "{f}":\n            "{digest}",')
        print("    },")
    print(f"numpy {np.__version__}", file=sys.stderr)
