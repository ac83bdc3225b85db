"""Benchmark of ``sdelab run``: one workload per call, checked and timed.

    python3 perfbench/run.py --workload escape-bridge --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the run measures the end-to-end metrics of
``BENCHMARK.json``: set-up time over several fresh interpreters, then one
workload process with an untimed warm-up repeat and timed repeats back to
back for ``--seconds``.  With ``--trace 1`` the workload process wraps the
package's layers and reports the per-layer metrics instead.  Either way the
outputs are checked against the references of ``references.py``; the last
line of standard output is one JSON object, and a failed check makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 3
# Fresh interpreters run under -X importtime per traced run.
IMPORTTIME_SAMPLES = 3
# Limit for one set-up or import-time probe.
PROBE_TIMEOUT_S = 150
# Limit for the workload process beyond --seconds: start-up, the warm-up
# repeat, the last repeat's overrun and, when traced, the bridge sweeps.
RUN_MARGIN_S = 120


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # one process on shared cores: keep native thread pools out of it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_sample(scenario: Path) -> float:
    """Seconds from spawning an interpreter to sdelab imported and the
    scenario parsed."""
    t0 = perf_counter()
    with subprocess.Popen(
            [sys.executable, str(CHILD), "parse", str(scenario), str(SRC)],
            stdout=subprocess.PIPE, env=_child_env(), text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def verification_import_s() -> float:
    """Cumulative import time of sdelab.verification by -X importtime."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import sdelab"], capture_output=True,
                              text=True, env=_child_env(),
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import sdelab failed:\n{proc.stderr[-2000:]}")
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "sdelab.verification":
                samples.append(int(fields[1]) * 1e-6)
    if len(samples) != IMPORTTIME_SAMPLES:
        raise BenchError("sdelab.verification missing from -X importtime")
    return statistics.median(samples)


def run_child(scenario: Path, out_dir: Path, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), "run", str(scenario), str(SRC),
         str(out_dir), str(seconds), str(trace)],
        capture_output=True, text=True, env=_child_env(),
        timeout=seconds + RUN_MARGIN_S)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed with exit code "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_report(out_dir: Path) -> tuple[dict, dict]:
    doc = json.loads((out_dir / "report.json").read_text())
    tables = {}
    for name in doc["tables"]:
        with open(out_dir / name, newline="") as fh:
            key = name.removeprefix("table_").removesuffix(".csv")
            tables[key] = list(csv.DictReader(fh))
    return doc["payload"], tables


def layer_metrics(result: dict, units: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run: medians over the traced repeats,
    and counts that must agree between every repeat."""
    failures = []
    layers = result["layers"]
    values = {}
    for name in layers[0]:
        series = [layer[name] for layer in layers]
        if units[name] in ("count", "bytes"):
            if len(set(series)) != 1:
                failures.append(f"{name} differs between repeats: {series}")
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    values["cli.parse_s"] = result["parse_s"]
    values["cli.output_bytes"] = result["output_bytes"]
    values["engine.bridge_s"] = result["bridge_s"]
    values["verification.import_s"] = verification_import_s()
    values["trace.overhead_s"] = (statistics.median(result["traced_wall_s"])
                                  - statistics.median(result["wall_s"]))
    return values, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "sdelab" / "__init__.py").is_file():
        print(f"error: no sdelab package under {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    scenario_of, check = WORKLOADS[args.workload]
    scenario = scenario_of(args.seed)

    work = HERE / "_work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario_path = work / "scenario.json"
    scenario_path.write_text(json.dumps(scenario, indent=2) + "\n")
    out_dir = work / "report"

    try:
        setup = ([] if args.trace else
                 [setup_sample(scenario_path) for _ in range(SETUP_SAMPLES)])
        result = run_child(scenario_path, out_dir, args.seconds, args.trace)
        failures = []
        if args.trace:
            values, failures = layer_metrics(result, units)
        else:
            wall = statistics.median(result["wall_s"])
            values = {"setup_s": statistics.median(setup), "wall_s": wall,
                      "paths_per_s": result["n_paths"] / wall,
                      "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digests = result["digests"]
    if len(set(digests)) != 1:
        failures.append(f"payload bytes differ between repeats: {digests}")
    payload, tables = read_report(out_dir)
    failures += check(payload, tables)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(f"payload_sha256 {args.workload} seed={args.seed} {digests[0]}")
    print(f"repeats: warm-up {result['warmup_s']:.3f} s, timed "
          + " ".join(f"{t:.3f}" for t in result["wall_s"]))
    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(digests),
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
