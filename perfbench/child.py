"""One workload process of the benchmark.

    python3 child.py parse SCENARIO SRC
        import sdelab, parse the scenario, print "ready" and exit
        (one sample of set-up time)
    python3 child.py run SCENARIO SRC OUT_DIR SECONDS TRACE
        run the scenario through ``cli.run_scenario`` and ``cli.write_report``
        with workers=1: one untimed warm-up repeat, then timed repeats back to
        back for SECONDS; print one JSON line of results

This process imports nothing beyond the standard library, ``sdelab`` and the
scenario; with TRACE=1 it also loads ``tracing.py``, which wraps the
package's functions.  SRC is the ``src`` directory the package must come
from.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _import_sdelab(src: str):
    import sdelab
    found = Path(sdelab.__file__).resolve().parent.parent
    if found != Path(src).resolve():
        sys.exit(f"sdelab was imported from {found}, not from {src}")
    from sdelab import cli
    return cli


def payload_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 and size of a report's payload bytes.

    These are the payload section of report.json, serialized as the CLI
    writes it, and every CSV table; the run-varying header is left out.
    """
    doc = json.loads((out_dir / "report.json").read_text())
    blobs = [json.dumps(doc["payload"], indent=2, sort_keys=True).encode()]
    blobs += [(out_dir / name).read_bytes() for name in doc["tables"]]
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(hashlib.sha256(blob).digest())
    return digest.hexdigest(), sum(len(b) for b in blobs)


def _repeats(repeat, seconds: float) -> list[float]:
    times = []
    t_end = time.perf_counter() + seconds
    while not times or time.perf_counter() < t_end:
        times.append(repeat())
    return times


def run(scenario: str, src: str, out_dir: str, seconds: float,
        trace: bool) -> dict:
    cli = _import_sdelab(src)
    text = Path(scenario).read_text()
    config = cli.parse_scenario(text)
    out = Path(out_dir)
    digests: list[str] = []

    def repeat() -> float:
        t0 = time.perf_counter()
        report = cli.run_scenario(config, workers=1)
        cli.write_report(report, out)
        elapsed = time.perf_counter() - t0
        digest, size = payload_digest(out)
        digests.append(digest)
        result["output_bytes"] = size
        return elapsed

    result: dict = {"n_paths": config.n_paths}
    result["warmup_s"] = repeat()
    if not trace:
        result["wall_s"] = _repeats(repeat, seconds)
    else:
        import tracing
        # Half of the time untraced, half traced: the difference of the two
        # medians is the tracing overhead.
        result["wall_s"] = _repeats(repeat, seconds / 2.0)
        parse_s = []
        for _ in range(9):
            t0 = time.perf_counter()
            cli.parse_scenario(text)
            parse_s.append(time.perf_counter() - t0)
        result["parse_s"] = statistics.median(parse_s)
        tracer = tracing.Tracer()
        tracer.install()
        layers: list[dict] = []
        spans: list = []

        def traced_repeat() -> float:
            tracer.spans = []
            elapsed = repeat()
            layers.append(tracing.summarize(tracer.spans))
            spans.append(tracer.spans)
            return elapsed

        result["traced_wall_s"] = _repeats(traced_repeat, seconds / 2.0)
        tracer.uninstall()
        result["layers"] = layers
        result["bridge_s"] = _bridge_cost(tracer.first_sweep)
        (out.parent / "trace.json").write_text(json.dumps(spans) + "\n")
    result["digests"] = digests
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def _bridge_cost(first_sweep) -> float:
    """The first chunk swept with the bridge on minus the same chunk off."""
    from sdelab import engine
    args, kwargs = first_sweep
    if not kwargs.get("bridge"):
        return 0.0
    cost = {}
    for flag in (False, True):
        t0 = time.perf_counter()
        engine.sweep_paths(*args, **{**kwargs, "bridge": flag})
        cost[flag] = time.perf_counter() - t0
    return cost[True] - cost[False]


def main(argv: list[str]) -> int:
    mode, scenario, src = argv[:3]
    if mode == "parse":
        cli = _import_sdelab(src)
        cli.parse_scenario(Path(scenario).read_text())
        print("ready", flush=True)
        return 0
    out_dir, seconds, trace = argv[3], float(argv[4]), argv[5] == "1"
    print(json.dumps(run(scenario, src, out_dir, seconds, trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
