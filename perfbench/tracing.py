"""Spans around calls into sdelab's layers, for the traced benchmark run.

The tracer replaces public functions of ``sdelab.cli``, ``sdelab.verification``,
``sdelab.stopping``, ``sdelab.engine`` and ``sdelab.coefficients`` with
wrappers, at run time and in the traced process only; no file of the
package changes.  Each wrapper records a span (name, parent, start, end) and
counts taken at the same boundary.  The engine's stages have no public
function of their own, so the calls the sweep makes into ``sdelab.coefficients``
and into ``numpy.random.default_rng`` and the generators it returns are timed
too; being millions, they are folded into counters of the enclosing span
instead of being kept as spans.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
from time import perf_counter

import numpy as np


class _TracedGenerator:
    """A numpy Generator whose block draws are timed and counted."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._tracer.timed_draw(self._gen.standard_normal, args, kwargs)

    def uniform(self, *args, **kwargs):
        return self._tracer.timed_draw(self._gen.uniform, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.first_sweep = None   # (args, kwargs) of the first sweep_paths call
        self._open: list[int] = []
        self._in_coefficients = False
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> dict:
        span = {"name": name, "parent": self._open[-1] if self._open else None,
                "start": perf_counter(), "end": None, "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._open.pop()

    def _add(self, **counts) -> None:
        if not self._open:
            return
        into = self.spans[self._open[-1]]["counts"]
        for key, value in counts.items():
            into[key] = into.get(key, 0) + value

    def timed_draw(self, fn, args, kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self._add(draw_s=perf_counter() - t0, draws=1)
        return out

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn, tally=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(span)
            if tally is not None:
                tally(span["counts"], out)
            return out
        return wrapper

    def _map_path_chunks(self, fn):
        @functools.wraps(fn)
        def wrapper(kernel_name, field, index_chunks, params, workers=1):
            chunks = list(index_chunks)
            span = self._begin("engine.map_path_chunks")
            span["counts"]["chunks"] = len(chunks)
            try:
                return fn(kernel_name, field, chunks, params, workers)
            finally:
                self._end(span)
        return wrapper

    def _sweep_paths(self, fn):
        spanned = self._spanned("engine.sweep_paths", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.first_sweep is None:
                self.first_sweep = (args, dict(kwargs))
            return spanned(*args, **kwargs)
        return wrapper

    def _coefficients(self, fn, steps: bool):
        # Only the outermost coefficient call counts: level_batch evaluates
        # sigma_batch and b_batch itself.  The sweep calls sigma_batch once
        # per loop iteration on the active paths, so its rows are path-steps.
        @functools.wraps(fn)
        def wrapper(field, states):
            if self._in_coefficients:
                return fn(field, states)
            self._in_coefficients = True
            t0 = perf_counter()
            try:
                out = fn(field, states)
            finally:
                self._in_coefficients = False
            rows = len(states)
            self._add(coef_s=perf_counter() - t0, coef_rows=rows)
            if steps:
                self._add(iterations=1, path_steps=rows)
            return out
        return wrapper

    def _default_rng(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            gen = fn(*args, **kwargs)
            self._add(gen_init_s=perf_counter() - t0, generators=1)
            return _TracedGenerator(gen, self)
        return wrapper

    def install(self) -> None:
        from sdelab import cli, coefficients, engine, stopping, verification

        def count_len(key):
            def tally(counts, out):
                counts[key] = len(out)
            return tally

        sweep = self._sweep_paths(engine.sweep_paths)
        mapper = self._map_path_chunks(engine.map_path_chunks)
        patches = [
            (cli, "run_scenario", self._spanned("cli.run_scenario",
                                                cli.run_scenario)),
            (cli, "write_report", self._spanned("cli.write_report",
                                                cli.write_report)),
            (stopping, "dyadic_escape_batch",
             self._spanned("stopping.dyadic_escape_batch",
                           stopping.dyadic_escape_batch, count_len("records"))),
            (stopping, "escape_csv_rows",
             self._spanned("stopping.escape_csv_rows",
                           stopping.escape_csv_rows, count_len("rows"))),
            (coefficients, "sigma_batch",
             self._coefficients(coefficients.sigma_batch, steps=True)),
            (coefficients, "b_batch",
             self._coefficients(coefficients.b_batch, steps=False)),
            (coefficients, "level_batch",
             self._coefficients(coefficients.level_batch, steps=False)),
            (np.random, "default_rng", self._default_rng(np.random.default_rng)),
        ]
        for name in ("estimate_zero_hitting", "check_escape_probability_bound",
                     "default_escape_time_grid", "escape_rate_constant",
                     "persistence_window", "fitted_escape_exponent"):
            patches.append((verification, name, self._spanned(
                f"verification.{name}", getattr(verification, name))))
        # engine functions are imported by name into the estimator modules
        for module in (engine, verification, stopping):
            patches.append((module, "sweep_paths", sweep))
            patches.append((module, "map_path_chunks", mapper))
        for obj, attr, new in patches:
            self._saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)


def summarize(spans: list[dict]) -> dict:
    """Per-layer times and counts of one repeat's spans.

    A span's self time is its duration minus the durations of its child
    spans.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d

    def named(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return sum(dur[i] for i in named(name))

    def own(name):
        return sum(dur[i] - child[i] for i in named(name))

    def count(key, name=None):
        return sum(s["counts"].get(key, 0) for s in spans
                   if name is None or s["name"] == name)

    verif = [i for i, s in enumerate(spans)
             if s["name"].startswith("verification.")]
    top_verif = [i for i in verif if spans[i]["parent"] not in verif]
    sweep_s = total("engine.sweep_paths")
    path_steps = count("path_steps", "engine.sweep_paths")
    coef_s, coef_rows = count("coef_s"), count("coef_rows")
    inner_s = (count("coef_s", "engine.sweep_paths")
               + count("gen_init_s", "engine.sweep_paths")
               + count("draw_s", "engine.sweep_paths"))
    return {
        "cli.run_scenario_s": total("cli.run_scenario"),
        "cli.write_report_s": total("cli.write_report"),
        "verification.estimator_s": sum(dur[i] for i in top_verif),
        "verification.self_s": sum(dur[i] - child[i] for i in verif),
        "stopping.dyadic_batch_s": total("stopping.dyadic_escape_batch"),
        "stopping.self_s": own("stopping.dyadic_escape_batch"),
        "stopping.records": count("records"),
        "stopping.csv_rows_s": total("stopping.escape_csv_rows"),
        "stopping.csv_rows": count("rows"),
        "engine.map_path_chunks_s": total("engine.map_path_chunks"),
        "engine.chunks": count("chunks"),
        "engine.sweep_s": sweep_s,
        "engine.sweep_calls": len(named("engine.sweep_paths")),
        "engine.loop_iterations": count("iterations", "engine.sweep_paths"),
        "engine.path_steps": path_steps,
        "engine.ns_per_path_step": 1e9 * sweep_s / path_steps if path_steps else 0.0,
        "engine.generators_built": count("generators"),
        "engine.generator_init_s": count("gen_init_s"),
        "engine.noise_draw_s": count("draw_s"),
        "engine.noise_refills": count("draws"),
        "engine.self_s": sweep_s - inner_s,
        "coefficients.eval_s": coef_s,
        "coefficients.eval_rows": coef_rows,
        "coefficients.ns_per_row": 1e9 * coef_s / coef_rows if coef_rows else 0.0,
    }
