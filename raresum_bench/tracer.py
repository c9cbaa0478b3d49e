"""Per-layer spans and counters for the raresum benchmark.

Nothing here edits raresum: the tracer replaces public functions in the
namespaces of raresum's modules with timing wrappers for the duration of a
`with tracer.installed():` block and puts the originals back afterwards.
A function imported by name into several modules (solve_tilt is called
from tilt, pathgen, meanchain and estimate) is replaced in each of them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

import oracles


@contextlib.contextmanager
def patched(replacements: dict):
    """Replace each original callable by its replacement wherever a raresum
    module holds it under a global name; restore on exit."""
    undo = []
    try:
        for name, mod in list(sys.modules.items()):
            if name != "raresum" and not name.startswith("raresum."):
                continue
            for attr, value in list(vars(mod).items()):
                for original, replacement in replacements.items():
                    if value is original:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, replacement)
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


class Tracer:
    """Wall time, call counts and raised exceptions per wrapped function,
    plus counters read from the functions' results."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.counts = defaultdict(float)
        self.acceptance = []
        self.distinct_points = []

    def _span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self.calls[name] += 1
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _count(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_chain(self, result):
        states, diag = result
        self.counts["chain_steps"] += diag.chain_length
        self.acceptance.append(diag.acceptance_rate)
        self.distinct_points.append(len(np.unique(states, axis=0)))

    def _on_tilt(self, sol):
        self.counts["newton_iters"] += sol.iterations

    def _counted_model(self, builtin_model):
        """The model factory config.instantiate calls, returning models whose
        cumulant, mean, covariance and third-cumulant callables are counted."""
        @functools.wraps(builtin_model)
        def factory(*args, **kwargs):
            spec = builtin_model(*args, **kwargs)
            fields = ("cumulant", "mean_fn", "cov_fn", "third_fn")
            return replace(spec, **{f: self._count("model_fn_calls", getattr(spec, f))
                                    for f in fields if getattr(spec, f) is not None})
        return factory

    def _counted_grid(self, grid_cls):
        tracer = self

        class CountedGrid(grid_cls):
            def __init__(self, x, log_f):
                tracer.counts["grid_builds"] += 1
                tracer.counts["grid_points"] += len(x)
                super().__init__(x, log_f)

        return CountedGrid

    @contextlib.contextmanager
    def installed(self):
        from raresum import estimate, meanchain, model, pathgen, tilt

        with patched({
            meanchain.run_chain: self._span("meanchain.run_chain", meanchain.run_chain,
                                            self._on_chain),
            tilt.solve_tilt: self._span("tilt.solve_tilt", tilt.solve_tilt, self._on_tilt),
            pathgen.step_params: self._span("pathgen.step_params", pathgen.step_params),
            pathgen.tilted_tail_sampler: self._span("pathgen.tilted_tail_sampler",
                                                    pathgen.tilted_tail_sampler),
            pathgen.sample_path: self._span("pathgen.sample_path", pathgen.sample_path),
            pathgen.mixture_logdensity: self._span("estimate.mixture",
                                                   pathgen.mixture_logdensity),
            estimate.tilted_iid_estimate: self._span("estimate.tilted_iid_estimate",
                                                     estimate.tilted_iid_estimate),
            model.builtin_model: self._counted_model(model.builtin_model),
            pathgen.GridDensity1D: self._counted_grid(pathgen.GridDensity1D),
        }):
            yield self

    def metrics(self, rounds: int, run_s: float, adaptive_reports: list,
                overhead_s: float) -> dict:
        """Per-layer metrics: counts and seconds per round, costs per call.

        `run_s` is the estimator wall time of the traced rounds; estimate.self_s
        is the part of it that no timed child span covers.
        """
        def per_call(name, scale):
            calls = self.calls[name]
            return self.seconds[name] * scale / calls if calls else 0.0

        chain_s = self.seconds["meanchain.run_chain"]
        children = (chain_s + self.seconds["pathgen.sample_path"]
                    + self.seconds["estimate.mixture"]
                    + self.seconds["estimate.tilted_iid_estimate"])
        solves = self.calls["tilt.solve_tilt"]
        solved = solves - sum(n for (name, _), n in self.raised.items()
                              if name == "tilt.solve_tilt")
        builds = self.counts["grid_builds"]
        weights = [r.details.weights for r in adaptive_reports]
        values = {
            "meanchain.s": (chain_s / rounds, "s"),
            "meanchain.us_per_step": (
                1e6 * chain_s / self.counts["chain_steps"] if self.counts["chain_steps"] else 0.0,
                "us"),
            "meanchain.acceptance": (float(np.mean(self.acceptance)) if self.acceptance else 0.0,
                                     "1"),
            "meanchain.distinct_points": (
                float(np.mean(self.distinct_points)) if self.distinct_points else 0.0, "count"),
            "tilt.solve_calls": (solves / rounds, "count"),
            "tilt.us_per_solve": (per_call("tilt.solve_tilt", 1e6), "us"),
            "tilt.newton_iters_per_solve": (
                self.counts["newton_iters"] / solved if solved else 0.0, "1"),
            "model.cumulant_fn_calls": (self.counts["model_fn_calls"] / rounds, "count"),
            "pathgen.ms_per_path": (per_call("pathgen.sample_path", 1e3), "ms"),
            "pathgen.step_params_calls": (self.calls["pathgen.step_params"] / rounds, "count"),
            "pathgen.us_per_step_params": (per_call("pathgen.step_params", 1e6), "us"),
            "pathgen.us_per_tail_sampler": (per_call("pathgen.tilted_tail_sampler", 1e6), "us"),
            "pathgen.grid_builds": (builds / rounds, "count"),
            "pathgen.grid_points_per_build": (
                self.counts["grid_points"] / builds if builds else 0.0, "count"),
            "pathgen.aborts": (self.raised["pathgen.sample_path", "PathAbort"] / rounds,
                               "count"),
            "estimate.mixture_calls": (self.calls["estimate.mixture"] / rounds, "count"),
            "estimate.ms_per_mixture": (per_call("estimate.mixture", 1e3), "ms"),
            "estimate.tilted_iid_s": (self.seconds["estimate.tilted_iid_estimate"] / rounds,
                                      "s"),
            "estimate.self_s": ((run_s - children) / rounds, "s"),
            "estimate.weight_ess": (
                float(np.mean([oracles.kish_ess_share(w) for w in weights])), "1"),
            "estimate.max_weight_share": (
                float(np.mean([oracles.max_weight_share(w) for w in weights])), "1"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
