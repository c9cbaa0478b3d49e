#!/usr/bin/env python3
"""raresum benchmark: rare-event estimation runs through the CLI entry point.

    python3 raresum_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each round of a workload writes config files
and runs every one through raresum.cli.run_experiment, the function behind
`raresum run`, single-process (--threads 1).  A run repeats rounds while
one more fits in --seconds (at least MIN_ROUNDS), checks every estimate
against an oracle computed here (oracles.py), and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed (the JSON
line is still printed, with "correct": false), and 2 when the program
could not be run at all (no JSON line).

An operation is one replicate.  It fails when its estimator call raises or
when its run ends in PathAbort (aborted runs are scored zero by the program).
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
rounds run with tracer.py's wrappers installed, round 0 also untraced, and
the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
import tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
SETUP_REPEATS = 3

FIG1 = """\
[model]
family = gaussian-mean
mu = 0.05
sigma = 1.0
d = {d}

[region]
two_sided_threshold = 0.28

[run]
n = 100
L = {L}
schemes = {scheme}
k_mode = manual
k = 75
variant = uniform-step
weighting = mixture
seed = {seed}

[chain]
burn_in = 2000
thinning = 25

[output]
csv = {csv}
timing = false
"""

MEAN_SQUARE = """\
[model]
family = gaussian-mean-and-square
mu = 0.0
sigma = 1.0

[region]
constraint_1 = [0.2, inf)
constraint_2 = [1.0, 1.4]

[run]
n = 100
L = {L}
schemes = {scheme}
k_mode = default
seed = {seed}

[chain]
burn_in = 1000
thinning = 5

[output]
csv = {csv}
timing = false
"""


@dataclass(frozen=True)
class Call:
    """One config file of a round: a template, the scheme it runs, and L."""

    template: str
    scheme: str
    L: int


@dataclass(frozen=True)
class Workload:
    name: str
    d: int | None                # fig1 dimension; None for the mean-square model
    calls: tuple
    quality_seed: int            # config seed of round 0, the same in every run
    seeded: bool                 # later rounds take their seeds from --seed


# The config seeds of round 0 are those of configs/fig1.cfg and
# configs/mean_square_smoke.cfg.  Round 0 fixes rel_err and wnrv_s for the
# code; later rounds vary the inputs with --seed.  The mean-square workload
# keeps the bundled seed in every round: its aborted replicates (ROADMAP
# item 4(b)) then are the same share of every run.  With seeds from --seed
# their number would change from run to run.
WORKLOADS = {
    w.name: w for w in (
        Workload("gauss-d1-mixture", 1,
                 (Call(FIG1, "adaptive", 200), Call(FIG1, "tilted-iid", 2000)),
                 quality_seed=20240602, seeded=True),
        Workload("gauss-d5-mixture", 5,
                 (Call(FIG1, "adaptive", 200), Call(FIG1, "tilted-iid", 10000)),
                 quality_seed=20240602, seeded=True),
        Workload("meansquare-paired", None,
                 (Call(MEAN_SQUARE, "adaptive", 30),),
                 quality_seed=7, seeded=False),
    )
}

SETUP_CHILD = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import raresum
from raresum.cli import run_experiment
from raresum.config import load_config, validate_config
if not raresum.__file__.startswith(sys.argv[1]):
    sys.exit("raresum imported from " + raresum.__file__)
for path in sys.argv[2:]:
    cfg = load_config(path)
    if any(d.level == "error" for d in validate_config(cfg)):
        sys.exit("invalid config " + path)
    cfg.instantiate()
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark could not run the program as intended."""


def import_raresum():
    """Import raresum from this checkout's src/, never from elsewhere."""
    if not (SRC / "raresum" / "__init__.py").is_file():
        raise BenchError(f"no raresum package under {SRC}")
    sys.path.insert(0, str(SRC))
    import raresum
    import raresum.cli

    if not Path(raresum.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"raresum imported from {raresum.__file__}, not {SRC}")
    return raresum.cli


def round_seed(workload: Workload, seed: int, r: int) -> int:
    if r == 0 or not workload.seeded:
        return workload.quality_seed
    return int(np.random.SeedSequence([seed % 2**63, r]).generate_state(1)[0])


def write_configs(workload: Workload, config_seed: int) -> list[Path]:
    paths = []
    for call in workload.calls:
        stem = f"{workload.name}-{call.scheme}"
        csv_path = OUT / f"{stem}.csv"
        text = call.template.format(d=workload.d, L=call.L, scheme=call.scheme,
                                    seed=config_seed, csv=csv_path.as_posix())
        cfg_path = OUT / f"{stem}.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        paths.append(cfg_path)
    return paths


@contextlib.contextmanager
def captured_estimates(cli, sink: list):
    """Record (report, seconds) of every estimator call run_experiment makes;
    the report is None when the call raised."""
    def capture(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            rep = None
            try:
                rep = fn(*args, **kwargs)
                return rep
            finally:
                sink.append((rep, time.perf_counter() - t0))
        return wrapper

    with tracer.patched({cli.adaptive_estimate: capture(cli.adaptive_estimate),
                         cli.tilted_iid_estimate: capture(cli.tilted_iid_estimate)}):
        yield


@dataclass
class RoundResult:
    calls: list            # (scheme, report or None if the call raised, seconds)
    attempted: int
    failed: int
    errors: list

    @property
    def run_s(self) -> float:
        return sum(sec for _, _, sec in self.calls)

    def report(self, scheme):
        return next((rep for s, rep, _ in self.calls if s == scheme), None)

    def seconds(self, scheme) -> float:
        return next(sec for s, _, sec in self.calls if s == scheme)


def run_round(cli, workload: Workload, config_seed: int) -> RoundResult:
    paths = write_configs(workload, config_seed)
    calls: list = []
    errors: list = []
    attempted = failed = 0
    for path, call in zip(paths, workload.calls):
        sink: list = []
        log = io.StringIO()
        try:
            with captured_estimates(cli, sink), contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                rc = cli.run_experiment(str(path), threads=1)
        except Exception:
            # An estimator error that run_experiment does not catch (it
            # handles RaresumError only) fails the call's replicates.
            if len(sink) != 1 or sink[0][0] is not None:
                raise
            print(traceback.format_exc(), file=sys.stderr)
            rc = cli.EXIT_RUNTIME
        if len(sink) != 1 or rc not in (cli.EXIT_OK, cli.EXIT_RUNTIME):
            raise BenchError(f"{path.name}: exit code {rc}, {len(sink)} estimator "
                             f"calls\n{log.getvalue()}")
        rep, seconds = sink[0]
        calls.append((call.scheme, rep, seconds))
        attempted += call.L
        if rep is None:                 # the estimator call raised
            failed += call.L
            continue
        failed += rep.aborts
        with open(OUT / f"{workload.name}-{call.scheme}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors += oracles.check_counts(rep, rows[0]) if len(rows) == 1 else \
            [f"{path.name}: {len(rows)} CSV rows"]
        if workload.d is None:
            errors += oracles.check_mean_square(rep)
    print(f"config seed {config_seed}: " + ", ".join(
        f"{scheme} {sec:.3f} s" + ("" if rep is None else f" hit_rate {rep.hit_rate:.3f}")
        for scheme, rep, sec in calls), file=sys.stderr)
    return RoundResult(calls, attempted, failed,
                       [f"config seed {config_seed}: {e}" for e in errors])


def check_pooled(workload: Workload, adaptive: list, tilted: list) -> list[str]:
    """Oracle checks of the Gaussian workloads, on the estimates of a run's
    independent rounds taken together: one adaptive call at d=5 can sit ten
    times below P with a small std_error (README.md, Checks)."""
    if workload.d is None:
        return []
    if not adaptive or not tilted:
        return [f"{workload.name}: no estimate to check"]
    errors = oracles.check_gauss_adaptive(adaptive, workload.d)
    errors += oracles.check_gauss_tilted(tilted, workload.d)
    if workload.d == 1:
        errors += oracles.check_negative_split(adaptive)
    return errors


def check_rounds(workload: Workload, rounds: list) -> list[str]:
    adaptive = [res.report("adaptive") for res in rounds]
    tilted = [res.report("tilted-iid") for res in rounds]
    return check_pooled(workload, [r for r in adaptive if r is not None],
                        [r for r in tilted if r is not None])


def measure_setup(workload: Workload) -> float:
    """Median seconds for a fresh interpreter to import raresum, load and
    validate the workload's configs and build their model and region."""
    paths = [str(p) for p in write_configs(workload, workload.quality_seed)]
    env = dict(os.environ, PYTHONPATH="")
    times = []
    for i in range(SETUP_REPEATS + 1):   # the first fills the bytecode cache
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), *paths],
                                  capture_output=True, text=True, env=env, timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("set-up process took over 60 s") from None
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return oracles.median(times)


def run_rounds(seconds: float, body):
    """Call body(r) for r = 0, 1, ... until `seconds` would be exceeded by one
    more round of median length, and at least MIN_ROUNDS times."""
    start = time.perf_counter()
    lengths = []
    r = 0
    while True:
        t0 = time.perf_counter()
        body(r)
        lengths.append(time.perf_counter() - t0)
        r += 1
        if r >= MIN_ROUNDS and \
                time.perf_counter() - start + oracles.median(lengths) > seconds:
            return r


def end_to_end(cli, workload: Workload, seed: int, seconds: float):
    setup_s = measure_setup(workload)
    results: list[RoundResult] = []
    run_rounds(seconds, lambda r: results.append(
        run_round(cli, workload, round_seed(workload, seed, r))))
    quality = results[0].report("adaptive")
    if quality is None:
        raise BenchError("the round-0 adaptive call raised; rel_err is undefined")
    rel_err = quality.relative_error
    adaptive_s = oracles.median([res.seconds("adaptive") for res in results])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (oracles.median([res.run_s for res in results]), "s"),
        "wnrv_s": (oracles.wnrv(rel_err, adaptive_s), "s"),
        "rel_err": (rel_err, "1"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    return results, results, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def same_estimate(a, b) -> bool:
    """Same p_hat and std_error (NaN equal to NaN), or both calls raised."""
    if a is None or b is None:
        return a is b
    return all(x == y or (math.isnan(x) and math.isnan(y))
               for x, y in ((a.p_hat, b.p_hat), (a.std_error, b.std_error)))


def per_layer(cli, workload: Workload, seed: int, seconds: float):
    """Rounds with the tracer installed.  Round 0 also runs untraced first,
    to check that tracing changes no estimate and to measure its overhead."""
    trace = tracer.Tracer()
    plain: list[RoundResult] = []
    traced: list[RoundResult] = []

    def body(r):
        config_seed = round_seed(workload, seed, r)
        if r == 0:
            plain.append(run_round(cli, workload, config_seed))
        with trace.installed():
            traced.append(run_round(cli, workload, config_seed))
        if r == 0 and not all(same_estimate(a, b) for (_, a, _), (_, b, _)
                              in zip(plain[0].calls, traced[0].calls)):
            traced[0].errors.append(f"config seed {config_seed}: tracing changed "
                                    "p_hat or std_error")

    rounds = run_rounds(seconds, body)
    adaptive = [res.report("adaptive") for res in traced]
    metrics = trace.metrics(rounds, sum(res.run_s for res in traced),
                            [rep for rep in adaptive if rep is not None],
                            traced[0].run_s - plain[0].run_s)
    return plain + traced, traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli = import_raresum()
        OUT.mkdir(parents=True, exist_ok=True)
        measure = per_layer if args.trace else end_to_end
        passes, rounds, metrics = measure(cli, workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    errors = [e for res in passes for e in res.errors] + check_rounds(workload, rounds)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"{workload.name}: {len(passes)} passes, seed {args.seed}, "
          f"trace {args.trace}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(res.attempted for res in passes),
        "failed": sum(res.failed for res in passes),
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
