#!/usr/bin/env python3
"""Failure chance of the benchmark's checks and seed-to-seed spread of rel_err.

    python3 raresum_bench/check_rates.py --workload NAME --seeds 1-40 [--group 3,6]

Runs one round of the workload per config seed (the seed goes into the
config files unchanged) and prints one line per seed.  Then it counts the
seeds whose round failed a per-call check, and the groups of --group
distinct seeds whose estimates, taken together, fail the run-level checks
that run.py applies to the Gaussian workloads.  A run of the benchmark
pools at least run.MIN_ROUNDS rounds, the default group size; a 35-second
run pools 4 to 9.  Groups are all combinations of the seeds, or 20000 of
them drawn at random when there are more.  README.md quotes these figures.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from types import SimpleNamespace

import numpy as np

import oracles
import run

MAX_GROUPS = 20000


def slim(rep):
    """The fields of a report that the run-level checks read."""
    if rep is None:
        return None
    details = SimpleNamespace(weights=rep.details.weights, path_mean=rep.details.path_mean)
    return SimpleNamespace(p_hat=rep.p_hat, std_error=rep.std_error, details=details)


def groups(n: int, size: int):
    if math.comb(n, size) <= MAX_GROUPS:
        return list(itertools.combinations(range(n), size))
    rng = np.random.default_rng(0)
    return [tuple(rng.choice(n, size, replace=False)) for _ in range(MAX_GROUPS)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--group", default=str(run.MIN_ROUNDS),
                        help="comma-separated group sizes")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    workload = run.WORKLOADS[args.workload]
    cli = run.import_raresum()
    run.OUT.mkdir(parents=True, exist_ok=True)

    failed_rounds, rel_errs, aborts, adaptive, tilted = 0, [], [], [], []
    for seed in range(first, last + 1):
        res = run.run_round(cli, workload, seed)
        rep = res.report("adaptive")
        rel_errs.append(rep.relative_error)
        aborts.append(rep.aborts)
        adaptive.append(slim(rep))
        tilted.append(slim(res.report("tilted-iid")))
        line = (f"seed {seed}: p_hat {rep.p_hat:.6e} se {rep.std_error:.4e} "
                f"rel_err {rep.relative_error:.4f} aborts {rep.aborts}")
        if workload.d is not None:
            line += (f" z {oracles.adaptive_z([rep], workload.d):+.2f} tilted "
                     f"{oracles.tilted_distance([tilted[-1]], workload.d):.2f} se")
        if workload.d == 1:
            line += f" negative mass {oracles.negative_mass(rep):.4e}"
        failed_rounds += bool(res.errors)
        print(line + "".join(f"\n  FAILED {e}" for e in res.errors), flush=True)

    n = len(rel_errs)
    print(f"{workload.name}: {failed_rounds} of {n} rounds failed a per-call check")
    for size in (int(x) for x in args.group.split(",")):
        if workload.d is None or size > n:
            continue
        picks = groups(n, size)
        failures = {}
        for g in picks:
            for e in run.check_pooled(workload, [adaptive[i] for i in g],
                                      [tilted[i] for i in g]):
                kind = " ".join(e.split()[:3])     # e.g. "adaptive d=1: negative-branch"
                failures[kind] = failures.get(kind, 0) + 1
        print(f"run-level checks over {len(picks)} groups of {size} seeds: "
              f"{failures or 'no failure'}")
    print(f"aborts per round: min {min(aborts)}, max {max(aborts)}")
    if n >= 2:
        print(f"rel_err median {oracles.median(rel_errs):.4f}, quartile spread "
              f"{oracles.spread(rel_errs):.3f} of the median")
    return 0


if __name__ == "__main__":
    sys.exit(main())
