#!/usr/bin/env python3
"""Brute-force Monte Carlo reference for the two-constraint smoke problem.

Estimates P( mean(X) >= 0.2 and mean(X^2) in [1.0, 1.4] ) for n = 100 i.i.d.
standard normal X, from 10^7 independent runs.  The benchmark's
raresum_bench/oracles.py cites the resulting value as MEAN_SQUARE_REF; rerun
this script to regenerate it.  The tests use the exact value instead
(tests/helpers.py, mean_square_probability: 1.374430e-2).
"""

import numpy as np

N = 100
REPLICATES = 10_000_000
CHUNK = 100_000
SEED = 424242


def main():
    rng = np.random.default_rng(SEED)
    hits = 0
    done = 0
    while done < REPLICATES:
        m = min(CHUNK, REPLICATES - done)
        x = rng.standard_normal((m, N))
        mean = x.mean(axis=1)
        meansq = (x * x).mean(axis=1)
        ok = (mean >= 0.2) & (meansq >= 1.0) & (meansq <= 1.4)
        hits += int(ok.sum())
        done += m
    p = hits / REPLICATES
    se = np.sqrt(p * (1 - p) / REPLICATES)
    print(f"replicates = {REPLICATES}")
    print(f"hits       = {hits}")
    print(f"p          = {p:.8e}")
    print(f"std error  = {se:.3e}")


if __name__ == "__main__":
    main()
