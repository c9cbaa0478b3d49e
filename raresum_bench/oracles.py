"""Oracles, output checks and metric arithmetic for the raresum benchmark.

Every expected value here is computed without raresum: the Gaussian
probabilities from scipy's normal CDF, the mean-square probability from a
frozen brute-force Monte Carlo reference.  The checks read only the fields
of an estimate report and the row `raresum run` wrote to its CSV file.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
from scipy.stats import norm

# fig1 event |mean_j| > 0.28 for n = 100 i.i.d. N(0.05, 1) coordinates: the
# mean of one coordinate is N(0.05, 0.1^2), so its two tails start 2.3 and
# 3.3 standard deviations away.  Coordinates are independent, so the d-dim
# probability is the d-th power of the one-dim one.
P_UPPER = float(norm.sf(2.3))
P_LOWER = float(norm.cdf(-3.3))
P_ONE_DIM = P_UPPER + P_LOWER
NEGATIVE_SPLIT = P_LOWER / P_ONE_DIM

# scripts/compute_mean_square_reference.py: 10^7 naive runs of
# P(mean(X) >= 0.2, mean(X^2) in [1.0, 1.4]), n = 100, X ~ N(0, 1), seed 424242,
# give 1.37768e-2 with standard error 3.686e-5.
MEAN_SQUARE_REF = 1.37768e-2

# Check bounds; README.md gives each one's measured failure chance.
ADAPTIVE_Z_BOUND = {1: 5.0, 5: 40.0}
TILTED_SE_BOUND = 6.0
MEAN_SQUARE_FACTOR = 10.0

# CSV columns compared with the report (relative tolerance for the
# 12-significant-digit text the CLI writes).
_CSV_FLOATS = ("p_hat", "std_error", "relative_error", "hit_rate")
_CSV_REL_TOL = 1e-11


def gauss_probability(d: int) -> float:
    return P_ONE_DIM ** d


def tilted_limit(d: int) -> float:
    """Where the tilted-iid baseline converges: it never visits the mirrored
    branches, so it sees only the all-positive orthant of the event."""
    return P_UPPER ** d


def negative_mass(rep) -> float:
    """Weight mass of the runs whose first mean coordinate ends below 0."""
    return float(np.sum(rep.details.weights[rep.details.path_mean[:, 0] < 0.0]))


def kish_ess_share(weights) -> float:
    """Kish effective sample size (sum w)^2 / sum w^2, as a share of L."""
    w = np.asarray(weights, dtype=float)
    sq = float(np.sum(w * w))
    return (float(np.sum(w)) ** 2 / sq) / w.size if sq > 0 else 0.0


def max_weight_share(weights) -> float:
    w = np.asarray(weights, dtype=float)
    total = float(np.sum(w))
    return float(np.max(w)) / total if total > 0 else 0.0


def wnrv(rel_err: float, seconds: float) -> float:
    """Work-normalised relative variance: relative error squared times seconds."""
    return rel_err * rel_err * seconds


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_counts(rep, csv_row: dict) -> list[str]:
    """hits + misses + aborts = L, weights only on hits, and the CSV row says
    what the report says."""
    errs = []
    det = rep.details
    hits = np.asarray(det.hits, dtype=bool)
    aborted = np.asarray(det.aborted, dtype=bool)
    misses = ~hits & ~aborted
    if len(det.weights) != rep.L or hits.size != rep.L or aborted.size != rep.L:
        errs.append(f"{rep.scheme}: replicate arrays do not have length L={rep.L}")
    elif int(hits.sum() + misses.sum() + aborted.sum()) != rep.L:
        errs.append(f"{rep.scheme}: hits + misses + aborts != L "
                    f"({int(hits.sum())} + {int(misses.sum())} + {int(aborted.sum())})")
    if np.any(hits & aborted):
        errs.append(f"{rep.scheme}: a replicate is both a hit and an abort")
    if np.any(np.asarray(det.weights)[~hits] != 0.0):
        errs.append(f"{rep.scheme}: nonzero weight on a replicate that missed")
    if int(aborted.sum()) != rep.aborts:
        errs.append(f"{rep.scheme}: aborts {rep.aborts} != aborted replicates {int(aborted.sum())}")
    if csv_row["scheme"] != rep.scheme or int(csv_row["L"]) != rep.L \
            or int(csv_row["aborts"]) != rep.aborts:
        errs.append(f"{rep.scheme}: CSV row {csv_row} does not match the report")
    for key in _CSV_FLOATS:
        got, want = float(csv_row[key]), float(getattr(rep, key))
        if not (math.isnan(got) and math.isnan(want)) \
                and not math.isclose(got, want, rel_tol=_CSV_REL_TOL):
            errs.append(f"{rep.scheme}: CSV {key} {got!r} != report {want!r}")
    return errs


def pooled(reports) -> tuple[float, float]:
    """Mean of independent estimates and its standard error."""
    m = len(reports)
    return (sum(r.p_hat for r in reports) / m,
            math.sqrt(sum(r.std_error ** 2 for r in reports)) / m)


def adaptive_z(reports, d: int) -> float:
    """(p - P) / se of the pooled adaptive estimate at dimension d."""
    p, se = pooled(reports)
    truth = gauss_probability(d)
    if se > 0:
        return (p - truth) / se
    return 0.0 if p == truth else math.inf


def check_gauss_adaptive(reports, d: int) -> list[str]:
    z = adaptive_z(reports, d)
    if abs(z) <= ADAPTIVE_Z_BOUND[d]:
        return []
    return [f"adaptive d={d}: pooled p_hat {pooled(reports)[0]:.4e} over {len(reports)} "
            f"calls vs P {gauss_probability(d):.4e}, z={z:+.2f} beyond {ADAPTIVE_Z_BOUND[d]}"]


def check_negative_split(reports) -> list[str]:
    """At d = 1, the share of the adaptive weight mass on the negative branch,
    pooled over the calls of a run, lies within a factor 2 of the true split."""
    total = sum(float(np.sum(r.details.weights)) for r in reports)
    share = sum(negative_mass(r) for r in reports) / total if total > 0 else math.nan
    if NEGATIVE_SPLIT / 2 <= share <= 2 * NEGATIVE_SPLIT:
        return []
    return [f"adaptive d=1: negative-branch mass share {share:.4f} over {len(reports)} "
            f"calls outside [{NEGATIVE_SPLIT / 2:.4f}, {2 * NEGATIVE_SPLIT:.4f}]"]


def tilted_distance(reports, d: int) -> float:
    """How many standard errors the pooled tilted-iid estimate lies outside
    [P_upper^d, P]."""
    p, se = pooled(reports)
    gap = max(0.0, tilted_limit(d) - p, p - gauss_probability(d))
    if se > 0:
        return gap / se
    return 0.0 if gap == 0 else math.inf


def check_gauss_tilted(reports, d: int) -> list[str]:
    dist = tilted_distance(reports, d)
    if dist <= TILTED_SE_BOUND:
        return []
    return [f"tilted-iid d={d}: pooled p_hat {pooled(reports)[0]:.4e} over {len(reports)} "
            f"calls is {dist:.2f} se outside [{tilted_limit(d):.4e}, {gauss_probability(d):.4e}]"]


def check_mean_square(rep) -> list[str]:
    """p_hat within a factor MEAN_SQUARE_FACTOR of the reference.  A z-test
    against the reference fails at most seeds: at L = 30 the paired weights
    put p_hat typically three times below it, with a std_error that
    understates the error (README.md, Checks)."""
    ratio = rep.p_hat / MEAN_SQUARE_REF
    if 1.0 / MEAN_SQUARE_FACTOR <= ratio <= MEAN_SQUARE_FACTOR:
        return []
    return [f"mean-square: p_hat {rep.p_hat:.4e} is {ratio:.3g} times the reference "
            f"{MEAN_SQUARE_REF:.4e}, beyond a factor {MEAN_SQUARE_FACTOR:g}"]
