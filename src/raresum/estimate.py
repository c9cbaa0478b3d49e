"""Estimators: the adaptive scheme, the state-independent tilted baseline,
and naive Monte Carlo, with shared reporting and weight diagnostics.

All three draw replicate l's run toward a conditioning point v_l and weigh
a hit by p/g, g the exact density of that run (pathgen.walk_runs).  The
adaptive scheme draws the v_l from a chain in the region and runs with a
split index k >= 1; the baselines are runs with k = 0, every point i.i.d.
from the tilted law with mean v_l: the dominating point (tilted-iid) or the
unconditioned mean, where the tilted law is the base law (naive).  Paired
weighting divides by g_{v_l}; since E[p(Y)/g_v(Y) 1_E(Y)] under g_v equals
P(E) for every v, the estimate is unbiased for any law of conditioning
points supported inside the region, and chain quality only affects
variance.  `_estimate` scores every scheme in the same blocks of runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, NumericError
from .meanchain import MeanChainConfig, MeanChainDiagnostics, run_chain
from .model import ModelSpec, mean_map
from .pathgen import PathConfig, engine_errors, mixture_logdensity, walk_blocks, walk_runs
from .region import ProductRegion, contains_rows
from .tilt import dominating_point
from .utils import chain_rng, derive_seed, fmt_float, replicate_rng

CSV_HEADER = ("scheme,n,k,d,s,L,seed,p_hat,std_error,relative_error,"
              "weight_cv,hit_rate,aborts,wall_time")

SCHEMES = ("adaptive", "tilted-iid", "naive")
WEIGHTINGS = ("paired", "mixture")


@dataclass
class ReplicateDetails:
    """Per-replicate arrays kept for diagnostics; not serialized to CSV."""

    weights: np.ndarray      # importance factor times hit indicator
    hits: np.ndarray         # bool
    aborted: np.ndarray      # bool
    path_mean: np.ndarray    # (L, s) final statistic mean per replicate
    v: Optional[np.ndarray]  # (L, s) conditioning points (adaptive only)


@dataclass
class EstimateReport:
    scheme: str
    n: int
    k: int
    d: int
    s: int
    L: int
    seed: int
    p_hat: float
    std_error: float
    relative_error: float
    weight_cv: float
    hit_rate: float
    aborts: int
    wall_time: float
    details: Optional[ReplicateDetails] = field(default=None, repr=False)
    chain: Optional[MeanChainDiagnostics] = field(default=None, repr=False)

    @property
    def zero_hits(self) -> bool:
        return self.hit_rate == 0.0

    def csv_row(self, include_timing: bool = True) -> str:
        wall = self.wall_time if include_timing else 0.0
        fields = [
            self.scheme, str(self.n), str(self.k), str(self.d), str(self.s),
            str(self.L), str(self.seed),
            fmt_float(self.p_hat), fmt_float(self.std_error),
            fmt_float(self.relative_error), fmt_float(self.weight_cv),
            fmt_float(self.hit_rate), str(self.aborts),
            format(wall, ".6f"),
        ]
        return ",".join(fields)

    def negative_branch_shares(self) -> tuple[float, float]:
        """(share of hitting replicates, share of weight mass) whose final
        mean has a negative first coordinate.  Diagnostic for two-sided sets."""
        if self.details is None:
            raise ConfigurationError("report was built without replicate details")
        d = self.details
        neg = d.path_mean[:, 0] < 0
        hits = int(np.sum(d.hits))
        mass = float(np.sum(d.weights))
        hit_share = float(np.sum(d.hits & neg)) / hits if hits else math.nan
        mass_share = float(np.sum(d.weights[neg])) / mass if mass > 0 else math.nan
        return hit_share, mass_share


def point_errors(model: ModelSpec, region: ProductRegion, n: int, L: int,
                 scheme: str, path_config: Optional[PathConfig] = None,
                 weighting: str = "paired") -> list[str]:
    """Every constraint one (model, region, n, L, scheme) point violates.

    The estimators raise ConfigurationError on the first message;
    validate_config reports all of them.
    """
    errors = []
    if scheme not in SCHEMES:
        errors.append(f"unknown scheme {scheme!r}")
    if L < 2:
        errors.append("replicate count L must be >= 2")
    if model.s >= n:
        errors.append(f"constraint count must be < n; got s={model.s}, n={n}")
    if region.s != model.s:
        errors.append("region and model constraint counts differ")
    if region.is_empty:
        errors.append("region is empty")
    if scheme != "adaptive":
        return errors
    try:
        (path_config or PathConfig()).resolve_k(n)
    except ConfigurationError as exc:
        errors.append(str(exc))
    errors += engine_errors(model, mixture=weighting == "mixture")
    if weighting not in WEIGHTINGS:
        errors.append(f"unknown weighting {weighting!r}")
    return errors


def _check_point(*args, threads: int = 1, **kwargs) -> None:
    if threads < 1:
        raise ConfigurationError(f"threads must be at least 1, got {threads}")
    errors = point_errors(*args, **kwargs)
    if errors:
        raise ConfigurationError(errors[0])


def _score_block(model, region, n, k, variant, weighting, vs, seed, block):
    """Weights, hits, aborts and final means of the replicates in the slice
    `block`: replicate l's run is drawn toward vs[l] with the generator
    replicate_rng(seed, l), and a hit weighs exp(log p - log g).  Each
    value depends only on its replicate's index, so any cut of the
    replicates into blocks (--threads) gives the same numbers; a weight
    past the float range raises NumericError."""
    points, head, tail, log_p, _ = walk_runs(
        model, vs[block], n, k, variant,
        rngs=(replicate_rng(seed, l) for l in range(block.start, block.stop)))
    R = len(points)
    log_g = head + tail
    aborted = ~np.isfinite(log_g)
    stat = np.asarray(model.statistic(points.reshape(R * n, model.d)), dtype=float)
    means = np.sum(stat.reshape(R, n, model.s), axis=1) / n
    means[aborted] = 0.0
    hits = contains_rows(region, means) & ~aborted
    if weighting == "mixture" and hits.any():
        log_g[hits] = mixture_logdensity(model, points[hits], vs, n, k, variant)
    weights, log_w = np.zeros(R), log_p - log_g
    try:
        weights[hits] = [math.exp(x) for x in log_w[hits]]
    except OverflowError:  # name the replicate of the largest log-weight
        l = int(np.argmax(np.where(hits, log_w, -np.inf)))
        raise NumericError(f"replicate {block.start + l}: weight overflows, "
                           f"log-weight {log_w[l]}") from None
    return weights, hits, aborted, means


def _estimate(scheme, model, region, n, k, vs, seed, threads, start,
              variant="uniform-step", weighting="paired", chain=None) -> EstimateReport:
    """The report of runs with split index k toward the conditioning points
    vs (L, s), scored block by block (_score_block) over walk_blocks, in a
    pool of `threads` worker processes when threads > 1."""
    L = len(vs)
    score = partial(_score_block, model, region, n, k, variant, weighting, vs, seed)
    blocks = walk_blocks(model, L, n, k, parts=1 if threads == 1 else 4 * threads)
    if threads > 1:
        # imported here: the process pool costs a tenth of the package's import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(score, blocks))
    else:
        parts = [score(b) for b in blocks]
    weights, hits, aborted, means = (np.concatenate(a) for a in zip(*parts))
    p_hat = float(np.mean(weights))
    std_error = float(np.std(weights, ddof=1) / math.sqrt(L))
    nonzero = weights[weights > 0]
    return EstimateReport(
        scheme=scheme, n=n, k=k, d=model.d, s=model.s, L=L, seed=seed, p_hat=p_hat,
        std_error=std_error, relative_error=std_error / p_hat if p_hat > 0 else math.nan,
        weight_cv=(float(np.std(nonzero, ddof=1) / np.mean(nonzero)) if nonzero.size >= 2
                   else math.nan),
        hit_rate=float(np.mean(hits)), aborts=int(np.sum(aborted)),
        wall_time=time.perf_counter() - start, chain=chain,
        details=ReplicateDetails(weights, hits, aborted, means,
                                 vs if scheme == "adaptive" else None))


def adaptive_estimate(model: ModelSpec, region: ProductRegion, n: int, L: int,
                      path_config: Optional[PathConfig] = None,
                      chain_config: Optional[MeanChainConfig] = None,
                      seed: int = 0, threads: int = 1,
                      weighting: str = "paired") -> EstimateReport:
    """Adaptive importance-sampling estimate of P(mean of u over n points in region).

    weighting="paired" divides each replicate by its own conditional density
    g_{v_l}; "mixture" (models with gauss_identity_params only) divides by the
    equal-weight mixture of the run densities over all L drawn conditioning
    points, which is also exactly unbiased and keeps typical estimates
    centred when the region has several well-separated components.
    """
    start = time.perf_counter()
    path_config = path_config or PathConfig()
    _check_point(model, region, n, L, "adaptive", path_config, weighting, threads=threads)
    vs, chain_diag = run_chain(model, region, n, chain_config or MeanChainConfig(), count=L,
                               rng=chain_rng(seed))
    return _estimate("adaptive", model, region, n, path_config.resolve_k(n), vs, seed,
                     threads, start, path_config.variant, weighting, chain=chain_diag)


def tilted_iid_estimate(model: ModelSpec, region: ProductRegion, n: int, L: int,
                        seed: int = 0, threads: int = 1) -> EstimateReport:
    """State-independent baseline: runs with k = 0 toward the region's
    dominating point, every point i.i.d. from the tilted law with that mean."""
    start = time.perf_counter()
    _check_point(model, region, n, L, "tilted-iid", threads=threads)
    vs = np.tile(dominating_point(model, region), (L, 1))
    return _estimate("tilted-iid", model, region, n, 0, vs, seed, threads, start)


def naive_estimate(model: ModelSpec, region: ProductRegion, n: int, L: int,
                   seed: int = 0, threads: int = 1) -> EstimateReport:
    """Plain Monte Carlo: runs with k = 0 toward the unconditioned mean, so
    every point is drawn from the base law and every hit weighs 1."""
    start = time.perf_counter()
    _check_point(model, region, n, L, "naive", threads=threads)
    vs = np.tile(mean_map(model, np.zeros(model.s)), (L, 1))
    return _estimate("naive", model, region, n, 0, vs, seed, threads, start)


def run_point(model: ModelSpec, region: ProductRegion, n: int, L: int,
              scheme: str, seed: int, *, sweep_label: str = "-",
              path_config: Optional[PathConfig] = None,
              chain_config: Optional[MeanChainConfig] = None,
              threads: int = 1, weighting: str = "paired") -> EstimateReport:
    """One scheme's estimate at one sweep point.

    The scheme's seed is derived from the base seed, the sweep label ("-"
    when nothing is swept, else e.g. "d=2") and the scheme name, so the
    library and `raresum run` give equal numbers for equal arguments.
    """
    s_seed = derive_seed(seed, "sweep", sweep_label, "scheme", scheme)
    if scheme == "adaptive":
        return adaptive_estimate(model, region, n, L, path_config, chain_config,
                                 seed=s_seed, threads=threads, weighting=weighting)
    if scheme == "tilted-iid":
        return tilted_iid_estimate(model, region, n, L, seed=s_seed, threads=threads)
    if scheme == "naive":
        return naive_estimate(model, region, n, L, seed=s_seed, threads=threads)
    raise ConfigurationError(f"unknown scheme {scheme!r}")


def compare_schemes(model: ModelSpec, region: ProductRegion, n: int, L: int,
                    schemes: Sequence[str] = ("adaptive", "tilted-iid"),
                    path_config: Optional[PathConfig] = None,
                    chain_config: Optional[MeanChainConfig] = None,
                    seed: int = 0, threads: int = 1,
                    weighting: str = "paired") -> list[EstimateReport]:
    """Run several schemes on one unswept problem, as `raresum run` would."""
    return [run_point(model, region, n, L, scheme, seed, path_config=path_config,
                      chain_config=chain_config, threads=threads, weighting=weighting)
            for scheme in schemes]


def format_comparison(reports: Sequence[EstimateReport]) -> str:
    """Human-readable summary with relative-accuracy ratios between schemes."""
    lines = ["scheme       p_hat         std_error     rel_error  weight_cv  hit_rate  aborts"]
    for r in reports:
        lines.append(
            f"{r.scheme:<12} {r.p_hat:<13.6g} {r.std_error:<13.6g} "
            f"{_nanfmt(r.relative_error):<10} {_nanfmt(r.weight_cv):<10} "
            f"{r.hit_rate:<9.4g} {r.aborts}"
        )
    by_name = {r.scheme: r for r in reports}
    if "adaptive" in by_name and "tilted-iid" in by_name:
        a, b = by_name["adaptive"], by_name["tilted-iid"]
        if a.p_hat > 0 and b.p_hat > 0 and not math.isnan(b.relative_error) \
                and not math.isnan(a.relative_error) and a.relative_error > 0:
            lines.append(f"relative-accuracy ratio (tilted-iid / adaptive): "
                         f"{b.relative_error / a.relative_error:.3g}")
    return "\n".join(lines)


def _nanfmt(x: float) -> str:
    return "nan" if math.isnan(x) else format(x, ".4g")
