"""Estimators: the adaptive scheme, the state-independent tilted baseline,
and naive Monte Carlo, with shared reporting and weight diagnostics.

The adaptive estimator pairs every replicate's weight with the density it
was actually drawn from: replicate l draws a conditioning point v_l, then a
run under the v_l-conditioned scheme, and weighs it by p/g_{v_l} times the
hit indicator.  Since E[p(Y)/g_v(Y) 1_E(Y)] under g_v equals P(E) for every
v, the estimator is unbiased for any distribution of conditioning points
supported inside the region; chain quality only affects variance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .meanchain import MeanChainConfig, MeanChainDiagnostics, run_chain
from .model import ModelSpec
from .pathgen import (
    PathConfig,
    base_sampler,
    engine_errors,
    mixture_logdensity,
    tilted_tail_sampler,
    walk_runs,
)
from .region import ProductRegion, contains
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


def _finalize(scheme, model, n, k, L, seed, weights, hits, aborted,
              path_mean, v, wall, chain=None) -> EstimateReport:
    weights = np.asarray(weights, dtype=float)
    p_hat = float(np.mean(weights))
    std_error = float(np.std(weights, ddof=1) / math.sqrt(L))
    relative_error = std_error / p_hat if p_hat > 0 else math.nan
    nonzero = weights[weights > 0]
    if nonzero.size >= 2:
        weight_cv = float(np.std(nonzero, ddof=1) / np.mean(nonzero))
    else:
        weight_cv = math.nan
    details = ReplicateDetails(weights=weights, hits=np.asarray(hits, bool),
                               aborted=np.asarray(aborted, bool),
                               path_mean=np.asarray(path_mean, dtype=float),
                               v=None if v is None else np.asarray(v, dtype=float))
    return EstimateReport(
        scheme=scheme, n=n, k=k, d=model.d, s=model.s, L=L, seed=seed,
        p_hat=p_hat, std_error=std_error, relative_error=relative_error,
        weight_cv=weight_cv, hit_rate=float(np.mean(np.asarray(hits, dtype=float))),
        aborts=int(np.sum(aborted)), wall_time=wall, details=details, chain=chain,
    )


def point_errors(model: ModelSpec, region: ProductRegion, n: int, L: int,
                 scheme: str, path_config: Optional[PathConfig] = None,
                 chain_config: Optional[MeanChainConfig] = None,
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
    scale = (chain_config or MeanChainConfig()).proposal_scale
    if scale is not None and scale.size not in (1, model.s):
        errors.append(f"proposal_scale size must be 1 or s={model.s}, got {scale.size}")
    return errors


def _check_point(*args, **kwargs) -> None:
    errors = point_errors(*args, **kwargs)
    if errors:
        raise ConfigurationError(errors[0])


def _adaptive_batch(model, region, n, k, variant, weighting, vs, seed, indices):
    """Weights, hits, aborts and final means of the replicates `indices`,
    replicate l's run drawn with the generator replicate_rng(seed, l).
    Each value depends only on its replicate's index, so any split of the
    indices (--threads) gives the same numbers."""
    points, head, tail, log_p, _ = walk_runs(model, vs[indices], n, k, variant,
                                             rngs=[replicate_rng(seed, l) for l in indices])
    log_g = head + tail
    aborted = ~np.isfinite(log_g)
    out_w = np.zeros(len(indices))
    out_hit = np.zeros(len(indices), dtype=bool)
    out_mean = np.zeros((len(indices), model.s))
    for j in np.flatnonzero(~aborted):
        out_mean[j] = np.cumsum(model.statistic(points[j]), axis=0)[-1] / n
        out_hit[j] = contains(region, out_mean[j])
    hits = np.flatnonzero(out_hit)
    if weighting == "mixture" and hits.size:
        log_g[hits] = mixture_logdensity(model, points[hits], vs, n, k, variant)
    for j in hits:
        out_w[j] = math.exp(log_p[j] - log_g[j])
    return out_w, out_hit, aborted, out_mean


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
    if threads < 1:
        raise ConfigurationError(f"threads must be at least 1, got {threads}")
    path_config = path_config or PathConfig()
    chain_config = chain_config or MeanChainConfig()
    _check_point(model, region, n, L, "adaptive", path_config, chain_config, weighting)
    k = path_config.resolve_k(n)

    vs, chain_diag = run_chain(model, region, n, chain_config, count=L,
                               rng=chain_rng(seed))

    indices = list(range(L))
    if threads > 1:
        # imported here: the process pool costs a tenth of the package's import time
        from concurrent.futures import ProcessPoolExecutor

        chunks = _split(indices, threads * 4)
        results = [None] * len(chunks)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = {
                pool.submit(_adaptive_batch, model, region, n, k,
                            path_config.variant, weighting, vs, seed, chunk): ci
                for ci, chunk in enumerate(chunks)
            }
            for fut, ci in futures.items():
                results[ci] = fut.result()
        weights, hits, aborted, path_mean = (np.concatenate(parts) for parts in zip(*results))
    else:
        weights, hits, aborted, path_mean = _adaptive_batch(
            model, region, n, k, path_config.variant, weighting, vs, seed, indices)

    wall = time.perf_counter() - start
    return _finalize("adaptive", model, n, k, L, seed, weights, hits,
                     aborted, path_mean, vs, wall, chain=chain_diag)


def _split(indices, parts):
    parts = max(1, min(parts, len(indices)))
    return [list(c) for c in np.array_split(np.asarray(indices), parts) if len(c)]


def _iid_estimate(scheme, model, region, n, L, seed, start, sampler, hit_weight):
    """Replicates of n i.i.d. draws from `sampler`; one whose mean of u lands
    in the region scores hit_weight(total of u)."""
    weights = np.zeros(L)
    hits = np.zeros(L, dtype=bool)
    path_mean = np.zeros((L, model.s))
    for l in range(L):
        rng = replicate_rng(seed, l)
        pts = np.atleast_2d(np.asarray(sampler.sample(rng, size=n), dtype=float))
        total = np.asarray(model.statistic(pts), dtype=float).sum(axis=0)
        path_mean[l] = total / n
        if contains(region, path_mean[l]):
            hits[l] = True
            weights[l] = hit_weight(total)
    wall = time.perf_counter() - start
    return _finalize(scheme, model, n, 0, L, seed, weights, hits,
                     np.zeros(L, dtype=bool), path_mean, None, wall)


def tilted_iid_estimate(model: ModelSpec, region: ProductRegion, n: int, L: int,
                        seed: int = 0) -> EstimateReport:
    """State-independent baseline: every point i.i.d. from the tilted law
    anchored at the region's dominating point."""
    start = time.perf_counter()
    _check_point(model, region, n, L, "tilted-iid")
    sampler = tilted_tail_sampler(model, dominating_point(model, region))
    return _iid_estimate(
        "tilted-iid", model, region, n, L, seed, start, sampler,
        lambda total: math.exp(n * sampler.log_phi - float(sampler.t @ total)))


def naive_estimate(model: ModelSpec, region: ProductRegion, n: int, L: int,
                   seed: int = 0) -> EstimateReport:
    """Plain Monte Carlo indicator average under the base density."""
    start = time.perf_counter()
    _check_point(model, region, n, L, "naive")
    # every hit weighs exactly 1; exp(n K(0)) may round away from it
    return _iid_estimate("naive", model, region, n, L, seed, start,
                         base_sampler(model), lambda total: 1.0)


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
        return tilted_iid_estimate(model, region, n, L, seed=s_seed)
    if scheme == "naive":
        return naive_estimate(model, region, n, L, seed=s_seed)
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
