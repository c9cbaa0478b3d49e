"""Metropolis-Hastings sampling of conditioning points.

The chain targets the law of the sample mean of u(X) restricted to the
region: exactly Gaussian for a model with `gauss_identity_params`, a
first-order saddlepoint surrogate for any other.  Normalizing constants drop
out of the acceptance ratio, so neither target needs the rare-event
probability.

Disconnected regions are handled by mixing the random walk with an
independence proposal that draws uniformly from a small window inside each
connected component, chosen at a step with probability RESTART_PROB; both
kernels are Metropolis-corrected, so the mixture leaves the target
invariant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ConfigurationError, SteepnessError
from .model import ModelSpec, local_cumulants
from .region import ProductRegion, component_boxes, contains, initial_point
from .tilt import solve_tilt

# Probability that a step of a chain on a disconnected region proposes a restart.
RESTART_PROB = 0.1


@dataclass
class MeanChainConfig:
    burn_in: int = 1000
    thinning: int = 5

    def __post_init__(self):
        if self.burn_in < 0:
            raise ConfigurationError("burn_in must be >= 0")
        if self.thinning < 1:
            raise ConfigurationError("thinning must be >= 1")


@dataclass
class MeanChainDiagnostics:
    acceptance_rate: float
    chain_length: int
    mean: np.ndarray
    variance: np.ndarray
    target_kind: str
    stuck: bool = False


def target_logdensity(model: ModelSpec, region: ProductRegion, n: int, v) -> float:
    """Unnormalized log-density of the restricted sample-mean law at v."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    loc0 = local_cumulants(model, np.zeros(model.s))
    _, log_target = _log_target(model, region, n, loc0)
    return log_target(v) if contains(region, v) else -math.inf  # contains checks v's shape


def _log_target(model: ModelSpec, region: ProductRegion, n: int, loc0):
    """(kind, v -> unnormalized log-density of the restricted sample-mean
    law), where loc0 holds the untilted mean and covariance: "exact-gaussian"
    for a model with gauss_identity_params, else "saddlepoint"."""
    if model.gauss_identity_params is not None:
        # X ~ N(mu, diag(sigma2)), so the precision factor is diagonal: its
        # product with v - mean is the elementwise one, to the bit
        prec = np.diagonal(np.linalg.cholesky(np.linalg.inv(loc0.covariance)))
        half_n, prec0, mean0 = -0.5 * n, prec[0].item(), loc0.mean[0].item()

        def log_target(v):
            xs = v.tolist()
            for c, x in zip(region.components, xs):  # membership on Python floats
                if not c.contains(x):
                    return -math.inf
            if len(xs) == 1:  # a dot product of one term is one rounded product
                z = prec0 * (xs[0] - mean0)
                return half_n * z * z
            z = prec * (v - loc0.mean)
            return float(half_n * z @ z)
        return "exact-gaussian", log_target

    def log_target(v):
        if not contains(region, v):
            return -math.inf
        return _saddlepoint_logdensity(model, n, v)
    return "saddlepoint", log_target


def _saddlepoint_logdensity(model: ModelSpec, n: int, v) -> float:
    try:
        sol = solve_tilt(model, v)
    except SteepnessError:
        warnings.warn("conditioning target unattainable inside the region; "
                      "treating its density as zero", RuntimeWarning)
        return -math.inf
    rate = float(sol.t @ sol.target - model.cumulant(sol.t))
    sign, logdet = np.linalg.slogdet(sol.local.covariance)
    if sign <= 0:
        return -math.inf
    return -n * rate - 0.5 * logdet


class _RestartKernel:
    """Independence proposal: uniform over a window inside each component.

    Windows hug the end of each interval nearest the unconditioned mean,
    where the restricted mass concentrates, with extent one proposal scale.
    Window c is the box [lo[c], hi[c]].
    """

    def __init__(self, boxes, mu, scales):
        self.lo = np.empty((len(boxes), len(mu)))
        self.hi = np.empty_like(self.lo)
        for c, box in enumerate(boxes):
            lo, hi = self.lo[c], self.hi[c]
            for j, iv in enumerate(box):
                w = float(scales[j])
                a, b = iv.lower, iv.upper
                if math.isfinite(a) and math.isfinite(b):
                    m = 0.5 * (a + b)
                    lo[j], hi[j] = max(a, m - 0.5 * w), min(b, m + 0.5 * w)
                elif math.isfinite(a):
                    lo[j], hi[j] = a, a + w
                elif math.isfinite(b):
                    lo[j], hi[j] = b - w, b
                else:
                    lo[j], hi[j] = mu[j] - 0.5 * w, mu[j] + 0.5 * w
        self._log_vols = np.array([float(np.sum(np.log(hi - lo)))
                                   for lo, hi in zip(self.lo, self.hi)])
        self._dens = [math.exp(-lv) for lv in self._log_vols]
        self._n = len(boxes)

    def sample(self, rng):
        c = rng.integers(self._n)
        lo, hi = self.lo[c], self.hi[c]
        return lo + (hi - lo) * rng.random(lo.size)

    def logpdf(self, v):
        inside = ((v >= self.lo) & (v <= self.hi)).all(axis=1)
        dens = 0.0
        for d in compress(self._dens, inside.tolist()):
            dens += d
        if dens <= 0.0:
            return -math.inf
        return math.log(dens / self._n)


def run_chain(model: ModelSpec, region: ProductRegion, n: int,
              config: MeanChainConfig, count: int, rng):
    """Sample `count` conditioning points from the restricted mean law.

    Random-walk MH with Gaussian proposals, plus occasional component
    restarts when the region is disconnected.  Returns the thinned states
    after burn-in and chain diagnostics.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    if region.is_empty:
        raise ConfigurationError("region is empty")
    loc0 = local_cumulants(model, np.zeros(model.s))
    scale = np.sqrt(np.diagonal(loc0.covariance) / n)
    kind, logtarget = _log_target(model, region, n, loc0)

    v = initial_point(region, model, n)
    lt = logtarget(v)
    if not math.isfinite(lt):
        raise ConfigurationError("chain initial point has zero target density")

    boxes = component_boxes(region)
    restart = _RestartKernel(boxes, loc0.mean, scale) if len(boxes) > 1 else None

    burn_in, thinning = config.burn_in, config.thinning
    total = burn_in + thinning * count
    states = np.empty((count, model.s))
    stored = 0
    accepted = 0
    # the generator's methods, bound once; the draws are the same, in order
    random, normal, log, s = rng.random, rng.standard_normal, math.log, model.s
    # restart.logpdf(v) changes only when v does: rv caches it, and None
    # marks it stale after an accepted random-walk move.
    rv = None
    for step in range(total):
        if restart is not None and random() < RESTART_PROB:
            prop = restart.sample(rng)
            lp = logtarget(prop)
            if rv is None:
                rv = restart.logpdf(v)
            rprop = restart.logpdf(prop)
            log_alpha = (lp + rv) - (lt + rprop)
        else:
            prop = v + scale * normal(s)
            lp = logtarget(prop)
            rprop = None
            log_alpha = lp - lt
        if log_alpha >= 0 or log(random()) < log_alpha:
            v, lt, rv = prop, lp, rprop
            accepted += 1
        if step >= burn_in and (step - burn_in) % thinning == thinning - 1:
            states[stored] = v
            stored += 1
    assert stored == count

    rate = accepted / total
    diag = MeanChainDiagnostics(
        acceptance_rate=rate,
        chain_length=total,
        mean=states.mean(axis=0),
        variance=states.var(axis=0),
        target_kind=kind,
        stuck=(rate == 0.0),
    )
    if diag.stuck:
        warnings.warn("mean chain accepted no moves; estimation proceeds but "
                      "conditioning points are degenerate", RuntimeWarning)
    return states, diag
