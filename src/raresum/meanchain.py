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

A step costs little more than its draws.  The state, each proposal, the
region test and the restart kernel are Python floats; the region test reads
the region's own member spans (`IntervalUnion.spans`).  The generator is
called as `random()`, `standard_normal(s)`, `integers(c)` and `random(s)`,
one call per draw.  The Gaussian target is evaluated on floats at s = 1 and
keeps numpy's `z @ z` at s > 1, which a Python sum does not match to the
bit.  The restart kernel finds the windows that hold a point through
per-coordinate bit masks, in O(s) rather than over every window.  The
saddlepoint target reads t, K(t) and kappa(t) from one `solve_tilts` row.
A chain that accepts fewer than LOW_ACCEPTANCE of its moves warns; its
diagnostics count its distinct thinned states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, SteepnessError
from .model import ModelSpec, local_cumulants
from .region import ProductRegion, component_boxes, contains, initial_point
from .tilt import solve_tilts

# Probability that a step of a chain on a disconnected region proposes a restart.
RESTART_PROB = 0.1
# Acceptance rate below which run_chain warns that its states barely move.
LOW_ACCEPTANCE = 0.05


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
    distinct_points: int  # distinct thinned states
    stuck: bool = False


def target_logdensity(model: ModelSpec, region: ProductRegion, n: int, v) -> float:
    """Unnormalized log-density of the restricted sample-mean law at v."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    loc0 = local_cumulants(model, np.zeros(model.s))
    _, log_target = _log_target(model, region, n, loc0)
    return log_target(v.tolist()) if contains(region, v) else -math.inf  # contains checks v's shape


def _log_target(model: ModelSpec, region: ProductRegion, n: int, loc0):
    """(kind, xs -> unnormalized log-density of the restricted sample-mean
    law at the point xs, a list of Python floats), where loc0 holds the
    untilted mean and covariance: "exact-gaussian" for a model with
    gauss_identity_params, else "saddlepoint"."""
    if model.gauss_identity_params is not None:
        # X ~ N(mu, diag(sigma2)), so the precision factor is diagonal: its
        # product with v - mean is the elementwise one, to the bit
        prec = np.diagonal(np.linalg.cholesky(np.linalg.inv(loc0.covariance)))
        half_n, prec0, mean0 = -0.5 * n, prec[0].item(), loc0.mean[0].item()

        def density(xs):
            if len(xs) == 1:  # a dot product of one term is one rounded product
                z = prec0 * (xs[0] - mean0)
                return half_n * z * z
            # numpy's z @ z, which a Python sum does not match to the bit
            z = prec * (np.array(xs) - loc0.mean)
            return float(half_n * z @ z)
        kind = "exact-gaussian"
    else:
        density, kind = partial(_saddlepoint_logdensity, model, n), "saddlepoint"
    members = [c.spans for c in region.components]

    def log_target(xs):
        for x, spans in zip(xs, members):
            for a, b in spans:
                if a <= x <= b:
                    break
            else:
                return -math.inf
        return density(xs)
    return kind, log_target


def _saddlepoint_logdensity(model: ModelSpec, n: int, xs) -> float:
    """-n I(v) - log det kappa(t) / 2 at v = xs, from one solve_tilts row."""
    tilts = solve_tilts(model, np.array([xs]))
    error = tilts.errors[0]
    if isinstance(error, SteepnessError):
        warnings.warn("conditioning target unattainable inside the region; "
                      "treating its density as zero", RuntimeWarning)
        return -math.inf
    if error is not None:
        raise error
    t = tilts.t[0]
    rate = float(t @ tilts.target[0] - model.cumulant(t))
    sign, logdet = np.linalg.slogdet(tilts.covariance[0])
    if sign <= 0:
        return -math.inf
    return -n * rate - 0.5 * logdet


class _RestartKernel:
    """Independence proposal: uniform over a window inside each component.

    Windows hug the end of each interval nearest the unconditioned mean,
    where the restricted mass concentrates, with extent one proposal scale.
    Window c is the box [lo[c], hi[c]].  Points are lists of Python floats.
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
        self._corners = self.lo.tolist()
        self._widths = (self.hi - self.lo).tolist()
        # per coordinate, each distinct window interval [a, b] with the bit
        # mask of the windows that span it there: a point lies in window c
        # when bit c is set in every coordinate's mask of intervals holding it
        self._spans = []
        for lo_j, hi_j in zip(self.lo.T.tolist(), self.hi.T.tolist()):
            masks = {}
            for c, ab in enumerate(zip(lo_j, hi_j)):
                masks[ab] = masks.get(ab, 0) | 1 << c
            self._spans.append([(a, b, m) for (a, b), m in masks.items()])
        self._every = (1 << self._n) - 1

    def sample(self, rng):
        c = rng.integers(self._n)
        return [a + w * u for a, w, u in zip(self._corners[c], self._widths[c],
                                             rng.random(len(self._widths[c])).tolist())]

    def logpdf(self, xs):
        held = self._every
        for x, spans in zip(xs, self._spans):
            mask = 0
            for a, b, m in spans:
                if a <= x <= b:
                    mask |= m
            held &= mask
        dens = 0.0
        while held:  # the windows' densities, added in window order
            low = held & -held
            dens += self._dens[low.bit_length() - 1]
            held ^= low
        if dens <= 0.0:
            return -math.inf
        return math.log(dens / self._n)


def run_chain(model: ModelSpec, region: ProductRegion, n: int,
              config: MeanChainConfig, count: int, rng):
    """Sample `count` conditioning points from the restricted mean law.

    Random-walk MH with Gaussian proposals, plus occasional component
    restarts when the region is disconnected.  Returns the thinned states
    after burn-in and chain diagnostics, and warns when the chain accepts
    no moves or fewer than LOW_ACCEPTANCE of them.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    if region.is_empty:
        raise ConfigurationError("region is empty")
    loc0 = local_cumulants(model, np.zeros(model.s))
    scale = np.sqrt(np.diagonal(loc0.covariance) / n).tolist()
    kind, logtarget = _log_target(model, region, n, loc0)

    v = initial_point(region, model, n).tolist()
    lt = logtarget(v)
    if not math.isfinite(lt):
        raise ConfigurationError("chain initial point has zero target density")

    boxes = component_boxes(region)
    restart = _RestartKernel(boxes, loc0.mean, scale) if len(boxes) > 1 else None

    burn_in, thinning = config.burn_in, config.thinning
    total = burn_in + thinning * count
    states = []
    accepted = 0
    # the generator's methods, bound once; the draws are the same, in order
    random, normal, log, s, inf = rng.random, rng.standard_normal, math.log, model.s, math.inf
    # restart.logpdf(v) changes only when v does: rv caches it, and None
    # marks it stale after an accepted random-walk move.
    rv = None
    keep = burn_in + thinning - 1  # the next step whose state is kept
    for step in range(total):
        if restart is not None and random() < RESTART_PROB:
            prop = restart.sample(rng)
            lp = logtarget(prop)
            if rv is None:
                rv = restart.logpdf(v)
            rprop = restart.logpdf(prop)
            log_alpha = (lp + rv) - (lt + rprop)
        else:
            prop = [x + h * z for x, h, z in zip(v, scale, normal(s).tolist())]
            lp = logtarget(prop)
            rprop = None
            log_alpha = lp - lt
        # a uniform draw of exactly 0.0 has log -inf
        if log_alpha >= 0 or (log(u) if (u := random()) > 0.0 else -inf) < log_alpha:
            v, lt, rv = prop, lp, rprop
            accepted += 1
        if step == keep:
            states.append(v)
            keep += thinning
    states = np.array(states)
    assert states.shape == (count, s)

    rate = accepted / total
    diag = MeanChainDiagnostics(
        acceptance_rate=rate,
        chain_length=total,
        mean=states.mean(axis=0),
        variance=states.var(axis=0),
        target_kind=kind,
        distinct_points=len(np.unique(states, axis=0)),
        stuck=(rate == 0.0),
    )
    if diag.stuck:
        warnings.warn("mean chain accepted no moves; estimation proceeds but "
                      "conditioning points are degenerate", RuntimeWarning)
    elif rate < LOW_ACCEPTANCE:
        warnings.warn(f"mean chain acceptance {rate:.3g} is below {LOW_ACCEPTANCE}: "
                      f"{diag.distinct_points} of its {count} conditioning points are "
                      "distinct", RuntimeWarning)
    return states, diag
