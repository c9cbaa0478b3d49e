"""Tilting equation solver, rate function, and dominating points."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BaselineUnavailable, ConfigurationError, SteepnessError
from .model import (
    LocalCumulants,
    ModelSpec,
    assemble_local_cumulants,
    mean_and_cov,
    mean_map,
)
from .region import ProductRegion, component_boxes, contains

DEFAULT_TOL = 1e-10
MAX_ITER = 200


@dataclass(frozen=True)
class TiltSolution:
    target: np.ndarray
    t: np.ndarray
    local: LocalCumulants
    iterations: int
    residual: float  # |m(t) - target| in the kappa^{-1}-induced norm


def _max_feasible_step(model: ModelSpec, t: np.ndarray, direction: np.ndarray) -> float:
    """Largest step along `direction` keeping t strictly inside the domain box."""
    dom = model.cumulant_domain
    margin = dom.margin()
    limit = math.inf
    for j in range(t.size):
        d = direction[j]
        if d > 0 and math.isfinite(dom.upper[j]):
            room = (dom.upper[j] - margin[j]) - t[j]
            limit = min(limit, room / d)
        elif d < 0 and math.isfinite(dom.lower[j]):
            room = t[j] - (dom.lower[j] + margin[j])
            limit = min(limit, room / (-d))
    return limit


def solve_tilt(model: ModelSpec, alpha, tol: float = DEFAULT_TOL,
               t0=None) -> TiltSolution:
    """Solve m(t) = alpha by damped Newton on the dual K(t) - <t, alpha>.

    Starts at t = 0 (always inside the domain) unless `t0` is given, e.g. to
    warm-start from a neighbouring solve.  Raises SteepnessError when the
    iteration cannot reach the target, which signals that alpha lies outside
    the attainable mean range.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.shape != (model.s,):
        raise ConfigurationError(f"target must have shape ({model.s},)")
    t = np.zeros(model.s) if t0 is None else np.array(t0, dtype=float)
    if not model.cumulant_domain.contains(t, margin=True):
        t = np.zeros(model.s)

    def dual(tv):
        return model.cumulant(tv) - float(np.dot(tv, alpha))

    f = dual(t)
    scalar = model.s == 1
    for it in range(1, MAX_ITER + 1):
        m, cov = mean_and_cov(model, t)
        residual_vec = m - alpha
        if np.max(np.abs(residual_vec)) <= tol:
            loc = assemble_local_cumulants(model, t, m, cov)
            if scalar:
                r = abs(float(residual_vec[0])) / math.sqrt(float(cov[0, 0]))
            else:
                r = float(np.sqrt(residual_vec @ np.linalg.solve(loc.covariance,
                                                                 residual_vec)))
            return TiltSolution(target=alpha, t=t, local=loc, iterations=it - 1, residual=r)
        if scalar:
            if cov[0, 0] <= 0:
                raise SteepnessError("singular covariance in the tilt solve")
            with np.errstate(over="ignore"):
                direction = -residual_vec / cov[0, 0]
        else:
            try:
                direction = np.linalg.solve(cov, -residual_vec)
            except np.linalg.LinAlgError:
                raise SteepnessError("singular covariance in the tilt solve") from None
        if not np.all(np.isfinite(direction)):
            raise SteepnessError("tilt step diverged; target outside the "
                                 "attainable mean range")
        # Directional derivative of the dual along the Newton direction.
        slope = float(residual_vec @ direction)
        step = min(1.0, 0.99 * _max_feasible_step(model, t, direction))
        if step <= 0:
            raise SteepnessError("tilt iterate pinned to the domain boundary")
        if np.max(np.abs(residual_vec)) < 1e-6:
            # Quadratic-convergence regime: dual decrements drop below float
            # rounding, so skip the sufficient-decrease test and take the
            # full feasible Newton step.
            cand = t + step * direction
            if model.cumulant_domain.contains(cand, margin=True):
                t, f = cand, dual(cand)
                continue
        accepted = False
        slack = 8.0 * np.finfo(float).eps * (1.0 + abs(f))
        for _ in range(60):
            cand = t + step * direction
            if model.cumulant_domain.contains(cand, margin=True):
                fc = dual(cand)
                if fc <= f + 1e-4 * step * slope + slack:
                    t, f = cand, fc
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            raise SteepnessError(
                f"line search failed at iteration {it} for target {alpha}")
    raise SteepnessError(f"no convergence in {MAX_ITER} iterations for target {alpha}")


def rate_function(model: ModelSpec, v, t0=None, with_grad: bool = False):
    """Legendre transform of the cumulant function at v; zero at the mean.

    With with_grad=True returns (value, gradient); the gradient is the tilt.
    """
    sol = solve_tilt(model, v, t0=t0)
    value = float(np.dot(sol.t, sol.target) - model.cumulant(sol.t))
    return (value, sol.t) if with_grad else value


def _minimize_rate_in_box(model: ModelSpec, lo, hi, start, max_iter=200):
    """Projected gradient descent of the rate function over a box.

    The rate function is smooth and convex on the attainable set with
    gradient equal to the solved tilt, so a monotone projected-gradient
    iteration with backtracking converges; unattainable probes are treated
    as +inf by shrinking the step.
    """
    v = np.clip(np.asarray(start, dtype=float), lo, hi)
    try:
        value, grad = rate_function(model, v, with_grad=True)
    except SteepnessError:
        return None
    t_warm = grad
    eta = 1.0
    for _ in range(max_iter):
        moved = False
        step = eta
        for _ in range(50):
            cand = np.clip(v - step * grad, lo, hi)
            delta = v - cand
            if np.max(np.abs(delta)) < 1e-14:
                break
            try:
                c_value, c_grad = rate_function(model, cand, t0=t_warm,
                                                 with_grad=True)
            except SteepnessError:
                step *= 0.25
                continue
            if c_value <= value - 1e-6 * float(grad @ delta):
                v, value, grad, t_warm = cand, c_value, c_grad, c_grad
                eta = min(step * 2.0, 1e6)
                moved = True
                break
            step *= 0.5
        if not moved:
            break
        # First-order optimality on the box: the projected gradient vanishes.
        proj = np.clip(v - grad, lo, hi) - v
        if np.max(np.abs(proj)) < 1e-12 * (1.0 + np.max(np.abs(v))):
            break
    return v, value


def dominating_point(model: ModelSpec, region: ProductRegion,
                     warn_multiplicity: bool = True) -> np.ndarray:
    """Minimizer of the rate function over the closure of the region.

    Enumerates the product of per-coordinate intervals (the region's
    connected components), refines within each box by projected gradient,
    and returns the lexicographically smallest minimizer, warning when there
    are several.  Used only by the state-independent baseline.
    """
    if region.is_empty:
        raise ConfigurationError("region is empty")
    if region.s != model.s:
        raise ConfigurationError("region and model constraint counts differ")
    mu = mean_map(model, np.zeros(model.s))
    if contains(region, mu):
        return mu

    try:
        boxes = component_boxes(region)
    except ConfigurationError as exc:
        raise BaselineUnavailable(str(exc)) from None

    candidates = []
    for box in boxes:
        lo = np.array([iv.lower for iv in box])
        hi = np.array([iv.upper for iv in box])
        result = _minimize_rate_in_box(model, lo, hi, start=mu)
        if result is None:
            # Clipping the mean landed on an unattainable point; probe from
            # interior nudges before giving up on this component.
            width = np.where(np.isfinite(hi - lo), hi - lo, 1.0)
            for shift in (1e-3, 1e-1):
                start = np.clip(mu, lo + shift * width, hi - shift * width)
                result = _minimize_rate_in_box(model, lo, hi, start=start)
                if result is not None:
                    break
        if result is not None:
            candidates.append(result)
    if not candidates:
        raise BaselineUnavailable("rate function has no finite minimizer on the region")

    best = min(c[1] for c in candidates)
    scale = 1e-9 * (1.0 + abs(best))
    winners = [v for v, val in candidates if val <= best + scale]
    winners.sort(key=lambda v: tuple(v))
    distinct = [winners[0]]
    for w in winners[1:]:
        if np.max(np.abs(w - distinct[-1])) > 1e-6:
            distinct.append(w)
    if len(distinct) > 1 and warn_multiplicity:
        warnings.warn(
            "multiple dominating points attain the minimal rate; "
            "the state-independent baseline will ignore all but one",
            RuntimeWarning,
        )
    return distinct[0]
