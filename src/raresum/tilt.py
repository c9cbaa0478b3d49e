"""Tilting equation solver, rate function, and dominating points."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BaselineUnavailable, ConfigurationError, NumericError, SteepnessError
from .model import LocalCumulants, ModelSpec, _moment, cholesky_rows, mean_map
from .region import ProductRegion, component_boxes, contains

DEFAULT_TOL = 1e-10
MAX_ITER = 200
# Largest residual, in standard deviations of the tilted law, that counts as
# a solve, closed-form or Newton.  The bundled configs' and benchmark
# workloads' Newton solves end below 5e-9, closed-form ones at rounding level.
# Newton meets the absolute tolerance at a target on the boundary of the mean
# range (a custom exponential-mean at 0) only as the tilted law collapses, and
# ends about one standard deviation away; the built-in's tilt_fn rejects that
# target before any residual is taken.
MAX_RESIDUAL = 1e-3


@dataclass(frozen=True)
class TiltSolution(LocalCumulants):
    """One solved tilt: the tilted law's LocalCumulants at t, plus the target."""

    target: np.ndarray
    iterations: int
    residual: float  # |m(t) - target| in the kappa^{-1}-induced norm


def _max_feasible_step(model: ModelSpec, t: np.ndarray, direction: np.ndarray) -> float:
    """Largest step along `direction` keeping t inside the domain's inner box."""
    lo, hi = model.cumulant_domain.inner
    limit = math.inf
    for j in range(t.size):
        d = direction[j]
        if d > 0 and math.isfinite(hi[j]):
            limit = min(limit, (hi[j] - t[j]) / d)
        elif d < 0 and math.isfinite(lo[j]):
            limit = min(limit, (t[j] - lo[j]) / (-d))
    return limit


def _singular_covariance(model: ModelSpec, t, t_start) -> SteepnessError:
    """The error for a covariance that vanished at t.  If Newton carried t
    from its start toward an unbounded end of the domain, the mean map
    flattened out short of the target, so the target cannot be reached."""
    dom = model.cumulant_domain
    outward = (((t < t_start) & np.isneginf(dom.lower))
               | ((t > t_start) & np.isposinf(dom.upper)))
    if np.any(outward):
        return SteepnessError("target outside the attainable mean range")
    return SteepnessError("singular covariance in the tilt solve")


@dataclass(frozen=True)
class TiltBatch:
    """Tilts solving m(t) = target for a stack of targets, one per row.  A
    row that cannot be solved holds the error that stopped it."""

    target: np.ndarray      # (R, s)
    t: np.ndarray           # (R, s)
    mean: np.ndarray        # (R, s)
    covariance: np.ndarray  # (R, s, s)
    iterations: np.ndarray  # (R,)
    residual: np.ndarray    # (R,) |m(t) - target| in the kappa^{-1}-induced norm
    errors: list            # per row: None, or its SteepnessError / NumericError
    model: ModelSpec = field(repr=False)
    reached: np.ndarray = field(repr=False)  # (R,) rows whose moments were taken

    @cached_property
    def third(self) -> np.ndarray:
        """(R, s) contracted third cumulants, taken on first read (by the
        walker's step laws and `solution`; not by the chain's target)."""
        return _moment(self.model, 2, self.t, self.reached)

    def solution(self, j: int) -> TiltSolution:
        """Row j as a TiltSolution; raises the row's error if it failed."""
        if self.errors[j] is not None:
            raise self.errors[j]
        return TiltSolution(t=self.t[j], mean=self.mean[j], covariance=self.covariance[j],
                            third=self.third[j], target=self.target[j],
                            iterations=int(self.iterations[j]),
                            residual=float(self.residual[j]))


def solve_tilts(model: ModelSpec, A, T0=None) -> TiltBatch:
    """Solve m(t) = alpha for every row alpha of A (R, s).

    A model with a closed-form inverse mean map (`tilt_fn`) gets all tilts
    from one call of it, a NaN row marking a target it cannot attain; `T0`
    is unused.  Otherwise each row runs damped Newton on the dual K(t) -
    <t, alpha> to DEFAULT_TOL from t = 0 (always inside the domain), or from
    its row of `T0` when that row is finite, e.g. to warm-start from a
    neighbouring solve.  The mean and covariance at the solved tilts come
    from the model's moments (`model._moment`), and the third cumulants too,
    on the first read of `third`.  Either way a row's tilt must lie
    inside the domain margin, have a positive definite covariance and reach
    alpha to MAX_RESIDUAL.  A row that fails gets SteepnessError when its
    target cannot be reached, which signals that alpha lies outside the
    attainable mean range, or NumericError for a covariance that is not
    positive definite; its other entries are then meaningless.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != model.s:
        raise ConfigurationError(f"targets must have shape (R, {model.s})")
    R, s = A.shape
    errors = [None] * R
    iterations = np.zeros(R, dtype=int)
    if model.tilt_fn is not None:
        T = np.asarray(model.tilt_fn(A[0] if R == 1 else A), dtype=float).reshape(R, s)
        solved = model.cumulant_domain.contains_rows(T, margin=True)
    else:
        T = np.full((R, s), np.nan)
        for j in range(R):
            t0 = None if T0 is None or not np.all(np.isfinite(T0[j])) else T0[j]
            try:
                T[j], iterations[j] = _newton(model, A[j], t0)
            except SteepnessError as exc:
                errors[j] = exc
        solved = np.array([e is None for e in errors], dtype=bool)
    M, C = _moment(model, 0, T, solved), _moment(model, 1, T, solved)
    chol, pd = cholesky_rows(C)
    pd &= solved
    # |m(t) - target| in the kappa^{-1} norm, the length of chol^{-1} (m(t) - target):
    # forward substitution, one coordinate of all rows at a time
    res, L, z = (M - A).T, chol.transpose(1, 2, 0), []
    for i in range(s):
        zi = res[i]
        for j in range(i):
            zi = zi - L[i, j] * z[j]
        z.append(zi / L[i, i])
    quad = z[0] * z[0]
    for zi in z[1:]:
        quad += zi * zi
    residual = np.sqrt(quad)
    for j, (ok, posdef, r) in enumerate(zip(solved.tolist(), pd.tolist(), residual.tolist())):
        if errors[j] is not None:
            continue
        if not ok:
            errors[j] = SteepnessError("target outside the attainable mean range")
        elif not posdef:
            errors[j] = NumericError(
                f"covariance of the tilted law is not positive definite at t={T[j]}")
        elif not r <= MAX_RESIDUAL:
            errors[j] = SteepnessError("target outside the attainable mean range")
    return TiltBatch(target=A, t=T, mean=M, covariance=C, iterations=iterations,
                     residual=residual, errors=errors, model=model, reached=solved)


def solve_tilt(model: ModelSpec, alpha, t0=None) -> TiltSolution:
    """Solve m(t) = alpha: the batch of one of `solve_tilts`.  Raises
    SteepnessError when the target cannot be reached, which signals that
    alpha lies outside the attainable mean range."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.shape != (model.s,):
        raise ConfigurationError(f"target must have shape ({model.s},)")
    T0 = None if t0 is None else np.asarray(t0, dtype=float).reshape(1, model.s)
    return solve_tilts(model, alpha[None], T0).solution(0)


def _newton(model: ModelSpec, alpha, t0):
    """(t, iterations) of damped Newton on the dual from t0, or from t = 0
    when t0 is None or outside the domain margin, until every coordinate of
    m(t) is within DEFAULT_TOL of alpha."""
    t = np.zeros(model.s) if t0 is None else np.array(t0, dtype=float)
    if not model.cumulant_domain.contains(t, margin=True):
        t = np.zeros(model.s)
    t_start = t

    def dual(tv):
        return model.cumulant(tv) - float(np.dot(tv, alpha))

    f = dual(t)
    scalar = model.s == 1
    for it in range(1, MAX_ITER + 1):
        m, cov = (_moment(model, which, t[None])[0] for which in (0, 1))
        residual_vec = m - alpha
        if np.max(np.abs(residual_vec)) <= DEFAULT_TOL:
            return t, it - 1
        if scalar:
            if cov[0, 0] <= 0:
                raise _singular_covariance(model, t, t_start)
            with np.errstate(over="ignore"):
                direction = -residual_vec / cov[0, 0]
        else:
            try:
                direction = np.linalg.solve(cov, -residual_vec)
            except np.linalg.LinAlgError:
                raise _singular_covariance(model, t, t_start) from None
        if not np.all(np.isfinite(direction)):
            raise SteepnessError("tilt step diverged; target outside the "
                                 "attainable mean range")
        # Directional derivative of the dual along the Newton direction.
        slope = float(residual_vec @ direction)
        step = min(1.0, 0.99 * _max_feasible_step(model, t, direction))
        if step <= 0:
            raise SteepnessError("tilt iterate pinned to the domain boundary")
        # In the quadratic-convergence regime dual decrements drop below float
        # rounding, so the full feasible Newton step, if inside the domain
        # margin, is taken without the sufficient-decrease test.
        quadratic = np.max(np.abs(residual_vec)) < 1e-6
        slack = 8.0 * np.finfo(float).eps * (1.0 + abs(f))
        for trial in range(60):
            cand = t + step * direction
            if model.cumulant_domain.contains(cand, margin=True):
                fc = dual(cand)
                if quadratic and trial == 0 or fc <= f + 1e-4 * step * slope + slack:
                    t, f = cand, fc
                    break
            step *= 0.5
        else:
            raise SteepnessError(f"line search failed at iteration {it} for target {alpha}")
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


def dominating_point(model: ModelSpec, region: ProductRegion) -> np.ndarray:
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
    if len(distinct) > 1:
        warnings.warn(
            "multiple dominating points attain the minimal rate; "
            "the state-independent baseline will ignore all but one",
            RuntimeWarning,
        )
    return distinct[0]
