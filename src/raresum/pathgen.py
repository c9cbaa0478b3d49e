"""Run generation under the adaptive scheme and its exact log-density.

A run of length n splits at index k.  Each of the first k points is drawn
from a density proportional to a Gaussian factor in u(y) times the base
density p_X(y); the factor is re-centred after every draw so the running
statistic is steered toward the conditioning point v.  The remaining n - k
points are i.i.d. draws from the tilted density whose mean closes the gap.

For gaussian-identity models every head step and the tail follow one
closed-form Gaussian law (`gaussian_step`); sampling, the paired density and
the mixture density all read it, and no tilt is solved.  They work on whole
batches of runs as array steps: `_draw_gaussian_points` draws L runs from
pre-drawn normals, and `_gaussian_logdensities` scores H runs under m
conditioning points each, a bounded block of runs at a time.  One run is the
batch of one, so a run's numbers do not depend on the batch it is part of.
For one-dimensional models with a generic statistic
the step density is tabulated on an adaptive grid and sampled by inverse
CDF; the recorded log-density is the exact density of that tabulated
sampler, so importance weights stay unbiased.  One walker (`_grid_path`)
builds each step law of such a run once and either draws the run from it
or evaluates given points under it, so sampling and the density cannot
drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, NumericError, PathAbort, SteepnessError
from .model import GAUSSIAN_IDENTITY, GENERIC_1D, ModelSpec, mean_map
from .tilt import TiltSolution, solve_tilt

_LOG_2PI = math.log(2.0 * math.pi)
_BLOCK_ELEMENTS = 1 << 15  # working-set budget of one block of batched Gaussian runs

VARIANTS = ("uniform-step", "paper-literal")
K_MODES = ("default", "gaussian-exact", "manual")


def select_k(n: int, mode: str = "default", k: Optional[int] = None) -> int:
    """Split index for an n-point run.

    default:        k = n - ceil(sqrt(n)), so k/n -> 1 while n - k -> inf.
    gaussian-exact: k = n - 1, exact for gaussian-identity models.
    manual:         user-supplied k, validated to 1 <= k <= n - 1.
    """
    if mode == "manual":
        if k is None or not 1 <= k <= n - 1:
            raise ConfigurationError(f"manual k must satisfy 1 <= k <= {n - 1}, got {k}")
        return int(k)
    if n < 3:
        raise ConfigurationError("automatic split selection needs n >= 3")
    if mode == "default":
        return n - math.isqrt(n - 1) - 1  # == n - ceil(sqrt(n)) for n >= 2
    if mode == "gaussian-exact":
        return n - 1
    raise ConfigurationError(f"unknown k mode {mode!r}")


@dataclass
class PathConfig:
    k_mode: str = "default"
    k: Optional[int] = None
    variant: str = "uniform-step"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if self.k_mode not in K_MODES:
            raise ConfigurationError(f"unknown k mode {self.k_mode!r}")

    def resolve_k(self, n: int) -> int:
        return select_k(n, self.k_mode, self.k)


def _chol_logdet(cov: np.ndarray):
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericError("covariance not positive definite") from None
    return chol, 2.0 * float(np.sum(np.log(np.diagonal(chol))))


# ---------------------------------------------------------------------------
# Grid-tabulated one-dimensional density.
# ---------------------------------------------------------------------------


class GridDensity1D:
    """Piecewise-linear density built from log-values on a grid.

    Sampling inverts the exact CDF of the piecewise-linear interpolant, and
    `logpdf` reports exactly that interpolant's density, so sampled points
    and recorded densities always match.
    """

    def __init__(self, x: np.ndarray, log_f: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        log_f = np.asarray(log_f, dtype=float)
        self._peak = float(np.max(log_f))
        if not np.isfinite(self._peak):
            raise NumericError("grid density underflowed to zero everywhere")
        f = np.exp(log_f - self._peak)
        dx = np.diff(self.x)
        cell_mass = 0.5 * (f[:-1] + f[1:]) * dx
        total = float(np.sum(cell_mass))
        if total <= 0:
            raise NumericError("grid density has zero total mass")
        # log of the unnormalized integral of exp(log_f)
        self.log_integral = math.log(total) + self._peak
        self._fn = f / total  # normalized knot densities
        self._cdf = np.concatenate([[0.0], np.cumsum(cell_mass / total)])
        self._cdf[-1] = 1.0

    def sample(self, rng, size=None):
        single = size is None
        m = 1 if single else int(size)
        r = rng.random(m)
        idx = np.searchsorted(self._cdf, r, side="right") - 1
        idx = np.clip(idx, 0, len(self.x) - 2)
        a = self._fn[idx]
        b = self._fn[idx + 1]
        h = self.x[idx + 1] - self.x[idx]
        resid = r - self._cdf[idx]
        slope = (b - a) / h
        # Solve a*xi + slope*xi^2/2 = resid for xi in [0, h], stable form.
        disc = np.sqrt(np.maximum(a * a + 2.0 * slope * resid, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = np.where(np.abs(slope) * h > 1e-12 * (a + b),
                          2.0 * resid / (a + disc),
                          np.where(a > 0, resid / np.where(a > 0, a, 1.0), 0.0))
        xi = np.clip(xi, 0.0, h)
        out = self.x[idx] + xi
        return float(out[0]) if single else out

    def logpdf(self, y):
        """Log-density at y; a scalar or a shape-(1,) point gives a float."""
        v = np.atleast_1d(np.asarray(y, dtype=float))
        single = v.shape == (1,)
        out = np.full(v.shape, -np.inf)
        inside = (v >= self.x[0]) & (v <= self.x[-1])
        if np.any(inside):
            vv = v[inside]
            idx = np.clip(np.searchsorted(self.x, vv, side="right") - 1, 0, len(self.x) - 2)
            h = self.x[idx + 1] - self.x[idx]
            w = (vv - self.x[idx]) / h
            dens = (1.0 - w) * self._fn[idx] + w * self._fn[idx + 1]
            with np.errstate(divide="ignore"):
                out[inside] = np.log(dens)
        return float(out[0]) if single else out


def _trapezoid_simpson(f, h):
    """Trapezoid and composite Simpson integrals of the samples f, an odd
    number of them, on a uniform grid of spacing h."""
    ends = float(f[0] + f[-1])
    odd = float(np.sum(f[1:-1:2]))
    even = float(np.sum(f[2:-1:2]))
    return h * (0.5 * ends + odd + even), h / 3.0 * (ends + 4.0 * odd + 2.0 * even)


def _build_grid_density(log_h, window, rel_tol=2e-7, n0=1001, max_refine=4):
    """Tabulate exp(log_h) on `window`, zooming to where the mass lives.

    The bracket is repeatedly trimmed to the set lying within 60 nats of the
    peak (re-trimming handles windows that start absurdly wide), then the
    grid is doubled until trapezoid and Simpson integrals agree to
    `rel_tol`, which controls both the normalizing constant and the fidelity
    of the piecewise-linear sampler.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise NumericError("invalid grid window")
    for _ in range(30):
        grid = np.linspace(lo, hi, n0)
        vals = log_h(grid)
        peak = float(np.max(vals))
        if not np.isfinite(peak):
            raise NumericError("grid density underflowed to zero everywhere")
        keep = np.nonzero(vals >= peak - 60.0)[0]
        pad = (hi - lo) / (n0 - 1)
        lo2 = max(lo, grid[keep[0]] - pad)
        hi2 = min(hi, grid[keep[-1]] + pad)
        if hi2 - lo2 < 1e-300:
            raise NumericError("grid density support collapsed")
        if (hi2 - lo2) > 0.6 * (hi - lo):
            lo, hi = lo2, hi2
            break
        lo, hi = lo2, hi2

    n = 2001
    last = None
    for _ in range(max_refine):
        grid = np.linspace(lo, hi, n)
        vals = log_h(grid)
        peak = float(np.max(vals))
        trap, simp = _trapezoid_simpson(np.exp(vals - peak), (hi - lo) / (n - 1))
        if trap > 0 and abs(simp - trap) <= rel_tol * abs(simp):
            return GridDensity1D(grid, vals)
        last = (grid, vals)
        n = 2 * n - 1
    return GridDensity1D(*last)


# ---------------------------------------------------------------------------
# Step parameters and samplers.
# ---------------------------------------------------------------------------


@dataclass
class StepParams:
    """Grid step for point i+1 of a model without gaussian-identity structure."""

    t: np.ndarray          # tilt solving m(t) = remaining mean; warm-starts the next solve
    beta: np.ndarray       # covariance of the Gaussian steering factor
    gauss_mean: np.ndarray
    log_norm: float        # log of the step density's normalizing constant
    sampler: GridDensity1D = field(repr=False)


def _remaining_mean(v, u_partial, i, n):
    return (n / (n - i)) * (v - u_partial / n)


def gaussian_step(model: ModelSpec, V, u_partial, i: int, n: int,
                  variant: str = "uniform-step"):
    """Means and variances (s,) of the Gaussian law of point i+1 of a
    gaussian-identity run whose first i points sum to u_partial, for each
    conditioning point (row) of V (m, s); stacked V and u_partial broadcast
    against each other.  With r = n - i - 1 and remaining mean
    m_i, uniform-step gives N(m_i, sigma^2 r/(r+1)), paper-literal
    N((r m_i + v)/(r+1), sigma^2 r/(r+1)) and, at i = 0, N(v, sigma^2)."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    sigma2 = model.gauss_identity_params[1]
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if variant == "paper-literal" and i == 0:
        return V, sigma2
    m = _remaining_mean(V, np.asarray(u_partial, dtype=float), i, n)
    left = n - i - 1
    if variant == "paper-literal":
        m = (left * m + V) / (n - i)
    return m, sigma2 * left / (n - i)


def step_params(model: ModelSpec, v, i: int, u_partial, n: int,
                variant: str = "uniform-step", t_warm=None) -> StepParams:
    """Grid-tabulated density of point i+1 (i points already drawn).

    Gaussian-identity models have the closed-form gaussian_step instead.
    """
    if model.conjugacy_tag == GAUSSIAN_IDENTITY:
        raise ConfigurationError("gaussian-identity steps come from gaussian_step")
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    if not 0 <= i <= n - 2:
        raise ConfigurationError(f"step index {i} out of range for n={n}")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    u_partial = np.atleast_1d(np.asarray(u_partial, dtype=float))
    m_target = _remaining_mean(v, u_partial, i, n)
    sol = solve_tilt(model, m_target, t0=t_warm)
    kappa = sol.local.covariance
    remaining = n - i - 1
    corr = np.linalg.solve(kappa, np.linalg.solve(kappa, sol.local.third)) / (2.0 * remaining)
    beta = kappa * remaining
    center = m_target if variant == "uniform-step" else v
    gauss_mean = beta @ (sol.t + corr) + center
    sampler, log_norm = _make_step_sampler(model, gauss_mean, beta)
    return StepParams(t=sol.t, beta=beta, gauss_mean=gauss_mean, log_norm=log_norm,
                      sampler=sampler)


def _make_step_sampler(model: ModelSpec, gauss_mean, beta):
    if model.conjugacy_tag == GENERIC_1D or model.d == 1:
        if model.step_window_fn is not None:
            window = model.step_window_fn(gauss_mean, beta)
        elif model.x_window_fn is not None:
            window = model.x_window_fn(np.zeros(model.s))
        else:
            raise ConfigurationError(
                "generic 1-d model needs step_window_fn or x_window_fn for grid sampling")
        chol, logdet = _chol_logdet(beta)
        # z = (u - gauss_mean) @ whiten is chol^{-1} (u - gauss_mean) per row
        whiten = np.linalg.inv(chol).T
        log_const = -0.5 * (model.s * _LOG_2PI + logdet)

        def log_h(ys):
            z = (np.atleast_2d(model.statistic(ys)) - gauss_mean) @ whiten
            return log_const - 0.5 * np.sum(z * z, axis=1) + model.log_density_x(ys)

        grid = _build_grid_density(log_h, window)
        return grid, -grid.log_integral
    raise ConfigurationError(
        "step sampling for d > 1 models without gaussian-identity structure "
        "is not supported")


# ---------------------------------------------------------------------------
# Tilted densities for the i.i.d. tail (and the state-independent baseline).
# ---------------------------------------------------------------------------


class TiltedDensity:
    """Sampler plus exact log-density for the tilted law with mean `m`."""

    def __init__(self, model: ModelSpec, solution: TiltSolution):
        self.model = model
        self.t = solution.t
        self.log_phi = model.cumulant(solution.t)
        self._family = None
        self._grid = None
        if model.tilted_family is not None:
            self._family = model.tilted_family(self.t)
        elif model.d == 1:
            if model.x_window_fn is None:
                raise ConfigurationError(
                    "custom 1-d model needs x_window_fn for tilted grid sampling")
            window = model.x_window_fn(self.t)
            self._grid = _build_grid_density(self._exact_logpdf, window)
        else:
            raise ConfigurationError("no sampler available for this tilted law")

    def _exact_logpdf(self, x):
        stat = np.atleast_2d(self.model.statistic(x))
        out = stat @ self.t - self.log_phi + self.model.log_density_x(x)
        return np.asarray(out).reshape(-1)

    def sample(self, rng, size=None):
        if self._family is not None:
            return self._family.sample(rng, size=size)
        if size is None:
            return np.array([self._grid.sample(rng)])
        return self._grid.sample(rng, size=size).reshape(size, 1)

    def logpdf(self, x):
        if self._family is not None:
            return self._family.logpdf(x)
        return self._grid.logpdf(np.reshape(x, -1))


def tilted_tail_sampler(model: ModelSpec, m_k, t_warm=None) -> TiltedDensity:
    """Tilted density with mean m_k: exp(<t,u(x)> - K(t)) p_X(x)."""
    sol = solve_tilt(model, m_k, t0=t_warm)
    return TiltedDensity(model, sol)


def base_sampler(model: ModelSpec) -> TiltedDensity:
    """The base density p_X itself, as the zero-tilt member of the family."""
    mu = mean_map(model, np.zeros(model.s))
    return tilted_tail_sampler(model, mu)


# ---------------------------------------------------------------------------
# Whole runs.
# ---------------------------------------------------------------------------


@dataclass
class PathSample:
    points: np.ndarray      # (n, d)
    u_partial: np.ndarray   # (n, s) running sums of u
    log_g: float            # full sampling log-density (head + tail)
    log_p: float            # sum of base log-densities
    v: np.ndarray
    k: int
    log_g_head: float
    log_g_tail: float


@dataclass
class PathDensity:
    log_g_head: float
    log_g_tail: float
    log_p: float

    @property
    def log_g(self) -> float:
        return self.log_g_head + self.log_g_tail


def _check_path_args(model, v, n, k):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (model.s,):
        raise ConfigurationError(f"conditioning point must have shape ({model.s},)")
    if not 1 <= k <= n - 1:
        raise ConfigurationError(f"split index must satisfy 1 <= k <= {n - 1}, got {k}")
    return v


def sample_path(model: ModelSpec, v, n: int, k: int, rng,
                variant: str = "uniform-step") -> PathSample:
    """Draw a full n-point run conditioned toward v and record its densities."""
    v = _check_path_args(model, v, n, k)
    if model.conjugacy_tag == GAUSSIAN_IDENTITY:
        z = rng.standard_normal((1, n, model.d))
        points = _draw_gaussian_points(model, v[None], z, n, k, variant)[0]
        dens = path_logdensity(model, points, v, n, k, variant)
    else:
        points, dens = _grid_path(model, v, n, k, variant, rng=rng)
    u_partial = np.cumsum(np.asarray(model.statistic(points), dtype=float), axis=0)
    if not math.isfinite(dens.log_g):
        raise PathAbort(n - 1, "non-finite sampling log-density")
    return PathSample(points=points, u_partial=u_partial, log_g=dens.log_g,
                      log_p=dens.log_p, v=v, k=k, log_g_head=dens.log_g_head,
                      log_g_tail=dens.log_g_tail)


def _draw_gaussian_points(model, V, Z, n, k, variant):
    """Gaussian-identity runs (L, n, s), run l conditioned toward V[l] and
    driven by the standard normals Z[l] (n, s): k head steps from
    gaussian_step, then n - k i.i.d. N(m_k, sigma^2) points.  Each point is
    mean + sd * z, exactly what rng.normal(mean, sd) returns for the same z."""
    points = np.empty_like(Z)
    u_run = np.zeros_like(V)
    for i in range(k):
        mean, var = gaussian_step(model, V, u_run, i, n, variant)
        points[:, i] = mean + np.sqrt(var) * Z[:, i]
        u_run = u_run + points[:, i]
    tail_mean = _remaining_mean(V, u_run, k, n)
    points[:, k:] = tail_mean[:, None, :] + np.sqrt(model.gauss_identity_params[1]) * Z[:, k:]
    return points


def _grid_path(model, v, n, k, variant, rng=None, points=None):
    """Points and PathDensity of a run of a model without gaussian-identity
    structure: grid steps (or the tilted first step), then the tilted tail.

    Each step's law is built once.  With `points` None the run is drawn from
    these laws with `rng`; otherwise the given points are evaluated under
    them.  A tilt or grid that cannot be built aborts the run at its step.
    """
    draw = points is None
    if draw:
        points = np.empty((n, model.d))
    u_run = np.zeros(model.s)
    log_g_head = 0.0
    t_warm = None
    for i in range(k):
        try:
            if variant == "paper-literal" and i == 0:
                law = tilted_tail_sampler(model, v)
                t_warm = law.t
            else:
                params = step_params(model, v, i, u_run, n, variant, t_warm=t_warm)
                law, t_warm = params.sampler, params.t
        except (SteepnessError, NumericError) as exc:
            raise PathAbort(i, str(exc)) from None
        if draw:
            points[i] = law.sample(rng)
        log_g_head += float(law.logpdf(points[i]))
        u_run = u_run + np.asarray(model.statistic(points[i]), dtype=float)

    try:
        tail = tilted_tail_sampler(model, _remaining_mean(v, u_run, k, n), t_warm=t_warm)
    except (SteepnessError, NumericError) as exc:
        raise PathAbort(k, str(exc)) from None
    if draw:
        points[k:] = tail.sample(rng, size=n - k)
    log_g_tail = float(np.sum(tail.logpdf(points[k:])))
    log_p = float(np.sum(model.log_density_x(points)))
    return points, PathDensity(log_g_head=log_g_head, log_g_tail=log_g_tail, log_p=log_p)


def _normal_logpdf(y, mean, var):
    """log N(y; mean, diag(var)), summed over the last axis."""
    dev = y - mean
    return -0.5 * np.sum(dev * dev / var + np.log(2.0 * np.pi * var), axis=-1)


def _gaussian_logdensities(model, P, V, n, k, variant):
    """Head and tail log-densities, each (H, m), of the gaussian-identity runs
    P (H, n, s) under the scheme conditioned on V, which broadcasts to
    (H, m, s): V[:, None] pairs run h with row h, vs[None] scores every run
    under every row of vs.  Runs are taken in blocks whose (block, m, s) head
    steps, and sub-blocks whose (block, m, n - k, s) tails, stay within
    _BLOCK_ELEMENTS."""
    H, m, s = P.shape[0], V.shape[1], model.s
    V = np.broadcast_to(V, (H, m, s))
    prefix = np.concatenate([np.zeros((H, 1, s)), np.cumsum(P, axis=1)], axis=1)
    head, tail = np.empty((H, m)), np.empty((H, m))
    for b in _blocks(H, m * s):
        Vb, pb = V[b], prefix[b, :, None, :]
        h = 0.0
        for i in range(k):
            mean, var = gaussian_step(model, Vb, pb[:, i], i, n, variant)
            h = h + _normal_logpdf(P[b, i, None, :], mean, var)
        head[b] = h
        tail_mean = _remaining_mean(Vb, pb[:, k], k, n)[:, :, None, :]
        yb, tb = P[b, None, k:, :], tail[b]
        for c in _blocks(len(tb), m * (n - k) * s):
            tb[c] = np.sum(_normal_logpdf(yb[c], tail_mean[c], model.gauss_identity_params[1]),
                           axis=-1)
    return head, tail


def _blocks(count, per_item):
    """Slices covering range(count), each of at most _BLOCK_ELEMENTS / per_item
    items (and at least one)."""
    size = max(1, _BLOCK_ELEMENTS // per_item)
    return [slice(a, a + size) for a in range(0, count, size)]


def mixture_logdensity(model: ModelSpec, points, v_set, n: int, k: int,
                       variant: str = "uniform-step"):
    """Log of the equal-weight mixture over `v_set` of the run densities, for
    one run (n, s) as a float or for a stack of runs (H, n, s) as an (H,) array.

    Only available for gaussian-identity models, whose run densities come in
    closed form for the whole set of conditioning points at once; the value
    at a single v is path_logdensity's log_g.
    """
    if model.conjugacy_tag != GAUSSIAN_IDENTITY:
        raise ConfigurationError("mixture density needs a gaussian-identity model")
    y = np.asarray(points, dtype=float)  # u = identity
    if y.shape[-2:] != (n, model.s) or y.ndim not in (2, 3):
        raise ConfigurationError(
            f"points must have shape ({n}, {model.s}) or (H, {n}, {model.s})")
    vs = np.atleast_2d(np.asarray(v_set, dtype=float))
    head, tail = _gaussian_logdensities(model, y.reshape(-1, n, model.s), vs[None],
                                        n, k, variant)
    total = head + tail
    peak = np.max(total, axis=1)
    mean = np.mean(np.exp(total - peak[:, None]), axis=1)
    out = np.array([float(p) + math.log(float(q)) for p, q in zip(peak, mean)])
    return float(out[0]) if y.ndim == 2 else out


def path_logdensity(model: ModelSpec, points, v, n: int, k: int,
                    variant: str = "uniform-step") -> PathDensity:
    """Log-densities of a given run under the scheme that sample_path uses."""
    v = _check_path_args(model, v, n, k)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape != (n, model.d):
        raise ConfigurationError(f"points must have shape ({n}, {model.d})")
    if model.conjugacy_tag != GAUSSIAN_IDENTITY:
        return _grid_path(model, v, n, k, variant, points=points)[1]
    head, tail = _gaussian_logdensities(model, points[None], v[None, None], n, k, variant)
    return PathDensity(log_g_head=float(head[0, 0]), log_g_tail=float(tail[0, 0]),
                       log_p=float(np.sum(model.log_density_x(points))))
