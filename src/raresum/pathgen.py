"""Run generation under the adaptive scheme and its exact log-density.

A run of length n splits at index k.  Each of the first k points is drawn
from a density proportional to a Gaussian factor in u(y) times the base
density p_X(y); the factor is re-centred after every draw so the running
statistic is steered toward the conditioning point v.  The remaining n - k
points are i.i.d. draws from the tilted density whose mean closes the gap.

For gaussian-identity models the per-step density is itself Gaussian and is
sampled in closed form.  For one-dimensional models with a generic statistic
the step density is tabulated on an adaptive grid and sampled by inverse
CDF; the recorded log-density is the exact density of that tabulated
sampler, so importance weights stay unbiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import simpson

from .errors import ConfigurationError, NumericError, PathAbort, SteepnessError
from .model import GAUSSIAN_IDENTITY, GENERIC_1D, ModelSpec
from .tilt import TiltSolution, solve_tilt

_LOG_2PI = math.log(2.0 * math.pi)

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
        single = np.isscalar(y) or np.ndim(y) == 0
        v = np.atleast_1d(np.asarray(y, dtype=float))
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
        scaled = np.exp(vals - peak)
        trap = float(np.trapezoid(scaled, grid))
        simp = float(simpson(scaled, x=grid))
        if trap > 0 and abs(simp - trap) <= rel_tol * abs(simp):
            return GridDensity1D(grid, vals)
        last = (grid, vals)
        n = 2 * n - 1
    return GridDensity1D(*last)


# ---------------------------------------------------------------------------
# Step parameters and samplers.
# ---------------------------------------------------------------------------


class _GaussianStepSampler:
    """Closed-form step for gaussian-identity models: the product of the
    Gaussian steering factor and the Gaussian base density is Gaussian.
    All covariances involved are diagonal, so this works coordinate-wise."""

    def __init__(self, post_mean, post_var):
        self.post_mean = post_mean
        self.post_var = post_var
        self._sd = np.sqrt(post_var)
        self._log_norm = -0.5 * float(np.sum(np.log(2.0 * np.pi * post_var)))
        self._s = post_mean.size

    def draw(self, rng):
        y = self.post_mean + self._sd * rng.standard_normal(self._s)
        return y, self.logpdf(y)

    def logpdf(self, y):
        dev = np.asarray(y, dtype=float) - self.post_mean
        return float(-0.5 * np.sum(dev * dev / self.post_var)) + self._log_norm


class _GridStepSampler:
    """Grid-tabulated step for d = 1 models with a non-conjugate statistic."""

    def __init__(self, grid: GridDensity1D):
        self.grid = grid

    def draw(self, rng):
        y = self.grid.sample(rng)
        return np.array([y]), float(self.grid.logpdf(y))

    def logpdf(self, y):
        return float(self.grid.logpdf(float(np.asarray(y).reshape(()))))


@dataclass
class StepParams:
    """Everything needed to draw point i+1 given the first i points."""

    i: int
    m_target: np.ndarray   # mean the remaining points must average to
    t: np.ndarray          # tilt solving m(t) = m_target
    alpha: np.ndarray      # t plus the third-cumulant correction
    beta: np.ndarray       # covariance of the Gaussian steering factor
    gauss_mean: np.ndarray
    log_norm: float        # log of the step density's normalizing constant
    sampler: object = field(repr=False)
    tilt_solution: TiltSolution = field(repr=False)


def _remaining_mean(v, u_partial, i, n):
    return (n / (n - i)) * (v - u_partial / n)


def step_params(model: ModelSpec, v, i: int, u_partial, n: int,
                variant: str = "uniform-step", t_warm=None) -> StepParams:
    """Parameters of the density for point i+1 (i points already drawn)."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    if not 0 <= i <= n - 2:
        raise ConfigurationError(f"step index {i} out of range for n={n}")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    u_partial = np.atleast_1d(np.asarray(u_partial, dtype=float))
    m_target = _remaining_mean(v, u_partial, i, n)
    sol = solve_tilt(model, m_target, t0=t_warm)
    kappa = sol.local.covariance
    gamma = sol.local.third
    remaining = n - i - 1
    if np.any(gamma):
        corr = np.linalg.solve(kappa, np.linalg.solve(kappa, gamma)) / (2.0 * remaining)
    else:
        corr = 0.0
    alpha = sol.t + corr
    beta = kappa * remaining
    center = m_target if variant == "uniform-step" else v
    gauss_mean = beta @ alpha + center
    sampler, log_norm = _make_step_sampler(model, gauss_mean, beta)
    return StepParams(i=i, m_target=m_target, t=sol.t, alpha=alpha, beta=beta,
                      gauss_mean=gauss_mean, log_norm=log_norm, sampler=sampler,
                      tilt_solution=sol)


def _make_step_sampler(model: ModelSpec, gauss_mean, beta):
    if model.conjugacy_tag == GAUSSIAN_IDENTITY:
        # Everything here is diagonal: the base covariance by construction
        # and beta because kappa is constant diagonal for this family.
        mu, sigma2 = model.gauss_identity_params
        beta_diag = np.diagonal(beta)
        conv_var = beta_diag + sigma2
        dev = gauss_mean - mu
        log_conv = -0.5 * float(np.sum(dev * dev / conv_var)
                                + np.sum(np.log(2.0 * np.pi * conv_var)))
        gain = sigma2 / conv_var
        post_mean = mu + gain * dev
        post_var = sigma2 - gain * sigma2
        return _GaussianStepSampler(post_mean, post_var), -log_conv
    if model.conjugacy_tag == GENERIC_1D or model.d == 1:
        if model.step_window_fn is not None:
            window = model.step_window_fn(gauss_mean, beta)
        elif model.x_window_fn is not None:
            window = model.x_window_fn(np.zeros(model.s))
        else:
            raise ConfigurationError(
                "generic 1-d model needs step_window_fn or x_window_fn for grid sampling")
        chol, logdet = _chol_logdet(beta)
        s = model.s

        def log_h(ys):
            u = np.atleast_2d(model.statistic(ys))
            dev = u - gauss_mean
            z = np.linalg.solve(chol, dev.T)
            log_gauss = -0.5 * (np.sum(z * z, axis=0) + s * _LOG_2PI) - 0.5 * logdet
            return log_gauss + model.log_density_x(ys)

        grid = _build_grid_density(log_h, window)
        return _GridStepSampler(grid), -grid.log_integral
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
        self.solution = solution
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
        v = np.asarray(x, dtype=float)
        if v.ndim <= 1 and v.size == 1:
            return float(self._grid.logpdf(float(v.reshape(()))))
        return self._grid.logpdf(v.reshape(-1))


def tilted_tail_sampler(model: ModelSpec, m_k, t_warm=None) -> TiltedDensity:
    """Tilted density with mean m_k: exp(<t,u(x)> - K(t)) p_X(x)."""
    sol = solve_tilt(model, m_k, t0=t_warm)
    return TiltedDensity(model, sol)


def base_sampler(model: ModelSpec) -> TiltedDensity:
    """The base density p_X itself, as the zero-tilt member of the family."""
    from .model import mean_map

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
    points = np.empty((n, model.d))
    u_partial = np.empty((n, model.s))
    u_run = np.zeros(model.s)
    log_g_head = 0.0
    t_warm = None
    for i in range(k):
        try:
            if variant == "paper-literal" and i == 0:
                tail0 = tilted_tail_sampler(model, v)
                y = np.atleast_1d(np.asarray(tail0.sample(rng), dtype=float))
                ld = float(tail0.logpdf(y))
                t_warm = tail0.t
            else:
                params = step_params(model, v, i, u_run, n, variant, t_warm=t_warm)
                y, ld = params.sampler.draw(rng)
                y = np.atleast_1d(np.asarray(y, dtype=float))
                t_warm = params.t
        except (SteepnessError, NumericError) as exc:
            raise PathAbort(i, str(exc)) from None
        points[i] = y
        u_run = u_run + np.asarray(model.statistic(y), dtype=float)
        u_partial[i] = u_run
        log_g_head += ld

    m_k = _remaining_mean(v, u_run, k, n)
    try:
        tail = tilted_tail_sampler(model, m_k, t_warm=t_warm)
    except (SteepnessError, NumericError) as exc:
        raise PathAbort(k, str(exc)) from None
    tail_points = np.atleast_2d(np.asarray(tail.sample(rng, size=n - k), dtype=float))
    log_g_tail = float(np.sum(tail.logpdf(tail_points)))
    stats = np.atleast_2d(np.asarray(model.statistic(tail_points), dtype=float))
    for j in range(n - k):
        points[k + j] = tail_points[j]
        u_run = u_run + stats[j]
        u_partial[k + j] = u_run

    log_p = float(np.sum(model.log_density_x(points)))
    log_g = log_g_head + log_g_tail
    if not math.isfinite(log_g):
        raise PathAbort(n - 1, "non-finite sampling log-density")
    return PathSample(points=points, u_partial=u_partial, log_g=log_g, log_p=log_p,
                      v=v, k=k, log_g_head=log_g_head, log_g_tail=log_g_tail)


def mixture_logdensity(model: ModelSpec, points, v_set, n: int, k: int,
                       variant: str = "uniform-step") -> float:
    """Log of the equal-weight mixture over `v_set` of the run densities.

    Only available for gaussian-identity models, where every step density is
    Gaussian in closed form and the recursion vectorizes over the whole set
    of conditioning points.  Values match path_logdensity at each v exactly.
    """
    if model.conjugacy_tag != GAUSSIAN_IDENTITY:
        raise ConfigurationError("mixture density needs a gaussian-identity model")
    mu, sigma2 = model.gauss_identity_params
    V = np.atleast_2d(np.asarray(v_set, dtype=float))  # (m, s)
    y = np.atleast_2d(np.asarray(points, dtype=float))  # (n, s); u = identity
    if y.shape != (n, model.s):
        raise ConfigurationError(f"points must have shape ({n}, {model.s})")
    prefix = np.vstack([np.zeros(model.s), np.cumsum(y, axis=0)])  # (n+1, s)
    total = np.zeros(len(V))
    for i in range(k):
        if variant == "paper-literal" and i == 0:
            mean = V
            var = sigma2
        else:
            m = (n / (n - i)) * (V - prefix[i] / n)
            rem = n - i - 1
            center = m if variant == "uniform-step" else V
            gm = rem * (m - mu) + center
            mean = mu + (gm - mu) / (n - i)
            var = sigma2 * rem / (n - i)
        dev = y[i] - mean
        total += -0.5 * np.sum(dev * dev / var + np.log(2.0 * np.pi * var), axis=-1)
    m_k = (n / (n - k)) * (V - prefix[k] / n)  # (m, s)
    dev = y[None, k:, :] - m_k[:, None, :]     # (m, n-k, s)
    total += -0.5 * np.sum(dev * dev / sigma2 + np.log(2.0 * np.pi * sigma2),
                           axis=(1, 2))
    peak = float(np.max(total))
    return peak + math.log(float(np.mean(np.exp(total - peak))))


def path_logdensity(model: ModelSpec, points, v, n: int, k: int,
                    variant: str = "uniform-step") -> PathDensity:
    """Log-densities of a given run under the scheme that sample_path uses."""
    v = _check_path_args(model, v, n, k)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape != (n, model.d):
        raise ConfigurationError(f"points must have shape ({n}, {model.d})")
    u_run = np.zeros(model.s)
    log_g_head = 0.0
    t_warm = None
    for i in range(k):
        y = points[i]
        if variant == "paper-literal" and i == 0:
            tail0 = tilted_tail_sampler(model, v)
            log_g_head += float(tail0.logpdf(y))
            t_warm = tail0.t
        else:
            params = step_params(model, v, i, u_run, n, variant, t_warm=t_warm)
            log_g_head += params.sampler.logpdf(y)
            t_warm = params.t
        u_run = u_run + np.asarray(model.statistic(y), dtype=float)
    m_k = _remaining_mean(v, u_run, k, n)
    tail = tilted_tail_sampler(model, m_k, t_warm=t_warm)
    log_g_tail = float(np.sum(tail.logpdf(points[k:])))
    log_p = float(np.sum(model.log_density_x(points)))
    return PathDensity(log_g_head=log_g_head, log_g_tail=log_g_tail, log_p=log_p)
