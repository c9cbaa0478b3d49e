"""Run generation under the adaptive scheme and its exact log-density.

A run of length n splits at index k.  Each of the first k points is drawn
from a density proportional to a Gaussian factor in u(y) times the base
density p_X(y); the factor is re-centred after every draw so the running
statistic is steered toward the conditioning point v.  The remaining n - k
points are i.i.d. draws from the tilted density whose mean closes the gap.
With k = 0 every point is tilted toward v: the state-independent baseline.

`walk_runs` draws a stack of runs, or scores given ones, for any model, and
is the one place that picks an engine.  For a model with
`gauss_identity_params` every head step and the tail follow one closed-form
Gaussian law (`gaussian_step`), and no tilt is solved: `_draw_gaussian_points`
draws runs from pre-drawn normals (`draw_gaussian_runs`, which takes no
density), and `_gaussian_quadratic` writes their log-densities as quadratics
in the conditioning point in one array pass, read at each run's own point
(paired) or at all of a set (`mixture_logdensity`).
Any other model needs d = 1 for head steps.  Its step density is tabulated
on a grid and sampled by inverse CDF; the recorded log-density is the exact
density of that tabulated sampler, so importance weights stay unbiased.
The grid walker (`_grid_paths`) advances a stack of runs one step at a
time, each with its own conditioning point, prefix and generator.  At every
step it builds the step laws of all live runs together (`_step_laws`: one
tilt solve for the stack, then one (runs x knots) tabulation in buffers the
walk keeps), and the tail's tilted laws with one tilt solve too, one law
per distinct target; it either draws the runs or evaluates given points
under the same laws, so sampling and the density cannot drift apart.  Every
grid density is tabulated on _KNOTS knots placed by the curvature of a
pilot pass.  A model with `step_poly_fn` (every built-in grid family) gives
each step's log-density as a polynomial in y: the window is its
WINDOW_NATS level set, and each pass one Horner pass.  Other models
tabulate the statistic's whitened Gaussian factor on a trimmed window.  A
tabulated density (`GridDensity1D`) keeps cell masses and block ends rather
than a CDF, and finds a draw's cell, where its log-density is read, by a
two-level search.  A run whose tilt or grid fails drops out with its step
and reason.

Everything is a stack: the model's callables take points (m, d), a
GridDensity1D holds R rows, and walk_runs and mixture_logdensity take runs
(R, n, d).  A run's numbers never depend on its stack; `sample_path`,
`step_params` and `tilted_tail_sampler` are one-row calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, NumericError, PathAbort, SteepnessError
from .model import ModelSpec, cholesky_rows
from .tilt import solve_tilt, solve_tilts

_LOG_2PI = math.log(2.0 * math.pi)
# Working-set budgets, in float64 values: one block of batched Gaussian runs
# or mixture rows (256 KiB), and one stack of grid-walked runs (4 MiB).
_BLOCK_ELEMENTS = 1 << 15
_GRID_STACK_ELEMENTS = 1 << 19
# Cells per block of a grid density's two-level inverse-CDF search.
_SAMPLER_BLOCK = 48
# A grid step density is tabulated where it lies within WINDOW_NATS of its
# peak; windows from a step polynomial are padded by WINDOW_PAD of their
# width on each side.
WINDOW_NATS = 60.0
WINDOW_PAD = 2e-3
# Every grid density is tabulated on _KNOTS knots placed from a _PILOT-point
# pilot pass; fewer knots miss exponential-mean's 1e-6 normalizer bound.
_PILOT = 33
_KNOTS = 1537

VARIANTS = ("uniform-step", "paper-literal")
K_MODES = ("default", "manual")


def select_k(n: int, mode: str = "default", k: Optional[int] = None) -> int:
    """Split index for an n-point run.

    default: k = n - ceil(sqrt(n)), so k/n -> 1 while n - k -> inf; a
             given k is refused, not ignored.
    manual:  user-supplied k, validated to 1 <= k <= n - 1.
    """
    if mode == "manual":
        if k is None or not 1 <= k <= n - 1:
            raise ConfigurationError(f"manual k must satisfy 1 <= k <= {n - 1}, got {k}")
        return int(k)
    if mode != "default":
        raise ConfigurationError(f"unknown k mode {mode!r}")
    if k is not None:
        raise ConfigurationError(f"k = {k} needs k_mode = manual; the default mode sets k itself")
    if n < 3:
        raise ConfigurationError("automatic split selection needs n >= 3")
    return n - math.isqrt(n - 1) - 1  # == n - ceil(sqrt(n)) for n >= 2


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


# ---------------------------------------------------------------------------
# Grid-tabulated one-dimensional densities.
# ---------------------------------------------------------------------------


class _Values(NamedTuple):
    """Knot values exp(log_f - peak) (R, G), with peak (R,) each row's finite
    maximum of log_f, that a GridDensity1D takes in place of log_f, keeping
    them; the cell widths go into `widths` and the cell masses into `mass`,
    both (R, G - 1)."""

    f: np.ndarray
    peak: np.ndarray
    widths: np.ndarray
    mass: np.ndarray


class GridDensity1D:
    """A stack of R piecewise-linear densities, one per row, built from
    log-values log_f (R, G), or _Values, on the grids x (R, G).  Sampling
    inverts the exact CDF of each row's piecewise-linear interpolant, and
    `logpdf` reports exactly that interpolant's density, so sampled points
    and recorded densities always match.  A row gives the numbers it gives
    as a stack of one.

    No CDF is tabulated: the density keeps its unnormalized knot values,
    its cell masses and the cumulative mass at the end of each block of
    _SAMPLER_BLOCK cells.  A draw scales its level by the total mass, finds
    its block among these ends, then its cell from a cumulative sum within
    that block; `logpdf` normalizes only the knot values it gathers.
    """

    def __init__(self, x: np.ndarray, log_f: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 2:
            raise ConfigurationError(f"grids must be a stack (R, G), got shape {self.x.shape}")
        if isinstance(log_f, _Values):
            f, peak, widths, mass = log_f
        else:
            log_f = np.asarray(log_f, dtype=float)
            peak = np.max(log_f, axis=-1)
            if not np.all(np.isfinite(peak)):
                raise NumericError("grid density underflowed to zero everywhere")
            f = np.exp(np.subtract(log_f, peak[:, None]))
            widths, mass = np.empty((2, len(f), f.shape[1] - 1))
        # each buffer is worked in place, to the bits of the plain expressions
        np.add(f[:, :-1], f[:, 1:], out=mass)
        mass *= 0.5
        mass *= np.subtract(self.x[:, 1:], self.x[:, :-1], out=widths)
        blocks = np.add.reduceat(mass, np.arange(0, mass.shape[-1], _SAMPLER_BLOCK), axis=-1)
        self._ends = np.cumsum(blocks, axis=-1)
        total = self._ends[:, -1]
        if np.any(total <= 0):
            raise NumericError("grid density has zero total mass")
        # log of the unnormalized integral of exp(log_f), one per row
        self.log_integral = np.array([math.log(m) for m in total]) + peak
        self._f, self._mass = f, mass

    def draw(self, rngs, size: int = 1):
        """`size` draws per row by inverse CDF, row j's from the generator
        rngs[j], and their log-densities: (R, size) arrays, each log-density
        read in the cell its draw was found in."""
        y, idx = self._invert(np.array([g.random(size) for g in rngs]))
        return y, self._logpdf(idx, y)

    def _invert(self, r):
        """Points (R, m) at the CDF levels r (R, m), and their cells."""
        x, f, mass, ends = self.x, self._f, self._mass, self._ends
        cells = mass.shape[-1]
        row = np.arange(len(x))[:, None]
        target = r * ends[:, -1:]  # the mass below each point; less than the total as r < 1
        # its block: the first whose end exceeds it, which has mass
        block = np.minimum(np.count_nonzero(ends[:, None] <= target[..., None], axis=-1),
                           ends.shape[-1] - 1)
        first = block * _SAMPLER_BLOCK
        cols = first[..., None] + np.arange(_SAMPLER_BLOCK)
        inside = cols < cells
        start = np.where(block > 0, ends[row, block - 1], 0.0)
        cum = np.cumsum(np.where(inside, mass[row[..., None], np.minimum(cols, cells - 1)], 0.0),
                        axis=-1)
        cum += start[..., None]
        # its cell: the first of the block whose end exceeds it (the block's
        # sum may round apart from its cumulative one)
        j = np.minimum(np.count_nonzero(cum <= target[..., None], axis=-1),
                       np.count_nonzero(inside, axis=-1) - 1)
        below = np.where(j > 0, np.take_along_axis(cum, np.maximum(j - 1, 0)[..., None],
                                                   axis=-1)[..., 0], start)
        idx = first + j
        a, b = f[row, idx], f[row, idx + 1]
        x0 = x[row, idx]
        h = x[row, idx + 1] - x0
        resid = target - below
        slope = (b - a) / h
        # Solve a*xi + slope*xi^2/2 = resid for xi in [0, h], stable form;
        # a + disc is 0 only at resid = 0 on a cell that starts at density 0
        disc = np.sqrt(np.maximum(a * a + 2.0 * slope * resid, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = np.where(np.abs(slope) * h > 1e-12 * (a + b),
                          np.where(a + disc > 0, 2.0 * resid / (a + disc), 0.0),
                          np.where(a > 0, resid / np.where(a > 0, a, 1.0), 0.0))
        xi = np.clip(xi, 0.0, h)
        return x0 + xi, idx

    def logpdf(self, y):
        """Log-densities (R, m) at the points y (R, m), row j's under row j's
        density, each read in the cell a search of its grid finds."""
        v = np.asarray(y, dtype=float)
        idx = np.array([np.searchsorted(x, row, side="right") for x, row in zip(self.x, v)])
        return self._logpdf(idx - 1, v)

    def _logpdf(self, idx, v):
        """Log-densities at the points v (R, m) that fall in the cells idx."""
        x, f, ends = self.x, self._f, self._ends
        inside = (v >= x[:, :1]) & (v <= x[:, -1:])
        idx = np.clip(idx, 0, x.shape[-1] - 2)
        row = np.arange(len(x))[:, None]
        x0 = x[row, idx]
        h = x[row, idx + 1] - x0
        w = (v - x0) / h
        total = ends[:, -1:]
        dens = (1.0 - w) * (f[row, idx] / total) + w * (f[row, idx + 1] / total)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(inside, np.log(np.where(inside, dens, 1.0)), -np.inf)


def _live_rows(errors) -> np.ndarray:
    """Indices of the rows with no error."""
    return np.array([j for j, e in enumerate(errors) if e is None], dtype=int)


def _linspace_rows(lo, hi, num, out=None):
    """np.linspace(lo, hi, num, axis=-1) for the bounds lo, hi (R,), laid out
    row by row (in `out` when given), each row to the bits np.linspace gives
    it alone.  On a stack with a flat row (step 0), np.linspace takes its
    denormal branch for every row; here only the flat rows do."""
    delta = hi - lo
    step = delta / (num - 1)
    y = np.multiply(np.arange(num, dtype=float), step[:, None], out=out)
    flat = step == 0
    if np.any(flat):  # denormal steps, as linspace handles them
        y[flat] = (np.arange(num, dtype=float) / (num - 1)) * delta[flat, None]
    y += lo[:, None]
    y[:, -1] = hi
    return y


class _GridWork:
    """Flat buffers that the grid passes of a stack of R runs write into,
    each sized for R grids of _KNOTS points: "x" holds the grids, "dev" the
    log-values and then the density values, "widths" the cell widths and
    "zz" the cell masses.  A step whose log-values come from the statistic
    (a model without step_poly_fn) takes `width` = s values a point in
    "dev", for the statistic's deviations from the step mean, and in "zz",
    for their whitened copy.  The run walker keeps the buffers for a whole
    walk, so its steps do not fault their memory in again."""

    def __init__(self, rows: int, width: int):
        points = rows * _KNOTS
        self._flat = {"x": np.empty(points), "dev": np.empty(points * width),
                      "widths": np.empty(points), "zz": np.empty(points * width)}

    def take(self, name, shape):
        """Buffer `name` viewed as an array of `shape`, which must fit."""
        return self._flat[name][:math.prod(shape)].reshape(shape)


def _trim_windows(log_h, lo, hi, active, n0, fail, work):
    """Trim the windows [lo, hi] of the rows `active` in place, each to the
    set lying within WINDOW_NATS of its peak on an n0-point grid, until a
    pass shrinks it by less than 40 %; fail(rows, message) marks rows whose
    density underflows or whose support collapses."""
    for _ in range(30):
        if not active.size:
            break
        a_lo, a_hi = lo[active], hi[active]
        shape = (len(active), n0)
        grid = _linspace_rows(a_lo, a_hi, n0, out=work.take("x", shape))
        vals = log_h(active, grid)
        peak = np.max(vals, axis=-1)
        bad = ~np.isfinite(peak)
        fail(active[bad], "grid density underflowed to zero everywhere")
        keep = vals >= (peak - WINDOW_NATS)[:, None]
        first = np.argmax(keep, axis=-1)
        last = n0 - 1 - np.argmax(keep[:, ::-1], axis=-1)
        pad = (a_hi - a_lo) / (n0 - 1)
        rows = np.arange(len(active))
        lo2 = np.maximum(a_lo, grid[rows, first] - pad)
        hi2 = np.minimum(a_hi, grid[rows, last] + pad)
        collapsed = ~bad & (hi2 - lo2 < 1e-300)
        fail(active[collapsed], "grid density support collapsed")
        lo[active], hi[active] = lo2, hi2
        active = active[~(bad | collapsed | ((hi2 - lo2) > 0.6 * (a_hi - a_lo)))]


def _place_knots(pilot, log_f, out):
    """_KNOTS knots (r, _KNOTS), in `out`, over the uniform pilot grids
    (r, P) with log-values log_f: each cell holds an equal share of the
    integral of |f''|^(1/3) (de Boor, "Good approximation by splines with
    variable knots", 1973), read from second differences of the pilot
    density f and floored at 1e-3 of the row's maximum; between two pilot
    points the knots are evenly spaced.  A row without curvature gets
    uniform knots; a row's knots depend on it alone."""
    f = np.exp(log_f - np.max(log_f, axis=-1, keepdims=True))
    rho = np.cbrt(np.abs(f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]))
    top = np.max(rho, axis=-1, keepdims=True)
    rho = np.maximum(rho, 1e-3 * top)
    rho[~(top[:, 0] > 0)] = 1.0  # no curvature, or no finite value
    rho = np.concatenate((rho[:, :1], rho, rho[:, -1:]), axis=-1)
    cum = np.zeros_like(pilot)  # the knot index at each pilot point
    np.cumsum(rho[:, 1:] + rho[:, :-1], axis=-1, out=cum[:, 1:])
    cum *= (_KNOTS - 1) / cum[:, -1:]
    first = np.ceil(cum).astype(np.intp)  # knot g lies where cum[c] <= g < cum[c + 1]
    first[:, -1] = _KNOTS
    counts = np.diff(first, axis=-1).ravel()
    slope = np.diff(pilot, axis=-1) / np.diff(cum, axis=-1)
    start = pilot[:, :-1] - cum[:, :-1] * slope
    np.multiply(np.repeat(slope, counts).reshape(out.shape), np.arange(_KNOTS), out=out)
    out += np.repeat(start, counts).reshape(out.shape)
    out[:, -1] = pilot[:, -1]
    return out


def _build_grid_density(log_h, windows, errors, trim=True, work=None):
    """Tabulate exp(log_h) on the window (R, 2) of each row j whose errors[j]
    is None.  log_h maps row indices (r,) and their grids (r, G) to the
    log-values (r, G), in a new array or in the "dev" buffer of `work`.

    With `trim`, each window is first trimmed to the set lying within
    WINDOW_NATS of its peak (_trim_windows; re-trimming handles windows that
    start absurdly wide); without it, the windows must already hold that
    set, as the level sets of step polynomials do.  log_h is then read on a
    _PILOT-point uniform grid over each window, _KNOTS knots are placed by
    the curvature it shows (_place_knots), and log_h is tabulated there.
    Each row is tabulated as if alone.

    Returns the stacked GridDensity1D of the rows whose errors[j] is still
    None, in their order, or None when there are none.  It lives in the
    buffers of `work` (a _GridWork; new ones when None) until the next
    build.  Sets errors[j] to the NumericError of a row that could not be
    tabulated.
    """
    windows = np.asarray(windows, dtype=float).reshape(-1, 2)
    lo, hi = windows[:, 0].copy(), windows[:, 1].copy()
    if work is None:
        work = _GridWork(len(windows), 1)

    def fail(rows, message):
        for j in rows:
            errors[j] = NumericError(message)

    live = _live_rows(errors)
    fail(live[~(lo[live] < hi[live])], "invalid grid window")
    if trim:
        _trim_windows(log_h, lo, hi, _live_rows(errors), 1001, fail, work)
    else:
        live = _live_rows(errors)
        fail(live[hi[live] - lo[live] < 1e-300], "grid density support collapsed")

    rows = _live_rows(errors)
    if not rows.size:
        return None
    pilot = _linspace_rows(lo[rows], hi[rows], _PILOT)
    x = _place_knots(pilot, log_h(rows, pilot), work.take("x", (len(rows), _KNOTS)))
    f = log_h(rows, x)
    peak = np.max(f, axis=-1)
    ok = np.isfinite(peak)
    if not np.all(ok):
        fail(rows[~ok], "grid density underflowed to zero everywhere")
        if not np.any(ok):
            return None
        x, f, peak = x[ok], f[ok], peak[ok]
    f -= peak[:, None]
    cells = (len(x), _KNOTS - 1)
    return GridDensity1D(x, _Values(np.exp(f, out=f), peak, work.take("widths", cells),
                                    work.take("zz", cells)))


# ---------------------------------------------------------------------------
# Step parameters and samplers.
# ---------------------------------------------------------------------------


@dataclass
class StepLaws:
    """Grid step laws of a stack of runs at one step, one per row."""

    t: np.ndarray           # (R, s) tilts, NaN where the solve failed; warm-start the next solve
    beta: np.ndarray        # (R, s, s) covariances of the Gaussian steering factors
    gauss_mean: np.ndarray  # (R, s)
    density: Optional[GridDensity1D]  # stacked, one row per row whose error is None
    errors: list            # per row: None, or the error that stopped its law


def _check_split(model, n, k, variant, mixture=False):
    """ConfigurationError for a model, split index k or variant that
    walk_runs (with `mixture`, mixture_logdensity) cannot serve."""
    errors = engine_errors(model, k, mixture)
    if errors:
        raise ConfigurationError(errors[-1])
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    if not 0 <= k <= n - 1:
        raise ConfigurationError(f"split index must satisfy 0 <= k <= {n - 1}, got {k}")


def _remaining_mean(v, u_partial, i, n):
    return (n / (n - i)) * (v - u_partial / n)


def gaussian_step(model: ModelSpec, V, u_partial, i: int, n: int,
                  variant: str = "uniform-step"):
    """Means and variances (s,) of the Gaussian law of point i+1 of a
    gaussian-identity run whose first i points sum to u_partial, for each
    conditioning point (row) of V (m, s); stacked V and u_partial broadcast
    against each other.  With r = n - i - 1 and remaining mean
    m_i, uniform-step gives N(m_i, sigma^2 r/(r+1)), paper-literal
    N((r m_i + v)/(r+1), sigma^2 r/(r+1)) and, at i = 0, N(v, sigma^2).
    The mean is affine in v with no offset at u_partial = 0, so
    gaussian_step(model, 1.0, 0.0, i, n, variant)[0] is its slope dmean/dv."""
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
                variant: str = "uniform-step") -> StepLaws:
    """_step_laws on a stack of one: the StepLaws of point i+1 of a run toward
    v (s,) whose first i points sum to u_partial (s,).  A name of its own
    because the benchmark tracer wraps it; ROADMAP items 16-17 retire it."""
    if not 0 <= i <= n - 2:
        raise ConfigurationError(f"step index {i} out of range for n={n}")
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    return _step_laws(model, np.reshape(np.asarray(v, dtype=float), (1, -1)),
                      np.reshape(np.asarray(u_partial, dtype=float), (1, -1)), i, n, variant)


def _step_laws(model: ModelSpec, V, U, i: int, n: int, variant: str, T0=None,
               work=None) -> StepLaws:
    """Grid step laws of point i+1 for runs conditioned toward the rows of V
    (R, s) whose first i points sum to the rows of U, all built together.
    T0 holds each row's previous tilt, which warm-starts a Newton solve; the
    grids are tabulated in the buffers of `work`, as _step_grids."""
    if model.gauss_identity_params is not None or model.d != 1:
        raise ConfigurationError("grid steps serve d = 1 models without gauss_identity_params; "
                                 "Gaussian steps come from gaussian_step")
    M = _remaining_mean(V, U, i, n)
    tilts = solve_tilts(model, M, T0=T0)
    errors = list(tilts.errors)
    ok = _live_rows(errors)
    R, s = M.shape
    remaining = n - i - 1
    beta, gauss_mean = np.full((R, s, s), np.nan), np.full((R, s), np.nan)
    kappa = tilts.covariance[ok]
    corr = np.linalg.solve(kappa, np.linalg.solve(kappa, tilts.third[ok, :, None]))
    beta[ok] = kappa * remaining
    center = M if variant == "uniform-step" else V
    gauss_mean[ok] = ((beta[ok] @ (tilts.t[ok] + corr[..., 0] / (2.0 * remaining))[..., None])
                      [..., 0] + center[ok])
    return StepLaws(t=tilts.t, beta=beta, gauss_mean=gauss_mean,
                    density=_step_grids(model, gauss_mean, beta, errors, work), errors=errors)


def _point_width(model: ModelSpec) -> int:
    """Values a grid point of a step takes in the "dev" and "zz" buffers of
    a _GridWork: 1 for a step polynomial, else s for the statistic."""
    return 1 if model.step_poly_fn is not None else model.s


def _padded(lo, hi, floor):
    """Windows (R, 2) [lo, hi] widened by WINDOW_PAD of their width on each
    side, lo no lower than floor."""
    pad = WINDOW_PAD * (hi - lo)
    return np.stack((np.maximum(lo - pad, floor), hi + pad), axis=-1)


def _polyval(coef, y, out=None):
    """Row j of the polynomials coef (R, p + 1), highest power first, at the
    points y[j] (R, m), by Horner's rule in place (in `out` when given)."""
    out = np.multiply(y, coef[:, :1], out=out)
    for j in range(1, coef.shape[-1] - 1):
        out += coef[:, j:j + 1]
        out *= y
    out += coef[:, -1:]
    return out


def _roots(coef):
    """Roots (R, p) of the polynomials coef (R, p + 1), highest power first,
    as the eigenvalues of their companion matrices."""
    R, p = coef.shape[0], coef.shape[1] - 1
    companion = np.zeros((R, p, p))
    companion[:, 0] = -coef[:, 1:] / coef[:, :1]
    companion[:, np.arange(1, p), np.arange(p - 1)] = 1.0
    return np.linalg.eigvals(companion)


def _level_window(coef, start):
    """Windows (R, 2) holding every y >= start within WINDOW_NATS of the
    maximum over y >= start of the polynomial whose coefficients, highest
    power first, are each row of coef (R, p + 1); the leading one must be
    negative and p even, so that the polynomial falls to -inf on both sides.
    Its peak is taken at its critical points (clipped to start), and the
    outermost real roots of the polynomial minus (peak - WINDOW_NATS) bound
    the window.  Rows that are not finite get NaN."""
    out = np.full((len(coef), 2), np.nan)
    ok = np.all(np.isfinite(coef), axis=-1) & (coef[:, 0] < 0)
    c = coef[ok]
    p = c.shape[-1] - 1
    # the real parts of the derivative's roots include its real roots, and a
    # polynomial is no higher at any other point than at its peak
    crit = np.maximum(_roots(c[:, :-1] * np.arange(p, 0, -1)).real, start)
    peak = np.max(_polyval(c, crit), axis=-1)
    level = c.copy()
    level[:, -1] += WINDOW_NATS - peak
    roots = _roots(level)
    real = np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots.real))
    lo = np.maximum(np.min(np.where(real, roots.real, np.inf), axis=-1), start)
    hi = np.max(np.where(real, roots.real, -np.inf), axis=-1)
    out[ok] = _padded(lo, hi, floor=start)
    return out


def _step_grids(model: ModelSpec, gauss_mean, beta, errors, work=None):
    """Tabulated step densities, proportional to N(u(y); gauss_mean, beta)
    p_X(y), of each row j of gauss_mean (R, s) and beta (R, s, s) whose
    errors[j] is None: _build_grid_density's stacked density, tabulated in
    the buffers of `work` (a _GridWork; new ones when None), or None.  Sets
    errors[j] for a row that cannot be tabulated.

    With the model's step_poly_fn, a row's log-values are its polynomial
    (one Horner pass over the grid) and its window the polynomial's
    WINDOW_NATS level set (_level_window), which holds its mass.  Otherwise
    they come from the statistic, whitened by the Cholesky factor of beta,
    on x_window_fn(0) trimmed to that mass."""
    if model.step_poly_fn is None and model.x_window_fn is None:
        raise ConfigurationError(
            "generic 1-d model needs step_poly_fn or x_window_fn for grid sampling")
    R, s = gauss_mean.shape
    if work is None:
        work = _GridWork(R, _point_width(model))
    live = _live_rows(errors)
    chol, ok = cholesky_rows(beta[live])
    for j in live[~ok]:
        errors[j] = NumericError("covariance not positive definite")
    live = live[ok]
    if not live.size:
        return None
    windows = np.full((R, 2), np.nan)
    if model.step_poly_fn is not None:
        got, start = model.step_poly_fn(gauss_mean[live], beta[live])
        got = np.asarray(got, dtype=float)
        if got.ndim != 2 or got.shape[0] != live.size or got.shape[1] % 2 != 1:
            raise ConfigurationError(
                f"step_poly_fn must map gauss_mean (R, s) and beta (R, s, s) to coefficients "
                f"(R, p + 1) with p even; got shape {got.shape} for R = {live.size}")
        coef = np.full((R, got.shape[1]), np.nan)
        coef[live] = got
        windows[live] = _level_window(got, start)

        def log_h(rows, ys):
            return _polyval(coef[rows], ys, out=work.take("dev", ys.shape))
    else:
        # z = (u - gauss_mean) @ whiten[j] is chol^{-1} (u - gauss_mean) for row j
        whiten, log_const = np.full((R, s, s), np.nan), np.full(R, np.nan)
        whiten[live] = np.swapaxes(np.linalg.inv(chol[ok]), -1, -2)
        log_const[live] = -0.5 * (s * _LOG_2PI
                                  + 2.0 * np.sum(np.log(np.diagonal(chol[ok], axis1=-2,
                                                                    axis2=-1)), axis=-1))
        windows[live] = model.x_window_fn(np.zeros(s))

        def log_h(rows, ys):
            # log_const - q/2 + log p_X, folded into the spent deviations' buffer;
            # every step works in place, to the bits of the plain expression
            r, G = ys.shape
            y = ys.reshape(-1, 1)
            stat = np.asarray(model.statistic(y), dtype=float).reshape(r, G, s)
            dev = work.take("dev", (r, G, s))
            for j in range(s):  # a coordinate at a time: a short broadcast axis is slow
                np.subtract(stat[..., j], gauss_mean[rows, j, None], out=dev[..., j])
            del stat
            zz = np.matmul(dev, whiten[rows], out=work.take("zz", (r, G, s)))
            np.square(zz, out=zz)
            q = work.take("dev", ys.shape)
            if s == 1:
                q[...] = zz[..., 0]
            else:
                np.add(zz[..., 0], zz[..., 1], out=q)
            for j in range(2, s):  # in the order np.sum takes a short axis
                q += zz[..., j]
            q *= -0.5
            q += log_const[rows, None]
            q += np.asarray(model.log_density_x(y), dtype=float).reshape(ys.shape)
            return q

    return _build_grid_density(log_h, windows, errors, trim=model.step_poly_fn is None, work=work)


# ---------------------------------------------------------------------------
# Tilted densities for the i.i.d. tail (and the state-independent baseline).
# ---------------------------------------------------------------------------


def tilted_law(model: ModelSpec, t):
    """The tilted law exp(<t, u(x)> - K(t)) p_X(x) at the tilt t (s,) as the
    pair (draw(rng, size) -> (size, d), logpdf((m, d)) -> (m,)) of the
    model's tilted_family; without one, a d = 1 model's law is tabulated on
    x_window_fn(t) (a GridDensity1D of one row, exact for its own draws)."""
    if model.tilted_family is not None:
        return model.tilted_family(t)
    if model.d != 1 or model.x_window_fn is None:
        raise ConfigurationError("a tilted law without tilted_family needs d = 1 and x_window_fn")
    log_phi = model.cumulant(t)

    def log_h(rows, ys):
        x = ys.reshape(-1, 1)
        log_f = np.asarray(model.statistic(x), dtype=float) @ t - log_phi
        return (log_f + np.asarray(model.log_density_x(x), dtype=float)).reshape(ys.shape)

    errors = [None]
    grid = _build_grid_density(log_h, [model.x_window_fn(t)], errors)
    if errors[0] is not None:
        raise errors[0]
    return (lambda rng, size: grid.draw([rng], size)[0].reshape(size, 1),
            lambda x: grid.logpdf(np.reshape(x, (1, -1)))[0])


def tilted_tail_sampler(model: ModelSpec, m_k):
    """tilted_law at the tilt whose mean is m_k (s,).  A name of its own
    because the benchmark tracer wraps it; ROADMAP items 16-17 retire it."""
    return tilted_law(model, solve_tilt(model, m_k).t)


# ---------------------------------------------------------------------------
# Whole runs.
# ---------------------------------------------------------------------------


def sample_path(model: ModelSpec, v, n: int, k: int, rng, variant: str = "uniform-step"):
    """walk_runs on a stack of one: a run toward v (s,) drawn with the
    generator rng.  A name of its own because the benchmark tracer wraps
    it; ROADMAP items 16-17 retire it."""
    return walk_runs(model, np.reshape(v, (1, -1)), n, k, variant, rngs=[rng])


def engine_errors(model: ModelSpec, k: int = 1, mixture: bool = False) -> list[str]:
    """Why walk_runs with split index k (and, with `mixture`,
    mixture_logdensity) cannot serve `model`: nothing for a model with
    gauss_identity_params; the grid walker's head steps (k >= 1) serve other
    models of d = 1 only, and it has no mixture density."""
    if model.gauss_identity_params is not None:
        return []
    errors = [] if model.d == 1 or k == 0 else [
        "runs of a model without gauss_identity_params need d = 1"]
    if mixture:
        errors.append("mixture weighting needs a model with gauss_identity_params")
    return errors


def walk_blocks(model: ModelSpec, count: int, n: int, k: int, parts: int = 1) -> list[slice]:
    """Slices covering range(count), at least `parts` of them where count
    allows: the stacks in which walk_runs walks runs with split index k.
    Grid steps (k >= 1) size a stack by the working set of one step of one
    run (_grid_row_elements) against _GRID_STACK_ELEMENTS, 65 mean-square
    runs; other runs by their points against _BLOCK_ELEMENTS."""
    if model.gauss_identity_params is not None or k == 0:
        return _blocks(count, n * model.d, parts=parts)
    return _blocks(count, _grid_row_elements(model), _GRID_STACK_ELEMENTS, parts)


def walk_runs(model: ModelSpec, V, n: int, k: int, variant: str = "uniform-step",
              rngs=None, points=None):
    """Runs conditioned toward the rows of V (R, s): run j drawn with the
    j-th generator of the iterable rngs, or, with `points` (R, n, d) given,
    those points evaluated.  Returns points (R, n, d), head, tail and base
    log-densities (R,) and aborts, a list with the PathAbort of each run
    that had to be abandoned (None for the others), whose densities are NaN.

    A model with gauss_identity_params gets the closed-form Gaussian engine:
    a run is drawn from its generator's normals (draw_gaussian_runs) and
    then evaluated like given points, so a caller that needs the densities
    of some runs only draws them all and evaluates those; its runs never
    abort.  Any other model gets the grid walker (_grid_paths), whose head
    densities come with the draws.  Either walks the runs in the stacks of
    walk_blocks.  A run's numbers do not depend on the other runs, nor on
    the stacks.  With k = 0 a run is n i.i.d. points from the tilted law
    with mean its conditioning point: the state-independent baseline at the
    dominating point, or the base law itself at mean_map(model, 0).  Runs
    to draw with fewer generators than runs are a ConfigurationError.
    """
    _check_split(model, n, k, variant)
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != model.s:
        raise ConfigurationError(f"conditioning points must be (R, {model.s}), got {V.shape}")
    if points is not None:
        points = np.asarray(points, dtype=float)
        if points.shape != (len(V), n, model.d):
            raise ConfigurationError(f"points must be {(len(V), n, model.d)}, got {points.shape}")
    rngs = iter(() if rngs is None else rngs)
    gaussian = model.gauss_identity_params is not None
    parts = []
    for b in walk_blocks(model, len(V), n, k):
        given = None if points is None else points[b]
        if not gaussian:
            parts.append(_grid_paths(model, V[b], n, k, variant, points=given,
                                     rngs=list(islice(rngs, b.stop - b.start))))
            continue
        if given is None:
            given = draw_gaussian_runs(model, V[b], n, k, variant,
                                       islice(rngs, b.stop - b.start))
        head, tail, _, _ = _gaussian_quadratic(model, given, V[b], n, k, variant)
        parts.append((given, head, tail, _summed_logpdf(model.log_density_x, given),
                      [None] * len(given)))
    if len(parts) == 1:
        return parts[0]
    *arrays, aborts = zip(*parts)
    return (*(np.concatenate(a) for a in arrays), [a for part in aborts for a in part])


def draw_gaussian_runs(model: ModelSpec, V, n: int, k: int, variant: str, rngs):
    """The points (R, n, d) of gaussian-identity runs toward the rows of V
    (R, s), run j drawn from the standard normals of the j-th generator of
    rngs, each generator dropped once it has drawn: walk_runs's runs, with
    no density taken.  Fewer generators than runs are a ConfigurationError."""
    Z = np.empty((len(V), n, model.d))
    drawn = 0
    for row, g in zip(Z, rngs):
        g.standard_normal(out=row)
        drawn += 1
    _check_generators(len(Z), drawn)
    return _draw_gaussian_points(model, np.asarray(V, dtype=float), Z, n, k, variant)


def _check_generators(runs: int, generators: int):
    """ConfigurationError when `runs` runs to draw got fewer generators."""
    if generators < runs:
        raise ConfigurationError(f"{runs} runs to draw got only {generators} generators")


def _summed_logpdf(logpdf, points):
    """Summed log-densities (R,) of the runs points (R, m, d) under logpdf,
    from one call on their stack; each run's sum is that of its own points."""
    R, m, d = points.shape
    return np.sum(np.reshape(logpdf(points.reshape(R * m, d)), (R, m)), axis=-1)


def _draw_gaussian_points(model, V, Z, n, k, variant):
    """Gaussian-identity runs (L, n, s), run l conditioned toward V[l] and
    driven by the standard normals Z[l] (n, s), which the points overwrite:
    k head steps (_head_law), then n - k i.i.d. N(m_k, sigma^2) points.
    Each point is mean + sd * z, exactly what rng.normal(mean, sd) returns
    for the same z and gaussian_step's mean and sd."""
    *coef, var, _ = _head_law(model, n, k, variant)
    Z[:, :k] *= np.sqrt(var)
    u_run = np.zeros_like(V)
    for i, step in enumerate(np.concatenate(coef, axis=1).tolist()):
        Z[:, i] += _step_mean(V, u_run, *step, n, variant)
        u_run += Z[:, i]
    Z[:, k:] *= np.sqrt(model.gauss_identity_params[1])
    Z[:, k:] += _remaining_mean(V, u_run, k, n)[:, None, :]
    return Z


def _grid_paths(model, V, n, k, variant, rngs=None, points=None):
    """Grid-model runs, run j conditioned toward V[j] (R, s): grid steps (or
    the tilted first step), then the tilted tail; returns what walk_runs
    returns, for one stack.

    The runs advance together one step at a time, and each step's laws are
    built once for all live runs (`_step_laws`).  With `points` None run j is
    drawn from these laws with the generator rngs[j]; otherwise the given
    points (R, n, d) are evaluated under them.  A tilt or grid that cannot
    be built aborts its run at its step.  A run's numbers do not depend on
    the other runs of the stack.
    """
    V = np.asarray(V, dtype=float)
    R = len(V)
    if points is None:
        points = np.zeros((R, n, model.d))
        _check_generators(R, len(rngs))
    else:
        rngs = None  # given points are evaluated, never drawn
    u_run = np.zeros((R, model.s))
    t_warm = np.full((R, model.s), np.nan)  # each run's last tilt; NaN: none yet
    head, tail, log_p = np.zeros(R), np.full(R, np.nan), np.full(R, np.nan)
    aborts = [None] * R
    live = np.arange(R)
    work = _GridWork(R, _point_width(model))  # the buffers of every grid step of the walk
    for i in range(k):
        if not live.size:
            break
        if variant == "paper-literal" and i == 0:
            t_warm[live], head[live] = _tilted_points(model, V[live], None, live, 0, 1,
                                                      points, rngs, aborts)
        else:
            laws = _step_laws(model, V[live], u_run[live], i, n, variant, t_warm[live], work)
            rows = live[_live_rows(laws.errors)]
            if rows.size and rngs is None:
                head[rows] += laws.density.logpdf(points[rows, i])[:, 0]
            elif rows.size:
                points[rows, i], log_g = laws.density.draw([rngs[j] for j in rows])
                head[rows] += log_g[:, 0]
            t_warm[live] = laws.t
            for j, err in zip(live, laws.errors):
                if err is not None:
                    aborts[j] = PathAbort(i, str(err))
        live = np.array([j for j in live if aborts[j] is None], dtype=int)
        u_run[live] = u_run[live] + np.asarray(model.statistic(points[live, i]), dtype=float)

    if live.size:
        m_k = _remaining_mean(V[live], u_run[live], k, n)
        _, tail[live] = _tilted_points(model, m_k, t_warm[live], live, k, n, points, rngs, aborts)
    done = np.array([j for j in live if aborts[j] is None], dtype=int)
    if done.size:
        log_p[done] = _summed_logpdf(model.log_density_x, points[done])
    head[[j for j in range(R) if aborts[j] is not None]] = np.nan
    return points, head, tail, log_p, aborts


def _tilted_points(model, A, T0, runs, a, b, points, rngs, aborts):
    """Points a..b-1 of the runs `runs`, i.i.d. from the tilted laws with
    means the rows of A, warm-started from T0 (None or NaN rows: cold): one
    law for each distinct pair of target and warm start, their tilts from
    one solve_tilts call.  Run j's points are drawn from its law with the
    generator rngs[j] (rngs None: the points as given) and scored.  Returns
    each run's tilt and summed log-density, NaN for a run whose law cannot
    be built, which gets a PathAbort at step a."""
    T0 = np.full_like(A, np.nan) if T0 is None else T0
    keys = [row.tobytes() for row in np.concatenate((A, T0), axis=1)]
    slot = {key: u for u, key in enumerate(dict.fromkeys(keys))}
    which = np.array([slot[key] for key in keys])
    first = np.unique(which, return_index=True)[1]
    tilts = solve_tilts(model, A[first], T0=T0[first])
    log_g = np.full(len(runs), np.nan)
    for u in range(len(first)):
        group = np.flatnonzero(which == u)
        try:
            if tilts.errors[u] is not None:
                raise tilts.errors[u]
            draw, logpdf = tilted_law(model, tilts.t[u])
        except (SteepnessError, NumericError) as exc:
            for j in runs[group]:
                aborts[j] = PathAbort(a, str(exc))
            continue
        if rngs is not None:
            for j in runs[group]:
                points[j, a:b] = draw(rngs[j], b - a)
        log_g[group] = _summed_logpdf(logpdf, points[runs[group], a:b])
    return tilts.t[which], log_g


def _grid_row_elements(model: ModelSpec) -> int:
    """Float64 values budgeted for one run of a stack at the peak of a grid
    step: 1 + 3 w per point on 2001 points, w = _point_width(model), more
    than a step on _KNOTS knots holds.  A step polynomial's run holds the
    walk's four buffers (see _GridWork; tracemalloc: 67-69 kB per
    mean-square or exponential-mean run, in 30- and 60-run stacks); a run
    whose log-values come from the statistic also holds the statistic and
    its whitened copy (102-103 kB per mean-square run)."""
    return (1 + 3 * _point_width(model)) * 2001


def _head_law(model, n, k, variant):
    """gaussian_step's law at head steps 0..k-1, row i for step i: a, left,
    den (k, 1), from which _step_mean gives the mean, var (k, s) and the
    slope dmean/dv (k, 1).  Paper-literal's step 0, N(v, sigma^2), is the
    row left = 0, den = 1, var = sigma^2."""
    i = np.arange(k, dtype=float)[:, None]
    a, left, den = n / (n - i), n - i - 1, n - i
    var = model.gauss_identity_params[1] * left / den
    if variant == "paper-literal" and k:
        left[0], den[0], var[0] = 0.0, 1.0, model.gauss_identity_params[1]
    return a, left, den, var, _step_mean(1.0, 0.0, a, left, den, n, variant)


def _step_mean(V, U, a, left, den, n, variant):
    """Mean of a head step toward V after points summing to U (_head_law):
    a (V - U/n), or (left a (V - U/n) + V) / den under paper-literal."""
    m = a * (V - U / n)
    return (left * m + V) / den if variant == "paper-literal" else m


def _gaussian_quadratic(model, P, V0, n, k, variant):
    """Log-densities of the gaussian-identity runs P (H, n, s) as quadratics
    in the conditioning point w: head and tail (H,) at V0, which broadcasts
    to (H, s), b (H, s) and q (s,), with log g_w = head + tail + b.(w - V0)
    - q.(w - V0)^2 / 2 exactly, as step means are affine in v and variances
    do not depend on it.  One pass over (runs, steps, s) arrays, whose sums
    over steps are np.cumsum's, in step order: the bits of a loop over the
    steps with gaussian_step.  A run's numbers depend on that run alone."""
    sigma2 = model.gauss_identity_params[1]
    U = np.zeros((P.shape[0], k + 1, model.s))  # U[:, i]: the sum of a run's first i points
    np.cumsum(P[:, :k], axis=1, out=U[:, 1:])
    head, b, q = np.zeros(P.shape[0]), 0.0, 0.0
    if k:
        *coef, var, slope = _head_law(model, n, k, variant)
        dev = P[:, :k] - _step_mean(np.atleast_2d(V0)[:, None], U[:, :k], *coef, n, variant)
        terms = np.sum(dev * dev / var + np.log(2.0 * np.pi * var), axis=-1)
        head = np.cumsum(-0.5 * terms, axis=1)[:, -1]
        b = np.cumsum(slope * (dev / var), axis=1)[:, -1]
        q = np.cumsum(slope * slope / var, axis=0)[-1]
    dev = P[:, k:] - _remaining_mean(V0, U[:, k], k, n)[:, None]
    slope = _remaining_mean(1.0, 0.0, k, n)
    b = b + slope * (np.sum(dev, axis=1) / sigma2)
    q = q + (n - k) * slope * slope / sigma2
    np.square(dev, out=dev)  # in place, to the bits of dev * dev / sigma2 + log(2 pi sigma2)
    dev /= sigma2
    dev += np.log(2.0 * np.pi * sigma2)
    per_point = np.sum(dev, axis=-1)
    tail = np.sum(np.multiply(per_point, -0.5, out=per_point), axis=-1)
    return head, tail, b, q


def _blocks(count, per_item, budget=_BLOCK_ELEMENTS, parts=1):
    """Slices covering range(count), each of at most budget / per_item items
    (and at least one), and at least `parts` of them where count allows."""
    size = max(1, min(budget // per_item, -(-count // parts)))
    return [slice(a, min(a + size, count)) for a in range(0, count, size)]


def mixture_logdensity(model: ModelSpec, points, v_set, n: int, k: int,
                       variant: str = "uniform-step"):
    """Log of the equal-weight mixture over `v_set` of the run densities, for
    each of a stack of runs (H, n, s): an (H,) array.

    Only available for gaussian-identity models, whose log run density is a
    quadratic in v (`_gaussian_quadratic`, about the mean of v_set); the
    value at a single v is walk_runs's head plus tail.
    """
    _check_split(model, n, k, variant, mixture=True)
    y = np.asarray(points, dtype=float)  # u = identity
    if y.ndim != 3 or y.shape[1:] != (n, model.s):
        raise ConfigurationError(f"points must be a stack of runs (H, {n}, {model.s})")
    vs = np.atleast_2d(np.asarray(v_set, dtype=float))
    V0 = np.mean(vs, axis=0)
    head, tail, b, q = _gaussian_quadratic(model, y, V0, n, k, variant)
    base, delta = head + tail, vs - V0
    out = np.empty(len(base))
    for c in _blocks(len(base), len(vs)):
        total = base[c, None]  # (runs x points) log-densities, a coordinate at a time
        for j in range(model.s):
            total = total + delta[:, j] * (b[c, j, None] - 0.5 * q[j] * delta[:, j])
        peak = np.max(total, axis=1)
        mean = np.mean(np.exp(total - peak[:, None]), axis=1)
        out[c] = [float(p) + math.log(float(m)) for p, m in zip(peak, mean)]
    return out

