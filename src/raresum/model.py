"""Statistical models: a base density paired with a statistic, plus the
cumulant generating function machinery (mean map, covariance, third-order
terms, inverse mean map) that the tilting and run-generation layers consume.

Every built-in family gives all of these in closed form: `mean_fn`,
`cov_fn`, `third_fn` and `tilt_fn`, the tilt whose mean is a given target.
Each of the four takes a stack of rows (..., s) as well as one row, so the
tilts of many targets are solved in one call (`tilt.solve_tilts`).  The
d = 1 families also give `step_poly_fn`: the log-density of each of a
stack of grid step laws as a polynomial in y, from which the run walker
computes where to tabulate it and tabulates it.
A custom model may leave any of them out.  Every moment is taken by one
rule, `_moment`: central finite differences of the cumulant function fill
a missing callable one row at a time, and a model without `tilt_fn`, whose
tilts come from damped Newton (`tilt.solve_tilts`) one row at a time, has
its callables called on one row at a time too, so they may take one row
only.  `CumulantDomain.contains_rows` is the one test of a tilt stack
against the cumulant domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError

Array = np.ndarray

# Relative step for finite-difference fallbacks; see _fd_step.
FD_BASE_STEP = 1e-4
# Relative step of the third cumulants' difference of a Hessian that is itself
# finite-differenced (a model without cov_fn).  That Hessian carries a
# rounding error of about eps |K| / FD_BASE_STEP^2, which a difference with
# step FD_BASE_STEP would amplify by 1e4; with 1e-3 the built-ins' third
# cumulants are within 6e-4 relative at targets far out in the tail.
FD_NESTED_STEP = 1e-3
# Iterates are kept strictly inside the cumulant domain by this relative margin.
DOMAIN_MARGIN = 1e-8

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class CumulantDomain:
    """Open box of admissible tilt vectors, with an optional joint predicate,
    and the `inner` box (lower + margin, upper - margin) that solved tilts lie
    in: the margin is DOMAIN_MARGIN times the width, or on an unbounded
    coordinate times the larger finite end's magnitude, at least 1."""

    lower: Array
    upper: Array
    predicate: Optional[Callable[[Array], bool]] = None
    inner: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lower, upper = np.asarray(self.lower, dtype=float), np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape:
            raise ConfigurationError("domain bounds must have matching shapes")
        if np.any(lower >= upper):
            raise ConfigurationError("domain intervals must be nonempty")
        width = upper - lower
        ref = np.maximum(np.abs(np.where(np.isfinite(lower), lower, 0.0)),
                         np.abs(np.where(np.isfinite(upper), upper, 0.0)))
        margin = DOMAIN_MARGIN * np.where(np.isfinite(width), width, np.maximum(1.0, ref))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "inner", (lower + margin, upper - margin))

    @property
    def s(self) -> int:
        return self.lower.size

    def contains_rows(self, T: Array, margin: bool = False) -> Array:
        """Which rows of the tilt stack T (R, s) lie inside the open box, or
        inside `inner` with `margin`, and satisfy the predicate: a bool
        array (R,).  The predicate sees only the rows inside the box."""
        lo, hi = self.inner if margin else (self.lower, self.upper)
        inside = ((T > lo) & (T < hi)).all(axis=1)
        if self.predicate is None:
            return inside
        return np.array([ok and bool(self.predicate(t)) for ok, t in zip(inside.tolist(), T)],
                        dtype=bool)

    def contains(self, t: Array, margin: bool = False) -> bool:
        """contains_rows for the one tilt t (s,)."""
        return bool(self.contains_rows(np.asarray(t, dtype=float)[None], margin)[0])


def unbounded_domain(s: int) -> CumulantDomain:
    return CumulantDomain(np.full(s, -np.inf), np.full(s, np.inf))


@dataclass(frozen=True)
class LocalCumulants:
    """Mean, covariance and contracted third cumulants of the tilted law at t."""

    t: Array
    mean: Array
    covariance: Array
    third: Array


@dataclass(frozen=True)
class ModelSpec:
    """A base density on R^d together with a statistic u: R^d -> R^s.

    `log_density_x` and `statistic` take a stack of points (m, d), a single
    point as a stack of one, and return (m,) and (m, s) arrays; the built-ins
    raise ConfigurationError for any other shape.  `cumulant` maps a tilt
    vector (s,) to K(t) = log E exp<t, u(X)>.
    """

    d: int
    s: int
    log_density_x: Callable
    statistic: Callable
    cumulant: Callable
    cumulant_domain: CumulantDomain
    name: str = "custom"
    mean_fn: Optional[Callable] = None
    cov_fn: Optional[Callable] = None
    third_fn: Optional[Callable] = None
    tilt_fn: Optional[Callable] = None  # alpha (..., s) -> t with m(t) = alpha, NaN row if unattainable
    # t -> (draw(rng, size) -> (size, d), logpdf((m, d)) -> (m,)) of the tilted law
    tilted_family: Optional[Callable] = None
    # (gauss_mean (R, s), beta (R, s, s)) -> (coef (R, p + 1), start) for R grid step
    # laws, d = 1 only: each law's log step density log N(u(y); gauss_mean, beta)
    # + log p_X(y) as a polynomial in y on its support y >= start, highest power
    # first, with p even and a negative leading coefficient
    step_poly_fn: Optional[Callable] = None
    x_window_fn: Optional[Callable] = None  # t -> (lo, hi) effective support, d=1 only
    # (mu (s,), sigma2 (s,)) when X ~ N(mu, diag(sigma2)) and u = identity (s = d): runs
    # follow the closed-form Gaussian law; other models' runs are grid-walked, d = 1 only
    gauss_identity_params: Optional[tuple] = None

    def __post_init__(self):
        if self.d < 1 or self.s < 1:
            raise ConfigurationError("dimensions d and s must be positive")
        if self.cumulant_domain.s != self.s:
            raise ConfigurationError("cumulant domain dimension must equal s")
        if self.gauss_identity_params is not None and self.s != self.d:
            raise ConfigurationError("gauss_identity_params need the identity statistic, s = d")


def _as_tilt(model: ModelSpec, t) -> Array:
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (model.s,):
        raise ConfigurationError(f"tilt vector must have shape ({model.s},), got {t.shape}")
    return t


def _check_domain(model: ModelSpec, t: Array) -> None:
    dom = model.cumulant_domain
    if not dom.contains(t):
        inside = (t > dom.lower) & (t < dom.upper)
        j = int(np.argmin(inside))  # the first coordinate outside the box
        if inside.all():
            raise DomainError("tilt violates the joint domain predicate")
        raise DomainError(f"tilt coordinate {j} = {t[j]:.6g} outside the cumulant domain", coord=j)


def _fd_step(model: ModelSpec, t: Array, base: float = FD_BASE_STEP) -> Array:
    h = np.maximum(base, base * np.abs(t))
    # Shrink towards the boundary so that probe points stay inside.
    lo, hi = model.cumulant_domain.lower, model.cumulant_domain.upper
    room = np.minimum(t - lo, hi - t)
    room[~np.isfinite(room)] = np.inf
    return np.minimum(h, 0.25 * room)


def _fd_gradient(model: ModelSpec, t: Array) -> Array:
    h = _fd_step(model, t)
    K = model.cumulant
    return np.array([(K(t + e) - K(t - e)) / (2.0 * h[j]) for j, e in enumerate(np.diag(h))])


def _fd_hessian(model: ModelSpec, t: Array) -> Array:
    h = _fd_step(model, t)
    K, E = model.cumulant, np.diag(h)  # row j: the step h[j] along coordinate j
    H = np.empty((model.s, model.s))
    K0 = K(t)
    for j, ej in enumerate(E):
        H[j, j] = (K(t + ej) - 2.0 * K0 + K(t - ej)) / (h[j] ** 2)
        for l in range(j + 1, model.s):
            el = E[l]
            H[j, l] = H[l, j] = (
                K(t + ej + el) - K(t + ej - el) - K(t - ej + el) + K(t - ej - el)
            ) / (4.0 * h[j] * h[l])
    return H


def _fd_third_contracted(model: ModelSpec, t: Array) -> Array:
    """gamma_p = sum_j d kappa_jj / d t_p via central differences of the Hessian."""
    h = _fd_step(model, t, FD_BASE_STEP if model.cov_fn is not None else FD_NESTED_STEP)
    gamma = np.empty(model.s)
    for p, e in enumerate(np.diag(h)):
        diag_plus = np.diagonal(_moment(model, 1, (t + e)[None])[0])
        diag_minus = np.diagonal(_moment(model, 1, (t - e)[None])[0])
        gamma[p] = np.sum(diag_plus - diag_minus) / (2.0 * h[p])
    return gamma


def _moment(model: ModelSpec, which: int, T: Array, rows=None) -> Array:
    """Moment `which` of the tilted law (0 the mean, 1 the symmetrized
    covariance, 2 the contracted third cumulants) at the rows of the tilt
    stack T (R, s) that the mask `rows` selects (None: every row), NaN at
    the others: the one rule by which every moment is taken.  A model with
    tilt_fn has the callable for it called once, on the selected rows; a
    batch of one is passed as its row, which the built-ins compute with
    numpy scalars, to the same bits and several times faster.  A model
    without tilt_fn has it called on one row at a time, since such a model
    may give moments that take one row only.  Without the callable, central
    finite differences fill the rows one at a time."""
    fn = (model.mean_fn, model.cov_fn, model.third_fn)[which]
    shape = (len(T),) + (model.s,) * (2 if which == 1 else 1)
    stacked = fn is not None and model.tilt_fn is not None
    if fn is not None and (stacked or len(T) == 1) and (rows is None or rows.all()):
        out = np.asarray(fn(T[0] if len(T) == 1 else T), dtype=float).reshape(shape)
    else:
        out = np.full(shape, np.nan)
        picked = range(len(T)) if rows is None else np.flatnonzero(rows)
        if not stacked:
            fd = (_fd_gradient, _fd_hessian, _fd_third_contracted)[which]
            for j in picked:
                out[j] = fd(model, T[j]) if fn is None else fn(T[j])
        elif len(picked):  # no call on an empty stack
            out[picked] = fn(T[picked])
    return 0.5 * (out + np.swapaxes(out, -1, -2)) if which == 1 else out


def moments(model: ModelSpec, T, rows=None):
    """(means (R, s), covariances (R, s, s), contracted third cumulants
    (R, s)) of the tilted laws at the rows of the tilt stack T (R, s) that
    the mask `rows` selects (None: every row), NaN at the others, each by
    the one rule of `_moment`."""
    return _moment(model, 0, T, rows), _moment(model, 1, T, rows), _moment(model, 2, T, rows)


def cholesky_rows(cov):
    """(factors, ok) of a (R, s, s) stack: LAPACK's Cholesky factor of each
    matrix, and which ones are positive definite.  The factors of the others
    are meaningless: LAPACK's failures, or a factor with a non-finite entry,
    which it returns for a NaN matrix without complaint."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        chol = np.full_like(cov, np.nan)
        for j, c in enumerate(cov):
            try:
                chol[j] = np.linalg.cholesky(c)
            except np.linalg.LinAlgError:
                pass
    return chol, np.isfinite(chol).all(axis=(1, 2))


def mean_map(model: ModelSpec, t) -> Array:
    """Mean of the tilted law: the gradient of the cumulant function at t."""
    t = _as_tilt(model, t)
    _check_domain(model, t)
    return _moment(model, 0, t[None])[0]


def local_cumulants(model: ModelSpec, t) -> LocalCumulants:
    """Mean, covariance and contracted third cumulants of the tilted law at t.

    Raises NumericError if the (symmetrized) covariance is not positive
    definite, which signals a tilt too close to the domain boundary.
    """
    t = _as_tilt(model, t)
    _check_domain(model, t)
    mean, cov, third = (x[0] for x in moments(model, t[None]))
    if not cholesky_rows(cov[None])[1][0]:
        raise NumericError(f"covariance of the tilted law is not positive definite at t={t}")
    return LocalCumulants(t=t, mean=mean, covariance=cov, third=third)


# ---------------------------------------------------------------------------
# Built-in families.  Every callable is a partial over a module-level function
# so that ModelSpec instances pickle cleanly for process-parallel estimation.
# ---------------------------------------------------------------------------


def _stack(x, d):
    """The points x as a float array (m, d), which is also the identity
    statistic; ConfigurationError for any other shape, a single point (d,)
    included."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != d:
        raise ConfigurationError(f"points must be a stack of shape (m, {d}), got {x.shape}")
    return x


# -- gaussian-mean: X ~ N(mu, diag(sigma^2)) on R^d, u = identity -----------


def _gm_logp(x, mu, sigma2):
    q = np.sum((_stack(x, mu.size) - mu) ** 2 / sigma2 + np.log(2.0 * np.pi * sigma2), axis=-1)
    return -0.5 * q


def _gm_cumulant(t, mu, sigma2):
    t = np.asarray(t, dtype=float)
    return float(np.dot(mu, t) + 0.5 * np.dot(sigma2, t * t))


def _gm_mean(t, mu, sigma2):
    return mu + sigma2 * np.asarray(t, dtype=float)


def _gm_cov(t, sigma2):
    return np.broadcast_to(np.diag(sigma2), np.shape(t)[:-1] + (sigma2.size,) * 2)


def _gm_third(t, s):
    return np.zeros(np.shape(t)[:-1] + (s,))


def _gm_tilt(alpha, mu, sigma2):
    return (alpha - mu) / sigma2


def _gm_tilted_draw(rng, size, mean, sd):
    return rng.normal(mean, sd, size=(size, mean.size))


def _gm_tilted(t, mu, sigma2):
    mean = mu + sigma2 * np.asarray(t, dtype=float)
    sd = np.sqrt(sigma2)
    return (partial(_gm_tilted_draw, mean=mean, sd=sd),
            partial(_gm_logp, mu=mean, sigma2=sigma2))


def _broadcast(value, d, what):
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(d, arr[0])
    if arr.shape != (d,):
        raise ConfigurationError(f"{what} must be a scalar or length-{d} sequence")
    return arr


def _gaussian_mean_model(mu, sigma, d) -> ModelSpec:
    mu_vec = _broadcast(mu, d, "mu")
    sigma_vec = _broadcast(sigma, d, "sigma")
    if not np.all(np.isfinite(mu_vec)):
        raise ConfigurationError("mu must be finite")
    if not np.all((sigma_vec > 0) & (sigma_vec < np.inf)):
        raise ConfigurationError("sigma must be finite and positive")
    sigma2 = sigma_vec**2
    return ModelSpec(
        d=d,
        s=d,
        log_density_x=partial(_gm_logp, mu=mu_vec, sigma2=sigma2),
        statistic=partial(_stack, d=d),
        cumulant=partial(_gm_cumulant, mu=mu_vec, sigma2=sigma2),
        cumulant_domain=unbounded_domain(d),
        name="gaussian-mean",
        mean_fn=partial(_gm_mean, mu=mu_vec, sigma2=sigma2),
        cov_fn=partial(_gm_cov, sigma2=sigma2),
        third_fn=partial(_gm_third, s=d),
        tilt_fn=partial(_gm_tilt, mu=mu_vec, sigma2=sigma2),
        tilted_family=partial(_gm_tilted, mu=mu_vec, sigma2=sigma2),
        gauss_identity_params=(mu_vec, sigma2),
    )


# -- exponential-mean: X ~ Exp(rate) on (0, inf), u = identity (d = 1) ------


def _exp_logp(x, rate):
    # The boundary value log(rate) at 0 is the right-continuous convention,
    # which keeps grid tabulations starting at the support edge exact.
    v = _stack(x, 1)[:, 0]
    return np.where(v >= 0, math.log(rate) - rate * v, -np.inf)


def _exp_cumulant(t, rate):
    t = float(np.asarray(t).reshape(()))
    return -math.log1p(-t / rate)


def _exp_mean(t, rate):
    t = np.asarray(t, dtype=float)
    return 1.0 / (rate - t)


def _exp_cov(t, rate):
    inv = _exp_mean(t, rate)
    return (inv * inv)[..., None]


def _exp_third(t, rate):
    inv = _exp_mean(t, rate)
    return 2.0 * inv * inv * inv


def _exp_tilt(alpha, rate):
    a = np.asarray(alpha, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(a > 0, rate - 1.0 / a, np.nan)


def _exp_tilted_draw(rng, size, scale):
    return rng.exponential(scale, size=(size, 1))


def _exp_tilted(t, rate):
    tilted_rate = rate - float(np.asarray(t).reshape(()))
    if tilted_rate <= 0:
        raise DomainError("tilt at or beyond the exponential rate", coord=0)
    return (partial(_exp_tilted_draw, scale=1.0 / tilted_rate),
            partial(_exp_logp, rate=tilted_rate))


def _exp_step_poly(gauss_mean, beta, rate):
    # log N(y; m, b) + log(rate) - rate y on y >= 0, with m = gauss_mean and
    # b = beta: a quadratic
    b = np.asarray(beta, dtype=float)[..., 0, 0]
    m = np.asarray(gauss_mean, dtype=float)[..., 0]
    return _last_axis(-0.5 / b, m / b - rate,
                      math.log(rate) - 0.5 * (m * m / b + _LOG_2PI + np.log(b))), 0.0


def _exp_x_window(t, rate):
    tilted_rate = rate - float(np.asarray(t).reshape(()))
    return (0.0, 40.0 / tilted_rate)


def _exponential_mean_model(rate) -> ModelSpec:
    rate = float(rate)
    if not 0 < rate < math.inf:
        raise ConfigurationError("rate must be finite and positive")
    return ModelSpec(
        d=1,
        s=1,
        log_density_x=partial(_exp_logp, rate=rate),
        statistic=partial(_stack, d=1),
        cumulant=partial(_exp_cumulant, rate=rate),
        cumulant_domain=CumulantDomain(np.array([-np.inf]), np.array([rate])),
        name="exponential-mean",
        mean_fn=partial(_exp_mean, rate=rate),
        cov_fn=partial(_exp_cov, rate=rate),
        third_fn=partial(_exp_third, rate=rate),
        tilt_fn=partial(_exp_tilt, rate=rate),
        tilted_family=partial(_exp_tilted, rate=rate),
        step_poly_fn=partial(_exp_step_poly, rate=rate),
        x_window_fn=partial(_exp_x_window, rate=rate),
    )


# -- gaussian-mean-and-square: X ~ N(mu, sigma^2) on R, u(x) = (x, x^2) -----


def _ms_logp(x, mu, sigma2):
    v = _stack(x, 1)[:, 0]
    return -0.5 * ((v - mu) ** 2 / sigma2 + math.log(2.0 * math.pi * sigma2))


def _ms_stat(x):
    v = _stack(x, 1)[:, 0]
    out = np.empty(v.shape + (2,))
    out[:, 0] = v
    np.multiply(v, v, out=out[:, 1])
    return out


def _ms_tau(t2, sigma2):
    return 1.0 - 2.0 * sigma2 * t2


def _ms_cumulant(t, mu, sigma2):
    # near the tau -> 0 boundary the value overflows to +inf, which the
    # tilt solver's line search treats correctly
    tau = _ms_tau(float(t[1]), sigma2)
    b = float(t[0]) + mu / sigma2
    with np.errstate(over="ignore"):
        return float(-0.5 * math.log(tau) + b * b * sigma2 / (2.0 * tau)
                     - mu * mu / (2.0 * sigma2))


def _coord(x, j):
    """Coordinate j of the last axis: an array for a stack, a numpy scalar
    (cheaper to compute with than a 0-d array) for one row."""
    return np.asarray(x, dtype=float)[..., j][()]


def _ms_tau_m1(t, mu, sigma2):
    tau = _ms_tau(_coord(t, 1), sigma2)
    return tau, (_coord(t, 0) * sigma2 + mu) / tau


def _last_axis(*columns):
    """The columns stacked along a new last axis."""
    out = np.empty(np.shape(columns[0]) + (len(columns),))
    for j, c in enumerate(columns):
        out[..., j] = c
    return out


def _ms_mean(t, mu, sigma2):
    tau, m1 = _ms_tau_m1(t, mu, sigma2)
    return _last_axis(m1, sigma2 / tau + m1 * m1)


def _ms_cov(t, mu, sigma2):
    tau, m1 = _ms_tau_m1(t, mu, sigma2)
    out = np.empty(np.shape(tau) + (2, 2))
    with np.errstate(over="ignore"):
        out[..., 0, 0] = sigma2 / tau
        out[..., 0, 1] = out[..., 1, 0] = 2.0 * sigma2 * m1 / tau
        out[..., 1, 1] = 2.0 * sigma2 * sigma2 / (tau * tau) + 4.0 * sigma2 * m1 * m1 / tau
    return out


def _ms_third(t, mu, sigma2):
    tau, m1 = _ms_tau_m1(t, mu, sigma2)
    s4 = sigma2 * sigma2 / (tau * tau)
    return _last_axis(8.0 * s4 * m1,
                      2.0 * s4 + 8.0 * s4 * sigma2 / tau + 24.0 * s4 * m1 * m1)


def _ms_tilt(alpha, mu, sigma2):
    # the tilted law is N(m1, var): t2 sets the variance, t1 the mean
    a1, a2 = _coord(alpha, 0), _coord(alpha, 1)
    var = a2 - a1 * a1
    var = np.where(var > 0, var, np.nan)[()]
    return _last_axis(a1 / var - mu / sigma2, 0.5 * (1.0 / sigma2 - 1.0 / var))


def _ms_tilted(t, mu, sigma2):
    t = np.asarray(t, dtype=float)
    tau = _ms_tau(t[1], sigma2)
    if tau <= 0:
        raise DomainError("second tilt coordinate beyond 1/(2 sigma^2)", coord=1)
    var = sigma2 / tau
    mean = var * (t[0] + mu / sigma2)
    return (partial(_gm_tilted_draw, mean=np.array([mean]), sd=np.array([math.sqrt(var)])),
            partial(_ms_logp, mu=mean, sigma2=var))


def _ms_step_poly(gauss_mean, beta, mu, sigma2):
    # log N(u(y); m, beta) + log p_X(y) with u(y) = (y, y^2), m = gauss_mean
    # and P = beta^-1: a quartic on the whole line, whose y^4 coefficient
    # -P22 / 2 is negative
    m1, m2 = _coord(gauss_mean, 0), _coord(gauss_mean, 1)
    beta = np.asarray(beta, dtype=float)
    b11, b12, b22 = beta[..., 0, 0], beta[..., 0, 1], beta[..., 1, 1]
    det = b11 * b22 - b12 * b12
    p11, p12, p22 = b22 / det, -b12 / det, b11 / det
    const = (-0.5 * (p11 * m1 * m1 + 2.0 * p12 * m1 * m2 + p22 * m2 * m2 + np.log(det))
             - _LOG_2PI - 0.5 * (mu * mu / sigma2 + math.log(2.0 * math.pi * sigma2)))
    return _last_axis(-0.5 * p22, -p12, p12 * m1 + p22 * m2 - 0.5 * (p11 + 1.0 / sigma2),
                      p11 * m1 + p12 * m2 + mu / sigma2, const), -math.inf


def _ms_x_window(t, mu, sigma2):
    t = np.asarray(t, dtype=float)
    tau = _ms_tau(t[1], sigma2)
    var = sigma2 / tau
    mean = var * (t[0] + mu / sigma2)
    sd = math.sqrt(var)
    return (mean - 12.0 * sd, mean + 12.0 * sd)


def _ms_predicate(t, sigma2):
    return _ms_tau(float(t[1]), sigma2) > 0


def _gaussian_mean_square_model(mu, sigma) -> ModelSpec:
    mu = float(mu)
    sigma = float(sigma)
    if not math.isfinite(mu):
        raise ConfigurationError("mu must be finite")
    if not 0 < sigma < math.inf:
        raise ConfigurationError("sigma must be finite and positive")
    sigma2 = sigma * sigma
    domain = CumulantDomain(
        np.array([-np.inf, -np.inf]),
        np.array([np.inf, 1.0 / (2.0 * sigma2)]),
        predicate=partial(_ms_predicate, sigma2=sigma2),
    )
    return ModelSpec(
        d=1,
        s=2,
        log_density_x=partial(_ms_logp, mu=mu, sigma2=sigma2),
        statistic=_ms_stat,
        cumulant=partial(_ms_cumulant, mu=mu, sigma2=sigma2),
        cumulant_domain=domain,
        name="gaussian-mean-and-square",
        mean_fn=partial(_ms_mean, mu=mu, sigma2=sigma2),
        cov_fn=partial(_ms_cov, mu=mu, sigma2=sigma2),
        third_fn=partial(_ms_third, mu=mu, sigma2=sigma2),
        tilt_fn=partial(_ms_tilt, mu=mu, sigma2=sigma2),
        tilted_family=partial(_ms_tilted, mu=mu, sigma2=sigma2),
        step_poly_fn=partial(_ms_step_poly, mu=mu, sigma2=sigma2),
        x_window_fn=partial(_ms_x_window, mu=mu, sigma2=sigma2),
    )


BUILTIN_FAMILIES = ("gaussian-mean", "exponential-mean", "gaussian-mean-and-square")


def builtin_model(name: str, **params) -> ModelSpec:
    """Construct one of the built-in model families.

    gaussian-mean:            mu, sigma, d (u = identity, s = d)
    exponential-mean:         rate (d = s = 1)
    gaussian-mean-and-square: mu, sigma (d = 1, s = 2, u(x) = (x, x^2))
    """
    if name == "gaussian-mean":
        spec = _gaussian_mean_model(params.pop("mu", 0.0), params.pop("sigma", 1.0),
                                    int(params.pop("d", 1)))
    elif name == "exponential-mean":
        spec = _exponential_mean_model(params.pop("rate", 1.0))
    elif name == "gaussian-mean-and-square":
        spec = _gaussian_mean_square_model(params.pop("mu", 0.0), params.pop("sigma", 1.0))
    else:
        raise ConfigurationError(f"unknown model family {name!r}")
    if params:
        raise ConfigurationError(f"unexpected parameters for {name}: {sorted(params)}")
    return spec
