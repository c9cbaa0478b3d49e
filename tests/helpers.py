"""Shared oracles and run helpers for the test suite (not collected) and
scripts/grid_fidelity.py."""

import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.stats import chi2, gamma, multivariate_normal, norm

from raresum import pathgen
from raresum.config import load_config
from raresum.estimate import run_point

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Normal CDF oracle for the two-sided mean event of the bundled experiment:
# P(|mean| > 0.28) for 100 i.i.d. N(0.05, 1).
P_ONE_DIM = float(norm.sf(2.3) + norm.cdf(-3.3))
NEGATIVE_SPLIT = float(norm.cdf(-3.3) / (norm.cdf(-3.3) + norm.cdf(-2.3)))
# P(mean >= 1.5) for 100 i.i.d. Exp(1): their sum is Gamma(100, 1).
P_EXPO_MEAN = float(gamma(100).sf(150.0))


def mean_square_probability(region, n, mu=0.0, sigma=1.0):
    """P(mean in region.components[0], mean square in region.components[1])
    for n i.i.d. N(mu, sigma^2), exactly.  By Cochran's theorem the sample
    mean x ~ N(mu, sigma^2 / n) is independent of S = sum (x_i - x)^2 ~
    sigma^2 chi^2_{n-1}, and the mean square is x^2 + S / n; so P is a 1-d
    integral over the mean's intervals of the normal density times a chi^2
    mass, taken by quad to 1e-12 relative."""
    sd = sigma / math.sqrt(n)
    chi = chi2(n - 1)
    total = 0.0
    for square in region.components[1].intervals:
        lo, hi = max(square.lower, 0.0), square.upper

        def mass(x):
            top, bottom = (max(n * (b - x * x) / sigma**2, 0.0) for b in (hi, lo))
            return norm.pdf(x, mu, sd) * (chi.cdf(top) - chi.cdf(bottom))

        edge = math.sqrt(hi)  # no mass where x^2 > hi
        for mean in region.components[0].intervals:
            a, b = max(mean.lower, -edge), min(mean.upper, edge)
            if a < b:
                total += quad(mass, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return total


def conditional_head_oracle(n, k, v, sigma=1.0):
    """Exact law of the first k of n i.i.d. normals given their total = n*v."""
    cov = sigma**2 * (np.eye(k) - np.ones((k, k)) / n)
    return multivariate_normal(mean=np.full(k, v), cov=cov)


def walk_one(model, v, n, k, rng=None, variant="uniform-step", points=None):
    """pathgen.walk_runs on a stack of one: a run toward v (s,) drawn with
    the generator rng, or the given points (n, d) evaluated.  Returns the
    run's points (n, d) and its head, tail and base log-densities; raises
    the run's PathAbort."""
    P, head, tail, log_p, aborts = pathgen.walk_runs(
        model, np.reshape(v, (1, -1)), n, k, variant, rngs=[rng],
        points=None if points is None else np.asarray(points)[None])
    if aborts[0] is not None:
        raise aborts[0]
    return P[0], head[0], tail[0], log_p[0]


def gaussian_quadratic_by_steps(model, P, V0, n, k, variant):
    """Reference for pathgen._gaussian_quadratic: the same head, tail, b and
    q, added up one head step at a time from gaussian_step's law and then
    over the tail, in the order in which the quadratic must add them."""
    sigma2 = model.gauss_identity_params[1]
    u_run = np.zeros((P.shape[0], model.s))
    head, b, q = np.zeros(P.shape[0]), 0.0, 0.0
    for i in range(k):
        mean, var = pathgen.gaussian_step(model, V0, u_run, i, n, variant)
        slope = pathgen.gaussian_step(model, 1.0, 0.0, i, n, variant)[0].item()
        dev = P[:, i] - mean
        head = head - 0.5 * np.sum(dev * dev / var + np.log(2.0 * np.pi * var), axis=-1)
        b = b + slope * (dev / var)
        q = q + slope * slope / var
        u_run = u_run + P[:, i]
    remaining = (n / (n - k)) * (V0 - u_run / n)
    dev = P[:, k:] - remaining[:, None]
    slope = n / (n - k)
    b = b + slope * (np.sum(dev, axis=1) / sigma2)
    q = q + (n - k) * slope * slope / sigma2
    tail = np.sum(-0.5 * np.sum(dev * dev / sigma2 + np.log(2.0 * np.pi * sigma2), axis=-1),
                  axis=-1)
    return head, tail, b, q


def run_experiment_point(cfg_name, sweep_value, scheme):
    """One (sweep value, scheme) cell of a bundled configuration, run as the
    CLI runs it."""
    cfg = load_config(str(CONFIG_DIR / cfg_name))
    model, region, n, L = cfg.instantiate(sweep_value)
    return run_point(model, region, n, L, scheme, cfg.seed,
                     sweep_label=cfg.sweep_label(sweep_value),
                     path_config=cfg.path_config(), chain_config=cfg.chain,
                     weighting=cfg.weighting)


def expected_weight_by_quadrature(model, v, threshold=0.3, grid=2401):
    """E[weight | v] for the two-point toy run of a unit-variance model, by
    direct grid quadrature of the sampling density (and its total mass).
    The head is the exact conditional law N(v, 1/2)."""
    ys = np.linspace(-8.0, 9.0, grid)
    log_p1 = model.log_density_x(ys.reshape(-1, 1))
    log_head = norm.logpdf(ys, loc=v, scale=math.sqrt(0.5))
    m1 = 2 * v - ys
    dev = ys[None, :] - m1[:, None]
    log_tail = -0.5 * (dev**2 + math.log(2 * math.pi))
    log_g = log_head[:, None] + log_tail
    log_w = (log_p1[:, None] + log_p1[None, :]) - log_g
    g = np.exp(log_g)
    gw = np.exp(log_g + log_w)
    total_g = float(np.trapezoid(np.trapezoid(g, ys, axis=1), ys))
    rows = np.empty(len(ys))
    cut = 2 * threshold
    for i, y1 in enumerate(ys):
        c = cut - y1
        if c <= ys[0]:
            rows[i] = np.trapezoid(gw[i], ys)
        elif c >= ys[-1]:
            rows[i] = 0.0
        else:
            j = int(np.searchsorted(ys, c))
            partial = 0.5 * (np.interp(c, ys, gw[i]) + gw[i, j]) * (ys[j] - c)
            rows[i] = np.trapezoid(gw[i, j:], ys[j:]) + partial
    return float(np.trapezoid(rows, ys)), total_g


def grid_targets(family, lo_hi, count, gen):
    """Conditioning points (count, s) of a built-in grid family, one uniform
    draw from lo_hi each."""
    a = gen.uniform(*lo_hi, size=count)
    if family == "exponential-mean":
        return a[:, None]
    return np.stack([0.6 * a - 0.2, (0.6 * a - 0.2) ** 2 + a + 0.4], axis=-1)


def random_step_laws(model, variant, count, gen, n=100, k=90):
    """gauss_mean (R, s) and beta (R, s, s) of the grid step laws that runs
    conditioned toward random targets build after random prefixes of i.i.d.
    points, as the walker builds them (rows whose tilt fails dropped)."""
    means, betas = [], []
    for _ in range(count):
        i = int(gen.integers(0, k))
        if model.s == 1:
            v = gen.uniform(0.5, 2.5, 1)
            prefix = gen.exponential(v[0], i)
        else:
            m1, var = gen.uniform(-0.4, 0.5), gen.uniform(0.4, 1.5)
            v = np.array([m1, m1 * m1 + var])
            prefix = m1 + math.sqrt(var) * gen.standard_normal(i)
        u = np.sum(model.statistic(prefix.reshape(-1, 1)), axis=0) if i else np.zeros(model.s)
        law = pathgen._step_laws(model, v[None], u.reshape(1, -1), i, n, variant)
        if law.errors[0] is None:
            means.append(law.gauss_mean[0])
            betas.append(law.beta[0])
    return np.array(means), np.array(betas)


def step_log_h(model, gauss_mean, beta):
    """log_h(rows, ys) of the step densities N(u(y); gauss_mean, beta) p_X(y),
    up to a constant per row."""
    prec = np.linalg.inv(beta)

    def log_h(rows, ys):
        y = ys.reshape(-1, 1)
        dev = np.asarray(model.statistic(y)).reshape(ys.shape + (-1,)) - gauss_mean[rows, None]
        q = np.einsum("rgi,rij,rgj->rg", dev, prec[rows], dev)
        return np.asarray(model.log_density_x(y)).reshape(ys.shape) - 0.5 * q

    return log_h


def drawn_step_laws(model, variant, runs, steps, gen, n=100, k=90):
    """gauss_mean (R, s) and beta (R, s, s) of the grid step laws at random
    steps of runs drawn toward random targets."""
    lo_hi = [0.8, 2.0] if model.s == 1 else [0.1, 0.5]
    V = grid_targets(model.name, lo_hi, runs, gen)
    points, _, _, _, aborts = pathgen._grid_paths(model, V, n, k, variant,
                                                  rngs=[np.random.default_rng(gen.integers(1 << 32))
                                                        for _ in range(runs)])
    means, betas = [], []
    for j in np.flatnonzero([a is None for a in aborts]):
        u = np.cumsum(np.asarray(model.statistic(points[j])), axis=0)
        for i in gen.integers(1, k, steps):
            law = pathgen._step_laws(model, V[j][None], u[i - 1][None], i, n, variant)
            means.append(law.gauss_mean[0])
            betas.append(law.beta[0])
    return np.array(means), np.array(betas)


def step_grid_errors(model, gauss_mean, beta):
    """For each grid step law, the total variation between its tabulated
    sampler and its smooth step density, and the error of its normalizing
    constant (the smooth density's integral under it, minus 1), both
    integrated on 400,001 points."""
    log_h = step_log_h(model, gauss_mean, beta)
    log_const = -0.5 * (model.s * math.log(2.0 * math.pi) + np.log(np.linalg.det(beta)))
    tvs, norms = [], []
    for j in range(len(gauss_mean)):
        # row j alone, a stack of one: rows are tabulated independently, so it
        # is row j of the stack the walker builds
        errors = [None]
        law = pathgen._step_grids(model, gauss_mean[j:j + 1], beta[j:j + 1], errors)
        assert errors == [None]
        lo, hi = law.x[0, 0], law.x[0, -1]
        pad = hi - lo
        xs = np.linspace(max(lo - pad, 0.0) if model.name == "exponential-mean" else lo - pad,
                         hi + pad, 400001)
        smooth = np.exp(log_h(np.array([j]), xs[None])[0] + log_const[j] - law.log_integral[0])
        total = np.trapezoid(smooth, xs)
        sampled = np.exp(law.logpdf(xs[None])[0])
        tvs.append(0.5 * np.trapezoid(np.abs(sampled - smooth / total), xs))
        norms.append(total - 1.0)
    return np.array(tvs), np.array(norms)
