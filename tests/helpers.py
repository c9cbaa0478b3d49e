"""Shared oracles and run helpers for the test suite (not collected)."""

import math
from pathlib import Path

import numpy as np
from scipy.stats import multivariate_normal, norm

from raresum.config import load_config
from raresum.estimate import run_point

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Normal CDF oracle for the two-sided mean event of the bundled experiment:
# P(|mean| > 0.28) for 100 i.i.d. N(0.05, 1).
P_ONE_DIM = float(norm.sf(2.3) + norm.cdf(-3.3))
NEGATIVE_SPLIT = float(norm.cdf(-3.3) / (norm.cdf(-3.3) + norm.cdf(-2.3)))


def conditional_head_oracle(n, k, v, sigma=1.0):
    """Exact law of the first k of n i.i.d. normals given their total = n*v."""
    cov = sigma**2 * (np.eye(k) - np.ones((k, k)) / n)
    return multivariate_normal(mean=np.full(k, v), cov=cov)


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
