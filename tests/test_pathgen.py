import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import multivariate_normal, norm

import raresum as rs
from raresum.errors import ConfigurationError, PathAbort
from raresum.pathgen import (
    GridDensity1D,
    base_sampler,
    select_k,
    step_params,
)


def exact_conditional_head(n, k, v, sigma=1.0):
    """Law of the first k coordinates of n i.i.d. N(mu, sigma^2) given that
    their total equals n*v (the mean drops out of the conditional)."""
    cov = sigma**2 * (np.eye(k) - np.ones((k, k)) / n)
    return multivariate_normal(mean=np.full(k, v), cov=cov)


def test_select_k_examples():
    assert select_k(100, "default") == 90
    assert select_k(100, "gaussian-exact") == 99
    assert select_k(3, "default") == 1
    assert select_k(50, "manual", 12) == 12


def test_select_k_validation():
    with pytest.raises(ConfigurationError):
        select_k(100, "manual", 0)
    with pytest.raises(ConfigurationError):
        select_k(100, "manual", 100)
    with pytest.raises(ConfigurationError):
        select_k(2, "default")


def test_step_params_gaussian_example(std_gauss):
    p = step_params(std_gauss, [0.5], 1, [0.2], 3)
    assert p.m_target == pytest.approx([0.65])
    assert p.t == pytest.approx([0.65], abs=1e-10)
    assert p.beta[0, 0] == pytest.approx(1.0)
    assert p.alpha == pytest.approx([0.65], abs=1e-10)  # zero third cumulants


def test_step_params_on_track_path(gauss_005):
    p = step_params(gauss_005, [0.28], 50, np.array([14.0]), 100)
    assert p.m_target == pytest.approx([0.28])


def test_gaussian_step_matches_conditional_moments(std_gauss):
    # first draw of a 3-point run conditioned to average 0.5
    p = step_params(std_gauss, [0.5], 0, [0.0], 3)
    sampler = p.sampler
    assert sampler.post_mean == pytest.approx([0.5])
    assert sampler.post_var == pytest.approx([2.0 / 3.0])


def test_gaussian_step_variance_general(std_gauss):
    n = 10
    for i in range(0, n - 1):
        p = step_params(std_gauss, [0.3], i, [0.3 * i], n)
        assert p.sampler.post_var[0] == pytest.approx(1.0 - 1.0 / (n - i))


def test_step_density_normalizes_generic(expo, mean_square):
    gen = np.random.default_rng(3)
    cases = []
    for _ in range(5):
        v = gen.uniform(1.2, 2.0)
        u0 = gen.uniform(0.0, 0.4)
        cases.append((expo, np.array([v]), np.array([u0]), (0.0, 150.0)))
    for _ in range(5):
        m1 = gen.uniform(0.0, 0.4)
        m2 = m1 * m1 + gen.uniform(0.8, 1.5)
        cases.append((mean_square, np.array([m1, m2]),
                      np.array([m1 * 0.5, m2 * 0.5]), (-20.0, 20.0)))
    for model, v, u0, bounds in cases:
        p = step_params(model, v, 1, u0, 12)
        chol = np.linalg.cholesky(p.beta)

        def dens(y):
            u = np.asarray(model.statistic(np.array([y]))).reshape(-1)
            z = np.linalg.solve(chol, u - p.gauss_mean)
            log_gauss = (-0.5 * (z @ z + len(u) * math.log(2 * math.pi))
                         - float(np.sum(np.log(np.diagonal(chol)))))
            return math.exp(p.log_norm + log_gauss + model.log_density_x(np.array([y])))

        total, _ = quad(dens, *bounds, limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_step_sampler_density_matches_draws(expo):
    # inverse-CDF draws and the recorded density describe the same law
    p = step_params(expo, [1.5], 0, [0.0], 10)
    gen = np.random.default_rng(9)
    ys = np.array([p.sampler.draw(gen)[0][0] for _ in range(20000)])
    grid = p.sampler.grid
    edges = np.quantile(ys, np.linspace(0, 1, 21))
    counts, _ = np.histogram(ys, bins=edges)
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        mass, _ = quad(lambda y: math.exp(grid.logpdf(y)), lo, hi, limit=100)
        se = math.sqrt(mass * (1 - mass) / len(ys))
        assert abs(c / len(ys) - mass) < 5 * se + 1e-4


def test_flat_steering_limit_recovers_tilted_density(expo):
    # with mean beta*alpha + m and beta huge, the steering factor flattens
    # into a pure exponential tilt, so the step tends to the tilted law
    from raresum.pathgen import _make_step_sampler

    sol = rs.solve_tilt(expo, [1.5])
    beta = np.array([[1e8]])
    gauss_mean = beta @ sol.t + np.array([1.5])
    sampler, _ = _make_step_sampler(expo, gauss_mean, beta)
    tilted = rs.tilted_tail_sampler(expo, [1.5])
    xs = np.linspace(0.0, 40, 20001)
    step_dens = np.exp(sampler.grid.logpdf(xs))
    tilt_dens = np.exp(tilted.logpdf(xs))
    tv = 0.5 * np.trapezoid(np.abs(step_dens - tilt_dens), xs)
    assert tv < 1e-4


@pytest.mark.parametrize("n", [3, 10])
def test_gaussian_exactness_head_density(std_gauss, n):
    k = n - 1
    gen = np.random.default_rng(101)
    v = np.array([0.5])
    oracle = exact_conditional_head(n, k, v[0])
    for _ in range(100):
        path = rs.sample_path(std_gauss, v, n, k, gen)
        assert abs(path.log_g_head - oracle.logpdf(path.points[:k, 0])) < 1e-8


def test_gaussian_exactness_any_k(std_gauss):
    # the head law is the exact conditional for every split, not just k = n-1
    n, k = 10, 6
    gen = np.random.default_rng(5)
    oracle = exact_conditional_head(n, k, 0.4)
    for _ in range(20):
        path = rs.sample_path(std_gauss, [0.4], n, k, gen)
        assert abs(path.log_g_head - oracle.logpdf(path.points[:k, 0])) < 1e-8


def test_path_logdensity_matches_sample(std_gauss, expo):
    gen = np.random.default_rng(17)
    for model, v in ((std_gauss, [0.4]), (expo, [1.5])):
        for _ in range(50):  # exponential runs this short can abort; retry
            try:
                path = rs.sample_path(model, v, 8, 5, gen)
                break
            except PathAbort:
                continue
        dens = rs.path_logdensity(model, path.points, v, 8, 5)
        assert dens.log_g == pytest.approx(path.log_g, abs=1e-9)
        assert dens.log_p == pytest.approx(path.log_p, abs=1e-9)


def test_path_running_sums_consistent(std_gauss):
    gen = np.random.default_rng(19)
    path = rs.sample_path(std_gauss, [0.3], 12, 9, gen)
    stats = np.asarray(std_gauss.statistic(path.points))
    np.testing.assert_allclose(path.u_partial, np.cumsum(stats, axis=0), atol=1e-12)
    assert math.isfinite(path.log_g)


def test_importance_factor_is_density_ratio(std_gauss):
    gen = np.random.default_rng(23)
    path = rs.sample_path(std_gauss, [0.4], 6, 4, gen)
    assert path.log_p - path.log_g == pytest.approx(
        path.log_p - (path.log_g_head + path.log_g_tail))


def test_two_point_run_decomposition(std_gauss):
    # n=2, k=1: head is the exact conditional N(v, 1/2); tail mean doubles back
    gen = np.random.default_rng(29)
    v = np.array([0.5])
    ys = []
    for _ in range(4000):
        path = rs.sample_path(std_gauss, v, 2, 1, gen)
        ys.append(path.points[0, 0])
        m1 = 2 * (v[0] - path.points[0, 0] / 2)
        dens = rs.path_logdensity(std_gauss, path.points, v, 2, 1)
        expected_tail = norm.logpdf(path.points[1, 0], loc=m1, scale=1.0)
        assert dens.log_g_tail == pytest.approx(expected_tail, abs=1e-10)
    ys = np.asarray(ys)
    assert abs(ys.mean() - 0.5) < 4 * ys.std(ddof=1) / math.sqrt(len(ys))
    assert ys.var(ddof=1) == pytest.approx(0.5, rel=0.1)


def test_mean_tracking_at_scale(gauss_005):
    # the tail re-centres every run: the statistic mean is unbiased for v
    n, k = 100, 90
    v = np.array([0.28])
    gen = np.random.default_rng(31)
    means = np.empty(10000)
    for i in range(len(means)):
        path = rs.sample_path(gauss_005, v, n, k, gen)
        means[i] = path.u_partial[-1, 0] / n
    se = means.std(ddof=1) / math.sqrt(len(means))
    assert abs(means.mean() - 0.28) < 3 * se


def test_variant_gap_shrinks_with_remaining_steps(std_gauss):
    # per-step log-density gap between centerings decays like 1/(n - i)
    n, k = 40, 39
    gen = np.random.default_rng(37)
    gaps = []
    for _ in range(20):
        path = rs.sample_path(std_gauss, [0.4], n, k, gen)
        for i in range(1, k):
            pu = step_params(std_gauss, [0.4], i, path.u_partial[i - 1], n,
                             variant="uniform-step")
            pl = step_params(std_gauss, [0.4], i, path.u_partial[i - 1], n,
                             variant="paper-literal")
            y = path.points[i]
            gap = abs(pu.sampler.logpdf(y) - pl.sampler.logpdf(y))
            gaps.append(gap * (n - i))
    # the scaled gaps stay bounded: fitted constant frozen with slack
    assert np.quantile(gaps, 0.95) < 25.0


def test_paper_literal_first_step_is_tilted_density(std_gauss):
    gen = np.random.default_rng(41)
    v = np.array([0.6])
    path = rs.sample_path(std_gauss, v, 5, 3, gen, variant="paper-literal")
    dens = rs.path_logdensity(std_gauss, path.points, v, 5, 3, variant="paper-literal")
    tilted = rs.tilted_tail_sampler(std_gauss, v)
    first = float(tilted.logpdf(path.points[0]))
    rest = dens.log_g_head - first
    assert math.isfinite(rest)
    # direct check of the first factor
    p2 = rs.path_logdensity(std_gauss, path.points, v, 5, 3, variant="paper-literal")
    assert p2.log_g_head == pytest.approx(dens.log_g_head)


def test_tilted_tail_sampler_families(gauss_005, expo, mean_square):
    gen = np.random.default_rng(43)
    s = rs.tilted_tail_sampler(gauss_005, [0.28])
    xs = np.asarray(s.sample(gen, size=20000))
    assert abs(xs.mean() - 0.28) < 0.03
    assert s.logpdf(np.array([0.28])) == pytest.approx(norm.logpdf(0.28, 0.28, 1.0))

    s = rs.tilted_tail_sampler(expo, [2.0])
    xs = np.asarray(s.sample(gen, size=20000))
    assert abs(xs.mean() - 2.0) < 0.06  # exponential with rate 1/2
    assert s.logpdf(np.array([1.0])) == pytest.approx(math.log(0.5) - 0.5)

    s = rs.tilted_tail_sampler(mean_square, [0.3, 1.2])
    xs = np.asarray(s.sample(gen, size=30000))
    stat = np.asarray(mean_square.statistic(xs))
    assert np.max(np.abs(stat.mean(axis=0) - [0.3, 1.2])) < 0.03


def test_zero_tilt_recovers_base_density(std_gauss):
    s = rs.tilted_tail_sampler(std_gauss, [0.0])
    assert np.max(np.abs(s.t)) < 1e-12
    x = np.array([0.7])
    assert s.logpdf(x) == pytest.approx(std_gauss.log_density_x(x))


def test_base_sampler_matches_log_density(expo):
    s = base_sampler(expo)
    x = np.array([0.9])
    assert s.logpdf(x) == pytest.approx(expo.log_density_x(x))


def test_path_abort_reports_step(expo):
    # an exponential path overshooting the target makes the remaining mean
    # negative, which is unattainable
    gen = np.random.default_rng(47)
    saw_abort = False
    for _ in range(200):
        try:
            rs.sample_path(expo, [0.35], 6, 5, gen)
        except PathAbort as err:
            saw_abort = True
            assert 0 <= err.step <= 5
            break
    assert saw_abort


def test_grid_density_sampling_is_exact():
    xs = np.linspace(-3, 3, 2001)
    log_f = -0.5 * xs**2
    g = GridDensity1D(xs, log_f)
    gen = np.random.default_rng(53)
    draws = g.sample(gen, size=50000)
    assert abs(np.mean(draws)) < 0.02
    assert np.var(draws) == pytest.approx(0.973, abs=0.03)  # truncated normal
    total, _ = quad(lambda y: math.exp(g.logpdf(y)), -3, 3, limit=200)
    assert total == pytest.approx(1.0, abs=1e-7)


def test_generic_d2_step_rejected():
    model = rs.builtin_model("gaussian-mean", mu=0.0, sigma=1.0, d=2)
    object.__setattr__(model, "conjugacy_tag", "generic")
    with pytest.raises(ConfigurationError):
        step_params(model, [0.1, 0.1], 0, [0.0, 0.0], 5)
