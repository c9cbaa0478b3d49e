import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, norm

import raresum as rs
from raresum.errors import ConfigurationError, PathAbort
from raresum import estimate, pathgen
from raresum.model import moments
from raresum.pathgen import (
    GridDensity1D,
    gaussian_step,
    mixture_logdensity,
    select_k,
    step_params,
)
from raresum.utils import replicate_rng
from helpers import (drawn_step_laws, gaussian_quadratic_by_steps, grid_targets,
                     random_step_laws, step_grid_errors, step_log_h, walk_one)


def exact_conditional_head(n, k, v, sigma=1.0):
    """Law of the first k coordinates of n i.i.d. N(mu, sigma^2) given that
    their total equals n*v (the mean drops out of the conditional)."""
    cov = sigma**2 * (np.eye(k) - np.ones((k, k)) / n)
    return multivariate_normal(mean=np.full(k, v), cov=cov)


def test_select_k_examples():
    assert select_k(100, "default") == 90
    assert select_k(3, "default") == 1
    assert select_k(50, "manual", 12) == 12
    with pytest.raises(ConfigurationError):  # manual with k = n - 1 covers it
        select_k(100, "gaussian-exact")


def test_select_k_validation():
    with pytest.raises(ConfigurationError):
        select_k(100, "manual", 0)
    with pytest.raises(ConfigurationError):
        select_k(100, "manual", 100)
    with pytest.raises(ConfigurationError):
        select_k(2, "default")
    with pytest.raises(ConfigurationError, match="manual"):  # not the default k = 90
        select_k(100, "default", 75)


def test_gaussian_step_example(std_gauss):
    # remaining mean 3/2 * (0.5 - 0.2/3) = 0.65, one point left after this one
    mean, var = gaussian_step(std_gauss, [0.5], [0.2], 1, 3)
    assert mean == pytest.approx(np.array([[0.65]]))
    assert var == pytest.approx([0.5])
    mean, _ = gaussian_step(std_gauss, [0.5], [0.2], 1, 3, "paper-literal")
    assert mean == pytest.approx(np.array([[(0.65 + 0.5) / 2]]))


def test_gaussian_step_on_track_path(gauss_005):
    mean, _ = gaussian_step(gauss_005, [0.28], np.array([14.0]), 50, 100)
    assert mean == pytest.approx(np.array([[0.28]]))


def test_gaussian_step_matches_conditional_moments(std_gauss):
    # first draw of a 3-point run conditioned to average 0.5
    mean, var = gaussian_step(std_gauss, [0.5], [0.0], 0, 3)
    assert mean == pytest.approx(np.array([[0.5]]))
    assert var == pytest.approx([2.0 / 3.0])


def test_gaussian_step_variance_general(std_gauss):
    n = 10
    for i in range(0, n - 1):
        _, var = gaussian_step(std_gauss, [0.3], [0.3 * i], i, n)
        assert var[0] == pytest.approx(1.0 - 1.0 / (n - i))


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
        p = step_params(model, v, 1, u0, 12)  # one row
        chol = np.linalg.cholesky(p.beta[0])
        log_norm = -p.density.log_integral[0]

        def dens(y):
            u = model.statistic(np.array([[y]]))[0]
            z = np.linalg.solve(chol, u - p.gauss_mean[0])
            log_gauss = (-0.5 * (z @ z + len(u) * math.log(2 * math.pi))
                         - float(np.sum(np.log(np.diagonal(chol)))))
            return math.exp(log_norm + log_gauss + model.log_density_x(np.array([[y]]))[0])

        total, _ = quad(dens, *bounds, limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_step_sampler_density_matches_draws(expo):
    # inverse-CDF draws and the recorded density describe the same law
    p = step_params(expo, [1.5], 0, [0.0], 10)
    gen = np.random.default_rng(9)
    grid = p.density  # a stack of one row
    ys = grid.draw([gen], 20000)[0][0]
    edges = np.quantile(ys, np.linspace(0, 1, 21))
    counts, _ = np.histogram(ys, bins=edges)
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        mass, _ = quad(lambda y: math.exp(grid.logpdf([[y]])[0, 0]), lo, hi, limit=100)
        se = math.sqrt(mass * (1 - mass) / len(ys))
        assert abs(c / len(ys) - mass) < 5 * se + 1e-4


def test_flat_steering_limit_recovers_tilted_density(expo):
    # with mean beta*alpha + m and beta huge, the steering factor flattens
    # into a pure exponential tilt, so the step tends to the tilted law
    sol = rs.solve_tilt(expo, [1.5])
    beta = np.array([[1e8]])
    gauss_mean = beta @ sol.t + np.array([1.5])
    sampler = pathgen._step_grids(expo, gauss_mean[None], beta[None], [None])
    _, tilted_logpdf = rs.tilted_tail_sampler(expo, [1.5])
    xs = np.linspace(0.0, 40, 20001)
    step_dens = np.exp(sampler.logpdf(xs[None])[0])
    tilt_dens = np.exp(tilted_logpdf(xs[:, None]))
    tv = 0.5 * np.trapezoid(np.abs(step_dens - tilt_dens), xs)
    assert tv < 1e-4


@pytest.mark.parametrize("variant", ["uniform-step", "paper-literal"])
@pytest.mark.parametrize("family", ["exponential-mean", "gaussian-mean-and-square"])
def test_step_windows_hold_the_trimmed_windows(family, variant):
    # a built-in step window, computed from the law's polynomial, holds the
    # window that trimming a wide grid finds on the same law, and is at most
    # two of that window's cells wider on either side
    model = rs.builtin_model(family)
    gauss_mean, beta = random_step_laws(model, variant, 120, np.random.default_rng(211))
    assert len(gauss_mean) > 100
    windows = pathgen._level_window(*model.step_poly_fn(gauss_mean, beta))
    R = len(windows)
    width = windows[:, 1] - windows[:, 0]
    lo, hi = windows[:, 0] - 3.0 * width, windows[:, 1] + 3.0 * width
    if family == "exponential-mean":
        lo = np.maximum(lo, 0.0)
    failed = []
    pathgen._trim_windows(step_log_h(model, gauss_mean, beta), lo, hi, np.arange(R), 1001,
                          lambda rows, message: failed.extend(rows), pathgen._GridWork(R, 1))
    assert not failed
    cell = (hi - lo) / 1000
    assert np.all(windows[:, 0] <= lo) and np.all(windows[:, 1] >= hi)
    assert np.all(windows[:, 0] >= lo - 2.0 * cell) and np.all(windows[:, 1] <= hi + 2.0 * cell)


@pytest.mark.parametrize("family", ["exponential-mean", "gaussian-mean-and-square"])
def test_step_polynomial_equals_statistic_log_h(family):
    # a built-in's step polynomial is the log step density that the statistic
    # and the whitened Gaussian factor give, constant included, on the
    # windows it is tabulated on: at drawn runs' steps, and on laws far off
    # track (gauss_mean about (-3.02, 22.5) for mean-square)
    model = rs.builtin_model(family)
    off_track = random_step_laws(model, "uniform-step", 12, np.random.default_rng(223))
    if model.s == 2:
        assert np.any(np.all(np.abs(off_track[0] - [-3.02, 22.5]) < [0.01, 0.1], axis=1))
    for gauss_mean, beta in (drawn_step_laws(model, "uniform-step", 4, 3,
                                             np.random.default_rng(223)), off_track):
        coef, start = model.step_poly_fn(gauss_mean, beta)
        windows = pathgen._level_window(coef, start)
        ys = pathgen._linspace_rows(windows[:, 0], windows[:, 1], 2001)
        rows = np.arange(len(ys))
        log_const = -0.5 * (model.s * math.log(2.0 * math.pi) + np.log(np.linalg.det(beta)))
        reference = step_log_h(model, gauss_mean, beta)(rows, ys) + log_const[:, None]
        assert np.max(np.abs(pathgen._polyval(coef, ys) - reference)) < 1e-9


@pytest.mark.parametrize("variant", ["uniform-step", "paper-literal"])
@pytest.mark.parametrize("family", ["exponential-mean", "gaussian-mean-and-square"])
def test_builtin_step_sampler_fidelity(family, variant):
    # on the step laws of drawn runs, the tabulated sampler of a built-in grid
    # step lies within total variation 1e-5 of its smooth step density
    model = rs.builtin_model(family)
    gauss_mean, beta = drawn_step_laws(model, variant, 4, 3, np.random.default_rng(223))
    assert len(gauss_mean) >= 9
    assert np.all(step_grid_errors(model, gauss_mean, beta)[0] < 1e-5)


def test_off_track_step_sampler_fidelity():
    # the laws that evaluating given points under another target builds can
    # lie far off track: after an unsteered i.i.d. prefix, one of these 12
    # mean-square laws (gauss_mean about (-3.02, 22.5)) read 8.9e-5 on a
    # uniform 2001-point grid; knots placed by curvature meet the 1e-5 bound
    # that drawn runs meet
    model = rs.builtin_model("gaussian-mean-and-square")
    gauss_mean, beta = random_step_laws(model, "uniform-step", 12, np.random.default_rng(223))
    assert len(gauss_mean) == 12
    assert np.all(step_grid_errors(model, gauss_mean, beta)[0] < 1e-5)


def test_knots_without_curvature_are_uniform():
    # a flat density has no curvature to place knots by, and a linear one
    # only rounding noise: both get finite, strictly increasing knots that
    # span the window, uniform for the flat one
    windows = np.array([[0.0, 1.0], [0.0, 1.0]])
    log_h = [lambda ys: np.zeros_like(ys), np.log1p]
    grid = pathgen._build_grid_density(
        lambda rows, ys: np.stack([log_h[j](y) for j, y in zip(rows, ys)]), windows,
        [None, None], trim=False)
    assert grid.x.shape == (2, pathgen._KNOTS)
    assert np.all(np.isfinite(grid.x)) and np.all(np.diff(grid.x, axis=-1) > 0)
    assert np.array_equal(grid.x[:, [0, -1]], windows)
    np.testing.assert_allclose(grid.x[0], np.linspace(0.0, 1.0, pathgen._KNOTS), atol=1e-15)


def test_step_poly_fn_must_return_stacked_coefficients():
    # a step polynomial to a one-row contract, coefficients (p + 1,), is
    # refused rather than broadcast over the stack
    model = dataclasses.replace(rs.builtin_model("exponential-mean"),
                                step_poly_fn=lambda gauss_mean, beta: ([-0.5, 1.5, 0.0], 0.0))
    with pytest.raises(ConfigurationError, match="step_poly_fn"):
        pathgen._grid_paths(model, np.full((3, 1), 1.5), 8, 5, "uniform-step",
                            rngs=[np.random.default_rng(l) for l in range(3)])
    with pytest.raises(ConfigurationError, match="step_poly_fn"):
        step_params(model, [1.5], 0, [0.0], 8)


@pytest.mark.parametrize("n", [3, 10])
def test_gaussian_exactness_head_density(std_gauss, n):
    k = n - 1
    gen = np.random.default_rng(101)
    v = np.array([0.5])
    oracle = exact_conditional_head(n, k, v[0])
    for _ in range(100):
        points, head, _, _ = walk_one(std_gauss, v, n, k, gen)
        assert abs(head - oracle.logpdf(points[:k, 0])) < 1e-8


def test_gaussian_exactness_any_k(std_gauss):
    # the head law is the exact conditional for every split, not just k = n-1
    n, k = 10, 6
    gen = np.random.default_rng(5)
    oracle = exact_conditional_head(n, k, 0.4)
    for _ in range(20):
        points, head, _, _ = walk_one(std_gauss, [0.4], n, k, gen)
        assert abs(head - oracle.logpdf(points[:k, 0])) < 1e-8


def sample_unaborted(model, v, n, k, gen, variant="uniform-step"):
    for _ in range(50):  # generic runs this short can abort; retry
        try:
            return walk_one(model, v, n, k, gen, variant)
        except PathAbort:
            continue
    raise AssertionError("every run aborted")


def test_evaluated_density_matches_drawn(std_gauss, expo, mean_square):
    gen = np.random.default_rng(17)
    for variant in ("uniform-step", "paper-literal"):
        for model, v in ((std_gauss, [0.4]), (expo, [1.5]), (mean_square, [0.3, 1.2])):
            points, head, tail, log_p = sample_unaborted(model, v, 8, 5, gen, variant)
            _, e_head, e_tail, e_log_p = walk_one(model, v, 8, 5, variant=variant, points=points)
            assert e_head + e_tail == pytest.approx(head + tail, abs=1e-9)
            assert e_log_p == pytest.approx(log_p, abs=1e-9)


def test_evaluation_aborts_on_overshooting_head(expo):
    # the head sums to 3 > n v = 2.1 after three points, so the remaining
    # mean at step 3 is negative and no tilt attains it
    points = np.array([[1.0], [1.0], [1.0], [0.1], [0.1], [0.1]])
    with pytest.raises(PathAbort) as err:
        walk_one(expo, [0.35], 6, 5, points=points)
    assert err.value.step == 3
    assert err.value.reason == "target outside the attainable mean range"


@pytest.mark.parametrize("family,target", [
    ("exponential-mean", [1.5]), ("gaussian-mean-and-square", [0.3, 1.2])])
def test_custom_model_grid_fallbacks(family, target):
    # a custom d = 1 model with no closed-form tilt, third cumulant, tilted
    # family or step polynomial: Newton and finite differences give each
    # tilt, and the tilted law and every step are tabulated on x_window_fn
    builtin = rs.builtin_model(family)
    custom = dataclasses.replace(builtin, tilt_fn=None, third_fn=None, tilted_family=None,
                                 step_poly_fn=None)
    t = rs.solve_tilt(custom, target).t
    _, grid_logpdf = pathgen.tilted_law(custom, t)
    _, exact_logpdf = rs.tilted_tail_sampler(builtin, target)
    xs = np.linspace(*custom.x_window_fn(t), 200001)
    diff = np.abs(np.exp(grid_logpdf(xs[:, None])) - np.exp(exact_logpdf(xs[:, None])))
    assert 0.5 * np.trapezoid(diff, xs) < 1e-5
    gen = np.random.default_rng(73)
    for variant in ("uniform-step", "paper-literal"):
        points, head, tail, log_p = sample_unaborted(custom, target, 8, 5, gen, variant)
        _, e_head, e_tail, e_log_p = walk_one(custom, target, 8, 5, variant=variant,
                                              points=points)
        assert e_head + e_tail == pytest.approx(head + tail, abs=1e-9)
        assert e_log_p == pytest.approx(log_p, abs=1e-9)


def test_path_running_sums_consistent(std_gauss):
    # the head density is that of the steps read off the run's own running
    # sums of the statistic
    gen = np.random.default_rng(19)
    points, head, tail, _ = walk_one(std_gauss, [0.3], 12, 9, gen)
    u_partial = np.cumsum(np.asarray(std_gauss.statistic(points)), axis=0)
    steps = 0.0
    for i in range(9):
        mean, var = gaussian_step(std_gauss, [0.3], u_partial[i - 1] if i else 0.0, i, 12)
        steps += norm.logpdf(points[i, 0], mean[0, 0], math.sqrt(var[0]))
    assert head == pytest.approx(steps, abs=1e-12)
    assert math.isfinite(head + tail)


def test_importance_factor_is_density_ratio(std_gauss):
    # log p is the base log-density of the run's points
    gen = np.random.default_rng(23)
    points, head, tail, log_p = walk_one(std_gauss, [0.4], 6, 4, gen)
    assert log_p - (head + tail) == pytest.approx(
        np.sum(std_gauss.log_density_x(points)) - (head + tail))


def test_two_point_run_decomposition(std_gauss):
    # n=2, k=1: head is the exact conditional N(v, 1/2); tail mean doubles back
    gen = np.random.default_rng(29)
    v = np.array([0.5])
    ys = []
    for _ in range(4000):
        points = walk_one(std_gauss, v, 2, 1, gen)[0]
        ys.append(points[0, 0])
        m1 = 2 * (v[0] - points[0, 0] / 2)
        tail = walk_one(std_gauss, v, 2, 1, points=points)[2]
        expected_tail = norm.logpdf(points[1, 0], loc=m1, scale=1.0)
        assert tail == pytest.approx(expected_tail, abs=1e-10)
    ys = np.asarray(ys)
    assert abs(ys.mean() - 0.5) < 4 * ys.std(ddof=1) / math.sqrt(len(ys))
    assert ys.var(ddof=1) == pytest.approx(0.5, rel=0.1)


def test_mean_tracking_at_scale(gauss_005):
    # the tail re-centres every run: the statistic mean is unbiased for v.
    # The runs are one stack that shares a generator, so they are the runs
    # that sample_path calls drawing from it in turn would give
    n, k = 100, 90
    v = np.array([0.28])
    gen = np.random.default_rng(31)
    points = pathgen.walk_runs(gauss_005, np.tile(v, (10000, 1)), n, k, rngs=[gen] * 10000)[0]
    means = np.sum(points[:, :, 0], axis=-1) / n
    se = means.std(ddof=1) / math.sqrt(len(means))
    assert abs(means.mean() - 0.28) < 3 * se
    gen = np.random.default_rng(31)
    for run in points[:20]:
        assert np.array_equal(rs.sample_path(gauss_005, v, n, k, gen)[0][0], run)


def test_variant_gap_shrinks_with_remaining_steps(std_gauss):
    # per-step log-density gap between centerings decays like 1/(n - i)
    n, k = 40, 39
    gen = np.random.default_rng(37)
    gaps = []
    for _ in range(20):
        points = walk_one(std_gauss, [0.4], n, k, gen)[0]
        u_partial = np.cumsum(points, axis=0)
        for i in range(1, k):
            y = points[i, 0]
            logpdf = [norm.logpdf(y, mean[0, 0], math.sqrt(var[0])) for mean, var in (
                gaussian_step(std_gauss, [0.4], u_partial[i - 1], i, n, variant)
                for variant in ("uniform-step", "paper-literal"))]
            gaps.append(abs(logpdf[0] - logpdf[1]) * (n - i))
    # the scaled gaps stay bounded: fitted constant frozen with slack
    assert np.quantile(gaps, 0.95) < 25.0


def test_paper_literal_first_step_is_tilted_density(std_gauss):
    gen = np.random.default_rng(41)
    v = np.array([0.6])
    n, k = 5, 3
    points, head, _, _ = walk_one(std_gauss, v, n, k, gen, "paper-literal")
    e_head = walk_one(std_gauss, v, n, k, variant="paper-literal", points=points)[1]
    _, tilted_logpdf = rs.tilted_tail_sampler(std_gauss, v)
    first = tilted_logpdf(points[:1])[0]
    assert first == pytest.approx(norm.logpdf(points[0, 0], 0.6, 1.0))
    # later steps centre the steering factor on v, not on the remaining mean
    rest, u_partial = 0.0, np.cumsum(points, axis=0)
    for i in range(1, k):
        mean, var = gaussian_step(std_gauss, v, u_partial[i - 1], i, n, "paper-literal")
        rest += norm.logpdf(points[i, 0], mean[0, 0], math.sqrt(var[0]))
    assert e_head == pytest.approx(first + rest, abs=1e-12)
    assert head == pytest.approx(e_head, abs=1e-12)


def test_tilted_tail_sampler_families(gauss_005, expo, mean_square):
    gen = np.random.default_rng(43)
    draw, logpdf = rs.tilted_tail_sampler(gauss_005, [0.28])
    xs = np.asarray(draw(gen, 20000))
    assert abs(xs.mean() - 0.28) < 0.03
    assert logpdf(np.array([[0.28]])) == pytest.approx(norm.logpdf(0.28, 0.28, 1.0))

    draw, logpdf = rs.tilted_tail_sampler(expo, [2.0])
    xs = np.asarray(draw(gen, 20000))
    assert abs(xs.mean() - 2.0) < 0.06  # exponential with rate 1/2
    assert logpdf(np.array([[1.0]])) == pytest.approx(math.log(0.5) - 0.5)

    draw, _ = rs.tilted_tail_sampler(mean_square, [0.3, 1.2])
    xs = np.asarray(draw(gen, 30000))
    stat = np.asarray(mean_square.statistic(xs))
    assert np.max(np.abs(stat.mean(axis=0) - [0.3, 1.2])) < 0.03


def test_zero_tilt_recovers_base_density(std_gauss):
    t = rs.solve_tilt(std_gauss, [0.0]).t
    assert np.max(np.abs(t)) < 1e-12
    x = np.array([[0.7]])
    assert pathgen.tilted_law(std_gauss, t)[1](x) == pytest.approx(std_gauss.log_density_x(x))


def test_base_sampler_matches_log_density(expo):
    # the base law is the zero-tilt member, the law of naive's k = 0 runs
    _, logpdf = rs.tilted_tail_sampler(expo, rs.mean_map(expo, np.zeros(1)))
    x = np.array([[0.9]])
    assert logpdf(x) == pytest.approx(expo.log_density_x(x))


def test_path_abort_reports_step(expo):
    # an exponential path overshooting the target makes the remaining mean
    # negative, which is unattainable
    gen = np.random.default_rng(47)
    saw_abort = False
    for _ in range(200):
        try:
            walk_one(expo, [0.35], 6, 5, gen)
        except PathAbort as err:
            saw_abort = True
            assert 0 <= err.step <= 5
            break
    assert saw_abort


def test_grid_density_sampling_is_exact():
    xs = np.linspace(-3, 3, 2001)
    log_f = -0.5 * xs**2
    g = GridDensity1D(xs[None], log_f[None])
    gen = np.random.default_rng(53)
    draws = g.draw([gen], 50000)[0][0]
    assert abs(np.mean(draws)) < 0.02
    assert np.var(draws) == pytest.approx(0.973, abs=0.03)  # truncated normal
    total, _ = quad(lambda y: math.exp(g.logpdf([[y]])[0, 0]), -3, 3, limit=200)
    assert total == pytest.approx(1.0, abs=1e-7)


def test_generic_d2_step_rejected():
    # the grid step serves d = 1 models; gaussian-identity ones use gaussian_step
    gaussian = rs.builtin_model("gaussian-mean", mu=0.0, sigma=1.0, d=2)
    generic = dataclasses.replace(gaussian, gauss_identity_params=None)
    for model in (gaussian, generic):
        with pytest.raises(ConfigurationError):
            step_params(model, [0.1, 0.1], 0, [0.0, 0.0], 5)


def test_d2_model_without_gauss_identity_params_is_refused(monkeypatch):
    # a d = 2 model without gauss_identity_params has no engine for head
    # steps: the adaptive scheme's checks, `raresum validate` and every run
    # entry refuse it rather than walk coordinate 0 alone (runs with k = 0
    # serve it: test_d2_model_without_gauss_identity_params_keeps_its_baselines)
    from raresum import config

    generic = dataclasses.replace(rs.builtin_model("gaussian-mean", d=2),
                                  gauss_identity_params=None)
    region = rs.two_sided_region(0.28, 2)
    assert estimate.point_errors(rs.builtin_model("gaussian-mean", d=2), region, 20, 10,
                                 "adaptive") == []
    errors = estimate.point_errors(generic, region, 20, 10, "adaptive")
    assert any("d = 1" in e for e in errors)
    with pytest.raises(ConfigurationError, match="d = 1"):
        rs.adaptive_estimate(generic, region, 20, 10,
                             chain_config=rs.MeanChainConfig(burn_in=10, thinning=1))
    cfg = rs.ExperimentConfig(family="gaussian-mean", model_params={}, d=2,
                              region_two_sided=0.28, region_constraints=None,
                              n=20, L=10, schemes=["adaptive"])
    assert not [d for d in rs.validate_config(cfg) if d.level == "error"]
    monkeypatch.setattr(config, "builtin_model", lambda *a, **kw: generic)
    assert any("d = 1" in d.message for d in rs.validate_config(cfg) if d.level == "error")
    with pytest.raises(ConfigurationError):
        step_params(generic, [0.1, 0.1], 0, [0.0, 0.0], 5)
    with pytest.raises(ConfigurationError):
        walk_one(generic, [0.3, 0.3], 10, 8, np.random.default_rng(1))
    with pytest.raises(ConfigurationError):
        walk_one(generic, [0.3, 0.3], 10, 8, points=np.zeros((10, 2)))


def test_gauss_identity_params_need_identity_statistic(mean_square):
    # the closed-form Gaussian engine reads u as the identity, so s = d
    with pytest.raises(ConfigurationError, match="s = d"):
        dataclasses.replace(mean_square, gauss_identity_params=(np.zeros(2), np.ones(2)))


@pytest.mark.parametrize("family", ["gaussian-mean", "gaussian-mean-and-square"],
                         ids=["gaussian-engine", "grid-engine"])
def test_unknown_variant_and_split_out_of_range_are_refused(family):
    # both engines check the variant and 0 <= k <= n - 1 where their public
    # entries begin, before any run is walked or scored
    model = rs.builtin_model(family)
    v = np.array([0.3] if model.s == 1 else [0.3, 1.2])
    for variant, k in (("bogus", 5), ("uniform-step", 10), ("uniform-step", -1)):
        with pytest.raises(ConfigurationError, match="variant|split index"):
            pathgen.walk_runs(model, v[None], 10, k, variant, rngs=[np.random.default_rng(0)])
        if model.gauss_identity_params is not None:
            with pytest.raises(ConfigurationError, match="variant|split index"):
                mixture_logdensity(model, np.zeros((1, 10, 1)), v[None], 10, k, variant)
    with pytest.raises(ConfigurationError, match="unknown variant"):
        rs.sample_path(model, v, 10, 5, np.random.default_rng(0), variant="bogus")


@pytest.mark.parametrize("family", ["gaussian-mean", "gaussian-mean-and-square"],
                         ids=["gaussian-engine", "grid-engine"])
def test_walk_runs_refuses_too_few_generators_and_misshapen_input(family):
    # three runs to draw with one or two generators: the Gaussian engine
    # once returned the others from uninitialised normals, with finite
    # densities, and the grid engine raised IndexError.  A generator
    # expression, as the estimators pass, is counted as it is consumed
    model = rs.builtin_model(family)
    v = [0.3] if model.s == 1 else [0.3, 1.2]
    V = np.tile(v, (3, 1))
    for rngs in ([np.random.default_rng(0)], (np.random.default_rng(l) for l in range(2))):
        with pytest.raises(ConfigurationError, match="generators"):
            pathgen.walk_runs(model, V, 10, 5, rngs=rngs)
    if model.gauss_identity_params is not None:
        with pytest.raises(ConfigurationError, match="generators"):
            pathgen.draw_gaussian_runs(model, V, 10, 5, "uniform-step",
                                       (np.random.default_rng(l) for l in range(2)))
    # conditioning points not (R, s), given points not (R, n, d)
    for bad in (np.array(v), np.tile(v + [0.0], (3, 1))):
        with pytest.raises(ConfigurationError, match="conditioning points"):
            pathgen.walk_runs(model, bad, 10, 5, rngs=[np.random.default_rng(0)] * 3)
    for shape in ((3, 9, 1), (2, 10, 1), (10, 1)):
        with pytest.raises(ConfigurationError, match="points must be"):
            pathgen.walk_runs(model, V, 10, 5, points=np.zeros(shape))


def test_grid_tail_takes_no_third_cumulants(mean_square):
    calls = []

    def third_fn(t):
        calls.append(np.shape(t))
        return mean_square.third_fn(t)

    spy = dataclasses.replace(mean_square, third_fn=third_fn)
    V = np.array([[0.3, 1.2], [0.25, 1.1], [0.3, 1.2], [0.5, 0.2]])  # the last unattainable
    drawn = pathgen.walk_runs(spy, V, 30, 0, rngs=[np.random.default_rng(s) for s in range(4)])
    scored = pathgen.walk_runs(spy, V, 30, 0, points=drawn[0])
    assert not calls
    reference = pathgen.walk_runs(mean_square, V, 30, 0,
                                  rngs=[np.random.default_rng(s) for s in range(4)])
    for a, b, c in zip(drawn[:4], scored[:4], reference[:4]):
        assert np.array_equal(a, c, equal_nan=True) and np.array_equal(b, c, equal_nan=True)
    assert [repr(e) for e in drawn[4]] == [repr(e) for e in reference[4]]
    assert drawn[4][:3] == [None] * 3 and isinstance(drawn[4][3], PathAbort)


@pytest.mark.parametrize("variant", ["uniform-step", "paper-literal"])
def test_gaussian_path_solves_no_tilt(std_gauss, monkeypatch, variant):
    def forbidden(*args, **kwargs):
        raise AssertionError("gaussian-identity runs need no tilt solve")

    monkeypatch.setattr(pathgen, "solve_tilt", forbidden)
    monkeypatch.setattr(pathgen, "step_params", forbidden)
    gen = np.random.default_rng(59)
    _, head, tail, _ = walk_one(std_gauss, [0.4], 12, 9, gen, variant)
    assert math.isfinite(head + tail)


def test_gaussian_head_exact_with_unequal_sigma():
    # coordinates are independent, so the head law is the product of the
    # per-coordinate exact conditionals
    sigma = np.array([0.5, 1.0, 2.0])
    model = rs.builtin_model("gaussian-mean", mu=0.1, sigma=sigma, d=3)
    n, k = 10, 7
    v = np.array([0.3, -0.2, 0.5])
    gen = np.random.default_rng(61)
    for _ in range(10):
        points, head, _, _ = walk_one(model, v, n, k, gen)
        oracle = sum(exact_conditional_head(n, k, v[j], sigma[j]).logpdf(points[:k, j])
                     for j in range(3))
        assert head == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("variant", ["uniform-step", "paper-literal"])
def test_gaussian_draws_follow_recorded_law(variant):
    # head steps and tail points, standardized by the law the density
    # routine records, are standard normals in each coordinate
    sigma = np.array([0.5, 1.0, 2.0])
    model = rs.builtin_model("gaussian-mean", mu=0.1, sigma=sigma, d=3)
    n, k = 10, 7
    v = np.array([0.3, -0.2, 0.5])
    gen = np.random.default_rng(71)
    head, tail = [], []
    for _ in range(1000):
        points = walk_one(model, v, n, k, gen, variant)[0]
        u = np.vstack([np.zeros(3), np.cumsum(points, axis=0)])
        for i in range(k):
            mean, var = gaussian_step(model, v, u[i], i, n, variant)
            head.append((points[i] - mean[0]) / np.sqrt(var))
        tail.extend((points[k:] - (n / (n - k)) * (v - u[k] / n)) / sigma)
    for z in (np.asarray(head), np.asarray(tail)):
        assert np.all(np.abs(z.mean(axis=0)) < 5 / math.sqrt(len(z)))
        assert np.all(np.abs(z.var(axis=0) - 1.0) < 5 * math.sqrt(2 / len(z)))


@pytest.mark.parametrize("variant", ["uniform-step", "paper-literal"])
@pytest.mark.parametrize("d,sigma,n,k,two_sided", [
    (1, 1.0, 12, 8, False),
    (3, (0.5, 1.0, 2.0), 12, 8, False),
    (5, 1.0, 100, 75, True),  # configs/fig1.cfg at d = 5
], ids=["d1", "d3", "fig1-d5"])
def test_mixture_logdensity_is_log_mean_of_path_densities(variant, d, sigma, n, k, two_sided):
    model = rs.builtin_model("gaussian-mean", mu=0.05, sigma=sigma, d=d)
    gen = np.random.default_rng(67)
    vs = 0.3 + 0.2 * gen.standard_normal((5, d))
    if two_sided:
        size = 0.28 + 0.1 * np.abs(gen.standard_normal((8, d)))
        vs = gen.choice([-1.0, 1.0], size=(8, d)) * size
        assert np.any(vs < 0) and np.any(vs > 0)
    for v in vs:
        points, head, tail, _ = walk_one(model, v, n, k, gen, variant)
        per_v = np.array([sum(walk_one(model, w, n, k, variant=variant, points=points)[1:3])
                          for w in vs])
        single = mixture_logdensity(model, points[None], v[None, :], n, k, variant)
        assert single[0] == pytest.approx(head + tail, rel=1e-12, abs=1e-12)
        expected = logsumexp(per_v) - math.log(len(vs))
        mixed = mixture_logdensity(model, points[None], vs, n, k, variant)
        assert mixed[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def drawn_step_by_step(model, v, n, k, rng, variant):
    """Reference drawer: one rng.normal call per head step, then the tail."""
    points, u = np.empty((n, model.d)), np.zeros(model.s)
    for i in range(k):
        mean, var = gaussian_step(model, v, u, i, n, variant)
        points[i] = rng.normal(mean[0], np.sqrt(var))
        u = u + points[i]
    points[k:] = rng.normal((n / (n - k)) * (v - u / n),
                            np.sqrt(model.gauss_identity_params[1]), size=(n - k, model.s))
    return points


@pytest.mark.parametrize("variant", ["uniform-step", "paper-literal"])
@pytest.mark.parametrize("d,sigma", [(1, 1.0), (3, (0.5, 1.0, 2.0))], ids=["d1", "d3"])
def test_batched_gaussian_runs_equal_single_runs(variant, d, sigma):
    # the batched drawer and densities give every run exactly the numbers
    # the one-run functions give it, whatever block the run falls in, and
    # the draws are those of rng.normal called step by step
    model = rs.builtin_model("gaussian-mean", mu=0.05, sigma=sigma, d=d)
    n, k, L, seed = 40, 20, 200, 59
    vs = 0.3 + 0.2 * np.random.default_rng(61).standard_normal((L, d))
    z = np.stack([replicate_rng(seed, l).standard_normal((n, d)) for l in range(L)])
    runs = pathgen._draw_gaussian_points(model, vs, z, n, k, variant)
    head, tail, _, _ = pathgen._gaussian_quadratic(model, runs, vs, n, k, variant)
    mixed = mixture_logdensity(model, runs, vs, n, k, variant)
    # the runs span several blocks of the mixture's (runs x points) matrix
    assert len(pathgen._blocks(L, L)) >= 2
    for l in range(L):
        points, one_head, one_tail, _ = walk_one(model, vs[l], n, k, replicate_rng(seed, l),
                                                 variant)
        assert np.array_equal(runs[l], points)
        reference = drawn_step_by_step(model, vs[l], n, k, replicate_rng(seed, l), variant)
        assert np.array_equal(runs[l], reference)
        assert head[l] + tail[l] == one_head + one_tail
        _, e_head, e_tail, _ = walk_one(model, vs[l], n, k, variant=variant, points=runs[l])
        assert e_head + e_tail == one_head + one_tail
        assert mixed[l] == mixture_logdensity(model, runs[l:l + 1], vs, n, k, variant)[0]


@pytest.mark.parametrize("variant", ["uniform-step", "paper-literal"])
@pytest.mark.parametrize("d", [1, 5])
@pytest.mark.parametrize("k", [0, 1, 75, 99])
def test_gaussian_quadratic_equals_step_by_step_reference(variant, d, k):
    # the one-pass quadratic has the bits of a loop over the head steps with
    # gaussian_step, at each run's own point (paired) and at one point for
    # all runs (the mixture's centre)
    model = rs.builtin_model("gaussian-mean", mu=0.05, sigma=np.linspace(0.5, 2.0, d), d=d)
    n, H = 100, 23
    gen = np.random.default_rng(89)
    vs = gen.choice([-1.0, 1.0], size=(H, d)) * (0.28 + 0.1 * np.abs(gen.standard_normal((H, d))))
    runs = pathgen._draw_gaussian_points(model, vs, gen.standard_normal((H, n, d)), n, k, variant)
    for V0 in (vs, np.mean(vs, axis=0)):
        got = pathgen._gaussian_quadratic(model, runs, V0, n, k, variant)
        want = gaussian_quadratic_by_steps(model, runs, V0, n, k, variant)
        for a, b in zip(got, want):
            assert np.shape(a) == np.shape(b) and np.array_equal(a, b)


GRID_CASES = [("exponential-mean", [0.8, 2.0], [-0.5]),
              ("gaussian-mean-and-square", [0.1, 0.5], [0.5, 0.2])]


@pytest.mark.parametrize("newton", [False, True], ids=["closed-form", "newton"])
@pytest.mark.parametrize("variant", ["uniform-step", "paper-literal"])
@pytest.mark.parametrize("family,lo_hi,unattainable", GRID_CASES, ids=["expo", "mean-square"])
def test_grid_walker_stack_equals_batches_of_one(family, lo_hi, unattainable, variant, newton):
    # a stack of runs gives every run, aborted or not, the bits that run
    # gets alone, drawn and evaluated, with closed-form and Newton tilts
    model = rs.builtin_model(family)
    if newton:
        model = dataclasses.replace(model, tilt_fn=None)
    n, k, R = 16, 12, 9
    V = grid_targets(family, lo_hi, R, np.random.default_rng(83))
    V[4] = unattainable  # aborts at step 0
    seeds = range(500, 500 + R)
    points, head, tail, log_p, aborts = pathgen._grid_paths(
        model, V, n, k, variant, rngs=[np.random.default_rng(s) for s in seeds])
    assert aborts[4] is not None and aborts[4].step == 0
    # a head that overshoots the target aborts run 6 mid-way when evaluated
    given = points.copy()
    given[6, :5] = 20.0
    e_points, e_head, e_tail, e_log_p, e_aborts = pathgen._grid_paths(
        model, V, n, k, variant, points=given)
    assert e_aborts[6] is not None and 0 < e_aborts[6].step < k
    for j, s in enumerate(seeds):
        one = pathgen._grid_paths(model, V[j:j + 1], n, k, variant,
                                  rngs=[np.random.default_rng(s)])
        one_eval = pathgen._grid_paths(model, V[j:j + 1], n, k, variant,
                                       points=given[j:j + 1])
        for stacked, alone in (((points, head, tail, log_p, aborts), one),
                               ((e_points, e_head, e_tail, e_log_p, e_aborts), one_eval)):
            step = None if stacked[4][j] is None else stacked[4][j].step
            assert step == (None if alone[4][0] is None else alone[4][0].step)
            if step is None:
                assert np.array_equal(stacked[0][j], alone[0][0])
                for a, b in zip(stacked[1:4], alone[1:4]):
                    assert a[j] == b[0]
            else:
                assert all(math.isnan(a[j]) for a in stacked[1:4])
        if aborts[j] is None:
            one_points, one_head, one_tail, _ = walk_one(model, V[j], n, k,
                                                         np.random.default_rng(s), variant)
            assert np.array_equal(one_points, points[j])
            assert (one_head, one_tail) == (head[j], tail[j])
        else:
            with pytest.raises(PathAbort) as err:
                walk_one(model, V[j], n, k, np.random.default_rng(s), variant)
            assert err.value.step == aborts[j].step
    assert sum(a is None for a in aborts) > R // 2


@pytest.mark.parametrize("variant", ["uniform-step", "paper-literal"])
def test_grid_stack_size_does_not_change_runs(variant):
    # the estimator walks an L = 30 estimate's mean-square runs as one stack;
    # 8-run blocks and batches of one give every run the same bits, drawn and
    # evaluated, aborted or not
    model = rs.builtin_model("gaussian-mean-and-square")
    n, k, L = 30, 25, 30
    V = grid_targets("gaussian-mean-and-square", [0.1, 0.5], L, np.random.default_rng(103))
    V[11] = [0.5, 0.2]  # unattainable: aborts at step 0
    # one stack: walk_runs walks all L runs together
    assert len(pathgen._blocks(L, pathgen._grid_row_elements(model),
                               pathgen._GRID_STACK_ELEMENTS)) == 1
    runs, head, tail, _, _ = pathgen.walk_runs(model, V, n, k, variant,
                                               rngs=[replicate_rng(7, l) for l in range(L)])
    log_g = head + tail

    def walk(size, points=None):
        parts = [pathgen._grid_paths(model, V[b], n, k, variant,
                                     rngs=[replicate_rng(7, l) for l in range(L)[b]],
                                     points=None if points is None else points[b])
                 for b in (slice(a, a + size) for a in range(0, L, size))]
        arrays = [np.concatenate(part) for part in list(zip(*parts))[:4]]
        steps = [None if a is None else a.step for part in parts for a in part[4]]
        return arrays, steps

    (points, *dens), steps = walk(L)
    assert steps[11] == 0
    assert np.array_equal(runs, points)
    assert np.array_equal(log_g, dens[0] + dens[1], equal_nan=True)
    given = points.copy()
    given[6, :5] = 20.0  # a head that overshoots: aborts run 6 mid-way when evaluated
    (_, *e_dens), e_steps = walk(L, given)
    assert 0 < e_steps[6] < k
    for size in (8, 1):
        (p_b, *dens_b), steps_b = walk(size)
        assert np.array_equal(p_b, points) and steps_b == steps
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(dens_b, dens))
        (_, *e_dens_b), e_steps_b = walk(size, given)
        assert e_steps_b == e_steps
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(e_dens_b, e_dens))


def test_grid_stack_working_set_per_run():
    # a 30-run mean-square stack peaks at about 69 kB per run, its buffers
    # (cell widths included) kept for the whole walk and its steps tabulated
    # from their polynomial (103 kB when they come from the statistic and
    # its whitened copy);
    # L = 600 still walks in bounded stacks, of 65 runs
    model = rs.builtin_model("gaussian-mean-and-square")
    L = 30
    V = grid_targets("gaussian-mean-and-square", [0.1, 0.5], L, np.random.default_rng(107))
    rngs = [replicate_rng(7, l) for l in range(L)]
    tracemalloc.start()
    try:
        _, _, _, _, aborts = pathgen._grid_paths(model, V, 100, 90, "uniform-step", rngs=rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(a is None for a in aborts) > L // 2
    assert peak / L < 0.08e6
    stacks = pathgen._blocks(600, pathgen._grid_row_elements(model),
                             pathgen._GRID_STACK_ELEMENTS)
    assert len(stacks) > 1 and all(b.stop - b.start <= 72 for b in stacks)


def test_exponential_stack_working_set_per_run():
    # exponential-mean steps peak at the y = 0 edge, and are tabulated on
    # the same knot count as every other grid step, in the stack's buffers
    # (68 kB per run; 643 kB when they refined to 16,001 points, all rows at
    # once)
    model = rs.builtin_model("exponential-mean")
    L = 30
    rngs = [replicate_rng(7, l) for l in range(L)]
    tracemalloc.start()
    try:
        _, _, _, _, aborts = pathgen._grid_paths(model, np.full((L, 1), 1.6), 100, 90,
                                                 "uniform-step", rngs=rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(a is None for a in aborts)
    assert peak / L < 0.075e6


@pytest.mark.parametrize("family", ["gaussian-mean", "exponential-mean",
                                    "gaussian-mean-and-square"])
def test_stacked_builtin_callables_equal_rowwise(family):
    model = rs.builtin_model(family)
    gen = np.random.default_rng(89)
    if family == "gaussian-mean-and-square":
        m1 = gen.uniform(-1.0, 1.0, 12)
        A = np.stack([m1, m1 * m1 + gen.uniform(0.1, 2.0, 12)], axis=-1)
        A[3] = [0.5, 0.2]  # no variance left: unattainable
    else:
        A = gen.uniform(0.1, 3.0, (12, model.s))
        A[3] = -0.5  # unattainable for exponential-mean
    T = model.tilt_fn(A)
    rows = np.array([model.tilt_fn(a) for a in A])
    assert np.array_equal(T, rows, equal_nan=True)
    assert np.any(np.isnan(T)) == (family != "gaussian-mean")  # NaN marks unattainable
    attainable = ~np.any(np.isnan(T), axis=1)
    masked = moments(model, T, attainable)
    T = T[attainable]
    for fn in (model.mean_fn, model.cov_fn, model.third_fn):
        assert np.array_equal(fn(T), np.array([fn(t) for t in T]))
    # model.moments: a stack equals its batches of one, and a masked stack
    # is NaN in the rows left out
    rows = [moments(model, T[j:j + 1]) for j in range(len(T))]
    for which, stacked in enumerate(moments(model, T)):
        assert np.array_equal(stacked, np.concatenate([r[which] for r in rows]))
        assert np.array_equal(masked[which][attainable], stacked)
        assert np.all(np.isnan(masked[which][~attainable]))
    batch = rs.solve_tilts(model, A)
    for j, alpha in enumerate(A):
        if batch.errors[j] is None:
            sol = rs.solve_tilt(model, alpha)
            assert np.array_equal(sol.t, batch.t[j])
            assert np.array_equal(sol.covariance, batch.covariance[j])
            assert np.array_equal(sol.third, batch.third[j])
        else:
            with pytest.raises(type(batch.errors[j]), match=str(batch.errors[j])):
                rs.solve_tilt(model, alpha)


def test_grid_density_stack_equals_rows():
    gen = np.random.default_rng(97)
    R, G = 6, 401
    x = np.sort(gen.uniform(-3.0, 3.0, (R, 1)), axis=0) + np.linspace(0.0, 2.0, G)
    log_f = -0.5 * (x - gen.uniform(-1.0, 1.0, (R, 1))) ** 2 + 0.1 * np.sin(5.0 * x)
    stack = GridDensity1D(x, log_f)
    rows = [GridDensity1D(x[j:j + 1], log_f[j:j + 1]) for j in range(R)]
    draws, drawn_dens = stack.draw([np.random.default_rng(j) for j in range(R)], size=3)
    assert draws.shape == drawn_dens.shape == (R, 3)
    probe = x[:, :1] + np.array([[-0.1], [0.0], [0.3], [1.7], [2.0], [2.5]])  # two outside
    dens = stack.logpdf(probe)
    # a draw's log-density, read in the cell the draw was found in, is the
    # one logpdf finds by searching
    np.testing.assert_allclose(drawn_dens, stack.logpdf(draws), rtol=1e-14, atol=0.0)
    for j, row in enumerate(rows):
        alone, alone_dens = row.draw([np.random.default_rng(j)], size=3)
        assert np.array_equal(draws[j], alone[0]) and np.array_equal(drawn_dens[j], alone_dens[0])
        assert dens[j] == row.logpdf(probe[j:j + 1])[0]
        assert stack.log_integral[j] == row.log_integral[0]
    assert np.isneginf(dens[0]) and np.isneginf(dens[5])


class _Levels:
    """A stand-in generator whose random(size) returns the given levels."""

    def __init__(self, r):
        self.r = np.asarray(r, dtype=float)

    def random(self, size=None):
        return self.r[:size]


def full_cumsum_inverse(x, log_f, r):
    """Inverse CDF at the levels r of the piecewise-linear density through
    exp(log_f) at the knots x, from its full normalized cumulative sum."""
    f = np.exp(log_f - np.max(log_f))
    mass = 0.5 * (f[:-1] + f[1:]) * np.diff(x)
    total = np.sum(mass)
    cdf = np.concatenate([[0.0], np.cumsum(mass / total)])
    cdf[-1] = 1.0
    idx = np.clip(np.searchsorted(cdf, r, side="right") - 1, 0, len(x) - 2)
    a, b = f[idx] / total, f[idx + 1] / total
    h = x[idx + 1] - x[idx]
    resid = r - cdf[idx]
    slope = (b - a) / h
    disc = np.sqrt(np.maximum(a * a + 2.0 * slope * resid, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = np.where(np.abs(slope) * h > 1e-12 * (a + b),
                      np.where(a + disc > 0, 2.0 * resid / (a + disc), 0.0),
                      np.where(a > 0, resid / np.where(a > 0, a, 1.0), 0.0))
    return x[idx] + np.clip(xi, 0.0, h)


@pytest.mark.parametrize("points", [401, 1001, 16001])
@pytest.mark.parametrize("tails", ["open", "underflowing"])
def test_block_search_equals_full_cumsum_inverse(points, tails):
    # the two-level search (block ends, then a cumulative sum within one
    # block) draws the points the full normalized CDF gives, to rounding:
    # cell counts that are no multiple of the block, blocks of zero mass in
    # underflowing tails, levels on block ends, and 0 and 1 - 2^-53.  Levels
    # within 1e-6 of 1 are left out where the density underflows: there a
    # rounding of the total moves x by far more than 1e-12
    assert (points - 1) % pathgen._SAMPLER_BLOCK
    x = np.linspace(1.0, 7.0, points)
    if tails == "open":
        log_f = -0.5 * ((x - 4.0) / 1.5) ** 2 + 0.2 * np.sin(3.0 * x)
        extremes = [0.0, 1.0 - 2.0**-53]
    else:  # exp(log_f) is exactly 0 beyond 0.77 of 3.2
        log_f = -0.5 * ((x - 3.2) / 0.02) ** 2
        assert np.exp(log_f[0]) == 0.0 and np.exp(log_f[-1]) == 0.0
        extremes = [0.0]
    g = GridDensity1D(x[None], log_f[None])
    blocks = np.diff(np.concatenate([[0.0], g._ends[0]]))
    if tails == "underflowing":
        assert blocks[0] == 0.0 and blocks[-1] == 0.0
    ends = g._ends[0, :-1] / g._ends[0, -1]
    r = np.concatenate([np.random.default_rng(points).random(2000),
                        ends[(ends > 1e-6) & (ends < 1.0 - 1e-6)], extremes])
    drawn = g.draw([_Levels(r)], size=len(r))[0][0]
    assert np.all(np.isfinite(drawn))
    np.testing.assert_allclose(drawn, full_cumsum_inverse(x, log_f, r), rtol=1e-12, atol=0.0)
    assert np.all(np.isfinite(g.logpdf(drawn[None, r > 0.0])))  # no draw in a cell of zero mass


def test_linspace_rows_equals_numpy():
    # the grid walker lays its grids out row by row; each row must hold the
    # bits np.linspace gives that row's window alone
    gen = np.random.default_rng(101)
    lo = np.concatenate([gen.uniform(-40.0, 5.0, 499), [0.0]])
    hi = lo + np.concatenate([gen.uniform(1e-3, 80.0, 499), [5e-324]])  # a step that underflows
    for num in (1001, 2001):
        rows = pathgen._linspace_rows(lo, hi, num)
        for j in range(len(lo)):
            assert np.array_equal(rows[j], np.linspace(lo[j], hi[j], num))
