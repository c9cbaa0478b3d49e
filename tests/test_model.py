import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

import raresum as rs
from raresum.errors import ConfigurationError, DomainError
from raresum.model import _fd_gradient, _fd_hessian, _fd_third_contracted, cholesky_rows


ALL_FAMILIES = [
    ("gaussian-mean", dict(mu=0.05, sigma=1.0, d=1)),
    ("gaussian-mean", dict(mu=0.0, sigma=1.0, d=3)),
    ("exponential-mean", dict(rate=1.0)),
    ("gaussian-mean-and-square", dict(mu=0.0, sigma=1.0)),
]


def _random_interior_tilt(model, rng):
    # stay well inside the domain so finite differences have room
    lo = np.where(np.isfinite(model.cumulant_domain.lower),
                  model.cumulant_domain.lower, -1.5)
    hi = np.where(np.isfinite(model.cumulant_domain.upper),
                  model.cumulant_domain.upper, 1.5)
    span = hi - lo
    while True:
        t = lo + span * (0.2 + 0.6 * rng.random(model.s))
        if model.cumulant_domain.contains(t, margin=True):
            return t


@pytest.mark.parametrize("name,params", ALL_FAMILIES)
def test_cumulant_zero_at_origin(name, params):
    model = rs.builtin_model(name, **params)
    assert model.cumulant(np.zeros(model.s)) == pytest.approx(0.0, abs=1e-14)


def test_gaussian_mean_examples(gauss_005):
    assert rs.mean_map(gauss_005, [0.0]) == pytest.approx([0.05])
    assert rs.mean_map(gauss_005, [0.23]) == pytest.approx([0.28])
    assert gauss_005.cumulant(np.array([0.23])) == pytest.approx(0.05 * 0.23 + 0.23**2 / 2)


def test_standard_gaussian_d3():
    model = rs.builtin_model("gaussian-mean", mu=0.0, sigma=1.0, d=3)
    t = np.array([0.3, -0.2, 0.7])
    assert model.cumulant(t) == pytest.approx(0.5 * float(t @ t))


def test_exponential_examples(expo):
    assert rs.mean_map(expo, [0.5]) == pytest.approx([2.0])
    loc = rs.local_cumulants(expo, [0.0])
    assert loc.covariance[0, 0] == pytest.approx(1.0)
    assert loc.third[0] == pytest.approx(2.0)


def test_gaussian_local_cumulants(std_gauss):
    loc = rs.local_cumulants(std_gauss, [0.7])
    assert loc.covariance[0, 0] == pytest.approx(1.0)
    assert loc.third[0] == 0.0


def test_mean_square_cumulants_at_zero(mean_square):
    loc = rs.local_cumulants(mean_square, [0.0, 0.0])
    assert loc.mean == pytest.approx([0.0, 1.0])
    assert loc.covariance == pytest.approx(np.array([[1.0, 0.0], [0.0, 2.0]]))
    # contracted third cumulants of (X, X^2) for standard normal X: (0, 2+8)
    assert loc.third == pytest.approx([0.0, 10.0], abs=1e-12)


def test_mean_square_domain_requires_t2_below_half(mean_square):
    with pytest.raises(DomainError) as err:
        rs.mean_map(mean_square, [0.0, 0.5])
    assert err.value.coord == 1


def _domain_probes(dom):
    """Every combination of per-coordinate values: 0, +-inf, NaN, and each
    finite bound and inner bound with the floats on either side of it."""
    columns = []
    for j in range(dom.s):
        column = [0.0, math.inf, -math.inf, math.nan]
        for b in (dom.lower[j], dom.upper[j], dom.inner[0][j], dom.inner[1][j]):
            if math.isfinite(b):
                column += [float(b), math.nextafter(b, math.inf), math.nextafter(b, -math.inf)]
        columns.append(column)
    return np.array(list(itertools.product(*columns)))


def _in_box_only(t):
    assert np.all(np.isfinite(t)), "predicate called on a row outside the box"
    return t[0] + t[1] < 0.25


@pytest.mark.parametrize("domain", [
    rs.builtin_model("gaussian-mean", d=2).cumulant_domain,
    rs.builtin_model("exponential-mean", rate=1.5).cumulant_domain,
    rs.builtin_model("gaussian-mean-and-square", sigma=1.0).cumulant_domain,
    rs.builtin_model("gaussian-mean-and-square", sigma=0.7).cumulant_domain,
    rs.CumulantDomain(np.array([-1.0, -np.inf]), np.array([2.0, 0.5]), _in_box_only),
], ids=["gaussian-d2", "exponential", "mean-square", "mean-square-0.7", "joint-predicate"])
def test_domain_rows_test_equals_row_test(domain):
    # the stacked test is the one domain test: contains is it on one row, and
    # both read the open box (or the inner box), then the predicate
    T = _domain_probes(domain)
    for margin in (False, True):
        lo, hi = domain.inner if margin else (domain.lower, domain.upper)
        stacked = domain.contains_rows(T, margin)
        assert stacked.dtype == bool and stacked.shape == (len(T),)
        assert stacked.tolist() == [domain.contains(t, margin) for t in T]
        expected = [all(a < x < b for a, b, x in zip(lo.tolist(), hi.tolist(), t.tolist()))
                    and (domain.predicate is None or bool(domain.predicate(t))) for t in T]
        assert stacked.tolist() == expected
        assert 0 < sum(expected) < len(T)
    # the mean-square predicate's edge, tau = 1 - 2 sigma^2 t2 > 0, is the box's
    if domain.predicate not in (None, _in_box_only):
        edge = domain.upper[1]
        for t2 in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
            assert domain.contains([0.0, t2]) == (t2 < edge)


def test_domain_error_names_nan_coordinate(expo, mean_square):
    # a NaN tilt lies outside every box; the error names its coordinate
    with pytest.raises(DomainError) as err:
        rs.local_cumulants(mean_square, [0.0, math.nan])
    assert err.value.coord == 1
    assert not expo.cumulant_domain.contains([math.nan], margin=True)


def test_exponential_domain_error_carries_coordinate(expo):
    with pytest.raises(DomainError) as err:
        rs.mean_map(expo, [1.0])
    assert err.value.coord == 0


def test_builtin_rejects_bad_params():
    with pytest.raises(ConfigurationError):
        rs.builtin_model("gaussian-mean", mu=0.0, sigma=-1.0, d=1)
    with pytest.raises(ConfigurationError):
        rs.builtin_model("exponential-mean", rate=0.0)
    with pytest.raises(ConfigurationError):
        rs.builtin_model("no-such-family")
    with pytest.raises(ConfigurationError):
        rs.builtin_model("exponential-mean", rate=1.0, bogus=2)
    for name, params in [("gaussian-mean", dict(sigma=math.nan)),
                         ("gaussian-mean", dict(sigma=math.inf)),
                         ("gaussian-mean", dict(mu=math.nan, d=2)),
                         ("exponential-mean", dict(rate=math.nan)),
                         ("exponential-mean", dict(rate=math.inf)),
                         ("gaussian-mean-and-square", dict(mu=math.nan)),
                         ("gaussian-mean-and-square", dict(sigma=math.inf))]:
        with pytest.raises(ConfigurationError):
            rs.builtin_model(name, **params)


@pytest.mark.parametrize("name,params", ALL_FAMILIES)
def test_analytic_cumulants_match_finite_differences(name, params):
    model = rs.builtin_model(name, **params)
    gen = np.random.default_rng(7)
    for _ in range(10):
        t = _random_interior_tilt(model, gen)
        m = rs.mean_map(model, t)
        cov = rs.local_cumulants(model, t).covariance
        fd_m = _fd_gradient(model, t)
        fd_cov = _fd_hessian(model, t)
        np.testing.assert_allclose(m, fd_m, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(cov, fd_cov, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(model.third_fn(t), _fd_third_contracted(model, t),
                                   rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("name,params", [
    ("gaussian-mean", dict(mu=0.05, sigma=1.0, d=1)),
    ("exponential-mean", dict(rate=1.0)),
    ("gaussian-mean-and-square", dict(mu=0.0, sigma=1.0)),
])
def test_tilted_density_normalizes(name, params):
    model = rs.builtin_model(name, **params)
    gen = np.random.default_rng(11)
    for _ in range(5):
        t = _random_interior_tilt(model, gen)
        log_phi = model.cumulant(t)

        def dens(x):
            y = np.array([[x]])
            return math.exp(float(model.statistic(y)[0] @ t) - log_phi
                            + float(model.log_density_x(y)[0]))

        lo, hi = (0, 80) if name == "exponential-mean" else (-30, 30)
        total, _ = quad(dens, lo, hi, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name", ["gaussian-mean", "exponential-mean",
                                  "gaussian-mean-and-square"])
def test_point_callables_take_stacks_only(name):
    # a d = 1 built-in reads points as a stack (m, 1); a bare (m,) array, a
    # single point (1,) and a scalar are refused, not guessed at
    model = rs.builtin_model(name)
    tilted_logpdf = model.tilted_family(np.zeros(model.s))[1]
    stack = np.array([[0.5], [1.0], [1.5]])
    assert model.log_density_x(stack).shape == (3,)
    assert model.statistic(stack).shape == (3, model.s)
    assert tilted_logpdf(stack).shape == (3,)
    for fn in (model.log_density_x, model.statistic, tilted_logpdf):
        for bad in (stack[:, 0], np.array([0.5]), 0.5, stack[None]):
            with pytest.raises(ConfigurationError, match="stack"):
                fn(bad)


@pytest.mark.parametrize("name,params", ALL_FAMILIES)
def test_cumulant_convexity(name, params):
    model = rs.builtin_model(name, **params)
    gen = np.random.default_rng(3)
    for _ in range(100):
        t1 = _random_interior_tilt(model, gen)
        t2 = _random_interior_tilt(model, gen)
        lam = gen.random()
        mid = lam * t1 + (1 - lam) * t2
        if not model.cumulant_domain.contains(mid, margin=True):
            continue
        lhs = model.cumulant(mid)
        rhs = lam * model.cumulant(t1) + (1 - lam) * model.cumulant(t2)
        assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("name,params", ALL_FAMILIES)
def test_mean_at_zero_matches_monte_carlo(name, params):
    model = rs.builtin_model(name, **params)
    draw, _ = rs.tilted_tail_sampler(model, rs.mean_map(model, np.zeros(model.s)))
    gen = np.random.default_rng(5)
    pts = np.atleast_2d(np.asarray(draw(gen, 40000), dtype=float))
    stats = np.atleast_2d(np.asarray(model.statistic(pts), dtype=float))
    emp = stats.mean(axis=0)
    se = stats.std(axis=0, ddof=1) / math.sqrt(len(stats))
    m0 = rs.mean_map(model, np.zeros(model.s))
    assert np.all(np.abs(emp - m0) < 4 * se)


@pytest.mark.parametrize("name,params", ALL_FAMILIES)
def test_covariance_symmetric_positive_definite(name, params):
    model = rs.builtin_model(name, **params)
    gen = np.random.default_rng(13)
    for _ in range(10):
        t = _random_interior_tilt(model, gen)
        cov = rs.local_cumulants(model, t).covariance
        np.testing.assert_allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_cholesky_rows_falls_back_to_one_matrix_at_a_time():
    # numpy's stacked Cholesky raises for the whole stack when one matrix is
    # not positive definite; each matrix is then factored alone, and a NaN
    # matrix, which LAPACK factors without complaint, is flagged too
    pd = np.array([[2.0, 0.3], [0.3, 1.0]])
    chol, ok = cholesky_rows(np.stack([pd, -pd, np.full((2, 2), np.nan)]))
    assert ok.tolist() == [True, False, False]
    assert np.array_equal(chol[0], np.linalg.cholesky(pd))
