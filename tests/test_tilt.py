import dataclasses
import math

import numpy as np
import pytest

import raresum as rs
from raresum.errors import BaselineUnavailable, NumericError, SteepnessError
from raresum.model import moments
from raresum.region import Interval, IntervalUnion


def test_solve_tilt_gaussian(gauss_005):
    sol = rs.solve_tilt(gauss_005, [0.28])
    assert sol.t == pytest.approx([0.23], abs=1e-10)
    assert sol.residual <= 1e-9


def test_solve_tilt_exponential(expo):
    sol = rs.solve_tilt(expo, [2.0])
    assert sol.t == pytest.approx([0.5], abs=1e-10)


def test_solve_tilt_identity_d2():
    model = rs.builtin_model("gaussian-mean", mu=0.0, sigma=1.0, d=2)
    sol = rs.solve_tilt(model, [0.28, 0.28])
    assert sol.t == pytest.approx([0.28, 0.28], abs=1e-12)


def test_solve_tilt_mean_square_closed_form(mean_square):
    # target (m1, m2) maps back to t via the tilted-normal parametrization
    target = np.array([0.3, 1.5])
    var = target[1] - target[0] ** 2
    tau = 1.0 / var
    expected = np.array([target[0] * tau, (1.0 - tau) / 2.0])
    sol = rs.solve_tilt(mean_square, target)
    assert sol.t == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("family", ["exponential-mean", "gaussian-mean-and-square"])
def test_residual_is_kappa_inverse_norm(family):
    # with tilts 0.1 % off, every row's residual is |m(t) - target| in the
    # kappa^{-1} norm, and the rows past MAX_RESIDUAL fail
    model = rs.builtin_model(family)
    off = dataclasses.replace(model, tilt_fn=lambda a, f=model.tilt_fn: f(a) * 1.001)
    gen = np.random.default_rng(17)
    if model.s == 1:
        A = gen.uniform(0.2, 5.0, (40, 1))
    else:
        m1 = gen.uniform(-2.0, 2.0, 40)
        A = np.stack([m1, m1 * m1 + gen.uniform(0.05, 3.0, 40)], axis=-1)
    batch = rs.solve_tilts(off, A)
    for j, alpha in enumerate(A):
        r = batch.mean[j] - alpha
        expected = math.sqrt(r @ np.linalg.solve(batch.covariance[j], r))
        assert batch.residual[j] == pytest.approx(expected, rel=1e-9)
        assert (batch.errors[j] is None) == (expected <= rs.tilt.MAX_RESIDUAL)
        one = rs.solve_tilts(off, alpha[None])
        assert one.residual[0] == batch.residual[j]
    assert 0 < sum(e is None for e in batch.errors) < len(A)


def test_steepness_failure_on_unattainable_target(expo):
    with pytest.raises(SteepnessError):
        rs.solve_tilt(expo, [-0.5])


def _with_newton(model):
    """The model and its copy without a closed-form tilt, which Newton solves."""
    return [model, dataclasses.replace(model, tilt_fn=None)]


def test_unattainable_target_is_named(expo, mean_square):
    # The closed form rejects these targets outright.  Newton runs t toward
    # -inf until the covariance underflows, and the error names the
    # unreachable target, not the singular covariance on the way; at the
    # boundary of the mean range it meets the absolute tolerance only as the
    # tilted law collapses, a whole standard deviation from the target.
    named = "target outside the attainable mean range"
    for model in _with_newton(expo):
        for target in ([-0.3], [0.0]):
            with pytest.raises(SteepnessError, match=named):
                rs.solve_tilt(model, target)
    # a mean square at or below the squared mean leaves no variance
    for model in _with_newton(mean_square):
        for target in ([0.5, 0.25], [0.5, 0.2], [0.0, -1.0]):
            with pytest.raises(SteepnessError, match=named):
                rs.solve_tilt(model, target)


# three targets within a few standard deviations of each base mean
FILL_TARGETS = {"exponential-mean": [[0.8], [1.5], [3.0]],
                "gaussian-mean-and-square": [[0.3, 1.5], [-0.5, 0.6], [1.0, 2.5]]}


@pytest.mark.parametrize("family", list(FILL_TARGETS))
@pytest.mark.parametrize("left_out", [("mean_fn",), ("cov_fn",), ("third_fn",),
                                      ("mean_fn", "cov_fn", "third_fn")],
                         ids=["mean", "cov", "third", "all"])
def test_left_out_moments_are_filled_by_finite_differences(family, left_out):
    # a model with tilt_fn but without some analytic moments: finite
    # differences fill them, the tilts are the built-in's, and the baseline
    # runs.  With all three left out, the third cumulant is a difference of
    # differences, whose rounding error scales with K(t) rather than with
    # the third cumulant; these targets keep it within 1e-4
    builtin = rs.builtin_model(family)
    custom = dataclasses.replace(builtin, **dict.fromkeys(left_out))
    A = np.array(FILL_TARGETS[family])
    exact, filled = rs.solve_tilts(builtin, A), rs.solve_tilts(custom, A)
    assert filled.errors == [None] * len(A)
    assert np.array_equal(filled.t, exact.t)
    np.testing.assert_allclose(filled.mean, exact.mean, rtol=1e-6)
    np.testing.assert_allclose(filled.covariance, exact.covariance, rtol=1e-6)
    np.testing.assert_allclose(filled.third, exact.third, rtol=1e-4)
    region = rs.ProductRegion(tuple(IntervalUnion((Interval(a, math.inf),)) for a in A[-1]))
    report = rs.tilted_iid_estimate(custom, region, 20, 50, seed=3)
    assert report.hit_rate > 0


# Far-tail targets, where K(t) is large against the third cumulant, with
# bounds on the finite-difference third cumulant's relative error there:
# measured 1.1e-5 and 5.5e-4 with the outer step FD_NESTED_STEP, against
# 3.9e-4 and 3.7e-3 when both differences took FD_BASE_STEP
FAR_TARGETS = {"exponential-mean": ([[0.5], [0.2]], 5e-5),
               "gaussian-mean-and-square": ([[0.1, 0.05]], 1e-3)}


@pytest.mark.parametrize("family", list(FAR_TARGETS))
def test_finite_difference_third_cumulant_in_the_tail(family):
    builtin = rs.builtin_model(family)
    custom = dataclasses.replace(builtin, mean_fn=None, cov_fn=None, third_fn=None)
    targets, bound = FAR_TARGETS[family]
    A = np.array(targets)
    exact, filled = rs.solve_tilts(builtin, A), rs.solve_tilts(custom, A)
    assert filled.errors == [None] * len(A)
    np.testing.assert_allclose(filled.third, exact.third, rtol=bound)


UNATTAINABLE = {"exponential-mean": [-0.5], "gaussian-mean-and-square": [0.5, 0.2]}


@pytest.mark.parametrize("family", list(FILL_TARGETS))
def test_third_cumulants_are_taken_on_first_read(family):
    builtin = rs.builtin_model(family)
    calls = []

    def third_fn(t):
        calls.append(np.shape(t))
        return builtin.third_fn(t)

    A = np.array(FILL_TARGETS[family] + [UNATTAINABLE[family]])
    counted = dataclasses.replace(builtin, third_fn=third_fn)
    for model in (counted, dataclasses.replace(counted, tilt_fn=None)):
        unread, read = rs.solve_tilts(model, A), rs.solve_tilts(model, A)
        assert not calls
        third = read.third
        assert calls and read.third is third  # taken once
        calls.clear()
        # reading third moves no bit of the other entries
        for name in ("target", "t", "mean", "covariance", "iterations", "residual"):
            assert np.array_equal(getattr(unread, name), getattr(read, name), equal_nan=True)
        assert [repr(e) for e in unread.errors] == [repr(e) for e in read.errors]
        assert read.errors[-1] is not None and np.all(np.isnan(third[-1]))
        for j in range(len(A) - 1):
            assert np.array_equal(third[j], rs.local_cumulants(builtin, read.t[j]).third)
            assert np.array_equal(read.solution(j).third, third[j])


def _row_only(fn):
    def on_row(t):
        assert np.ndim(t) == 1, "called on a stack"
        return fn(t)
    return on_row


@pytest.mark.parametrize("family", list(FILL_TARGETS))
def test_moments_of_a_model_without_tilt_fn_may_take_rows_only(family):
    # without tilt_fn, every row is solved by Newton alone, so analytic
    # moments that take one row only still serve stacks and estimates
    builtin = rs.builtin_model(family)
    custom = dataclasses.replace(builtin, tilt_fn=None, **{
        f: _row_only(getattr(builtin, f)) for f in ("mean_fn", "cov_fn", "third_fn")})
    A = np.array(FILL_TARGETS[family])
    batch = rs.solve_tilts(custom, A)
    assert batch.errors == [None] * len(A)
    np.testing.assert_allclose(batch.t, rs.solve_tilts(builtin, A).t, rtol=1e-8)
    region = rs.ProductRegion(tuple(IntervalUnion((Interval(a, math.inf),)) for a in A[-1]))
    report = rs.adaptive_estimate(custom, region, 20, 10, seed=3,
                                  chain_config=rs.MeanChainConfig(burn_in=20, thinning=1))
    assert report.L == 10 and np.isfinite(report.p_hat)


@pytest.mark.parametrize("family", list(FILL_TARGETS))
def test_no_moment_is_taken_on_an_empty_stack(family):
    # a stack whose every target is unattainable selects no row: the model's
    # moments are not called at all, and every entry is NaN
    builtin = rs.builtin_model(family)
    calls = []

    def spy(fn):
        return lambda t: calls.append(np.shape(t)) or fn(t)

    model = dataclasses.replace(builtin, **{
        f: spy(getattr(builtin, f)) for f in ("mean_fn", "cov_fn", "third_fn")})
    batch = rs.solve_tilts(model, np.array([UNATTAINABLE[family]] * 2))
    assert all(isinstance(e, SteepnessError) for e in batch.errors)
    assert np.all(np.isnan(batch.mean)) and np.all(np.isnan(batch.third))
    assert not calls


def _one_row_only(fn):
    def on_rows(t):
        if np.ndim(t) > 1 and len(t) > 1:
            raise AssertionError("called on a stack of rows")
        return fn(t)
    return on_rows


@pytest.mark.parametrize("family", list(FILL_TARGETS))
def test_rows_of_a_model_without_tilt_fn_equal_one_row_calls(family):
    # model._moment calls the moments of a model without tilt_fn one row at
    # a time, in moments, solve_tilts and local_cumulants alike
    builtin = rs.builtin_model(family)
    custom = dataclasses.replace(builtin, tilt_fn=None, **{
        f: _one_row_only(getattr(builtin, f)) for f in ("mean_fn", "cov_fn", "third_fn")})
    A = np.array(FILL_TARGETS[family] + [UNATTAINABLE[family]])
    batch = rs.solve_tilts(custom, A)
    assert batch.errors[-1] is not None and batch.errors[:-1] == [None] * (len(A) - 1)
    for j, alpha in enumerate(A):
        row = rs.solve_tilts(custom, alpha[None])
        for name in ("t", "mean", "covariance", "third", "iterations", "residual"):
            assert np.array_equal(getattr(row, name)[0], getattr(batch, name)[j], equal_nan=True)
        assert repr(row.errors[0]) == repr(batch.errors[j])
    T = batch.t[:-1]
    stacked = moments(custom, batch.t, batch.reached)
    for j, t in enumerate(T):
        one = moments(custom, t[None])
        loc = rs.local_cumulants(custom, t)
        for which, name in enumerate(("mean", "covariance", "third")):
            assert np.array_equal(stacked[which][j], one[which][0])
            assert np.array_equal(getattr(loc, name), one[which][0])
    assert all(np.all(np.isnan(m[-1])) for m in stacked)
    assert np.array_equal(moments(custom, T)[1], stacked[1][:-1])


@pytest.mark.parametrize("family", ["exponential-mean", "gaussian-mean-and-square"])
def test_nan_covariance_is_not_positive_definite(family):
    # LAPACK factors a NaN matrix into NaNs without complaint; the solver
    # and local_cumulants must still call it not positive definite, at s = 1
    # and s = 2 alike, not an unattainable target
    builtin = rs.builtin_model(family)
    s = builtin.s
    custom = dataclasses.replace(
        builtin, cov_fn=lambda t: np.full(np.shape(t)[:-1] + (s, s), np.nan))
    with pytest.raises(NumericError, match="not positive definite"):
        rs.local_cumulants(custom, np.zeros(s))
    batch = rs.solve_tilts(custom, np.array(FILL_TARGETS[family]))
    assert all(isinstance(e, NumericError) for e in batch.errors)


@pytest.mark.parametrize("name,params,sampler", [
    ("gaussian-mean", dict(mu=0.05, sigma=1.0, d=1),
     lambda g: np.array([g.uniform(-2, 2)])),
    ("gaussian-mean", dict(mu=0.0, sigma=2.0, d=3),
     lambda g: g.uniform(-3, 3, size=3)),
    ("exponential-mean", dict(rate=1.0),
     lambda g: np.array([g.uniform(0.2, 4.0)])),
    ("gaussian-mean-and-square", dict(mu=0.0, sigma=1.0),
     lambda g: (lambda m1: np.array([m1, m1 * m1 + g.uniform(0.2, 2.5)]))(g.uniform(-1.5, 1.5))),
])
def test_round_trip_fifty_targets(name, params, sampler):
    for model in _with_newton(rs.builtin_model(name, **params)):
        gen = np.random.default_rng(17)
        for _ in range(50):
            alpha = sampler(gen)
            sol = rs.solve_tilt(model, alpha)
            assert np.max(np.abs(rs.mean_map(model, sol.t) - alpha)) <= 1e-8


def test_rate_function_examples(gauss_005, expo):
    assert rs.rate_function(gauss_005, [0.05]) == pytest.approx(0.0, abs=1e-12)
    assert rs.rate_function(gauss_005, [0.28]) == pytest.approx(0.23**2 / 2, abs=1e-9)
    assert rs.rate_function(expo, [2.0]) == pytest.approx(1.0 - math.log(2.0), abs=1e-9)


def test_fenchel_inequality(gauss_005):
    gen = np.random.default_rng(23)
    for _ in range(20):
        v = np.array([gen.uniform(-1, 1)])
        t = np.array([gen.uniform(-2, 2)])
        lhs = rs.rate_function(gauss_005, v)
        rhs = float(t @ v) - gauss_005.cumulant(t)
        assert lhs >= rhs - 1e-9


def test_dominating_point_product(gauss_005):
    region = rs.two_sided_region(0.28, 1)
    assert rs.dominating_point(gauss_005, region) == pytest.approx([0.28])
    model5 = rs.builtin_model("gaussian-mean", mu=0.05, sigma=1.0, d=5)
    region5 = rs.two_sided_region(0.28, 5)
    assert rs.dominating_point(model5, region5) == pytest.approx([0.28] * 5)


def test_dominating_point_finite_interval(gauss_005):
    region = rs.ProductRegion((IntervalUnion((Interval(0.3, 0.4),)),))
    assert rs.dominating_point(gauss_005, region) == pytest.approx([0.3], abs=1e-8)


def test_dominating_point_mean_inside_region(gauss_005):
    region = rs.whole_space(1)
    assert rs.dominating_point(gauss_005, region) == pytest.approx([0.05])


def test_dominating_point_tie_warns_and_is_lexicographic():
    model = rs.builtin_model("gaussian-mean", mu=0.0, sigma=1.0, d=1)
    region = rs.two_sided_region(0.28, 1)
    with pytest.warns(RuntimeWarning, match="multiple dominating points"):
        point = rs.dominating_point(model, region)
    assert point == pytest.approx([-0.28])


def test_dominating_point_unattainable_region(expo):
    region = rs.ProductRegion((IntervalUnion((Interval(-math.inf, -1.0),)),))
    with pytest.raises(BaselineUnavailable):
        rs.dominating_point(expo, region)


def test_dominating_point_beats_region_samples(gauss_005):
    region = rs.two_sided_region(0.28, 1)
    best = rs.dominating_point(gauss_005, region)
    best_rate = rs.rate_function(gauss_005, best)
    gen = np.random.default_rng(29)
    for _ in range(100):
        v = gen.uniform(0.28, 3.0) * gen.choice([-1.0, 1.0])
        assert best_rate <= rs.rate_function(gauss_005, [v]) + 1e-9


def test_dominating_point_mean_square_box(mean_square):
    region = rs.ProductRegion((
        IntervalUnion((Interval(0.2, math.inf),)),
        IntervalUnion((Interval(1.0, 1.4),)),
    ))
    point = rs.dominating_point(mean_square, region)
    assert rs.contains(region, point) or rs.clamp_distance(region, point) < 1e-9
    rate = rs.rate_function(mean_square, point)
    gen = np.random.default_rng(31)
    for _ in range(50):
        v = np.array([gen.uniform(0.2, 1.5), gen.uniform(1.0, 1.4)])
        if v[1] - v[0] ** 2 <= 0.05:
            continue
        assert rate <= rs.rate_function(mean_square, v) + 1e-9
