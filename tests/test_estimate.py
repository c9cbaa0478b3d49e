import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import gamma, norm, poisson

import raresum as rs
from raresum.errors import ConfigurationError
from raresum.estimate import CSV_HEADER
from raresum.pathgen import tilted_tail_sampler
from raresum.region import Interval, IntervalUnion
from raresum.utils import replicate_rng
from helpers import (P_EXPO_MEAN, P_ONE_DIM, expected_weight_by_quadrature,
                     mean_square_probability)


def one_sided(threshold):
    return rs.ProductRegion((IntervalUnion((Interval(threshold, math.inf),)),))


def test_whole_space_weights_average_to_one(std_gauss):
    # Paired weights on the whole space have infinite variance (Hill tail
    # index ~1.4), so no standard-error bound on them holds seed by seed;
    # test_fubini_identity_by_quadrature checks their conditional mean.
    # Mixture weights are bounded (largest seen < 2), so the normal
    # approximation holds for them.
    region = rs.whole_space(1)
    rep = rs.adaptive_estimate(std_gauss, region, 10, 4000, seed=3,
                               weighting="mixture")
    assert rep.hit_rate == 1.0
    assert abs(rep.p_hat - 1.0) < 4 * rep.std_error  # fails with chance ~6e-5


def test_whole_space_naive_is_exactly_one(std_gauss):
    rep = rs.naive_estimate(std_gauss, rs.whole_space(1), 10, 200, seed=1)
    assert rep.p_hat == 1.0
    assert rep.std_error == 0.0


def test_whole_space_tilted_weights_are_unit(std_gauss):
    rep = rs.tilted_iid_estimate(std_gauss, rs.whole_space(1), 10, 200, seed=1)
    assert rep.p_hat == pytest.approx(1.0, abs=1e-12)
    assert np.all(rep.details.weights == pytest.approx(1.0))


def test_naive_small_instance(std_gauss):
    region = one_sided(0.3)
    truth = norm.sf(0.3 * math.sqrt(5))
    rep = rs.naive_estimate(std_gauss, region, 5, 40000, seed=5)
    se = math.sqrt(truth * (1 - truth) / 40000)
    assert abs(rep.p_hat - truth) < 4 * se
    assert rep.weight_cv == pytest.approx(0.0)


def test_naive_zero_hits_flagged(gauss_005):
    region = one_sided(1.5)  # ~ norm.sf(14.5) under the mean law, never hit
    rep = rs.naive_estimate(gauss_005, region, 100, 100, seed=7)
    assert rep.p_hat == 0.0
    assert rep.zero_hits
    assert math.isnan(rep.relative_error)


def test_adaptive_matches_exact_probability_small_instance(std_gauss):
    # 20 independent seeds, 4-standard-error tolerance; allow 2 outliers
    region = one_sided(0.3)
    truth = norm.sf(0.3 * math.sqrt(5))
    chain = rs.MeanChainConfig(burn_in=500, thinning=2)
    path = rs.PathConfig(k_mode="manual", k=2)
    passes = 0
    for seed in range(20):
        rep = rs.adaptive_estimate(std_gauss, region, 5, 10000,
                                   path_config=path, chain_config=chain, seed=seed)
        if abs(rep.p_hat - truth) < 4 * rep.std_error:
            passes += 1
    assert passes >= 18


@pytest.mark.parametrize("estimator", [rs.tilted_iid_estimate, rs.adaptive_estimate],
                         ids=["tilted-iid", "adaptive"])
def test_exponential_mean_matches_gamma_oracle(expo, estimator):
    # the sum of n Exp(1) points is Gamma(n, 1), so P(mean >= 1.5) at
    # n = 100 is exact; each of ten seeds, fixed up front, lands within
    # 4 standard errors of it
    for seed in range(1, 11):
        rep = estimator(expo, one_sided(1.5), 100, 100, seed=seed)
        assert abs(rep.p_hat - P_EXPO_MEAN) < 4 * rep.std_error


@pytest.mark.parametrize("estimator,L,seeds", [
    pytest.param(rs.tilted_iid_estimate, 2000, range(1, 11), id="tilted-iid"),
    pytest.param(rs.adaptive_estimate, 100, range(1, 6), id="adaptive")])
def test_exponential_mean_union_matches_gamma_oracle(expo, estimator, L, seeds):
    # n * mean ~ Gamma(100, 1) at n = 100, so P(mean in [1.3, 1.35] or
    # mean >= 1.5) is exact; each seed, fixed up front, lands within 4
    # standard errors of it
    region = rs.ProductRegion((rs.parse_interval_union("[1.3, 1.35] [1.5, inf)"),))
    G = gamma(100)
    truth = G.cdf(135) - G.cdf(130) + G.sf(150)
    assert truth == pytest.approx(2.04848e-3, rel=1e-5)
    for seed in seeds:
        rep = estimator(expo, region, 100, L, seed=seed)
        assert abs(rep.p_hat - truth) < 4 * rep.std_error


def test_exponential_mean_tilted_iid_sees_upper_branch_only(expo):
    # mean <= 0.75 or mean >= 1.3 at n = 100 has P = 6.10285e-3 exactly.
    # The rate function puts the dominating point at 1.3 by a hair (I =
    # 0.037636 against 0.037682 at 0.75), so tilted-iid samples the upper
    # branch alone, 45 % of P: at each of ten seeds, fixed up front, it lands
    # within 4 standard errors of that branch and stays below 0.6 P
    region = rs.ProductRegion((rs.parse_interval_union("[0, 0.75] [1.3, inf)"),))
    G = gamma(100)
    truth, upper = G.cdf(75) + G.sf(130), G.sf(130)
    assert (truth, upper) == pytest.approx((6.10285e-3, 2.75041e-3), rel=1e-5)
    for seed in range(1, 11):
        rep = rs.tilted_iid_estimate(expo, region, 100, 2000, seed=seed)
        assert abs(rep.p_hat - upper) < 4 * rep.std_error
        assert rep.p_hat < 0.6 * truth


def test_weights_positive_and_finite(gauss_005):
    region = rs.two_sided_region(0.28, 1)
    chain = rs.MeanChainConfig(burn_in=500, thinning=5)
    rep = rs.adaptive_estimate(gauss_005, region, 40, 500,
                               chain_config=chain, seed=9)
    w = rep.details.weights
    nz = w[w != 0]
    assert np.all(nz > 0)
    assert np.all(np.isfinite(nz))


def test_adaptive_insensitive_to_chain_quality(std_gauss):
    # unbiasedness holds for any conditioning-point law inside the region,
    # so a chain with no burn-in and no thinning only moves the variance
    region = one_sided(0.5)
    good = rs.MeanChainConfig(burn_in=500, thinning=2)
    bad = rs.MeanChainConfig(burn_in=0, thinning=1)
    pc = rs.PathConfig(k_mode="manual", k=4)
    r1 = rs.adaptive_estimate(std_gauss, region, 6, 4000, path_config=pc,
                              chain_config=good, seed=21)
    r2 = rs.adaptive_estimate(std_gauss, region, 6, 4000, path_config=pc,
                              chain_config=bad, seed=22)
    gap = abs(r1.p_hat - r2.p_hat)
    assert gap < 4 * math.hypot(r1.std_error, r2.std_error)


def test_adaptive_reports_aborts(expo):
    region = one_sided(0.9)  # below the unit mean: not rare, but drifts abort
    chain = rs.MeanChainConfig(burn_in=200, thinning=1)
    rep = rs.adaptive_estimate(expo, region, 6, 300, chain_config=chain,
                               path_config=rs.PathConfig(k_mode="manual", k=5),
                               seed=13)
    assert rep.aborts > 0
    assert rep.details.weights[rep.details.aborted].sum() == 0.0
    assert math.isfinite(rep.p_hat)


def test_tilted_iid_two_sided_converges_to_positive_branch(gauss_005):
    region = rs.two_sided_region(0.28, 1)
    rep = rs.tilted_iid_estimate(gauss_005, region, 100, 4000, seed=17)
    p_plus = norm.sf(2.3)
    assert abs(rep.p_hat - p_plus) < 4 * rep.std_error
    # no sampled run ever lands in the negative branch
    assert not np.any(rep.details.path_mean[rep.details.hits, 0] < 0)


def test_tilted_iid_two_dim_plateau_misses_mixed_branches():
    model = rs.builtin_model("gaussian-mean", mu=0.05, sigma=1.0, d=2)
    region = rs.two_sided_region(0.28, 2)
    rep = rs.tilted_iid_estimate(model, region, 100, 4000, seed=19)
    p_plus_sq = norm.sf(2.3) ** 2
    truth = (norm.sf(2.3) + norm.cdf(-3.3)) ** 2
    assert abs(rep.p_hat - p_plus_sq) < 4 * rep.std_error
    assert p_plus_sq < truth  # the plateau sits about 8 percent low


def test_naive_at_experiment_scale(gauss_005):
    # L * P ~ 1121 expected hits for the n=100 two-sided event
    region = rs.two_sided_region(0.28, 1)
    L = 100000
    rep = rs.naive_estimate(gauss_005, region, 100, L, seed=23)
    truth = norm.sf(2.3) + norm.cdf(-3.3)
    sd = math.sqrt(L * truth * (1 - truth))
    hits = rep.hit_rate * L
    assert abs(hits - L * truth) < 4 * sd


def test_naive_two_dim_small_l_finds_nothing():
    model = rs.builtin_model("gaussian-mean", mu=0.05, sigma=1.0, d=2)
    L = 1000
    # At L = 1000 the d=2 event is beyond naive MC.  The hit count is Poisson
    # with mean lam ~ 0.126, so one or more hits has chance 1 - exp(-lam) ~ 12%
    # at any seed: the claim is "too few hits to resolve P", not "no hits".
    lam = P_ONE_DIM ** 2 * L
    region = rs.two_sided_region(0.28, 2)
    rep = rs.naive_estimate(model, region, 100, L, seed=29)
    hits = int(np.sum(rep.details.hits))
    assert poisson.sf(4, lam) < 1e-6
    assert hits <= 4  # fails with chance P(Poisson(lam) >= 5) ~ 2.3e-7
    assert rep.p_hat == hits / L  # unit weights under the base law: exact
    # relative error ~ 1/sqrt(hits) >= 0.499 for 1-4 hits, NaN for none:
    # exact once the hit bound above holds
    assert math.isnan(rep.relative_error) or rep.relative_error >= 0.45

    # A zero-hit result is flagged.  P(|mean_j| > 1) = sf(9.5) + cdf(-10.5)
    # ~ 1.05e-21 per coordinate, so any hit in L runs has chance ~ 1e-39.
    rep = rs.naive_estimate(model, rs.two_sided_region(1.0, 2), 100, L, seed=29)
    assert rep.p_hat == 0.0
    assert rep.zero_hits
    assert math.isnan(rep.relative_error)


def test_report_moments_match_definitions(gauss_005):
    region = rs.two_sided_region(0.28, 1)
    chain = rs.MeanChainConfig(burn_in=200, thinning=2)
    rep = rs.adaptive_estimate(gauss_005, region, 40, 300, chain_config=chain,
                               path_config=rs.PathConfig(k_mode="manual", k=30),
                               seed=31)
    w = rep.details.weights
    assert rep.p_hat == pytest.approx(float(np.mean(w)), rel=1e-12)
    assert rep.std_error == pytest.approx(
        float(np.std(w, ddof=1)) / math.sqrt(len(w)), rel=1e-12)
    assert rep.relative_error == pytest.approx(rep.std_error / rep.p_hat, rel=1e-12)


def test_fubini_identity_by_quadrature(std_gauss):
    """E[weight | v] = P for every conditioning point: the step and tail
    densities are reconstructed on a grid and integrated directly."""
    truth = norm.sf(0.3 * math.sqrt(2))
    for v in (0.31, 0.35, 0.4, 0.5, 0.7):
        ew, total_g = expected_weight_by_quadrature(std_gauss, v)
        assert total_g == pytest.approx(1.0, abs=1e-5)
        assert ew == pytest.approx(truth, abs=1e-4)


def test_fubini_grid_matches_path_logdensity(std_gauss):
    # the grid reconstruction above uses the same factors as path_logdensity
    n, k, v = 2, 1, 0.4
    gen = np.random.default_rng(23)
    for _ in range(20):
        y = gen.normal(size=2)
        dens = rs.path_logdensity(std_gauss, y.reshape(2, 1), [v], n, k)
        manual_head = norm.logpdf(y[0], loc=v, scale=math.sqrt(0.5))
        m1 = 2 * v - y[0]
        manual_tail = norm.logpdf(y[1], loc=m1, scale=1.0)
        assert dens.log_g == pytest.approx(manual_head + manual_tail, abs=1e-10)


def test_mixture_weighting_matches_paired_on_single_component(gauss_005):
    # with one component and a tight chain both weightings agree closely
    region = one_sided(0.3)
    chain = rs.MeanChainConfig(burn_in=500, thinning=5)
    pc = rs.PathConfig(k_mode="manual", k=20)
    paired = rs.adaptive_estimate(gauss_005, region, 25, 2000, path_config=pc,
                                  chain_config=chain, seed=29, weighting="paired")
    mixture = rs.adaptive_estimate(gauss_005, region, 25, 2000, path_config=pc,
                                   chain_config=chain, seed=29, weighting="mixture")
    gap = abs(paired.p_hat - mixture.p_hat)
    assert gap < 4 * math.hypot(paired.std_error, mixture.std_error)


def test_mixture_weighting_requires_gaussian_identity(expo):
    with pytest.raises(ConfigurationError):
        rs.adaptive_estimate(expo, one_sided(1.5), 10, 10, weighting="mixture")


def test_constraint_count_must_be_less_than_n(mean_square):
    region = rs.whole_space(2)
    with pytest.raises(ConfigurationError):
        rs.adaptive_estimate(mean_square, region, 2, 10)


def test_reports_are_deterministic(gauss_005):
    region = rs.two_sided_region(0.28, 1)
    chain = rs.MeanChainConfig(burn_in=200, thinning=2)
    kwargs = dict(chain_config=chain, seed=31,
                  path_config=rs.PathConfig(k_mode="manual", k=30))
    r1 = rs.adaptive_estimate(gauss_005, region, 40, 300, **kwargs)
    r2 = rs.adaptive_estimate(gauss_005, region, 40, 300, **kwargs)
    assert r1.p_hat == r2.p_hat
    assert r1.std_error == r2.std_error
    assert r1.csv_row(include_timing=False) == r2.csv_row(include_timing=False)


MEAN_SQUARE_REGION = rs.ProductRegion((IntervalUnion((Interval(0.2, math.inf),)),
                                        IntervalUnion((Interval(1.0, 1.4),))))


@pytest.mark.parametrize("scheme,family,region,n,L,k,seed,weighting", [
    pytest.param("adaptive", "gaussian-mean", one_sided(0.3), 20, 240, 10, 37, "paired",
                 id="paired"),
    pytest.param("adaptive", "gaussian-mean", one_sided(0.3), 20, 240, 10, 37, "mixture",
                 id="mixture"),
    # both branches of three coordinates; the serial run's 99 hits are one
    # mixture block, split over 12 blocks in parallel
    pytest.param("adaptive", "gaussian-mean", rs.two_sided_region(0.28, 3), 20, 240, 10, 37,
                 "mixture", id="mixture-d3-two-sided"),
    # 4 of the 24 runs abort; the serial run walks them as one stack, the split
    # runs 2 at a time
    pytest.param("adaptive", "gaussian-mean-and-square", MEAN_SQUARE_REGION, 40, 24, 34, 4,
                 "paired", id="mean-square-paired"),
    # the baselines are runs with k = 0, cut into blocks the same way
    pytest.param("tilted-iid", "gaussian-mean", rs.two_sided_region(0.28, 3), 20, 240, None,
                 37, "paired", id="tilted-iid-d3-two-sided"),
    pytest.param("naive", "gaussian-mean", rs.two_sided_region(0.28, 3), 20, 2400, None, 37,
                 "paired", id="naive-d3-two-sided"),
    pytest.param("tilted-iid", "gaussian-mean-and-square", MEAN_SQUARE_REGION, 40, 24, None, 4,
                 "paired", id="tilted-iid-mean-square"),
    pytest.param("naive", "gaussian-mean-and-square", MEAN_SQUARE_REGION, 40, 240, None, 4,
                 "paired", id="naive-mean-square"),
])
def test_threads_do_not_change_results(scheme, family, region, n, L, k, seed, weighting):
    model = (rs.builtin_model(family, mu=0.05, sigma=1.0, d=region.s)
             if family == "gaussian-mean" else rs.builtin_model(family))
    chain = rs.MeanChainConfig(burn_in=200, thinning=2)
    kwargs = dict(chain_config=chain, weighting=weighting,
                  path_config=rs.PathConfig(k_mode="manual", k=k))
    serial = rs.run_point(model, region, n, L, scheme, seed, threads=1, **kwargs)
    parallel = rs.run_point(model, region, n, L, scheme, seed, threads=3, **kwargs)
    assert serial.p_hat == parallel.p_hat
    for field in ("weights", "hits", "aborted", "path_mean"):
        assert np.array_equal(getattr(serial.details, field), getattr(parallel.details, field))
    assert np.any(serial.details.hits)
    if scheme == "adaptive" and family != "gaussian-mean":
        assert serial.aborts > 0


@pytest.mark.parametrize("threads", [0, -4])
def test_adaptive_rejects_worker_count_below_one(std_gauss, threads):
    # and so do the baselines, which run_point hands the same worker count
    for estimator in (rs.adaptive_estimate, rs.tilted_iid_estimate, rs.naive_estimate):
        with pytest.raises(ConfigurationError, match="threads must be at least 1"):
            estimator(std_gauss, rs.two_sided_region(0.28, 1), 10, 20, threads=threads)


def test_compare_schemes_deterministic_and_ranked(gauss_005):
    region = rs.two_sided_region(0.28, 1)
    chain = rs.MeanChainConfig(burn_in=1000, thinning=10)
    t1 = rs.compare_schemes(gauss_005, region, 100, 800,
                            schemes=("adaptive", "tilted-iid"),
                            chain_config=chain, seed=41, weighting="mixture",
                            path_config=rs.PathConfig(k_mode="manual", k=75))
    t2 = rs.compare_schemes(gauss_005, region, 100, 800,
                            schemes=("adaptive", "tilted-iid"),
                            chain_config=chain, seed=41, weighting="mixture",
                            path_config=rs.PathConfig(k_mode="manual", k=75))
    for a, b in zip(t1, t2):
        assert a.csv_row(include_timing=False) == b.csv_row(include_timing=False)
    # Ranked by relative error, as format_comparison ranks them.  The hits'
    # weight CVs differ by only ~0.06, which does not order the schemes
    # seed by seed.  At L = 800 the relative-error ratio (tilted / adaptive)
    # was >= 1.25 at all 48 seeds tried; log(ratio) has mean 0.33 and sd
    # 0.045, so a reversal lies beyond 7 sd.
    by_name = {r.scheme: r for r in t1}
    assert by_name["adaptive"].relative_error < by_name["tilted-iid"].relative_error


def test_csv_row_schema():
    assert CSV_HEADER.split(",") == [
        "scheme", "n", "k", "d", "s", "L", "seed", "p_hat", "std_error",
        "relative_error", "weight_cv", "hit_rate", "aborts", "wall_time",
    ]


def test_tilted_iid_baseline_unavailable(expo):
    region = rs.ProductRegion((IntervalUnion((Interval(-math.inf, -1.0),)),))
    with pytest.raises(rs.BaselineUnavailable):
        rs.tilted_iid_estimate(expo, region, 10, 10)


def test_tail_sampler_used_by_naive_matches_base(gauss_005):
    s = tilted_tail_sampler(gauss_005, [0.05])
    assert np.max(np.abs(s.t)) < 1e-12


def test_custom_tilted_iid_weights_are_p_over_g(expo):
    # a model without a tilted family draws its baseline from the tabulated
    # tilted law, so each hit weighs p over that grid's density, not the
    # smooth closed form exp(n K(t) - <t, total>), which is 7e-6 relative
    # away at this seed
    custom = dataclasses.replace(expo, tilt_fn=None, third_fn=None, tilted_family=None,
                                 step_poly_fn=None)
    region, n, seed = one_sided(1.5), 100, 11
    rep = rs.tilted_iid_estimate(custom, region, n, 100, seed=seed)
    law = tilted_tail_sampler(custom, rs.dominating_point(custom, region))
    assert np.any(rep.details.hits)
    for l in range(100):
        x = law.sample(replicate_rng(seed, l), size=n)
        assert rep.details.path_mean[l, 0] == pytest.approx(np.mean(x), rel=1e-12)
        if rep.details.hits[l]:
            p_over_g = math.exp(np.sum(custom.log_density_x(x)) - np.sum(law.logpdf(x)))
            assert rep.details.weights[l] == pytest.approx(p_over_g, rel=1e-12)


def test_d2_model_without_gauss_identity_params_keeps_its_baselines():
    # runs with k = 0 take every point from the model's tilted family, so the
    # baselines serve a model that the adaptive scheme refuses
    generic = dataclasses.replace(rs.builtin_model("gaussian-mean", mu=0.05, d=2),
                                  gauss_identity_params=None)
    region = rs.two_sided_region(0.28, 2)
    rep = rs.tilted_iid_estimate(generic, region, 100, 400, seed=11)
    assert rep.p_hat == pytest.approx(9.08279620412e-05, rel=1e-12)
    assert rep.std_error == pytest.approx(1.81280279879e-05, rel=1e-12)
    naive = rs.naive_estimate(generic, region, 100, 400, seed=11)
    assert naive.p_hat == float(np.mean(naive.details.hits))
    with pytest.raises(ConfigurationError, match="d = 1"):
        rs.adaptive_estimate(generic, region, 100, 400)


MEAN_SQUARE_EVENTS = [
    # mean_square_smoke.cfg's event, 1.374430e-2
    pytest.param(0.2, id="smoke"),
    # the one-branch rung 2.625729e-5
    pytest.param(0.4, id="rare"),
]


@pytest.mark.parametrize("threshold", MEAN_SQUARE_EVENTS)
def test_mean_square_tilted_iid_matches_cochran_oracle(mean_square, threshold):
    # P(mean >= threshold, mean square in [1.0, 1.4]) at n = 100 is exact
    # by Cochran's theorem; each of ten seeds, fixed up front, lands within
    # 4 standard errors of it
    region = rs.ProductRegion((IntervalUnion((Interval(threshold, math.inf),)),
                               IntervalUnion((Interval(1.0, 1.4),))))
    truth = mean_square_probability(region, 100)
    for seed in range(1, 11):
        rep = rs.tilted_iid_estimate(mean_square, region, 100, 2000, seed=seed)
        assert abs(rep.p_hat - truth) < 4 * rep.std_error


def test_mean_square_tilted_iid_sees_one_of_two_branches(mean_square):
    # |mean| >= 0.3 with mean square in [1.0, 1.4] at n = 100 (mu = 0, sigma
    # = 1): x -> -x maps one branch onto the other, so each carries P/2.
    # Tilted-iid tilts toward one dominating point and samples that branch
    # alone: at each of five seeds, fixed up front, it lands within 4
    # standard errors of P/2 and stays below 0.6 P.  The adaptive scheme
    # exists to see both
    region = rs.ProductRegion((rs.parse_interval_union("(-inf, -0.3] [0.3, inf)"),
                               rs.parse_interval_union("[1.0, 1.4]")))
    truth = mean_square_probability(region, 100)
    assert truth == pytest.approx(1.95838e-3, rel=1e-5)
    for seed in range(1, 6):
        with pytest.warns(RuntimeWarning, match="multiple dominating points"):
            rep = rs.tilted_iid_estimate(mean_square, region, 100, 4000, seed=seed)
        assert abs(rep.p_hat - truth / 2) < 4 * rep.std_error
        assert rep.p_hat < 0.6 * truth
