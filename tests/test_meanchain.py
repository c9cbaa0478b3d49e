import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.stats import norm

import raresum as rs
from raresum import meanchain
from raresum.errors import ConfigurationError, SteepnessError
from raresum.meanchain import _RestartKernel, _log_target
from raresum.model import local_cumulants
from raresum.region import Interval, IntervalUnion, component_boxes


def test_target_logdensity_examples(gauss_005):
    union = IntervalUnion((Interval(-math.inf, -0.28), Interval(0.28, math.inf)))
    region = rs.ProductRegion((union,))  # closed endpoints: |v| >= 0.28
    lo = rs.target_logdensity(gauss_005, region, 100, [0.28])
    hi = rs.target_logdensity(gauss_005, region, 100, [0.33])
    # -100*(0.23^2 - 0.28^2)/2 exactly
    assert lo - hi == pytest.approx(1.275, abs=1e-9)
    assert rs.target_logdensity(gauss_005, region, 100, [0.1]) == -math.inf


def test_saddlepoint_matches_gaussian_up_to_constant(gauss_005):
    # the same Gaussian model without gauss_identity_params gets the
    # saddlepoint target, which is exact for it up to a constant
    generic = dataclasses.replace(gauss_005, gauss_identity_params=None)
    region = rs.whole_space(1)
    vs = np.linspace(-0.3, 0.5, 9)
    diffs = []
    for v in vs:
        exact = rs.target_logdensity(gauss_005, region, 50, [v])
        sp = rs.target_logdensity(generic, region, 50, [v])
        diffs.append(sp - exact)
    assert np.ptp(diffs) < 1e-6
    for model, kind in ((gauss_005, "exact-gaussian"), (generic, "saddlepoint")):
        assert _log_target(model, region, 50, local_cumulants(model, np.zeros(1)))[0] == kind


class OneStep:
    """Drives run_chain through exactly one RW proposal."""

    def __init__(self, z, u):
        self.z, self.u, self.calls = z, u, 0

    def random(self, size=None):
        if size is None:
            return self.u  # accept draw (restart_prob check comes first)
        return np.full(size, self.u)

    def standard_normal(self, s):
        return np.full(s, self.z)

    def integers(self, n):
        return 0


def test_target_membership_equals_region_contains():
    # the targets test membership on closed float intervals, each open
    # endpoint moved one float inward: the verdict of contains at open,
    # closed and degenerate endpoints, at -0.0, infinities and NaN
    union = IntervalUnion((Interval(-1.0, 0.0, False, True), Interval(0.5, 1.0, True, False),
                           Interval(2.0, 2.0)))
    region = rs.ProductRegion((union, union))
    gauss = rs.builtin_model("gaussian-mean", mu=0.0, sigma=1.0, d=2)
    values = [-0.0, 0.25, 1.5, math.inf, -math.inf, math.nan]
    for edge in (-1.0, 0.0, 0.5, 1.0, 2.0):
        values += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    for model in (gauss, dataclasses.replace(gauss, gauss_identity_params=None)):
        _, log_target = _log_target(model, region, 10, local_cumulants(model, np.zeros(2)))
        for x in values:
            for y in values:
                assert math.isfinite(log_target([x, y])) == rs.contains(region, [x, y])


def test_acceptance_uses_target_ratio(gauss_005):
    # with a symmetric proposal the accept probability is min(1, target ratio):
    # force a single proposal with a spy generator and check the decision edge
    region = rs.ProductRegion((IntervalUnion((Interval(0.28, math.inf),)),))

    cfg = rs.MeanChainConfig(burn_in=0, thinning=1)
    start = rs.initial_point(region, gauss_005, 100)  # 0.38
    prop = start + 0.1 * 1.0  # step sqrt(sigma^2 / n) = 0.1, z = 1 -> 0.48
    delta = (rs.target_logdensity(gauss_005, region, 100, prop)
             - rs.target_logdensity(gauss_005, region, 100, start))
    p_accept = math.exp(delta)  # downhill move, < 1

    just_below = OneStep(1.0, p_accept * 0.999)
    states, _ = rs.run_chain(gauss_005, region, 100, cfg, 1, just_below)
    assert states[0, 0] == pytest.approx(prop[0])

    just_above = OneStep(1.0, min(p_accept * 1.001, 1.0))
    states, _ = rs.run_chain(gauss_005, region, 100, cfg, 1, just_above)
    assert states[0, 0] == pytest.approx(start[0])


def test_acceptance_draw_of_zero(gauss_005):
    # a uniform draw of exactly 0.0 reads as log u = -inf: it accepts every
    # proposal of positive target density and rejects the others
    region = rs.ProductRegion((IntervalUnion((Interval(0.28, math.inf),)),))
    cfg = rs.MeanChainConfig(burn_in=0, thinning=1)
    start = rs.initial_point(region, gauss_005, 100)  # 0.38
    downhill, _ = rs.run_chain(gauss_005, region, 100, cfg, 1, OneStep(1.0, 0.0))
    assert downhill[0, 0] == start[0] + 0.1  # 0.48, accepted
    outside, diag = rs.run_chain(gauss_005, region, 100, cfg, 1, OneStep(-2.0, 0.0))
    assert outside[0, 0] == start[0] and diag.acceptance_rate == 0.0  # 0.18, rejected


def test_chain_marginals_match_truncated_normal(gauss_005):
    region = rs.ProductRegion((IntervalUnion((Interval(0.28, math.inf),)),))
    cfg = rs.MeanChainConfig(burn_in=1000, thinning=5)
    states, diag = rs.run_chain(gauss_005, region, 100, cfg, 10000,
                                np.random.default_rng(7))
    a = (0.28 - 0.05) / 0.1
    oracle_mean = 0.05 + 0.1 * norm.pdf(a) / norm.sf(a)
    # batch-means standard error accounts for autocorrelation
    batches = states[:, 0].reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(states[:, 0].mean() - oracle_mean) < 3 * se
    assert 0 < diag.acceptance_rate < 1


def test_chain_two_sided_branch_fraction(gauss_005):
    region = rs.two_sided_region(0.28, 1)
    cfg = rs.MeanChainConfig(burn_in=2000, thinning=25)
    states, _ = rs.run_chain(gauss_005, region, 100, cfg, 2000,
                             np.random.default_rng(11))
    frac = float((states[:, 0] < 0).mean())
    oracle = norm.cdf(-3.3) / (norm.cdf(-3.3) + norm.sf(2.3))
    assert oracle / 2 < frac < oracle * 2


def test_all_states_inside_region(gauss_005):
    region = rs.two_sided_region(0.28, 1)
    cfg = rs.MeanChainConfig(burn_in=100, thinning=2)
    states, _ = rs.run_chain(gauss_005, region, 100, cfg, 500,
                             np.random.default_rng(13))
    assert all(rs.contains(region, v) for v in states)


def test_single_state_smoke(gauss_005):
    region = rs.ProductRegion((IntervalUnion((Interval(0.28, math.inf),)),))
    cfg = rs.MeanChainConfig(burn_in=0, thinning=1)
    states, diag = rs.run_chain(gauss_005, region, 100, cfg, 1,
                                np.random.default_rng(17))
    assert states.shape == (1, 1)
    assert diag.chain_length == 1
    assert 0.0 <= diag.acceptance_rate <= 1.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        rs.MeanChainConfig(burn_in=-1)
    with pytest.raises(ConfigurationError):
        rs.MeanChainConfig(thinning=0)
    # the model fixes the target and the step, and RESTART_PROB the restart share
    with pytest.raises(TypeError):
        rs.MeanChainConfig(proposal_scale=np.array([0.1]))
    with pytest.raises(TypeError):
        rs.MeanChainConfig(target_kind="auto")
    with pytest.raises(TypeError):
        rs.MeanChainConfig(restart_prob=0.1)


def test_restart_kernel_windows_inside_components(gauss_005):
    region = rs.two_sided_region(0.28, 2)
    boxes = component_boxes(region)
    kern = _RestartKernel(boxes, np.array([0.05, 0.05]), np.array([0.1, 0.1]))
    gen = np.random.default_rng(19)
    for _ in range(200):
        v = kern.sample(gen)
        assert rs.contains(region, v)
        assert math.isfinite(kern.logpdf(v))
    # logpdf integrates to one over the union of windows
    vol = sum(math.exp(lv) for lv in kern._log_vols)
    dens = math.exp(kern.logpdf(kern.lo[0] + 1e-6))
    assert dens == pytest.approx(1.0 / (len(kern.lo) * math.exp(kern._log_vols[0])))


class _LoopKernel(_RestartKernel):
    """Reference restart kernel: draws with numpy and tests the windows one
    by one."""

    def sample(self, rng):
        c = rng.integers(self._n)
        lo, hi = self.lo[c], self.hi[c]
        return (lo + (hi - lo) * rng.random(lo.size)).tolist()

    def logpdf(self, v):
        dens = 0.0
        for lo, hi, lv in zip(self.lo, self.hi, self._log_vols):
            if np.all(v >= lo) and np.all(v <= hi):
                dens += math.exp(-lv)
        if dens <= 0.0:
            return -math.inf
        return math.log(dens / self._n)


def _fig1_chain_setup(d):
    model = rs.builtin_model("gaussian-mean", mu=0.05, sigma=1.0, d=d)
    return model, rs.two_sided_region(0.28, d), np.full(d, 0.05), np.full(d, 0.1)


@pytest.mark.parametrize("d", [1, 3, 5])
def test_restart_kernel_logpdf_equals_window_loop(d):
    _, region, mu, scale = _fig1_chain_setup(d)
    boxes = component_boxes(region)
    kern = _RestartKernel(boxes, mu, scale)
    ref = _LoopKernel(boxes, mu, scale)
    gen = np.random.default_rng(37)
    probes = [kern.sample(gen) for _ in range(100)]            # inside
    probes += list(gen.uniform(-0.5, 0.5, size=(100, d)))      # mostly outside
    for c in range(len(kern.lo)):                              # on the faces
        probes += [kern.lo[c], kern.hi[c]]
        for j in range(d):
            face = kern.sample(gen)
            face[j] = kern.lo[c, j]
            probes.append(face.copy())
            face[j] = kern.hi[c, j]
            probes.append(face)
    assert any(math.isinf(ref.logpdf(v)) for v in probes)
    for v in probes:
        assert kern.logpdf(v) == ref.logpdf(v)


def test_restart_kernel_sums_overlapping_windows():
    # hand-made boxes whose windows overlap on [0.1, 0.15] x [-0.15, 0.15]
    full = Interval(-math.inf, math.inf)
    boxes = [(Interval(-1.0, 1.0), full), (Interval(0.0, 0.5), full)]
    args = (boxes, np.zeros(2), np.array([0.3, 0.3]))
    kern, ref = _RestartKernel(*args), _LoopKernel(*args)
    for v in ([0.12, 0.0], [0.1, 0.15], [0.15, -0.15], [0.0, 0.0], [0.3, 0.0]):
        assert kern.logpdf(np.array(v)) == ref.logpdf(np.array(v))
    both = kern.logpdf(np.array([0.12, 0.0]))
    assert both == pytest.approx(math.log((1 / 0.09 + 1 / 0.09) / 2))


def test_restart_kernel_sums_face_sharing_windows():
    # open intervals (0, 1) and (1, 2) stay two components whose windows
    # [0, 1] and [1, 2] share the face at 1; (1, 1) lies in all four windows
    halves = IntervalUnion((Interval(0.0, 1.0, False, False), Interval(1.0, 2.0, False, False)))
    boxes = component_boxes(rs.ProductRegion((halves, halves)))
    assert len(boxes) == 4
    args = (boxes, np.full(2, 1.0), np.full(2, 2.0))
    kern, ref = _RestartKernel(*args), _LoopKernel(*args)
    probes = [[1.0, 1.0], [1.0, 0.5], [0.5, 1.0], [1.5, 1.0], [0.0, 2.0], [2.0, 2.0],
              [0.5, 0.5], [1.5, 1.5], [2.5, 1.0], [1.0, -0.1]]
    for v in probes:
        assert kern.logpdf(v) == ref.logpdf(np.array(v))
    assert kern.logpdf([1.0, 1.0]) == pytest.approx(math.log(4 / 4))
    assert kern.logpdf([1.0, 0.5]) == pytest.approx(math.log(2 / 4))
    assert kern.logpdf([2.5, 1.0]) == -math.inf


def _matrix_gaussian_target(model, region, n):
    """The exact-Gaussian chain target written with the full precision
    factor: z = prec_chol.T @ (v - mean), log-density -n z.z / 2."""
    loc0 = local_cumulants(model, np.zeros(model.s))
    prec_chol = np.linalg.cholesky(np.linalg.inv(loc0.covariance))

    def log_target(v):
        if not rs.contains(region, v):
            return -math.inf
        z = prec_chol.T @ (v - loc0.mean)
        return float(-0.5 * n * z @ z)
    return log_target


@pytest.mark.parametrize("d", [1, 3, 5])
def test_gaussian_target_equals_matrix_formula(d):
    model, region, _, _ = _fig1_chain_setup(d)
    reference = _matrix_gaussian_target(model, region, 100)
    gen = np.random.default_rng(43)
    probes = list(gen.uniform(-0.6, 0.6, size=(200, d)))  # mostly outside
    probes += list(gen.choice([-1.0, 1.0], size=(200, d))
                   * (0.28 + 0.3 * np.abs(gen.standard_normal((200, d)))))  # inside
    probes += [np.full(d, 0.28), np.full(d, -0.28), np.full(d, np.nextafter(0.28, 0.0))]
    values = [rs.target_logdensity(model, region, 100, v) for v in probes]
    assert sum(math.isinf(x) for x in values) > 50
    assert sum(math.isfinite(x) for x in values) > 200
    for v, x in zip(probes, values):
        assert x == reference(v)


def _solve_tilt_target(model, region, n):
    """The saddlepoint chain target through solve_tilt's TiltSolution:
    -n I(v) - log det kappa(t) / 2, with I(v) = t.v - K(t)."""
    def log_target(v):
        if not rs.contains(region, v):
            return -math.inf
        try:
            sol = rs.solve_tilt(model, v)
        except SteepnessError:
            return -math.inf
        rate = float(sol.t @ sol.target - model.cumulant(sol.t))
        sign, logdet = np.linalg.slogdet(sol.covariance)
        return -math.inf if sign <= 0 else -n * rate - 0.5 * logdet
    return log_target


def _uncached_chain(model, region, n, cfg, count, rng, target=_matrix_gaussian_target):
    """run_chain's Metropolis-Hastings loop on numpy states, with the
    reference kernel and a reference target (the matrix form of the Gaussian
    one by default), recomputing the kernel density of the current state on
    every restart."""
    loc0 = local_cumulants(model, np.zeros(model.s))
    scale = np.sqrt(np.diagonal(loc0.covariance) / n)
    logtarget = target(model, region, n)
    restart = _LoopKernel(component_boxes(region), loc0.mean, scale)
    v = rs.initial_point(region, model, n)
    lt = logtarget(v)
    states, accepted = [], 0
    for step in range(cfg.burn_in + cfg.thinning * count):
        if len(restart.lo) > 1 and rng.random() < meanchain.RESTART_PROB:
            prop = np.array(restart.sample(rng))
            lp = logtarget(prop)
            log_alpha = (lp + restart.logpdf(v)) - (lt + restart.logpdf(prop))
        else:
            prop = v + scale * rng.standard_normal(model.s)
            lp = logtarget(prop)
            log_alpha = lp - lt
        if log_alpha >= 0 or math.log(rng.random()) < log_alpha:
            v, lt = prop, lp
            accepted += 1
        idx = step - cfg.burn_in
        if idx >= 0 and idx % cfg.thinning == cfg.thinning - 1:
            states.append(v)
    return np.array(states), accepted / (cfg.burn_in + cfg.thinning * count)


@pytest.mark.parametrize("d", [1, 3, 5])
def test_chain_states_equal_reference_kernel_chain(d, monkeypatch):
    model, region, _, _ = _fig1_chain_setup(d)
    cfg = rs.MeanChainConfig(burn_in=500, thinning=10)
    for seed in range(41, 46):
        states, diag = rs.run_chain(model, region, 100, cfg, 150, np.random.default_rng(seed))
        assert diag.acceptance_rate > 0
        expected, _ = _uncached_chain(model, region, 100, cfg, 150, np.random.default_rng(seed))
        assert np.array_equal(states, expected)
        with monkeypatch.context() as patch:
            patch.setattr(meanchain, "_RestartKernel", _LoopKernel)
            patched, _ = rs.run_chain(model, region, 100, cfg, 150, np.random.default_rng(seed))
        assert np.array_equal(patched, expected)


def test_saddlepoint_target_for_mean_square(mean_square):
    region = rs.ProductRegion((
        IntervalUnion((Interval(0.2, math.inf),)),
        IntervalUnion((Interval(1.0, 1.4),)),
    ))
    cfg = rs.MeanChainConfig(burn_in=300, thinning=2)
    states, diag = rs.run_chain(mean_square, region, 100, cfg, 300,
                                np.random.default_rng(23))
    assert diag.target_kind == "saddlepoint"
    assert all(rs.contains(region, v) for v in states)
    assert diag.acceptance_rate > 0.05


@pytest.mark.parametrize("case", ["meansquare-paired", "exponential-union"])
def test_saddlepoint_chain_equals_solve_tilt_chain(case):
    # the chain's one-row solve_tilts target against the TiltSolution
    # formula, on the mean-square benchmark region and on a two-component
    # exponential-mean region that exercises the restart kernel
    if case == "meansquare-paired":
        model = rs.builtin_model("gaussian-mean-and-square")
        region = rs.ProductRegion((IntervalUnion((Interval(0.2, math.inf),)),
                                   IntervalUnion((Interval(1.0, 1.4),))))
    else:
        model = rs.builtin_model("exponential-mean", rate=1.0)
        region = rs.ProductRegion((IntervalUnion((Interval(-math.inf, 0.85),
                                                  Interval(1.2, math.inf))),))
    cfg = rs.MeanChainConfig(burn_in=200, thinning=5)
    _, log_target = _log_target(model, region, 100, local_cumulants(model, np.zeros(model.s)))
    reference = _solve_tilt_target(model, region, 100)
    lower_branch = set()
    for seed in range(51, 56):
        states, diag = rs.run_chain(model, region, 100, cfg, 60, np.random.default_rng(seed))
        assert diag.target_kind == "saddlepoint" and diag.acceptance_rate > 0
        expected, rate = _uncached_chain(model, region, 100, cfg, 60,
                                         np.random.default_rng(seed), _solve_tilt_target)
        assert np.array_equal(states, expected)
        assert diag.acceptance_rate == rate
        lower_branch.update((states[:, 0] < 1.0).tolist())
        # the target to the bit, at the states and at proposals around them
        gen = np.random.default_rng(seed)
        for v in np.concatenate((states, states + 0.05 * gen.standard_normal(states.shape))):
            assert log_target(v.tolist()) == reference(v)
    if case == "exponential-union":  # the chains visit both components
        assert lower_branch == {True, False}


def test_chain_diagnostics_at_fig1_d5():
    # fig1's d = 5 chain barely moves: few distinct points and a warning;
    # at d = 1 it mixes and stays quiet
    cfg = rs.MeanChainConfig(burn_in=2000, thinning=25)
    model, region, _, _ = _fig1_chain_setup(5)
    with pytest.warns(RuntimeWarning, match="acceptance"):
        states, diag = rs.run_chain(model, region, 100, cfg, 200, np.random.default_rng(2))
    assert 0 < diag.acceptance_rate < meanchain.LOW_ACCEPTANCE
    assert diag.distinct_points == len(np.unique(states, axis=0)) < 200
    model, region, _, _ = _fig1_chain_setup(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, diag = rs.run_chain(model, region, 100, cfg, 200, np.random.default_rng(2))
    assert diag.distinct_points == len(np.unique(states, axis=0))
