"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line.  Expected values come from independent oracles: closed-form
normal CDF algebra, exact multivariate-normal conditioning, grid quadrature,
and Cochran's theorem for the mean-and-square event."""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

import raresum as rs
from helpers import (
    CONFIG_DIR,
    NEGATIVE_SPLIT,
    P_ONE_DIM,
    conditional_head_oracle,
    expected_weight_by_quadrature,
    mean_square_probability,
    run_experiment_point,
    walk_one,
)


def report(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


_FIG1_ELAPSED = {}


@pytest.fixture(scope="module")
def fig1_csv(tmp_path_factory):
    """One CLI run of the bundled dimension sweep; rows keyed by (d, scheme)."""
    from raresum.cli import run_experiment

    out = tmp_path_factory.mktemp("fig1") / "fig1.csv"
    start = time.perf_counter()
    rc = run_experiment(str(CONFIG_DIR / "fig1.cfg"), threads=1, out=str(out))
    _FIG1_ELAPSED["seconds"] = time.perf_counter() - start
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    rows = {}
    for line in lines[1:]:
        f = line.split(",")
        rows[(int(f[3]), f[0])] = {
            "p_hat": float(f[7]), "std_error": float(f[8]),
            "relative_error": float(f[9]), "weight_cv": float(f[10]),
            "hit_rate": float(f[11]), "aborts": int(f[12]),
        }
    assert len(rows) == 10  # five sweep points, two schemes
    return rows


@pytest.fixture(scope="module")
def fig1_elapsed():
    return lambda: _FIG1_ELAPSED["seconds"]


@pytest.fixture(scope="module")
def fig1_point():
    cache = {}

    def get(d, scheme):
        if (d, scheme) not in cache:
            cache[(d, scheme)] = run_experiment_point("fig1.cfg", d, scheme)
        return cache[(d, scheme)]

    return get


def test_criterion_1_gaussian_conditional_exactness(std_gauss):
    n, k = 10, 9
    v = 0.4
    oracle = conditional_head_oracle(n, k, v)
    gen = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        points, head, _, _ = walk_one(std_gauss, [v], n, k, gen, "uniform-step")
        worst = max(worst, abs(head - oracle.logpdf(points[:k, 0])))
    elapsed = time.perf_counter() - start
    report(1, f"gaussian conditional exactness (max |diff| = {worst:.2e}, "
              f"{elapsed:.2f}s)", worst < 1e-8 and elapsed < 1.0)


def test_criterion_2_one_dim_probability(fig1_point, fig1_csv):
    rep = fig1_point(1, "adaptive")
    # the library call reproduces the CLI row exactly
    assert rep.p_hat == pytest.approx(fig1_csv[(1, "adaptive")]["p_hat"], rel=1e-11)
    gap = abs(rep.p_hat - P_ONE_DIM)
    ok = (gap <= 3 * rep.std_error and rep.relative_error < 0.15
          and rep.wall_time < 30.0)
    report(2, f"d=1 probability (p_hat={rep.p_hat:.4e}, oracle={P_ONE_DIM:.4e}, "
              f"gap={gap / rep.std_error:.2f} se, rel={rep.relative_error:.3f}, "
              f"{rep.wall_time:.1f}s)", ok)


def test_criterion_3_two_sided_coverage(fig1_point):
    rep = fig1_point(1, "adaptive")
    hit_share, mass_share = rep.negative_branch_shares()
    tilted = fig1_point(1, "tilted-iid")
    _, tilted_mass = tilted.negative_branch_shares()
    tilted_zero = (tilted_mass == 0.0) or math.isnan(tilted_mass) \
        or not np.any(tilted.details.path_mean[tilted.details.hits, 0] < 0)
    ok = (NEGATIVE_SPLIT / 2 <= mass_share <= NEGATIVE_SPLIT * 2
          and NEGATIVE_SPLIT / 2 <= hit_share <= NEGATIVE_SPLIT * 2
          and tilted_zero)
    report(3, f"two-sided coverage (mass share={mass_share:.4f}, "
              f"hit share={hit_share:.4f}, oracle={NEGATIVE_SPLIT:.4f}, "
              f"tilted negative mass zero={tilted_zero})", ok)


def test_criterion_4_dimension_sweep(fig1_csv, fig1_elapsed):
    ok = True
    details = []
    for d in (2, 3, 4, 5):
        ra = fig1_csv[(d, "adaptive")]
        rt = fig1_csv[(d, "tilted-iid")]
        oracle = P_ONE_DIM**d
        z = (ra["p_hat"] - oracle) / ra["std_error"]
        good = abs(z) <= 3 and ra["relative_error"] < rt["relative_error"]
        ok = ok and good
        details.append(f"d={d}: z={z:+.2f}, rel {ra['relative_error']:.3f} vs "
                       f"{rt['relative_error']:.3f}")
    ok = ok and fig1_elapsed() < 300.0
    report(4, "dimension sweep (" + "; ".join(details) +
              f"; full sweep {fig1_elapsed():.0f}s)", ok)


def test_criterion_5_unbiasedness_under_any_v(std_gauss):
    truth = float(norm.sf(0.3 * math.sqrt(2)))
    worst = 0.0
    for v in (0.31, 0.35, 0.4, 0.5, 0.7):
        ew, total_g = expected_weight_by_quadrature(std_gauss, v, threshold=0.3)
        worst = max(worst, abs(ew - truth), abs(total_g - 1.0))
    report(5, f"conditional weight identity by quadrature "
              f"(max |dev| = {worst:.2e})", worst <= 1e-4)


def test_criterion_6_tilt_solver():
    gen = np.random.default_rng(606)
    worst = 0.0
    cases = []
    gauss = rs.builtin_model("gaussian-mean", mu=0.05, sigma=1.0, d=1)
    cases += [(gauss, np.array([gen.uniform(-2, 2)])) for _ in range(50)]
    expo = rs.builtin_model("exponential-mean", rate=1.0)
    cases += [(expo, np.array([gen.uniform(0.2, 4.0)])) for _ in range(50)]
    ms = rs.builtin_model("gaussian-mean-and-square", mu=0.0, sigma=1.0)
    for _ in range(50):
        m1 = gen.uniform(-1.5, 1.5)
        cases.append((ms, np.array([m1, m1 * m1 + gen.uniform(0.2, 2.5)])))
    for model, alpha in cases:
        sol = rs.solve_tilt(model, alpha)
        worst = max(worst, float(np.max(np.abs(rs.mean_map(model, sol.t) - alpha))))
    # closed forms: t = alpha - mu for the unit Gaussian, t = rate - 1/alpha
    # for the exponential
    closed = max(
        abs(rs.solve_tilt(gauss, [0.28]).t[0] - 0.23),
        abs(rs.solve_tilt(expo, [2.0]).t[0] - 0.5),
    )
    report(6, f"tilt solver round trips (worst residual {worst:.2e}, "
              f"closed-form dev {closed:.2e})", worst <= 1e-8 and closed <= 1e-9)


def test_criterion_7_multi_constraint_smoke():
    rep = run_experiment_point("mean_square_smoke.cfg", None, "adaptive")
    region = rs.load_config(str(CONFIG_DIR / "mean_square_smoke.cfg")).instantiate(None)[1]
    truth = mean_square_probability(region, rep.n)
    gap = abs(rep.p_hat - truth)
    report(7, f"two-constraint smoke (p_hat={rep.p_hat:.4e}, "
              f"exact={truth:.6e}, gap={gap / rep.std_error:.2f} se, "
              f"aborts={rep.aborts})", gap <= 4 * rep.std_error)


def test_criterion_8_cli_determinism(tmp_path):
    from raresum.cli import run_experiment

    cfg = str(CONFIG_DIR / "whole_space_naive.cfg")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = run_experiment(cfg, threads=1, out=str(out1))
    rc2 = run_experiment(cfg, threads=1, out=str(out2))
    same = out1.read_bytes() == out2.read_bytes()
    report(8, f"CLI determinism (exit codes {rc1},{rc2}, byte-identical={same})",
           rc1 == 0 and rc2 == 0 and same)
