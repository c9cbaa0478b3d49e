"""Smoke test of the benchmark's oracles, checks and metric arithmetic.

    python3 -m pytest -q raresum_bench/test_smoke.py

Needs neither raresum nor a benchmark run: the checks are fed hand-made
reports with the fields an EstimateReport has.
"""

import math
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import norm

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def fake_report(weights, path_mean_x=None, scheme="adaptive", aborted=None,
                p_hat=None, std_error=None):
    w = np.asarray(weights, dtype=float)
    L = w.size
    aborted = np.zeros(L, bool) if aborted is None else np.asarray(aborted, bool)
    hits = w > 0
    x = np.full(L, 0.3) if path_mean_x is None else np.asarray(path_mean_x, dtype=float)
    p = float(w.mean()) if p_hat is None else p_hat
    se = float(w.std(ddof=1) / math.sqrt(L)) if std_error is None else std_error
    return SimpleNamespace(
        scheme=scheme, L=L, p_hat=p, std_error=se,
        relative_error=se / p if p > 0 else math.nan,
        hit_rate=float(hits.mean()), aborts=int(aborted.sum()),
        details=SimpleNamespace(weights=w, hits=hits, aborted=aborted,
                                path_mean=x.reshape(-1, 1)))


def csv_row(rep):
    return {"scheme": rep.scheme, "L": str(rep.L), "aborts": str(rep.aborts),
            **{k: format(getattr(rep, k), ".12g") for k in
               ("p_hat", "std_error", "relative_error", "hit_rate")}}


def test_gaussian_oracle_values():
    # README of the program: (Phibar(2.3) + Phi(-3.3))^d = 1.1208e-2^d
    assert oracles.P_ONE_DIM == pytest.approx(1.1208e-2, rel=1e-4)
    assert oracles.gauss_probability(5) == pytest.approx(1.1208e-2 ** 5, rel=5e-4)
    assert oracles.NEGATIVE_SPLIT == pytest.approx(norm.cdf(-3.3) / oracles.P_ONE_DIM)
    assert oracles.tilted_limit(2) == pytest.approx(norm.sf(2.3) ** 2)


def test_metric_arithmetic():
    assert oracles.kish_ess_share([1.0, 1.0, 0.0, 0.0]) == pytest.approx(0.5)
    assert oracles.kish_ess_share([0.0, 0.0]) == 0.0
    assert oracles.max_weight_share([1.0, 3.0]) == pytest.approx(0.75)
    assert oracles.wnrv(0.1, 4.0) == pytest.approx(0.04)
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert oracles.spread(values) == pytest.approx((q3 - q1) / 3.0)


def test_count_check_accepts_consistent_and_rejects_broken():
    rep = fake_report([0.0, 0.02, 0.0, 0.03], aborted=[True, False, False, False])
    assert oracles.check_counts(rep, csv_row(rep)) == []
    rep.details.weights[2] = 0.5           # weight on a miss
    assert oracles.check_counts(rep, csv_row(rep))
    rep = fake_report([0.0, 0.02])
    row = csv_row(rep)
    row["p_hat"] = "0.0100001"
    assert oracles.check_counts(rep, row)


def test_pooled_estimate():
    reps = [fake_report([1.0], p_hat=1.0, std_error=0.3),
            fake_report([1.0], p_hat=2.0, std_error=0.4)]
    assert oracles.pooled(reps) == pytest.approx((1.5, 0.25))


def test_gauss_checks():
    P = oracles.P_ONE_DIM
    near = fake_report([P], p_hat=P * 1.1, std_error=P * 0.05)
    far = fake_report([P], p_hat=P * 2, std_error=P * 0.05)
    assert oracles.check_gauss_adaptive([near], 1) == []
    assert oracles.check_gauss_adaptive([far], 1)
    # pooling shrinks the standard error: 1.1 P at 0.05 P each, four times
    assert oracles.adaptive_z([near] * 4, 1) == pytest.approx(4.0)
    lo = oracles.tilted_limit(1)
    assert oracles.check_gauss_tilted([fake_report([lo], p_hat=lo, std_error=lo * 0.1)], 1) == []
    assert oracles.check_gauss_tilted([fake_report([lo], p_hat=lo * 0.3, std_error=lo * 0.1)], 1)


def test_negative_split_check():
    split = oracles.NEGATIVE_SPLIT
    good = fake_report([split, 1.0 - split], path_mean_x=[-0.3, 0.3])
    assert oracles.check_negative_split([good, good]) == []
    none_negative = fake_report([split, 1.0 - split], path_mean_x=[0.3, 0.3])
    assert oracles.check_negative_split([none_negative])


def test_mean_square_check():
    ref = oracles.MEAN_SQUARE_REF
    for factor, ok in ((1.0, True), (0.2, True), (8.0, True), (0.05, False), (20.0, False)):
        rep = fake_report([ref], p_hat=factor * ref, std_error=1e-3)
        assert (oracles.check_mean_square(rep) == []) == ok


def test_round_seeds():
    d1 = run.WORKLOADS["gauss-d1-mixture"]
    ms = run.WORKLOADS["meansquare-paired"]
    assert run.round_seed(d1, 5, 0) == d1.quality_seed
    assert run.round_seed(d1, 5, 1) == run.round_seed(d1, 5, 1) != run.round_seed(d1, 6, 1)
    assert {run.round_seed(ms, s, r) for s in (1, 2) for r in (0, 3)} == {ms.quality_seed}


def test_patched_restores():
    mod = SimpleNamespace(f=len)
    sys.modules["raresum._smoke_fake"] = mod
    try:
        with tracer.patched({len: abs}):
            assert mod.f is abs
        assert mod.f is len
    finally:
        del sys.modules["raresum._smoke_fake"]


def test_same_estimate():
    a = fake_report([0.0, 0.0], p_hat=0.0, std_error=math.nan)
    b = fake_report([0.0, 0.0], p_hat=0.0, std_error=math.nan)
    assert run.same_estimate(a, b)
    assert run.same_estimate(None, None)
    assert not run.same_estimate(a, None)
    b.std_error = 0.1
    assert not run.same_estimate(a, b)
