import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import raresum as rs
from raresum.errors import ConfigurationError
from raresum.region import (
    Interval,
    IntervalUnion,
    component_boxes,
    contains_rows,
    normalize_intervals,
    parse_interval_union,
)


def test_contains_two_sided():
    region = rs.two_sided_region(0.28, 1)
    assert rs.contains(region, [0.30])
    assert not rs.contains(region, [0.0])
    assert not rs.contains(region, [0.28])  # strict inequality per definition


def test_nan_is_never_inside():
    assert not rs.contains(rs.two_sided_region(0.28, 1), [math.nan])
    assert not rs.contains(rs.whole_space(2), [0.0, math.nan])


def test_contains_product():
    region = rs.ProductRegion((
        IntervalUnion((Interval(0.3, 0.4),)),
        IntervalUnion((Interval(0.1, 0.2),)),
    ))
    assert not rs.contains(region, [0.35, 0.05])
    assert rs.contains(region, [0.35, 0.15])


def test_contains_honors_endpoint_closedness():
    u = IntervalUnion((Interval(0.0, 1.0, lower_closed=False, upper_closed=True),))
    assert not u.contains(0.0)
    assert u.contains(1.0)
    assert u.contains(0.5)


def test_contains_rows_matches_contains():
    # the estimators test membership of a whole block of path means at once:
    # open and closed endpoints, infinite bounds and NaN as contains has them
    region = rs.ProductRegion((
        IntervalUnion((Interval(-math.inf, -0.3, upper_closed=False), Interval(0.3, 0.5),
                       Interval(1.0, math.inf, lower_closed=False))),
        IntervalUnion((Interval(0.0, 1.0, lower_closed=False, upper_closed=True),)),
    ))
    values = [-math.inf, -0.3, -0.2, 0.0, 0.3, 0.4, 0.5, 1.0, 2.0, math.inf, math.nan]
    V = np.array([[a, b] for a in values for b in values])
    assert contains_rows(region, V).tolist() == [rs.contains(region, v) for v in V]


def test_dimension_mismatch_is_usage_error():
    region = rs.two_sided_region(0.28, 2)
    with pytest.raises(ConfigurationError):
        rs.contains(region, [0.3])


def test_clamp_distance_examples():
    one_sided = rs.ProductRegion((IntervalUnion((Interval(0.28, math.inf),)),))
    assert rs.clamp_distance(one_sided, [0.2]) == pytest.approx(0.08)
    assert rs.clamp_distance(one_sided, [0.5]) == 0.0
    two_sided = rs.two_sided_region(0.28, 1)
    assert rs.clamp_distance(two_sided, [0.0]) == pytest.approx(0.28)


def test_initial_point_examples(gauss_005):
    one_sided = rs.ProductRegion((IntervalUnion((Interval(0.28, math.inf),)),))
    assert rs.initial_point(one_sided, gauss_005, 100) == pytest.approx([0.38])
    two_sided = rs.two_sided_region(0.28, 1)
    assert rs.initial_point(two_sided, gauss_005, 100) == pytest.approx([0.38])
    finite = rs.ProductRegion((IntervalUnion((Interval(0.3, 0.4),)),))
    assert rs.initial_point(finite, gauss_005, 100) == pytest.approx([0.35])


def test_initial_point_empty_region_errors(gauss_005):
    empty = rs.ProductRegion((IntervalUnion(()),))
    with pytest.raises(ConfigurationError):
        rs.initial_point(empty, gauss_005, 100)


def test_normalization_merges_and_sorts():
    u = IntervalUnion((
        Interval(2.0, 3.0),
        Interval(0.0, 1.0),
        Interval(0.5, 1.5),
    ))
    assert [iv.lower for iv in u.intervals] == [0.0, 2.0]
    assert u.intervals[0].upper == 1.5


def test_normalization_keeps_open_touch_separate():
    u = IntervalUnion((
        Interval(0.0, 1.0, upper_closed=False),
        Interval(1.0, 2.0, lower_closed=False),
    ))
    assert len(u.intervals) == 2
    assert not u.contains(1.0)


def test_normalization_merges_closed_touch():
    u = IntervalUnion((
        Interval(0.0, 1.0, upper_closed=True),
        Interval(1.0, 2.0, lower_closed=False),
    ))
    assert len(u.intervals) == 1


def test_parse_interval_union_round_trip():
    u = parse_interval_union("(-inf,-0.28] [0.3, 0.4) (1,inf)")
    assert len(u.intervals) == 3
    assert u.contains(-0.28)
    assert not u.contains(0.4)
    again = parse_interval_union(str(u))
    assert again == u


def test_parse_rejects_bad_syntax():
    with pytest.raises(ConfigurationError):
        parse_interval_union("0.3 to 0.4")
    with pytest.raises(ConfigurationError):
        parse_interval_union("[0.4, 0.3]")
    with pytest.raises(ConfigurationError):
        parse_interval_union("[nan, 1.0]")
    with pytest.raises(ConfigurationError):
        rs.two_sided_region(math.nan, 1)


def test_component_boxes_counts():
    region = rs.two_sided_region(0.28, 3)
    assert len(component_boxes(region)) == 8


finite_interval = st.tuples(
    st.floats(-50, 50), st.floats(0.01, 10), st.booleans(), st.booleans()
).map(lambda t: Interval(t[0], t[0] + t[1], t[2], t[3]))


@given(st.lists(finite_interval, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_normalization_idempotent(intervals):
    once = normalize_intervals(intervals)
    twice = normalize_intervals(once)
    assert once == twice


@given(st.lists(finite_interval, min_size=1, max_size=4), st.data())
@settings(max_examples=40, deadline=None)
def test_contains_matches_brute_union(intervals, data):
    u = IntervalUnion(tuple(intervals))
    x = data.draw(st.floats(-70, 70))
    brute = any(iv.contains(x) for iv in intervals)
    assert u.contains(x) == brute


@given(st.lists(finite_interval, min_size=1, max_size=3),
       st.lists(finite_interval, min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_initial_point_lands_inside(i1, i2):
    model = rs.builtin_model("gaussian-mean", mu=0.0, sigma=1.0, d=2)
    region = rs.ProductRegion((IntervalUnion(tuple(i1)), IntervalUnion(tuple(i2))))
    point = rs.initial_point(region, model, 50)
    assert rs.contains(region, point)


def test_contains_matches_grid_scan(gauss_005):
    gen = np.random.default_rng(2)
    for _ in range(5):
        a, w1 = gen.uniform(-2, 2), gen.uniform(0.1, 1)
        b, w2 = gen.uniform(-2, 2), gen.uniform(0.1, 1)
        u = IntervalUnion((Interval(a, a + w1), Interval(b, b + w2)))
        region = rs.ProductRegion((u,))
        xs = np.linspace(-4, 4, 1000)
        for x in xs[::37]:
            brute = (a <= x <= a + w1) or (b <= x <= b + w2)
            assert rs.contains(region, [x]) == brute
