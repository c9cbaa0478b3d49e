"""Target sets: products over constraints of finite unions of intervals.

Membership has one rule, an interval's closed float `span`: a union keeps
its intervals' spans, which `contains`, `contains_rows` and the conditioning
chain's target read."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import product as _cartesian
from typing import Iterable

import numpy as np

from .errors import ConfigurationError
from .model import ModelSpec, local_cumulants

# Most connected components a region may have, for the baselines' dominating
# point and the chain's restart kernel, which visit every one.
MAX_COMPONENTS = 4096


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        # Infinite endpoints are necessarily open.
        if math.isinf(lo):
            object.__setattr__(self, "lower_closed", False)
        if math.isinf(hi):
            object.__setattr__(self, "upper_closed", False)

    @property
    def is_empty(self) -> bool:
        if self.lower > self.upper:
            return True
        if self.lower == self.upper:
            return not (self.lower_closed and self.upper_closed)
        return False

    @property
    def span(self) -> tuple:
        """The closed float interval (a, b) holding exactly the members: an
        open endpoint moves one float inward, as x > a iff x >= nextafter(a, inf)."""
        return (self.lower if self.lower_closed else math.nextafter(self.lower, math.inf),
                self.upper if self.upper_closed else math.nextafter(self.upper, -math.inf))

    def contains(self, x: float) -> bool:
        a, b = self.span  # every comparison with NaN is false: NaN is never a member
        return a <= x <= b

    def distance(self, x: float) -> float:
        """Distance to the closure (endpoint openness does not matter)."""
        if x < self.lower:
            return self.lower - x
        if x > self.upper:
            return x - self.upper
        return 0.0

    def __str__(self) -> str:
        lb = "[" if self.lower_closed else "("
        rb = "]" if self.upper_closed else ")"
        return f"{lb}{_fmt_endpoint(self.lower)},{_fmt_endpoint(self.upper)}{rb}"


def _fmt_endpoint(v: float) -> str:
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return format(v, ".12g")


def _merge(a: Interval, b: Interval) -> Interval | None:
    """Merge b into a if they overlap or touch; intervals sorted by lower."""
    if b.lower > a.upper:
        return None
    if b.lower == a.upper and not (a.upper_closed or b.lower_closed):
        return None
    if b.upper > a.upper or (b.upper == a.upper and b.upper_closed):
        upper, upper_closed = b.upper, b.upper_closed
    else:
        upper, upper_closed = a.upper, a.upper_closed
    lower_closed = a.lower_closed or (b.lower == a.lower and b.lower_closed)
    return Interval(a.lower, upper, lower_closed, upper_closed)


def normalize_intervals(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    """Sorted, pairwise-disjoint, non-touching representation of a union."""
    kept = [iv for iv in intervals if not iv.is_empty]
    kept.sort(key=lambda iv: (iv.lower, not iv.lower_closed))
    out: list[Interval] = []
    for iv in kept:
        if out:
            merged = _merge(out[-1], iv)
            if merged is not None:
                out[-1] = merged
                continue
        out.append(iv)
    return tuple(out)


@dataclass(frozen=True)
class IntervalUnion:
    intervals: tuple
    spans: tuple = field(init=False, repr=False, compare=False)  # each interval's span

    def __post_init__(self):
        object.__setattr__(self, "intervals", normalize_intervals(self.intervals))
        object.__setattr__(self, "spans", tuple(iv.span for iv in self.intervals))

    @property
    def is_empty(self) -> bool:
        return len(self.intervals) == 0

    def contains(self, x: float) -> bool:
        for a, b in self.spans:
            if a <= x <= b:
                return True
        return False

    def distance(self, x: float) -> float:
        if self.is_empty:
            return math.inf
        return min(iv.distance(x) for iv in self.intervals)

    def nearest(self, x: float) -> Interval:
        if self.is_empty:
            raise ConfigurationError("empty interval union has no nearest interval")
        return min(self.intervals, key=lambda iv: (iv.distance(x), iv.lower))

    def __str__(self) -> str:
        return " ".join(str(iv) for iv in self.intervals)


@dataclass(frozen=True)
class ProductRegion:
    """Membership is the conjunction of per-coordinate interval-union checks."""

    components: tuple

    def __post_init__(self):
        comps = tuple(c if isinstance(c, IntervalUnion) else IntervalUnion(tuple(c))
                      for c in self.components)
        if not comps:
            raise ConfigurationError("a region needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def s(self) -> int:
        return len(self.components)

    @property
    def is_empty(self) -> bool:
        return any(c.is_empty for c in self.components)

    def __str__(self) -> str:
        return " x ".join(f"{{{c}}}" for c in self.components)


def contains(region: ProductRegion, v) -> bool:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (region.s,):
        raise ConfigurationError(f"point must have shape ({region.s},), got {v.shape}")
    # Plain loops over Python floats: the chain target and the i.i.d.
    # estimators call this once per point.
    for c, x in zip(region.components, v.tolist()):
        if not c.contains(x):
            return False
    return True


def contains_rows(region: ProductRegion, V) -> np.ndarray:
    """contains for every row of the array V (R, s), as a bool array (R,)."""
    inside = np.ones(len(V), dtype=bool)
    for c, x in zip(region.components, V.T):
        inside &= np.any([(a <= x) & (x <= b) for a, b in c.spans], axis=0)
    return inside


def clamp_distance(region: ProductRegion, v) -> float:
    """Euclidean distance from v to the region (0 inside).

    The region is a product, so the nearest point factorizes coordinate-wise.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    gaps = [c.distance(float(x)) for c, x in zip(region.components, v)]
    return float(math.sqrt(sum(g * g for g in gaps)))


def _component_entry_point(union: IntervalUnion, center: float, scale: float) -> float:
    iv = union.nearest(center)
    lo_fin, hi_fin = math.isfinite(iv.lower), math.isfinite(iv.upper)
    if lo_fin and hi_fin:
        return 0.5 * (iv.lower + iv.upper)
    if lo_fin:
        return iv.lower + scale
    if hi_fin:
        return iv.upper - scale
    return center


def initial_point(region: ProductRegion, model: ModelSpec, n: int) -> np.ndarray:
    """A point inside the region, near where the conditioned mean concentrates.

    Per coordinate: midpoint of the finite interval nearest to the
    unconditioned mean, or the finite endpoint plus/minus one standard
    deviation of the sample mean (sqrt(kappa_jj(0)/n)) for half-infinite
    intervals.
    """
    if region.is_empty:
        raise ConfigurationError("region is empty")
    if region.s != model.s:
        raise ConfigurationError("region and model constraint counts differ")
    loc = local_cumulants(model, np.zeros(model.s))
    scales = np.sqrt(np.diagonal(loc.covariance) / n)
    point = np.array([
        _component_entry_point(c, float(loc.mean[j]), float(scales[j]))
        for j, c in enumerate(region.components)
    ])
    if not contains(region, point):
        # Degenerate half-open intervals narrower than one scale: fall back to
        # the midpoint-style nudge just inside the nearest interval.
        fixed = []
        for j, c in enumerate(region.components):
            x = point[j]
            if c.contains(x):
                fixed.append(x)
                continue
            iv = c.nearest(x)
            lo = iv.lower if math.isfinite(iv.lower) else iv.upper - 1.0
            hi = iv.upper if math.isfinite(iv.upper) else iv.lower + 1.0
            fixed.append(0.5 * (lo + hi))
        point = np.array(fixed)
    return point


def component_boxes(region: ProductRegion) -> list[tuple]:
    """Connected components of the region, as tuples of per-coordinate
    intervals; ConfigurationError for more than MAX_COMPONENTS of them."""
    sizes = [len(c.intervals) for c in region.components]
    total = math.prod(sizes) if sizes else 0
    if total > MAX_COMPONENTS:
        raise ConfigurationError(
            f"region has {total} components, more than the cap {MAX_COMPONENTS}")
    return list(_cartesian(*[c.intervals for c in region.components]))


# ---------------------------------------------------------------------------
# Textual interval syntax used by the experiment configuration:
# a whitespace-separated list of "[a,b]" / "(a,b)" pairs, endpoints may be
# "inf" / "-inf".
# ---------------------------------------------------------------------------

_INTERVAL_RE = re.compile(r"([\[\(])\s*([^,\s\]\)]+)\s*,\s*([^,\s\]\)]+)\s*([\]\)])")


def _parse_endpoint(tok: str) -> float:
    t = tok.strip().lower()
    if t in ("inf", "+inf", "infinity"):
        return math.inf
    if t in ("-inf", "-infinity"):
        return -math.inf
    try:
        value = float(tok)
    except ValueError:
        raise ConfigurationError(f"cannot parse interval endpoint {tok!r}") from None
    if math.isnan(value):
        raise ConfigurationError(f"interval endpoint {tok!r} is not a number")
    return value


def parse_interval_union(text: str) -> IntervalUnion:
    matches = list(_INTERVAL_RE.finditer(text))
    if not matches:
        raise ConfigurationError(f"no intervals found in {text!r}")
    covered = "".join(m.group(0) for m in matches)
    stripped = re.sub(r"\s+", "", text)
    if re.sub(r"\s+", "", covered) != stripped:
        raise ConfigurationError(f"unrecognized interval syntax in {text!r}")
    intervals = []
    for m in matches:
        lb, lo_tok, hi_tok, rb = m.groups()
        intervals.append(Interval(
            _parse_endpoint(lo_tok), _parse_endpoint(hi_tok),
            lower_closed=(lb == "["), upper_closed=(rb == "]"),
        ))
    for iv in intervals:
        if iv.is_empty:
            raise ConfigurationError(f"empty interval {iv} in {text!r}")
    return IntervalUnion(tuple(intervals))


def two_sided_region(threshold: float, s: int) -> ProductRegion:
    """{|v_j| > threshold for every j}, the two-branch set per coordinate."""
    if not threshold > 0:
        raise ConfigurationError("two-sided threshold must be positive")
    union = IntervalUnion((
        Interval(-math.inf, -threshold, upper_closed=False),
        Interval(threshold, math.inf, lower_closed=False),
    ))
    return ProductRegion(tuple(union for _ in range(s)))


def whole_space(s: int) -> ProductRegion:
    return ProductRegion(tuple(IntervalUnion((Interval(-math.inf, math.inf),))
                               for _ in range(s)))
