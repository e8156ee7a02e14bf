"""Monotone-piece and crossing counts for iterated maps, and entropy estimates.

A strictly unimodal map's iterate f^k has a local extremum exactly at the
points whose orbit hits the maximizer within the first k-1 steps, so

    M(f^k) = 1 + |union_{j=0}^{k-1} f^{-j}(x_apex)|.

The union is computed by breadth-first preimage expansion with global
deduplication; at super-stable parameters the critical orbit returns to the
maximizer and distinct tree levels intersect, so summing level sizes would
over-count.  For PL kinds the result is cross-checked against the exact PL
engine in the test suite.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

from . import pl
from .errors import NotPiecewiseLinear, ResourceLimitError
from .maps import PREIMAGE_DEDUP_TOL, UnimodalMap

DEFAULT_NODE_CAP = 10**7


class _FloatSet:
    """Sorted float collection with tolerance-based membership."""

    def __init__(self, tol):
        self.xs: list[float] = []
        self.tol = tol

    def add(self, x: float) -> bool:
        i = bisect.bisect_left(self.xs, x)
        for j in (i - 1, i):
            if 0 <= j < len(self.xs) and abs(self.xs[j] - x) <= self.tol:
                return False
        self.xs.insert(i, x)
        return True

    def __len__(self):
        return len(self.xs)


def _apex(m: UnimodalMap):
    if not m.strictly_unimodal:
        raise ValueError(f"{m.kind} map has no unique maximizer")
    if hasattr(m, "apex_x"):
        return m.apex_x
    return Fraction(1, 2) if m.is_exact else 0.5


def _expand_union(m: UnimodalMap, levels: int, cap: int):
    """Visited-set sizes after 0..levels preimage expansions of the apex."""
    apex = _apex(m)
    if m.is_exact:
        seen = {apex}
        add = lambda x: x not in seen and (seen.add(x) or True)
        size = seen.__len__
    else:
        fs = _FloatSet(PREIMAGE_DEDUP_TOL)
        fs.add(apex)
        add = fs.add
        size = fs.__len__
    sizes = [1]
    frontier = [apex]
    for _ in range(levels):
        nxt = []
        for y in frontier:
            for x in m.preimages(y):
                if add(x):
                    nxt.append(x)
            if size() > cap:
                raise ResourceLimitError(f"preimage tree exceeds {cap} nodes")
        frontier = nxt
        sizes.append(size())
    return sizes


def count_monotone(m: UnimodalMap, k: int, cap: int = DEFAULT_NODE_CAP) -> int:
    """Exact number of monotone pieces of f^k via the critical preimage tree."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1 + _expand_union(m, k - 1, cap)[-1]


def count_crossings_map(m: UnimodalMap, k: int, a, b,
                        cap: int = DEFAULT_NODE_CAP) -> int:
    """Crossings of [a,b] by f^k.

    PL kinds go through exact iteration; smooth kinds expand the full k-level
    preimage sets of the two band edges and count alternations of the merged,
    sorted touch sequence.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        f = m.to_pl()
    except NotPiecewiseLinear:
        f = None
    if f is not None:
        return pl.crossings(pl.iterate(f, k, cap=cap), pl.rat(a), pl.rat(b))

    a, b = float(a), float(b)
    if not (0 <= a < b <= 1):
        raise ValueError("need 0 <= a < b <= 1")
    touches: list[tuple[float, int]] = []
    for level, tag in ((a, 0), (b, 1)):
        layer = [level]
        for _ in range(k):
            nxt = _FloatSet(PREIMAGE_DEDUP_TOL)
            for y in layer:
                for x in m.preimages(y):
                    nxt.add(x)
                if len(nxt) > cap:
                    raise ResourceLimitError(f"level set exceeds {cap} nodes")
            layer = nxt.xs
        touches.extend((x, tag) for x in layer)
    touches.sort()
    count = 0
    prev = None
    for _, tag in touches:
        if prev is not None and tag != prev:
            count += 1
        prev = tag
    return count


@dataclass(frozen=True)
class GrowthSeries:
    """M(f^k) for k = 1..K together with the entropy rates ln(M)/k."""

    counts: tuple[int, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        if any(c <= 0 for c in self.counts):
            raise ValueError("counts must be positive")
        if any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be non-decreasing")

    @property
    def entropy(self) -> float:
        """Windowed log-rate ln(M(K)/M(K/2)) / (K - K/2), natural-log units.

        The per-k rate ln(M(f^k))/k carries an ln(C)/k bias from the growth
        constant C; differencing over the trailing window cancels it, which
        the 5%-at-K=14 convergence checks need.
        """
        k_hi = len(self.counts)
        k_lo = max(1, k_hi // 2)
        if k_hi == k_lo:
            return self.rates[-1]
        return math.log(self.counts[k_hi - 1] / self.counts[k_lo - 1]) / (
            k_hi - k_lo)

    def geometric_rate(self, k_lo: int, k_hi: int) -> float:
        """(M(f^k_hi)/M(f^k_lo))^(1/(k_hi-k_lo)): per-step growth factor."""
        c = self.counts
        if not 1 <= k_lo < k_hi <= len(c):
            raise ValueError(f"need 1 <= k_lo < k_hi <= {len(c)}")
        return (c[k_hi - 1] / c[k_lo - 1]) ** (1.0 / (k_hi - k_lo))

    def to_csv(self) -> str:
        lines = ["k,count,rate"]
        for i, (c, r) in enumerate(zip(self.counts, self.rates), start=1):
            lines.append(f"{i},{c},{r:.12g}")
        return "\n".join(lines) + "\n"


def entropy_estimate(m: UnimodalMap, k_max: int,
                     cap: int = DEFAULT_NODE_CAP) -> GrowthSeries:
    """Counts and rates up to k_max; the last rate estimates h_top.

    The estimate is heuristic (finite k); decision rules for zero-vs-positive
    entropy live with the callers.  The geometric growth factor rho is
    exp(rate), reported separately to avoid conflating the two units.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    sizes = _expand_union(m, k_max - 1, cap)
    counts = tuple(1 + s for s in sizes)
    rates = tuple(math.log(c) / k for k, c in enumerate(counts, start=1))
    return GrowthSeries(counts=counts, rates=rates)
