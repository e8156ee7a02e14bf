"""Monotone-piece and crossing counts for iterated maps, and entropy estimates.

Laps are counted from the critical orbit c_j = f^j(c), c = ``m.apex_x``
(kneading recursion; Milnor & Thurston, LNM 1342, 1988).  A lap of f^k maps
monotonically onto an interval (lo, hi) with ends in {0} and {c_j}; laps are
kept by image with big-integer multiplicities, starting from two onto
(0, c_1).  Under f a lap splits into (f(lo), c_1) and (f(hi), c_1) exactly
when lo < c < hi, and otherwise maps onto the sorted (f(lo), f(hi)).  On
float maps an orbit value within ``maps.SMOOTH_TOL`` of c is snapped to c.
``cap`` bounds M(f^k) - 1, the turning points of f^k (the nodes of the
critical preimage tree, never built); ``ResourceLimitError`` is raised at
the first k where it is exceeded.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass

from . import pl
from .errors import NotPiecewiseLinear, ResourceLimitError
from .maps import PREIMAGE_DEDUP_TOL, SMOOTH_TOL, UnimodalMap

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


def _lap_counts(m: UnimodalMap, k_max: int, cap: int) -> list[int]:
    """M(f^k) for k = 1..k_max by the kneading recursion (module docstring)."""
    if not m.strictly_unimodal:
        raise ValueError(f"{m.kind} map has no unique maximizer")
    c = m.apex_x
    def f(v):
        y = m(v)
        return c if not m.is_exact and abs(y - c) <= SMOOTH_TOL else y

    c1 = f(c)
    laps = {(0 * c, c1): 2}
    counts = [2]
    for k in range(2, k_max + 1):
        nxt = Counter()
        for (lo, hi), mult in laps.items():
            flo, fhi = f(lo), f(hi)
            if lo < c < hi:
                nxt[flo, c1] += mult
                nxt[fhi, c1] += mult
            else:
                nxt[min(flo, fhi), max(flo, fhi)] += mult
        laps = nxt
        counts.append(sum(laps.values()))
        if counts[-1] - 1 > cap:
            raise ResourceLimitError(f"preimage tree exceeds {cap} nodes")
    return counts


def count_monotone(m: UnimodalMap, k: int, cap: int = DEFAULT_NODE_CAP) -> int:
    """M(f^k) by the lap recursion: exact on exact maps, ``SMOOTH_TOL`` snap
    on float maps; raises ``ResourceLimitError`` once M(f^k) - 1 > cap."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _lap_counts(m, k, cap)[-1]


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

    Counts come from the lap recursion of ``count_monotone`` (same snap and
    cap).  The estimate is heuristic (finite k); decision rules for
    zero-vs-positive entropy live with the callers; the growth factor rho =
    exp(rate) is reported separately to avoid conflating the two units.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    counts = tuple(_lap_counts(m, k_max, cap))
    rates = tuple(math.log(c) / k for k, c in enumerate(counts, start=1))
    return GrowthSeries(counts=counts, rates=rates)
