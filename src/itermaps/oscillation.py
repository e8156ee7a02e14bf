"""Monotone-piece and crossing counts for iterated maps, and entropy estimates.

Both counts come from one walk over the critical orbit c_j = f^j(c),
c = ``m.apex_x`` (kneading theory; Milnor & Thurston, LNM 1342, 1988).  A
lap of f^n maps monotonically onto an interval (lo, hi) with ends in {0} and
{c_1, ..., c_n}; laps are kept by image with big-integer multiplicities,
starting from two onto (0, c_1).  Under f a lap splits into (f(lo), c_1)
and (f(hi), c_1) exactly when lo < c < hi, and otherwise maps onto the
sorted (f(lo), f(hi)).  M(f^n) is the total multiplicity of level n, and
``lap_counts`` returns it for n = 1..k.

So every value the walk compares is one of the at most k + 2 values
0, c_0, ..., c_k, and every image it takes is f(0) = 0 or
f(c_j) = c_(j+1).  The walk computes the orbit once, sorts those values
once and works on their ranks in that order, equal values sharing one: a
table sends rank(c_j) to rank(c_(j+1)) and rank(0) to itself, and the laps
run on pairs of small integers, so no value is compared or hashed at a lap
step.  On exact maps the sort itself compares integers: each value's
numerator over the values' least common denominator.  Only the at most k
images of the last level are mapped back to values.

The crossings of [a, b] by f^k are the laps of f^k whose image covers
[a, b].  No crossing spans two laps: at a split, both halves run through
f^(n-1) on intervals that end at c_1, so the touches of a and b nearest the
turning point are the same touch of f^(n-1), seen from either side, and
have the same level.  On a plateau map f is monotone, though not strictly,
on each side of c, and a monotone surjection keeps the crossings.

On float maps an orbit value within ``maps.SMOOTH_TOL`` of c is snapped to
c; that snap and the one sort are the walk's only float decisions.  The
walk takes no cap: level n holds at most n lap images (tested on random PL
maps), however large M(f^n) grows, so only the knot-by-knot builders of
f^k (``pl.compose``, ``relunet.net_to_pl``) are bounded.
``refuse_oversized`` reads the cap's verdict off M(f^k) before they run.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from . import pl
from .errors import ResourceLimitError
from .maps import SMOOTH_TOL, UnimodalMap


def _ranks(vals: list, exact: bool) -> tuple[list[int], list[int]]:
    """Each value's rank among the distinct values, smallest first, equal
    values sharing one, and for each rank the index of a value of it.

    Exact values are sorted as integer keys over their least common
    denominator, so the sort compares ints, not Fractions; floats are
    sorted as they are."""
    keys = vals
    if exact:
        d = math.lcm(*(v.denominator for v in vals))
        keys = [v.numerator * (d // v.denominator) for v in vals]
    rank, ends = [0] * len(vals), []
    for i in sorted(range(len(vals)), key=keys.__getitem__):
        if not ends or keys[ends[-1]] < keys[i]:
            ends.append(i)
        rank[i] = len(ends) - 1
    return rank, ends


def _walk(m: UnimodalMap, k: int) -> tuple[list[int], Counter]:
    """M(f^n) for n = 1..k, and the lap images of f^k with multiplicities.

    The orbit c_0 = c, ..., c_k is computed once, with f(0) = f(1) = 0 and
    the float snap to c.  One sort of {0, c_0, ..., c_k} gives each value
    its rank (``_ranks``), equal values one rank, and rank(c_j) maps to
    rank(c_(j+1)).  The laps run on (rank, rank) pairs of small integers,
    and only the last level's images are mapped back to values.
    """
    c = m.apex_x
    zero = c - c
    vals = [zero, c]
    for _ in range(k):
        v = vals[-1]
        if v == zero or v == 1:
            # f(0) = f(1) = 0 on every map; SineMap(r)(1.0) is about 1e-16
            y = zero
        else:
            y = m(v)
            if not m.is_exact and abs(y - c) <= SMOOTH_TOL:
                y = c
        vals.append(y)
    # vals[0] is 0 and vals[j + 1] is c_j
    rank, ends = _ranks(vals, m.is_exact)
    image = [0] * len(ends)  # c_k's own image is never asked for
    for i, j in zip(rank[1:-1], rank[2:]):
        image[i] = j
    image[rank[0]] = rank[0]
    rc, r1 = rank[1], rank[2]
    laps = {(rank[0], r1): 2}
    counts = [2]
    for _ in range(k - 1):
        nxt = defaultdict(int)
        for (lo, hi), mult in laps.items():
            flo, fhi = image[lo], image[hi]
            if lo < rc < hi:
                nxt[flo, r1] += mult
                nxt[fhi, r1] += mult
            elif flo < fhi:
                nxt[flo, fhi] += mult
            else:
                nxt[fhi, flo] += mult
        laps = nxt
        counts.append(sum(laps.values()))
    return counts, Counter({(vals[ends[lo]], vals[ends[hi]]): mult
                            for (lo, hi), mult in laps.items()})


def lap_counts(m: UnimodalMap, k: int) -> list[int]:
    """M(f^n) for n = 1..k by the lap walk: exact on exact maps,
    ``SMOOTH_TOL`` snap on float maps; uncapped, since the walk stores k
    lap images at most."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not m.strictly_unimodal:
        raise ValueError(f"{m.kind} map has no unique maximizer")
    return _walk(m, k)[0]


def refuse_oversized(m: UnimodalMap, k: int, cap: int):
    """Raise ``pl.compose``'s cap error, before f^k is built, if f^k of a
    strictly unimodal m has more knots than cap: its M(f^k) - 1 turning
    points and its two ends are knots.  M(f^k) <= 2^k, so the lap walk
    runs only when 2^k reaches the cap."""
    if (m.strictly_unimodal and 2**k >= cap
            and lap_counts(m, k)[-1] + 1 > cap):
        raise ResourceLimitError(f"composition exceeds {cap} knots")


def count_crossings_map(m: UnimodalMap, k: int, a, b) -> int:
    """Crossings of [a,b] by f^k: the laps of f^k whose image covers [a,b]
    (module docstring), with the snap of ``lap_counts`` and no cap."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a, b = (pl.rat(a), pl.rat(b)) if m.is_exact else (float(a), float(b))
    if not (0 <= a < b <= 1):
        raise ValueError("need 0 <= a < b <= 1")
    laps = _walk(m, k)[1]
    return sum(mult for (lo, hi), mult in laps.items() if lo <= a and b <= hi)


@dataclass(frozen=True)
class GrowthSeries:
    """M(f^k) for k = 1..K together with the entropy rates ln(M)/k."""

    counts: tuple[int, ...]
    rates: tuple[float, ...]

    @property
    def entropy(self) -> float:
        """Windowed log-rate ln(M(K)/M(K/2)) / (K - K/2), natural-log units.

        The per-k rate ln(M(f^k))/k carries an ln(C)/k bias from the growth
        constant C; differencing over the trailing window cancels it, which
        the 5%-at-K=14 convergence checks need.
        """
        k_hi = len(self.counts)
        k_lo = k_hi // 2  # >= 1: entropy_estimate needs k_max >= 2
        return math.log(self.counts[k_hi - 1] / self.counts[k_lo - 1]) / (
            k_hi - k_lo)

    def geometric_rate(self, k_lo: int, k_hi: int) -> float:
        """(M(f^k_hi)/M(f^k_lo))^(1/(k_hi-k_lo)): per-step growth factor."""
        c = self.counts
        if not 1 <= k_lo < k_hi <= len(c):
            raise ValueError(f"need 1 <= k_lo < k_hi <= {len(c)}")
        return (c[k_hi - 1] / c[k_lo - 1]) ** (1.0 / (k_hi - k_lo))


def entropy_estimate(m: UnimodalMap, k_max: int) -> GrowthSeries:
    """Counts and rates up to k_max; the last rate estimates h_top.

    Counts come from ``lap_counts`` (same snap, no cap).  The estimate is
    heuristic (finite k); decision rules for zero-vs-positive entropy live
    with the callers; the growth factor rho = exp(rate) is reported
    separately to avoid conflating the two units.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    counts = tuple(lap_counts(m, k_max))
    rates = tuple(math.log(c) / k for k, c in enumerate(counts, start=1))
    return GrowthSeries(counts=counts, rates=rates)
