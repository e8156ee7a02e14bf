"""Periodic orbits, itineraries, regime classification, and forcing order.

A cycle's itinerary is read off by rotating the orbit so it starts at its
smallest point and recording each point's rank in the sorted order.  The
itinerary alone fixes the cycle's regime (``pattern_regime``): a unimodal
cycle pattern has zero entropy exactly when it is a primary power-of-two
pattern, an iterated 2-extension of the fixed point (Alsedà, Llibre &
Misiurewicz, *Combinatorial Dynamics and Entropy in Dimension One*).  Those
patterns are "doubling" and every other one, the increasing "12...p"
included, is "chaotic".

The search runs period by period and is read in that order
(``cycles_by_period``): period p is searched only when the records before
it have been read, so ``classify_regime`` stops at the first chaotic cycle.
Cycles of a PL map come from the exact roots of f^p(x) = x.  f maps those
roots onto themselves, and the ends of a flat piece of f^p - id onto ends,
so the p-cycles are the cycles of length p of the permutation f makes of
the roots.  A smooth map's roots are bisected from grid brackets, one
period at a time, and the grid need not bracket every point of a cycle, so
each root's orbit is stepped out from the root itself.  A root within
FLOAT_MATCH_TOL of a point of an orbit already taken is skipped; an orbit
is dropped when two of its points meet within FLOAT_MATCH_TOL (its minimal
period is smaller) or when it misses closing by more than RESIDUAL_TOL (a
spurious bracket).

A logistic super-stable parameter is solved from the itinerary alone: the
cycle's kneading word, in the unimodal order, bisects r on [1/2, 1].  The
forcing table types only each row's itinerary and published r; its period,
regime and solved r are derived.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import oscillation, pl
from .maps import LogisticMap, UnimodalMap

FLOAT_MATCH_TOL = 1e-8
RESIDUAL_TOL = 1e-9

#: root-bracketing cells per unit period for smooth maps
GRID_PER_PERIOD = 4096


def itinerary_of_points(orbit: Sequence) -> tuple[int, ...]:
    """Itinerary of a cyclically-ordered orbit (successor = next element).

    Rotates the orbit to start at its minimum and assigns each point its
    1-based rank among the sorted points.
    """
    pts = list(orbit)
    if len(set(pts)) != len(pts):
        raise ValueError("orbit points must be distinct")
    start = min(range(len(pts)), key=lambda i: pts[i])
    rotated = pts[start:] + pts[:start]
    rank = {x: i + 1 for i, x in enumerate(sorted(pts))}
    return tuple(rank[x] for x in rotated)


def itinerary_str(itin: tuple[int, ...]) -> str:
    if max(itin) <= 9:
        return "".join(str(a) for a in itin)
    return ",".join(str(a) for a in itin)


def parse_itinerary(text: str) -> tuple[int, ...]:
    if "," in text:
        return tuple(int(t) for t in text.split(","))
    return tuple(int(ch) for ch in text)


def increasing_itinerary(p: int) -> tuple[int, ...]:
    return tuple(range(1, p + 1))


def stefan_itinerary(p: int) -> tuple[int, ...]:
    """Itinerary of the odd-period alternating nested pattern.

    The pattern x_p < x_(p-2) < ... < x_3 < x_1 < x_2 < x_4 < ... < x_(p-1)
    starts its rotation at x_p; ranks follow in closed form.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("Stefan cycles need odd p >= 3")
    out = [1]
    for j in range(1, p):
        if j % 2 == 1:
            out.append((p - j) // 2 + 1)
        else:
            out.append((p + 1 + j) // 2)
    return tuple(out)


@dataclass(frozen=True)
class CycleRecord:
    """A p-cycle in dynamical order starting at its smallest point."""

    period: int
    orbit: tuple
    itinerary: tuple[int, ...]
    residual: float

    @property
    def increasing(self) -> bool:
        return self.itinerary == increasing_itinerary(self.period)

    @property
    def stefan(self) -> bool:
        p = self.period
        return p % 2 == 1 and p >= 3 and self.itinerary == stefan_itinerary(p)

    @property
    def power_of_two(self) -> bool:
        return self.period & (self.period - 1) == 0

    @property
    def primary(self) -> bool:
        return pattern_regime(self.itinerary) == "doubling"

    def flags(self) -> dict:
        return {"increasing": self.increasing, "stefan": self.stefan,
                "primary": self.primary, "power_of_two": self.power_of_two}

    def to_dict(self) -> dict:
        return {"period": self.period, "orbit": self.orbit,
                "itinerary": itinerary_str(self.itinerary),
                "flags": self.flags(), "residual": self.residual}


def pattern_regime(itin: tuple[int, ...]) -> str:
    """"doubling" for a primary power-of-two pattern, the only cycle
    patterns of zero entropy, and "chaotic" for every other one.

    A pattern a' of length 2p extends at most one of length p, its parent
    a_i = ceil(a'_i/2) = ceil(a'_(i+p)/2).  Halving while the parent of
    both halves is that one permutation reaches length 1 exactly when the
    pattern is primary."""
    while len(itin) > 1 and len(itin) % 2 == 0:
        p = len(itin) // 2
        parent = tuple(-(-a // 2) for a in itin[:p])
        if (sorted(parent) != list(range(1, p + 1))
                or parent != tuple(-(-a // 2) for a in itin[p:])):
            break
        itin = parent
    return "doubling" if len(itin) == 1 else "chaotic"


def _smooth_period_roots(m: UnimodalMap, p: int) -> list[float]:
    """Roots of f^p(x) = x, sorted.

    The sign changes of f^p(x) - x are bracketed on a grid of
    GRID_PER_PERIOD * p cells, and every bracket is bisected in one vector,
    p steps of f a round.  Each bracket's bisection reads only that
    bracket, so the rounds stop after 60 or as soon as one moves no
    bracket: such a round is a fixed point, so later ones would change
    nothing.
    """
    xs = np.linspace(0.0, 1.0, GRID_PER_PERIOD * p + 1)
    ys = xs.copy()
    for _ in range(p):
        ys = m(ys)
    gs = ys - xs
    sign = np.sign(gs)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    lo, hi, g_lo = xs[idx], xs[idx + 1], gs[idx]
    for _ in range(60):
        mid = (lo + hi) / 2
        y = mid
        for _ in range(p):
            y = m(y)
        left = g_lo * (y - mid) < 0
        # a bracket moves unless mid is the end it would replace
        if not np.where(left, mid != hi, mid != lo).any():
            break
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    # the origin is always fixed
    return sorted(set([0.0] + xs[sign == 0].tolist()
                      + ((lo + hi) / 2).tolist()))


def _pl_cycles(m: UnimodalMap, p_max: int,
               cap: int) -> Iterator[CycleRecord]:
    """The cycles of f on the roots of f^p(x) = x, of length p, one period
    per composition."""
    oscillation.refuse_oversized(m, p_max, cap)
    f1 = m.to_pl()
    dy = f1.raw.dy
    fp = ident = pl.identity()
    for p in range(1, p_max + 1):
        fp = pl.compose(f1, fp, cap=cap)
        roots = pl.level_set(pl.diff(fp, ident), 0)
        # keyed by the normalised (numerator, denominator): exact, and it
        # skips Fraction.__hash__, a modular pow per lookup; f1 is evaluated
        # at the sorted roots in one sweep, each image reduced to that key
        index = {(x.numerator, x.denominator): i for i, x in enumerate(roots)}
        succ = []
        for n, d in pl.values_at(f1, roots):
            d *= dy
            g = math.gcd(n, d)
            succ.append(index[n // g, d // g])
        for i in range(len(roots)):
            cyc = [i]
            while (j := succ[cyc[-1]]) > i:
                cyc.append(j)
            if j == i and len(cyc) == p:  # i is the cycle's least root
                # roots are sorted, so indices rank as the points do, and
                # the records come in order of their least points
                yield CycleRecord(
                    period=p, orbit=tuple(roots[j] for j in cyc),
                    itinerary=itinerary_of_points(cyc), residual=0.0)


def _smooth_cycles(m: UnimodalMap, p_max: int) -> Iterator[CycleRecord]:
    """The orbits of the bracketed roots of f^p(x) = x, deduplicated, one
    period at a time."""
    taken: list[float] = []  # sorted points of the orbits taken
    for p in range(1, p_max + 1):
        records = []
        for x in _smooth_period_roots(m, p):
            i = bisect_left(taken, x - FLOAT_MATCH_TOL)
            if i < len(taken) and taken[i] <= x + FLOAT_MATCH_TOL:
                continue  # on an orbit taken already
            orbit = [x]
            for _ in range(p - 1):
                orbit.append(m(orbit[-1]))
            pts = sorted(orbit)
            if any(b - a <= FLOAT_MATCH_TOL for a, b in zip(pts, pts[1:])):
                continue  # collapsed: adjacent points are the closest pairs
            residual = abs(m(orbit[-1]) - x)
            if residual > RESIDUAL_TOL:
                continue  # spurious bracket, not a true orbit
            for y in orbit:
                insort(taken, y)
            s = orbit.index(pts[0])
            canon = tuple(orbit[s:] + orbit[:s])
            records.append(CycleRecord(
                period=p, orbit=canon, itinerary=itinerary_of_points(canon),
                residual=residual))
        # a root need not be its orbit's least point
        records.sort(key=lambda c: c.orbit[0])
        yield from records


def cycles_by_period(m: UnimodalMap, p_max: int,
                     cap: int = pl.DEFAULT_KNOT_CAP) -> Iterator[CycleRecord]:
    """The distinct cycles of minimal period <= p_max, in order of period
    and least point; period p is searched only when the records before it
    have been read.  On PL maps (``m.is_exact``) f^p may hold `cap` knots,
    and the cap's verdict is reached at p_max before the first period."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if m.is_exact:
        return _pl_cycles(m, p_max, cap)
    return _smooth_cycles(m, p_max)


def find_cycles(m: UnimodalMap, p_max: int,
                cap: int = pl.DEFAULT_KNOT_CAP) -> list[CycleRecord]:
    """Every record of ``cycles_by_period``."""
    return list(cycles_by_period(m, p_max, cap))


@dataclass(frozen=True)
class RegimeReport:
    """Evidence-based regime call over the cycles detected."""

    regime: str  # "doubling" | "chaotic"
    witness: CycleRecord | None
    max_power_of_two: int | None


def classify_regime(cycles: Iterable[CycleRecord]) -> RegimeReport:
    """Chaotic iff a non-power-of-two period or a non-primary power-of-two
    itinerary was detected; otherwise doubling with q = log2(max period).

    The cycles come in period order, and they are read only up to the
    first chaotic one, the witness; a doubling call reads them all and
    takes the first cycle of the largest period as its witness."""
    witness = None
    for c in cycles:
        if pattern_regime(c.itinerary) == "chaotic":
            return RegimeReport("chaotic", c, None)
        if witness is None or c.period > witness.period:
            witness = c
    if witness is None:
        # the endpoint 0 is always fixed, so the doubling floor is q = 0
        return RegimeReport("doubling", None, 0)
    return RegimeReport("doubling", witness, int(math.log2(witness.period)))


# MSS forcing order for the logistic family: cycles are super-stable in this
# row order as r increases.  A row types its itinerary and the published r;
# the solver never reads r, and `superstable` checks the solved order.
FORCING_TABLE = (
    {"itinerary": "12", "r": 0.8090},
    {"itinerary": "1324", "r": 0.8671},
    {"itinerary": "143526", "r": 0.9069},
    {"itinerary": "13425", "r": 0.9347},
    {"itinerary": "123", "r": 0.9580},
    {"itinerary": "135246", "r": 0.9611},
    {"itinerary": "12435", "r": 0.9764},
    {"itinerary": "124536", "r": 0.9844},
    {"itinerary": "1234", "r": 0.9901},
    {"itinerary": "123546", "r": 0.9944},
    {"itinerary": "12345", "r": 0.9976},
    {"itinerary": "123456", "r": 0.9994},
)


def superstable_r(itin: str) -> float:
    """Logistic parameter at which the critical orbit closes with itinerary
    `itin` (the cycle contains the critical point c = 1/2).

    Word: c is the point whose successor has rank p; f(c), ..., f^(p-1)(c)
    are L or R by their rank against c's, and f^p(c) is C, so 1324 reads
    RLRC.  Order: the first p symbols of the critical orbit compare with
    the word in the unimodal order L < C < R, reversed after each R of the
    common prefix; in the logistic family that comparison is monotone in r
    (Milnor & Thurston, LNM 1342, 1988).  Bisection on [1/2, 1] stops when
    the midpoint equals an end and returns the upper end, where the orbit
    must have the pattern `itin`: one that no logistic orbit has, such as
    1342 (1234's word), is refused there.
    """
    ranks = parse_itinerary(itin)
    p = len(ranks)
    if not ranks or sorted(ranks) != list(range(1, p + 1)):
        raise ValueError(f"itinerary {itin!r} is not a permutation of 1..{p}")
    step = LogisticMap.float_step
    j = ranks.index(p) - 1
    # L, C, R are -1, 0, 1
    word = [(a > ranks[j]) - (a < ranks[j])
            for a in ranks[j + 1:] + ranks[:j + 1]]

    def at_or_above(r):
        x, flip = 0.5, False
        for w in word:
            x = step(r, x)
            s = (x > 0.5) - (x < 0.5)
            if s != w:
                return (s > w) != flip
            flip ^= s > 0
        return True

    lo, hi = 0.5, 1.0
    while lo < (mid := (lo + hi) / 2) < hi:
        if at_or_above(mid):
            hi = mid
        else:
            lo = mid
    orbit = [0.5]
    for _ in range(p - 1):
        orbit.append(step(hi, orbit[-1]))
    if len(set(orbit)) < p or itinerary_of_points(orbit) != ranks:
        raise ValueError(
            f"no super-stable {itin} parameter in the logistic family")
    return hi


def solve_forcing_table() -> list[dict]:
    """Solve every forcing-table row from its itinerary alone; rows gain
    the period p, the pattern's regime, r_solved and delta, its distance
    from the published r."""
    out = []
    for row in FORCING_TABLE:
        itin = parse_itinerary(row["itinerary"])
        solved = superstable_r(row["itinerary"])
        out.append({**row, "p": len(itin), "regime": pattern_regime(itin),
                    "r_solved": solved, "delta": abs(solved - row["r"])})
    return out
