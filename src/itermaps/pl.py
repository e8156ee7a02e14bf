"""Exact continuous piecewise-linear functions on [0,1] over rational arithmetic.

Everything in this module is exact: knots are pairs of ``fractions.Fraction``
and no operation introduces rounding.  This is the carrier for iterated maps
f^k, for functions computed by rational ReLU networks, and for all error
measurements (sup norm, integral norm, classification error).

Beneath ``PiecewiseLinear`` lies one layer of single sweeps over raw knots
(sorted (x, y), y unclamped) that hash nothing: ``canon`` keeps a knot where
the slope changes, ``combine`` sums slope changes, ``level_set``, the norms
``max_abs`` and ``abs_integral``, and the segment solver ``_at``; no other
module keeps a copy.  ``compose`` walks inner's pieces through outer's knots.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import ResourceLimitError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: default ceiling on knot counts produced by compose/iterate
DEFAULT_KNOT_CAP = 10**7


def rat(x) -> Fraction:
    """Coerce an int, Fraction, or string like '2/5' / '0.93' to Fraction.

    Floats are rejected: approximation of irrational parameters must be an
    explicit caller decision (see maps.tent_near).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def canon(pts: Sequence) -> list:
    """Raw knots kept only where the slope changes, one division a segment.

    A segment as steep as the last kept one moves that knot forward.
    """
    out = [pts[0]]
    last = None  # slope of the segment ending at out[-1]
    for (x0, y0), p in zip(pts, pts[1:]):
        s = (p[1] - y0) / (p[0] - x0)
        if s == last:
            out[-1] = p
        else:
            out.append(p)
            last = s
    return out


def combine(inputs: Sequence[Sequence], coeffs: Sequence, bias) -> list:
    """Raw knots of sum(c * f_i) + bias at every merged abscissa.

    The inputs share one domain.  One sort of their (x, slope change) events
    and end abscissae merges the presorted runs; a sweep sums the changes at
    equal x.  Nothing is hashed or evaluated, and nothing canonicalised.
    """
    events = []
    y = bias
    for c, knots in zip(coeffs, inputs):
        y += c * knots[0][1]
        prev = 0
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            s = c * (y1 - y0) / (x1 - x0)
            events.append((x0, s - prev))
            prev = s
        events.append((knots[-1][0], 0))
    events.sort(key=itemgetter(0))
    out = [(events[0][0], y)]
    slope = 0
    for x, bend in events:
        if x != out[-1][0]:
            y += slope * (x - out[-1][0])
            out.append((x, y))
        slope += bend
    return out


def _at(p, q, level) -> Fraction:
    """The x at which the non-flat segment from knot p to knot q is level."""
    (x0, y0), (x1, y1) = p, q
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def level_set(knots: Sequence, y) -> list:
    """Sorted x with f(x) = y on raw knots; a flat piece at y gives both ends."""
    hits = []
    it = iter(knots)
    p = next(it)
    for q in it:
        y0, y1 = p[1], q[1]
        if y0 == y1:
            if y0 == y:
                if not hits or hits[-1] != p[0]:
                    hits.append(p[0])
                hits.append(q[0])
        elif y0 <= y <= y1 or y1 <= y <= y0:
            x = _at(p, q, y)
            if not hits or hits[-1] != x:
                hits.append(x)
        p = q
    return hits


def max_abs(knots: Sequence):
    """max |y| over raw knots: the sup norm of the function they define."""
    return max(abs(y) for _, y in knots)


def abs_integral(knots: Sequence) -> Fraction:
    """Exact integral of |y| over raw knots, as twice the area halved once.

    A sign change from d0 to d1 adds (d0^2 + d1^2)(x1 - x0) / (|d0| + |d1|).
    """
    total = ZERO
    for (x0, d0), (x1, d1) in zip(knots, knots[1:]):
        if d0 < 0 < d1 or d1 < 0 < d0:
            total += (d0 * d0 + d1 * d1) * (x1 - x0) / (abs(d0) + abs(d1))
        else:
            total += (abs(d0) + abs(d1)) * (x1 - x0)
    return total / 2


@dataclass(frozen=True)
class PiecewiseLinear:
    """Canonical PL function [0,1] -> [0,1].

    Knot x's strictly increase from 0 to 1, values stay in [0,1], and no
    interior knot is collinear with its neighbours (construction removes
    redundant knots, so equality of functions is equality of knot tuples).
    """

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pts = [(rat(x), rat(y)) for x, y in self.knots]
        if not pts:
            raise ValueError("empty knot list")
        xs = [p[0] for p in pts]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot x-coordinates must strictly increase")
        if xs[0] != 0 or xs[-1] != 1:
            raise ValueError("knots must span [0,1]")
        if any(not (0 <= y <= 1) for _, y in pts):
            raise ValueError("knot values must lie in [0,1]")
        object.__setattr__(self, "knots", tuple(canon(pts)))

    def __call__(self, x) -> Fraction:
        x = rat(x)
        if not (0 <= x <= 1):
            raise ValueError(f"x={x} outside [0,1]")
        ks = self.knots
        lo, hi = 0, len(ks) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ks[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (x0, y0), (x1, y1) = ks[lo], ks[hi]
        if x == x0:
            return y0
        if x == x1:
            return y1
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        ks = self.knots
        return tuple(
            (y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(ks, ks[1:])
        )

    def to_json(self) -> str:
        quads = [
            [x.numerator, x.denominator, y.numerator, y.denominator]
            for x, y in self.knots
        ]
        return json.dumps(quads)

    @classmethod
    def from_json(cls, text: str) -> "PiecewiseLinear":
        quads = json.loads(text)
        return cls(
            tuple(
                (Fraction(a, b), Fraction(c, d)) for a, b, c, d in quads
            )
        )


def new(knots: Iterable) -> PiecewiseLinear:
    """Build a canonical PL from (x, y) pairs (exact rationals)."""
    return PiecewiseLinear(tuple((rat(x), rat(y)) for x, y in knots))


def identity() -> PiecewiseLinear:
    return new([(0, 0), (1, 1)])


def constant(c) -> PiecewiseLinear:
    return new([(0, c), (1, c)])


def compose(inner: PiecewiseLinear, outer: PiecewiseLinear,
            cap: int = DEFAULT_KNOT_CAP) -> PiecewiseLinear:
    """Exact outer(inner(x)), in one sweep over inner's segments.

    A non-flat piece gains the preimages of outer's interior knots, in order
    along the piece, at those knots' ordinates; inner's knots take outer(y).
    Raises ResourceLimitError once the knots would number more than `cap`.
    """
    oxs = [x for x, _ in outer.knots]
    room = cap - len(inner.knots)  # preimages the cap leaves room for
    pts = [(ZERO, outer(inner.knots[0][1]))]
    for p, q in zip(inner.knots, inner.knots[1:]):
        y0, y1 = p[1], q[1]
        if y0 != y1:
            lo = bisect_right(oxs, min(y0, y1))
            hi = bisect_left(oxs, max(y0, y1))
            hit = range(lo, hi) if y0 < y1 else range(hi - 1, lo - 1, -1)
            room -= len(hit)
            if room < 0:
                raise ResourceLimitError(f"composition exceeds {cap} knots")
            pts.extend((_at(p, q, oxs[j]), outer.knots[j][1]) for j in hit)
        pts.append((q[0], outer(y1)))
    return PiecewiseLinear(tuple(pts))


def iterate(f: PiecewiseLinear, k: int,
            cap: int = DEFAULT_KNOT_CAP) -> PiecewiseLinear:
    """f composed with itself k times; k = 0 gives the identity."""
    if k < 0:
        raise ValueError("k must be >= 0")
    result = identity()
    for _ in range(k):
        result = compose(result, f, cap=cap)
    return result


def monotone_pieces(f: PiecewiseLinear) -> int:
    """Minimal number of maximal monotone intervals.

    Flat segments merge into the adjacent monotone piece, so only sign
    alternations of the nonzero slopes are counted.
    """
    signs = [1 if s > 0 else -1 for s in f.slopes if s != 0]
    if not signs:
        return 1
    return 1 + sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def crossing_points(f: PiecewiseLinear, a, b) -> tuple[tuple[Fraction, Fraction], ...]:
    """Alternating (x, level) touch sequence of levels a and b.

    Consecutive touches of the same level collapse, so the result strictly
    alternates between a and b; each adjacent pair delimits one full
    traversal of [a,b].  Touches that do not lead to the opposite level
    (grazing contacts) vanish in the collapse.
    """
    a, b = rat(a), rat(b)
    if not (0 <= a < b <= 1):
        raise ValueError("need 0 <= a < b <= 1")
    events: list[tuple[Fraction, Fraction]] = []
    for p, q in zip(f.knots, f.knots[1:]):
        y0, y1 = p[1], q[1]
        if y0 == y1:
            if y0 == a or y0 == b:
                events.append(p)
            continue
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        hits = []
        for level in (a, b):
            if lo <= level <= hi:
                hits.append((_at(p, q, level), level))
        events.extend(sorted(hits))
    collapsed: list[tuple[Fraction, Fraction]] = []
    for ev in events:
        if collapsed and collapsed[-1][1] == ev[1]:
            continue
        collapsed.append(ev)
    return tuple(collapsed)


def crossings(f: PiecewiseLinear, a, b) -> int:
    """Number of full traversals of [a,b] by f (exact knot sweep)."""
    pts = crossing_points(f, a, b)
    return max(0, len(pts) - 1)


def linf_diff(f: PiecewiseLinear, g: PiecewiseLinear) -> Fraction:
    """Exact sup |f - g|; attained at a knot of the merged breakpoint set."""
    return max_abs(combine((f.knots, g.knots), (1, -1), 0))


def l1_diff(f: PiecewiseLinear, g: PiecewiseLinear) -> Fraction:
    """Exact integral of |f - g| over [0,1]."""
    return abs_integral(combine((f.knots, g.knots), (1, -1), 0))


@dataclass(frozen=True)
class SampleSet:
    """Sample abscissae with a decision threshold and the reference labels
    (value >= threshold) there, for classification error."""

    points: tuple[Fraction, ...]
    threshold: Fraction
    labels: tuple[bool, ...]

    def __post_init__(self):
        pts = tuple(rat(x) for x in self.points)
        t = rat(self.threshold)
        if not pts:
            raise ValueError("empty sample set")
        if any(not (0 <= x <= 1) for x in pts):
            raise ValueError("sample points must lie in [0,1]")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("sample points must strictly increase")
        if not (0 < t < 1):
            raise ValueError("threshold must lie in (0,1)")
        if len(self.labels) != len(pts):
            raise ValueError("need one label per sample point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "threshold", t)

    def __len__(self):
        return len(self.points)


def classification_error(g: PiecewiseLinear, s: SampleSet) -> Fraction:
    """Fraction of sample points where g's threshold label differs from the
    sample's reference label."""
    t = s.threshold
    wrong = sum(1 for x, label in zip(s.points, s.labels)
                if (g(x) >= t) != label)
    return Fraction(wrong, len(s.points))
