"""Exact continuous piecewise-linear functions on [0,1] over rational arithmetic.

Everything in this module is exact: no operation introduces rounding.  This
is the carrier for iterated maps f^k, for functions computed by rational ReLU
networks, and for all error measurements (sup norm, integral norm,
classification error).

Beneath ``PiecewiseLinear`` lies one layer of single sweeps over raw knots
held as integers: a ``Knots`` is a list of x numerators over one shared
denominator and a list of y numerators (unclamped) over another.  Slopes and
levels are compared by cross-multiplying, so a sweep makes no ``Fraction``
per knot (each Fraction operation reduces by a gcd in Python code, which is
where the exact engine used to spend its time): ``canon`` keeps a knot where
the slope changes, ``combine`` sums slope changes of N inputs (an affine
image of one input only scales and shifts its values, at that input's
abscissae) for ``relunet.net_to_pl``'s third and later layers and for
``diff``'s fallback, ``diff``, f - g, the norms ``max_abs`` and
``abs_integral``, ``compose``, ``_touches``, where f meets levels, made
as they are read (for ``level_set`` and ``crossing_points``, which can
stop early), and ``values_at``, f at sorted points (and at one).
The segment solver ``_at`` finds where a segment meets a level and, with x
and y swapped, evaluates it.  No other module keeps one.

``compose`` and ``diff`` sweep in slices.  Over one piece of the small
operand (inner for ``compose``, g for ``diff``'s f - g, whose callers pass
the large operand first), the large operand's knots that the piece meets
form one contiguous slice, and one affine map carries the whole slice, so a
piece costs one list comprehension instead of one Python step per knot.
The exact iterate f^k has up to 2^k knots and f a handful, so the small map
goes inside: ``iterate`` builds f^(j+1) as ``compose(f, f^j)``, and each of
f's few pieces carries all of f^j's knots at once.  Scoring a few-piece
candidate g against f^k, ``diff`` takes one slice of f^k's knots per piece
of g.

Fractions are made only at the boundary.  A ``PiecewiseLinear`` stores its
knots once, as ``raw``: ``Knots`` over least denominators, kept only where
the slope changes, so each function has exactly one ``raw`` and equality
compares it.  Built from (x, y) pairs of Fractions it scales them first;
pairs and ``Knots`` (as ``compose``, ``relunet.net_to_pl`` and
``relunet.eps_approx`` build it) then share the same checks and one
``canon``.  ``knots``, the pairs of ``Fraction`` that boundary code reads,
is built from ``raw`` on first read, so an intermediate iterate that only
the next ``compose`` reads never makes one.  ``scale`` and
``unscale`` are that conversion pair, and the sweeps return Fractions only
for their results (roots, norms, touch points).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import itemgetter, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ResourceLimitError

#: default ceiling on knot counts produced by compose/iterate.  It bounds
#: knots, not memory: an iterate keeps about 49 bytes per knot (tracemalloc,
#: f^16 and f^18 of tent:1), so f^23 of tent:1, the largest within this
#: cap, would keep about 0.4 GB (extrapolated, not run)
DEFAULT_KNOT_CAP = 10**7


def rat(x) -> Fraction:
    """Coerce an int, Fraction, or string like '2/5' / '0.93' to Fraction.

    Floats are rejected: approximation of irrational parameters must be an
    explicit caller decision (the tests' ``tent_near`` rounds a float tent
    parameter up to a rational one).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


class Knots(NamedTuple):
    """Raw knots on integers: knot i is (xs[i] / dx, ys[i] / dy).

    The x's strictly increase; the y's are unclamped.  dx and dy are
    positive and shared by the whole list.
    """

    xs: list
    dx: int
    ys: list
    dy: int


def scale(pts: Sequence) -> Knots:
    """Knots of (x, y) pairs of Fractions, over least common denominators."""
    dx = lcm(*{x.denominator for x, _ in pts})
    dy = lcm(*{y.denominator for _, y in pts})
    return Knots([x.numerator * (dx // x.denominator) for x, _ in pts], dx,
                 [y.numerator * (dy // y.denominator) for _, y in pts], dy)


def unscale(k: Knots) -> list:
    """(x, y) pairs of Fractions of raw knots; equal y's share one Fraction."""
    xs, dx, ys, dy = k
    fy = {y: Fraction(y, dy) for y in set(ys)}
    return list(zip(map(Fraction, xs, repeat(dx)), map(fy.__getitem__, ys)))


def _common(nums: list, dens: list) -> tuple[list, int]:
    """The rationals nums[i] / dens[i] (dens positive) as numerators over
    their least common denominator, which is returned with them.  Both
    lists are rewritten in place."""
    for i, d in enumerate(dens):
        if d != 1:
            g = gcd(nums[i], d)
            nums[i] //= g
            dens[i] = d // g
    m = lcm(*set(dens))
    if m != 1:
        for i, d in enumerate(dens):
            nums[i] *= m // d
    return nums, m


def canon(k: Knots) -> Knots:
    """Raw knots kept only where the slope changes, over least denominators.

    Slopes are compared by cross-multiplying; a segment as steep as the last
    kept one moves that knot forward.  The kept knots are then put over
    least denominators.
    """
    xs, dx, ys, dy = k
    keep = [0]
    w0, h0 = 0, 1  # matches no segment: the first one is always kept
    x0, y0 = xs[0], ys[0]
    for i in range(1, len(xs)):
        x1, y1 = xs[i], ys[i]
        w, h = x1 - x0, y1 - y0
        if h * w0 == h0 * w:
            keep[-1] = i
        else:
            keep.append(i)
            w0, h0 = w, h
        x0, y0 = x1, y1
    return _least([xs[i] for i in keep], dx, [ys[i] for i in keep], dy)


def _least(xs: list, dx: int, ys: list, dy: int) -> Knots:
    """Knots of the rationals xs[i] / dx and ys[i] / dy over least
    denominators: each denominator divided by what its numerators share."""
    g = gcd(dx, *xs)
    if g > 1:
        xs, dx = [x // g for x in xs], dx // g
    g = gcd(dy, *ys)
    if g > 1:
        ys, dy = [y // g for y in ys], dy // g
    return Knots(xs, dx, ys, dy)


def combine(inputs: Sequence[Knots], coeffs: Sequence, bias) -> Knots:
    """Raw knots of sum(c * f_i) + bias at every merged abscissa, for the
    units of ``relunet.net_to_pl``'s third and later layers (its first two
    take one sweep over the first layer's kinks) and for ``diff`` when both
    operands are large.

    The inputs share one domain.  Every slope is reduced and put over one
    common denominator, so the sweep adds integers.  One sort of the (x,
    slope change) events and end abscissae merges the presorted runs; a
    sweep sums the changes at equal x.  Nothing is hashed or evaluated, and
    nothing canonicalised.  One input takes no sweep: c * f + bias keeps
    f's abscissae (the same list), and each y is scaled and shifted over
    one denominator.
    """
    if len(inputs) == 1:
        (c,), ((xs, dx, ys, kdy),) = coeffs, inputs
        dy = lcm(bias.denominator, c.denominator * kdy)
        m = c.numerator * (dy // (c.denominator * kdy))
        y = bias.numerator * (dy // bias.denominator)
        return Knots(xs, dx, [v * m + y for v in ys], dy)
    dx = lcm(*(k.dx for k in inputs))
    dy = lcm(bias.denominator,
             *(c.denominator * k.dy for c, k in zip(coeffs, inputs)))
    y = bias.numerator * (dy // bias.denominator)
    scaled = []  # each input on the common scales
    for c, (xs, kdx, ys, kdy) in zip(coeffs, inputs):
        mx = dx // kdx
        my = c.numerator * (dy // (c.denominator * kdy))
        if mx != 1:
            xs = [x * mx for x in xs]
        if my != 1:
            ys = [v * my for v in ys]
        y += ys[0]
        scaled.append((xs, ys))
    # every slope rise / run, reduced, has a run that divides q (a flat
    # one's is 1)
    q = lcm(*{w // gcd(h, w) for xs, ys in scaled
              for w, h in zip(map(sub, xs[1:], xs), map(sub, ys[1:], ys))
              if h})
    events = []
    for xs, ys in scaled:
        prev = 0
        for i in range(len(xs) - 1):
            s = (ys[i + 1] - ys[i]) * q // (xs[i + 1] - xs[i])  # exact
            events.append((xs[i], s - prev))
            prev = s
        events.append((xs[-1], 0))
    events.sort(key=itemgetter(0))
    y *= q
    last = events[0][0]
    out_x, out_y = [last], [y]
    slope = 0
    for x, bend in events:
        if x != last:
            y += slope * (x - last)
            out_x.append(x)
            out_y.append(y)
            last = x
        slope += bend
    return Knots(out_x, dx, out_y, dy * q)


def _at(x0, y0, x1, y1, level) -> tuple[int, int]:
    """Where the non-flat segment from (x0, y0) to (x1, y1) is level, as
    (n, d) with d > 0 and x = n / d in x0's units; the y's and level share
    one scale.  With the roles swapped it evaluates a segment."""
    d = y1 - y0
    n = x0 * d + (level - y0) * (x1 - x0)
    return (n, d) if d > 0 else (-n, -d)


def _value(xs: list, ys: list, x) -> tuple[int, int]:
    """The PL through the knots (xs[i], ys[i]) at x in [xs[0], xs[-1]], as
    a least (n, d): the value is n / d in the y's units."""
    j = bisect_left(xs, x)
    if xs[j] == x:
        return ys[j], 1
    n, d = _at(ys[j - 1], xs[j - 1], ys[j], xs[j], x)
    g = gcd(n, d)
    return n // g, d // g


def _touches(knots: Knots, levels: Sequence) -> Iterator[tuple[int, int, int]]:
    """Where f meets the Fraction levels, in order along f, as (n, d, i):
    x = n / (d * dx) lies on levels[i].  A segment meets the levels in its
    own direction; a flat at a level gives both of its ends.  The touches
    are made as they are read, so a reader that stops early sweeps only
    the knots before its last one."""
    xs, _, ys, dy = knots
    s = lcm(dy, *(v.denominator for v in levels))  # for y and the levels
    if s != dy:
        ys = [y * (s // dy) for y in ys]
    up = sorted((v.numerator * (s // v.denominator), i)
                for i, v in enumerate(levels))
    down = up[::-1]
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if y0 == y1:
            for level, j in up:
                if level == y0:
                    yield x0, 1, j
                    yield x1, 1, j
            continue
        for level, j in (up if y0 < y1 else down):
            if y0 <= level <= y1 or y1 <= level <= y0:
                yield (*_at(x0, y0, x1, y1, level), j)


def level_set(knots: Knots, y) -> list[Fraction]:
    """Sorted x with f(x) = y on raw knots; a flat piece at y gives both ends."""
    dx = knots.dx
    out, last = [], (-1, 1)  # last: the last kept x as (n, d)
    for n, d, _ in _touches(knots, (rat(y),)):
        if last[0] * d != n * last[1]:
            out.append(Fraction(n, d * dx))
            last = (n, d)
    return out


def max_abs(knots: Knots) -> Fraction:
    """max |y| over raw knots: the sup norm of the function they define."""
    ys = knots.ys
    return Fraction(max(max(ys), -min(ys)), knots.dy)


def abs_integral(knots: Knots) -> Fraction:
    """Exact integral of |y| over raw knots, as twice the area halved once.

    A segment of width w adds (|d0| + |d1|) w, or (d0^2 + d1^2) w /
    (|d0| + |d1|) where the sign changes from d0 to d1.  The integer terms
    sum as integers; the divided ones are summed per divisor, of which there
    are few, and the sums go over the divisors' lcm: one integer numerator
    and denominator, and one Fraction at the end.
    """
    xs, dx, ys, dy = knots
    whole = 0
    parts = {}  # |d0| + |d1| -> sum of (d0^2 + d1^2) w over sign changes
    for x0, x1, d0, d1 in zip(xs, xs[1:], ys, ys[1:]):
        if d0 < 0 < d1 or d1 < 0 < d0:
            b = abs(d0) + abs(d1)
            parts[b] = parts.get(b, 0) + (d0 * d0 + d1 * d1) * (x1 - x0)
        else:
            whole += (abs(d0) + abs(d1)) * (x1 - x0)
    den = lcm(*parts)
    num = sum(a * (den // b) for b, a in parts.items()) + whole * den
    return Fraction(num, 2 * dx * dy * den)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Canonical PL function [0,1] -> [0,1].

    Knot x's strictly increase from 0 to 1, values stay in [0,1], and no
    interior knot is collinear with its neighbours (construction removes
    redundant knots, so equality of functions is equality of ``raw``).
    Built from (x, y) pairs of exact rationals or from ``Knots``; ``raw`` is
    the one stored field, the kept knots as ``Knots`` over least
    denominators.  ``knots``, the same knots as pairs of ``Fraction``, is
    built on first read.  The lists in ``raw`` make it unhashable.
    """

    raw: Knots

    def __post_init__(self):
        k = self.raw
        if not isinstance(k, Knots):
            k = scale([(rat(x), rat(y)) for x, y in k])
        xs, dx, ys, dy = k
        if not xs:
            raise ValueError("empty knot list")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot x-coordinates must strictly increase")
        if xs[0] != 0 or xs[-1] != dx:
            raise ValueError("knots must span [0,1]")
        if min(ys) < 0 or max(ys) > dy:
            raise ValueError("knot values must lie in [0,1]")
        object.__setattr__(self, "raw", canon(k))

    @cached_property
    def knots(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(unscale(self.raw))

    def __call__(self, x) -> Fraction:
        x = rat(x)
        if not (0 <= x <= 1):
            raise ValueError(f"x={x} outside [0,1]")
        (n, d), = values_at(self, (x,))
        return Fraction(n, d * self.raw.dy)


def new(knots: Iterable) -> PiecewiseLinear:
    """Build a canonical PL from (x, y) pairs (exact rationals)."""
    return PiecewiseLinear(knots)


def identity() -> PiecewiseLinear:
    return new([(0, 0), (1, 1)])


def constant(c) -> PiecewiseLinear:
    return new([(0, c), (1, c)])


def compose(inner: PiecewiseLinear, outer: PiecewiseLinear,
            cap: int = DEFAULT_KNOT_CAP) -> PiecewiseLinear:
    """Exact outer(inner(x)), one slice of outer's knots per inner piece.

    Over a non-flat piece of inner, from (x0, y0) to (x1, y1), the knots
    gained are the preimages of outer's knots strictly between y0 and y1:
    one contiguous slice of outer's abscissae, taken in order along the
    piece (reversed where it falls).  One affine map carries the slice,
    x = (x0 * d - y0 * w + ox * w) / d with rise d and run w, so a piece
    costs one comprehension and its ordinates are outer's, unchanged.
    Inner's knots take outer(y).  The x's go over the lcm of the rises of
    the pieces that gain knots; canonicalisation makes every denominator
    least.  The work is per knot of outer only inside comprehensions, so
    the small map goes inside: ``iterate`` builds f^(j+1) as
    ``compose(f, f^j)``.  Raises ResourceLimitError, before anything is
    built, when inner's knots and the preimages number more than `cap`.
    """
    ixs, idx, iys, idy = inner.raw
    oxs, odx, oys, ody = outer.raw
    s = lcm(idy, odx)  # one scale for inner's values and outer's abscissae
    if s != idy:
        iys = [y * (s // idy) for y in iys]
    if s != odx:
        oxs = [x * (s // odx) for x in oxs]

    # outer's knots strictly inside each piece's range of values: a flat
    # piece gets lo >= hi, and lo >= 1 since inner's values are >= oxs[0]
    cuts = [(bisect_right(oxs, min(y0, y1)), bisect_left(oxs, max(y0, y1)))
            for y0, y1 in zip(iys, iys[1:])]
    if len(ixs) + sum(hi - lo for lo, hi in cuts if hi > lo) > cap:
        raise ResourceLimitError(f"composition exceeds {cap} knots")
    rise = lcm(*{abs(iys[i + 1] - iys[i])
                 for i, (lo, hi) in enumerate(cuts) if hi > lo})

    ends = [_value(oxs, oys, y) for y in iys]  # outer at inner's knots
    my = lcm(*{d for _, d in ends})

    xs, ys = [0], [ends[0][0] * (my // ends[0][1])]
    for i, (lo, hi) in enumerate(cuts):
        x0, y0, x1, y1 = ixs[i], iys[i], ixs[i + 1], iys[i + 1]
        if hi > lo:
            d, w = y1 - y0, x1 - x0
            m = rise // d  # negative on a falling piece
            a, w = (x0 * d - y0 * w) * m, w * m
            if d > 0:
                xs += [a + ox * w for ox in oxs[lo:hi]]
                part = oys[lo:hi]
            else:
                xs += [a + ox * w for ox in oxs[hi - 1:lo - 1:-1]]
                part = oys[hi - 1:lo - 1:-1]
            ys += part if my == 1 else [y * my for y in part]
        n, d = ends[i + 1]
        xs.append(x1 * rise)
        ys.append(n * (my // d))
    return PiecewiseLinear(Knots(xs, idx * rise, ys, ody * my))


def diff(f: PiecewiseLinear, g: PiecewiseLinear) -> Knots:
    """Raw knots of f - g at every merged abscissa; f is the large operand.

    Over a piece of g, the operand with fewer knots, f's knots strictly
    inside it form one slice, and the piece's affine values carry it: one
    comprehension per piece.  g's own knots take f's value there.
    ``certify`` scores 9-knot candidates against f^k, ``counterexample``
    its band approximant, and ``find_cycles`` takes f^p less the identity,
    so the slices are long.  When g has more than a quarter of f's knots,
    they are short, a piece costs more than its knots do in one merge, and
    ``combine`` sums the two instead, as it does for a g larger than f.
    Against tent:1's f^10 (1025 knots), a PL whose knots fall between
    f^10's took 0.67 ms in slices and 1.0 ms merged at 130 knots, but 1.7
    and 1.1 ms at 629 (Python 3.11, 2-core x86-64 host).
    """
    if 4 * len(g.raw.xs) > len(f.raw.xs):
        return combine((f.raw, g.raw), (1, -1), 0)
    bxs, bdx, bys, bdy = f.raw  # the large operand
    sxs, sdx, sys_, sdy = g.raw  # the small one, whose pieces slice bxs
    dx, dy = lcm(bdx, sdx), lcm(bdy, sdy)
    if dx != bdx:
        bxs = [x * (dx // bdx) for x in bxs]
    if dx != sdx:
        sxs = [x * (dx // sdx) for x in sxs]
    if dy != sdy:
        sys_ = [y * (dy // sdy) for y in sys_]
    yb = dy // bdy  # the large operand's y's go to the scale dy

    ends = []  # large - small at the small knots, as (n, d)
    for x, y in zip(sxs, sys_):
        n, d = _value(bxs, bys, x)
        ends.append((n * yb - y * d, d))
    lines = []  # a piece's slice, and its values as (c + x * h) / w
    for x0, y0, x1, y1 in zip(sxs, sys_, sxs[1:], sys_[1:]):
        lo, hi = bisect_right(bxs, x0), bisect_left(bxs, x1)
        if hi > lo:
            c = gcd(y1 - y0, x1 - x0)
            w, h = (x1 - x0) // c, (y1 - y0) // c
            lines.append((lo, hi, y0 * w - x0 * h, h, w))
        else:
            lines.append(None)
    den = lcm(*{d for _, d in ends}, *{p[4] for p in lines if p})

    k = yb * den
    n, d = ends[0]
    xs, ys = [0], [n * (den // d)]
    for i, p in enumerate(lines):
        if p:
            lo, hi, c, h, w = p
            m = den // w
            c, h = c * m, h * m
            xs += bxs[lo:hi]
            ys += [y * k - x * h - c for x, y in zip(bxs[lo:hi], bys[lo:hi])]
        n, d = ends[i + 1]
        xs.append(sxs[i + 1])
        ys.append(n * (den // d))
    return Knots(xs, dx, ys, dy * den)


def iterate(f: PiecewiseLinear, k: int,
            cap: int = DEFAULT_KNOT_CAP) -> PiecewiseLinear:
    """f composed with itself k times; k = 0 gives the identity.

    f^(j+1) is ``compose(f, f^j)``, f^j after f: f, the small map, goes
    inside, so each of its pieces takes one slice of f^j's knots.  Both
    orders give the same canonical function.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    result = identity()
    for _ in range(k):
        result = compose(f, result, cap=cap)
    return result


def turning_knots(ys: Sequence) -> list[int]:
    """Indices of the knots (with values ys) where a maximal monotone run
    turns: knot i starts a non-flat segment against the last non-flat one.

    A flat joins the run it ends; flats before the first slope join the
    first run.
    """
    out, last = [], 0
    for i, (y0, y1) in enumerate(zip(ys, ys[1:])):
        d = (y1 > y0) - (y1 < y0)
        if d:
            if d == -last:
                out.append(i)
            last = d
    return out


def monotone_pieces(f: PiecewiseLinear) -> int:
    """Minimal number of maximal monotone intervals: one more than the
    turning knots."""
    return 1 + len(turning_knots(f.raw.ys))


def crossing_points(f: PiecewiseLinear, a, b, limit: int | None = None
                    ) -> tuple[tuple[Fraction, Fraction], ...]:
    """Alternating (x, level) touch sequence of levels a and b.

    Consecutive touches of the same level collapse, so the result strictly
    alternates between a and b; each adjacent pair delimits one full
    traversal of [a,b].  Touches that do not lead to the opposite level
    (grazing contacts) vanish in the collapse.  With a limit, only the
    first `limit` are made, and the sweep stops at the touch after them.
    """
    a, b = rat(a), rat(b)
    if not (0 <= a < b <= 1):
        raise ValueError("need 0 <= a < b <= 1")
    dx = f.raw.dx
    touches, last = [], None  # last: the level index of the last touch kept
    for n, d, i in _touches(f.raw, (a, b)):
        if i != last:
            if len(touches) == limit:
                break
            touches.append((Fraction(n, d * dx), b if i else a))
            last = i
    return tuple(touches)


def linf_diff(f: PiecewiseLinear, g: PiecewiseLinear) -> Fraction:
    """Exact sup |f - g|; attained at a knot of the merged breakpoint set."""
    return max_abs(diff(f, g))


@dataclass(frozen=True)
class SampleSet:
    """Sample abscissae with a decision threshold and the reference labels
    (value >= threshold) there, for classification error.

    ``hardness.adversarial_sample`` builds strictly increasing Fraction
    points in [0, 1], one label each, and a threshold in (0, 1); only an
    empty sample, which it makes at k = 1, is refused."""

    points: tuple[Fraction, ...]
    threshold: Fraction
    labels: tuple[bool, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty sample set")

    def __len__(self):
        return len(self.points)


def values_at(f: PiecewiseLinear, points: Sequence[Fraction]) -> list:
    """f at sorted Fraction points of [0,1], each value as (n, d) with d > 0:
    the value is n / (d * dy), dy being ``f.raw.dy``.

    A point right of the last point's segment finds its own by a binary
    search along f's integer knots; no Fraction is made.
    """
    xs, dx, ys, dy = f.raw
    out = []
    j, end = 0, len(xs) - 1
    for x in points:
        q = x.denominator
        u = x.numerator * dx  # x on the scale q * dx
        if xs[j + 1] * q < u:  # x lies right of segment j
            j = bisect_right(xs, u // q, j + 1, end) - 1
        out.append(_at(ys[j], xs[j] * q, ys[j + 1], xs[j + 1] * q, u))
    return out


def classification_error(g: PiecewiseLinear, s: SampleSet) -> Fraction:
    """Fraction of sample points where g's threshold label differs from the
    sample's reference label.

    The sample is sorted, so the points on one piece of g form one slice,
    found by binary search; a piece holding none is skipped.  On the piece
    from (x0, y0) of run w and rise h, all on g's scales, g reaches the
    threshold tn / td at x = a / q exactly when A a >= B q, with A = td dx h
    and B = tn dy w - td (y0 w - x0 h), so a piece costs one comprehension
    over its slice.  When g has more than a quarter as many knots as the
    sample has points, the slices are short and a piece costs more than
    its points do, so each point takes ``values_at``: against certify's
    32735-point sample at k = 16, a 9-knot g took 5.9 ms in slices and
    22.7 ms by points, but a 16385-knot g 51 and 28 ms (Python 3.11,
    2-core x86-64 host).
    """
    xs, dx, ys, dy = g.raw
    pts, labels = s.points, s.labels
    tn, td = s.threshold.numerator, s.threshold.denominator
    if 4 * len(xs) > len(pts):
        wrong = sum([(n * td >= tn * d * dy) != label
                     for (n, d), label in zip(values_at(g, pts), labels)])
        return Fraction(wrong, len(pts))
    wrong, i, j, end = 0, 0, 0, len(xs) - 1
    while i < len(pts):
        x = pts[i]  # the first point right of piece j: find its piece
        j = bisect_right(xs, x.numerator * dx // x.denominator, j + 1, end) - 1
        # the points up to the piece's right end: ceil(p * dx) <= xs[j + 1]
        hi = bisect_right(pts, xs[j + 1], i,
                          key=lambda p: -(-p.numerator * dx // p.denominator))
        x0, y0, w, h = xs[j], ys[j], xs[j + 1] - xs[j], ys[j + 1] - ys[j]
        a, b = td * dx * h, tn * dy * w - td * (y0 * w - x0 * h)
        wrong += sum([(a * p.numerator >= b * p.denominator) != label
                      for p, label in zip(pts[i:hi], labels[i:hi])])
        i = hi
    return Fraction(wrong, len(pts))
