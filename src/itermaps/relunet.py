"""ReLU networks on the unit interval: exact synthesis from PL functions,
deep composition stacks, and budgeted PL approximation.

Rational-weight networks admit exact PL propagation, so width/depth
accounting against exact monotone-piece counts is bit-precise: a PL with n
knots becomes a depth-2 net of hidden width n-1 (ramp decomposition), and
stacking a block k times multiplies depth by k while preserving width.

Both directions work on a ``PiecewiseLinear``'s integer ``raw`` knots, as
``pl`` does.  ``synth_from_pl`` reads runs and rises straight from them and
makes one ``Fraction`` per emitted weight, never f's Fraction knots or
slopes.  ``net_to_pl`` propagates every unit as ``pl.Knots``.  The input is
x, so a first-layer unit is a line clipped at one kink, and the second
layer's sums are PL with knots at those kinks: ``_kink_sweep`` builds each
from one integer sweep over the sorted kinks, the inverse of the ramp
decomposition.  Each later unit's affine input is one ``pl.combine`` over
the layer before.  ``_raw_relu`` clips a unit's input in one pass and
canonicalises it once, by ``pl.canon``.  A layer's cap is read off its
first sum, which holds one knot per abscissa of the layer before.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul, sub

from . import pl
from .errors import ResourceLimitError

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class ReluNetwork:
    """Affine layers with ReLU after every layer except the last; 1 -> 1."""

    layers: tuple[tuple[Matrix, Vector], ...]

    def __post_init__(self):
        dim = 1
        for w, b in self.layers:
            if any(len(row) != dim for row in w):
                raise ValueError("layer input dimension mismatch")
            if len(b) != len(w):
                raise ValueError("bias dimension mismatch")
            dim = len(w)
        if dim != 1:
            raise ValueError("output dimension must be 1")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def width(self) -> int:
        dims = [len(w) for w, _ in self.layers[:-1]]
        return max(dims, default=1)

    @property
    def rational(self) -> bool:
        return all(
            isinstance(x, (Fraction, int))
            for w, b in self.layers
            for row in w for x in row
        ) and all(isinstance(x, (Fraction, int))
                  for _, b in self.layers for x in b)

    def to_dict(self) -> dict:
        return {"layers": [{"w": w, "b": b} for w, b in self.layers],
                "activation": "relu"}


def synth_from_pl(f: pl.PiecewiseLinear) -> ReluNetwork:
    """Depth-2 net computing f exactly on [0,1].

    Ramp decomposition: one hidden unit per linear piece (the opening slope
    plus one per interior slope change), so hidden width = knots - 1.  With
    piece i rising h_i over a run of w_i in f's raw units, the slope change
    at knot i is dx (h_i w_(i-1) - h_(i-1) w_i) / (w_i w_(i-1) dy): one
    Fraction per weight.
    """
    xs, dx, ys, dy = f.raw
    runs = list(map(sub, xs[1:], xs))
    rises = list(map(sub, ys[1:], ys))
    coeffs = [Fraction(rises[0] * dx, runs[0] * dy)]
    coeffs += [Fraction((h * wp - hp * w) * dx, w * wp * dy)
               for wp, hp, w, h in zip(runs, rises, runs[1:], rises[1:])]
    w1 = ((Fraction(1),),) * len(runs)
    b1 = tuple(Fraction(-x, dx) for x in xs[:-1])
    w2 = (tuple(coeffs),)
    b2 = (Fraction(ys[0], dy),)
    return ReluNetwork(layers=((w1, b1), (w2, b2)))


def stack(block: ReluNetwork, k: int) -> ReluNetwork:
    """Concatenate the same layers k times: depth x k, width unchanged.

    Valid for blocks computing maps into [0,1]: the extra inter-block ReLU
    is the identity on non-negative outputs.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return ReluNetwork(layers=block.layers * k)


def _raw_relu(k: pl.Knots) -> pl.Knots:
    """ReLU of raw knots, canonical: zero crossings become knots, negatives
    clip to 0, and ``pl.canon`` keeps the knots where the slope changes."""
    xs, dx, ys, dy = k
    if min(ys) >= 0:
        return pl.canon(k)
    xn, xd, out = [xs[0]], [1], [max(ys[0], 0)]  # knot x = xn / (xd * dx)
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
        if y0 * y1 < 0:
            n, d = pl._at(x0, y0, x1, y1, 0)
            xn.append(n)
            xd.append(d)
            out.append(0)
        xn.append(x1)
        xd.append(1)
        out.append(max(y1, 0))
    xs, m = pl._common(xn, xd)
    return pl.canon(pl.Knots(xs, dx * m, out, dy))


def _within(abscissae: int, cap: int) -> None:
    if abscissae > cap:
        raise ResourceLimitError(f"network PL exceeds {cap} knots")


def _kink_sweep(first: tuple[Matrix, Vector], second: tuple[Matrix, Vector],
                act, cap: int) -> list[pl.Knots]:
    """The second layer's units after ``act``, from one sweep over the
    first layer's kinks.

    First-layer unit i is relu(c_i x + b_i): a line with at most one kink,
    at t_i = -b_i / c_i.  So a second-layer pre-activation, sum_i W_i
    relu(c_i x + b_i) + B, is PL with knots at 0, at the distinct kinks
    inside (0, 1) and at 1.  Its value and slope at 0 are those of the
    units active just right of 0, summed as Fractions; at each kink its
    slope changes by W_i |c_i|.  The kinks are sorted once, as integers
    over one denominator; a row's slope changes go over one more, so its
    slopes and values are running sums of integers.  This inverts
    ``synth_from_pl``'s ramp decomposition.  The cap bounds the abscissae
    the second layer reads, 0, 1 and the kinks, so it also holds for the
    first layer's 0 and 1.
    """
    (w1, b1), (w2, b2) = first, second
    active = []  # units active just right of 0
    kn, kd, kunit, kc, kcd = [], [], [], [], []  # t = kn / kd, unit, |c|
    for i, ((c,), b) in enumerate(zip(w1, b1)):
        cn, cd, bn, bd = c.numerator, c.denominator, b.numerator, b.denominator
        if cn == 0:  # the constant relu(b)
            if bn > 0:
                active.append(i)
            continue
        n, d = -bn * cd, bd * cn
        if d < 0:
            n, d = -n, -d
        # a rising unit is active right of its kink, a falling one left
        if (n <= 0) if cn > 0 else (n > 0):
            active.append(i)
        if 0 < n < d:
            kn.append(n)
            kd.append(d)
            kunit.append(i)
            kc.append(abs(cn))
            kcd.append(cd)
    kn, dx = pl._common(kn, kd)
    kinks = sorted(set(kn))
    _within(2 + len(kinks), cap)
    index = dict(zip(kinks, range(len(kinks))))
    slot = [index[n] for n in kn]
    sc = lcm(*set(kcd))
    kc = [c * (sc // d) for c, d in zip(kc, kcd)]  # |c| * sc
    xs = [0, *kinks, dx]
    runs = list(map(sub, xs[1:], xs))

    out = []
    for row, bias in zip(w2, b2):
        y0 = sum((row[i] * b1[i] for i in active), bias)
        s0 = sum(row[i] * w1[i][0] for i in active)
        ws = [row[i] for i in kunit]
        m = lcm(sc * lcm(*{w.denominator for w in ws}),
                s0.denominator, y0.denominator)
        f = m // sc  # the slopes go over m, and y over m * dx
        bends = [0] * len(kinks)
        for j, w, c in zip(slot, ws, kc):
            bends[j] += w.numerator * (f // w.denominator) * c
        s0 = s0.numerator * (m // s0.denominator)
        y0 = y0.numerator * (m // y0.denominator) * dx
        ys = list(accumulate(map(mul, accumulate(bends, initial=s0), runs),
                             initial=y0))
        out.append(act(pl.Knots(xs, dx, ys, m * dx)))
    return out


def net_to_pl(n: ReluNetwork, cap: int = pl.DEFAULT_KNOT_CAP
              ) -> pl.PiecewiseLinear:
    """Exact PL computed by a rational-weight network on [0,1].

    Every unit's function is propagated as integer ``pl.Knots``, canonical
    after each layer, and the cap bounds the distinct abscissae a layer
    reads.  A network of depth 2 or more gets its first two layers from
    ``_kink_sweep``; later layers each sum their inputs by ``pl.combine``.
    The output is audited against the [0,1] codomain; out-of-range values
    are reported as an error, never clamped silently.
    """
    if not n.rational:
        raise ValueError("exact PL propagation needs rational weights")
    acts = [_raw_relu] * (n.depth - 1) + [pl.canon]
    state, done = [pl.identity().raw], 0
    if n.depth > 1:
        state, done = _kink_sweep(*n.layers[:2], acts[1], cap), 2
    for (w, b), act in zip(n.layers[done:], acts[done:]):
        sums = (pl.combine(state, row, bias) for row, bias in zip(w, b))
        first = next(sums)  # one knot per abscissa of the layer before
        _within(len(first.xs), cap)
        state = [act(first), *map(act, sums)]
    xs, dx, ys, dy = out = state[0]
    bad = [i for i, y in enumerate(ys) if not (0 <= y <= dy)]
    if bad:
        x, y = Fraction(xs[bad[0]], dx), Fraction(ys[bad[0]], dy)
        raise ValueError(f"network output leaves [0,1]: f({x}) = {y}")
    return pl.PiecewiseLinear(out)


def eps_approx(f: pl.PiecewiseLinear, eps) -> pl.PiecewiseLinear:
    """PL approximant g with sup|f-g| <= eps using equal value-spacing.

    Each monotone piece contributes knots at value levels eps apart (not
    equal x-spacing), so pieces(g) <= monotone_pieces(f) * ceil(1/eps) + 1
    regardless of how slope mass is distributed.

    On a run from knot lo to hi, with t_j = sign * (ys[j] - ys[lo]) never
    decreasing, the levels are ys[lo] + sign * m * eps for 0 < m * eps <
    t_hi, and segment j holds those with t_j < m * eps <= t_(j+1).
    """
    eps = pl.rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps >= 1:
        return pl.constant(Fraction(1, 2))

    # f's values and the levels, eps apart, as integers over one scale
    xs, dx, ys, dy = f.raw
    s = lcm(dy, eps.denominator)
    if s != dy:
        ys = [y * (s // dy) for y in ys]
    step = eps.numerator * (s // eps.denominator)
    pts = [(xs[0], 1, ys[0])]  # (n, d, y): knot x = n / (d * dx)

    ends = [0, *pl.turning_knots(ys), len(ys) - 1]
    for lo, hi in zip(ends, ends[1:]):  # f is monotone on knots lo..hi
        if hi > lo + 1:  # on one segment the level points are collinear
            y0 = ys[lo]
            sign = 1 if ys[hi] >= y0 else -1
            top = (sign * (ys[hi] - y0) - 1) // step
            for j in range(lo, hi):
                t0, t1 = (sign * (y - y0) // step for y in ys[j:j + 2])
                for m in range(t0 + 1, min(t1, top) + 1):
                    y = y0 + sign * m * step
                    n, d = pl._at(xs[j], ys[j], xs[j + 1], ys[j + 1], y)
                    pts.append((n, d, y))
        pts.append((xs[hi], 1, ys[hi]))

    xn, xd, out = map(list, zip(*pts))
    xs, m = pl._common(xn, xd)
    return pl.PiecewiseLinear(pl.Knots(xs, dx * m, out, s))
