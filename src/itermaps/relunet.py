"""ReLU networks on the unit interval: exact synthesis from PL functions,
deep composition stacks, and budgeted PL approximation.

Rational-weight networks admit exact PL propagation, so width/depth
accounting against exact monotone-piece counts is bit-precise: a PL with n
knots becomes a depth-2 net of hidden width n-1 (ramp decomposition), and
stacking a block k times multiplies depth by k while preserving width.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

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

    def to_json(self) -> str:
        def enc(x):
            if isinstance(x, (Fraction, int)):
                f = Fraction(x)
                return f"{f.numerator}/{f.denominator}"
            return x

        payload = {
            "layers": [{"w": [[enc(x) for x in row] for row in w],
                        "b": [enc(x) for x in b]} for w, b in self.layers],
            "activation": "relu",
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ReluNetwork":
        def dec(x):
            return Fraction(x) if isinstance(x, str) else x

        payload = json.loads(text)
        layers = tuple(
            (tuple(tuple(dec(x) for x in row) for row in layer["w"]),
             tuple(dec(x) for x in layer["b"]))
            for layer in payload["layers"]
        )
        return cls(layers)


def net_eval(n: ReluNetwork, x):
    """Forward pass; exact when weights and x are rational."""
    vec = [x]
    last = len(n.layers) - 1
    for i, (w, b) in enumerate(n.layers):
        vec = [sum(wij * vj for wij, vj in zip(row, vec)) + bi
               for row, bi in zip(w, b)]
        if i != last:
            zero = 0 if isinstance(vec[0], (Fraction, int)) else 0.0
            vec = [v if v > zero else zero for v in vec]
    return vec[0]


def synth_from_pl(f: pl.PiecewiseLinear) -> ReluNetwork:
    """Depth-2 net computing f exactly on [0,1].

    Ramp decomposition: one hidden unit per linear piece (the opening slope
    plus one per interior slope change), so hidden width = knots - 1.
    """
    ks = f.knots
    slopes = list(f.slopes)
    if not slopes:  # single flat piece
        slopes = [Fraction(0)]
    thresholds = [ks[0][0]] + [x for x, _ in ks[1:-1]]
    coeffs = [slopes[0]] + [s1 - s0 for s0, s1 in zip(slopes, slopes[1:])]
    w1 = tuple((Fraction(1),) for _ in thresholds)
    b1 = tuple(-t for t in thresholds)
    w2 = (tuple(coeffs),)
    b2 = (ks[0][1],)
    return ReluNetwork(layers=((w1, b1), (w2, b2)))


def stack(block: ReluNetwork, k: int) -> ReluNetwork:
    """Concatenate the same layers k times: depth x k, width unchanged.

    Valid for blocks computing maps into [0,1]: the extra inter-block ReLU
    is the identity on non-negative outputs.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return ReluNetwork(layers=block.layers * k)


def _raw_relu(knots):
    """ReLU of raw knots: zero crossings become knots, negatives clip to 0."""
    pts = []
    for p, q in zip(knots, knots[1:]):
        pts.append(p)
        if p[1] * q[1] < 0:
            pts.append((pl._at(p, q, 0), Fraction(0)))
    pts.append(knots[-1])
    clipped = [(x, y if y > 0 else Fraction(0)) for x, y in pts]
    return pl.canon(clipped)


def net_to_pl(n: ReluNetwork, cap: int = pl.DEFAULT_KNOT_CAP
              ) -> pl.PiecewiseLinear:
    """Exact PL computed by a rational-weight network on [0,1].

    The output is audited against the [0,1] codomain; out-of-range values
    are reported as an error, never clamped silently.
    """
    if not n.rational:
        raise ValueError("exact PL propagation needs rational weights")
    state = [[(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]]
    last = len(n.layers) - 1
    for i, (w, b) in enumerate(n.layers):
        if len({x for knots in state for x, _ in knots}) > cap:
            raise ResourceLimitError(f"network PL exceeds {cap} knots")
        state = [pl.canon(pl.combine(state, row, bias))
                 for row, bias in zip(w, b)]
        if i != last:
            state = [_raw_relu(k) for k in state]
    out = state[0]
    bad = [(x, y) for x, y in out if not (0 <= y <= 1)]
    if bad:
        x, y = bad[0]
        raise ValueError(f"network output leaves [0,1]: f({x}) = {y}")
    return pl.new(out)


def eps_approx(f: pl.PiecewiseLinear, eps) -> pl.PiecewiseLinear:
    """PL approximant g with sup|f-g| <= eps using equal value-spacing.

    Each monotone piece contributes knots at value levels eps apart (not
    equal x-spacing), so pieces(g) <= monotone_pieces(f) * ceil(1/eps) + 1
    regardless of how slope mass is distributed.
    """
    eps = pl.rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps >= 1:
        return pl.constant(Fraction(1, 2))

    # split knots into maximal monotone runs (flats merge rightward)
    ks = f.knots
    out = [ks[0]]
    run_start = 0
    i = 0
    dirs = []
    for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
        s = y1 - y0
        dirs.append(0 if s == 0 else (1 if s > 0 else -1))

    def emit_run(lo: int, hi: int):
        """Approximate f on knots[lo..hi] (monotone) by eps-spaced levels."""
        if hi == lo + 1:  # one segment: its level points are collinear
            out.append(ks[hi])
            return
        y0, y1 = ks[lo][1], ks[hi][1]
        sign = 1 if y1 >= y0 else -1
        levels = [y0]
        while abs(y1 - levels[-1]) > eps:
            levels.append(levels[-1] + sign * eps)
        levels.append(y1)
        j = lo
        for level in levels[1:-1]:
            while not _level_in(ks[j], ks[j + 1], level):
                j += 1
            out.append((pl._at(ks[j], ks[j + 1], level), level))
        out.append(ks[hi])

    def _level_in(a, b, level):
        lo_v, hi_v = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
        return lo_v <= level <= hi_v and a[1] != b[1]

    cur = dirs[0]
    for idx in range(1, len(dirs)):
        if dirs[idx] != 0 and cur != 0 and dirs[idx] != cur:
            emit_run(run_start, idx)
            run_start = idx
            cur = dirs[idx]
        elif cur == 0:
            cur = dirs[idx]
    emit_run(run_start, len(ks) - 1)

    dedup = [out[0]]
    for p in out[1:]:
        if p[0] > dedup[-1][0]:
            dedup.append(p)
    return pl.new(dedup)
