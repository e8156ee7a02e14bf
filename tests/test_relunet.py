"""ReLU synthesis round-trips, stacking vs iteration, eps-approximation."""

import hashlib
import json
import random
from fractions import Fraction as F
from math import lcm

import pytest

from itermaps import cli, hardness, maps, pl, relunet
from itermaps.errors import ResourceLimitError

from conftest import random_pl

TENT = pl.new([(0, 0), (F(1, 2), 1), (1, 0)])


def ref_eps_approx(f, eps):
    """``relunet.eps_approx`` by search: each level is found by stepping
    through the run, and its point is taken from the first non-flat segment
    that holds it.  The reference for the closed-form level ranges."""
    eps = pl.rat(eps)
    if eps >= 1:
        return pl.constant(F(1, 2))
    xs, dx, ys, dy = f.raw
    s = lcm(dy, eps.denominator)
    if s != dy:
        ys = [y * (s // dy) for y in ys]
    step = eps.numerator * (s // eps.denominator)
    xn, xd, out = [xs[0]], [1], [ys[0]]

    def emit(n, d, y):
        if n * xd[-1] > xn[-1] * d:  # only points right of the last one
            xn.append(n)
            xd.append(d)
            out.append(y)

    def level_in(j, level):
        a, b = ys[j], ys[j + 1]
        return a != b and min(a, b) <= level <= max(a, b)

    ends = [0, *pl.turning_knots(ys), len(ys) - 1]
    for lo, hi in zip(ends, ends[1:]):
        if hi > lo + 1:
            y0, y1 = ys[lo], ys[hi]
            sign = 1 if y1 >= y0 else -1
            level = y0
            j = lo
            while abs(y1 - level) > step:
                level += sign * step
                while not level_in(j, level):
                    j += 1
                emit(*pl._at(xs[j], ys[j], xs[j + 1], ys[j + 1], level),
                     level)
        emit(xs[hi], 1, ys[hi])

    xs, m = pl._common(xn, xd)
    return pl.PiecewiseLinear(pl.Knots(xs, dx * m, out, s))


def grid_pl(rng):
    """Random PL whose values lie on a grid of 1/8, 1/21 or 1/40, so knots
    fall on the levels of eps = 1/8, 1/3, 2/7 and 1/40, with about one value
    in three repeating the last one (a flat piece)."""
    den = rng.choice((8, 21, 40))
    n = rng.randint(2, 14)
    xs = sorted({F(rng.randint(1, 255), 256) for _ in range(n)})
    ys = [F(rng.randint(0, den), den)]
    for _ in range(len(xs) + 1):
        ys.append(ys[-1] if rng.random() < 1 / 3
                  else F(rng.randint(0, den), den))
    return pl.new(list(zip([F(0), *xs, F(1)], ys)))


def net_eval(n, x):
    """Pointwise forward pass of n at a rational x, in exact rationals: the
    reference for ``relunet.net_to_pl``'s whole-function propagation."""
    vec = [x]
    last = len(n.layers) - 1
    for i, (w, b) in enumerate(n.layers):
        vec = [sum(wij * vj for wij, vj in zip(row, vec)) + bi
               for row, bi in zip(w, b)]
        if i != last:
            vec = [max(v, 0) for v in vec]
    return vec[0]


def hand_tent_net():
    # ReLU(2x) - ReLU(4x - 2), the classic two-unit tent
    w1 = ((F(2),), (F(4),))
    b1 = (F(0), F(-2))
    w2 = ((F(1), F(-1)),)
    b2 = (F(0),)
    return relunet.ReluNetwork(layers=((w1, b1), (w2, b2)))


class TestEval:
    def test_hand_tent_apex(self):
        assert net_eval(hand_tent_net(), F(1, 2)) == 1

    def test_hand_tent_matches_pl(self, rng):
        net = hand_tent_net()
        for _ in range(50):
            x = F(rng.randint(0, 256), 256)
            assert net_eval(net, x) == TENT(x)

    def test_identity_net(self):
        net = relunet.synth_from_pl(pl.identity())
        for x in (F(0), F(1, 3), F(1)):
            assert net_eval(net, x) == x

    def test_zero_net(self):
        net = relunet.synth_from_pl(pl.constant(0))
        assert net_eval(net, F(2, 3)) == 0

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            relunet.ReluNetwork(layers=((((F(1),), (F(1),)), (F(0), F(0))),))


class TestSynthRoundTrip:
    def test_tent_width_two(self):
        net = relunet.synth_from_pl(TENT)
        assert net.depth == 2 and net.width == 2
        assert relunet.net_to_pl(net).knots == TENT.knots

    def test_iterated_tent_width(self):
        f4 = pl.iterate(TENT, 4)
        net = relunet.synth_from_pl(f4)
        assert net.width == 16  # 16 pieces -> 16 hidden units
        assert relunet.net_to_pl(net).knots == f4.knots

    def test_round_trip_100_random(self, rng):
        for _ in range(100):
            f = random_pl(rng)
            net = relunet.synth_from_pl(f)
            assert relunet.net_to_pl(net).knots == f.knots

    def test_width_is_knots_minus_one(self, rng):
        for _ in range(30):
            f = random_pl(rng)
            assert relunet.synth_from_pl(f).width == max(1, len(f.knots) - 1)


def synth_reference(f):
    """The layers of the ramp decomposition from f's Fraction knots and
    slopes: the reference for ``relunet.synth_from_pl``'s raw-knot weights."""
    ks = f.knots
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(ks, ks[1:])]
    coeffs = [slopes[0]] + [s1 - s0 for s0, s1 in zip(slopes, slopes[1:])]
    w1 = tuple((F(1),) for _ in ks[:-1])
    b1 = tuple(-x for x, _ in ks[:-1])
    return ((w1, b1), ((tuple(coeffs),), (ks[0][1],)))


class TestSynthWeights:
    def test_equal_fraction_slope_formula(self, rng):
        for _ in range(100):
            f = random_pl(rng, max_interior=12)
            layers = relunet.synth_from_pl(f).layers
            assert layers == synth_reference(f)
            # every weight is a Fraction, which the JSON writes as n/d
            assert all(type(v) is F for w, b in layers
                       for v in (*b, *(x for row in w for x in row)))


#: weights of the random networks: ints and Fractions, zero and negative
WEIGHTS = (0, 1, -1, 2, F(1, 2), F(-3, 2), F(2, 3), F(-1, 4), F(5, 7))


def random_unit(rng, bounds):
    """A weight row over inputs in bounds, and a bias that mostly puts the
    unit's zero inside the row's range, so the ReLU bends."""
    row = tuple(rng.choice(WEIGHTS) for _ in bounds)
    lo, hi = interval(row, 0, bounds)
    if hi == lo or rng.random() < 0.25:
        return row, rng.choice(WEIGHTS)
    return row, -lo - (hi - lo) * F(rng.randint(1, 7), 8)


def random_net(rng, hidden=None):
    """Random rational network rescaled into [0,1].

    `hidden` (one to three if None) hidden layers of width 1 to 4 take
    weights from WEIGHTS.
    Interval bounds of each layer's units bound the raw output g in
    [lo, hi]; the output layer computes (g - lo) / (hi - lo), or g - lo
    when g is constant, so the network maps into [0,1].
    """
    layers, bounds = [], [(F(0), F(1))]
    for _ in range(hidden or rng.randint(1, 3)):
        w, b = zip(*(random_unit(rng, bounds)
                     for _ in range(rng.randint(1, 4))))
        layers.append((w, b))
        bounds = [interval(row, bias, bounds) for row, bias in zip(w, b)]
        bounds = [(max(lo, 0), max(hi, 0)) for lo, hi in bounds]
    row, bias = random_unit(rng, bounds)
    lo, hi = interval(row, bias, bounds)
    s = hi - lo or F(1)
    layers.append(((tuple(c / s for c in row),), ((bias - lo) / s,)))
    return relunet.ReluNetwork(layers=tuple(layers))


def interval(row, bias, bounds):
    """Bounds of sum(c * v) + bias over v[i] in bounds[i]."""
    lo = hi = bias
    for c, (a, b) in zip(row, bounds):
        lo += min(c * a, c * b)
        hi += max(c * a, c * b)
    return lo, hi


def relu_reference(k):
    """Canonical ReLU of raw knots through Fraction pairs: each zero
    crossing inserted, negatives clipped to 0."""
    pts = pl.unscale(k)
    out = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        out.append((x0, max(y0, 0)))
        if y0 * y1 < 0:
            out.append((x0 - y0 * (x1 - x0) / (y1 - y0), F(0)))
    out.append((pts[-1][0], max(pts[-1][1], 0)))
    return pl.canon(pl.scale(out))


class TestRandomNetworks:
    def test_raw_relu_matches_reference(self, rng):
        # sums of two random PLs: unclamped, collinear knots included
        for _ in range(200):
            f, g = random_pl(rng), random_pl(rng)
            cs = [F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in "fg"]
            bias = F(rng.randint(-8, 8), rng.randint(1, 8))
            for k in (pl.combine([f.raw], cs[:1], bias),
                      pl.combine([f.raw, g.raw], cs, bias)):
                assert relunet._raw_relu(k) == relu_reference(k)

    @pytest.mark.parametrize("pts, want", [
        # knots that touch 0 without crossing it
        ([(0, 1), (F(1, 3), 0), (F(2, 3), 1), (1, F(1, 2))], None),
        ([(0, -1), (F(1, 2), 0), (1, -1)], [(0, 0), (1, 0)]),
        # flat runs at 0 between positive parts
        ([(0, 1), (F(1, 4), 0), (F(1, 2), 0), (F(3, 4), 0), (1, 1)],
         [(0, 1), (F(1, 4), 0), (F(3, 4), 0), (1, 1)]),
        ([(0, 1), (F(1, 4), 0), (F(1, 2), -1), (F(3, 4), 0), (1, 1)],
         [(0, 1), (F(1, 4), 0), (F(3, 4), 0), (1, 1)]),
        ([(0, 1), (F(1, 8), -1), (F(1, 4), 0), (F(1, 2), -1),
          (F(5, 8), F(1, 2)), (1, -1)],
         [(0, 1), (F(1, 16), 0), (F(7, 12), 0), (F(5, 8), F(1, 2)),
          (F(3, 4), 0), (1, 0)]),
        # a crossing exactly at a knot
        ([(0, 1), (F(1, 2), 0), (1, -1)], [(0, 1), (F(1, 2), 0), (1, 0)]),
        ([(0, -1), (F(1, 2), 0), (1, 1)], [(0, 0), (F(1, 2), 0), (1, 1)]),
        # an all-negative input is the zero function
        ([(0, -1), (F(1, 2), -2), (1, F(-1, 3))], [(0, 0), (1, 0)]),
        # collinear interior knots, through and beside the crossing
        ([(0, -1), (F(1, 4), F(-1, 2)), (F(1, 2), 0), (F(3, 4), F(1, 2)),
          (1, 1)], [(0, 0), (F(1, 2), 0), (1, 1)]),
        ([(0, 1), (F(1, 3), F(1, 3)), (F(2, 3), F(-1, 3)), (1, -1)],
         [(0, 1), (F(1, 2), 0), (1, 0)]),
        ([(0, 0), (F(1, 2), F(1, 2)), (1, 1)], [(0, 0), (1, 1)]),
    ], ids=["touch_above", "touch_below", "flat_zero", "dip_between",
            "mixed", "knot_to_below", "knot_to_above", "all_negative",
            "collinear_crossing", "collinear_beside", "collinear_positive"])
    def test_raw_relu_edge_cases(self, pts, want):
        k = pl.scale([(F(x), F(y)) for x, y in pts])
        got = relunet._raw_relu(k)
        assert got == relu_reference(k)
        # want None: the input is its own canonical ReLU
        assert got == pl.new(pts if want is None else want).raw

    def test_net_to_pl_matches_pointwise_forward_pass(self, rng):
        for _ in range(150):
            net = random_net(rng)
            g = relunet.net_to_pl(net)
            xs = [x for x, _ in g.knots]
            # g is linear between knots: a missed bend shows at a midpoint
            xs += [(x0 + x1) / 2 for x0, x1 in zip(xs, xs[1:])]
            xs += [F(rng.randint(0, 997), 997) for _ in range(10)]
            for x in xs:
                assert g(x) == net_eval(net, x)


def distinct_abscissae(state):
    """Number of distinct knot abscissae over all of state's knot lists: the
    knots a unit's affine input over state can have."""
    dx = lcm(*(k.dx for k in state))
    seen = set()
    for k in state:
        m = dx // k.dx
        seen.update(x * m for x in k.xs)
    return len(seen)


def ref_propagate(layers, last_is_output):
    """Unit by unit, as ``net_to_pl`` propagated every layer before the
    kink sweep: each unit's affine input by ``pl.combine`` over the last
    layer's units, then ``_raw_relu``, or ``pl.canon`` on the output layer.
    The reference for ``relunet._kink_sweep``."""
    state = [pl.identity().raw]
    last = len(layers) - 1 if last_is_output else None
    for i, (w, b) in enumerate(layers):
        act = pl.canon if i == last else relunet._raw_relu
        state = [act(pl.combine(state, row, bias)) for row, bias in zip(w, b)]
    return state


#: kinks of the first-layer units: ints, repeats, the ends and outside
KINKS = (0, 1, F(1, 4), F(1, 4), F(2, 3), F(5, 16), F(-1, 3), F(5, 4))


def kinked_layer(rng, width):
    """A first layer of `width` units relu(c x + b), with c from WEIGHTS
    (so c = 0, negative c and ints) and the kink -b / c from KINKS, and
    the pairs (i, j) of units j that copy or mirror unit i: (c, b) or
    (-c, -b), with the same kink and the same |c|."""
    units, pairs = [], []
    while len(units) < width:
        c = rng.choice(WEIGHTS)
        units.append((c, rng.choice(WEIGHTS) if c == 0
                      else -c * rng.choice(KINKS)))
        if len(units) < width and c != 0 and rng.random() < 0.25:
            pairs.append((len(units) - 1, len(units)))
            s = rng.choice((1, -1))
            units.append((s * c, s * units[-1][1]))
    return tuple((c,) for c, _ in units), tuple(b for _, b in units), pairs


def kinked_row(rng, width, pairs):
    """Second-layer weights: from WEIGHTS, with some rows all zero, and
    each pair's second weight often minus its first, so that the pair's
    slope changes at their shared kink cancel."""
    if rng.random() < 0.1:
        return (0,) * width
    row = [rng.choice(WEIGHTS) for _ in range(width)]
    for i, j in pairs:
        if rng.random() < 0.5:
            row[j] = -row[i]
    return tuple(row)


class TestKinkSweep:
    """``net_to_pl``'s first two layers, one sweep over the first layer's
    kinks, against the unit-by-unit propagation they replaced."""

    def test_matches_unit_by_unit(self, rng):
        for _ in range(300):
            width = rng.choice((1, 2, 3, rng.randint(4, 64)))
            w1, b1, pairs = kinked_layer(rng, width)
            rows = rng.randint(1, 4)
            w2 = tuple(kinked_row(rng, width, pairs) for _ in range(rows))
            b2 = tuple(rng.choice(WEIGHTS) for _ in range(rows))
            layers = ((w1, b1), (w2, b2))
            first = ref_propagate(layers[:1], False)
            cap = distinct_abscissae(first)
            for output, act in ((True, pl.canon), (False, relunet._raw_relu)):
                want = ref_propagate(layers, output)
                assert relunet._kink_sweep(*layers, act, cap) == want
            with pytest.raises(ResourceLimitError,
                               match=f"exceeds {cap - 1} knots"):
                relunet._kink_sweep(*layers, act, cap - 1)

    def test_deep_nets_match_unit_by_unit(self, rng):
        # the first two layers of nets of depth 2 to 4, rescaled into [0,1]
        for _ in range(150):
            width = rng.choice((1, 2, rng.randint(3, 64)))
            w1, b1, pairs = kinked_layer(rng, width)
            bounds = [interval(row, b, [(F(0), F(1))]) for row, b in
                      zip(w1, b1)]
            bounds = [(max(lo, 0), max(hi, 0)) for lo, hi in bounds]
            layers = [(w1, b1)]
            for _ in range(rng.randint(0, 2)):
                w, b = zip(*(random_unit(rng, bounds)
                             for _ in range(rng.randint(1, 4))))
                if len(layers) == 1:
                    w = tuple(kinked_row(rng, width, pairs) for _ in w)
                layers.append((w, b))
                bounds = [interval(row, bias, bounds)
                          for row, bias in zip(w, b)]
                bounds = [(max(lo, 0), max(hi, 0)) for lo, hi in bounds]
            row, bias = random_unit(rng, bounds)
            lo, hi = interval(row, bias, bounds)
            s = hi - lo or F(1)
            layers.append(((tuple(c / s for c in row),), ((bias - lo) / s,)))
            net = relunet.ReluNetwork(layers=tuple(layers))
            (want,) = ref_propagate(net.layers, True)
            assert relunet.net_to_pl(net).raw == want

    def test_cap_counts_distinct_kinks(self):
        # kinks 1/4 (three times), 1/2 (twice), 0 and 1: two distinct
        # inside (0, 1), so the second layer reads 4 abscissae
        w1 = ((F(1),), (F(2),), (F(-1),), (F(1),), (F(-3),), (F(1),),
              (F(1),))
        b1 = (F(-1, 4), F(-1, 2), F(1, 4), F(-1, 2), F(3, 2), F(0),
              F(-1))
        w2 = ((F(1, 4), F(1, 8), F(1, 4), F(1, 4), F(1, 12), F(1, 16), 1),)
        net = relunet.ReluNetwork(layers=((w1, b1), (w2, (F(0),))))
        (want,) = ref_propagate(net.layers, True)
        assert relunet.net_to_pl(net, cap=4).raw == want
        with pytest.raises(ResourceLimitError, match="exceeds 3 knots"):
            relunet.net_to_pl(net, cap=3)
        # the input x alone has two abscissae
        with pytest.raises(ResourceLimitError, match="exceeds 1 knots"):
            relunet.net_to_pl(net, cap=1)

    def test_shallow_net_takes_no_combine(self, monkeypatch):
        # the first layer must not go back to one pl.combine per unit
        calls = []
        combine = pl.combine

        def counted(*args):
            calls.append(len(args[0]))
            return combine(*args)

        f9 = pl.iterate(TENT, 9)
        net = relunet.synth_from_pl(f9)
        monkeypatch.setattr(pl, "combine", counted)
        assert relunet.net_to_pl(net) == f9
        assert calls == []


def layer_reads(net):
    """Distinct abscissae that layers 1, 2, ... read, from the unit-by-unit
    propagation: the counts ``net_to_pl`` holds against its cap."""
    return [distinct_abscissae(ref_propagate(net.layers[:i], False))
            for i in range(1, net.depth)]


class TestDeepCap:
    """The cap on the third and later layers, which ``net_to_pl`` reads off
    each layer's first ``pl.combine`` sum."""

    @staticmethod
    def assert_cap_boundary(net):
        reads = layer_reads(net)
        cap = max(reads)
        assert relunet.net_to_pl(net, cap=cap) == relunet.net_to_pl(net)
        with pytest.raises(ResourceLimitError,
                           match=f"network PL exceeds {cap - 1} knots"):
            relunet.net_to_pl(net, cap=cap - 1)
        return reads

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_stacked_tent(self, k):
        reads = self.assert_cap_boundary(
            relunet.stack(relunet.synth_from_pl(TENT), k))
        # the largest read is a pl.combine layer's, past the kink sweep
        assert reads.index(max(reads)) >= 1

    def test_stacked_random_blocks(self, rng):
        for _ in range(20):
            f = random_pl(rng, max_interior=4)
            reads = self.assert_cap_boundary(
                relunet.stack(relunet.synth_from_pl(f), rng.randint(2, 3)))
            assert len(reads) >= 3

    def test_random_deep_nets(self, rng):
        for _ in range(60):
            net = random_net(rng, hidden=rng.randint(2, 3))
            assert net.depth in (3, 4)
            self.assert_cap_boundary(net)


class TestStack:
    def test_stack_identity(self):
        ident = relunet.synth_from_pl(pl.identity())
        stacked = relunet.stack(ident, 5)
        assert relunet.net_to_pl(stacked).knots == pl.identity().knots

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 10])
    def test_stack_equals_iterate(self, k):
        block = relunet.synth_from_pl(TENT)
        assert relunet.net_to_pl(relunet.stack(block, k)).knots == \
            pl.iterate(TENT, k).knots

    def test_stack_random_blocks(self, rng):
        # small denominators keep the k = 8 composition cheap
        for _ in range(5):
            n = rng.randint(1, 4)
            xs = sorted({F(rng.randint(1, 15), 16) for _ in range(n)})
            knots = [(F(0), F(0))]
            knots += [(x, F(rng.randint(0, 8), 8)) for x in xs]
            knots.append((F(1), F(0)))
            f = pl.new(knots)
            block = relunet.synth_from_pl(f)
            for k in (2, 4, 8):
                got = relunet.net_to_pl(relunet.stack(block, k))
                assert got.knots == pl.iterate(f, k).knots

    def test_depth_and_width_accounting(self):
        block = relunet.synth_from_pl(TENT)
        stacked = relunet.stack(block, 7)
        assert stacked.depth == 7 * block.depth
        assert stacked.width == block.width

    def test_zero_stack_rejected(self):
        with pytest.raises(ValueError):
            relunet.stack(hand_tent_net(), 0)


class TestNetToPL:
    def test_constant_net(self):
        f = relunet.net_to_pl(relunet.synth_from_pl(pl.constant(F(1, 3))))
        assert f.knots == pl.constant(F(1, 3)).knots

    def test_out_of_range_reported(self):
        # 2x leaves [0,1] at x > 1/2; must error, not clamp
        net = relunet.ReluNetwork(layers=((((F(2),),), (F(0),)),))
        with pytest.raises(ValueError, match="leaves"):
            relunet.net_to_pl(net)

    def test_irrational_rejected(self):
        net = relunet.ReluNetwork(layers=((((0.5,),), (0.0,)),))
        with pytest.raises(ValueError, match="rational"):
            relunet.net_to_pl(net)

    def test_cap_on_merged_abscissae(self):
        # the output layer merges 0, 1 and the 7 interior ramp thresholds
        f = pl.iterate(TENT, 3)
        net = relunet.synth_from_pl(f)
        assert relunet.net_to_pl(net, cap=9).knots == f.knots
        with pytest.raises(ResourceLimitError, match="exceeds 8 knots"):
            relunet.net_to_pl(net, cap=8)


class TestEpsApprox:
    def test_tent_quarter(self):
        g = relunet.eps_approx(TENT, F(1, 4))
        assert pl.linf_diff(TENT, g) <= F(1, 4)
        assert pl.monotone_pieces(g) <= 9

    def test_eps_at_least_one_gives_constant(self):
        g = relunet.eps_approx(TENT, 1)
        assert g.knots == pl.constant(F(1, 2)).knots

    def test_contract_on_random(self, rng):
        for eps in (F(1, 4), F(1, 16), F(1, 64)):
            for _ in range(34):
                f = random_pl(rng)
                g = relunet.eps_approx(f, eps)
                assert pl.linf_diff(f, g) <= eps
                bound = pl.monotone_pieces(f) * (1 / eps) + 1
                assert len(g.knots) - 1 <= bound

    def test_budget_matches_piece_count(self):
        f6 = pl.iterate(TENT, 6)
        eps = F(1, 8)
        g = relunet.eps_approx(f6, eps)
        assert pl.linf_diff(f6, g) <= eps
        assert len(g.knots) - 1 <= pl.monotone_pieces(f6) * 8 + 1

    # runs with flats and runs of several segments, where the level points
    # step from segment to segment; recorded before the run split moved to
    # pl.turning_knots
    @pytest.mark.parametrize("make, eps, digest", [
        (lambda: pl.iterate(maps.FlatTentMap(1).to_pl(), 3), F(1, 8),
         "0a4ede4b11e8ce9ecc17e32c834606693001cc4b843096338181a447385bcdbc"),
        (lambda: hardness.build_need_concavity(3, F(1, 10)).to_pl(), F(1, 64),
         "b59825784d34a9e7ef78d039375c796f059da74db8704d3216b7b4f11661af1c"),
        # seed 27 repeats the value 1 three times, twice side by side
        (lambda: random_pl(random.Random(27), max_interior=12), F(1, 16),
         "b45ae47e39d6eae34ab2f51a23a866d22b663cf3133ad07401158468fc89db55"),
    ], ids=["flat_tent_f3", "need_concavity", "random_pl_27"])
    def test_raw_pinned(self, make, eps, digest):
        g = relunet.eps_approx(make(), eps)
        assert hashlib.sha256(
            repr(tuple(g.raw)).encode()).hexdigest() == digest

    def test_level_ranges_match_search(self):
        rng = random.Random(2110)
        fs = [grid_pl(rng) for _ in range(240)]
        fs += [random_pl(rng, max_interior=12) for _ in range(40)]
        fs += [pl.iterate(maps.TentMap(F(rng.randint(9, 16), 16)).to_pl(),
                          rng.randint(2, 5)) for _ in range(20)]
        fs.append(pl.iterate(maps.FlatTentMap(1).to_pl(), 3))
        for f in fs:
            for eps in (F(1, 8), F(1, 3), F(2, 7), F(1, 40)):
                assert relunet.eps_approx(f, eps).raw == (
                    ref_eps_approx(f, eps).raw), (f.knots, eps)


class TestSerialization:
    def test_json_fields(self):
        payload = json.loads(cli.dump(hand_tent_net().to_dict()))
        assert payload["activation"] == "relu"
        assert payload["layers"][0]["w"] == [["2/1"], ["4/1"]]
