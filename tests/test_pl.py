"""Exact PL engine: construction, composition, counting, and error metrics.

Expected values marked by hand were derived independently (closed forms,
hand iteration of the tent map, or trapezoid geometry) before being frozen.
"""

import random
import tracemalloc
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itermaps import hardness, maps, pl
from itermaps.errors import ResourceLimitError

from conftest import (crossings, pointwise_l1, random_pl, random_rational,
                      random_unit_map)

TENT = pl.new([(0, 0), (F(1, 2), 1), (1, 0)])


def l1_diff(f, g):
    """Exact integral of |f - g| over [0,1], through the raw-knot layer."""
    return pl.abs_integral(pl.combine((f.raw, g.raw), (1, -1), 0))


def tent(r):
    return pl.new([(0, 0), (F(1, 2), r), (1, 0)])


class TestConstruction:
    def test_tent_has_two_pieces(self):
        assert len(TENT.knots) == 3
        assert pl.monotone_pieces(TENT) == 2

    def test_collinear_interior_knot_removed(self):
        f = pl.new([(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), 1), (1, 0)])
        assert f.knots == TENT.knots

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            pl.new([(0, 0), (1, 0), (F(1, 2), 1)])

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError):
            pl.new([(0, 0), (F(1, 2), F(3, 2)), (1, 0)])

    def test_must_span_unit_interval(self):
        with pytest.raises(ValueError):
            pl.new([(0, 0), (F(1, 2), 1)])

    def test_canonicalization_idempotent(self, rng):
        for _ in range(50):
            f = random_pl(rng)
            assert pl.new(f.knots).knots == f.knots

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            pl.new([(0, 0), (0.5, 1.0), (1, 0)])


class TestStorage:
    """Only ``raw`` is stored; the Fraction pairs are built on first read."""

    def test_iterate_and_evaluation_build_no_fraction_pairs(self,
                                                            monkeypatch):
        calls = []
        unscale = pl.unscale
        monkeypatch.setattr(pl, "unscale",
                            lambda k: calls.append(k) or unscale(k))
        fk = pl.iterate(TENT, 12)
        assert calls == []
        assert fk(F(1, 3)) == F(2, 3)  # between knots: a fixed point
        assert fk(F(1, 2)) == 0  # at a knot
        assert "knots" not in vars(fk)
        assert calls == []
        assert len(fk.knots) == 2**12 + 1
        assert len(calls) == 1 and "knots" in vars(fk)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_pairs_and_scaled_pairs_build_one_function(self, seed):
        f = random_pl(random.Random(seed))
        # midpoints make collinear knots for construction to drop
        pts = sorted(list(f.knots) + [
            ((x0 + x1) / 2, (y0 + y1) / 2)
            for (x0, y0), (x1, y1) in zip(f.knots, f.knots[1:])])
        g, h = pl.new(pts), pl.PiecewiseLinear(pl.scale(pts))
        assert list(vars(g)) == list(vars(h)) == ["raw"]
        assert g == h == f
        assert g.knots == h.knots == f.knots

    def test_iterate_retains_under_100_bytes_per_knot(self):
        f = maps.TentMap(1).to_pl()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f16 = pl.iterate(f, 16)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(f16.raw.xs) == 2**16 + 1
        assert retained / len(f16.raw.xs) < 100


class TestEval:
    def test_tent_quarter(self):
        assert TENT(F(1, 4)) == F(1, 2)

    def test_tent_apex(self):
        assert TENT(F(1, 2)) == 1

    def test_scaled_tent_closed_form(self):
        # 2 * (4/5) * min(x, 1-x) at x = 3/4
        assert tent(F(4, 5))(F(3, 4)) == F(2, 5)

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            TENT(F(3, 2))

    def test_values_at_equals_call(self):
        # sorted points that include every knot, 0 and 1, and repeats
        rng = random.Random(2110)
        for _ in range(200):
            f = random_pl(rng)
            xs = [x for x, _ in f.knots]
            xs += [random_rational(rng, 200)
                   for _ in range(rng.randint(0, 12))]
            xs += [F(0), F(1), rng.choice(xs)]
            pts = sorted(xs)
            dy = f.raw.dy
            assert [F(n, d * dy) for n, d in pl.values_at(f, pts)] == [
                f(x) for x in pts]


class TestCompose:
    def test_tent_squared_shape(self):
        f2 = pl.compose(TENT, TENT)
        assert pl.monotone_pieces(f2) == 4
        assert f2(F(1, 4)) == 1
        assert f2(F(3, 4)) == 1
        assert f2(0) == 0 and f2(F(1, 2)) == 0 and f2(1) == 0

    def test_identity_neutral(self, rng):
        ident = pl.identity()
        for _ in range(20):
            f = random_pl(rng)
            assert pl.compose(ident, f).knots == f.knots
            assert pl.compose(f, ident).knots == f.knots

    def test_pointwise_agreement(self, rng):
        for _ in range(10):
            f, g = random_unit_map(rng), random_pl(rng)
            h = pl.compose(f, g)
            for _ in range(20):
                x = F(rng.randint(0, 997), 997)
                assert h(x) == g(f(x))

    def test_monotone_subadditivity(self, rng):
        for _ in range(25):
            f, g = random_unit_map(rng), random_pl(rng)
            assert pl.monotone_pieces(pl.compose(f, g)) <= (
                pl.monotone_pieces(f) * pl.monotone_pieces(g)
            )


class TestIterate:
    def test_zeroth_iterate_is_identity(self):
        assert pl.iterate(TENT, 0).knots == pl.identity().knots

    @pytest.mark.parametrize("k,expect", [(1, 2), (3, 8), (10, 1024)])
    def test_full_tent_doubles(self, k, expect):
        assert pl.monotone_pieces(pl.iterate(TENT, k)) == expect

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            pl.iterate(TENT, 12, cap=1000)

    def test_extrema_oracle(self, rng):
        # counting sign alternations must agree with a from-scratch scan of
        # strict local extrema over the knot sequence
        for _ in range(8):
            f = random_unit_map(rng)
            fk = pl.iterate(f, rng.randint(1, 5))
            ys = [y for _, y in fk.knots]
            extrema = 0
            prev = None
            for a, b in zip(ys, ys[1:]):
                if a == b:
                    continue
                d = 1 if b > a else -1
                if prev is not None and d != prev:
                    extrema += 1
                prev = d
            assert pl.monotone_pieces(fk) == extrema + 1


class TestTurningKnots:
    def test_flats_join_the_run_they_end(self):
        # leading flat, rise, flat, fall, two-segment rise, trailing flat
        assert pl.turning_knots([2, 2, 5, 5, 1, 3, 4, 4]) == [3, 4]

    def test_flat_function_has_no_turn(self):
        assert pl.turning_knots([3, 3]) == []
        assert pl.monotone_pieces(pl.constant(F(1, 3))) == 1

    def test_runs_between_turns_are_monotone(self, rng):
        for _ in range(20):
            ys = random_pl(rng).raw.ys
            ends = [0, *pl.turning_knots(ys), len(ys) - 1]
            for lo, hi in zip(ends, ends[1:]):
                run = ys[lo:hi + 1]
                assert run == sorted(run) or run == sorted(run, reverse=True)


class TestCrossings:
    def test_full_tent(self):
        assert crossings(TENT, 0, 1) == 2

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_iterated_tent(self, k):
        assert crossings(pl.iterate(TENT, k), 0, 1) == 2**k

    def test_identity_segment(self):
        assert crossings(pl.identity(), F(1, 4), F(1, 2)) == 1

    def test_band_above_range_is_zero(self):
        assert crossings(tent(F(2, 5)), F(1, 2), F(3, 4)) == 0

    def test_tent_squared_inner_band(self):
        assert crossings(pl.iterate(TENT, 2), F(1, 4), F(3, 4)) == 4

    def test_grazing_touch_not_counted(self):
        # apex exactly at the lower band edge: touches a without traversing
        f = tent(F(1, 2))
        assert crossings(f, F(1, 2), 1) == 0

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            crossings(TENT, F(1, 2), F(1, 2))

    def test_bounded_by_monotone_pieces(self, rng):
        for _ in range(30):
            f = random_pl(rng)
            a = F(rng.randint(0, 63), 128)
            b = a + F(rng.randint(1, 64), 128)
            assert crossings(f, a, b) <= pl.monotone_pieces(f)


class TestErrors:
    def test_linf_self(self):
        assert pl.linf_diff(TENT, TENT) == 0

    def test_linf_tent_vs_zero(self):
        assert pl.linf_diff(TENT, pl.constant(0)) == 1

    def test_linf_tent_vs_identity(self):
        # merged-knot sweep: diff is 1/2 at the apex but 1 at x = 1
        assert pl.linf_diff(TENT, pl.identity()) == 1

    def test_l1_self(self):
        assert l1_diff(TENT, TENT) == 0

    def test_l1_tent_triangle_area(self):
        assert l1_diff(TENT, pl.constant(0)) == F(1, 2)

    def test_l1_identity_vs_half(self):
        # two triangles of area 1/8 each
        assert l1_diff(pl.identity(), pl.constant(F(1, 2))) == F(1, 4)

    def test_l1_sign_change_split(self):
        # f - g changes sign at x = 1/2; integral of |x - 1/2| = 1/4
        assert l1_diff(pl.identity(), pl.constant(F(1, 2))) == F(1, 4)


class TestRawKnots:
    def test_norms_match_pointwise_reference(self, rng):
        for _ in range(100):
            f, g = random_pl(rng), random_pl(rng)
            xs = {x for x, _ in f.knots} | {x for x, _ in g.knots}
            assert pl.linf_diff(f, g) == max(abs(f(x) - g(x)) for x in xs)
            assert l1_diff(f, g) == pointwise_l1(f, g)

    def test_combine_is_pointwise_sum(self, rng):
        for _ in range(50):
            fs = [random_pl(rng) for _ in range(rng.randint(1, 4))]
            cs = [random_rational(rng) - random_rational(rng) for _ in fs]
            bias = random_rational(rng) - random_rational(rng)
            out = pl.unscale(pl.combine([f.raw for f in fs], cs, bias))
            assert [x for x, _ in out] == sorted(
                {x for f in fs for x, _ in f.knots})
            for x, y in out:
                assert y == sum(c * f(x) for c, f in zip(cs, fs)) + bias

    @pytest.mark.parametrize("sign", [-1, 0, 1])
    def test_one_input_affine_image_matches_sweep(self, sign, rng):
        # adding the zero function sends one input through the general sweep
        zero = pl.constant(0).raw
        for _ in range(50):
            k = random_pl(rng).raw
            c = sign * (random_rational(rng) + F(1, 64))
            bias = random_rational(rng) - random_rational(rng)
            assert (pl.canon(pl.combine([k], (c,), bias))
                    == pl.canon(pl.combine([k, zero], (c, 1), bias)))

    def test_level_set_hits_are_on_level(self, rng):
        for _ in range(100):
            f = random_pl(rng)
            y = random_rational(rng, den_max=4)
            xs = pl.level_set(f.raw, y)
            assert xs == sorted(set(xs))
            assert all(f(x) == y for x in xs)
            assert {x for x, v in f.knots if v == y} <= set(xs)

    def test_level_set_plateau_gives_both_ends(self):
        f = pl.new([(0, 0), (F(2, 5), F(1, 2)), (F(3, 5), F(1, 2)), (1, 0)])
        assert pl.level_set(f.raw, F(1, 2)) == [F(2, 5), F(3, 5)]

    def test_level_set_tent_half(self):
        knots = pl.scale(maps.TentMap(1).to_pl().knots)
        assert pl.level_set(knots, F(1, 2)) == [F(1, 4), F(3, 4)]


def canon(pts):
    """pl.canon of Fraction knots, through the boundary pair."""
    return pl.unscale(pl.canon(pl.scale(pts)))


def combine(inputs, coeffs, bias):
    """pl.combine of Fraction knot lists, through the boundary pair."""
    return pl.unscale(pl.combine([pl.scale(k) for k in inputs], coeffs, bias))


def ref_canon(pts):
    """Canonical knots by the stack test with two cross-multiplications."""
    out = [pts[0]]
    for p in pts[1:]:
        while len(out) >= 2:
            (x0, y0), (x1, y1), (x2, y2) = out[-2], out[-1], p
            if (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0):
                break
            out.pop()
        out.append(p)
    return out


def ref_combine(inputs, coeffs, bias):
    """sum(c * f_i) + bias with the slope changes keyed by abscissa."""
    xs = sorted({x for knots in inputs for x, _ in knots})
    bend = dict.fromkeys(xs, 0)
    y = bias
    for c, knots in zip(coeffs, inputs):
        y += c * knots[0][1]
        prev = 0
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            s = c * (y1 - y0) / (x1 - x0)
            bend[x0] += s - prev
            prev = s
    out = [(xs[0], y)]
    slope = 0
    for x0, x1 in zip(xs, xs[1:]):
        slope += bend[x0]
        y += slope * (x1 - x0)
        out.append((x1, y))
    return out


def ref_compose(inner, outer):
    """Raw knots of outer(inner(x)), evaluated at every breakpoint."""
    xs = {x for x, _ in inner.knots}
    for (x0, y0), (x1, y1) in zip(inner.knots, inner.knots[1:]):
        for kx, _ in outer.knots[1:-1]:
            if min(y0, y1) < kx < max(y0, y1):
                xs.add(x0 + (kx - y0) * (x1 - x0) / (y1 - y0))
    return [(x, outer(inner(x))) for x in sorted(xs)]


def subdivided(rng, f, extra=12):
    """f's knots plus collinear knots inside random segments."""
    pts = list(f.knots)
    for _ in range(extra):
        i = rng.randrange(len(pts) - 1)
        (x0, y0), (x1, y1) = pts[i], pts[i + 1]
        t = F(rng.randint(1, 7), 8)
        pts.insert(i + 1, (x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    return pts


def knotted_inner(rng, outer, n=8):
    """Random PL whose ordinates repeat (plateaus) and include every knot
    abscissa of outer, so the sweep meets outer's knots at inner knots."""
    levels = [x for x, _ in outer.knots] + [random_rational(rng)]
    xs = sorted({F(rng.randint(1, 127), 128) for _ in range(n)})
    ys = [rng.choice(levels) for _ in range(len(xs) + 2)]
    return pl.new(zip([F(0)] + xs + [F(1)], ys))


class TestKernelOracles:
    """The sweep kernels against the breakpoint-set versions they replace."""

    def test_canon_matches_stack_reference(self, rng):
        for _ in range(100):
            pts = subdivided(rng, random_pl(rng), extra=rng.randint(0, 20))
            assert canon(pts) == ref_canon(pts)
            raw = [(x, y - F(1, 2)) for x, y in pts]  # unclamped ordinates
            assert canon(raw) == ref_canon(raw)

    def test_canon_long_collinear_runs(self):
        line = [(F(i, 64), F(3 * i, 64) - 1) for i in range(65)]
        assert canon(line) == [line[0], line[-1]]
        zigzag = [(F(i, 16), F(i % 2)) for i in range(17)]
        assert canon(zigzag) == zigzag
        flat = [(F(i, 16), F(1, 3)) for i in range(17)]
        assert canon(flat) == [flat[0], flat[-1]]

    def test_combine_matches_dict_reference(self, rng):
        for _ in range(100):
            fs = [subdivided(rng, random_pl(rng), extra=rng.randint(0, 4))
                  for _ in range(rng.randint(1, 5))]
            cs = [random_rational(rng) - random_rational(rng) for _ in fs]
            bias = random_rational(rng) - random_rational(rng)
            assert combine(fs, cs, bias) == ref_combine(fs, cs, bias)

    def test_compose_matches_evaluating_reference(self, rng):
        for _ in range(60):
            inner = random_unit_map(rng)
            outer = random_pl(rng)
            want = tuple(ref_canon(ref_compose(inner, outer)))
            assert pl.compose(inner, outer).knots == want

    def test_compose_plateaus_and_knots_on_outer_knots(self, rng):
        for _ in range(60):
            outer = random_pl(rng)
            inner = knotted_inner(rng, outer)
            want = tuple(ref_canon(ref_compose(inner, outer)))
            assert pl.compose(inner, outer).knots == want

    def test_iterates_match_reference(self, rng):
        for _ in range(6):
            f = random_unit_map(rng)
            fk = pl.identity()
            for _ in range(5):
                want = tuple(ref_canon(ref_compose(fk, f)))
                fk = pl.compose(fk, f)
                assert fk.knots == want

    def test_diff_matches_dict_reference(self, rng):
        # g's knots inside f's segments, on f's knots, and g larger than f;
        # pairs of like size take the merge
        for _ in range(60):
            f = pl.iterate(random_unit_map(rng), rng.randint(1, 4))
            on = [(x, random_rational(rng))
                  for x, _ in sorted(rng.sample(f.knots[1:-1],
                                                min(3, len(f.knots) - 2)))]
            for g in (random_pl(rng, max_interior=3),
                      pl.new([(0, 0), *on, (1, 1)]), random_pl(rng)):
                for a, b in ((f, g), (g, f)):
                    got = pl.diff(a, b)
                    old = pl.combine((a.raw, b.raw), (1, -1), 0)
                    assert pl.unscale(got) == ref_combine(
                        (a.knots, b.knots), (1, -1), 0)
                    assert pl.max_abs(got) == pl.max_abs(old)
                    assert pl.abs_integral(got) == pl.abs_integral(old)

    def test_compose_both_orders_match_reference(self, rng):
        # a small map with falling pieces around a large one and inside it;
        # knotted_inner puts plateaus and knots on the outer's knots
        for _ in range(30):
            f = random_unit_map(rng)
            big = pl.iterate(f, rng.randint(2, 4))
            for small in (f, random_pl(rng), knotted_inner(rng, big)):
                for inner, outer in ((small, big), (big, small)):
                    want = tuple(ref_canon(ref_compose(inner, outer)))
                    assert pl.compose(inner, outer).knots == want

    def test_iterate_matches_left_fold(self, rng):
        fs = [maps.TentMap(r).to_pl() for r in (1, F(9, 10), F(1, 2))]
        fs += [maps.FlatTentMap(r).to_pl() for r in (1, F(3, 4))]
        fs += [random_unit_map(rng) for _ in range(4)]
        for f in fs:
            fk = pl.identity()
            for k in range(1, 9):
                fk = pl.compose(fk, f)  # f^k as f after f^(k-1)
                assert pl.iterate(f, k) == fk

    def test_small_map_inside_builds_no_more_knots(self, rng):
        # the cap counts knots before canonicalisation: the least cap that
        # lets compose through is that count
        def built(inner, outer):
            lo, hi = 1, 10**4
            while lo < hi:
                try:
                    pl.compose(inner, outer, cap=(lo + hi) // 2)
                    hi = (lo + hi) // 2
                except ResourceLimitError:
                    lo = (lo + hi) // 2 + 1
            return lo

        same = [maps.TentMap(r).to_pl() for r in (1, F(9, 10))]
        same += [hardness.build_need_symmetry(4, F(1, 100)).to_pl(),
                 hardness.build_need_concavity(4, F(1, 10)).to_pl()]
        flat = [maps.FlatTentMap(r).to_pl() for r in (F(3, 4), F(9, 10))]
        for f in same + flat + [random_unit_map(rng) for _ in range(4)]:
            fj = f
            for k in range(2, 7):
                new, old = built(f, fj), built(fj, f)
                assert new == old if f in same else new <= old
                fj = pl.compose(f, fj)
        f3 = maps.FlatTentMap(F(3, 4)).to_pl()
        f3_3 = pl.iterate(f3, 3)
        assert (built(f3, f3_3), built(f3_3, f3)) == (18, 20)

    def test_cap_boundary_is_distinct_knots(self):
        assert len(pl.iterate(TENT, 10, cap=1025).knots) == 1025
        with pytest.raises(ResourceLimitError,
                           match="^composition exceeds 1024 knots$"):
            pl.iterate(TENT, 10, cap=1024)


#: denominators of the large-denominator property: any up to 2^64, 2^64
#: itself, and the 10^6 that least_squares_candidate rounds its knots to
BIG_DENS = st.one_of(st.integers(1, 2**64), st.just(2**64), st.just(10**6))


@st.composite
def big_fraction(draw):
    """A rational in [0,1] with a large denominator."""
    den = draw(BIG_DENS)
    return F(draw(st.integers(0, den)), den)


@st.composite
def big_pl(draw, max_interior=5):
    """Random PL whose knots have large denominators."""
    n = draw(st.integers(0, max_interior))
    xs = sorted({draw(big_fraction()) for _ in range(n)} - {F(0), F(1)})
    ys = [draw(big_fraction()) for _ in range(len(xs) + 2)]
    return pl.new(zip([F(0)] + xs + [F(1)], ys))


def ref_level_set(pts, y):
    """Knots at level y plus the interior crossings, in Fractions."""
    xs = {x for x, v in pts if v == y}
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if min(y0, y1) < y < max(y0, y1):
            xs.add(x0 + (y - y0) * (x1 - x0) / (y1 - y0))
    return sorted(xs)


class TestIntegerKernelLargeDenominators:
    """The integer sweeps against the Fraction references when the shared
    denominators are products of many unrelated large denominators."""

    @settings(max_examples=60, deadline=None)
    @given(big_pl(), big_pl(), big_fraction(), big_fraction(), big_fraction())
    def test_kernel_matches_fraction_references(self, f, g, c, bias, y):
        assert pl.compose(f, g).knots == tuple(ref_canon(ref_compose(f, g)))
        ff = pl.compose(f, f)
        fff = pl.compose(ff, f)
        assert fff.knots == tuple(ref_canon(ref_compose(ff, f)))
        assert pl.compose(f, ff).knots == fff.knots
        assert (pl.unscale(pl.diff(fff, g))
                == ref_combine((fff.knots, g.knots), (1, -1), 0))

        mids = [((x0 + x1) / 2, (y0 + y1) / 2)
                for (x0, y0), (x1, y1) in zip(f.knots, f.knots[1:])]
        pts = sorted(list(f.knots) + mids)
        assert canon(pts) == list(f.knots)
        raw = [(x, v - y) for x, v in pts]  # unclamped ordinates
        assert canon(raw) == ref_canon(raw)

        cs = (c - F(1, 2), F(1, 3) - bias)
        assert (combine((pts, g.knots), cs, bias)
                == ref_combine((pts, g.knots), cs, bias))

        for level in (y, g.knots[len(g.knots) // 2][1], f.knots[-1][1]):
            assert pl.level_set(f.raw, level) == ref_level_set(f.knots, level)

        diff = pl.combine((f.raw, g.raw), (1, -1), 0)
        xs = {x for x, _ in f.knots} | {x for x, _ in g.knots}
        assert pl.max_abs(diff) == max(abs(f(x) - g(x)) for x in xs)
        assert pl.abs_integral(diff) == pointwise_l1(f, g)

    def test_raw_knots_use_least_denominators(self):
        f = pl.new([(0, 0), (F(1, 2**64), F(1, 10**6)), (F(1, 3), F(1, 2)),
                    (1, 0)])
        assert f.raw == pl.Knots([0, 3, 2**64, 3 * 2**64], 3 * 2**64,
                                 [0, 1, 500000, 0], 10**6)
        assert pl.unscale(f.raw) == list(f.knots)
        assert pl.PiecewiseLinear(f.raw).knots == f.knots
        # a dropped collinear knot takes its denominators with it
        g = pl.new([(0, 0), (F(1, 6), F(1, 6)), (F(1, 2), F(1, 2)), (1, 0)])
        assert g.raw == pl.Knots([0, 1, 2], 2, [0, 1, 0], 2)


def ref_crossing_points(f, a, b):
    """The crossing sweep as it stood before ``pl._touches``: a flat at a
    level touches at its left end only, and a touch of the last touch's
    level is dropped as it is found."""
    a, b = pl.rat(a), pl.rat(b)
    xs, dx, ys, dy = f.raw
    s = lcm(dy, a.denominator, b.denominator)
    ys = [y * (s // dy) for y in ys]
    la, lb = (v.numerator * (s // v.denominator) for v in (a, b))
    touches = []
    top = None  # whether the last touch is of b

    def touch(n, d, at_b):
        nonlocal top
        if at_b is not top:
            touches.append((F(n, d * dx), b if at_b else a))
            top = at_b

    for i in range(len(xs) - 1):
        y0, y1 = ys[i], ys[i + 1]
        if y0 == y1:
            if y0 == la or y0 == lb:
                touch(xs[i], 1, y0 == lb)
            continue
        for level in ((la, lb) if y0 < y1 else (lb, la)):
            if y0 <= level <= y1 or y1 <= level <= y0:
                touch(*pl._at(xs[i], y0, xs[i + 1], y1, level), level == lb)
    return tuple(touches)


def ref_value(pts, x):
    """f(x) by Fraction interpolation on the segment that holds x."""
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= x <= x1:
            return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def flat_pl(rng):
    """Random PL whose values come from a few quarters and thirds, so
    flats are common and levels often sit on knots."""
    n = rng.randint(0, 8)
    xs = sorted({F(rng.randint(1, 63), 64) for _ in range(n)})
    ys = [F(rng.randint(0, 12), 12) for _ in range(len(xs) + 2)]
    return pl.new(zip([F(0)] + xs + [F(1)], ys))


def level_cases(f, rng):
    """Levels on f's knots, between them and off f's range."""
    values = sorted({y for _, y in f.knots})
    return values + [random_rational(rng, 12) for _ in range(3)]


def iterates():
    """f^k of tents and flat tents, whose levels repeat across many knots."""
    for m in (maps.TentMap(1), maps.TentMap(F(9, 10)), maps.TentMap(F(1, 2)),
              maps.FlatTentMap(1), maps.FlatTentMap(F(9, 10))):
        f = m.to_pl()
        for k in range(1, 7):
            yield pl.iterate(f, k)


class TestOneSweepOracles:
    """``level_set`` and ``crossing_points`` share ``pl._touches``, and point
    evaluation is ``values_at``; each against its own reference."""

    def test_level_set_matches_reference(self, rng):
        cases = [flat_pl(rng) for _ in range(300)] + list(iterates())
        for f in cases:
            for y in level_cases(f, rng):
                assert pl.level_set(f.raw, y) == ref_level_set(f.knots, y)

    def test_crossing_points_match_reference(self, rng):
        cases = [flat_pl(rng) for _ in range(300)] + list(iterates())
        for f in cases:
            levels = level_cases(f, rng)
            for _ in range(6):
                a, b = sorted(rng.sample(levels, 2))
                if a < b:
                    assert (pl.crossing_points(f, a, b)
                            == ref_crossing_points(f, a, b))
            for a, b in ((F(4, 9), F(8, 9)), (F(0), F(1))):
                want = ref_crossing_points(f, a, b)
                assert pl.crossing_points(f, a, b) == want
                for n in {0, 1, len(want) // 2, len(want), len(want) + 1}:
                    assert pl.crossing_points(f, a, b, limit=n) == want[:n]

    def test_values_at_one_point(self, rng):
        cases = [flat_pl(rng) for _ in range(300)] + list(iterates())
        for f in cases:
            dy = f.raw.dy
            for x, y in f.knots:  # 0 and 1 are knots
                (n, d), = pl.values_at(f, [x])
                assert F(n, d * dy) == y == f(x)
            for _ in range(4):
                x = random_rational(rng, 200)
                (n, d), = pl.values_at(f, [x])
                assert F(n, d * dy) == ref_value(f.knots, x) == f(x)

    def test_values_at_no_points(self):
        assert pl.values_at(TENT, []) == []


def tent_sample(points, t):
    """Sample labelled by TENT, the reference function."""
    return pl.SampleSet(points, t, tuple(TENT(x) >= t for x in points))


class TestClassification:
    def test_equal_functions(self):
        s = tent_sample((F(1, 4), F(1, 2)), F(1, 2))
        assert pl.classification_error(TENT, s) == 0

    def test_apex_sample(self):
        s = tent_sample((F(1, 2),), F(1, 2))
        assert pl.classification_error(pl.constant(0), s) == 1

    def test_half_wrong(self):
        s = tent_sample((F(0), F(1, 2)), F(1, 2))
        assert pl.classification_error(pl.constant(0), s) == F(1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pl.SampleSet((), F(1, 2), ())

    def test_matches_per_point_reference(self, rng):
        # samples of 1 to 120 points hold g's knots, 0 and 1 and points in
        # between; thresholds sit on g's values (ties) and off them; g with
        # few knots takes the slices, g with many (the iterates) the points
        cases = [flat_pl(rng) for _ in range(200)] + list(iterates())
        paths = set()
        for g in cases:
            knots = [x for x, _ in g.knots]
            levels = [y for _, y in g.knots if 0 < y < 1]
            for _ in range(3):
                n = rng.randint(1, 120)
                pts = {random_rational(rng, 300) for _ in range(n)}
                pts |= set(rng.sample(knots, rng.randint(0, len(knots))))
                pts = sorted(pts)
                t = rng.choice(levels + [F(rng.randint(1, 11), 12)])
                labels = tuple(rng.random() < 0.5 for _ in pts)
                s = pl.SampleSet(tuple(pts), t, labels)
                want = F(sum((ref_value(g.knots, x) >= t) != label
                             for x, label in zip(pts, labels)), len(pts))
                assert pl.classification_error(g, s) == want
                paths.add(4 * len(knots) > len(pts))
        assert paths == {False, True}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 10**6))
def test_eval_matches_interpolation_on_tent(num, num2, den):
    x = F(min(num, num2), max(num, num2, den))
    if x > 1:
        return
    expect = 2 * min(x, 1 - x)
    assert TENT(x) == expect
