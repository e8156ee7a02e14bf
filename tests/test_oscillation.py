"""Lap and crossing counts vs exact PL iteration, exact rationals, the
float preimage tree and the memo walk on values; growth series, entropy."""

import bisect
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from conftest import (crossings, kneading_laps, orbit, random_unit_map,
                      tent_near)
from hypothesis import given, settings
from hypothesis import strategies as st

from itermaps import cycles, hardness, maps, oscillation, pl, warmup

SS_12 = 0.8090169943749474  # logistic two-cycle through the critical point
SS_1324 = 0.8671
SS_123 = 0.9580


def _logistic_laps(r, k_max: int, c=F(1, 2)) -> tuple[int, ...]:
    """M(f^k), k = 1..k_max, of f(x) = 4 r x (1 - x) in the arithmetic of
    r and c = 1/2: exact rationals by default, or mpmath numbers.

    Laps are grouped by their image (lo, hi); one splits under f into
    (f(lo), f(1/2)) and (f(hi), f(1/2)) exactly when lo < 1/2 < hi.
    """
    image = {}

    def f(x):
        if x not in image:
            image[x] = 4 * r * x * (1 - x)
        return image[x]

    c1 = f(c)
    laps = {(c - c, c1): 2}
    counts = [2]
    for _ in range(k_max - 1):
        nxt = {}
        for (lo, hi), mult in laps.items():
            if lo < c < hi:
                images = [(f(lo), c1), (f(hi), c1)]
            else:
                images = [tuple(sorted((f(lo), f(hi))))]
            for key in images:
                nxt[key] = nxt.get(key, 0) + mult
        laps = nxt
        counts.append(sum(laps.values()))
    return tuple(counts)


#: two float preimages closer than this collapse to one
MERGE_TOL = 1e-10


def ref_preimages(m, y: float) -> tuple:
    """Closed-form float preimages of y under a logistic or sine map, at most
    one per side of 1/2; a pair closer than ``MERGE_TOL`` collapses to 1/2."""
    r = m.r
    if m.kind == "logistic":
        t = 1.0 - y / r
        if t < -maps.SMOOTH_TOL:
            return ()
        s = math.sqrt(max(t, 0.0))
        if s < MERGE_TOL:
            return (0.5,)
        return ((1.0 - s) / 2.0, (1.0 + s) / 2.0)
    if y > r + maps.SMOOTH_TOL:
        return ()
    t = math.asin(min(y / r, 1.0)) / math.pi
    if abs(1.0 - 2.0 * t) < MERGE_TOL:
        return (0.5,)
    return (t, 1.0 - t)


def ref_float_crossings(m, k: int, a: float, b: float) -> int:
    """Crossings of [a, b] by f^k from the k-level float preimage sets of a
    and b: the float path the lap walk replaced.

    Each level keeps a preimage only when no kept one lies within
    ``MERGE_TOL``; the count is the tag alternations of the merged, sorted
    touch sequence.
    """
    touches = []
    for tag, level in enumerate((a, b)):
        layer = [level]
        for _ in range(k):
            kept = []
            for y in layer:
                for x in ref_preimages(m, y):
                    i = bisect.bisect_left(kept, x)
                    if all(abs(kept[j] - x) > MERGE_TOL for j in (i - 1, i)
                           if 0 <= j < len(kept)):
                        kept.insert(i, x)
            layer = kept
        touches += [(x, tag) for x in layer]
    tags = [tag for _, tag in sorted(touches)]
    return sum(s != t for s, t in zip(tags, tags[1:]))


def assert_matches_pl(m, k, bands):
    """The walk's crossings against the exact crossings of the built f^k."""
    fk = pl.iterate(m.to_pl(), k)
    for a, b in bands:
        assert oscillation.count_crossings_map(m, k, a, b) == crossings(
            fk, a, b), (m, k, a, b)


SMOOTH_MAPS = [maps.LogisticMap(r) for r in (0.958, 0.9347, 0.99, 0.97,
                                             0.9764)]
SMOOTH_MAPS += [maps.SineMap(0.97), maps.SineMap(0.99)]
#: bands whose ends include the critical point, orbit values and cycle points
BANDS = [(F(0), F(1)), (F(1, 4), F(3, 4)), (F(1, 3), F(2, 3)),
         (F(2, 9), F(4, 9)), (F(4, 9), F(8, 9)), (F(1, 8), F(5, 8)),
         (F(0), F(1, 2)), (F(1, 2), F(9, 10)), (F(2, 5), F(3, 5))]


class TestFloatPreimageOracle:
    """The closed-form inverses behind ``ref_float_crossings``."""

    def test_logistic_apex(self):
        assert ref_preimages(maps.LogisticMap(1.0), 1.0) == (0.5,)

    def test_logistic_above_range_empty(self):
        assert ref_preimages(maps.LogisticMap(0.5), 0.75) == ()

    def test_soundness_random(self):
        rng = random.Random(12)
        for _ in range(500):
            y = rng.randint(0, 999) / 999
            for m in (maps.LogisticMap(0.93), maps.SineMap(0.81)):
                pre = ref_preimages(m, y)
                assert len(pre) <= 2
                for x in pre:
                    assert abs(m(x) - y) <= 1e-12

    def test_at_most_one_per_side(self):
        rng = random.Random(3)
        for _ in range(100):
            pre = ref_preimages(maps.LogisticMap(0.97), rng.random())
            assert len([x for x in pre if x < 0.5]) <= 1
            assert len([x for x in pre if x > 0.5]) <= 1


class TestCrossingOracles:
    """The lap walk's crossing counts against the float preimage tree and the
    exact crossings of the built f^k."""

    @pytest.mark.parametrize("m", SMOOTH_MAPS, ids=repr)
    def test_float_cycle_gaps_match_preimage_tree(self, m):
        gaps = set()
        for c in cycles.find_cycles(m, 5):
            pts = sorted(c.orbit)
            gaps.update(zip(pts, pts[1:]))
        assert gaps
        for k in (4, 8, 12):
            for a, b in gaps:
                assert oscillation.count_crossings_map(m, k, a, b) == (
                    ref_float_crossings(m, k, a, b))

    @pytest.mark.parametrize("r", [1, F(9, 10), F(4, 5), F(3, 4), F(7, 10),
                                   F(1, 2)], ids=str)
    def test_tents_match_pl(self, r):
        m = maps.TentMap(r)
        for k in range(1, 10):
            assert_matches_pl(m, k, BANDS)

    @pytest.mark.parametrize("r", [1, F(3, 4), F(1, 2)], ids=str)
    def test_flat_tents_match_pl(self, r):
        m = maps.FlatTentMap(r)
        for k in range(1, 8):
            assert_matches_pl(m, k, BANDS + [(F(0), r), (F(1, 5), r)])

    def test_random_custom_maps_match_pl(self, rng):
        checked = 0
        while checked < 30:
            try:
                m = maps.CustomPLMap(random_unit_map(rng))
            except ValueError:
                continue
            checked += 1
            for k in range(1, 7):
                a, b = sorted(rng.sample(range(17), 2))
                assert_matches_pl(m, k, [(F(a, 16), F(b, 16))])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(0, 31),
       st.integers(1, 32))
def test_walk_matches_pl_on_random_maps(seed, k, num, width):
    try:
        m = maps.CustomPLMap(random_unit_map(random.Random(seed)))
    except ValueError:
        return
    fk = pl.iterate(m.to_pl(), k)
    if m.strictly_unimodal:
        assert oscillation.lap_counts(m, k)[-1] == pl.monotone_pieces(fk)
    a, b = F(num, 32), F(min(num + width, 32), 32)
    if a < b:
        assert oscillation.count_crossings_map(m, k, a, b) == crossings(
            fk, a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_walk_holds_at_most_n_lap_images(seed):
    # the reason the walk takes no cap: M(f^n) grows exponentially, the
    # lap images the walk stores at level n number n at most
    try:
        m = maps.CustomPLMap(random_unit_map(random.Random(seed)))
    except ValueError:
        return
    for n in range(1, 13):
        assert len(oscillation._walk(m, n)[1]) <= n


def ref_walk(m, k: int) -> tuple[list[int], Counter]:
    """The lap walk on values, each image memoised by value: the walk that
    the rank table replaced, with the same seeds f(0) = f(1) = 0 and the
    same ``SMOOTH_TOL`` snap."""
    c = m.apex_x
    zero = c - c
    image = {zero: zero, zero + 1: zero}

    def f(v):
        if v not in image:
            y = m(v)
            image[v] = c if not m.is_exact and abs(y - c) <= (
                maps.SMOOTH_TOL) else y
        return image[v]

    c1 = f(c)
    laps = Counter({(zero, c1): 2})
    counts = [2]
    for _ in range(k - 1):
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
    return counts, laps


#: tents, flat tents (whose walk only counts crossings), float maps whose
#: orbit is snapped to c (SS_12) or meets the f(1) = 0 seed (sine:1), and
#: the two counterexample maps
REF_WALK_MAPS = [maps.TentMap(r) for r in (1, F(9, 10), F(4, 5), F(1, 2))]
REF_WALK_MAPS += [maps.FlatTentMap(r) for r in (1, F(3, 4), F(1, 2))]
REF_WALK_MAPS += [maps.LogisticMap(SS_1324), maps.LogisticMap(SS_12),
                  maps.SineMap(1.0), hardness.build_need_symmetry(3, F(1, 10)),
                  hardness.build_need_concavity(3, F(1, 10))]


def ref_ranks(vals) -> list[int]:
    """Each value's rank by a comparison sort of the distinct values."""
    distinct = sorted(set(vals))
    return [bisect.bisect_left(distinct, v) for v in vals]


def assert_ranks_and_walk_match(m, k):
    """The integer-key ranks of {0, c_0, ..., c_k} against the comparison
    sort, and the counts and level-k images against ``ref_walk``."""
    c = m.apex_x
    vals = [c - c, *orbit(m, c, k)]
    rank, ends = oscillation._ranks(vals, True)
    assert rank == ref_ranks(vals)
    assert [vals[i] for i in ends] == sorted(set(vals))
    assert oscillation._walk(m, k) == ref_walk(m, k)


class TestRankWalk:
    """The walk on the ranks of the critical orbit against ``ref_walk``:
    the same counts and the same level-k images, value for value."""

    @pytest.mark.parametrize("m", REF_WALK_MAPS, ids=repr)
    def test_matches_memo_walk_to_40(self, m):
        for k in range(1, 41):
            assert oscillation._walk(m, k) == ref_walk(m, k), k

    def test_snap_and_seed_are_exercised(self):
        # SS_12's orbit returns within SMOOTH_TOL of 1/2 without landing
        # on it, and sine:1 sends 1/2 to 1.0, whose image is the seed 0
        m = maps.LogisticMap(SS_12)
        assert 0 < abs(m(m(0.5)) - 0.5) <= maps.SMOOTH_TOL
        assert maps.SineMap(1.0)(0.5) == 1.0 != maps.SineMap(1.0)(1.0)

    def test_hashes_no_fraction_per_lap_step(self, monkeypatch):
        # the memo walk hashes a Fraction at every lap step, thousands at
        # k = 60; the rank walk hashes only the last level's images
        m = maps.TentMap(F(9, 10))
        oscillation.lap_counts(m, 2)  # f and apex_x are built on first use
        calls = []
        fraction_hash = F.__hash__

        def counting_hash(self):
            calls.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(F, "__hash__", counting_hash)
        counts = oscillation.lap_counts(m, 60)
        monkeypatch.undo()
        assert counts[-1] == 3684663081488486
        assert len(calls) <= 4 * 60


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 40))
def test_rank_walk_matches_memo_walk_on_random_maps(seed, k):
    try:
        m = maps.CustomPLMap(random_unit_map(random.Random(seed)))
    except ValueError:
        return
    assert_ranks_and_walk_match(m, k)


@pytest.mark.parametrize("m", [maps.TentMap(1), maps.TentMap(F(1, 2)),
                               warmup.toy_map("1324")],
                         ids=["tent:1", "tent:1/2", "toy:1324"])
def test_integer_key_ranks_share_ties(m):
    # tent:1's orbit 1/2, 1, 0, 0, ... and tent:1/2's 1/2, 1/2, ... repeat
    # values, and the toy map's critical orbit is a 4-cycle
    for k in range(1, 41):
        assert_ranks_and_walk_match(m, k)


KNEADING_MAPS = [maps.TentMap(r) for r in (F(9, 10), F(4, 5), F(3, 4), 1)]
KNEADING_MAPS += [maps.LogisticMap(0.99), maps.LogisticMap(0.958),
                  maps.SineMap(0.97)]


class TestKneadingOracle:
    """The walk's counts against the closed form of ``kneading_laps``, at
    depths whose counts far exceed any knot cap."""

    @pytest.mark.parametrize("m", KNEADING_MAPS, ids=repr)
    def test_counts_match_closed_form_to_60(self, m):
        assert list(oscillation.entropy_estimate(m, 60).counts) == (
            kneading_laps(m, 60))

    def test_toy_maps_match_closed_form_to_60(self):
        for name in ("123", "1234", "1324"):
            m = warmup.toy_map(name)
            assert list(oscillation.entropy_estimate(m, 60).counts) == (
                kneading_laps(m, 60)), name

    def test_tent_matches_closed_form_to_300(self):
        m = maps.TentMap(F(9, 10))
        assert oscillation.lap_counts(m, 300) == kneading_laps(m, 300)

    def test_closed_form_values(self):
        assert kneading_laps(maps.TentMap(1), 60)[-1] == 2**60
        assert oscillation.entropy_estimate(
            maps.TentMap(F(9, 10)), 60).counts[-1] == 3684663081488486


class TestCountMonotone:
    @pytest.mark.parametrize("k,expect", [(1, 2), (5, 32), (10, 1024)])
    def test_full_tent_powers_of_two(self, k, expect):
        assert oscillation.lap_counts(maps.TentMap(1), k)[-1] == expect

    def test_any_strict_map_k1(self):
        for m in (maps.TentMap(F(2, 3)), maps.LogisticMap(0.5),
                  maps.SineMap(0.77)):
            assert oscillation.lap_counts(m, 1)[-1] == 2

    def test_tree_equals_pl_engine(self, rng):
        for _ in range(20):
            r = F(rng.randint(1, 64), 64)
            m = maps.TentMap(r)
            f = m.to_pl()
            for k in (1, 3, 6, 10):
                assert oscillation.lap_counts(m, k)[-1] == pl.monotone_pieces(
                    pl.iterate(f, k))

    def test_superstable_levels_overlap_handled(self):
        # at the superstable 2-cycle the critical orbit returns to 1/2, so
        # tree levels intersect; union semantics give M(f^3) = 6 (hand count:
        # extrema at 1/2, the two preimages of 1/2, and their two preimages)
        m = maps.LogisticMap(SS_12)
        assert oscillation.lap_counts(m, 2)[-1] == 4
        assert oscillation.lap_counts(m, 3)[-1] == 6

    def test_doubling_polynomial_bound(self):
        for r, q in ((SS_12, 1), (SS_1324, 2)):
            m = maps.LogisticMap(r)
            for k in range(1, 15):
                assert (oscillation.lap_counts(m, k)[-1]
                        <= 2 * (4 * k) ** (q + 1))

    def test_flat_tent_rejected(self):
        with pytest.raises(ValueError):
            oscillation.lap_counts(maps.FlatTentMap(F(1, 2)), 3)


class TestCountCrossings:
    def test_full_tent_full_band(self):
        assert oscillation.count_crossings_map(maps.TentMap(1), 4, 0, 1) == 16

    def test_tent_squared_inner_band(self):
        m = maps.TentMap(1)
        assert oscillation.count_crossings_map(m, 2, F(1, 4), F(3, 4)) == 4

    def test_band_above_max_value(self):
        m = maps.LogisticMap(0.6)
        assert oscillation.count_crossings_map(m, 1, 0.7, 0.9) == 0

    def test_smooth_agrees_with_rational_tent(self):
        # the same parameter exercised on an exact and a float map
        exact = maps.TentMap(F(9, 10))
        smooth = maps.LogisticMap(0.9)
        for k in (2, 4, 6):
            got = oscillation.count_crossings_map(exact, k, F(1, 8), F(5, 8))
            assert got == crossings(
                pl.iterate(exact.to_pl(), k), F(1, 8), F(5, 8))
            assert oscillation.count_crossings_map(smooth, k, 0.0, 0.5) > 0

    def test_increasing_three_cycle_gaps_at_k30(self):
        # each gap of the full tent's increasing 3-cycle is crossed 2^k times
        m = maps.TentMap(1)
        for a, b in ((F(2, 9), F(4, 9)), (F(4, 9), F(8, 9))):
            assert oscillation.count_crossings_map(m, 30, a, b) == 2**30

    def test_deep_walk_is_iterative(self):
        m = maps.TentMap(1)
        assert oscillation.count_crossings_map(
            m, 3000, F(2, 9), F(4, 9)) == 2**3000

    def test_full_sine_takes_f1_as_zero(self):
        # SineMap(1)(1.0) is about 1e-16, not 0; a band from 0 still sees
        # every lap of f^k, as the preimage tree does
        m = maps.SineMap(1.0)
        for k in (2, 4, 8):
            got = oscillation.count_crossings_map(m, k, 0.0, 0.5)
            assert got == ref_float_crossings(m, k, 0.0, 0.5) == 2**k

    def test_growth_bound_vs_pieces(self):
        m = maps.LogisticMap(0.97)
        prev = oscillation.count_crossings_map(m, 1, 0.2, 0.6)
        for k in range(2, 8):
            cur = oscillation.count_crossings_map(m, k, 0.2, 0.6)
            assert cur <= 2 * max(prev, 1) * 2
            prev = cur


class TestEntropy:
    def test_full_tent_rate_is_ln2(self):
        series = oscillation.entropy_estimate(maps.TentMap(1), 16)
        assert series.counts[-1] == 2**16
        assert abs(series.entropy - math.log(2)) < 0.01 * math.log(2)

    def test_tall_tent_rates_near_ln_2r(self):
        for r in (F(4, 5), F(9, 10), F(1, 1)):
            series = oscillation.entropy_estimate(maps.TentMap(r), 14)
            target = math.log(2 * float(r))
            assert abs(series.entropy - target) <= 0.05 * target

    def test_doubling_regime_rates_decay(self):
        series = oscillation.entropy_estimate(maps.LogisticMap(SS_1324), 16)
        assert series.entropy <= 0.5
        tail = series.rates[7:16]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_chaotic_regime_rate_positive(self):
        series = oscillation.entropy_estimate(maps.LogisticMap(SS_123), 14)
        assert series.entropy >= 0.3

    def test_increasing_four_cycle_tent_rate(self):
        from itermaps import spectra
        m = tent_near(spectra.rho_inc(4) / 2)
        series = oscillation.entropy_estimate(m, 14)
        target = math.log(1.839)
        assert abs(series.entropy - target) <= 0.05 * target

    def test_random_custom_pl_equals_pl_engine(self, rng):
        checked = 0
        while checked < 12:
            try:
                m = maps.CustomPLMap(random_unit_map(rng))
            except ValueError:
                continue
            if not m.strictly_unimodal:
                continue
            checked += 1
            f = m.to_pl()
            want = tuple(pl.monotone_pieces(pl.iterate(f, k))
                         for k in range(1, 9))
            assert oscillation.entropy_estimate(m, 8).counts == want

    def test_float_counts_match_exact_rational_recursion(self):
        # near the super-stable 123 parameter some distinct preimages of 1/2
        # lie within 1e-10 of each other, so a count of merged float
        # preimages comes out low (1942); the same recursion in exact
        # rationals at Fraction(r) is the oracle
        m = maps.LogisticMap(0.9579685138702394)
        want = _logistic_laps(F(m.r), 13)
        assert want[-1] == 1946
        assert oscillation.entropy_estimate(m, 13).counts == want

    def test_float_walk_matches_120_digit_recursion(self):
        # the same recursion on a 120-digit orbit of the same float r: the
        # walk's SMOOTH_TOL snap and its float comparisons decide every lap
        # as the high-precision orbit does; merging float preimages within
        # 1e-10 would count 4 laps too few at k = 18
        mpmath = pytest.importorskip("mpmath")
        m = maps.LogisticMap(0.958)
        with mpmath.workdps(120):
            want = _logistic_laps(mpmath.mpf(m.r), 18, mpmath.mpf(1) / 2)
        assert want[-1] == 21854
        assert tuple(oscillation.lap_counts(m, 18)) == want

    def test_counts_never_decrease(self):
        series = oscillation.entropy_estimate(maps.LogisticMap(0.93), 12)
        assert all(b >= a for a, b in zip(series.counts, series.counts[1:]))

    def test_geometric_rate(self):
        series = oscillation.entropy_estimate(maps.TentMap(1), 10)
        assert series.geometric_rate(4, 10) == pytest.approx(2.0)

    @pytest.mark.parametrize("k_lo,k_hi", [(8, 8), (8, 7), (0, 5), (4, 11)])
    def test_geometric_rate_rejects_bad_window(self, k_lo, k_hi):
        series = oscillation.entropy_estimate(maps.TentMap(1), 10)
        with pytest.raises(ValueError):
            series.geometric_rate(k_lo, k_hi)
