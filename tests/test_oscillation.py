"""Lap counting vs exact PL iteration and exact rationals, growth series,
entropy."""

import math
import random
from fractions import Fraction as F

import pytest
from conftest import random_unit_map

from itermaps import maps, oscillation, pl
from itermaps.errors import ResourceLimitError

SS_12 = 0.8090169943749474  # logistic two-cycle through the critical point
SS_1324 = 0.8671
SS_123 = 0.9580


def _exact_logistic_laps(r: F, k_max: int) -> tuple[int, ...]:
    """M(f^k), k = 1..k_max, of f(x) = 4 r x (1 - x) in exact rationals.

    Laps are grouped by their image (lo, hi); one splits under f into
    (f(lo), f(1/2)) and (f(hi), f(1/2)) exactly when lo < 1/2 < hi.
    """
    image = {}

    def f(x):
        if x not in image:
            image[x] = 4 * r * x * (1 - x)
        return image[x]

    c = F(1, 2)
    c1 = f(c)
    laps = {(F(0), c1): 2}
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


class TestCountMonotone:
    @pytest.mark.parametrize("k,expect", [(1, 2), (5, 32), (10, 1024)])
    def test_full_tent_powers_of_two(self, k, expect):
        assert oscillation.count_monotone(maps.TentMap(1), k) == expect

    def test_any_strict_map_k1(self):
        for m in (maps.TentMap(F(2, 3)), maps.LogisticMap(0.5),
                  maps.SineMap(0.77)):
            assert oscillation.count_monotone(m, 1) == 2

    def test_tree_equals_pl_engine(self, rng):
        for _ in range(20):
            r = F(rng.randint(1, 64), 64)
            m = maps.TentMap(r)
            f = m.to_pl()
            for k in (1, 3, 6, 10):
                assert oscillation.count_monotone(m, k) == pl.monotone_pieces(
                    pl.iterate(f, k))

    def test_superstable_levels_overlap_handled(self):
        # at the superstable 2-cycle the critical orbit returns to 1/2, so
        # tree levels intersect; union semantics give M(f^3) = 6 (hand count:
        # extrema at 1/2, the two preimages of 1/2, and their two preimages)
        m = maps.LogisticMap(SS_12)
        assert oscillation.count_monotone(m, 2) == 4
        assert oscillation.count_monotone(m, 3) == 6

    def test_doubling_polynomial_bound(self):
        for r, q in ((SS_12, 1), (SS_1324, 2)):
            m = maps.LogisticMap(r)
            for k in range(1, 15):
                assert oscillation.count_monotone(m, k) <= 2 * (4 * k) ** (q + 1)

    def test_flat_tent_rejected(self):
        with pytest.raises(ValueError):
            oscillation.count_monotone(maps.FlatTentMap(F(1, 2)), 3)

    def test_node_cap(self):
        with pytest.raises(ResourceLimitError):
            oscillation.count_monotone(maps.TentMap(1), 14, cap=500)

    def test_cap_boundary_is_turning_points(self):
        # cap bounds M(f^k) - 1; the full tent has M(f^10) = 1024
        m = maps.TentMap(1)
        assert oscillation.count_monotone(m, 10, cap=1023) == 1024
        with pytest.raises(ResourceLimitError):
            oscillation.count_monotone(m, 10, cap=1022)


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
        # same parameter exercised through both code paths
        exact = maps.TentMap(F(9, 10))
        smooth = maps.LogisticMap(0.9)
        for k in (2, 4, 6):
            got = oscillation.count_crossings_map(exact, k, F(1, 8), F(5, 8))
            assert got == pl.crossings(
                pl.iterate(exact.to_pl(), k), F(1, 8), F(5, 8))
            assert oscillation.count_crossings_map(smooth, k, 0.0, 0.5) > 0

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
        m = maps.tent_near(spectra.rho_inc(4) / 2)
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
        # lie within PREIMAGE_DEDUP_TOL of each other, so a count of merged
        # float preimages comes out low (1942); the same recursion in exact
        # rationals at Fraction(r) is the oracle
        m = maps.LogisticMap(0.9579685138702394)
        want = _exact_logistic_laps(F(m.r), 13)
        assert want[-1] == 1946
        assert oscillation.entropy_estimate(m, 13).counts == want

    def test_counts_never_decrease(self):
        series = oscillation.entropy_estimate(maps.LogisticMap(0.93), 12)
        assert all(b >= a for a, b in zip(series.counts, series.counts[1:]))

    def test_csv_shape(self):
        series = oscillation.entropy_estimate(maps.TentMap(1), 4)
        lines = series.to_csv().strip().splitlines()
        assert lines[0] == "k,count,rate"
        assert lines[1].startswith("1,2,")
        assert len(lines) == 5

    def test_geometric_rate(self):
        series = oscillation.entropy_estimate(maps.TentMap(1), 10)
        assert series.geometric_rate(4, 10) == pytest.approx(2.0)

    @pytest.mark.parametrize("k_lo,k_hi", [(8, 8), (8, 7), (0, 5), (4, 11)])
    def test_geometric_rate_rejects_bad_window(self, k_lo, k_hi):
        series = oscillation.entropy_estimate(maps.TentMap(1), 10)
        with pytest.raises(ValueError):
            series.geometric_rate(k_lo, k_hi)
