"""Toy-map construction and the growth-gap comparison."""

from fractions import Fraction as F

import pytest

from itermaps import cycles, warmup


class TestConstruction:
    def test_cycles_survive_interpolation(self):
        for name, orbit in warmup.TOY_CYCLES.items():
            m = warmup.toy_map(name)
            p = len(orbit)
            assert all(m(orbit[i]) == orbit[(i + 1) % p] for i in range(p))
            found = cycles.find_cycles(m, len(orbit))
            itins = {cycles.itinerary_str(c.itinerary) for c in found
                     if c.period == len(orbit)}
            assert name in itins

    def test_apex_between_straddling_points(self):
        m = warmup.toy_map("123")
        apex = m.apex_x
        assert F(1, 2) < apex < F(3, 4)

    def test_unimodal_audit(self):
        for name in warmup.TOY_CYCLES:
            assert warmup.toy_map(name).strictly_unimodal

    def test_1324_maximality(self):
        assert warmup.itinerary_1324_is_maximal()


class TestGrowthGap:
    def test_ordering_and_windows(self):
        series = warmup.growth_comparison(14)
        s1234, s123, s1324 = (series[n] for n in ("1234", "123", "1324"))
        for k in range(5, 14):
            assert s1234.counts[k] > s123.counts[k] > s1324.counts[k]
        assert 1.74 <= s1234.geometric_rate(8, 14) <= 1.94
        assert 1.55 <= s123.geometric_rate(8, 14) <= 1.68
        assert all(c <= 2 * (4 * k) ** 3
                   for k, c in enumerate(s1324.counts, 1))
        assert s1324.rates[-1] <= 1.2
