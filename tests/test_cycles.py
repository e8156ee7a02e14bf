"""Cycle detection, itineraries, forcing order, super-stable solving.

Closed-form cycle coordinates used as oracles:
  tent 2-cycle   (2r, 4r^2) / (1+4r^2)
  tent 3-cycle   (2r, 4r^2, 8r^3) / (1+8r^3)
  tent increasing 4-cycle (2r, 4r^2, 8r^3, 16r^4) / (1+16r^4)... the paper's
  normalization (16r^2+1) is checked dynamically instead of trusted.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from itermaps import cycles, maps, pl
from itermaps.errors import NotPiecewiseLinear

from conftest import fraction_default, orbit, random_unit_map


def tent(r):
    return maps.TentMap(r)


def sharkovsky_precedes(p: int, p2: int) -> bool:
    """True iff p forces p2 (strictly) in the Sharkovsky total order."""
    if p < 1 or p2 < 1:
        raise ValueError("periods must be positive")

    def key(n):
        a = 0
        while n % 2 == 0:
            n //= 2
            a += 1
        if n > 1:
            return (0, a, n)
        return (1, -a)

    return key(p) < key(p2)


class TestItinerary:
    def test_increasing_four(self):
        assert cycles.itinerary_of_points(
            [F(1, 5), F(2, 5), F(3, 5), F(4, 5)]) == (1, 2, 3, 4)

    def test_1324_pattern(self):
        assert cycles.itinerary_of_points(
            [F(1, 5), F(3, 5), F(2, 5), F(4, 5)]) == (1, 3, 2, 4)

    def test_fixed_point(self):
        assert cycles.itinerary_of_points([F(2, 3)]) == (1,)

    def test_rotation_invariant(self):
        base = [F(1, 5), F(3, 5), F(2, 5), F(4, 5)]
        for shift in range(4):
            rotated = base[shift:] + base[:shift]
            assert cycles.itinerary_of_points(rotated) == (1, 3, 2, 4)

    def test_stefan_strings(self):
        assert cycles.itinerary_str(cycles.stefan_itinerary(3)) == "123"
        assert cycles.itinerary_str(cycles.stefan_itinerary(5)) == "13425"
        assert cycles.itinerary_str(cycles.stefan_itinerary(7)) == "1453627"

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            cycles.itinerary_of_points([F(1, 2), F(1, 2)])


def is_2_extension(child, parent):
    """The doubling identity a_i = ceil(a'_i/2) = ceil(a'_(i+p)/2)."""
    p = len(parent)
    return len(child) == 2 * p and all(
        parent[i] == -(-child[i] // 2) == -(-child[i + p] // 2)
        for i in range(p))


def is_primary_power_of_two(itin):
    """An iterated 2-extension of the fixed point, tested a level at a time
    against the only candidate parent."""
    n = len(itin)
    if n & (n - 1) != 0:
        return False
    while len(itin) > 1:
        p = len(itin) // 2
        parent = tuple(-(-a // 2) for a in itin[:p])
        if (sorted(parent) != list(range(1, p + 1))
                or not is_2_extension(itin, parent)):
            return False
        itin = parent
    return True


class TestExtensions:
    """pattern_regime against the 2-extension rule checked on its own."""

    @staticmethod
    def ext(child, parent):
        return is_2_extension(cycles.parse_itinerary(child),
                              cycles.parse_itinerary(parent))

    @staticmethod
    def primary(itin):
        return is_primary_power_of_two(cycles.parse_itinerary(itin))

    def test_known_extensions(self):
        assert self.ext("12", "1")
        assert self.ext("1324", "12")
        assert self.ext("135246", "123")
        assert self.ext("15472638", "1324")

    def test_non_extension(self):
        assert not self.ext("1234", "12")

    def test_primary_power_of_two(self):
        assert self.primary("12")
        assert self.primary("1324")
        assert self.primary("15472638")
        assert not self.primary("1234")

    @pytest.mark.parametrize("itin, regime", [
        ("1", "doubling"), ("12", "doubling"), ("15472638", "doubling"),
        ("1234", "chaotic"), ("123", "chaotic"), ("135246", "chaotic"),
        ("1324", "doubling"),
    ])
    def test_pattern_regime(self, itin, regime):
        # any length is accepted: only a power of two can be primary
        assert cycles.pattern_regime(cycles.parse_itinerary(itin)) == regime

    def test_pattern_regime_matches_reference(self):
        # every permutation of length 1, 2, 4 and 8: 40 347 patterns
        for n in (1, 2, 4, 8):
            for itin in itertools.permutations(range(1, n + 1)):
                got = cycles.pattern_regime(itin) == "doubling"
                assert got == is_primary_power_of_two(itin), itin


class TestSharkovsky:
    def test_head_of_order(self):
        assert sharkovsky_precedes(3, 5)
        assert sharkovsky_precedes(5, 7)
        assert sharkovsky_precedes(3, 4)

    def test_tail_of_order(self):
        assert sharkovsky_precedes(6, 4)
        assert sharkovsky_precedes(8, 4)
        assert sharkovsky_precedes(4, 2)
        assert sharkovsky_precedes(2, 1)

    def test_irreflexive(self):
        assert not sharkovsky_precedes(1, 1)
        assert not sharkovsky_precedes(6, 6)

    def test_total_order_sorts(self):
        order = sorted(range(1, 17),
                       key=lambda p: [sharkovsky_precedes(q, p)
                                      for q in range(1, 17)].count(True))
        assert order[:4] == [3, 5, 7, 9]
        assert order[-4:] == [8, 4, 2, 1]


class TestFindCyclesExact:
    def test_tent_two_cycle_closed_form(self):
        found = cycles.find_cycles(tent(F(4, 5)), 2)
        two = [c for c in found if c.period == 2]
        assert len(two) == 1
        assert two[0].orbit == (F(40, 89), F(64, 89))
        assert two[0].itinerary == (1, 2)

    def test_full_tent_three_cycle(self):
        found = cycles.find_cycles(tent(1), 3)
        three = [c for c in found if c.period == 3]
        orbits = {c.orbit for c in three}
        assert (F(2, 9), F(4, 9), F(8, 9)) in orbits

    def test_tent_1234_cycle_present_at_high_r(self):
        found = cycles.find_cycles(tent(F(93, 100)), 4)
        itins = {c.itinerary for c in found if c.period == 4}
        assert (1, 2, 3, 4) in itins

    def test_tent_1234_cycle_absent_at_low_r(self):
        found = cycles.find_cycles(tent(F(85, 100)), 4)
        itins = {c.itinerary for c in found if c.period == 4}
        assert (1, 2, 3, 4) not in itins
        assert (1, 3, 2, 4) in itins  # the primary 4-cycle exists from r=1/2

    def test_cycle_validity_under_reevaluation(self):
        m = tent(F(9, 10))
        for c in cycles.find_cycles(m, 5):
            for a, b in zip(c.orbit, c.orbit[1:]):
                assert m(a) == b
            assert m(c.orbit[-1]) == c.orbit[0]

    def test_sharkovsky_consistency_full_tent(self):
        found = cycles.find_cycles(tent(1), 8)
        periods = {c.period for c in found}
        for p in periods:
            for p2 in range(1, 9):
                if sharkovsky_precedes(p, p2):
                    assert p2 in periods

    def test_minimal_period(self):
        # every orbit point of a p-cycle also solves f^(2p)(x) = x, but only
        # minimal periods may be reported
        m = tent(F(7, 10))
        found = cycles.find_cycles(m, 8)
        for c in found:
            for d in range(1, c.period):
                if c.period % d == 0:
                    y = c.orbit[0]
                    for _ in range(d):
                        y = m(y)
                    assert y != c.orbit[0]


    def test_fixed_segment_gives_both_ends(self):
        # f runs along the diagonal on [0, 2/5]: both ends are reported
        f = pl.new([(0, 0), (F(2, 5), F(2, 5)), (F(1, 2), F(9, 10)), (1, 0)])
        found = cycles.find_cycles(maps.CustomPLMap(f), 1)
        assert [c.orbit for c in found] == [(0,), (F(2, 5),), (F(9, 14),)]

    def test_interval_of_period_two_points(self):
        # f(x) = 6/5 - x on [1/2, 7/10]: f^2 - id vanishes on the whole
        # piece, and f swaps its ends, which alone are reported
        f = pl.new([(0, 0), (F(1, 2), F(7, 10)), (F(7, 10), F(1, 2)), (1, 0)])
        found = cycles.find_cycles(maps.CustomPLMap(f), 4)
        assert [c.orbit for c in found] == [(0,), (F(3, 5),),
                                            (F(1, 2), F(7, 10))]

    def test_to_pl_fault_propagates(self):
        class BrokenTent(maps.TentMap):
            def to_pl(self):
                raise ZeroDivisionError("fault inside to_pl")

        with pytest.raises(ZeroDivisionError):
            cycles.find_cycles(BrokenTent(1), 2)


def primitive_necklaces(n: int) -> int:
    """Binary necklaces of length n with no smaller period:
    (1/n) sum over d | n of mu(d) 2^(n/d)."""
    def mobius(d):
        m, q = 1, 2
        while d > 1:
            if d % q == 0:
                d //= q
                if d % q == 0:
                    return 0
                m = -m
            q += 1
        return m

    return sum(mobius(d) * 2 ** (n // d)
               for d in range(1, n + 1) if n % d == 0) // n


class TestCycleCountOracles:
    def test_full_tent_counts_are_primitive_necklaces(self):
        # cycles of minimal period p of the doubling tent: the number of
        # primitive binary necklaces of length p
        found = cycles.find_cycles(tent(1), 10)
        counts = [sum(1 for c in found if c.period == p) for p in range(1, 11)]
        assert counts == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]

    def test_full_logistic_counts_are_primitive_necklaces(self):
        # logistic:1 is conjugate to the doubling tent, so no float orbit
        # of a true root may be dropped, however loosely it closes
        counts = [0] * 14
        for c in cycles.find_cycles(maps.LogisticMap(1.0), 14):
            counts[c.period - 1] += 1
        assert counts == [primitive_necklaces(p) for p in range(1, 15)]

    def test_records_cover_minimal_period_roots(self, rng):
        # every root of f^p(x) = x of minimal period p lies on exactly one
        # period-p record, counted straight from the knots of f^p
        checked = 0
        while checked < 30:
            try:
                m = maps.CustomPLMap(random_unit_map(rng))
            except ValueError:
                continue
            if not m.strictly_unimodal:
                continue
            checked += 1
            f = m.to_pl()
            found = cycles.find_cycles(m, 6)
            iterates = [pl.iterate(f, p) for p in range(7)]
            for p in range(1, 7):
                roots = pl.level_set(pl.scale(
                    [(x, y - x) for x, y in iterates[p].knots]), 0)
                minimal = [x for x in roots
                           if all(iterates[d](x) != x
                                  for d in range(1, p) if p % d == 0)]
                assert sum(c.period for c in found
                           if c.period == p) == len(minimal)


class TestFindCyclesSmooth:
    def test_logistic_superstable_pair(self):
        m = maps.LogisticMap(0.8090169943749474)
        found = cycles.find_cycles(m, 2)
        two = [c for c in found if c.period == 2]
        assert len(two) == 1
        assert two[0].orbit[0] == pytest.approx(0.5, abs=1e-9)

    def test_forcing_prefix_at_123_superstable(self):
        m = maps.LogisticMap(0.9580)
        found = cycles.find_cycles(m, 6)
        got = {cycles.itinerary_str(c.itinerary)
               for c in found if 2 <= c.period <= 6}
        expect = {"12", "1324", "143526", "13425", "123"}
        assert got == expect

    def test_forcing_prefix_at_1324_superstable(self):
        m = maps.LogisticMap(0.8671)
        found = cycles.find_cycles(m, 6)
        got = {cycles.itinerary_str(c.itinerary)
               for c in found if 2 <= c.period <= 6}
        assert got == {"12", "1324"}

    def test_forcing_prefix_at_1234_superstable(self):
        m = maps.LogisticMap(0.9901)
        found = cycles.find_cycles(m, 6)
        got = {cycles.itinerary_str(c.itinerary)
               for c in found if 2 <= c.period <= 6}
        expect = {"12", "1324", "143526", "13425", "123",
                  "135246", "12435", "124536", "1234"}
        assert got == expect

    def test_residuals_small(self):
        for c in cycles.find_cycles(maps.LogisticMap(0.95), 5):
            assert c.residual <= 1e-9


def ref_smooth_period_roots(m, p):
    """One period's bisection without the early stop: its brackets, 60
    rounds of p steps each."""
    xs = np.linspace(0.0, 1.0, cycles.GRID_PER_PERIOD * p + 1)
    ys = xs.copy()
    for _ in range(p):
        ys = m(ys)
    gs = ys - xs
    roots = [0.0]
    sign = np.sign(gs)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    los, his = xs[idx].copy(), xs[idx + 1].copy()
    for _ in range(60):
        mids = (los + his) / 2
        ym = mids.copy()
        for _ in range(p):
            ym = m(ym)
        gm = ym - mids
        left = gs[idx] * gm < 0
        his[left] = mids[left]
        los[~left] = mids[~left]
    roots.extend(((los + his) / 2).tolist())
    for i in np.nonzero(sign == 0)[0]:
        roots.append(float(xs[i]))
    return sorted(set(roots))


def ref_find_cycles(m, p_max):
    """The one-loop search that the two paths of find_cycles replaced: an
    ``exact`` flag picks the root solver, the dedup structure and the
    point test, and every kept orbit is stepped out through m."""
    try:
        f1 = m.to_pl()
    except NotPiecewiseLinear:
        f1 = None
    exact = f1 is not None

    def close(a, b):
        if exact:
            return a == b
        return abs(float(a) - float(b)) <= cycles.FLOAT_MATCH_TOL

    records, seen, on_orbit = [], [], set()
    fp = pl.identity()
    for p in range(1, p_max + 1):
        if exact:
            fp = pl.compose(fp, f1)
            g = pl.combine((fp.raw, pl.identity().raw), (1, -1), 0)
            roots = pl.level_set(g, 0)
        else:
            roots = cycles._smooth_period_roots(m, p)
        for x in roots:
            if x in on_orbit:
                continue
            orbit = [x]
            for _ in range(p - 1):
                orbit.append(m(orbit[-1]))
            if any(close(a, b)
                   for i, a in enumerate(orbit) for b in orbit[i + 1:]):
                continue
            i = min(range(p), key=lambda j: orbit[j])
            canon = tuple(orbit[i:]) + tuple(orbit[:i])
            if exact:
                on_orbit.update(orbit)
            elif any(len(c) == p and all(close(a, b)
                                         for a, b in zip(c, canon))
                     for c in seen):
                continue
            else:
                seen.append(canon)
            residual = abs(float(m(orbit[-1])) - float(orbit[0]))
            if exact and residual > 0:
                continue
            records.append(cycles.CycleRecord(
                period=p, orbit=canon,
                itinerary=cycles.itinerary_of_points(canon),
                residual=residual))
    records.sort(key=lambda c: (c.period, float(c.orbit[0])))
    return records


def record_json(c) -> str:
    """One record as the JSON artifacts write it, without indentation."""
    return json.dumps(c.to_dict(), default=fraction_default)


def oracle_cases():
    """(map, p_max) pairs: smooth maps over r in [0.7, 1], the maps whose
    grid misses points of some cycles, tents, flat tents, and random PL
    maps."""
    rs = [(70 + i) / 100 for i in range(31)]
    cases = [(cls(r), 8) for cls in (maps.LogisticMap, maps.SineMap)
             for r in rs]
    cases += [(maps.LogisticMap(r), 8) for r in (0.75, 0.997, 1.0)]
    cases += [(maps.SineMap(r), 8) for r in (0.991, 0.999, 1.0)]
    cases += [(cls(F(n, 100)), 8) for cls in (maps.TentMap, maps.FlatTentMap)
              for n in range(50, 101, 5)]
    rng = random.Random(20240817)
    while len(cases) < 120:
        try:
            cases.append((maps.CustomPLMap(random_unit_map(rng)), 6))
        except ValueError:
            pass
    return cases


class TestFindCyclesOracle:
    def test_records_match_one_loop_search(self):
        cases = oracle_cases()
        assert len(cases) == 120
        for m, p_max in cases:
            want = [record_json(c) for c in ref_find_cycles(m, p_max)]
            got = [record_json(c) for c in cycles.find_cycles(m, p_max)]
            assert got == want, (m, p_max)


SMOOTH_MAPS = [
    (maps.LogisticMap, 0.99,
     "7be5997960f7e9164394f653d0685b91c549bee9e9a9e39f4e4f129961f68b33"),
    (maps.LogisticMap, 0.958,
     "f648d1f06c90ff4fb8d59b6ad8baa9c326ad9042fb7d6b912d9ab4350cb75880"),
    (maps.LogisticMap, 0.9347,
     "284380d78d92764aa4fbec258dfca025cf265521b2c6caec55fbdbcba227afd3"),
    (maps.LogisticMap, 0.8671,
     "2808a42815b095ed6912136d3b02eeb4828145cb0eebc418a99fcb07d4c95452"),
    (maps.SineMap, 0.97,
     "a792081ac5d756f5eefcf2e8e1451d50937c39eb5b5941297a02dd46491c9206"),
    (maps.SineMap, 0.99,
     "2404b33e7389f657313603e78ec0c17b514d6fcbf194ce7025d1a14c4910e525"),
]


#: maps whose roots alone are compared: the full logistic map, whose grid
#: misses points of some cycles, and a sine map in the doubling regime
ROOTS_ONLY_MAPS = [maps.LogisticMap(1.0), maps.SineMap(0.8)]


def assert_roots_match_oracle(m, p_max=10):
    for p in range(1, p_max + 1):
        got = cycles._smooth_period_roots(m, p)
        want = ref_smooth_period_roots(m, p)
        # float for float: equal values and equal bits
        assert np.array(got).tobytes() == np.array(want).tobytes(), (m, p)


class TestSmoothRootsOracle:
    """Each bracket's scalar bisection, with its early stop, against the
    vector one that runs all 60 rounds, float for float, for p = 1..10.

    The record digests (one record_json line per record, p_max = 8) were
    recorded with a vector bisection per period and hold unchanged.
    """

    @pytest.mark.parametrize("cls, r, digest", SMOOTH_MAPS,
                             ids=[f"{c.kind}:{r}" for c, r, _ in SMOOTH_MAPS])
    def test_roots_and_records_unchanged(self, cls, r, digest):
        m = cls(r)
        assert_roots_match_oracle(m)
        text = "\n".join(record_json(c) for c in cycles.find_cycles(m, 8))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("m", ROOTS_ONLY_MAPS,
                             ids=[f"{m.kind}:{m.r}" for m in ROOTS_ONLY_MAPS])
    def test_roots_unchanged(self, m):
        assert_roots_match_oracle(m)


class TestLazySearch:
    """cycles_by_period searches period p only when it is read, and
    regime_witness stops reading at the first chaotic cycle."""

    def test_stream_classifies_as_the_list(self):
        cases = oracle_cases()
        assert len(cases) == 120
        for m, p_max in cases:
            stream = cycles.regime_witness(cycles.cycles_by_period(m, p_max))
            full = cycles.regime_witness(cycles.find_cycles(m, p_max))
            assert record_json(stream) == record_json(full), (m, p_max)

    @pytest.mark.parametrize("m", [maps.SineMap(0.97), tent(1)],
                             ids=["sine:0.97", "tent:1"])
    def test_period_searched_when_read(self, m, monkeypatch):
        searched = []
        if m.is_exact:
            compose = pl.compose

            def counted(*args, **kwargs):
                searched.append(len(searched) + 1)
                return compose(*args, **kwargs)

            monkeypatch.setattr(pl, "compose", counted)
        else:
            roots = cycles._smooth_period_roots

            def counted(m, p):
                searched.append(p)
                return roots(m, p)

            monkeypatch.setattr(cycles, "_smooth_period_roots", counted)
        stream = cycles.cycles_by_period(m, 8)
        assert searched == []
        assert next(stream).period == 1
        assert searched == [1]
        first_of_4 = next(c for c in stream if c.period == 4)
        assert searched == [1, 2, 3, 4]
        rest = list(stream)
        assert searched == list(range(1, 9))
        assert [first_of_4, *rest] == [
            c for c in cycles.find_cycles(m, 8) if c.period >= 4]


class TestRegime:
    def test_full_tent_chaotic(self):
        found = cycles.find_cycles(tent(1), 3)
        assert not cycles.regime_witness(found).primary

    def test_logistic_doubling_q2(self):
        found = cycles.find_cycles(maps.LogisticMap(0.8671), 8)
        witness = cycles.regime_witness(found)
        assert witness.primary
        assert witness.period == 4
        assert witness == next(c for c in found if c.period == 4)

    def test_non_primary_1234_forces_chaotic(self):
        found = cycles.find_cycles(maps.LogisticMap(0.9901), 4)
        witness = cycles.regime_witness(found)
        assert not witness.primary
        # the forced three-cycle is actually detected, and read first
        assert witness.period == 3

    def test_empty_has_no_witness(self):
        assert cycles.regime_witness([]) is None


class TestSuperstable:
    # r_true values are confirmed below by the critical orbit closing with
    # the itinerary; the 1324 row's published 0.8671 is not a super-stable
    # parameter (the only one with that itinerary is the classical cascade
    # value mu = 3.4985617, r = 0.8746404), while the other two rows match
    # their published r_paper
    @pytest.mark.parametrize("itin,r_paper,r_true", [
        ("123", 0.9580, 0.957968),
        ("1324", 0.8671, 0.874640),
        ("123456", 0.9994, 0.999396),
    ])
    def test_solver_finds_verified_parameter(self, itin, r_paper, r_true):
        solved = cycles.superstable_r(itin)
        assert abs(solved - r_true) <= 1e-6
        assert (abs(solved - r_paper) <= 5e-4) == (itin != "1324")
        # independent confirmation: critical orbit closes with the itinerary
        m = maps.LogisticMap(solved)
        pts = orbit(m, 0.5, len(itin))
        assert abs(pts[-1] - 0.5) <= 1e-12
        assert cycles.itinerary_of_points(pts[:len(itin)]) == \
            cycles.parse_itinerary(itin)

    def test_itinerary_mismatch_raises(self):
        # 1342 has 1234's word RLLC and 1243 has RRLC; no logistic orbit
        # has either pattern
        for itin in ("1342", "1243"):
            with pytest.raises(ValueError, match=f"no super-stable {itin} "):
                cycles.superstable_r(itin)

    @pytest.mark.parametrize("itin", ["1224", "134", ""])
    def test_non_permutation_raises_before_bisection(self, itin,
                                                     monkeypatch):
        def step(r, x):
            raise AssertionError("bisection started")

        monkeypatch.setattr(maps.LogisticMap, "float_step", step)
        with pytest.raises(ValueError, match="not a permutation"):
            cycles.superstable_r(itin)

    def test_full_table_solves(self):
        rows = cycles.solve_forcing_table()
        assert len(rows) == 12
        for row in rows:
            if row["itinerary"] == "1324":
                assert abs(row["r_solved"] - 0.874640) <= 5e-4
            else:
                assert row["delta"] <= 5e-4

    def test_derived_columns(self):
        rows = cycles.solve_forcing_table()
        assert [row["p"] for row in rows] == [
            len(row["itinerary"]) for row in cycles.FORCING_TABLE]
        # the published table's two doubling rows
        assert [row["itinerary"] for row in rows
                if row["regime"] == "doubling"] == ["12", "1324"]
        assert all(row.keys() == {"itinerary", "r"}
                   for row in cycles.FORCING_TABLE)

    def test_derived_regime_matches_detected_cycles(self):
        # at each solved r, the cycles of period <= p that find_cycles
        # detects call the regime that the row's pattern alone gives
        for row in cycles.solve_forcing_table():
            m = maps.LogisticMap(row["r_solved"])
            found = cycles.find_cycles(m, row["p"])
            assert cycles.regime_witness(found).primary == (
                row["regime"] == "doubling"), row["itinerary"]

    def test_two_cycle_is_closed_form(self):
        # f_r(f_r(1/2)) = 1/2 with f_r(1/2) = r gives 16r^2 - 4r - 1 = 0
        want = (1 + math.sqrt(5)) / 4
        assert abs(cycles.superstable_r("12") - want) <= 2 * math.ulp(want)

    def test_published_r_is_never_read(self, monkeypatch):
        solved = [row["r_solved"] for row in cycles.solve_forcing_table()]
        monkeypatch.setattr(cycles, "FORCING_TABLE", tuple(
            dict(row, r=0.5) for row in cycles.FORCING_TABLE))
        assert [row["r_solved"]
                for row in cycles.solve_forcing_table()] == solved

    def test_super_stable_cycles_per_period(self):
        # the logistic family has 1, 1, 1, 2, 3, 5, 9 super-stable cycles
        # of periods 1..7 (Metropolis, Stein & Stein, J. Combin. Theory A
        # 15, 1973); every other pattern of 1..p must be refused
        counts = []
        for p in range(1, 8):
            found = 0
            for rest in itertools.permutations(range(2, p + 1)):
                itin = "1" + "".join(map(str, rest))
                try:
                    r = cycles.superstable_r(itin)
                except ValueError:
                    continue
                pts = orbit(maps.LogisticMap(r), 0.5, p)
                assert abs(pts[-1] - 0.5) <= 1e-12, itin
                found += 1
            counts.append(found)
        assert counts == [1, 1, 1, 2, 3, 5, 9]


class TestRecordFlags:
    def test_table_flag_consistency(self):
        # "123" is simultaneously Stefan, increasing, primary-for-p3 context
        rec = cycles.CycleRecord(period=3, orbit=(F(2, 9), F(4, 9), F(8, 9)),
                                 itinerary=(1, 2, 3), residual=0.0)
        assert rec.increasing and rec.stefan and not rec.power_of_two

    def test_stefan_not_increasing(self):
        assert cycles.stefan_itinerary(5) != cycles.increasing_itinerary(5)

    def test_json_round_trip_fields(self):
        rec = cycles.CycleRecord(period=2, orbit=(F(40, 89), F(64, 89)),
                                 itinerary=(1, 2), residual=0.0)
        assert rec.to_dict()["orbit"] == (F(40, 89), F(64, 89))
        payload = json.loads(record_json(rec))
        assert payload["period"] == 2
        assert payload["orbit"] == ["40/89", "64/89"]
        assert payload["flags"]["primary"] is True


def ref_superstable_r(itin, bracket, tol=1e-9, scan=400):
    """Scan the bracket for sign changes of f^p(1/2) - 1/2, bisect each to
    tol and return the first root whose orbit has p points at least 1e-7
    apart and the itinerary; every residual evaluation builds a LogisticMap
    and calls it."""
    itin = cycles.parse_itinerary(itin)
    p = len(itin)

    def g(r):
        m = maps.LogisticMap(r)
        x = 0.5
        for _ in range(p):
            x = m(x)
        return x - 0.5

    lo, hi = max(bracket[0], 1e-9), min(bracket[1], 1.0)
    rs = [lo + (hi - lo) * i / scan for i in range(scan + 1)]
    gs = [g(r) for r in rs]
    roots = [r for r, v in zip(rs, gs) if v == 0]
    for i in range(scan):
        if gs[i] * gs[i + 1] < 0:
            a, b, ga = rs[i], rs[i + 1], gs[i]
            while b - a > tol:
                mid = (a + b) / 2
                gm = g(mid)
                if gm == 0:
                    a = b = mid
                    break
                if ga * gm < 0:
                    b = mid
                else:
                    a, ga = mid, gm
            roots.append((a + b) / 2)
    for root in sorted(roots):
        pts = orbit(maps.LogisticMap(root), 0.5, p)[:p]
        gaps = [abs(a - b) for i, a in enumerate(pts)
                for b in pts[i + 1:]]
        if gaps and min(gaps) < 1e-7:
            continue
        if cycles.itinerary_of_points(pts) == itin:
            return root
    raise ValueError(f"no super-stable {itin} parameter in {bracket}")


class TestSuperstableOracle:
    """The kneading-word bisection against the bracketed residual scan it
    replaced: the same root to within 1e-9, closing at least as tightly."""

    @pytest.mark.parametrize("row", cycles.FORCING_TABLE,
                             ids=lambda row: row["itinerary"])
    def test_equals_per_map_solver(self, row):
        def residual(r):
            return abs(orbit(maps.LogisticMap(r), 0.5,
                             len(row["itinerary"]))[-1] - 0.5)

        bracket = (row["r"] - 0.01, row["r"] + 0.01)
        got = cycles.superstable_r(row["itinerary"])
        want = ref_superstable_r(row["itinerary"], bracket)
        assert abs(got - want) <= 1e-9
        assert residual(got) <= residual(want)

    def test_both_reject_the_same_mismatch(self):
        with pytest.raises(ValueError, match="no super-stable 1342 "):
            cycles.superstable_r("1342")
        with pytest.raises(ValueError, match="no super-stable"):
            ref_superstable_r("1342", (0.5, 1.0))
