"""Map families: evaluation, PL conversion, input checks, orbits."""

import math
import random
from fractions import Fraction as F

import pytest

from itermaps import maps, pl, warmup
from itermaps.errors import NotPiecewiseLinear

from conftest import orbit, tent_near

PHI = (1 + math.sqrt(5)) / 2


class TestEval:
    def test_full_tent_apex(self):
        assert maps.TentMap(1)(F(1, 2)) == 1

    def test_logistic_superstable_two_cycle_value(self):
        # r = (1+sqrt(5))/4 sends 1/2 to r; the two-cycle is (1/2, r)
        r = (1 + math.sqrt(5)) / 4
        m = maps.LogisticMap(r)
        assert m(0.5) == pytest.approx(0.809017, abs=1e-6)
        assert m(m(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_logistic_fraction_input_equals_float_input(self):
        # float operands convert a Fraction to float before multiplying
        rng = random.Random(5)
        m = maps.LogisticMap(0.958)
        for _ in range(2000):
            q = rng.randrange(1, 10**9)
            x = F(rng.randrange(q + 1), q)
            y = m(x)
            assert type(y) is float and y == m(float(x))

    def test_flat_tent_plateau(self):
        m = maps.FlatTentMap(F(1, 2))
        assert m(F(1, 2)) == F(1, 2)
        assert m(F(2, 5)) == F(1, 2)

    def test_tent_exact_type(self):
        v = maps.TentMap(F(4, 5))(F(3, 4))
        assert isinstance(v, F) and v == F(2, 5)

    def test_parameter_range_enforced(self):
        for cls in (maps.TentMap, maps.LogisticMap, maps.SineMap):
            with pytest.raises(ValueError):
                cls(0)
            with pytest.raises(ValueError):
                cls(F(3, 2) if cls is maps.TentMap else 1.5)


class TestToPL:
    def test_tent(self):
        f = maps.TentMap(F(4, 5)).to_pl()
        assert f.knots == ((F(0), F(0)), (F(1, 2), F(4, 5)), (F(1), F(0)))

    def test_flat_tent_solves_plateau_edges(self):
        f = maps.FlatTentMap(F(1, 2)).to_pl()
        assert f.knots == ((F(0), F(0)), (F(2, 5), F(1, 2)),
                           (F(3, 5), F(1, 2)), (F(1), F(0)))

    def test_smooth_families_refuse(self):
        with pytest.raises(NotPiecewiseLinear):
            maps.LogisticMap(0.9).to_pl()
        with pytest.raises(NotPiecewiseLinear):
            maps.SineMap(0.9).to_pl()

    def test_pl_agrees_with_eval(self):
        rng = random.Random(7)
        for m in (maps.TentMap(F(4, 5)), maps.FlatTentMap(F(3, 4))):
            f = m.to_pl()
            for _ in range(200):
                x = F(rng.randint(0, 499), 499)
                assert f(x) == m(x)


class TestSymmetryAndAudit:
    def test_exact_symmetry(self):
        rng = random.Random(5)
        m = maps.TentMap(F(7, 9))
        for _ in range(100):
            x = F(rng.randint(0, 256), 256)
            assert m(x) == m(1 - x)

    def test_smooth_symmetry(self):
        rng = random.Random(6)
        for m in (maps.LogisticMap(0.87), maps.SineMap(0.66)):
            for _ in range(100):
                x = rng.random()
                assert abs(m(x) - m(1.0 - x)) <= 1e-15

    def test_flat_tent_flagged_weakly_unimodal(self):
        assert not maps.FlatTentMap(F(1, 2)).strictly_unimodal
        assert maps.TentMap(F(1, 2)).strictly_unimodal

    @pytest.mark.parametrize("r", [F(1, 10), F(1, 2), F(4, 5), F(1)])
    def test_tent_flags_read_off_knots(self, r):
        # the values both tents once held as class constants
        for cls, strict in ((maps.TentMap, True), (maps.FlatTentMap, False)):
            m = cls(r)
            assert (m.strictly_unimodal, m.symmetric, m.concave) == (
                strict, True, True)
            assert m.max_value() == r

    def test_custom_pl_rejects_non_unimodal(self):
        zigzag = pl.new([(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)),
                         (F(3, 4), F(3, 4)), (1, 0)])
        with pytest.raises(ValueError):
            maps.CustomPLMap(zigzag)

    @pytest.mark.parametrize("knots, x", [
        ([(0, 0), (F(3, 10), 0), (F(1, 2), 1), (1, 0)], "3/10"),
        ([(0, 0), (F(1, 2), 1), (F(9, 10), 0), (1, 0)], "9/10"),
        # zero on [127/128, 1]: no point of a 101-point grid lies there
        ([(0, 0), (F(7, 128), F(50, 51)), (F(127, 128), 0), (1, 0)],
         "127/128"),
    ], ids=["zero_on_left", "zero_on_right", "zero_between_grid_points"])
    def test_names_first_nonpositive_interior_knot(self, knots, x):
        with pytest.raises(ValueError) as exc:
            maps.CustomPLMap(pl.new(knots))
        assert str(exc.value) == f"custom_pl: not positive at x={x}"

    def test_custom_pl_flags(self):
        asym = maps.CustomPLMap(pl.new([(0, 0), (F(1, 4), F(3, 4)), (1, 0)]))
        assert not asym.symmetric and asym.concave


class TestOrbits:
    def test_full_tent_critical_orbit(self):
        m = maps.TentMap(1)
        assert orbit(m, m.apex_x, 3) == [F(1, 2), F(1), F(0), F(0)]

    @pytest.mark.parametrize("name", sorted(warmup.TOY_CYCLES))
    def test_critical_orbit_starts_at_apex(self, name):
        # the toy maps peak off 1/2, at their top knot
        m = warmup.toy_map(name)
        top = max(y for _, y in m.to_pl().knots)
        assert orbit(m, m.apex_x, 2)[1] == top

    def test_tent_near_golden_returns_to_half(self):
        # parameter at the increasing-3-cycle birth: half-orbit closes in 3
        m = tent_near(PHI / 2)
        assert abs(float(orbit(m, m.apex_x, 3)[3]) - 0.5) < 1e-9

    def test_logistic_superstable_123_orbit(self):
        m = maps.LogisticMap(0.9580)
        vals = orbit(m, 0.5, 3)
        assert abs(vals[3] - 0.5) < 1e-3

    def test_orbit_dtype_follows_seed(self):
        m = maps.TentMap(F(4, 5))
        assert isinstance(orbit(m, F(1, 3), 2)[-1], F)
        assert isinstance(orbit(m, 0.3, 2)[-1], float)

