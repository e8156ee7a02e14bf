"""Bifurcation sweeps: attractor cluster counts, the vector kernel against
the scalar per-r loop it replaced, the tent grid's integer rationals, and
the memory a consumed sweep holds."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itermaps import bifurcation, maps
from itermaps.cli import build_parser
from itermaps.maps import TentMap

import cli_outputs

FAMILIES = ("logistic", "sine", "tent", "flat_tent")


def reference_tail(kind, r, burn, keep):
    """The scalar per-r orbit loop that the vector kernel replaced: one map
    per r, an exact family's at the rational r.limit_denominator(10**9)."""
    cls = maps.FAMILIES[kind]
    m = cls(Fraction(r).limit_denominator(10**9) if cls.is_exact else r)
    if kind == "tent" and (2 * m.r).denominator == 1:
        x = bifurcation.X0_EXACT
        for _ in range(burn):
            x = m(x)
        out = []
        for _ in range(keep):
            x = m(x)
            out.append(float(x))
        return out
    x = bifurcation.X0
    for _ in range(burn):
        x = float(m(x))
    out = []
    for _ in range(keep):
        x = float(m(x))
        out.append(x)
    return out


def orbit_tail(kind, r, burn=bifurcation.DEFAULT_BURN,
               keep=bifurcation.DEFAULT_KEEP):
    """Post-transient orbit values of the family member at r: a one-member
    sweep of the vector kernel."""
    (_, tail), = bifurcation.sweep(kind, r, r, steps=1, burn=burn, keep=keep)
    return tail


def cluster_count(values, tol=1e-3):
    """Number of tol-separated clusters among orbit values (attractor size)."""
    pts = sorted(values)
    clusters = 1
    for a, b in zip(pts, pts[1:]):
        if b - a > tol:
            clusters += 1
    return clusters


def reference_grid(r_lo, r_hi, steps):
    rs = [r_lo + (r_hi - r_lo) * i / max(steps - 1, 1) for i in range(steps)]
    return [r for r in rs if 0 < r <= 1]


def reference_sweep(kind, r_lo, r_hi, steps, burn, keep):
    return [(r, reference_tail(kind, r, burn, keep))
            for r in reference_grid(r_lo, r_hi, steps)]


class TestClusters:
    def test_superstable_two_cycle(self):
        tail = orbit_tail("logistic", 0.8090)
        assert cluster_count(tail) == 2

    def test_stable_four_cycle(self):
        tail = orbit_tail("logistic", 0.8671)
        assert cluster_count(tail) == 4

    def test_superstable_three_cycle(self):
        tail = orbit_tail("logistic", 0.9580)
        assert cluster_count(tail) == 3

    def test_full_tent_follows_exact_orbit(self):
        m, x = TentMap(1), Fraction(5001, 10000)
        for _ in range(bifurcation.DEFAULT_BURN):
            x = m(x)
        expected = []
        for _ in range(bifurcation.DEFAULT_KEEP):
            x = m(x)
            expected.append(float(x))
        tail = orbit_tail("tent", 1.0)
        assert tail == expected
        assert len(set(tail)) == bifurcation.DEFAULT_KEEP

    def test_low_parameter_fixed_point(self):
        tail = orbit_tail("logistic", 0.6)
        assert cluster_count(tail) == 1


class TestSweep:
    def test_serial_sweep_shape(self):
        data = list(bifurcation.sweep("logistic", 0.7, 0.9, steps=8, burn=50,
                                      keep=20))
        assert len(data) == 8
        assert all(len(tail) == 20 for _, tail in data)
        rs = [r for r, _ in data]
        assert rs == sorted(rs)

    def test_out_of_range_parameters_dropped(self):
        data = bifurcation.sweep("logistic", 0.9, 1.2, steps=7, burn=10,
                                 keep=5)
        assert all(0 < r <= 1 for r, _ in data)

    def test_second_pass_gives_the_same_pairs(self):
        # the CLI iterates once for the CSV and again for --out's SVG; the
        # grid holds the exact tent members r = 1/2 and r = 1
        data = bifurcation.sweep("tent", 0.5, 1.0, steps=11, burn=100,
                                 keep=20)
        assert list(data) == list(data)

    def test_sine_and_flat_tent_run(self):
        for fam in ("sine", "flat_tent"):
            tail = orbit_tail(fam, 0.9, burn=100, keep=30)
            assert all(0 <= x <= 1 for x in tail)


class TestKernelOracle:
    """The vector kernel against the scalar loop, value for value.

    The half_to_one and keep_0 grids hold r = 1/2 and r = 1 exactly, the
    tent's exact rows.
    """

    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("r_lo, r_hi, steps, burn, keep", [
        (0.5, 1.0, 11, 100, 20),
        (0.6, 1.0, 40, bifurcation.DEFAULT_BURN, bifurcation.DEFAULT_KEEP),
        (0.7, 0.9, 1, 50, 10),
        (0.0, 1.0, 9, 40, 0),
        (0.9, 1.2, 7, 60, 15),
    ], ids=["half_to_one", "defaults", "one_step", "keep_0", "r_hi_above_1"])
    def test_sweep_equals_scalar_loop(self, kind, r_lo, r_hi, steps, burn,
                                      keep):
        want = reference_sweep(kind, r_lo, r_hi, steps, burn, keep)
        assert list(bifurcation.sweep(kind, r_lo, r_hi, steps=steps,
                                      burn=burn, keep=keep)) == want
        assert [orbit_tail(kind, r, burn, keep)
                for r, _ in want] == [tail for _, tail in want]


def manifest_tent_grids():
    """The grid values of the manifest's tent and flat-tent sweeps."""
    rs = []
    for entry in cli_outputs.load():
        if "bifurcation" not in entry["argv"] or entry["exit"] != 0:
            continue
        args = build_parser().parse_args(entry["argv"])
        if args.family in ("tent", "flat_tent"):
            rs += reference_grid(args.r_lo, args.r_hi, args.steps)
    return rs


class TestTentRational:
    """The tent grid's rational in integers, ``_rational``, against
    Fraction(r).limit_denominator(10**9), and its exact members (slope 2r
    an integer) against (2 * q).denominator == 1."""

    @staticmethod
    def check(rs):
        qs = [Fraction(r).limit_denominator(10**9) for r in rs]
        assert [bifurcation._rational(r) for r in rs] == [
            (q.numerator, q.denominator) for q in qs]
        assert bifurcation._Sweep("tent", rs, 0, 0).slopes == [
            int(2 * q) if (2 * q).denominator == 1 else None for q in qs]

    @settings(max_examples=1000, deadline=None)
    @given(st.floats(min_value=0, max_value=1, exclude_min=True))
    def test_floats_in_unit_interval(self, r):
        self.check([r])

    def test_manifest_grids(self):
        rs = manifest_tent_grids()
        assert 0.5 in rs and 1.0 in rs
        self.check(rs)


class TestMemory:
    """What a consumed sweep holds, under tracemalloc (numpy's buffers
    included): the float block of keep x steps floats, 1.6 MB here, and
    one tail.  Making every tail a list at once held 8.1 MB."""

    def test_consuming_tail_by_tail_holds_one_block(self):
        steps, keep = 1000, bifurcation.DEFAULT_KEEP
        tracemalloc.start()
        try:
            for r, tail in bifurcation.sweep("logistic", 0.6, 1.0,
                                             steps=steps):
                assert len(tail) == keep
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * keep * steps * 8
