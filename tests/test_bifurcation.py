"""Bifurcation sweeps: attractor cluster counts, the vector kernel against
the scalar per-r loop it replaced, the exact tent members at the boundary
of the slope rule, the CSV's numpy formatter against %.12g, and the memory
a consumed sweep and its CSV hold."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itermaps import bifurcation, maps
from itermaps.maps import TentMap

FAMILIES = ("logistic", "sine", "tent", "flat_tent")


def float_tail(kind, r, burn, keep):
    """The orbit tail of X0 under the family's float step at r, one scalar
    step at a time."""
    step = maps.FAMILIES[kind].float_step
    x = bifurcation.X0
    for _ in range(burn):
        x = float(step(r, x))
    out = []
    for _ in range(keep):
        x = float(step(r, x))
        out.append(x)
    return out


def reference_tail(kind, r, burn, keep):
    """The scalar per-r orbit loop that the vector kernel replaced: the
    float step at r, and for a tent whose slope 2r is an integer the exact
    map TentMap(r) from X0_EXACT."""
    if kind != "tent" or not (2 * r).is_integer():
        return float_tail(kind, r, burn, keep)
    m, x = TentMap(Fraction(r)), bifurcation.X0_EXACT
    for _ in range(burn):
        x = m(x)
    out = []
    for _ in range(keep):
        x = m(x)
        out.append(float(x))
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


class TestSlopeRule:
    """Each tent member steps at r in floats, except where 2r is an
    integer: r = 1/2 and r = 1 take the exact tail, and the floats next to
    them do not."""

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_integer_slope_takes_the_exact_tail(self, r):
        burn, keep = bifurcation.DEFAULT_BURN, bifurcation.DEFAULT_KEEP
        assert orbit_tail("tent", r) == bifurcation._exact_tail(
            int(2 * r), burn, keep)

    @pytest.mark.parametrize("r", [math.nextafter(0.5, 1.0),
                                   math.nextafter(1.0, 0.0)])
    def test_neighbours_step_in_floats(self, r):
        burn, keep = bifurcation.DEFAULT_BURN, bifurcation.DEFAULT_KEEP
        tail = orbit_tail("tent", r)
        assert tail == float_tail("tent", r, burn, keep)
        assert tail != bifurcation._exact_tail(round(2 * r), burn, keep)


class TestMemory:
    """What a consumed sweep holds, under tracemalloc (numpy's buffers
    included): the float block of keep x steps floats, 1.6 MB here, and
    one tail, or one chunk of formatted rows and one slice's text.
    Making every tail a list at once held 8.1 MB."""

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

    def test_consuming_the_csv_holds_one_block(self):
        steps, keep = 1000, bifurcation.DEFAULT_KEEP
        tracemalloc.start()
        try:
            data = bifurcation.sweep("logistic", 0.6, 1.0, steps=steps)
            size = sum(len(chunk) for chunk in data.csv())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > keep * steps * len("0.6,0.5\n")
        assert peak < 2 * keep * steps * 8


def percent_g(xs) -> list[bytes]:
    """The oracle: one % format per value."""
    return [b"%.12g" % x for x in xs]


def tie_neighbours(n: int, s: int) -> list[float]:
    """The double nearest (n + 1/2) / 10**s and the doubles either side."""
    t = float(Fraction(2 * n + 1, 2 * 10**s))
    return [np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)]


class TestFmt12:
    """``_fmt12`` against the per-value % format, byte for byte."""

    @staticmethod
    def check(xs):
        xs = [float(x) for x in xs]
        assert bifurcation._fmt12(np.array(xs, dtype=float)) == \
            percent_g(xs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1), max_size=64))
    def test_unit_interval(self, xs):
        self.check(xs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    max_size=64))
    def test_finite_floats(self, xs):
        self.check(xs)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(10**11, 10**12 - 1), st.integers(12, 15))
    def test_near_ties(self, n, s):
        # x * 10**s falls within an ulp of n + 1/2: the % path decides
        self.check(tie_neighbours(n, s))

    @pytest.mark.parametrize("s", [12, 13, 14, 15])
    def test_ties_at_the_ends_of_a_decade(self, s):
        # n + 1/2 rounds up to 10**12 (a carry into a 13th digit) at the
        # top and to the smallest 12-digit integers at the bottom
        self.check([x for n in (10**11, 10**11 + 1, 10**12 - 2, 10**12 - 1)
                    for x in tie_neighbours(n, s)])

    def test_edges(self):
        below = [np.nextafter(p, 0.0) for p in (1.0, 0.1, 0.01, 0.001, 1e-4)]
        self.check([0.0, -0.0, 1.0, 5e-324, 2.0**-1074 * 3, 2.0**-1022,
                    np.nextafter(2.0**-1022, 0.0), 0.1, 0.01, 0.001, 1e-4,
                    0.5, 0.25, 0.125, 1e-4 * 1.5, 0.999999999999,
                    0.9999999999995, -0.5, 2.0, 1e300, -1e-300] + below)

    def test_slices_of_a_block(self):
        # the CSV writer formats a raveled run of rows of its block
        block = np.random.default_rng(7).random((5, 9))
        assert bifurcation._fmt12(block[1:4].ravel()) == percent_g(
            block[1:4].ravel().tolist())

    def test_digit_table(self):
        table = bifurcation._digit_table()
        digits = [f"{i:04d}".encode() for i in range(10000)]
        assert table.dtype == np.dtype("<u4") and len(table) == 20000
        assert table.tobytes() == b"".join(
            digits + [d.rstrip(b"0").ljust(4, b"\0") for d in digits])
