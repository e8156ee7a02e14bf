"""Characteristic-polynomial roots, transition matrices, crossing vectors.

The transition matrix A_p encodes how an increasing p-cycle's gap intervals
map onto each other under one application of the map; A_p^k 1 lower-bounds
the crossing counts of f^k over the gaps.  Nothing in the package reads
them yet, so both are built here.

A_p is a root of P_inc(p): A_p^p - 2 A_p^(p-1) + I is the zero matrix (its
characteristic polynomial times x - 1 is P_inc(p); the tests check the
identity in integers for p = 3..20).  So every eigenvalue of A_p is a root
of P_inc(p), and the Perron root of A_p, which exceeds 1, is rho_inc(p):
the spectral radius needs no power iteration.

A_p is built as a tuple of integer rows and A_p^k 1 as a tuple of
integers.  The entries of A_p^k 1 are non-decreasing and the last is at
most twice the first (the tests check both for p = 3..8, k <= 40).
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from itermaps import spectra


def p_inc(p, x):
    return x**p - 2 * x ** (p - 1) + 1


def p_odd(p, x):
    return x**p - 2 * x ** (p - 2) - 1


def transition_matrix(p: int) -> tuple[tuple[int, ...], ...]:
    """A_p as its rows: the (p-1)x(p-1) 0/1 matrix with ones on the
    subdiagonal and in the last column."""
    n = p - 1
    return tuple(
        tuple(1 if (j == n - 1 or i == j + 1) else 0 for j in range(n))
        for i in range(n)
    )


def crossing_lb_vector(p: int, k: int) -> tuple[int, ...]:
    """A_p^k applied to the all-ones vector: per-gap crossing lower bounds,
    in exact integers."""
    a = transition_matrix(p)
    v = (1,) * (p - 1)
    for _ in range(k):
        v = tuple(sum(x * y for x, y in zip(row, v)) for row in a)
    return v


# frozen target table: p -> (rho_inc, fact floor, rho_odd or None)
TABLE = {
    3: (1.618, 1.618, 1.618),
    4: (1.839, 1.75, None),
    5: (1.928, 1.875, 1.513),
    6: (1.966, 1.938, None),
    7: (1.984, 1.969, 1.466),
    8: (1.992, 1.984, None),
    9: (1.996, 1.992, 1.441),
    10: (1.999, 1.996, None),
}


class TestRoots:
    @pytest.mark.parametrize("p", sorted(TABLE))
    def test_rho_inc_matches_table(self, p):
        assert spectra.rho_inc(p) == pytest.approx(TABLE[p][0], abs=1e-3)

    @pytest.mark.parametrize("p", sorted(TABLE))
    def test_fact_bound_matches_table(self, p):
        assert spectra.fact_lower_bound(p) == pytest.approx(TABLE[p][1], abs=1e-3)

    @pytest.mark.parametrize("p", [3, 5, 7, 9])
    def test_rho_odd_matches_table(self, p):
        assert spectra.rho_odd(p) == pytest.approx(TABLE[p][2], abs=1e-3)

    def test_roots_are_roots(self):
        # each rate is the least double above its root: the polynomial,
        # evaluated exactly, is below 0 one double lower and above 0 there
        for poly, rho, ps in ((p_inc, spectra.rho_inc, range(3, 41)),
                              (p_odd, spectra.rho_odd, range(3, 40, 2))):
            for p in ps:
                x = rho(p)
                assert poly(p, F(math.nextafter(x, 0))) < 0 < poly(p, F(x))

    def test_monotone_trends(self):
        incs = [spectra.rho_inc(p) for p in range(3, 11)]
        assert all(a < b for a, b in zip(incs, incs[1:]))
        odds = [spectra.rho_odd(p) for p in (3, 5, 7, 9)]
        assert all(a > b for a, b in zip(odds, odds[1:]))

    def test_verify_root_bounds(self):
        rows = spectra.rho_table()
        assert [row["p"] for row in rows] == list(range(3, 11))
        for row in rows:
            assert row["fact_lower_bound"] <= row["rho_inc"] < 2

    def test_odd_bracket_from_theory(self):
        for p in (3, 5, 7, 9, 11):
            rho = spectra.rho_odd(p)
            assert math.sqrt(2) < rho < math.sqrt(2 + 2 / 2 ** (p / 2)) + 1e-12

    def test_degenerate_p_rejected(self):
        with pytest.raises(ValueError):
            spectra.rho_inc(2)
        with pytest.raises(ValueError):
            spectra.rho_odd(4)


class TestBisectFloats:
    @given(st.floats(-1e300, 1e300), st.floats(0, 1e300),
           st.floats(-1e300, 1e300), st.booleans())
    def test_ends_equal_or_adjacent(self, lo, width, cut, strict):
        # a monotone left_of: False below the cut, True above it
        hi = lo + width
        a, b = spectra.bisect_floats(
            lambda x: x > cut if strict else x >= cut, lo, hi)
        assert lo <= a <= b <= math.nextafter(a, math.inf) and b <= hi
        # an end that moved was put there by left_of's answer
        assert a == lo or a <= cut
        assert b == hi or b >= cut


class TestTransitionMatrix:
    def test_p3_stencil(self):
        assert transition_matrix(3) == ((0, 1), (1, 1))

    def test_p4_stencil(self):
        assert transition_matrix(4) == (
            (0, 0, 1), (1, 0, 1), (0, 1, 1))

    def test_p3_characteristic_polynomial(self):
        # det(A_3 - xI) = x^2 - x - 1 by direct 2x2 expansion
        (a, b), (c, d) = transition_matrix(3)
        for x in (-1.0, 0.5, 2.0, 3.25):
            det = (a - x) * (d - x) - b * c
            assert det == pytest.approx(x * x - x - 1)

    def test_polynomial_rewrite_identity(self):
        # (x - 1) * (x^(p-1) - sum_{i<p-1} x^i) == x^p - 2x^(p-1) + 1
        rng = random.Random(99)
        for _ in range(100):
            p = rng.randint(3, 9)
            x = rng.uniform(-2, 2)
            reduced = x ** (p - 1) - sum(x**i for i in range(p - 1))
            assert (x - 1) * reduced == pytest.approx(p_inc(p, x), abs=1e-9)


class TestCrossingVectors:
    def test_fibonacci_for_p3(self):
        seq = [crossing_lb_vector(3, k) for k in range(4)]
        assert seq == [(1, 1), (1, 2), (2, 3), (3, 5)]

    def test_p4_first_step(self):
        assert crossing_lb_vector(4, 1) == (1, 2, 2)

    def test_invariants_hold_wide_range(self):
        for p in range(3, 9):
            rho = spectra.rho_inc(p)
            for k in range(41):
                y = crossing_lb_vector(p, k)
                assert all(b >= a for a, b in zip(y, y[1:]))
                assert y[-1] <= 2 * y[0]
                assert max(y) >= rho**k / 2

    def test_exact_integers_beyond_float_range(self):
        y = crossing_lb_vector(3, 200)
        assert y[1] > 2**130  # Fibonacci growth, exact big ints


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


class TestSpectralRadius:
    """rho(A_p) = rho_inc(p), checked in integers: A_p is a root of P_inc(p)
    (the module docstring says why that settles it)."""

    @pytest.mark.parametrize("p", range(3, 21))
    def test_agrees_with_polynomial_root(self, p):
        a = [list(row) for row in transition_matrix(p)]
        eye = [[int(i == j) for j in range(p - 1)] for i in range(p - 1)]
        powers = [eye]
        for _ in range(p):
            powers.append(matmul(powers[-1], a))
        # P_inc(p)(A_p) = A_p^p - 2 A_p^(p-1) + I
        value = [[x - 2 * y + e for x, y, e in zip(*rows)]
                 for rows in zip(powers[p], powers[p - 1], eye)]
        assert value == [[0] * (p - 1) for _ in range(p - 1)]

    def test_golden_ratio_base_case(self):
        # A_3^2 = A_3 + I: A_3's eigenvalues are the roots of x^2 - x - 1
        a = [list(row) for row in transition_matrix(3)]
        assert matmul(a, a) == [[1, 1], [1, 2]]
        assert spectra.rho_inc(3) == pytest.approx((1 + math.sqrt(5)) / 2,
                                                   abs=1e-12)
