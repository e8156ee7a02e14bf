"""Dominant roots of the oscillation polynomials and the interval-transition
matrix whose powers lower-bound crossing counts.

The two polynomial families are

    P_inc(p) = x^p - 2 x^(p-1) + 1      (increasing p-cycles)
    P_odd(p) = x^p - 2 x^(p-2) - 1      (odd p-cycles)

and the transition matrix A_p encodes how an increasing p-cycle's gap
intervals map onto each other under one application of the map.

A_p is a root of P_inc(p): A_p^p - 2 A_p^(p-1) + I is the zero matrix (its
characteristic polynomial times x - 1 is P_inc(p); the tests check the
identity in integers for p = 3..20).  So every eigenvalue of A_p is a root
of P_inc(p), and the Perron root of A_p, which exceeds 1, is rho_inc(p):
the spectral radius needs no power iteration.

A_p is returned as a tuple of integer rows and A_p^k 1 as a tuple of
integers.  The entries of A_p^k 1 are non-decreasing and the last is at
most twice the first (the tests check both for p = 3..8, k <= 40).
"""

from __future__ import annotations

import math

ROOT_TOL = 1e-12

PHI = (1 + math.sqrt(5)) / 2


def p_inc(p: int, x: float) -> float:
    return x**p - 2 * x ** (p - 1) + 1


def p_odd(p: int, x: float) -> float:
    return x**p - 2 * x ** (p - 2) - 1


def bisect_root(f, lo: float, hi: float, tol: float = ROOT_TOL) -> float:
    """A root of f in [lo, hi], where f changes sign, to within tol.

    Each step evaluates f once, at the midpoint, and returns the midpoint
    at once if f is 0 there.
    """
    flo = f(lo)
    if flo == 0:
        return lo
    if flo * f(hi) > 0:
        raise ValueError("no sign change in bracket")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fmid = f(mid)
        if fmid == 0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return (lo + hi) / 2


def rho_inc(p: int) -> float:
    """Largest root of P_inc(p); increases from the golden ratio toward 2.

    The only positive roots are 1 and the dominant one, and the polynomial is
    negative throughout (1, rho), so [1.5, 2] brackets cleanly for all p >= 3.
    """
    if p < 3:
        raise ValueError("p must be >= 3")
    return bisect_root(lambda x: p_inc(p, x), 1.5, 2.0)


def rho_odd(p: int) -> float:
    """Largest (only positive) root of P_odd(p); decreases toward sqrt(2)."""
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be odd and >= 3")
    return bisect_root(lambda x: p_odd(p, x), math.sqrt(2), 2.0)


def fact_lower_bound(p: int) -> float:
    """Proven bracket floor for rho_inc: max(2 - 4/2^p, golden ratio)."""
    return max(2 - 4 / 2**p, PHI)


def verify_root_bounds(p: int) -> bool:
    """Check rho_inc(p) sits inside [max(2 - 4/2^p, phi), 2)."""
    rho = rho_inc(p)
    return fact_lower_bound(p) - 1e-9 <= rho < 2


def transition_matrix(p: int) -> tuple[tuple[int, ...], ...]:
    """A_p as its rows: the (p-1)x(p-1) 0/1 matrix with ones on the
    subdiagonal and in the last column."""
    if p < 3:
        raise ValueError("p must be >= 3")
    n = p - 1
    return tuple(
        tuple(1 if (j == n - 1 or i == j + 1) else 0 for j in range(n))
        for i in range(n)
    )


def crossing_lb_vector(p: int, k: int) -> tuple[int, ...]:
    """A_p^k applied to the all-ones vector: per-gap crossing lower bounds,
    in exact integers."""
    if k < 0:
        raise ValueError("k must be >= 0")
    a = transition_matrix(p)
    v = (1,) * (p - 1)
    for _ in range(k):
        v = tuple(sum(x * y for x, y in zip(row, v)) for row in a)
    return v


def rho_table() -> list[dict]:
    """Rows (p, rho_inc, fact bound, rho_odd-or-None) for p = 3..10."""
    rows = []
    for p in range(3, 11):
        rows.append({
            "p": p,
            "rho_inc": rho_inc(p),
            "fact_lower_bound": fact_lower_bound(p),
            "rho_odd": rho_odd(p) if p % 2 == 1 else None,
        })
    return rows
