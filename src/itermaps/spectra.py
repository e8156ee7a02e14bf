"""Dominant roots of the oscillation polynomials.

The two polynomial families are

    P_inc(p) = x^p - 2 x^(p-1) + 1      (increasing p-cycles)
    P_odd(p) = x^p - 2 x^(p-2) - 1      (odd p-cycles)

and their dominant roots rho_inc(p) and rho_odd(p) are the growth rates
that the increasing and Stefan certificates compare crossing counts with.
Each is returned as the least double above the root: every bisection
midpoint is decided by the exact integer sign of the polynomial there, so a
certificate that checks its count against rate^e in exact arithmetic checks
it against a number at least as large as the theorem's rho^e.
"""

from __future__ import annotations

import math

PHI = (1 + math.sqrt(5)) / 2


def bisect_floats(left_of, lo: float, hi: float) -> tuple[float, float]:
    """Narrow [lo, hi] to two equal or adjacent doubles around a point that
    ``left_of(x)`` places at or left of x (True) or right of it (False).

    Each round asks ``left_of`` once, at the midpoint, and the rounds stop
    when the midpoint equals an end, so no bit is left to decide.
    """
    while lo < (mid := (lo + hi) / 2) < hi:
        if left_of(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def rho_inc(p: int) -> float:
    """Largest root of P_inc(p); increases from the golden ratio toward 2.

    The only positive roots are 1 and the dominant one, and the polynomial is
    negative throughout (1, rho), so [1.5, 2] brackets cleanly for all p >= 3.
    At x = n/d, d^p P_inc(p)(x) = n^(p-1) (n - 2d) + d^p.
    """
    if p < 3:
        raise ValueError("p must be >= 3")

    def above(x):
        n, d = x.as_integer_ratio()
        return n ** (p - 1) * (n - 2 * d) + d**p > 0

    return bisect_floats(above, 1.5, 2.0)[1]


def rho_odd(p: int) -> float:
    """Largest (only positive) root of P_odd(p); decreases toward sqrt(2).

    At x = n/d, d^p P_odd(p)(x) = n^(p-2) (n^2 - 2d^2) - d^p.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be odd and >= 3")

    def above(x):
        n, d = x.as_integer_ratio()
        return n ** (p - 2) * (n * n - 2 * d * d) - d**p > 0

    return bisect_floats(above, math.sqrt(2), 2.0)[1]


def fact_lower_bound(p: int) -> float:
    """Proven bracket floor for rho_inc: max(2 - 4/2^p, golden ratio)."""
    return max(2 - 4 / 2**p, PHI)


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
