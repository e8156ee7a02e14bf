"""Dominant roots of the oscillation polynomials.

The two polynomial families are

    P_inc(p) = x^p - 2 x^(p-1) + 1      (increasing p-cycles)
    P_odd(p) = x^p - 2 x^(p-2) - 1      (odd p-cycles)

and their dominant roots rho_inc(p) and rho_odd(p) are the growth rates
that the increasing and Stefan certificates compare crossing counts with.
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
