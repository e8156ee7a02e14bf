"""Bifurcation sweeps: long-run orbit clouds over a parameter range.

The initial point 0.5001 (not 0.5) avoids landing exactly on super-stable
orbits; the metadata records it.  One numpy vector holds the orbit point of
every member of a sweep, and each step advances all of them at once through
the family's ``float_step``, the expression its ``__call__`` evaluates on
floats, so every value is bit-equal to iterating that member alone (the sine
step calls np.sin where a scalar call uses math.sin; the pinned sweep
outputs in the tests check that they agree).  The exception is a tent member
whose slope 2r is an integer (r = 1/2 and r = 1): there the float step is
exact in binary and each doubling shifts one bit out of the mantissa, so the
float orbit of 0.5001 reaches 0 within about 55 steps.  Those members are
iterated exactly from the rational 5001/10000: an integer slope keeps the
denominator 10000, so the orbit runs on integer numerators and each value is
converted to float only when emitted.

A sweep steps all its float members when it is made and keeps their
keep x n block of floats (1.6 MB at the defaults); nothing else grows with
the grid.  Iterating it gives one (r, tail) at a time, and a tail becomes a
Python list only when it is reached: a column of the block, or an exact
tail computed then.  So a consumer that writes each slice and drops it
holds the block and one tail, not every tail at once.  A sweep can be
iterated more than once; each pass makes its lists afresh.  The
``bifurcation`` command writes the CSV one r-slice at a time
(``cli.csv_slice``): a tail that repeats with period p has its first p rows
formatted once and repeated, and any other tail, or a period holding a
zero, is one ``%`` format of the row "r,%.12g" repeated once per tail value.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .maps import FAMILIES

X0 = 0.5001
#: X0 as the rational it denotes; Fraction(X0) is a dyadic rational, and its
#: exact orbit under the r = 1 tent collapses to 0 just as the float one does
X0_EXACT = Fraction(str(X0))
DEFAULT_BURN = 500
DEFAULT_KEEP = 200
DEFAULT_STEPS = 1000


def _exact_tail(s: int, burn: int, keep: int) -> list[float]:
    """The tail of the exact orbit of X0_EXACT = n/d under the tent of
    integer slope s = 2r: x -> s min(x, 1 - x) keeps the denominator d, so
    the orbit is iterated on its numerator, and n / d rounds as
    float(Fraction(n, d))."""
    n, d = X0_EXACT.numerator, X0_EXACT.denominator
    for _ in range(burn):
        n = s * min(n, d - n)
    out = []
    for _ in range(keep):
        n = s * min(n, d - n)
        out.append(n / d)
    return out


def _rational(r: float) -> tuple[int, int]:
    """Fraction(r).limit_denominator(10**9) as (numerator, denominator).

    The same continued-fraction rule on r.as_integer_ratio(), in integers:
    of the last convergent p1/q1 with q1 <= 10**9 and the semiconvergent
    beyond it, the nearer to r, and p1/q1 on a tie.  The two lie on either
    side of r, 1/(q1 q) apart for the semiconvergent's denominator q, and
    p1/q1 is d/(q1 D) from r = n/D, d the remainder at the stop, so p1/q1
    is the nearer or tied when 2 d q <= D.
    """
    n, den = r.as_integer_ratio()
    if den <= 10**9:
        return n, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    d = den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > 10**9:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (10**9 - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


class _Sweep:
    """The (r, orbit tail) pairs of the family members at rs, in the order
    of rs.

    No member is built.  An exact family (the tents) steps at the rational
    ``_rational(r)``, Fraction(r).limit_denominator(10**9), which an exact
    map of r would hold, as a float, and a tent whose rational p/q has an
    integer slope 2p/q (q <= 2) takes ``_exact_tail``; the smooth families
    step at r itself.  The float members advance together in one vector
    here, and their tails stay as the columns of one keep x n block until
    iteration makes each a list.
    """

    def __init__(self, kind: str, rs: list[float], burn: int, keep: int):
        self.rs, self.burn, self.keep = rs, burn, keep
        # the integer slope of each exact tent member, None for the rest
        self.slopes = [None] * len(rs)
        if FAMILIES[kind].is_exact:
            qs = [_rational(r) for r in rs]
            if kind == "tent":
                self.slopes = [2 * p // q if q <= 2 else None for p, q in qs]
            r = np.array([p / q for (p, q), s in zip(qs, self.slopes)
                          if s is None])
        else:
            r = np.array(rs)
        step = FAMILIES[kind].float_step
        x = np.full(r.shape, X0)
        for _ in range(burn):
            x = step(r, x)
        self.block = np.empty((keep, r.size))
        for row in self.block:
            x = step(r, x)
            row[:] = x

    def __iter__(self):
        columns = iter(self.block.T)
        for r, s in zip(self.rs, self.slopes):
            yield r, (next(columns).tolist() if s is None
                      else _exact_tail(s, self.burn, self.keep))


def sweep(kind: str, r_lo: float, r_hi: float, steps: int = DEFAULT_STEPS,
          burn: int = DEFAULT_BURN, keep: int = DEFAULT_KEEP) -> _Sweep:
    """(r, orbit tail) per grid value, in r order, one at a time.

    Grid values outside (0, 1] are dropped.  All float members advance
    together in one vector before this returns; each tail is made a list
    only when iteration reaches it, so a consumer that drops each tail
    holds one keep x steps block of floats and one tail at a time.
    """
    rs = [r_lo + (r_hi - r_lo) * i / max(steps - 1, 1) for i in range(steps)]
    return _Sweep(kind, [r for r in rs if 0 < r <= 1], burn, keep)
