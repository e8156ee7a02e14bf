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
converted to float only when emitted.  A sweep is one kernel call over its
whole grid.  The ``bifurcation`` command emits the CSV one r-slice at a
time (``cli.csv_slice``): a tail that repeats with period p has its first p
rows formatted once and repeated, and any other tail, or a period holding a
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


def _tails(kind: str, rs: list[float], burn: int,
           keep: int) -> list[list[float]]:
    """Orbit tails of the family members at rs, in the order of rs.

    No member is built.  An exact family (the tents) steps at the rational
    Fraction(r).limit_denominator(10**9), which an exact map of r would
    hold, as a float, and a tent whose rational has an integer slope 2r
    takes ``_exact_tail``; the smooth families step at r itself.
    """
    if FAMILIES[kind].is_exact:
        rs = [Fraction(r).limit_denominator(10**9) for r in rs]
    exact = [kind == "tent" and (2 * r).denominator == 1 for r in rs]
    step = FAMILIES[kind].float_step
    r = np.array([float(q) for q, e in zip(rs, exact) if not e])
    x = np.full(r.shape, X0)
    for _ in range(burn):
        x = step(r, x)
    out = np.empty((keep, r.size))
    for row in out:
        x = step(r, x)
        row[:] = x
    floats = iter(out.T.tolist())
    return [_exact_tail(int(2 * q), burn, keep) if e else next(floats)
            for q, e in zip(rs, exact)]


def sweep(kind: str, r_lo: float, r_hi: float, steps: int = DEFAULT_STEPS,
          burn: int = DEFAULT_BURN, keep: int = DEFAULT_KEEP
          ) -> list[tuple[float, list[float]]]:
    """(r, orbit tail) per grid value, in r order.

    Grid values outside (0, 1] are dropped.  All members advance together in
    one vector.
    """
    rs = [r_lo + (r_hi - r_lo) * i / max(steps - 1, 1) for i in range(steps)]
    rs = [r for r in rs if 0 < r <= 1]
    return list(zip(rs, _tails(kind, rs, burn, keep)))
