"""Toy PL maps built around a prescribed cycle, for the growth comparison
between same-period itineraries.

A map is the interpolant through (0,0), the cycle's (point, image) pairs,
an apex knot, and (1,0).  The apex sits at the midpoint of the two cycle
points straddling the maximizer, raised a hair (1/1000) above the largest
cycle value: just enough for strict unimodality, small enough that the
1324 map keeps its itinerary maximal (no period-8 or odd cycle appears).
"""

from __future__ import annotations

from fractions import Fraction

from . import oscillation, pl
from .cycles import find_cycles
from .maps import CustomPLMap

APEX_MARGIN = Fraction(1, 1000)

TOY_CYCLES = {
    "123": (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
    "1234": (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)),
    "1324": (Fraction(1, 5), Fraction(3, 5), Fraction(2, 5), Fraction(4, 5)),
}


def cycle_interpolant(cycle_dyn) -> CustomPLMap:
    """Unimodal PL map carrying the given cycle (dynamical order).

    Each (x_i, x_{i+1}) pair of the cycle is a knot, so f(x_i) = x_{i+1}
    holds exactly by construction.
    """
    p = len(cycle_dyn)
    pairs = sorted((cycle_dyn[i], cycle_dyn[(i + 1) % p]) for i in range(p))
    apex_val = max(v for _, v in pairs)
    idx = max(i for i, (_, v) in enumerate(pairs) if v == apex_val)
    x_lo = pairs[idx][0]
    x_hi = pairs[idx + 1][0] if idx + 1 < len(pairs) else Fraction(1)
    apex = ((x_lo + x_hi) / 2, apex_val + APEX_MARGIN)
    knots = ([(Fraction(0), Fraction(0))] + pairs[:idx + 1] + [apex]
             + pairs[idx + 1:] + [(Fraction(1), Fraction(0))])
    return CustomPLMap(pl.new(knots))


def toy_map(itinerary: str) -> CustomPLMap:
    """One of the three comparison maps: '123', '1234', or '1324'."""
    return cycle_interpolant(TOY_CYCLES[itinerary])


def growth_comparison(k_max: int = 14) -> dict[str, oscillation.GrowthSeries]:
    """Monotone-piece growth series of the three toy maps, by the lap walk,
    which builds no f^k and takes no cap."""
    return {name: oscillation.entropy_estimate(toy_map(name), k_max)
            for name in ("1234", "123", "1324")}


def itinerary_1324_is_maximal(cap: int = pl.DEFAULT_KNOT_CAP) -> bool:
    """No period-8 cycle and no odd cycle of period <= 9; f^9 may hold
    `cap` knots."""
    found = find_cycles(toy_map("1324"), 9, cap)
    periods = {c.period for c in found}
    if 8 in periods:
        return False
    return not any(p % 2 == 1 and p > 1 for p in periods)
