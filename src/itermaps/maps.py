"""Parametric unimodal map families.

Tent, flat-tent and custom maps are exact: each is a ``PLMap``, which is
its canonical ``pl.PiecewiseLinear`` f.  An exact map evaluates exact points
only, through f, and the flags ``strictly_unimodal``, ``concave`` and
``symmetric`` and the critical point ``apex_x`` are read off f's integer
knots.  The two tents build f on first use; their ``float_step`` is what
the bifurcation sweep steps them with, at a float r.  Logistic and sine
maps are double precision with a documented 1e-12 tolerance on orbits.
The four families share one constructor, which takes r exact for the tents
and as a float otherwise and checks that 0 < r <= 1.  All maps send [0,1]
to [0,1] with f(0) = f(1) = 0 and a maximum at the critical point.
``cycle_map`` builds the custom map that connects the dots of a given cycle
(its P-linear map).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import sub

import numpy as np

from . import pl
from .errors import NotPiecewiseLinear

HALF = Fraction(1, 2)

#: tolerance for float orbit arithmetic on smooth families
SMOOTH_TOL = 1e-12


class UnimodalMap:
    """Base class; subclasses define kind and the step float_step(r, x)."""

    kind = "abstract"
    is_exact = False
    symmetric = True
    concave = True
    #: False for families whose maximum is attained on a plateau
    strictly_unimodal = True
    #: the critical point, where f attains its maximum
    apex_x = 0.5

    def __init__(self, r):
        r = pl.rat(r) if self.is_exact else float(r)
        if not (0 < r <= 1):
            raise ValueError(f"{self.kind} parameter must lie in (0,1]")
        self.r = r

    def __call__(self, x):
        # a Fraction x meets the float r first, which makes it a float
        return self.float_step(self.r, x)

    def max_value(self):
        return self(self.apex_x)

    def to_pl(self) -> pl.PiecewiseLinear:
        raise NotPiecewiseLinear(f"{self.kind} map is not piecewise linear")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "r": self.r}

    def __repr__(self):
        return f"{type(self).__name__}(r={self.r})"


class PLMap(UnimodalMap):
    """An exact map: its canonical PL function ``f``, set by the subclass.

    It evaluates exact points only, through f: a float x is refused with
    ``pl.rat``'s TypeError.  The two tents' ``float_step`` is not reached
    from here; the bifurcation sweep steps with it.  The flags and the apex
    compare f's integer knots.
    """

    is_exact = True
    f: pl.PiecewiseLinear

    def __call__(self, x):
        return self.f(x)

    def to_pl(self) -> pl.PiecewiseLinear:
        return self.f

    @cached_property
    def strictly_unimodal(self) -> bool:
        """No flat piece."""
        ys = self.f.raw.ys
        return all(a != b for a, b in zip(ys, ys[1:]))

    @cached_property
    def concave(self) -> bool:
        """No slope exceeds the one before it (runs are positive)."""
        xs, _, ys, _ = self.f.raw
        runs, rises = list(map(sub, xs[1:], xs)), list(map(sub, ys[1:], ys))
        return all(h0 * w1 >= h1 * w0 for w0, h0, w1, h1
                   in zip(runs, rises, runs[1:], rises[1:]))

    @cached_property
    def symmetric(self) -> bool:
        """f(1 - x) = f(x): the knots are their own mirror image."""
        xs, dx, ys, _ = self.f.raw
        return ys == ys[::-1] and all(
            a + b == dx for a, b in zip(xs, reversed(xs)))

    @cached_property
    def apex_x(self) -> Fraction:
        """The first top knot."""
        xs, dx, ys, _ = self.f.raw
        return Fraction(xs[ys.index(max(ys))], dx)


class TentMap(PLMap):
    """f(x) = 2r min(x, 1-x), exact for rational r in (0,1]."""

    kind = "tent"

    @cached_property
    def f(self) -> pl.PiecewiseLinear:
        return pl.new([(0, 0), (HALF, self.r), (1, 0)])

    @staticmethod
    def float_step(r, x):
        """Float f at parameter r; elementwise over arrays of r and x."""
        return 2.0 * r * np.minimum(x, 1.0 - x)


class FlatTentMap(PLMap):
    """Symmetric trapezoid min(5rx/2, r, 5r(1-x)/2): plateau r on [2/5, 3/5].

    Only weakly unimodal; admitted for bifurcation plotting and crossing
    counts, not for lap counts, which need a strict maximizer.
    """

    kind = "flat_tent"

    @cached_property
    def f(self) -> pl.PiecewiseLinear:
        return pl.new([(0, 0), (Fraction(2, 5), self.r),
                       (Fraction(3, 5), self.r), (1, 0)])

    @staticmethod
    def float_step(r, x):
        """Float f at parameter r; elementwise over arrays of r and x."""
        return np.minimum(np.minimum(2.5 * r * x, r), 2.5 * r * (1.0 - x))


class LogisticMap(UnimodalMap):
    """f(x) = 4 r x (1-x) for float r in (0,1]."""

    kind = "logistic"

    @staticmethod
    def float_step(r, x):
        """f at parameter r; elementwise over arrays of r and x."""
        return 4.0 * r * x * (1.0 - x)


class SineMap(UnimodalMap):
    """f(x) = r sin(pi x) for float r in (0,1]."""

    kind = "sine"

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self.float_step(self.r, x)
        return self.r * math.sin(math.pi * float(x))

    @staticmethod
    def float_step(r, x):
        """f at parameter r in numpy; elementwise over arrays of r and x."""
        return r * np.sin(np.pi * x)


class CustomPLMap(PLMap):
    """Unimodal map defined by an explicit exact PL function f.

    f must vanish at 0 and 1, be positive at every interior knot and hence
    on (0, 1), and rise then fall: two monotone pieces.
    """

    kind = "custom_pl"

    def __init__(self, f: pl.PiecewiseLinear):
        xs, dx, ys, _ = f.raw
        if ys[0] != 0 or ys[-1] != 0:
            raise ValueError("custom map must vanish at 0 and 1")
        for x, y in zip(xs[1:-1], ys[1:-1]):
            if y <= 0:
                raise ValueError(
                    f"{self.kind}: not positive at x={Fraction(x, dx)}")
        if pl.monotone_pieces(f) != 2:
            raise ValueError("custom map must increase then decrease")
        self.f = f

    def __repr__(self):
        return f"CustomPLMap({self.f})"


def cycle_map(orbit) -> CustomPLMap:
    """The P-linear map of a cycle given in dynamical order: the custom map
    through (0, 0), each point paired with its successor, and (1, 0).

    f(x_i) = x_(i+1) holds exactly, and when the cycle's pattern is
    unimodal the apex is a cycle point, so the critical orbit is the cycle.
    """
    p = len(orbit)
    pairs = sorted((orbit[i], orbit[(i + 1) % p]) for i in range(p))
    return CustomPLMap(pl.new([(0, 0)] + pairs + [(1, 0)]))


#: the parametric families by ``kind``: the CLI's map specs build their
#: members from it, and the bifurcation sweeps read its float steps
FAMILIES = {cls.kind: cls for cls in (LogisticMap, TentMap, FlatTentMap,
                                      SineMap)}
