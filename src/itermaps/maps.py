"""Parametric unimodal map families.

Tent, flat-tent, and custom-PL maps are exact (rational parameter, rational
arithmetic); logistic and sine maps are double precision with a documented
1e-12 tolerance on orbits.  All maps send [0,1] to [0,1] with f(0) = f(1) = 0
and a maximum at the critical point.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Union

import numpy as np

from . import pl
from .errors import NotPiecewiseLinear

HALF = Fraction(1, 2)

#: tolerance for float orbit arithmetic on smooth families
SMOOTH_TOL = 1e-12

Scalar = Union[Fraction, int, float]


def _audit_unimodal(m: "UnimodalMap", grid: int = 101):
    """Reject m unless f(0) = f(1) = 0 and f(i/(grid+1)) > 0 for i = 1..grid.

    The grid, endpoints included, is evaluated in one float array call;
    np.arange(grid + 2) / (grid + 1) is bit-equal to i / (grid + 1), and the
    error names the first failing x.
    """
    xs = np.arange(grid + 2) / (grid + 1)
    ys = m(xs)
    end_tol = 0 if m.is_exact else 1e-15
    if abs(ys[0]) > end_tol or abs(ys[-1]) > end_tol:
        raise ValueError(f"{m.kind}: endpoints must map to 0")
    positive = ys[1:-1] > 0
    if not positive.all():
        x = float(xs[1 + positive.argmin()])
        raise ValueError(f"{m.kind}: not positive at x={x}")


class UnimodalMap:
    """Base class; subclasses define kind and evaluation."""

    kind = "abstract"
    symmetric = True
    concave = True
    #: False for families whose maximum is attained on a plateau
    strictly_unimodal = True

    @property
    def is_exact(self) -> bool:
        return isinstance(self.r, Fraction)

    def __call__(self, x):
        raise NotImplementedError

    @property
    def apex_x(self):
        """The critical point, where f attains its maximum."""
        return HALF if self.is_exact else 0.5

    def max_value(self):
        return self(self.apex_x)

    def to_pl(self) -> pl.PiecewiseLinear:
        raise NotPiecewiseLinear(f"{self.kind} map is not piecewise linear")

    def to_json(self) -> str:
        r = self.r
        payload = {"kind": self.kind,
                   "r": f"{r.numerator}/{r.denominator}" if self.is_exact else r}
        return json.dumps(payload)

    def __repr__(self):
        return f"{type(self).__name__}(r={self.r})"


class TentMap(UnimodalMap):
    """f(x) = 2r min(x, 1-x), exact for rational r in (0,1]."""

    kind = "tent"

    def __init__(self, r):
        r = pl.rat(r)
        if not (0 < r <= 1):
            raise ValueError("tent parameter must lie in (0,1]")
        self.r = r
        _audit_unimodal(self)

    def __call__(self, x):
        if isinstance(x, (Fraction, int)):
            x = pl.rat(x)
            if not (0 <= x <= 1):
                raise ValueError(f"x={x} outside [0,1]")
            return 2 * self.r * min(x, 1 - x)
        return self.float_step(float(self.r), x)

    @staticmethod
    def float_step(r, x):
        """Float f at parameter r; elementwise over arrays of r and x."""
        return 2.0 * r * np.minimum(x, 1.0 - x)

    def to_pl(self):
        return pl.new([(0, 0), (HALF, self.r), (1, 0)])


class FlatTentMap(UnimodalMap):
    """Symmetric trapezoid min(5rx/2, r, 5r(1-x)/2): plateau r on [2/5, 3/5].

    Only weakly unimodal; admitted for bifurcation plotting and crossing
    counts, not for lap counts, which need a strict maximizer.
    """

    kind = "flat_tent"
    strictly_unimodal = False

    def __init__(self, r):
        r = pl.rat(r)
        if not (0 < r <= 1):
            raise ValueError("flat-tent parameter must lie in (0,1]")
        self.r = r
        _audit_unimodal(self)

    def __call__(self, x):
        if isinstance(x, (Fraction, int)):
            x = pl.rat(x)
            if not (0 <= x <= 1):
                raise ValueError(f"x={x} outside [0,1]")
            return min(5 * self.r * x / 2, self.r, 5 * self.r * (1 - x) / 2)
        return self.float_step(float(self.r), x)

    @staticmethod
    def float_step(r, x):
        """Float f at parameter r; elementwise over arrays of r and x."""
        return np.minimum(np.minimum(2.5 * r * x, r), 2.5 * r * (1.0 - x))

    def to_pl(self):
        return pl.new([(0, 0), (Fraction(2, 5), self.r),
                       (Fraction(3, 5), self.r), (1, 0)])


class LogisticMap(UnimodalMap):
    """f(x) = 4 r x (1-x) for float r in (0,1]."""

    kind = "logistic"

    def __init__(self, r):
        r = float(r)
        if not (0 < r <= 1):
            raise ValueError("logistic parameter must lie in (0,1]")
        self.r = r
        _audit_unimodal(self)

    def __call__(self, x):
        # a Fraction operand of a float product is converted to float first
        return self.float_step(self.r, x)

    @staticmethod
    def float_step(r, x):
        """f at parameter r; elementwise over arrays of r and x."""
        return 4.0 * r * x * (1.0 - x)


class SineMap(UnimodalMap):
    """f(x) = r sin(pi x) for float r in (0,1]."""

    kind = "sine"

    def __init__(self, r):
        r = float(r)
        if not (0 < r <= 1):
            raise ValueError("sine parameter must lie in (0,1]")
        self.r = r
        _audit_unimodal(self)

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self.float_step(self.r, x)
        return self.r * math.sin(math.pi * float(x))

    @staticmethod
    def float_step(r, x):
        """f at parameter r in numpy; elementwise over arrays of r and x."""
        return r * np.sin(np.pi * x)


class CustomPLMap(UnimodalMap):
    """Unimodal map defined by an explicit exact PL function."""

    kind = "custom_pl"

    def __init__(self, f: pl.PiecewiseLinear):
        self.f = f
        self.r = Fraction(1)
        self._float_xs, self._float_ys = np.array(f.knots, dtype=float).T
        ys = [y for _, y in f.knots]
        if ys[0] != 0 or ys[-1] != 0:
            raise ValueError("custom map must vanish at 0 and 1")
        slopes = f.slopes
        signs = [1 if s > 0 else (-1 if s < 0 else 0) for s in slopes]
        nonzero = [s for s in signs if s != 0]
        if not nonzero or nonzero[0] != 1 or nonzero[-1] != -1 or (
                pl.monotone_pieces(f) != 2):
            raise ValueError("custom map must increase then decrease")
        self.strictly_unimodal = 0 not in signs
        self.symmetric = all(
            (1 - x, y) in set(f.knots) for x, y in f.knots)
        self.concave = all(a >= b for a, b in zip(slopes, slopes[1:]))
        _audit_unimodal(self)

    @property
    def apex_x(self):
        """Abscissa of the top knot (the first one on a plateau)."""
        return max(self.f.knots, key=lambda kn: kn[1])[0]

    def __call__(self, x):
        if isinstance(x, (Fraction, int)):
            return self.f(x)
        # float fast path via interpolation on the float knots
        y = np.interp(x, self._float_xs, self._float_ys)
        return y if isinstance(x, np.ndarray) else float(y)

    def to_pl(self):
        return self.f

    def to_json(self):
        return json.dumps({"kind": self.kind, "custom_pl":
                           json.loads(self.f.to_json())})


def tent_near(x: float, bump=Fraction(1, 10**12)) -> TentMap:
    """Tent map at a rational parameter just above the float x.

    Cycles of the tent family are born exactly at the polynomial-root
    parameters, so rounding must land on the existing side; the +1e-12 bump
    dominates both the float representation error and the root solver
    tolerance while keeping critical-orbit perturbations below 1e-9.
    """
    return TentMap(Fraction(x) + bump)


def from_json(text: str) -> UnimodalMap:
    payload = json.loads(text)
    kind = payload["kind"]
    if kind == "custom_pl":
        quads = payload["custom_pl"]
        f = pl.PiecewiseLinear(tuple((Fraction(a, b), Fraction(c, d))
                                     for a, b, c, d in quads))
        return CustomPLMap(f)
    r = payload["r"]
    r = Fraction(r) if isinstance(r, str) else r
    return {"tent": TentMap, "flat_tent": FlatTentMap,
            "logistic": LogisticMap, "sine": SineMap}[kind](r)
