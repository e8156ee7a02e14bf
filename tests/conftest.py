import random
from fractions import Fraction

import pytest

from itermaps import maps, pl


def tent_near(x: float, bump=Fraction(1, 10**12)) -> maps.TentMap:
    """Tent map at a rational parameter just above the float x.

    Cycles of the tent family are born exactly at the polynomial-root
    parameters, so rounding must land on the existing side; the +1e-12 bump
    dominates both the float representation error and the root solver
    tolerance while keeping critical-orbit perturbations below 1e-9.
    """
    return maps.TentMap(Fraction(x) + bump)


def random_rational(rng, den_max=64):
    den = rng.randint(1, den_max)
    return Fraction(rng.randint(0, den), den)


def random_pl(rng, max_interior=6):
    """Random canonical PL on [0,1] with rational knots."""
    n = rng.randint(0, max_interior)
    xs = sorted({Fraction(rng.randint(1, 127), 128) for _ in range(n)})
    knots = [(Fraction(0), random_rational(rng))]
    knots += [(x, random_rational(rng)) for x in xs]
    knots.append((Fraction(1), random_rational(rng)))
    return pl.new(knots)


def random_unit_map(rng, max_interior=4):
    """Random PL with f(0) = f(1) = 0 (so it maps into [0,1] and is iterable)."""
    n = rng.randint(1, max_interior)
    xs = sorted({Fraction(rng.randint(1, 127), 128) for _ in range(n)})
    knots = [(Fraction(0), Fraction(0))]
    knots += [(x, random_rational(rng)) for x in xs]
    knots.append((Fraction(1), Fraction(0)))
    return pl.new(knots)


def fraction_default(x) -> str:
    """json.dumps's default for the JSON artifacts: a Fraction as n/d."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def crossings(f, a, b) -> int:
    """Number of full traversals of [a,b] by the PL f: one fewer than its
    alternating touch sequence, or none."""
    return max(0, len(pl.crossing_points(f, a, b)) - 1)


def orbit(m, x0, n: int) -> list:
    """Forward orbit x0, m(x0), ..., m^n(x0); dtype follows x0."""
    out = [x0]
    for _ in range(n):
        out.append(m(out[-1]))
    return out


def kneading_laps(m, n_max: int) -> list[int]:
    """M(f^n), n = 1..n_max, in closed form from the kneading signs.

    theta_j = prod_{i<=j} sigma(c_i) over the critical orbit c_i = f^i(c),
    with sigma -1 right of c, +1 left of it and 0 at c; with
    D(t) = 1 + sum_j theta_j t^j, M(f^n) = 1 + [t^(n-1)] 1/((1-t)^2 D(t))
    (Milnor & Thurston).  Only the signs of the orbit enter: no lap is
    followed.
    """
    c = m.apex_x
    x, theta, d = c, 1, [1]
    for _ in range(n_max - 1):
        x = m(x)
        theta *= (x < c) - (x > c)
        d.append(theta)
    inv = [1]  # 1/D(t): integer coefficients, since D(0) = 1
    for n in range(1, n_max):
        inv.append(-sum(d[j] * inv[n - j] for j in range(1, n + 1)))
    # [t^(n-1)] of inv(t) / (1-t)^2, whose t^i coefficient is i + 1
    return [1 + sum((n - i) * inv[i] for i in range(n))
            for n in range(1, n_max + 1)]


def pointwise_l1(f, g):
    """Integral of |f - g| from f and g evaluated at each merged knot."""
    xs = sorted({x for x, _ in f.knots} | {x for x, _ in g.knots})
    total = Fraction(0)
    for x0, x1 in zip(xs, xs[1:]):
        d0 = f(x0) - g(x0)
        d1 = f(x1) - g(x1)
        w = x1 - x0
        if d0 * d1 < 0:
            z = x0 + d0 * w / (d0 - d1)
            total += abs(d0) * (z - x0) / 2 + abs(d1) * (x1 - z) / 2
        else:
            total += (abs(d0) + abs(d1)) * w / 2
    return total


@pytest.fixture
def rng():
    return random.Random(20240817)
