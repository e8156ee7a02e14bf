"""Weak-VC calculus over infinite Boolean-sequence regexes, the doubling
bound 18 p^2, and exact shattering witnesses for the chaotic regime.

The interleave rule's statement-level constant is 4*max + 2, but its proof
establishes that 4d + 3 points cannot be shattered; the conservative
4*max + 3 is implemented and the discrepancy is surfaced in vcw_bound's
docstring and output notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .maps import TentMap


# ---------------------------------------------------------------------------
# regex AST


def _check_word(w: str) -> str:
    if not w or any(ch not in "01" for ch in w):
        raise ValueError(f"bit string must be nonempty over 0/1, got {w!r}")
    return w


@dataclass(frozen=True)
class RepInf:
    """w repeated forever."""
    w: str

    def __post_init__(self):
        _check_word(self.w)


@dataclass(frozen=True)
class Prefix:
    """w followed by sequences of inner."""
    w: str
    inner: "Regex"

    def __post_init__(self):
        _check_word(self.w)


@dataclass(frozen=True)
class Star:
    """Any number of w repetitions, then inner."""
    w: str
    inner: "Regex"

    def __post_init__(self):
        _check_word(self.w)


@dataclass(frozen=True)
class Union:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class Interleave:
    """Odd positions from left, even positions from right."""
    left: "Regex"
    right: "Regex"


Regex = RepInf | Prefix | Star | Union | Interleave


def vcw_bound_real(e: Regex) -> float:
    """Recursive weak-VC upper bound with exact-real log terms."""
    if isinstance(e, RepInf):
        return math.log2(len(e.w))
    if isinstance(e, (Prefix, Star)):
        return vcw_bound_real(e.inner) + math.log2(len(e.w)) + 1
    if isinstance(e, Union):
        return vcw_bound_real(e.left) + vcw_bound_real(e.right)
    if isinstance(e, Interleave):
        # proof-safe constant: the argument rules out 4d + 3 points
        return 4 * max(vcw_bound_real(e.left),
                       vcw_bound_real(e.right)) + 3
    raise TypeError(f"not a regex node: {e!r}")


def vcw_bound(e: Regex) -> int:
    """Ceiling of the recursive weak-VC upper bound."""
    return math.ceil(vcw_bound_real(e) - 1e-12)


def parse_regex(text: str) -> Regex:
    """Parse strings like '1*0(01)^inf | 10^inf' (union '|', interleave '&').

    A term is a chain of words, each optionally starred, ending in a word
    raised to ^inf; parentheses group multi-bit words.
    """
    text = text.replace(" ", "")

    def parse_union(s: str) -> Regex:
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "|" and depth == 0:
                return Union(parse_union(s[:i]), parse_union(s[i + 1:]))
            elif ch == "&" and depth == 0:
                return Interleave(parse_union(s[:i]), parse_union(s[i + 1:]))
        return parse_term(s)

    def next_word(s: str, i: int) -> tuple[str, int]:
        if s[i] == "(":
            j = s.index(")", i)
            return s[i + 1:j], j + 1
        return s[i], i + 1

    def parse_term(s: str) -> Regex:
        atoms = []  # (word, marker) with marker in {"", "*", "inf"}
        i = 0
        while i < len(s):
            w, i = next_word(s, i)
            if s[i:i + 4] == "^inf":
                atoms.append((w, "inf"))
                i += 4
            elif s[i:i + 1] == "*":
                atoms.append((w, "*"))
                i += 1
            else:
                atoms.append((w, ""))
        if not atoms or atoms[-1][1] != "inf":
            raise ValueError(f"term must end in w^inf: {s!r}")
        expr: Regex = RepInf(atoms[-1][0])
        for w, marker in reversed(atoms[:-1]):
            if marker == "inf":
                raise ValueError("w^inf only allowed at the end of a term")
            expr = Star(w, expr) if marker == "*" else Prefix(w, expr)
        return expr

    return parse_union(text)


# ---------------------------------------------------------------------------
# doubling-regime bound


def doubling_vc_bound(p: int) -> int:
    """18 p^2 for threshold classes of maps whose maximal cycle is the
    primary power-of-two p-cycle (equivalently 18 * 4^q at p = 2^q)."""
    if p < 1 or p & (p - 1) != 0:
        raise ValueError("p must be a power of two")
    return 18 * p * p


# ---------------------------------------------------------------------------
# primes and CRT shattering


def primes_above(m: int, d: int) -> tuple[int, ...]:
    """The d smallest primes strictly greater than m, by direct enumeration."""
    if m < 3 or d < 1:
        raise ValueError("need m >= 3 and d >= 1")
    out = []
    n = m
    while len(out) < d:
        n += 1
        if all(n % q for q in range(2, int(math.isqrt(n)) + 1)):
            out.append(n)
    return tuple(out)


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """x with x = r1 (mod m1), x = r2 (mod m2) for coprime moduli."""
    inv = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2)


@dataclass(frozen=True)
class ShatterWitness:
    """d points on odd-period tent cycles shattered at threshold 1/2.

    Each point sits on a p_j-cycle just left of 1/2 with its image at or
    above 1/2, so the label of f^k at the point depends only on k mod p_j;
    the exponent table realizes every labeling via CRT.
    """

    d: int
    m: int
    primes: tuple[int, ...]
    points: tuple[Fraction, ...]
    table: dict[str, int]

    def to_dict(self) -> dict:
        return {"d": self.d, "m": self.m, "primes": self.primes,
                "points": self.points, "table": self.table}


def _increasing_cycle_point(p: int) -> Fraction:
    """The point of the full tent's increasing p-cycle with x < 1/2 <= f(x).

    The cycle is 2^i/(1+2^p) for i = 1..p; the second-largest point
    2^(p-1)/(1+2^p) is below 1/2 and maps to the unique point above it.
    """
    return Fraction(2 ** (p - 1), 1 + 2**p)


#: largest witness size shatter builds: its table holds 2^d labelings,
#: each checked by up to prod(primes) exact tent steps
MAX_SHATTER_D = 3


def shatter(d: int) -> ShatterWitness:
    """Exact shattering witness of size d for the full tent at t = 1/2.

    Points are chosen on increasing cycles of the d smallest primes above
    the map's base odd period (3); iterate exponents come from CRT.  Every
    labeling is verified by exact rational iteration of the map itself, not
    by the modular shortcut that constructs it.
    """
    if not 1 <= d <= MAX_SHATTER_D:
        raise ValueError(f"desk-scale witness supports d <= {MAX_SHATTER_D}")
    tent = TentMap(1)
    base = 3  # smallest odd period of the full tent
    primes = primes_above(base, d)
    points = tuple(_increasing_cycle_point(p) for p in primes)
    table: dict[str, int] = {}
    for mask in range(2**d):
        sigma = tuple((mask >> j) & 1 for j in range(d))
        mod_ones = math.prod(p for p, s in zip(primes, sigma) if s == 1)
        mod_zeros = math.prod(p for p, s in zip(primes, sigma) if s == 0)
        # label 1 needs k = 1 (mod p_j); label 0 any other residue, use 0
        k = _crt_pair(1 % mod_ones, mod_ones, 0, mod_zeros)
        if k == 0:
            k = mod_zeros * mod_ones
        table["".join(str(s) for s in sigma)] = k

    for sigma, k in table.items():
        for j, x in enumerate(points):
            y = x
            for _ in range(k):
                y = tent(y)
            got = 1 if y >= Fraction(1, 2) else 0
            if got != int(sigma[j]):
                raise AssertionError(
                    f"labeling {sigma} not realized at point {j} with k={k}")
    return ShatterWitness(d=d, m=base, primes=primes, points=points,
                          table=table)
