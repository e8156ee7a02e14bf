"""Bifurcation sweeps: long-run orbit clouds over a parameter range.

The initial point 0.5001 (not 0.5) avoids landing exactly on super-stable
orbits; the metadata records it.  Every member steps at its grid value r,
whatever the family: one numpy vector holds the orbit point of every member
of a sweep, and each step advances all of them at once through the family's
``float_step``, so every value is bit-equal to iterating that step at that
r alone (the sine step calls np.sin where a scalar call uses math.sin;
the pinned sweep outputs in the tests check that they agree).  The one
exception is a tent whose slope 2r is an integer (r = 1/2 and r = 1): there
the float step is exact in binary and each doubling shifts one bit out of
the mantissa, so the float orbit of 0.5001 reaches 0 within about 55 steps.
Those members are iterated exactly from the rational 5001/10000: an integer
slope keeps the denominator 10000, so the orbit runs on integer numerators
and each kept value is converted to float.

A sweep steps all its members when it is made and keeps one members x keep
block of floats (1.6 MB at the defaults), a row per member: each kept step
of the vector is written straight into a column, and the exact tent members'
rows are then overwritten with their exact tails; nothing else grows with
the grid.  Iterating it gives one (r, tail) at a time, a row made a Python
list only when it is reached, so a consumer that drops each tail holds the
block and one tail.  A sweep can be iterated more than once; each pass makes
its lists afresh.  The ``bifurcation`` command writes the CSV from the block
itself (``_Sweep.csv``).  Each row first gets its bitwise period
(``_periods``): in the doubling regime a tail repeats bit for bit with
period 1, 2, 4, ..., and a chaotic tail gets keep.  Then 32 rows at a time,
one period of each row goes through ``_fmt12``, which prints in numpy what
``b"%.12g" % x`` prints, and an r-slice is the text of that period repeated
to keep values, so one slice's text is all of the CSV held at once.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
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


#: 10**(11 - E) for the exponent E = -1 - e of x in [1e-4, 1), e = 0..3:
#: x times it holds x's 12 significant digits before the point
_SCALE = np.array([1e12, 1e13, 1e14, 1e15])
#: 10**(5 + E): the 12 digits widened to the 16 that follow "0."
_WIDEN = np.array([10**4, 10**3, 10**2, 10], dtype=np.int64)
#: "0." and four groups of 4 ASCII digits: S18 when viewed whole
_DIGITS = np.dtype([("head", "S2"), ("groups", "<u4", (4,))])
#: r-slices per ``_fmt12`` call in ``_csv`` and per compare in ``_periods``
_CHUNK = 32


@functools.cache
def _digit_table() -> np.ndarray:
    """The 4 ASCII digits of i < 10000 as one little-endian uint32, and at
    10000 + i the same digits with the trailing zeros as NUL bytes."""
    i = np.arange(10000, dtype=np.uint32)
    full, cut = np.zeros_like(i), np.zeros_like(i)
    for j, unit in enumerate((1000, 100, 10, 1)):
        char = (48 + i // unit % 10) << 8 * j
        full |= char
        # this digit stays unless it and every later one is 0
        cut |= char * (i % (10 * unit) != 0)
    return np.concatenate([full, cut]).astype("<u4")


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """"0." and 16 digits of each float in [1e-4, 1) of the 1-D array x,
    as S18 rows NUL-padded where %.12g drops trailing zeros, and the mask
    of the rows that hold its text.

    The exponent E of such an x, -4 to -1, comes from three comparisons,
    and y = x * 10**(11 - E) is one rounding of the exact product: the
    power is an exact double.  As y < 1e12 < 2**40, that rounding is off
    by at most ulp(y)/2 <= 2**-14.  So when 1e11 < floor(y) < 1e12 - 1 and
    y's fraction is more than 2**-14 from 1/2, the exact product lies in
    (1e11, 1e12) and rounds to the nearest integer the way y does:
    n = rint(y) is the exact decimal value of x rounded to 12 significant
    digits, the digits dtoa prints for %.12g, with no carry into a 13th.
    m = n * 10**(5 + E) is those digits as the 16 after "0.", split into
    four groups of 4 and looked up in ``_digit_table``, whose second half,
    used where every later group is 0, drops the trailing zeros.  The
    range test on x only keeps the products finite: off [1e-4, 1), floor(y)
    is off its bounds.  The mask is False on 0, -0.0, 1, every value off
    [1e-4, 1) and the near-ties, about 1 value in 2000 of a bifurcation
    sweep.
    """
    fast = (x >= 1e-4) & (x < 1)
    e = (x < 0.1).astype(np.intp) + (x < 0.01) + (x < 0.001)
    y = np.where(fast, x, 0.5) * _SCALE[e]
    f = np.floor(y)
    fast &= (f > 1e11) & (f < 1e12 - 1) & (np.abs(y - f - 0.5) > 2.0**-14)
    m = np.where(fast, np.rint(y), 1e11).astype(np.int64) * _WIDEN[e]
    q, g4 = np.divmod(m, 10000)
    q, g3 = np.divmod(q, 10000)
    g1, g2 = np.divmod(q, 10000)
    z4 = g4 == 0
    z3 = z4 & (g3 == 0)
    z2 = z3 & (g2 == 0)
    table = _digit_table()
    rows = np.empty(x.size, _DIGITS)
    rows["head"] = b"0."
    groups = rows["groups"]
    groups[:, 0] = table[g1 + 10000 * z2]
    groups[:, 1] = table[g2 + 10000 * z3]
    groups[:, 2] = table[g3 + 10000 * z4]
    groups[:, 3] = table[g4 + 10000]
    return rows.view("S18"), fast


def _fmt12(x: np.ndarray) -> list[bytes]:
    """``b"%.12g" % v`` for each float v of the 1-D array x: the rows of
    ``_digits``, whose tolist strips the NUL padding in C, and the %
    format where they do not hold the text.  ``_digits``' integer arrays
    are freed before the list is made, which keeps the peak of the CSV
    writer down."""
    rows, fast = _digits(x)
    out = rows.tolist()
    for i in np.flatnonzero(~fast).tolist():
        out[i] = b"%.12g" % float(x[i])
    return out


def _periods(block: np.ndarray) -> np.ndarray:
    """The bitwise period of each row of the 2-D float array block: the
    first column p >= 1 whose bits equal column 0's, if the row's bits
    repeat with period p, and otherwise the row's length (1 if it is 0).

    A sweep's row is a float orbit, so a value that recurs repeats the
    whole tail from there and p is its least period; on any other row a
    first recurrence that is no period only costs the repetition.  Bits,
    not floats, are compared, so 0.0 and -0.0 differ and NaN equals
    itself.  ``_CHUNK`` rows are compared at a time.
    """
    bits = block.view(np.int64)
    n, keep = bits.shape
    out = np.full(n, max(keep, 1))
    if keep < 2:
        return out
    for lo in range(0, n, _CHUNK):
        rows = bits[lo:lo + _CHUNK]
        hit = rows[:, 1:] == rows[:, :1]
        p = np.where(hit.any(1), hit.argmax(1) + 1, keep)
        for q in set(p.tolist()) - {keep}:
            at = np.flatnonzero(p == q)
            p[at[(rows[at, q:] != rows[at, :-q]).any(1)]] = keep
        out[lo:lo + _CHUNK] = p
    return out


def _csv(rs: list[float], block: np.ndarray) -> Iterator[str]:
    """The CSV rows "r,x" of the tails block[i] at rs[i], byte for byte
    f"{r:.12g},{x:.12g}" per point: the header "r,x", one string per
    r-slice, each row led by its newline, and the last newline.

    ``_periods`` gives every row its period p first.  Then ``_CHUNK`` rows
    at a time, the first p values of each row go through ``_fmt12``, and
    a slice is the text of one period, b"\\n" + r + b"," before each
    value, repeated to fill keep values.
    """
    yield "r,x"
    keep = block.shape[1]
    # The periods' arrays, whose sizes follow the data, are made and freed
    # before any slice's text, and a slice is one str repeated from one
    # period's str: so the loop leaves no freed blocks of new sizes among
    # the text a caller keeps, blocks that would stop the heap shrinking
    # once that text is gone (with them, perfbench's entropy-float workload
    # peaked 2.4 MB higher on a 2-core x86-64 host with Python 3.11).
    periods = _periods(block)
    cols = np.arange(keep)
    for lo in range(0, len(rs), _CHUNK):
        ps = periods[lo:lo + _CHUNK]
        nums = _fmt12(block[lo:lo + _CHUNK][cols < ps[:, None]])
        off = 0
        for r, p in zip(rs[lo:lo + _CHUNK], ps.tolist()):
            unit = nums[off:off + p]
            off += p
            sep = b"\n" + f"{r:.12g}".encode() + b","
            yield (sep.join([b""] + unit).decode() * (keep // p)
                   + sep.join([b""] + unit[:keep % p]).decode())
        del nums  # before the next chunk's are made
    yield "\n"


class _Sweep:
    """The (r, orbit tail) pairs of the family members at rs, in the order
    of rs.

    No member is built: every member steps at its grid value r through the
    family's ``float_step``, except a tent whose slope 2r is an integer,
    which takes ``_exact_tail``.  Every member advances in one vector here,
    its j-th kept step written to column j of its row of the len(rs) x keep
    block, and then the rows of the exact tent members are overwritten with
    their exact tails.
    """

    def __init__(self, kind: str, rs: list[float], burn: int, keep: int):
        self.rs = rs
        self.block = np.empty((len(rs), keep))
        r = np.array(rs)
        step = FAMILIES[kind].float_step
        x = np.full(r.shape, X0)
        for _ in range(burn):
            x = step(r, x)
        for j in range(keep):
            x = step(r, x)
            self.block[:, j] = x
        for i, ri in enumerate(rs):
            if kind == "tent" and (2 * ri).is_integer():
                self.block[i] = _exact_tail(int(2 * ri), burn, keep)

    def __iter__(self):
        for r, row in zip(self.rs, self.block):
            yield r, row.tolist()

    def csv(self) -> Iterator[str]:
        """The CSV of the sweep as ``_csv`` writes it."""
        return _csv(self.rs, self.block)


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
