"""Inapproximability certificates and the two approximability counterexamples.

A certificate is a concrete interval [a,b] of guaranteed width together with
a measured crossing count of f^k over it; from it follow width thresholds
(how wide a shallow net must be), adversarial samples (alternating points
forcing classification error), and exact error reports against candidate
approximants.  The two counterexample constructions show the width floors
genuinely need symmetry and concavity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import oscillation, pl, relunet, spectra
from .cycles import CycleRecord
from .errors import CertificateError
from .maps import CustomPLMap, UnimodalMap, cycle_map

#: least width of a certificate interval, per cycle kind
WIDTH_FLOOR = {"increasing": Fraction(1, 18), "stefan": Fraction(7, 100)}


@dataclass(frozen=True)
class OscCertificate:
    """Witness interval with a verified crossing count for f^k."""

    mode: str  # "increasing" | "stefan"
    p: int
    k: int
    a: float | Fraction
    b: float | Fraction
    count: int
    rate: float  # the exponent base the count is measured against

    @property
    def width(self):
        return self.b - self.a

    @property
    def exponent(self) -> int:
        """e in the certificate's rule: k, or k - p for Stefan."""
        return self.k - self.p if self.mode == "stefan" else self.k

    def floors(self) -> dict:
        w = float(self.width)
        return {"linf": w / 2, "cls": 0.25, "l1": w * w / 16}

    def to_dict(self) -> dict:
        return {"mode": self.mode, "p": self.p, "k": self.k,
                "a": self.a, "b": self.b, "width": float(self.width),
                "count": self.count, "rate": self.rate,
                "floors": self.floors()}


def certificate(m: UnimodalMap, found: list[CycleRecord], p: int, k: int
                ) -> OscCertificate:
    """Certificate from the first increasing p-cycle among the cycles
    found, or failing that the first Stefan one, of a symmetric concave
    map; the cycle's kind picks the rule, its width floor and its width
    threshold.

    An increasing cycle offers its consecutive gaps and needs crossings
    >= rho_inc(p)^k / 2.  A Stefan cycle (odd p, points nested and
    alternating around the middle) offers its span [x_p, x_(p-1)] split at
    the middle pair [x_1, x_2] and needs crossings >= rho_odd(p)^(k-p).
    The cycle 123 is both and takes the increasing rule.  Candidates at
    least ``WIDTH_FLOOR`` wide are counted widest first by the lap walk of
    ``count_crossings_map``, which builds no f^k and so takes no cap.
    """
    usable = [c for c in found if c.period == p and c.increasing]
    usable += [c for c in found if c.period == p and c.stefan]
    if not usable:
        raise CertificateError(f"no increasing or Stefan {p}-cycle detected")
    if not m.symmetric:
        raise CertificateError(f"{m.kind} map is not symmetric")
    if not m.concave:
        raise CertificateError(f"{m.kind} map is not concave")
    c = usable[0]
    pts = sorted(c.orbit)
    if c.increasing:
        mode, rate, halves = "increasing", spectra.rho_inc(p), 2
        candidates = list(zip(pts, pts[1:]))
    else:
        if k <= p:
            raise CertificateError("need k > p")
        mode, rate, halves = "stefan", spectra.rho_odd(p), 1
        mid_lo, mid_hi = pts[(p - 1) // 2], pts[(p + 1) // 2]
        candidates = [(pts[0], mid_lo), (mid_lo, mid_hi), (mid_hi, pts[-1])]
    floor = WIDTH_FLOOR[mode]
    wide = [(a, b) for a, b in sorted(candidates, key=lambda g: g[1] - g[0],
                                      reverse=True)
            if b - a >= floor]
    if not wide:
        raise CertificateError(
            f"no qualifying gap: every {mode} candidate is narrower than "
            f"{floor} (a symmetry or concavity hypothesis is violated)")
    shortfall = []
    for a, b in wide:
        cert = OscCertificate(
            mode=mode, p=p, k=k, a=a, b=b, rate=rate,
            count=oscillation.count_crossings_map(m, k, a, b))
        # exact: a float rate^e overflows past e of about 1475 at rate phi,
        # and rate is the least double above rho, so this is >= rho^e
        if halves * cert.count >= Fraction(rate) ** cert.exponent:
            return cert
        shortfall.append(cert.count)
    raise CertificateError(
        f"count shortfall: need {halves} * count >= {rate}^{cert.exponent}, "
        f"measured {max(shortfall)}")


def width_threshold(cert: OscCertificate, depth: int) -> float:
    """L-inf width ceiling u_max = rate^(e/depth)/8 for nets of the given
    depth, with e the exponent of the certificate's rule: k, or k - p for
    Stefan.  Below it the counting bounds force Omega(1) error; a u_max
    under 1 is vacuous."""
    if not 1 <= depth <= cert.k:
        raise ValueError("need 1 <= depth <= k")
    return 0.125 * cert.rate ** (cert.exponent / depth)


def adversarial_sample(fk: pl.PiecewiseLinear, cert: OscCertificate
                       ) -> pl.SampleSet:
    """Alternating points where f^k attains the certificate's band edges.

    Sample size is min(measured crossings, floor(rate^k)/2): soundness only
    needs alternation points that actually exist.  f^k's label at a point is
    its touch level: b lies at or above the threshold (a+b)/2, a below it.
    """
    if cert.count < 2:
        raise CertificateError("certificate must witness at least 2 crossings")
    a, b = pl.rat(cert.a), pl.rat(cert.b)
    n = min(cert.count, int(cert.rate**cert.k) // 2)
    touches = pl.crossing_points(fk, a, b, limit=n)
    return pl.SampleSet(points=tuple(x for x, _ in touches),
                        threshold=(a + b) / 2,
                        labels=tuple(level == b for _, level in touches))


@dataclass(frozen=True)
class CandidateReport:
    """Exact error measurements of one candidate g against f^k."""

    linf: Fraction
    l1: Fraction
    cls_error: Fraction
    g_pieces: int
    sample_size: int
    cert_count: int

    @property
    def counting_applies(self) -> bool:
        return self.g_pieces < self.cert_count

    @property
    def counting_floor(self) -> Fraction:
        """Universal bound: cls error >= 1/2 - pieces/|S| on alternating S."""
        return Fraction(1, 2) - Fraction(self.g_pieces, self.sample_size)

    @property
    def violations(self) -> list[str]:
        out = []
        if self.cls_error < self.counting_floor:
            out.append("classification error below the counting floor")
        if self.counting_applies:
            if self.cls_error < Fraction(1, 4):
                out.append("cls floor 1/4 violated with few-piece candidate")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"linf": float(self.linf), "l1": float(self.l1),
                "cls_error": float(self.cls_error),
                "g_pieces": self.g_pieces, "sample_size": self.sample_size,
                "threshold_check": self.counting_applies,
                "violations": self.violations}


def certify_against_candidate(fk: pl.PiecewiseLinear, g: pl.PiecewiseLinear,
                              cert: OscCertificate, s: pl.SampleSet
                              ) -> CandidateReport:
    """Measure all three errors exactly and check the counting inequality."""
    diff = pl.diff(fk, g)
    return CandidateReport(
        linf=pl.max_abs(diff),
        l1=pl.abs_integral(diff),
        cls_error=pl.classification_error(g, s),
        g_pieces=pl.monotone_pieces(g),
        sample_size=len(s),
        cert_count=cert.count,
    )


# ---------------------------------------------------------------------------
# candidate generators for the certification sweep


def decimated_candidate(fk: pl.PiecewiseLinear, pieces: int
                        ) -> pl.PiecewiseLinear:
    """Interpolant of f^k through ~pieces+1 of its own knots (greedy skip)."""
    xs, dx, ys, dy = fk.raw
    if len(xs) <= pieces + 1:
        return fk
    idx = sorted({round(i * (len(xs) - 1) / pieces) for i in range(pieces + 1)})
    return pl.PiecewiseLinear(
        pl.Knots([xs[i] for i in idx], dx, [ys[i] for i in idx], dy))


def least_squares_candidate(fk: pl.PiecewiseLinear, pieces: int
                            ) -> pl.PiecewiseLinear:
    """Uniform-knot PL fit of f^k by discrete least squares on a grid of
    512 cells."""
    import numpy as np

    kxs, dx, kys, dy = fk.raw
    xs = np.linspace(0.0, 1.0, 513)
    # int / int rounds correctly, as float(Fraction) does
    ys = np.interp(xs, [x / dx for x in kxs], [y / dy for y in kys])
    knots = np.linspace(0.0, 1.0, pieces + 1)
    # hat-function design matrix: column j interpolates the j-th unit vector
    design = np.stack([np.interp(xs, knots, e) for e in np.eye(pieces + 1)],
                      axis=1)
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    coef = np.clip(coef, 0.0, 1.0)
    pts = [(Fraction(t).limit_denominator(10**6),
            Fraction(float(c)).limit_denominator(10**6))
           for t, c in zip(knots, coef)]
    pts[0] = (Fraction(0), pts[0][1])
    pts[-1] = (Fraction(1), pts[-1][1])
    return pl.new(pts)


def random_candidate(rng, pieces: int) -> pl.PiecewiseLinear:
    """Random PL on uniform knots with rational values."""
    pts = [(Fraction(i, pieces), Fraction(rng.randint(0, 64), 64))
           for i in range(pieces + 1)]
    return pl.new(pts)


# ---------------------------------------------------------------------------
# counterexample constructions


def build_need_symmetry(p: int, eps) -> CustomPLMap:
    """Concave but asymmetric map: the P-linear map of an increasing
    p-cycle crowded into [1-eps, 1]; its iterates stay trivially 3-piece
    approximable."""
    eps = pl.rat(eps)
    if p < 3:
        raise ValueError("p must be >= 3")
    if (1 - eps) / eps <= p - 1:
        raise ValueError("eps too large for concavity: need (1-eps)/eps > p-1")
    return cycle_map([1 - Fraction(p - j + 1, p) * eps
                      for j in range(1, p + 1)])


def build_need_concavity(p: int, eps) -> CustomPLMap:
    """Symmetric but non-concave map whose increasing p-cycle is crowded
    into an eps-band around 1/2."""
    eps = pl.rat(eps)
    if p < 3:
        raise ValueError("p must be >= 3")
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError("eps must lie in (0, 1/2)")
    h = Fraction(1, 2)
    shoulder = h - Fraction(p - 2, p - 1) * eps / 2
    knots = [
        (Fraction(0), Fraction(0)),
        (h - eps / 2, shoulder),
        (h - eps / (2 * (p - 1)), h),
        (h, h + eps / 2),
        (h + eps / (2 * (p - 1)), h),
        (h + eps / 2, shoulder),
        (Fraction(1), Fraction(0)),
    ]
    return CustomPLMap(pl.new(knots))


def three_piece_band_approx(fk: pl.PiecewiseLinear, band_lo, band_hi
                            ) -> pl.PiecewiseLinear:
    """Three-piece approximant: ramps to the band's midline between the
    first and last crossings of the band floor.

    For the counterexample constructions, f^k is linear outside the band's
    invariant region and trapped inside it, so the sup error is half the
    band height; the caller measures it exactly either way.
    """
    band_lo, band_hi = pl.rat(band_lo), pl.rat(band_hi)
    mid = (band_lo + band_hi) / 2
    xs, dx, ys, dy = fk.raw
    lo_n, lo_d = band_lo.numerator, band_lo.denominator
    above = [x for x, y in zip(xs, ys) if y * lo_d >= lo_n * dy]
    if not above:
        raise ValueError("f^k never reaches the band")
    a, b = Fraction(above[0], dx), Fraction(above[-1], dx)
    pts = [(Fraction(0), Fraction(0)), (a, mid), (b, mid),
           (Fraction(1), Fraction(0))]
    if a == 0:
        pts = pts[1:]
    if b == 1:
        pts = pts[:-1]
    return pl.new(pts)


def counterexample_report(m: CustomPLMap, eps, k_max: int = 10,
                          cap: int = pl.DEFAULT_KNOT_CAP) -> dict:
    """Audit a counterexample: structure flags, the largest error of the
    3-piece band approximant of f^k over k = 1..k_max, and the approximant's
    net width at k_max; f^k may hold `cap` knots."""
    eps = pl.rat(eps)
    oscillation.refuse_oversized(m, k_max, cap)
    f = m.to_pl()
    apex_val = m.max_value()
    band_lo = apex_val - eps
    worst = Fraction(0)
    fk = pl.identity()
    for _ in range(k_max):
        fk = pl.compose(f, fk, cap=cap)
        g = three_piece_band_approx(fk, band_lo, apex_val)
        worst = max(worst, pl.linf_diff(fk, g))
    return {
        "symmetric": m.symmetric,
        "concave": m.concave,
        "max_linf_error": worst,
        "net_width": relunet.synth_from_pl(g).width,
    }
