"""Oscillation certificates, width thresholds, adversarial samples,
counterexample constructions."""

import math
import random
from fractions import Fraction as F

import pytest

from itermaps import cycles, hardness, maps, pl, relunet, spectra
from itermaps.errors import CertificateError

from conftest import crossings, orbit, pointwise_l1, tent_near

PHI = (1 + math.sqrt(5)) / 2


def increasing_cycle(m, p):
    found = cycles.find_cycles(m, p)
    for c in found:
        if c.period == p and c.increasing:
            return c
    raise AssertionError(f"no increasing {p}-cycle detected")


def stefan_cycle(m, p):
    found = cycles.find_cycles(m, p)
    for c in found:
        if c.period == p and c.stefan:
            return c
    raise AssertionError(f"no Stefan {p}-cycle detected")


def meets_floors(cert):
    """The certificate's postcondition: the count reaches
    ``required_count()`` and the width its floor."""
    assert cert.count >= cert.required_count()
    assert cert.width >= hardness.WIDTH_FLOOR[cert.mode]
    return cert


def certificate(m, c, k):
    """``hardness.certificate`` with its postcondition checked."""
    return meets_floors(hardness.certificate(m, c, k))


class TestIncreasingCertificate:
    def test_golden_tent_k8(self):
        m = tent_near(spectra.rho_inc(3) / 2)
        cert = certificate(m, increasing_cycle(m, 3), 8)
        assert cert.count >= PHI**8 / 2  # >= 24
        assert float(cert.width) >= 1 / 18
        # soundness: re-measure from scratch
        fk = pl.iterate(m.to_pl(), 8)
        assert crossings(fk, pl.rat(cert.a), pl.rat(cert.b)) == cert.count

    def test_full_tent_k60(self):
        # 2^60 crossings, far beyond any knot cap: the lap walk of the full
        # tent stores one lap image per level
        m = maps.TentMap(1)
        cert = certificate(m, increasing_cycle(m, 3), 60)
        assert cert.count == 2**60

    def test_logistic_superstable_123(self):
        m = maps.LogisticMap(0.9580)
        cert = certificate(m, increasing_cycle(m, 3), 8)
        assert float(cert.width) >= 1 / 18
        assert cert.count >= spectra.rho_inc(3) ** 8 / 2

    def test_non_increasing_cycle_rejected(self):
        m = maps.TentMap(F(4, 5))
        two = [c for c in cycles.find_cycles(m, 2) if c.period == 2][0]
        # period-2 cycles are increasing ("12"), so fake a 1324 record
        rec = cycles.CycleRecord(period=4,
                                 orbit=(F(1, 5), F(3, 5), F(2, 5), F(4, 5)),
                                 itinerary=(1, 3, 2, 4), residual=0.0)
        with pytest.raises(CertificateError):
            hardness.certificate(m, rec, 5)
        del two

    def test_asymmetric_map_rejected(self):
        m = hardness.build_need_symmetry(3, F(1, 10))
        c = increasing_cycle(m, 3)
        with pytest.raises(CertificateError, match="symmetric"):
            hardness.certificate(m, c, 4)

    def test_p4_and_p5_tents(self):
        for p in (4, 5):
            m = tent_near(spectra.rho_inc(p) / 2)
            cert = certificate(m, increasing_cycle(m, p), 10)
            assert cert.count >= spectra.rho_inc(p) ** 10 / 2
            assert float(cert.width) >= 1 / 18

    def test_width_floor_is_exact(self):
        # both gaps are 1/18 - 10^-30: in floats they round to 1/18, but
        # no gap reaches the floor
        m = maps.TentMap(1)
        d = F(1, 18) - F(1, 10**30)
        rec = cycles.CycleRecord(period=3,
                                 orbit=(F(1, 5), F(1, 5) + d, F(1, 5) + 2 * d),
                                 itinerary=(1, 2, 3), residual=0.0)
        assert float(d) == float(F(1, 18))
        with pytest.raises(CertificateError, match="no qualifying gap"):
            hardness.certificate(m, rec, 10)


class TestStefanCertificate:
    def test_logistic_13425(self):
        m = maps.LogisticMap(0.9347)
        cert = certificate(m, stefan_cycle(m, 5), 12)
        assert cert.count >= spectra.rho_odd(5) ** (12 - 5)  # about 18.2
        assert float(cert.width) >= 0.07

    def test_logistic_123_stefan(self):
        # 123 is Stefan and increasing: the increasing rule, which needs
        # more crossings (PHI^10 / 2 > PHI^(10 - 3)), decides
        m = maps.LogisticMap(0.9580)
        c = stefan_cycle(m, 3)
        assert c.increasing
        cert = certificate(m, c, 10)
        assert cert.mode == "increasing"
        assert cert.count >= PHI**10 / 2 > PHI ** (10 - 3)
        assert float(cert.width) >= 0.07

    def test_even_period_rejected(self):
        m = maps.TentMap(F(19, 20))
        rec = cycles.CycleRecord(period=4,
                                 orbit=(F(1, 5), F(3, 5), F(2, 5), F(4, 5)),
                                 itinerary=(1, 3, 2, 4), residual=0.0)
        with pytest.raises(CertificateError,
                           match="neither increasing nor Stefan"):
            hardness.certificate(m, rec, 10)

    def test_k_must_exceed_p(self):
        m = maps.LogisticMap(0.9347)
        c = stefan_cycle(m, 5)
        assert not c.increasing
        with pytest.raises(CertificateError, match="need k > p"):
            hardness.certificate(m, c, 5)

    def test_tent_stefan_only_cycle(self):
        m = maps.TentMap(F(9, 10))
        c = stefan_cycle(m, 5)
        assert not any(r.increasing for r in cycles.find_cycles(m, 5)
                       if r.period == 5)
        cert = certificate(m, c, 12)
        assert (cert.mode, cert.count, cert.width) == ("stefan", 1546,
                                                       F(8082, 31087))
        assert hardness.WIDTH_FLOOR[cert.mode] == F(7, 100)
        # soundness: re-measure from scratch
        fk = pl.iterate(m.to_pl(), 12)
        assert crossings(fk, cert.a, cert.b) == cert.count

    def test_tent_stefan_k60(self):
        m = maps.TentMap(F(9, 10))
        cert = certificate(m, stefan_cycle(m, 5), 60)
        assert (cert.mode, cert.count) == ("stefan", 2764928047141460)


class TestWidthThreshold:
    def test_linf_p4(self):
        m = tent_near(spectra.rho_inc(4) / 2)
        cert = certificate(m, increasing_cycle(m, 4), 20)
        u_max = hardness.width_threshold(cert, 2)
        assert u_max == pytest.approx(spectra.rho_inc(4) ** 10 / 8, rel=1e-9)
        assert 55 < u_max < 56

    def test_vacuous_flag(self):
        m = maps.TentMap(1)
        u_max = hardness.width_threshold(
            certificate(m, increasing_cycle(m, 3), 10), 10)
        assert u_max == pytest.approx(PHI / 8, abs=1e-6)
        assert u_max < 1  # vacuous: no width is ruled out

    def test_odd_exponent_offset(self):
        m = maps.TentMap(F(9, 10))
        cert = certificate(m, stefan_cycle(m, 5), 12)
        u_max = hardness.width_threshold(cert, 1)
        assert u_max == pytest.approx(spectra.rho_odd(5) ** 7 / 8, rel=1e-9)

    @pytest.mark.parametrize("depth", [0, 11])
    def test_depth_outside_1_to_k_rejected(self, depth):
        m = maps.TentMap(1)
        cert = certificate(m, increasing_cycle(m, 3), 10)
        with pytest.raises(ValueError, match="1 <= depth <= k"):
            hardness.width_threshold(cert, depth)


def full_band_certificate(k):
    """Hand certificate on [0,1] for the full tent: 2^k crossings, rate 2."""
    m = maps.TentMap(1)
    fk = pl.iterate(m.to_pl(), k)
    count = crossings(fk, 0, 1)
    return fk, meets_floors(hardness.OscCertificate(
        mode="increasing", p=3, k=k, a=F(0), b=F(1), count=count, rate=2.0))


class TestAdversarialSample:
    @pytest.mark.parametrize("r", [F(1), F(9, 10)])
    def test_labels_are_fk_at_threshold(self, r):
        m = maps.TentMap(r)
        cert = certificate(m, increasing_cycle(m, 3), 10)
        fk = pl.iterate(m.to_pl(), 10)
        s = hardness.adversarial_sample(fk, cert)
        assert s.labels == tuple(fk(x) >= s.threshold for x in s.points)
        assert len(set(s.labels)) == 2

    def test_tent_k6(self):
        fk, cert = full_band_certificate(6)
        s = hardness.adversarial_sample(fk, cert)
        assert len(s) == 32  # min(64, 2^6 / 2)
        assert s.threshold == F(1, 2)
        # alternating extremes: f^k hits 0 and 1 alternately on S
        vals = [fk(x) for x in s.points]
        assert all(v in (F(0), F(1)) for v in vals)
        assert all(a != b for a, b in zip(vals, vals[1:]))

    def test_constant_candidate_errors(self):
        fk, cert = full_band_certificate(6)
        s = hardness.adversarial_sample(fk, cert)
        report = hardness.certify_against_candidate(
            fk, pl.constant(0), cert, s)
        assert report.cls_error == F(1, 2)
        assert report.ok

    def test_self_candidate_all_zero(self):
        fk, cert = full_band_certificate(5)
        s = hardness.adversarial_sample(fk, cert)
        report = hardness.certify_against_candidate(fk, fk, cert, s)
        assert report.linf == 0 and report.l1 == 0 and report.cls_error == 0
        assert not report.counting_applies  # g has as many pieces as f^k


class TestCandidateSweep:
    def test_counting_floor_holds_for_all_families(self, rng):
        fk, cert = full_band_certificate(8)
        s = hardness.adversarial_sample(fk, cert)
        candidates = []
        for m_pieces in (4, 8, 16):
            candidates.append(hardness.decimated_candidate(fk, m_pieces))
            candidates.append(hardness.least_squares_candidate(fk, m_pieces))
            candidates.append(relunet.eps_approx(fk, F(1, m_pieces)))
        candidates.extend(hardness.random_candidate(rng, 8)
                          for _ in range(25))
        for g in candidates:
            report = hardness.certify_against_candidate(fk, g, cert, s)
            assert report.ok, report.violations
            if report.counting_applies:
                assert report.cls_error >= F(1, 4)
                assert report.linf >= F(1, 4)

    def test_norms_match_pointwise_references_tent_k8(self):
        # the 13 candidates certify builds at its defaults, for tent:9/10
        m = maps.TentMap(F(9, 10))
        cert = certificate(m, increasing_cycle(m, 3), 8)
        fk = pl.iterate(m.to_pl(), 8)
        s = hardness.adversarial_sample(fk, cert)
        rng = random.Random(7)
        candidates = [hardness.decimated_candidate(fk, 8),
                      hardness.least_squares_candidate(fk, 8),
                      relunet.eps_approx(fk, F(1, 8))]
        candidates += [hardness.random_candidate(rng, 8) for _ in range(10)]
        for g in candidates:
            report = hardness.certify_against_candidate(fk, g, cert, s)
            xs = {x for x, _ in fk.knots} | {x for x, _ in g.knots}
            assert report.linf == max(abs(fk(x) - g(x)) for x in xs)
            assert report.l1 == pointwise_l1(fk, g)
            wrong = sum((g(x) >= s.threshold) != label
                        for x, label in zip(s.points, s.labels))
            assert report.cls_error == F(wrong, len(s))

    def test_generators_respect_budget(self, rng):
        fk, _ = full_band_certificate(7)
        for m_pieces in (4, 8, 32):
            assert pl.monotone_pieces(
                hardness.decimated_candidate(fk, m_pieces)) <= m_pieces
            assert pl.monotone_pieces(
                hardness.least_squares_candidate(fk, m_pieces)) <= m_pieces
            assert pl.monotone_pieces(
                hardness.random_candidate(rng, m_pieces)) <= m_pieces


def ref_least_squares_candidate(fk, pieces):
    """``least_squares_candidate`` with its hat-function design matrix built
    column by column from each hat's rising and falling flanks: the
    reference for the interpolation of unit vectors it builds instead."""
    import numpy as np

    xs = np.linspace(0.0, 1.0, 513)
    ys = np.interp(xs, [float(x) for x, _ in fk.knots],
                   [float(y) for _, y in fk.knots])
    knots = np.linspace(0.0, 1.0, pieces + 1)
    design = np.zeros((len(xs), len(knots)))
    for j, t in enumerate(knots):
        left = knots[j - 1] if j > 0 else t
        right = knots[j + 1] if j + 1 < len(knots) else t
        rise = np.where((xs >= left) & (xs <= t),
                        (xs - left) / (t - left) if t > left else 1.0, 0.0)
        fall = np.where((xs > t) & (xs <= right),
                        (right - xs) / (right - t) if right > t else 0.0, 0.0)
        design[:, j] = rise + fall
    coef = np.clip(np.linalg.lstsq(design, ys, rcond=None)[0], 0.0, 1.0)
    pts = [(F(t).limit_denominator(10**6),
            F(float(c)).limit_denominator(10**6))
           for t, c in zip(knots, coef)]
    pts[0] = (F(0), pts[0][1])
    pts[-1] = (F(1), pts[-1][1])
    return pl.new(pts)


@pytest.mark.parametrize("pieces", [4, 8, 16, 32])
@pytest.mark.parametrize("r, k", [(F(9, 10), 8), (F(1), 7), (F(4, 5), 5)])
def test_least_squares_equals_flank_reference(r, k, pieces):
    # dyadic knots on the 512-cell grid make every design entry exact both
    # ways, so the fits agree bit for bit
    fk = pl.iterate(maps.TentMap(r).to_pl(), k)
    assert (hardness.least_squares_candidate(fk, pieces).raw
            == ref_least_squares_candidate(fk, pieces).raw)


class TestCounterexamples:
    def test_need_symmetry_structure(self):
        m = hardness.build_need_symmetry(3, F(1, 10))
        assert m.concave and not m.symmetric
        c = increasing_cycle(m, 3)
        assert sorted(c.orbit) == [F(9, 10), F(14, 15), F(29, 30)]

    def test_need_symmetry_eps_too_large(self):
        with pytest.raises(ValueError):
            hardness.build_need_symmetry(3, F(1, 2))

    def test_need_symmetry_p5(self):
        m = hardness.build_need_symmetry(5, F(1, 20))
        c = increasing_cycle(m, 5)
        assert c.itinerary == (1, 2, 3, 4, 5)

    def test_need_concavity_structure(self):
        m = hardness.build_need_concavity(3, F(1, 10))
        assert m.symmetric and not m.concave
        c = increasing_cycle(m, 3)
        gaps = [b - a for a, b in zip(sorted(c.orbit), sorted(c.orbit)[1:])]
        assert all(g < F(1, 10) for g in gaps)
        assert max(gaps) < F(1, 18)  # the oscillation interval stays narrow

    def test_both_admit_three_piece_approx(self):
        for build in (hardness.build_need_symmetry,
                      hardness.build_need_concavity):
            m = build(3, F(1, 10))
            report = hardness.counterexample_report(m, F(1, 10), k_max=10)
            assert report["max_linf_error"] <= F(1, 10)
            assert report["net_width"] == 3

    def test_tiny_eps_contrast_with_concave_logistic(self):
        # both counterexamples: 3-piece approx within 1/100 of f^10 ...
        for build in (hardness.build_need_symmetry,
                      hardness.build_need_concavity):
            m = build(3, F(1, 100))
            report = hardness.counterexample_report(m, F(1, 100), k_max=10)
            assert report["max_linf_error"] <= F(1, 100)
        # ... while the symmetric concave map's certificate forbids any
        # 8-piece candidate within 1/36 of f^10
        m = maps.LogisticMap(0.9580)
        cert = certificate(m, increasing_cycle(m, 3), 10)
        assert float(cert.width) >= 1 / 18
        assert cert.count >= PHI**10 / 2 > 8


class TestTentCorollary:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_half_orbit_is_increasing_cycle(self, p):
        m = tent_near(spectra.rho_inc(p) / 2)
        pts = orbit(m, F(1, 2), p)
        assert abs(float(pts[-1]) - 0.5) <= 1e-9
        assert cycles.itinerary_of_points(pts[:p]) == tuple(range(1, p + 1))
