"""Regex weak-VC calculus, doubling bound, primes, CRT shattering."""

import itertools
import json
from fractions import Fraction as F

import pytest

from itermaps import cli, maps, vcbounds
from itermaps.vcbounds import Interleave, Prefix, RepInf, Star, Union

HORIZON = 20


def truncated_suffix_set(e, reps=2):
    """Finite under-approximation of a regex's sequence set, closed under
    suffixes, truncated to HORIZON bits (Star unrolled `reps` times)."""
    if isinstance(e, RepInf):
        full = (e.w * (HORIZON // len(e.w) + 2))
        return {tuple(int(c) for c in (full[i:] * 2)[:HORIZON])
                for i in range(len(e.w))}
    if isinstance(e, Prefix):
        inner = truncated_suffix_set(e.inner, reps)
        out = set(inner)
        for y in inner:
            seq = tuple(int(c) for c in e.w) + y
            for i in range(len(e.w)):
                out.add(seq[i:i + HORIZON])
        return out
    if isinstance(e, Star):
        out = set()
        for j in range(reps + 1):
            unrolled = e.inner
            for _ in range(j):
                unrolled = Prefix(e.w, unrolled)
            out |= truncated_suffix_set(unrolled, reps)
        return out
    if isinstance(e, Union):
        return truncated_suffix_set(e.left, reps) | \
            truncated_suffix_set(e.right, reps)
    raise TypeError(e)


def brute_weak_shatter_dim(seqs, d_max=3):
    """Largest d <= d_max with d sequences realizing all 2^d column patterns."""
    seqs = [s[:HORIZON] for s in seqs]
    best = 0
    for d in range(1, d_max + 1):
        for combo in itertools.combinations(seqs, d):
            cols = {tuple(s[j] for s in combo) for j in range(HORIZON)}
            if len(cols) == 2**d:
                best = d
                break
    return best


class TestCalculus:
    def test_paper_worked_example(self):
        e = vcbounds.parse_regex("1*0(01)^inf|10^inf")
        assert vcbounds.vcw_bound(e) == 4

    def test_rep_inf_log_rule(self):
        assert vcbounds.vcw_bound(RepInf("011")) == 2
        assert vcbounds.vcw_bound(RepInf("0")) == 0
        assert vcbounds.vcw_bound(RepInf("01")) == 1

    def test_prefix_and_star_add(self):
        base = RepInf("01")
        assert vcbounds.vcw_bound_real(Prefix("11", base)) == pytest.approx(3)
        assert vcbounds.vcw_bound_real(Star("1", base)) == pytest.approx(2)

    def test_union_adds(self):
        e = Union(RepInf("0011"), RepInf("01"))
        assert vcbounds.vcw_bound(e) == 3

    def test_interleave_proof_safe_constant(self):
        e = Interleave(RepInf("01"), RepInf("0"))
        assert vcbounds.vcw_bound_real(e) == pytest.approx(4 * 1 + 3)

    def test_parser_structures(self):
        assert vcbounds.parse_regex("0^inf") == RepInf("0")
        assert vcbounds.parse_regex("(01)^inf") == RepInf("01")
        assert vcbounds.parse_regex("1*0^inf") == Star("1", RepInf("0"))
        assert vcbounds.parse_regex("10^inf") == Prefix("1", RepInf("0"))
        assert vcbounds.parse_regex("0^inf|1^inf") == Union(RepInf("0"),
                                                            RepInf("1"))

    def test_bad_words_rejected(self):
        with pytest.raises(ValueError):
            RepInf("")
        with pytest.raises(ValueError):
            RepInf("012")

    def test_brute_force_never_exceeds_bound(self):
        cases = [
            RepInf("0"),
            RepInf("01"),
            RepInf("0011"),
            RepInf("00010111"),  # de Bruijn-ish, rich rotations
            Prefix("1", RepInf("0")),
            Prefix("10", RepInf("01")),
            Star("1", Prefix("0", RepInf("01"))),
            Union(RepInf("01"), RepInf("0")),
            Union(Star("1", RepInf("0")), Prefix("0", RepInf("10"))),
            vcbounds.parse_regex("1*0(01)^inf|10^inf"),
        ]
        for e in cases:
            seqs = truncated_suffix_set(e)
            assert brute_weak_shatter_dim(seqs) <= vcbounds.vcw_bound(e)


class TestDoublingBound:
    @pytest.mark.parametrize("p,expect", [(1, 18), (2, 72), (4, 288),
                                          (8, 1152)])
    def test_values(self, p, expect):
        assert vcbounds.doubling_vc_bound(p) == expect

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            vcbounds.doubling_vc_bound(6)


class TestPrimes:
    def test_examples(self):
        assert vcbounds.primes_above(3, 2) == (5, 7)
        assert vcbounds.primes_above(3, 4) == (5, 7, 11, 13)
        assert vcbounds.primes_above(10, 1) == (11,)

    def test_primality(self):
        ps = vcbounds.primes_above(100, 5)
        assert ps == (101, 103, 107, 109, 113)


class TestShatter:
    def test_point_property(self):
        m = maps.TentMap(1)
        for p in (5, 7, 11):
            x = vcbounds._increasing_cycle_point(p)
            assert x < F(1, 2) <= m(x)
            # really on a p-cycle
            y = x
            for _ in range(p):
                y = m(y)
            assert y == x

    def test_d1_labels(self):
        w = vcbounds.shatter(1)
        assert set(w.table) == {"0", "1"}
        assert w.table["1"] == 1
        assert w.table["0"] == 5

    def test_d2_all_labelings(self):
        w = vcbounds.shatter(2)
        assert w.primes == (5, 7)
        assert set(w.table) == {"00", "01", "10", "11"}
        assert max(w.table.values()) <= 5 * 7 + 1

    def test_d3_all_labelings(self):
        w = vcbounds.shatter(3)
        assert w.primes == (5, 7, 11)
        assert len(w.table) == 8

    def test_crt_residues(self):
        w = vcbounds.shatter(3)
        for sigma, k in w.table.items():
            for p, s in zip(w.primes, sigma):
                if s == "1":
                    assert k % p == 1
                else:
                    assert k % p != 1

    @pytest.mark.parametrize("d", [0, 4])
    def test_rejects_d_outside_1_to_3(self, d):
        with pytest.raises(ValueError, match="d <= 3"):
            vcbounds.shatter(d)

    def test_witness_json(self):
        w = vcbounds.shatter(2)
        payload = json.loads(cli.dump(w.to_dict()))
        assert payload["primes"] == [5, 7]
        assert payload["points"] == ["16/33", "64/129"]
