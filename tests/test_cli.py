"""CLI: exit codes, determinism, emitted file formats."""

import hashlib
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itermaps
from itermaps.cli import build_parser, dump, fmt, main, parse_map
from itermaps import (bifurcation, cycles, hardness, maps, pl, relunet,
                      spectra)

import cli_outputs
from conftest import fraction_default, kneading_laps


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def ref_dump(obj) -> str:
    """dump as json.dumps writes it."""
    return json.dumps(obj, sort_keys=True, indent=1, check_circular=False,
                      allow_nan=False, default=fraction_default) + "\n"


class _Float(float):
    pass


#: floats json writes in its own way, and ints far past 64 bits
EDGE_NUMBERS = [-0.0, 5e-324, 1e16, 1.7976931348623157e308, 10**1000,
                -(10**999)]
EDGE_STRINGS = ['"', "\\", '\\"\\', "\x00\x1f\x7f\n\t\r\b\f",
                "caf\u00e9", "\u2028\u20ac", "\U0001f600", "\ud800"]

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False), st.fractions(),
    st.text(), st.sampled_from(EDGE_NUMBERS), st.sampled_from(EDGE_STRINGS))
#: one key family per dict: json sorts the keys before converting them, so
#: a str key beside an int is a TypeError (test_mixed_keys_rejected)
JSON_KEY_FAMILIES = (st.text() | st.sampled_from(EDGE_STRINGS),
                     st.integers())


def json_trees(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        *[st.dictionaries(keys, children, max_size=5)
          for keys in JSON_KEY_FAMILIES])


class TestJsonEncoding:
    def test_fraction_written_n_over_d(self):
        assert dump(F(1)) == '"1/1"\n'
        assert dump(F(-3, 6)) == '"-1/2"\n'

    def test_other_types_rejected(self):
        with pytest.raises(TypeError, match="object is not JSON"):
            dump(object())

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(JSON_SCALARS, json_trees, max_leaves=30))
    def test_equals_json_dumps(self, obj):
        assert dump(obj) == ref_dump(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[]], {"a": {}}, [(), [[], {}]],
        {"n": [True, False, None]},
        {10: "a", 9: "b", -1: "c"},
    ])  # subclasses are refused: test_foreign_types_rejected
    def test_empty_nested_and_subclasses(self, obj):
        assert dump(obj) == ref_dump(obj)

    @pytest.mark.parametrize("obj", [
        set(), object(), [1, {2}], {"a": object()}, {b"k": 1},
        {(1, 2): 0}, {F(1, 2): 0}])
    def test_unwritable_rejected(self, obj):
        with pytest.raises(TypeError):
            ref_dump(obj)
        with pytest.raises(TypeError):
            dump(obj)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, x):
        for obj in (x, [1.5, x], {"a": x}):
            with pytest.raises(ValueError):
                ref_dump(obj)
            with pytest.raises(ValueError):
                dump(obj)

    @pytest.mark.parametrize("obj", [
        _Float(0.5), [_Float(0.5)], {True: 0}, {None: 0}])
    def test_foreign_types_rejected(self, obj):
        # json.dumps writes these; no command emits one, so dump refuses them
        with pytest.raises(TypeError):
            dump(obj)

    @pytest.mark.parametrize("keys", [("a", 1), (None, 0), ("a", None),
                                      (1.5, "b")])
    def test_mixed_keys_rejected(self, keys):
        obj = {k: 0 for k in keys}
        with pytest.raises(TypeError):
            ref_dump(obj)
        with pytest.raises(TypeError):
            dump(obj)

    def test_cli_is_the_only_json_writer(self):
        for info in pkgutil.iter_modules(itermaps.__path__):
            mod = importlib.import_module(f"itermaps.{info.name}")
            assert info.name == "cli" or not hasattr(mod, "json"), info.name


class TestParseMap:
    def test_tent_fraction(self):
        m = parse_map("tent:4/5")
        assert isinstance(m, maps.TentMap) and float(m.r) == 0.8

    def test_logistic_decimal(self):
        m = parse_map("logistic:0.958")
        assert isinstance(m, maps.LogisticMap) and m.r == 0.958

    def test_bad_spec(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_map("tent")


class TestRhoTable:
    def test_exit_zero_and_rows(self, capsys):
        # each rate printed is its 40-digit mpmath root to 12 digits
        code, out = run(["rho-table"], capsys)
        assert code == 0
        csv = out[out.index("p,rho_inc"):].splitlines()
        assert len(csv) == 9
        with mpmath.workdps(40):
            for line in csv[1:]:
                p, inc, _, odd = line.split(",")
                p = int(p)
                roots = [inc] + ([odd] if p % 2 else [])
                polys = [lambda x: x**p - 2 * x ** (p - 1) + 1,
                         lambda x: x**p - 2 * x ** (p - 2) - 1]
                for text, poly in zip(roots, polys):
                    root = mpmath.findroot(poly, (1.41, 2), solver="anderson")
                    assert text == mpmath.nstr(root, 12), (p, text)
        assert csv[1] == "3,1.61803398875,1.61803398875,1.61803398875"

    def test_deterministic(self, capsys):
        _, out1 = run(["rho-table"], capsys)
        _, out2 = run(["rho-table"], capsys)
        assert out1 == out2


class TestSuperstable:
    def test_known_paper_defect_reported(self, capsys):
        # the 1324 row cannot match the published 0.8671 (see CHANGES.md);
        # the command must fail its embedded assertion and exit 1
        code, out = run(["superstable"], capsys)
        assert code == 1
        assert "ASSERT FAIL superstable_1324" in out
        # the other 11 rows and the MSS order down the table
        assert out.count("ASSERT PASS") == 12
        assert "ASSERT PASS superstable_mss_order" in out
        assert "0.874640" in out


class TestWarmup:
    def test_passes_and_emits(self, tmp_path, capsys):
        code, out = run(["--out", str(tmp_path), "warmup"], capsys)
        assert code == 0
        csv = (tmp_path / "warmup_growth.csv").read_text()
        header, first = csv.splitlines()[:2]
        assert header == "k,M_1234,M_123,M_1324,pow2"
        assert first == "1,2,2,2,2"
        svg = (tmp_path / "warmup_growth.svg").read_text()
        ET.fromstring(svg)  # well-formed XML

    @pytest.mark.parametrize("k_max", ["7", "8"])
    def test_small_k_max_is_usage_error(self, k_max):
        with pytest.raises(SystemExit) as exc:
            main(["warmup", "--k-max", k_max])
        assert exc.value.code == 2

    def test_smallest_k_max_runs(self, capsys):
        code, out = run(["warmup", "--k-max", "9"], capsys)
        assert code == 0
        last = out.splitlines()[9]
        assert last.startswith("9,") and last.endswith(",512")

    def test_cap_bounds_cycle_checks(self, capsys):
        # the toy maps carry their cycles as knots and are built with no
        # cycle search; the maximality check builds up to f^9 of the 1324
        # map (93 knots, from M(f^9) + 1 = 75 laps, so cap 80 passes the
        # lap count and stops inside the build)
        assert main(["--cap", "80", "warmup", "--k-max", "9"]) == 3
        assert capsys.readouterr().err == ("resource cap exceeded: "
                                           "composition exceeds 80 knots\n")

    def test_cap_stops_only_the_maximality_check(self, capsys):
        # the lap walk takes no cap, so the CSV and the checks before
        # maximal_1324 print before the exit
        assert main(["--cap", "40", "warmup", "--k-max", "9"]) == 3
        out, err = capsys.readouterr()
        assert out.startswith("k,M_1234,M_123,M_1324,pow2\n")
        assert "ASSERT PASS rate_1324" in out and "maximal_1324" not in out
        assert err == "resource cap exceeded: composition exceeds 40 knots\n"

    def test_rate_label_names_window_used(self, capsys):
        code, out = run(["warmup", "--k-max", "9"], capsys)
        assert code == 0
        assert "rate_1234 :: geom[8,9]=" in out
        assert "geom[8,14]" not in out


class TestBifurcation:
    def test_csv_and_metadata(self, tmp_path, capsys):
        code, _ = run(["--out", str(tmp_path), "bifurcation",
                       "--family", "logistic", "--r-lo", "0.94",
                       "--r-hi", "0.97", "--steps", "4", "--burn", "60",
                       "--keep", "10"], capsys)
        assert code == 0
        lines = (tmp_path / "bifurcation_logistic.csv").read_text().splitlines()
        assert lines[0] == "r,x"
        assert len(lines) == 1 + 4 * 10
        meta = json.loads((tmp_path / "bifurcation_logistic.json").read_text())
        assert meta["x0"] == 0.5001

    @pytest.mark.parametrize("kind", ["logistic", "tent"])
    def test_out_files_hold_the_stdout_bytes(self, kind, tmp_path, capsys):
        # the tent grid holds its exact members r = 1/2 and r = 1
        argv = ["bifurcation", "--family", kind, "--r-lo", "0.5", "--steps",
                "11", "--burn", "100", "--keep", "20"]
        code, out = run(argv, capsys)
        assert code == 0
        assert main(["--out", str(tmp_path)] + argv) == 0
        capsys.readouterr()
        *csv, meta = out.splitlines(keepends=True)
        assert (tmp_path / f"bifurcation_{kind}.csv").read_bytes() == \
            "".join(csv).encode()
        assert (tmp_path / f"bifurcation_{kind}.json").read_bytes() == \
            meta.encode()

    def test_fresh_interpreter_does_not_import_numpy_ma(self):
        # numpy.ma costs a fresh process about 14 ms and 1 MB to import;
        # nothing the command calls (np.unique among them) may pull it in
        src = str(Path(itermaps.__file__).parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src if not path else src + os.pathsep + path}
        code = ("import sys\n"
                "from itermaps import cli\n"
                "assert cli.main(['bifurcation', '--steps', '50']) == 0\n"
                "print('numpy.ma' in sys.modules, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == "False\n"


def ref_bifurcation_stdout(kind, r_lo, r_hi, steps, burn, keep):
    """bifurcation's stdout as the per-point formatter wrote it: one
    fmt(r) + "," + fmt(x) string per point, joined once."""
    data = bifurcation.sweep(kind, r_lo, r_hi, steps=steps, burn=burn,
                             keep=keep)
    lines = ["r,x"]
    for r, tail in data:
        lines.extend([fmt(r) + "," + fmt(x) for x in tail])
    meta = {"family": kind, "x0": bifurcation.X0, "burn": burn,
            "keep": keep, "steps": steps}
    return "\n".join(lines) + "\n" + json.dumps(meta, sort_keys=True) + "\n"


class TestCsvSlice:
    """The bifurcation CSV writer against the per-point formatter, on
    hand-made tails."""

    @pytest.mark.parametrize("tail", [
        [0.25] * 7,
        [0.3, 0.7] * 4 + [0.3],
        [0.1, 0.5, 0.9] * 3 + [0.1, 0.5],
        [],
        [0.5],
        [0.1 * i for i in range(1, 10)],
        [0.3, 0.6, 0.3, 0.9, 0.3, 0.6],
        [0.5, 0.0, 0.5, -0.0, 0.5, 0.0, 0.5],
        [0.0, -0.0, 0.0, -0.0, 0.0],
        [-0.0, 0.0, -0.0],
        [0.3, 0.6, 0.3, 0.9] * 3,
        [0.2, 0.7] * 5 + [0.4],
        [0.1, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3],
    ], ids=["period_1", "period_2", "period_3", "keep_0", "keep_1",
            "chaotic", "recurs_not_periodic", "signed_zero_in_period",
            "signed_zero_first", "negative_zero_first",
            "first_recurrence_not_period", "periodic_but_last",
            "period_4_keep_7"])
    def test_equals_per_point_formatter(self, tail):
        block = np.array(tail, dtype=float).reshape(1, len(tail))
        assert "".join(bifurcation._csv([0.875], block)) == "r,x\n" + "".join(
            [fmt(0.875) + "," + fmt(x) + "\n" for x in tail])

    def test_periods(self):
        # a first recurrence that is no period, and a period broken by the
        # last value, leave the whole row to the formatter
        block = np.array([[0.25] * 7,
                          [0.1, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3],
                          [0.3, 0.6, 0.3, 0.9, 0.3, 0.6, 0.3],
                          [0.2, 0.7] * 3 + [0.4],
                          [0.0, -0.0] * 3 + [0.0],
                          [0.1 * i for i in range(1, 8)]])
        assert bifurcation._periods(block).tolist() == [1, 4, 7, 7, 2, 7]
        assert bifurcation._periods(block[:, :1]).tolist() == [1] * 6
        assert bifurcation._periods(block[:, :0]).tolist() == [1] * 6

    def test_slices_across_chunks(self):
        # 70 slices: three calls of the numpy formatter, the last short
        rng = np.random.default_rng(5)
        rs = sorted(rng.random(70).tolist())
        block = rng.random((70, 6)) ** 6
        block[3] = [0.0, -0.0, 1.0, 1e-5, 0.5, 0.25]
        assert "".join(bifurcation._csv(rs, block)) == "r,x\n" + "".join(
            [fmt(r) + "," + fmt(x) + "\n" for r, tail in zip(rs, block)
             for x in tail.tolist()])

    def test_periodic_and_chaotic_slices_across_chunks(self):
        # rows 28 to 37 straddle the first chunk boundary; periods 1 to 5
        # with keep 12, so some periods do not divide keep
        rng = np.random.default_rng(37)
        rs = sorted(rng.random(70).tolist())
        block = rng.random((70, 12))
        for i in [*range(0, 70, 3), *range(28, 38)]:
            p = i % 5 + 1
            block[i] = np.resize(block[i, :p], 12)
        assert sorted(set(bifurcation._periods(block).tolist())) == [
            1, 2, 3, 4, 5, 12]
        assert "".join(bifurcation._csv(rs, block)) == "r,x\n" + "".join(
            [fmt(r) + "," + fmt(x) + "\n" for r, tail in zip(rs, block)
             for x in tail.tolist()])

    def test_periodic_rows_formatted_once(self, monkeypatch, capsys):
        # the default logistic sweep: 63% of its values sit in periodic
        # rows, whose repeats skip the formatter
        counted = []

        def fmt12(x):
            counted.append(x.size)
            return fmt12_orig(x)

        fmt12_orig = bifurcation._fmt12
        monkeypatch.setattr(bifurcation, "_fmt12", fmt12)
        argv = ["bifurcation", "--family", "logistic"]
        code, out = run(argv, capsys)
        assert code == 0
        assert sum(counted) <= 0.4 * bifurcation.DEFAULT_STEPS * \
            bifurcation.DEFAULT_KEEP
        [entry] = [e for e in cli_outputs.load() if e["argv"] == argv]
        assert cli_outputs.sha256(out.encode()) == entry["stdout"]


class TestBifurcationCsvOracle:
    """The slice-at-a-time CSV against the per-point formatter.

    half_to_one holds r = 1/2 and r = 1, whose tent tails are the exact
    Fraction orbits; keep_0 is the grid 1/8, 2/8, ..., 1.  The empty grid
    lies above r = 1, a range the command refuses as a usage error.
    default_burn runs the default burn, after which the logistic tails have
    settled on float cycles of periods 1, 2, 4 and 6, so each of its slices
    repeats a few values.
    """

    @pytest.mark.parametrize("kind", ["logistic", "sine", "tent",
                                      "flat_tent"])
    @pytest.mark.parametrize("r_lo, r_hi, steps, burn, keep", [
        (0.5, 1.0, 11, 100, 20),
        (0.3, 0.95, 17, 60, 7),
        (0.125, 1.0, 8, 40, 0),
        (1.5, 2.0, 5, 10, 5),
        (0.6, 0.9, 13, bifurcation.DEFAULT_BURN, 45),
    ], ids=["half_to_one", "odd_grid", "keep_0", "empty_grid",
            "default_burn"])
    def test_stdout_equals_per_point_formatter(self, kind, r_lo, r_hi,
                                               steps, burn, keep, capsys):
        code, out = run(["bifurcation", "--family", kind, "--r-lo",
                         str(r_lo), "--r-hi", str(r_hi), "--steps",
                         str(steps), "--burn", str(burn), "--keep",
                         str(keep)], capsys)
        if r_lo > 1:
            assert (code, out) == (2, "")
            return
        assert out == ref_bifurcation_stdout(kind, r_lo, r_hi, steps, burn,
                                             keep)
        assert code == 0


class TestCertify:
    def test_tent_pipeline(self, tmp_path, capsys):
        code, out = run(["--out", str(tmp_path), "certify", "--map", "tent:1",
                         "--p", "3", "--k", "8", "--random-candidates", "5"],
                        capsys)
        assert code == 0
        payload = json.loads((tmp_path / "certify.json").read_text())
        assert payload["certificate"]["count"] >= 2
        assert payload["candidates"]

    def test_missing_cycle_is_failure(self, capsys):
        code = main(["certify", "--map", "tent:51/100", "--p", "3", "--k", "4"])
        assert code == 1
        assert capsys.readouterr().err == (
            "certificate failure: no increasing or Stefan 3-cycle detected\n")

    def test_stefan_cycle_when_no_increasing_one(self, tmp_path, capsys):
        code, out = run(["--out", str(tmp_path), "certify", "--map",
                         "tent:9/10", "--p", "5", "--k", "12"], capsys)
        assert code == 0
        assert "ASSERT FAIL" not in out
        payload = json.loads((tmp_path / "certify.json").read_text())
        assert payload["certificate"]["mode"] == "stefan"
        # odd_linf threshold at the default depth 2: rho_odd(5)^((12-5)/2)/8
        assert payload["width_threshold"]["u_max"] == pytest.approx(
            spectra.rho_odd(5) ** (7 / 2) / 8, rel=1e-12)

    # the certificate is counted uncapped; --cap stops the candidate stage,
    # whose pl.iterate would build f^k with more knots than the cap, after
    # the certificate and its width threshold are written

    @staticmethod
    def capped(argv, capsys, cap=500):
        code = main(["--cap", str(cap), *argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ("resource cap exceeded: "
                                f"composition exceeds {cap} knots\n")
        payload = json.loads(captured.out)
        assert payload["candidates"] == []
        return payload

    @staticmethod
    def uncapped(argv, tmp_path, capsys):
        code, _ = run(["--out", str(tmp_path), *argv], capsys)
        assert code == 0
        return json.loads((tmp_path / "certify.json").read_text())

    def test_cap_bounds_stefan_certificate_stage(self, tmp_path, capsys):
        # f^10 of tent:9/10 has 629 knots
        argv = ["certify", "--map", "tent:9/10", "--p", "5", "--k", "12"]
        got = self.capped(argv, capsys)
        want = self.uncapped(argv, tmp_path, capsys)
        assert got["certificate"]["mode"] == "stefan"
        assert got["certificate"] == want["certificate"]
        assert got["width_threshold"] == want["width_threshold"]

    def test_cap_bounds_certificate_stage(self, tmp_path, capsys):
        # f^9 of the full tent has 513 knots
        argv = ["certify", "--map", "tent:1", "--k", "10"]
        got = self.capped(argv, capsys)
        want = self.uncapped(argv, tmp_path, capsys)
        assert got["certificate"] == want["certificate"]
        assert got["width_threshold"] == want["width_threshold"]

    def test_cap_bounds_deep_certificate_candidates(self, capsys):
        # uncapped, the candidate stage would build f^60; what the command
        # prints before it comes from the library calls it makes
        got = self.capped(["certify", "--map", "tent:1", "--k", "60"], capsys)
        m = maps.TentMap(1)
        cert = hardness.certificate(m, cycles.find_cycles(m, 3), 3, 60)
        u_max = hardness.width_threshold(cert, 2)
        assert got["certificate"]["count"] == 2**60
        assert got["certificate"] == json.loads(dump(cert.to_dict()))
        assert got["width_threshold"] == {"u_max": u_max,
                                          "vacuous": u_max < 1}

    @pytest.mark.parametrize("r", [F(1), F(9, 10)])
    def test_deep_certificate_then_cap(self, r, capsys):
        # rate^1500 / 2 is past the largest float, so the count is checked
        # exactly; the certificate is written before the candidate stage
        # meets the cap
        got = self.capped(["certify", "--map", f"tent:{r}", "--k", "1500"],
                          capsys, cap=100)
        m = maps.TentMap(r)
        cert = hardness.certificate(m, cycles.find_cycles(m, 3), 3, 1500)
        assert got["certificate"] == json.loads(dump(cert.to_dict()))
        if r == 1:
            assert got["certificate"]["count"] == 2**1500

    def test_fresh_interpreter_prints_no_traceback(self):
        # every other test runs main in-process; here an exception that
        # escaped main would reach stderr as a traceback
        src = str(Path(itermaps.__file__).parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src if not path else src + os.pathsep + path}
        proc = subprocess.run(
            [sys.executable, "-m", "itermaps.cli", "--cap", "100", "certify",
             "--map", "tent:1", "--k", "1500"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "resource cap exceeded: composition exceeds 100 knots"]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("extra, depth, k", [
        (["--depth", "0"], 0, 10),
        (["--depth", "11"], 11, 10),
        (["--k", "0"], 2, 0),
    ], ids=["depth_0", "depth_11", "k_0"])
    def test_depth_outside_1_to_k_is_usage_error(self, extra, depth, k,
                                                 capsys):
        # checked before the cycle search: one line on stderr, no output
        code = main(["certify", "--map", "tent:1", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"certify needs 1 <= depth <= k, "
                                f"got depth {depth} and k {k}\n")

    @pytest.mark.parametrize("spec", ["tent:1", "logistic:0.958"])
    def test_k_1_is_usage_error(self, spec, capsys):
        # at k = 1 the adversarial sample would hold rate^1 / 2 < 1 points
        code = main(["certify", "--map", spec, "--k", "1", "--depth", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "certify needs k >= 2, got k 1\n"


class TestPhase:
    def test_three_regimes(self, tmp_path, capsys):
        code, _ = run(["--out", str(tmp_path), "phase", "--maps",
                       "logistic:0.8671,tent:1,logistic:0.9901",
                       "--p-max", "6", "--k-max", "12"], capsys)
        assert code == 0
        entries = json.loads((tmp_path / "phase.json").read_text())
        regimes = {e["map"]["kind"] + ":" + str(e["map"]["r"]): e["regime"]
                   for e in entries}
        assert regimes["logistic:0.8671"] == "doubling"
        assert regimes["tent:1/1"] == "chaotic"
        assert regimes["logistic:0.9901"] == "chaotic"
        tent_entry = next(e for e in entries if e["map"]["kind"] == "tent")
        assert len(tent_entry["shatter"]["table"]) == 4

    def test_counts_at_depth_40(self, tmp_path, capsys):
        # M(f^40) of tent:9/10 is about 2.9 * 10^10, far above the default
        # cap, which bounds only built knots
        code, _ = run(["--out", str(tmp_path), "phase", "--maps",
                       "tent:9/10", "--k-max", "40"], capsys)
        assert code == 0
        entry = json.loads((tmp_path / "phase.json").read_text())[0]
        assert entry["counts"][39] == kneading_laps(
            maps.TentMap(F(9, 10)), 40)[39]

    def test_vc_bound_in_doubling_entry(self, tmp_path, capsys):
        code, _ = run(["--out", str(tmp_path), "phase", "--maps",
                       "logistic:0.8671", "--p-max", "8", "--k-max", "10"],
                      capsys)
        assert code == 0
        entry = json.loads((tmp_path / "phase.json").read_text())[0]
        assert entry["q"] == 2 and entry["vc_bound"] == 288

    @pytest.mark.parametrize("k_max, printed", [(8, False), (9, True)])
    def test_rates_decrease_needs_two_rates_from_k8(self, k_max, printed,
                                                    capsys):
        # rates from k=8 hold two values only from k_max 9 on; with fewer,
        # the check would pass on nothing
        code, out = run(["phase", "--maps", "logistic:0.8671", "--k-max",
                         str(k_max)], capsys)
        assert code == 0
        assert ("doubling_rates_decrease_0.8671" in out) == printed

    @pytest.mark.parametrize("spec, last", [
        ("logistic:0.99", 3), ("sine:0.97", 3), ("tent:1", 3),
        ("logistic:0.9347", 5)])
    def test_search_stops_at_first_chaotic_cycle(self, spec, last,
                                                 monkeypatch, capsys):
        # the smooth search's periods are its root calls; the PL search
        # composes f^p once per period, and nothing else in phase composes
        searched = []
        roots, compose = cycles._smooth_period_roots, pl.compose

        def counted_roots(m, p):
            searched.append(p)
            return roots(m, p)

        def counted_compose(*args, **kwargs):
            searched.append(len(searched) + 1)
            return compose(*args, **kwargs)

        monkeypatch.setattr(cycles, "_smooth_period_roots", counted_roots)
        monkeypatch.setattr(pl, "compose", counted_compose)
        code, _ = run(["phase", "--maps", spec, "--p-max", "8",
                       "--k-max", "9"], capsys)
        assert code == 0
        assert searched == list(range(1, last + 1))


class TestSynthVcCounterexample:
    def test_synth(self, tmp_path, capsys):
        code, _ = run(["--out", str(tmp_path), "synth", "--map", "tent:1",
                       "--k", "5"], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "synth.json").read_text())
        assert payload["shallow"]["width"] == 32
        assert payload["deep"] == {"width": 2, "depth": 10}

    def test_synth_caps_network_propagation(self, monkeypatch, capsys):
        caps = []
        net_to_pl = relunet.net_to_pl

        def spy(net, cap=pl.DEFAULT_KNOT_CAP):
            caps.append(cap)
            return net_to_pl(net, cap=cap)

        monkeypatch.setattr(relunet, "net_to_pl", spy)
        code, _ = run(["--cap", "4321", "synth", "--map", "tent:1",
                       "--k", "5"], capsys)
        assert code == 0
        assert caps == [4321, 4321]

    def test_vc_worked_example(self, tmp_path, capsys):
        code, _ = run(["--out", str(tmp_path), "vc", "--shatter-d", "2"],
                      capsys)
        assert code == 0
        payload = json.loads((tmp_path / "vc.json").read_text())
        assert payload["vcw_bound"] == 4
        assert payload["doubling_bounds"]["4"] == 288

    def test_counterexample(self, tmp_path, capsys):
        code, _ = run(["--out", str(tmp_path), "counterexample", "--p", "3",
                       "--eps", "1/10"], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "counterexample.json").read_text())
        assert payload["need_symmetry"]["concave"] is True
        assert payload["need_concavity"]["symmetric"] is True


class TestSharedOptions:
    COMMAND = ["certify", "--map", "tent:1"]

    @pytest.mark.parametrize("flag, given, value, default", [
        ("--out", "results", "results", None),
        ("--cap", "77", 77, pl.DEFAULT_KNOT_CAP),
        ("--seed", "42", 42, 0),
    ])
    def test_either_position_and_default(self, flag, given, value, default):
        dest = flag.lstrip("-")
        parse = build_parser().parse_args
        before = parse([flag, given] + self.COMMAND)
        after = parse(self.COMMAND + [flag, given])
        absent = parse(self.COMMAND)
        assert getattr(before, dest) == value
        assert getattr(after, dest) == value
        assert getattr(absent, dest) == default

    def test_consecutive_calls_keep_defaults(self, tmp_path, capsys):
        # every main call in a process parses with the same parser
        assert build_parser() is build_parser()
        plain = self.COMMAND + ["--k", "6", "--random-candidates", "3"]
        code, first = run(plain, capsys)
        assert code == 0
        code, seeded = run(["--seed", "5"] + plain, capsys)
        assert code == 0 and seeded != first
        # f^6 of tent:1 has 65 knots: the cap stops certify after writing
        assert main(plain + ["--out", str(tmp_path), "--cap", "40"]) == 3
        assert (tmp_path / "certify.json").is_file()
        capsys.readouterr()
        code, again = run(plain, capsys)
        assert code == 0 and again == first

    def test_format_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "csv", "rho-table"])
        assert exc.value.code == 2

    def test_jobs_flag_removed(self, capsys):
        # --jobs is gone; argparse rejects it either side of the subcommand
        # with its own usage error
        for argv in (["--jobs", "2", "bifurcation", "--steps", "5"],
                     ["bifurcation", "--jobs", "2", "--steps", "5"],
                     ["--jobs=2", "vc"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "itermaps: error:" in err


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        ("vc --shatter-d 4", "--shatter-d: must be <= 3, got 4"),
        ("phase --maps tent:1 --shatter-d 0",
         "--shatter-d: must be >= 1, got 0"),
        ("phase --maps tent:1 --shatter-d 4",
         "--shatter-d: must be <= 3, got 4"),
        ("phase --maps logistic:0.9 --shatter-d 9",
         "--shatter-d: must be <= 3, got 9"),
        ("cycles --map tent:1 --p-max 0", "--p-max: must be >= 1, got 0"),
        ("certify --map tent:1 --p 0", "--p: must be >= 3, got 0"),
        ("certify --map tent:1 --p 2", "--p: must be >= 3, got 2"),
        ("phase --maps tent:1 --k-max 1", "--k-max: must be >= 2, got 1"),
        ("synth --map tent:1 --k 0", "--k: must be >= 1, got 0"),
        ("counterexample --p 2", "--p: must be >= 3, got 2"),
        ("counterexample --k-max 0", "--k-max: must be >= 1, got 0"),
        ("cycles --map tent:1 --p-max 1.5",
         "--p-max: invalid int value: '1.5'"),
        ("bifurcation --keep -1", "--keep: must be >= 0, got -1"),
        ("bifurcation --burn -1", "--burn: must be >= 0, got -1"),
        ("certify --map tent:1 --random-candidates -2",
         "--random-candidates: must be >= 0, got -2"),
        ("counterexample --eps abc", "--eps: not a fraction: 'abc'"),
        ("counterexample --eps 1/0", "--eps: not a fraction: '1/0'"),
        ("bifurcation --steps 0", "--steps: must be >= 1, got 0"),
        ("bifurcation --steps -1", "--steps: must be >= 1, got -1"),
        # the family constructor's error, named with the spec
        ("certify --map tent:1/0",
         "--map: bad map spec 'tent:1/0': Fraction(1, 0)"),
        ("phase --maps tent:1/0",
         "--maps: bad map spec 'tent:1/0': Fraction(1, 0)"),
        ("certify --map tent:2",
         "--map: bad map spec 'tent:2': tent parameter must lie in (0,1]"),
        ("phase --maps tent:2",
         "--maps: bad map spec 'tent:2': tent parameter must lie in (0,1]"),
        ("certify --map logistic:abc", "--map: bad map spec 'logistic:abc': "
         "could not convert string to float: 'abc'"),
        ("phase --maps logistic:abc", "--maps: bad map spec 'logistic:abc': "
         "could not convert string to float: 'abc'"),
    ])
    def test_out_of_range_int_is_usage_error(self, argv, message, capsys):
        # rejected while parsing: exit 2, no stdout, no traceback
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {message}\n")

    @pytest.mark.parametrize("argv, message", [
        ("counterexample --eps 0",
         "counterexample needs 0 < eps < 1/p, got eps 0 and p 3"),
        ("counterexample --eps 1/2",
         "counterexample needs 0 < eps < 1/p, got eps 1/2 and p 3"),
        ("counterexample --p 4 --eps 1/4",
         "counterexample needs 0 < eps < 1/p, got eps 1/4 and p 4"),
        ("vc --regex 1",
         "vc cannot parse --regex: term must end in w^inf: '1'"),
        ("phase --maps tent:1,flat_tent:1",
         "phase needs strictly unimodal maps: flat_tent map has no unique "
         "maximizer"),
    ])
    def test_value_rejected_by_command(self, argv, message, capsys):
        # checked by the command before any output: exit 2, one line
        code = main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", message + "\n")

    def test_resource_cap_exit_3(self, capsys):
        code = main(["--cap", "10", "synth", "--map", "tent:1", "--k", "12"])
        assert code == 3


class TestCapBoundsCycleSearch:
    """--cap bounds the f^p that find_cycles builds on a PL map and the f^k
    of the counterexample audit, as it bounds every other built f^k."""

    def test_cycles_boundary(self, capsys):
        # f^10 of the full tent has 1025 knots; the digest is bench_cycles'
        argv = ["cycles", "--map", "tent:1", "--p-max", "10"]
        assert main(["--cap", "1024", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("resource cap exceeded: "
                                "composition exceeds 1024 knots\n")
        code, out = run(["--cap", "1025", *argv], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4e57aa2fd375427bbacca459a03886087cc58777f566b32c406ac8db0d048d7f")

    # f^4 of the full tent has 17 knots; the counterexamples' f^12 have 755
    # and 1221
    @pytest.mark.parametrize("argv", [
        ["counterexample", "--k-max", "12"],
        ["phase", "--maps", "tent:1", "--p-max", "4"],
        ["certify", "--map", "tent:1", "--p", "4", "--k", "5"],
    ], ids=["counterexample", "phase", "certify"])
    def test_small_cap_exits_3_before_output(self, argv, capsys):
        assert main(["--cap", "10", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("resource cap exceeded: "
                                "composition exceeds 10 knots\n")


    def test_phase_cap_decided_at_p_max(self, capsys):
        # the search would stop at tent:1's 3-cycles, but f^10 has 1025
        # knots, and phase's cap is decided at p_max
        assert main(["--cap", "600", "phase", "--maps", "tent:1",
                     "--k-max", "9", "--p-max", "10"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("resource cap exceeded: "
                                "composition exceeds 600 knots\n")


class TestCapDecidedBeforeBuild:
    """certify, synth, cycles and counterexample refuse f^k from its lap
    count, before building it: every turning point of f^k is a knot.  The
    function that builds f^k is patched to fail, so a command that reaches
    it fails the test (certify's cycle search composes f^p for p <= 3, so
    there the patch is pl.iterate)."""

    @staticmethod
    def build(*args, **kwargs):
        raise AssertionError("f^k was built")

    def test_certify_writes_certificate_then_exits_3(self, monkeypatch,
                                                     capsys):
        # M(f^27) + 1 of tent:9/10 passes the default cap of 10^7 knots
        monkeypatch.setattr(pl, "iterate", self.build)
        code = main(["certify", "--map", "tent:9/10", "--k", "60"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ("resource cap exceeded: composition exceeds "
                                f"{pl.DEFAULT_KNOT_CAP} knots\n")
        m = maps.TentMap(F(9, 10))
        cert = hardness.certificate(m, cycles.find_cycles(m, 3), 3, 60)
        got = json.loads(captured.out)
        assert got["certificate"] == json.loads(dump(cert.to_dict()))
        assert got["candidates"] == []

    def test_synth_exits_3(self, monkeypatch, capsys):
        # f^24 of the full tent has 2^24 + 1 knots
        monkeypatch.setattr(pl, "compose", self.build)
        code = main(["synth", "--map", "tent:1", "--k", "30"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("resource cap exceeded: composition exceeds "
                                f"{pl.DEFAULT_KNOT_CAP} knots\n")

    @pytest.mark.parametrize("argv", [
        # M(f^27) + 1 of tent:9/10 passes the cap: find_cycles at p_max
        ["cycles", "--map", "tent:9/10", "--p-max", "60"],
        # the increasing 3-cycle makes M(f^40) of need_symmetry pass it
        ["counterexample", "--k-max", "40"],
    ], ids=["cycles", "counterexample"])
    def test_exits_3_within_a_second(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(pl, "compose", self.build)
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("resource cap exceeded: composition exceeds "
                                f"{pl.DEFAULT_KNOT_CAP} knots\n")
        assert elapsed < 1.0

    @pytest.mark.parametrize("cap, code", [(628, 3), (629, 0)])
    def test_boundary_is_the_built_knot_count(self, cap, code, capsys):
        # f^10 of tent:9/10 has 629 knots, M(f^10) + 1, and 2^10 passes
        # both caps, so the lap walk decides: it refuses only what
        # pl.compose would refuse
        assert main(["--cap", str(cap), "synth", "--map", "tent:9/10",
                     "--k", "10"]) == code
        capsys.readouterr()


MANIFEST = cli_outputs.load()


def manifest_cases(pin):
    """The manifest's entries first pinned in class pin (None: the rest)."""
    return [pytest.param(e, id=e["id"]) for e in MANIFEST
            if e.get("pin") == pin]


def check_manifest_entry(entry):
    """A fresh run of the entry's argv gives its recorded exit code, stdout
    digest, last stderr line and --out file digests."""
    fresh = cli_outputs.record(entry["argv"])
    assert fresh == {k: entry[k] for k in fresh}, entry["id"]


class TestOutputManifest:
    """Every argv of tests/cli_outputs.jsonl, whose notes say when and why
    each line was recorded; the three classes below hold the lines first
    pinned in them."""

    def test_ids_unique(self):
        ids = [e["id"] for e in MANIFEST]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("entry", manifest_cases(None))
    def test_argv(self, entry):
        check_manifest_entry(entry)


class TestExactOutputsPinned:
    """Small exact commands (manifest pin "exact")."""

    @pytest.mark.parametrize("entry", manifest_cases("exact"))
    def test_stdout_digest_and_exit_code(self, entry):
        check_manifest_entry(entry)


class TestFloatOutputsPinned:
    """Float sweeps and the super-stable table (manifest pin "float")."""

    @pytest.mark.parametrize("entry", manifest_cases("float"))
    def test_stdout_digest_and_exit_code(self, entry):
        check_manifest_entry(entry)


class TestOutFilesPinned:
    """The files --out writes (manifest pin "out")."""

    @pytest.mark.parametrize("entry", manifest_cases("out"))
    def test_file_digests(self, entry):
        check_manifest_entry(entry)
