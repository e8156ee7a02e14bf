"""Tests of the benchmark itself: tracer hygiene, oracle strength, names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import tracer
import worker
from itermaps import cli

ROOT = Path(run.__file__).resolve().parent.parent

#: one small instance of every subcommand the workloads run
SMALL = [
    ["--seed", "5", "certify", "--map", "tent:1", "--k", "6",
     "--random-candidates", "2"],
    ["--seed", "5", "certify", "--map", "tent:9/10", "--k", "6",
     "--random-candidates", "2"],
    ["cycles", "--map", "tent:1", "--p-max", "6"],
    ["counterexample", "--k-max", "4"],
    ["synth", "--map", "tent:1", "--k", "4"],
    ["synth", "--map", "tent:9/10", "--k", "3"],
    ["warmup", "--k-max", "10"],
    ["phase", "--maps", "tent:1,tent:9/10,logistic:0.99,logistic:0.8671",
     "--k-max", "16", "--p-max", "4"],
    ["bifurcation", "--family", "logistic", "--r-lo", "0.7", "--r-hi",
     "0.87", "--steps", "3"],
    ["bifurcation", "--family", "tent", "--steps", "3", "--keep", "50"],
    ["superstable"],
]


@pytest.fixture(scope="module")
def outputs():
    """stdout of each SMALL command by subcommand key, run untraced."""
    runs = worker.run_commands(cli, SMALL)
    return {" ".join(argv): (argv, rc, out) for argv, rc, out, _, _ in runs}


def output_of(outputs, prefix):
    for key, value in outputs.items():
        if prefix in key:
            return value
    raise KeyError(prefix)


def snapshot():
    """Every attribute of every itermaps module and class, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "itermaps":
            continue
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for cattr, cobj in vars(obj).items():
                    snap[(name, attr, cattr)] = cobj
    return snap


def failures(runs):
    return [op["failures"] for op in worker.check_runs(runs)]


def counts(stats):
    units = run.per_layer_units()
    return {k: v for k, v in tracer.layer_metrics(stats).items()
            if units[k] == "count"}


# ---------------------------------------------------------------------------
# tracer


def test_leaving_restores_every_patched_attribute():
    import itermaps.pl
    import itermaps.warmup

    before = snapshot()
    t = tracer.Tracer()
    with t:
        assert itermaps.pl.compose is not before[("itermaps.pl", "compose")]
        # imported by name into warmup: patched there too
        assert (itermaps.warmup.find_cycles
                is not before[("itermaps.warmup", "find_cycles")])
        changed = {k for k, v in snapshot().items() if before.get(k) is not v}
    assert len(changed) > 50
    assert all(snapshot()[k] is v for k, v in before.items())


def test_restores_after_an_exception_inside():
    before = snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert all(snapshot()[k] is v for k, v in before.items())


def test_traced_runs_match_untraced_and_repeat_counts():
    plain = worker.run_commands(cli, SMALL)
    traced = [tracer.Tracer(), tracer.Tracer()]
    traced_runs = [worker.run_commands(cli, SMALL, t) for t in traced]
    want = failures(plain)
    # the known tent r = 1 dispersal defect shows in every run alike
    assert [name for f in want for name, _ in f] == [
        "bifurcation.tent_r1_dispersed"]
    for runs in traced_runs:
        assert failures(runs) == want
        assert [r[2] for r in runs] == [r[2] for r in plain]
    first, second = (counts(t.stats) for t in traced)
    assert first == second
    assert first["pl.compose.calls"] > 0
    assert first["relunet.net_to_pl.knots_out"] > 0
    assert first["oscillation.laps_counted"] > 0


def test_self_time_excludes_nested_wrapped_calls():
    t = tracer.Tracer()
    worker.run_commands(cli, [["synth", "--map", "tent:1", "--k", "3"]], t)
    calls, incl, self_s, _ = t.stats["cli.main"]
    assert calls == 1 and 0 < self_s < incl
    nested = sum(row[tracer.SELF] for key, row in t.stats.items()
                 if key != "cli.main")
    assert incl == pytest.approx(self_s + nested, rel=1e-6)


def test_probe_time_is_not_self_time():
    t = tracer.Tracer()
    with worker.SpeedProbe(interval=0.05, tracer=t) as probe:
        worker.run_commands(
            cli, [["synth", "--map", "tent:1", "--k", "7"]], t, probe)
    inside = probe.samples[1:]  # the first sample precedes the command
    assert inside
    total_self = sum(row[tracer.SELF] for row in t.stats.values())
    assert t.stats["cli.main"][tracer.INCL] == pytest.approx(
        total_self + sum(inside), rel=1e-6)


# ---------------------------------------------------------------------------
# oracles


def split(out):
    asserts = [line for line in out.splitlines() if line.startswith("ASSERT")]
    body = [line for line in out.splitlines()
            if not line.startswith("ASSERT")]
    return asserts, body


def with_json(out, mutate):
    asserts, body = split(out)
    payload = json.loads("\n".join(body))
    mutate(payload)
    return "\n".join(asserts + [json.dumps(payload)]) + "\n"


def with_lines(out, mutate):
    lines = out.splitlines()
    mutate(lines)
    return "\n".join(lines) + "\n"


def set_item(lines, i, value):
    lines[i] = value


def tweak_tail(lines, r_prefix):
    i = next(i for i, line in enumerate(lines) if line.startswith(r_prefix))
    r, x = lines[i].split(",")
    lines[i] = f"{r},{float(x) + 0.01}"


CORRUPTIONS = [
    ("certify --map tent:1", lambda o: with_json(
        o, lambda p: p["certificate"].update(count=63)),
     "certify.cert_count_full_tent"),
    ("certify --map tent:9/10", lambda o: with_json(
        o, lambda p: p["certificate"].update(b="1/2")),
     "certify.cert_gap_consecutive"),
    ("certify --map tent:1", lambda o: with_json(
        o, lambda p: p["candidates"][0].update(cls_error=0.1)),
     "certify.decimated_8_cls_floor"),
    ("cycles", lambda o: with_json(o, lambda p: p.pop()),
     "cycles.necklace_counts"),
    ("cycles", lambda o: with_json(
        o, lambda p: p[3].update(orbit=["1/9", "4/9", "8/9"])),
     "cycles.cycle3_closes"),
    ("counterexample", lambda o: with_json(
        o, lambda p: p["need_symmetry"].update(net_width=4)),
     "counterexample.need_symmetry_width3"),
    ("synth --map tent:1", lambda o: with_json(
        o, lambda p: p["network"]["layers"][1]["w"][0].__setitem__(1, "0/1")),
     "synth.network_equals_iterate"),
    ("synth --map tent:9/10", lambda o: with_json(
        o, lambda p: p["shallow"].update(width=7)),
     "synth.shallow_shape"),
    ("warmup", lambda o: with_lines(
        o, lambda ls: set_item(ls, 8, "8,222,160,59,256")),
     "warmup.laps_1324"),
    ("phase", lambda o: with_json(o, lambda p: p[0].update(entropy=0.69)),
     "phase.tent_1_entropy_ln2"),
    ("phase", lambda o: with_json(o, lambda p: p[1].update(entropy=0.6)),
     "phase.tent_9/10_entropy_ln2r"),
    ("phase", lambda o: with_json(o, lambda p: p[3].update(regime="chaotic")),
     "phase.logistic_0.8671_doubling"),
    ("phase", lambda o: with_json(
        o, lambda p: p[0]["shatter"]["table"].update({"01": 14})),
     "phase.tent_1_shatter_01"),
    ("bifurcation --family logistic", lambda o: with_lines(
        o, lambda ls: tweak_tail(ls, "0.785,")),
     "bifurcation.clusters_r0.8"),
    ("superstable", lambda o: o.replace("0.957968513", "0.957968"),
     "superstable.row_123_closes"),
    ("superstable", lambda o: o.replace("ASSERT PASS superstable_12 ",
                                        "ASSERT FAIL superstable_12 "),
     "superstable.assert_superstable_12"),
]


@pytest.mark.parametrize("prefix,corrupt,name", CORRUPTIONS,
                         ids=[c[2] for c in CORRUPTIONS])
def test_oracle_rejects_corrupted_value(outputs, prefix, corrupt, name):
    argv, rc, out = output_of(outputs, prefix)
    assert oracles.check(argv, rc, out).failures == []
    bad = [n for n, _ in oracles.check(argv, rc, corrupt(out)).failures]
    assert name in bad


def test_oracle_counts_a_raised_exception(outputs):
    argv, _, out = output_of(outputs, "warmup")
    assert [n for n, _ in oracles.check(argv, None, out).failures] == [
        "warmup.completed"]


def test_known_tent_defect_is_reported(outputs):
    argv, rc, out = output_of(outputs, "bifurcation --family tent")
    bad = [n for n, _ in oracles.check(argv, rc, out).failures]
    assert bad == ["bifurcation.tent_r1_dispersed"]
    assert set(bad) <= set(oracles.KNOWN_DEFECTS)


def test_lap_counts_match_closed_forms():
    from fractions import Fraction

    _, _, full = oracles.parse_map("tent:1")
    assert oracles.lap_counts(full, Fraction(1, 2), 12) == [
        2**k for k in range(1, 13)]
    assert [oracles.necklaces(n) for n in range(1, 11)] == [
        2, 1, 2, 3, 6, 9, 18, 30, 56, 99]


# ---------------------------------------------------------------------------
# result format


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with worker.SpeedProbe() as probe:
        runs = worker.run_commands(cli, SMALL[4:6], probe=probe)
    plain = {"traced": False, "setup_s": 0.1, "peak_rss_mb": 30.0,
             "itermaps_version": "x", "probe_s": probe.samples,
             "ops": worker.check_runs(runs), "stats": None}
    t = tracer.Tracer()
    with worker.SpeedProbe(tracer=t) as probe:
        runs = worker.run_commands(cli, SMALL[4:6], t, probe)
    traced = dict(plain, traced=True, stats=t.stats, probe_s=probe.samples,
                  ops=worker.check_runs(runs))
    for trace, section, passes in ((0, "end_to_end", [plain]),
                                   (1, "per_layer", [plain, traced])):
        _, result = run.evaluate("relu-synth", 1, 1, trace, passes, [0.1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in spec[section]}
    assert [w["name"] for w in spec["workloads"]] == list(
        run.workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relu-synth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
