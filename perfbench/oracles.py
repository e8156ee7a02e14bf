"""Independent oracles for the output of each itermaps subcommand.

Each oracle parses the command's stdout (ASSERT lines, JSON or CSV) and
checks parsed values, never raw bytes, against closed forms or against its
own small exact computations: a tent evaluator, a lap-count recursion on the
critical orbit, necklace numbers, a ReLU forward pass, logistic orbits.  It
uses no itermaps counting, cycle or synthesis code; only the toy maps of
``warmup`` are taken from the program, because they are that command's input.
"""

from __future__ import annotations

import bisect
import json
import math
from collections import Counter
from fractions import Fraction

#: checks that fail on the seed because of a recorded program defect; they
#: still count as failed operations, but do not make the run incorrect
KNOWN_DEFECTS = {
    "bifurcation.tent_r1_dispersed":
        "tent r=1 orbit collapses to 0 in binary floating point "
        "(ROADMAP item 1)",
}

#: ASSERT lines whose verdict compares with a published value; the oracle's
#: own check decides the row instead
PUBLISHED_VALUE_ASSERTS = {
    "superstable_1324":
        "paper prints r=0.8671, the solver finds 0.87464 (ROADMAP item 4); "
        "decided by the orbit oracle",
}

#: logistic forcing-table itineraries in row order (increasing r)
FORCING_ITINERARIES = ("12", "1324", "143526", "13425", "123", "135246",
                       "12435", "124536", "1234", "123546", "12345",
                       "123456")

CLUSTER_TOL = 1e-3
SUPERSTABLE_TOL = 1e-6


class Checker:
    """Collects failed checks of one operation as (name, detail)."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.failures: list[tuple[str, str]] = []
        self.notes: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            self.failures.append((f"{self.prefix}.{name}", detail))
        return ok


# ---------------------------------------------------------------------------
# parsing


def parse_opts(argv: list[str]) -> dict[str, str]:
    """Option values of an itermaps argv, global and subcommand alike."""
    opts, i = {}, 0
    while i < len(argv):
        if argv[i].startswith("--"):
            opts[argv[i]] = argv[i + 1]
            i += 2
        else:
            opts["command"] = argv[i]
            i += 1
    return opts


def split_output(out: str) -> tuple[dict[str, str], list[str]]:
    """ASSERT verdicts by name, and the remaining (payload) lines."""
    asserts, body = {}, []
    for line in out.splitlines():
        if line.startswith("ASSERT "):
            tag, name = line.split()[1:3]
            asserts[name] = tag
        else:
            body.append(line)
    return asserts, body


def parse_map(spec: str):
    """(kind, r, f): r exact for tent, float otherwise; f evaluates."""
    kind, _, r = spec.partition(":")
    if kind == "tent":
        r = Fraction(r)
        return kind, r, lambda x: 2 * r * min(x, 1 - x)
    r = float(r)
    if kind == "logistic":
        return kind, r, lambda x: 4.0 * r * x * (1.0 - x)
    if kind == "sine":
        return kind, r, lambda x: r * math.sin(math.pi * x)
    raise ValueError(f"no oracle for map kind {kind!r}")


def pl_eval(knots, x):
    """Exact value of the PL function through sorted knots at x."""
    xs = [a for a, _ in knots]
    i = min(max(bisect.bisect_right(xs, x), 1), len(knots) - 1)
    (x0, y0), (x1, y1) = knots[i - 1], knots[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


# ---------------------------------------------------------------------------
# independent closed forms and small exact computations


def lap_counts(f, c, n: int) -> list[int]:
    """M(f^k) for k = 1..n of a unimodal map with turning point c.

    Each lap of f^k maps monotonically onto an interval whose ends lie on
    {0} and the critical orbit; under f that lap splits in two exactly when
    c is interior to its image (kneading recursion, Milnor-Thurston).
    """
    c1 = f(c)
    laps = Counter({(0 * c1, c1): 2})
    out = [2]
    for _ in range(n - 1):
        nxt = Counter()
        for (lo, hi), mult in laps.items():
            flo, fhi = f(lo), f(hi)
            if lo < c < hi:
                nxt[(flo, c1)] += mult
                nxt[(fhi, c1)] += mult
            else:
                nxt[(min(flo, fhi), max(flo, fhi))] += mult
        laps = nxt
        out.append(sum(laps.values()))
    return out


def necklaces(n: int) -> int:
    """Binary Lyndon words of length n: cycles of minimal period n of the
    full tent (Moebius inversion of 2^n fixed points of f^n)."""
    def mobius(d):
        m, q = 1, 2
        while q * q <= d:
            if d % q == 0:
                d //= q
                if d % q == 0:
                    return 0
                m = -m
            q += 1
        return -m if d > 1 else m
    return sum(mobius(d) * 2 ** (n // d)
               for d in range(1, n + 1) if n % d == 0) // n


def rho_inc(p: int) -> float:
    """Largest root in (1, 2) of x^p - 2 x^(p-1) + 1."""
    lo, hi = 1.0 + 1e-6, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid**p - 2 * mid ** (p - 1) + 1 < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def rank_itinerary(orbit) -> str:
    """Ranks of a cyclic orbit rotated to start at its smallest point."""
    i = min(range(len(orbit)), key=lambda j: orbit[j])
    rotated = list(orbit[i:]) + list(orbit[:i])
    rank = {x: n + 1 for n, x in enumerate(sorted(rotated))}
    ranks = [rank[x] for x in rotated]
    if max(ranks) <= 9:
        return "".join(map(str, ranks))
    return ",".join(map(str, ranks))


def cluster_count(values, tol: float = CLUSTER_TOL) -> int:
    pts = sorted(values)
    return 1 + sum(1 for a, b in zip(pts, pts[1:]) if b - a > tol)


def largest_cluster(values, tol: float = CLUSTER_TOL) -> int:
    pts = sorted(values)
    best = run = 1
    for a, b in zip(pts, pts[1:]):
        run = run + 1 if b - a <= tol else 1
        best = max(best, run)
    return best


def relu_forward(layers, x: Fraction) -> Fraction:
    vec = [x]
    for i, (w, b) in enumerate(layers):
        vec = [sum(wij * v for wij, v in zip(row, vec)) + bi
               for row, bi in zip(w, b)]
        if i != len(layers) - 1:
            vec = [v if v > 0 else Fraction(0) for v in vec]
    return vec[0]


def iterate_at(f, x, k: int):
    for _ in range(k):
        x = f(x)
    return x


def check_exact_cycle(chk: Checker, name: str, f, orbit) -> bool:
    """orbit is a cycle of minimal period len(orbit) in dynamical order."""
    p = len(orbit)
    return (chk.expect(f"{name}_closes",
                       all(f(orbit[i]) == orbit[(i + 1) % p]
                           for i in range(p)), str(orbit))
            and chk.expect(f"{name}_minimal", len(set(orbit)) == p,
                           str(orbit)))


# ---------------------------------------------------------------------------
# per-subcommand oracles


def oracle_certify(opts, body, chk: Checker):
    _, r, f = parse_map(opts["--map"])
    p = int(opts.get("--p", 3))
    k = int(opts.get("--k", 10))
    depth = int(opts.get("--depth", 2))
    n_random = int(opts.get("--random-candidates", 10))
    payload = json.loads("\n".join(body))
    cert = payload["certificate"]
    a, b = Fraction(cert["a"]), Fraction(cert["b"])
    chk.expect("cert_params", (cert["mode"], cert["p"], cert["k"])
               == ("increasing", p, k), str(cert))
    chk.expect("cert_width", b - a >= Fraction(1, 18), f"{a}..{b}")
    orbit = [a]
    for _ in range(p - 1):
        orbit.append(f(orbit[-1]))
    if check_exact_cycle(chk, "cert_cycle", f, orbit):
        chk.expect("cert_cycle_increasing",
                   rank_itinerary(orbit) == rank_itinerary(range(p)),
                   str(orbit))
        chk.expect("cert_gap_consecutive", b in orbit and not any(
            a < x < b for x in orbit), f"{a}..{b} in {orbit}")
    rho = rho_inc(p)
    count = cert["count"]
    laps = lap_counts(f, Fraction(1, 2), k)[-1]
    chk.expect("cert_count_range", rho**k / 2 * (1 - 1e-12) <= count <= laps,
               f"count={count} need={rho**k / 2:.3f} laps={laps}")
    if r == 1:
        chk.expect("cert_count_full_tent", count == 2**k, f"count={count}")
        if p == 3:
            chk.expect("cert_interval_full_tent",
                       (a, b) == (Fraction(4, 9), Fraction(8, 9)),
                       f"{a}..{b}")
    thr = payload["width_threshold"]
    u_max = rho ** (k / depth) / 8
    chk.expect("width_threshold",
               math.isclose(thr["u_max"], u_max, rel_tol=1e-9)
               and thr["vacuous"] == (u_max < 1), str(thr))

    names = [c["name"] for c in payload["candidates"]]
    want = (["decimated_8", "lstsq_8", "eps_approx"]
            + [f"random_{i}" for i in range(n_random)])
    chk.expect("candidate_names", names == want, str(names))
    sample = min(count, int(rho**k) // 2)
    for c in payload["candidates"]:
        n = c["name"]
        chk.expect(f"{n}_violations", c["violations"] == [],
                   str(c["violations"]))
        chk.expect(f"{n}_sample_size", c["sample_size"] == sample,
                   f"{c['sample_size']} != {sample}")
        floor = 0.5 - c["g_pieces"] / c["sample_size"]
        if c["g_pieces"] < count:
            floor = max(floor, 0.25)
        chk.expect(f"{n}_cls_floor", c["cls_error"] >= floor - 1e-12,
                   f"cls={c['cls_error']} floor={floor}")
        chk.expect(f"{n}_norms", 0 <= c["l1"] <= c["linf"] + 1e-12 <= 1 + 1e-12,
                   f"l1={c['l1']} linf={c['linf']}")
    eps = [c for c in payload["candidates"] if c["name"] == "eps_approx"]
    chk.expect("eps_approx_linf", bool(eps) and eps[0]["linf"] <= 1 / 8,
               str(eps))


def oracle_cycles(opts, body, chk: Checker):
    _, r, f = parse_map(opts["--map"])
    p_max = int(opts.get("--p-max", 6))
    records = json.loads("\n".join(body))
    per_period = Counter()
    seen = set()
    for i, rec in enumerate(records):
        orbit = [Fraction(x) for x in rec["orbit"]]
        p = rec["period"]
        per_period[p] += 1
        name = f"cycle{i}"
        chk.expect(f"{name}_period", len(orbit) == p and 1 <= p <= p_max,
                   str(rec))
        if not check_exact_cycle(chk, name, f, orbit):
            continue
        chk.expect(f"{name}_starts_at_min", orbit[0] == min(orbit))
        itin = rank_itinerary(orbit)
        chk.expect(f"{name}_itinerary", rec["itinerary"] == itin,
                   f"{rec['itinerary']} != {itin}")
        chk.expect(f"{name}_increasing_flag", rec["flags"]["increasing"]
                   == (itin == rank_itinerary(range(p))))
        chk.expect(f"{name}_residual", rec["residual"] == 0)
        chk.expect(f"{name}_unique", frozenset(orbit) not in seen)
        seen.add(frozenset(orbit))
    if r == 1:
        got = [per_period[p] for p in range(1, p_max + 1)]
        want = [necklaces(p) for p in range(1, p_max + 1)]
        chk.expect("necklace_counts", got == want, f"{got} != {want}")


def oracle_counterexample(opts, body, chk: Checker):
    eps = Fraction(opts.get("--eps", "1/10"))
    payload = json.loads("\n".join(body))
    flags = {"need_symmetry": (False, True), "need_concavity": (True, False)}
    for name, (sym, conc) in flags.items():
        rep = payload[name]
        chk.expect(f"{name}_structure",
                   (rep["symmetric"], rep["concave"]) == (sym, conc),
                   str(rep))
        chk.expect(f"{name}_approx", rep["max_linf_error"] <= eps,
                   str(rep["max_linf_error"]))
        chk.expect(f"{name}_width3", rep["net_width"] == 3,
                   str(rep["net_width"]))


def oracle_synth(opts, body, chk: Checker):
    _, r, f = parse_map(opts["--map"])
    k = int(opts.get("--k", 6))
    payload = json.loads("\n".join(body))
    laps = lap_counts(f, Fraction(1, 2), k)[-1]
    chk.expect("k", payload["k"] == k)
    # tent laps are linear with alternating slopes, so knots = laps + 1
    chk.expect("shallow_shape", payload["shallow"] == {"width": laps,
                                                      "depth": 2},
               f"{payload['shallow']} laps={laps}")
    if r == 1:  # f^k has 2^k + 1 knots, one hidden unit per piece
        chk.expect("knots_full_tent", payload["shallow"]["width"] == 2**k,
                   str(payload["shallow"]))
    chk.expect("deep_shape", payload["deep"] == {"width": 2, "depth": 2 * k},
               str(payload["deep"]))
    layers = [([[Fraction(x) for x in row] for row in layer["w"]],
               [Fraction(x) for x in layer["b"]])
              for layer in payload["network"]["layers"]]
    chk.expect("network_width", len(layers) == 2
               and len(layers[0][0]) == laps, str(len(layers)))
    knots = sorted(-b for b in layers[0][1]) + [Fraction(1)]
    step = max(1, len(knots) // 32)
    xs = knots[::step] + [(u + v) / 2 for u, v in
                          zip(knots[::step], knots[1::step])] + [Fraction(1)]
    bad = [x for x in xs if relu_forward(layers, x) != iterate_at(f, x, k)]
    chk.expect("network_equals_iterate", not bad, f"differs at {bad[:3]}")


def oracle_warmup(opts, body, chk: Checker):
    from itermaps.warmup import toy_map

    k_max = int(opts.get("--k-max", 14))
    header, *rows = [line.split(",") for line in body if line]
    chk.expect("header", header == ["k", "M_1234", "M_123", "M_1324", "pow2"],
               str(header))
    table = [[int(v) for v in row] for row in rows]
    chk.expect("rows", [row[0] for row in table]
               == list(range(1, k_max + 1)))
    chk.expect("pow2", all(row[4] == 2 ** row[0] for row in table))
    for col, name in enumerate(("1234", "123", "1324"), start=1):
        m = toy_map(name)
        knots = m.to_pl().knots
        want = lap_counts(lambda x: pl_eval(knots, x), m.apex_x, k_max)
        got = [row[col] for row in table]
        chk.expect(f"laps_{name}", got == want, f"{got} != {want}")


def oracle_phase(opts, body, chk: Checker):
    specs = opts["--maps"].split(",")
    k_max = int(opts.get("--k-max", 14))
    entries = json.loads("\n".join(body))
    chk.expect("entries", len(entries) == len(specs))
    for spec, e in zip(specs, entries):
        kind, r, f = parse_map(spec)
        name = spec.replace(":", "_")
        counts = e["counts"]
        chk.expect(f"{name}_counts_len", len(counts) == k_max)
        if kind == "tent":
            want = lap_counts(f, Fraction(1, 2), k_max)
            chk.expect(f"{name}_laps", counts == want, f"{counts} != {want}")
            h = math.log(2 * r)
            if r == 1:
                chk.expect(f"{name}_counts_pow2", counts == [
                    2**k for k in range(1, k_max + 1)])
                chk.expect(f"{name}_entropy_ln2",
                           math.isclose(e["entropy"], h, rel_tol=1e-9),
                           str(e["entropy"]))
            else:
                chk.expect(f"{name}_entropy_ln2r",
                           abs(e["entropy"] - h) <= 0.01 * h,
                           f"{e['entropy']} vs {h}")
        if kind == "logistic" and r == 0.8671:
            chk.expect(f"{name}_doubling", e["regime"] == "doubling",
                       e["regime"])
        if kind == "logistic" and r == 0.99:
            chk.expect(f"{name}_chaotic", e["regime"] == "chaotic",
                       e["regime"])
        if e["regime"] == "chaotic":
            w = e["witness"]
            if kind == "tent":
                orbit = [Fraction(x) for x in w["orbit"]]
                ok = check_exact_cycle(chk, f"{name}_witness", f, orbit)
            else:
                orbit = w["orbit"]
                ok = chk.expect(f"{name}_witness_closes", all(
                    abs(f(orbit[i]) - orbit[(i + 1) % len(orbit)]) <= 1e-9
                    for i in range(len(orbit))), str(orbit))
            if ok:
                chk.expect(f"{name}_witness_itinerary",
                           rank_itinerary(orbit) == w["itinerary"])
        if "shatter" in e:
            sh = e["shatter"]
            pts = [Fraction(x) for x in sh["points"]]
            chk.expect(f"{name}_shatter_complete",
                       len(sh["table"]) == 2 ** sh["d"] == 2 ** len(pts))
            for sigma, k in sh["table"].items():
                got = "".join("1" if iterate_at(f, x, k) >= Fraction(1, 2)
                              else "0" for x in pts)
                chk.expect(f"{name}_shatter_{sigma}", got == sigma,
                           f"k={k} gives {got}")


def oracle_bifurcation(opts, body, chk: Checker):
    family = opts.get("--family", "logistic")
    meta = json.loads(body[-1])
    steps = int(opts.get("--steps", meta["steps"]))
    chk.expect("metadata", meta["family"] == family
               and meta["steps"] == steps, str(meta))
    r_lo = float(opts.get("--r-lo", 0.6))
    r_hi = float(opts.get("--r-hi", 1.0))
    grid = [r_lo + (r_hi - r_lo) * i / max(steps - 1, 1)
            for i in range(steps)]
    grid = [r for r in grid if 0 < r <= 1]
    slices: dict[float, list[float]] = {}
    chk.expect("header", body[0] == "r,x", body[0])
    for line in body[1:-1]:
        r, x = line.split(",")
        slices.setdefault(float(r), []).append(float(x))
    rs = list(slices)
    chk.expect("grid", len(rs) == len(grid) and all(
        abs(a - b) <= 1e-11 for a, b in zip(rs, grid)),
        f"{len(rs)} slices, want {len(grid)}")
    chk.expect("tails", all(len(t) == meta["keep"] for t in slices.values()))
    chk.expect("range", all(0 <= x <= r + 1e-12
                            for r, t in slices.items() for x in t))
    if family == "logistic":
        for r0, want in ((0.7, 1), (0.8, 2), (0.87, 4)):
            r = min(rs, key=lambda v: abs(v - r0))
            got = cluster_count(slices[r])
            chk.expect(f"clusters_r{r0}", got == want, f"{got} at r={r}")
    if family == "tent" and 1.0 in slices:
        tail = slices[1.0]
        big = largest_cluster(tail)
        chk.expect("tent_r1_dispersed", big <= 0.10 * len(tail),
                   f"largest cluster {big} of {len(tail)}")


def oracle_superstable(opts, body, chk: Checker):
    header, *rows = [line.split(",") for line in body if line]
    chk.expect("header", header[:4] == ["p", "itinerary", "regime",
                                        "r_solved"], str(header))
    chk.expect("itineraries", tuple(row[1] for row in rows)
               == FORCING_ITINERARIES, str([row[1] for row in rows]))
    for p, itin, regime, r_solved, *_ in rows:
        p, r = int(p), float(r_solved)
        orbit = [0.5]
        for _ in range(p - 1):
            orbit.append(4 * r * orbit[-1] * (1 - orbit[-1]))
        closure = 4 * r * orbit[-1] * (1 - orbit[-1])
        gaps = min((abs(a - b) for i, a in enumerate(orbit)
                    for b in orbit[i + 1:]), default=1.0)
        chk.expect(f"row_{itin}_closes", abs(closure - 0.5) <= SUPERSTABLE_TOL
                   and gaps > 1e-7, f"r={r} closure={closure}")
        chk.expect(f"row_{itin}_itinerary", rank_itinerary(orbit) == itin,
                   rank_itinerary(orbit))
        power_of_two = p & (p - 1) == 0
        chk.expect(f"row_{itin}_regime", regime == "chaotic"
                   or (regime == "doubling" and power_of_two), regime)


ORACLES = {
    "certify": oracle_certify,
    "cycles": oracle_cycles,
    "counterexample": oracle_counterexample,
    "synth": oracle_synth,
    "warmup": oracle_warmup,
    "phase": oracle_phase,
    "bifurcation": oracle_bifurcation,
    "superstable": oracle_superstable,
}


def check(argv: list[str], rc, out: str) -> Checker:
    """Run every check for one operation; rc is None when it raised."""
    opts = parse_opts(argv)
    command = opts["command"]
    chk = Checker(command)
    if not chk.expect("completed", rc is not None, "raised an exception"):
        return chk
    asserts, body = split_output(out)
    for name, tag in asserts.items():
        if name in PUBLISHED_VALUE_ASSERTS:
            chk.notes.append(f"ASSERT {tag} {name}: "
                             f"{PUBLISHED_VALUE_ASSERTS[name]}")
            continue
        chk.expect(f"assert_{name}", tag == "PASS", tag)
    want_rc = 1 if "FAIL" in asserts.values() else 0
    chk.expect("exit_code", rc == want_rc, f"rc={rc} want {want_rc}")
    try:
        ORACLES[command](opts, body, chk)
    except Exception as exc:
        # output the oracle cannot read is a failed operation, not a crash
        chk.expect("parse", False, f"{type(exc).__name__}: {exc}")
    return chk
