"""Command-line front end: tables, sweeps, certificates, and phase reports.

Every command prints its assertions machine-readably (`ASSERT PASS|FAIL name
:: detail`) and the exit code reflects them: 0 ok, 1 assertion failure,
2 usage error, 3 resource cap.  Output is deterministic for a fixed
configuration; floats are printed at 12 significant digits and --seed only
affects random candidate sweeps.  The shared options --out, --cap and
--seed may be given before or after the subcommand.

certify's certificate rule is ``hardness.certificate``'s.  --cap bounds what
certify, cycles, phase, synth, counterexample and warmup build knot by knot:
f^k in ``pl.iterate``, in ``cycles.find_cycles`` on PL maps (warmup's
maximality check of the 1324 map included) and in
``hardness.counterexample_report``, and ``relunet.net_to_pl``.  Lap and
crossing counts take no cap, so certificates, phase counts and warmup's
growth series reach any depth.  certify, synth, the cycle search (at p_max)
and counterexample_report (at k_max) refuse f^k of a strictly unimodal map
before building it when its lap count alone passes the cap
(``oscillation.refuse_oversized``): every turning point of f^k is a knot, so
f^k holds at least M(f^k) + 1 knots, and the refusal is the error
``pl.compose`` would raise.  phase reads the search only up to its first
chaotic cycle, but its cap is still decided at p_max, before the first
period.  When the cap stops certify's candidate stage, the certificate is
written with no candidates before the command exits 3.

This module is the only JSON writer.  The library's records return plain
data from ``to_dict``, with exact values left as Fractions.  ``dump`` writes
every JSON artifact but bifurcation's metadata, which is one sorted line of
``json.dumps``.  It builds the text of ``json.dumps(obj, sort_keys=True,
indent=1)`` directly, with a Fraction written as the string "n/d", for what
the commands emit and no more: str, int, float, bool, None, Fraction, list,
tuple and dict by exact type, and str or int keys.  Anything else is a
TypeError, and NaN or an infinity a ValueError, as with ``allow_nan=False``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import (bifurcation, cycles, hardness, maps, oscillation, pl, relunet,
               spectra, svgplot, vcbounds, warmup)
from .errors import CertificateError, ResourceLimitError


def fmt(x) -> str:
    # float first: the isinstance check against Fraction goes through the
    # numbers ABCs and is several times slower
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _float(x: float) -> str:
    """json's float text.  NaN and the infinities are refused, as
    json.dumps(allow_nan=False) refuses them: no command makes one."""
    if not math.isfinite(x):
        raise ValueError(f"float {x!r} is not JSON compliant")
    return float.__repr__(x)


#: the JSON text of a scalar of exactly this type
_SCALAR = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    Fraction: lambda q: f'"{q.numerator}/{q.denominator}"',
}


def _key(k) -> str:
    """A dict key, before it is quoted: a str, or an int (vc's
    doubling_bounds), by exact type."""
    t = type(k)
    if t is str:
        return k
    if t is int:
        return int.__repr__(k)
    raise TypeError(f"keys must be str or int, not {t.__name__}")


def _json(x, nl: str) -> str:
    """x as JSON; nl is the newline and indent of x's own line.  Types
    dispatch exactly: a subclass of any of them is not JSON serializable."""
    t = type(x)
    write = _SCALAR.get(t)
    if write is not None:
        return write(x)
    if t is list or t is tuple:
        return _array(x, nl)
    if t is dict:
        return _object(x, nl)
    raise TypeError(f"{t.__name__} is not JSON serializable")


def _array(xs, nl: str) -> str:
    if not xs:
        return "[]"
    inner = nl + " "
    return ("[" + inner + ("," + inner).join([_json(x, inner) for x in xs])
            + nl + "]")


def _object(d: dict, nl: str) -> str:
    if not d:
        return "{}"
    inner = nl + " "
    return ("{" + inner + ("," + inner).join(
        [encode_basestring_ascii(_key(k)) + ": " + _json(v, inner)
         for k, v in sorted(d.items())]) + nl + "}")


def dump(obj) -> str:
    """obj as an indented JSON document with sorted keys and a Fraction as
    the string "n/d", ending in a newline.

    The text is json.dumps(obj, sort_keys=True, indent=1) byte for byte,
    and must stay so.  It is not built by json.dumps: before Python 3.13,
    an indent makes json use its pure-Python encoder, which with one
    default call per Fraction was synth's largest cost after net_to_pl.
    """
    return _json(obj, "\n") + "\n"


def parse_map(spec: str) -> maps.UnimodalMap:
    """kind:r with r a fraction or decimal string, e.g. tent:1, logistic:0.958.

    An r the family rejects is a usage error that names the spec.
    """
    kind, _, r = spec.partition(":")
    if not r:
        raise argparse.ArgumentTypeError(f"map spec needs kind:r, got {spec!r}")
    cls = maps.FAMILIES.get(kind)
    if cls is None:
        raise argparse.ArgumentTypeError(f"unknown map kind {kind!r}")
    try:
        return cls(r)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad map spec {spec!r}: {exc}") from None


def _int_at_least(lo: int, hi: int | None = None):
    """An argparse type: an int in lo..hi (no upper bound if hi is None).

    Out of range is a usage error (exit 2); a non-integer keeps argparse's
    "invalid int value" message, which names the type by its __name__.
    """
    def parse(text: str) -> int:
        k = int(text)
        if k < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {k}")
        if hi is not None and k > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {k}")
        return k

    parse.__name__ = "int"
    return parse


def _fraction(text: str) -> Fraction:
    """An argparse type: a Fraction such as 1/10 or 0.1 (exit 2 otherwise)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a fraction: {text!r}") from None


class Reporter:
    def __init__(self):
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = ""):
        tag = "PASS" if ok else "FAIL"
        if not ok:
            self.failures += 1
        print(f"ASSERT {tag} {name} :: {detail}")

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0


def _write(out_dir: str | None, name: str, text):
    """Write text, one string or an iterable of string chunks written as
    each is made, to stdout or, given out_dir, to the file out_dir/name."""
    if isinstance(text, str):
        text = (text,)
    if out_dir is None:
        sys.stdout.writelines(text)
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / name, "w") as fh:
        fh.writelines(text)
    print(f"wrote {path / name}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_rho_table(args) -> int:
    rep = Reporter()
    rows = spectra.rho_table()
    lines = ["p,rho_inc,fact_lower_bound,rho_odd"]
    for row in rows:
        odd = fmt(row["rho_odd"]) if row["rho_odd"] is not None else "n/a"
        lines.append(f"{row['p']},{fmt(row['rho_inc'])},"
                     f"{fmt(row['fact_lower_bound'])},{odd}")
        rep.check(f"rho_bracket_p{row['p']}",
                  row["fact_lower_bound"] <= row["rho_inc"] < 2,
                  f"rho_inc={row['rho_inc']:.6f}")
    _write(args.out, "rho_table.csv", "\n".join(lines) + "\n")
    return rep.exit_code


def cmd_superstable(args) -> int:
    rep = Reporter()
    rows = cycles.solve_forcing_table()
    lines = ["p,itinerary,regime,r_solved,r_paper,abs_delta"]
    for row in rows:
        lines.append(
            f"{row['p']},{row['itinerary']},{row['regime']},"
            f"{fmt(row['r_solved'])},{fmt(row['r'])},{fmt(row['delta'])}")
        rep.check(f"superstable_{row['itinerary']}", row["delta"] <= 5e-4,
                  f"r_solved={row['r_solved']:.6f} vs paper {row['r']}")
    rs = [row["r_solved"] for row in rows]
    rise = min(b - a for a, b in zip(rs, rs[1:]))
    rep.check("superstable_mss_order", rise > 0,
              f"smallest rise {rise:.6f} over {len(rs)} rows")
    _write(args.out, "superstable.csv", "\n".join(lines) + "\n")
    return rep.exit_code


def cmd_warmup(args) -> int:
    rep = Reporter()
    k_max = args.k_max
    series = warmup.growth_comparison(k_max)
    lines = ["k," + ",".join(f"M_{name}" for name in series) + ",pow2"]
    for k in range(1, k_max + 1):
        row = [str(k)] + [str(s.counts[k - 1]) for s in series.values()]
        row.append(str(2**k))
        lines.append(",".join(row))
    _write(args.out, "warmup_growth.csv", "\n".join(lines) + "\n")

    s1234, s123, s1324 = (series[n] for n in ("1234", "123", "1324"))
    rep.check("ordering_from_k6",
              all(s1234.counts[k] > s123.counts[k] > s1324.counts[k]
                  for k in range(5, k_max)),
              "M(1234) > M(123) > M(1324) for k >= 6")
    hi = min(14, k_max)
    g1234 = s1234.geometric_rate(8, hi)
    g123 = s123.geometric_rate(8, hi)
    rep.check("rate_1234", 1.74 <= g1234 <= 1.94, f"geom[8,{hi}]={g1234:.4f}")
    rep.check("rate_123", 1.55 <= g123 <= 1.68, f"geom[8,{hi}]={g123:.4f}")
    rep.check("poly_cap_1324",
              all(c <= 2 * (4 * k) ** 3
                  for k, c in enumerate(s1324.counts, 1)),
              "M(1324,k) <= 2(4k)^3")
    rep.check("rate_1324", s1324.rates[-1] <= 1.2,
              f"log-rate at k={k_max}: {s1324.rates[-1]:.4f}")
    rep.check("maximal_1324",
              warmup.itinerary_1324_is_maximal(cap=args.cap),
              "no period-8 or odd cycle <= 9")

    if args.out is not None:
        plot = svgplot.line_plot(
            [(name, [(k, c) for k, c in enumerate(s.counts, 1)])
             for name, s in series.items()]
            + [("2^k", [(k, 2.0**k) for k in range(1, k_max + 1)])],
            title="monotone pieces of iterated toy maps",
            x_label="k", y_label="M(f^k)")
        _write(args.out, "warmup_growth.svg", plot)
    return rep.exit_code


def cmd_bifurcation(args) -> int:
    if not 0 < args.r_lo <= args.r_hi <= 1:
        print(f"bifurcation needs 0 < r_lo <= r_hi <= 1, got r_lo "
              f"{args.r_lo} and r_hi {args.r_hi}", file=sys.stderr)
        return 2
    kind = args.family
    data = bifurcation.sweep(kind, args.r_lo, args.r_hi, steps=args.steps,
                             burn=args.burn, keep=args.keep)
    meta = {"family": kind, "x0": bifurcation.X0, "burn": args.burn,
            "keep": args.keep, "steps": args.steps}
    # one r-slice at a time: the sweep's block and one slice's text are
    # held, not the whole text
    _write(args.out, f"bifurcation_{kind}.csv", data.csv())
    _write(args.out, f"bifurcation_{kind}.json",
           json.dumps(meta, sort_keys=True) + "\n")
    if args.out is not None:
        # two more passes of the sweep: the SVG's bounds, then its dots
        _write(args.out, f"bifurcation_{kind}.svg",
               svgplot.scatter(data, title=f"{kind} bifurcation",
                               x_label="r", y_label="x"))
    return 0


def cmd_certify(args) -> int:
    rep = Reporter()
    m = args.map
    p, k, depth = args.p, args.k, args.depth
    if not 1 <= depth <= k:
        print(f"certify needs 1 <= depth <= k, got depth {depth} and k {k}",
              file=sys.stderr)
        return 2
    if k < 2:
        # every rate is below 2, so the rate^k / 2 alternation points of
        # the adversarial sample round down to none at k = 1
        print(f"certify needs k >= 2, got k {k}", file=sys.stderr)
        return 2
    cert = hardness.certificate(m, cycles.find_cycles(m, p, cap=args.cap),
                                p, k)
    u_max = hardness.width_threshold(cert, depth)
    payload = {"certificate": cert.to_dict(),
               "width_threshold": {"u_max": u_max, "vacuous": u_max < 1},
               "candidates": []}

    def write():
        _write(args.out, "certify.json", dump(payload))

    if m.is_exact:
        try:
            oscillation.refuse_oversized(m, k, args.cap)
            fk = pl.iterate(m.to_pl(), k, cap=args.cap)
        except ResourceLimitError:
            write()  # keep the proved certificate, then exit 3
            raise
        sample = hardness.adversarial_sample(fk, cert)
        rng = random.Random(args.seed)
        cands = [("decimated_8", hardness.decimated_candidate(fk, 8)),
                 ("lstsq_8", hardness.least_squares_candidate(fk, 8)),
                 ("eps_approx", relunet.eps_approx(fk, Fraction(1, 8)))]
        cands += [(f"random_{i}", hardness.random_candidate(rng, 8))
                  for i in range(args.random_candidates)]
        for name, g in cands:
            report = hardness.certify_against_candidate(fk, g, cert, sample)
            payload["candidates"].append(
                {"name": name, **report.to_dict()})
            rep.check(f"counting_floor_{name}", report.ok,
                      f"cls={float(report.cls_error):.4f} "
                      f"pieces={report.g_pieces}")
    write()
    return rep.exit_code


def cmd_cycles(args) -> int:
    found = cycles.find_cycles(args.map, args.p_max, cap=args.cap)
    _write(args.out, "cycles.json", dump([c.to_dict() for c in found]))
    return 0


def cmd_phase(args) -> int:
    rep = Reporter()
    for m in args.maps:
        if not m.strictly_unimodal:  # the lap walk needs one maximizer
            print(f"phase needs strictly unimodal maps: {m.kind} map has "
                  "no unique maximizer", file=sys.stderr)
            return 2
    out = []
    for m in args.maps:
        witness = cycles.regime_witness(
            cycles.cycles_by_period(m, args.p_max, cap=args.cap))
        doubling = witness.primary  # every search finds the fixed point 0
        series = oscillation.entropy_estimate(m, args.k_max)
        entry = {
            "map": m.to_dict(),
            "regime": "doubling" if doubling else "chaotic",
            "q": witness.period.bit_length() - 1 if doubling else None,
            "entropy": series.entropy,
            "rates": list(series.rates),
            "counts": list(series.counts),
        }
        if doubling:
            entry["vc_bound"] = vcbounds.doubling_vc_bound(witness.period)
            if args.k_max >= 9:  # rates from k=8 need two to compare
                tail = series.rates[7:]
                rep.check(f"doubling_rates_decrease_{fmt(m.r)}",
                          all(b < a for a, b in zip(tail, tail[1:])),
                          "per-k rates strictly decreasing from k=8")
        else:
            entry["witness"] = witness.to_dict()
            if isinstance(m, maps.TentMap) and m.r == 1:
                entry["shatter"] = vcbounds.shatter(args.shatter_d).to_dict()
        out.append(entry)
    _write(args.out, "phase.json", dump(out))
    return rep.exit_code


def cmd_synth(args) -> int:
    rep = Reporter()
    m = args.map
    if not m.is_exact:
        print("synth needs an exact PL map", file=sys.stderr)
        return 2
    oscillation.refuse_oversized(m, args.k, args.cap)
    fk = pl.iterate(m.to_pl(), args.k, cap=args.cap)
    net = relunet.synth_from_pl(fk)
    back = relunet.net_to_pl(net, cap=args.cap)
    rep.check("round_trip", back == fk,
              f"width={net.width} depth={net.depth}")
    block = relunet.synth_from_pl(m.to_pl())
    deep = relunet.stack(block, args.k)
    rep.check("stack_equals_iterate",
              relunet.net_to_pl(deep, cap=args.cap) == fk,
              f"deep: width={deep.width} depth={deep.depth}")
    payload = {"k": args.k, "shallow": {"width": net.width,
                                        "depth": net.depth},
               "deep": {"width": deep.width, "depth": deep.depth},
               "network": net.to_dict()}
    _write(args.out, "synth.json", dump(payload))
    return rep.exit_code


def cmd_vc(args) -> int:
    rep = Reporter()
    try:
        expr = vcbounds.parse_regex(args.regex)
    except ValueError as exc:
        print(f"vc cannot parse --regex: {exc}", file=sys.stderr)
        return 2
    bound = vcbounds.vcw_bound(expr)
    payload = {"regex": args.regex, "vcw_bound": bound,
               "interleave_constant_note":
               "statement says 4max+2; proof gives 4d+3; 4max+3 implemented"}
    if args.regex == "1*0(01)^inf|10^inf":
        rep.check("worked_example_bound", bound <= 4, f"bound={bound}")
    if args.shatter_d:
        payload["shatter"] = vcbounds.shatter(args.shatter_d).to_dict()
    payload["doubling_bounds"] = {p: vcbounds.doubling_vc_bound(p)
                                  for p in (1, 2, 4, 8)}
    _write(args.out, "vc.json", dump(payload))
    return rep.exit_code


def cmd_counterexample(args) -> int:
    rep = Reporter()
    eps = args.eps
    if not 0 < eps < Fraction(1, args.p):
        # build_need_symmetry's concave shoulder needs eps < 1/p
        print(f"counterexample needs 0 < eps < 1/p, got eps {eps} "
              f"and p {args.p}", file=sys.stderr)
        return 2
    out = {}
    for name, build in (("need_symmetry", hardness.build_need_symmetry),
                        ("need_concavity", hardness.build_need_concavity)):
        m = build(args.p, eps)
        report = hardness.counterexample_report(m, eps, k_max=args.k_max,
                                                cap=args.cap)
        out[name] = {
            "symmetric": report["symmetric"], "concave": report["concave"],
            "max_linf_error": float(report["max_linf_error"]),
            "net_width": report["net_width"],
        }
        rep.check(f"{name}_structure",
                  report["symmetric"] != report["concave"],
                  f"symmetric={report['symmetric']} "
                  f"concave={report['concave']}")
        rep.check(f"{name}_approx", report["max_linf_error"] <= eps,
                  f"max L-inf over k<={args.k_max}: "
                  f"{float(report['max_linf_error']):.4f}")
        rep.check(f"{name}_width3", report["net_width"] == 3, "three ReLUs")
    _write(args.out, "counterexample.json", dump(out))
    return rep.exit_code


# ---------------------------------------------------------------------------


#: options accepted before or after the subcommand, as (flag, add_argument
#: keywords); the keywords hold the default used when the option is absent
SHARED_OPTIONS = (
    ("--out", {"default": None, "help": "output directory (default: stdout)"}),
    ("--cap", {"type": _int_at_least(1), "default": pl.DEFAULT_KNOT_CAP,
               "help": "most knots a PL f^k or network built by certify, "
                       "cycles, phase, synth, counterexample or warmup may "
                       "hold (exit 3 beyond it)"}),
    ("--seed", {"type": int, "default": 0,
                "help": "seed for random candidate sweeps"}),
)


def _add_shared_options(parser: argparse.ArgumentParser, defaults: bool):
    """Add SHARED_OPTIONS to parser.

    The top-level parser sets the defaults.  The subcommand parsers suppress
    them: a subparser writes every value it holds over the namespace parsed
    before the subcommand, so a default there would reset an option given
    before it.
    """
    for flag, kwargs in SHARED_OPTIONS:
        if not defaults:
            kwargs = {**kwargs, "default": argparse.SUPPRESS}
        parser.add_argument(flag, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The itermaps argument parser, built once per process.

    Parsing reads the parser and writes only the namespace it returns, so
    every ``main`` call shares one; an option given in one call leaves the
    next call's defaults as they were.
    """
    ap = argparse.ArgumentParser(
        prog="itermaps",
        description="iterated unimodal maps: tables, certificates, phases")
    _add_shared_options(ap, defaults=True)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("rho-table", help="polynomial-root table").set_defaults(
        fn=cmd_rho_table)

    sub.add_parser("superstable",
                   help="solve the logistic forcing table").set_defaults(
        fn=cmd_superstable)

    w = sub.add_parser("warmup", help="toy-map growth comparison")
    # the growth rates of warmup span k = 8 .. min(14, k_max)
    w.add_argument("--k-max", type=_int_at_least(9), default=14)
    w.set_defaults(fn=cmd_warmup)

    b = sub.add_parser("bifurcation", help="parameter sweep orbit cloud")
    b.add_argument("--family", default="logistic",
                   choices=tuple(maps.FAMILIES))
    b.add_argument("--r-lo", type=float, default=0.6)
    b.add_argument("--r-hi", type=float, default=1.0)
    b.add_argument("--steps", type=_int_at_least(1),
                   default=bifurcation.DEFAULT_STEPS)
    b.add_argument("--burn", type=_int_at_least(0),
                   default=bifurcation.DEFAULT_BURN)
    b.add_argument("--keep", type=_int_at_least(0),
                   default=bifurcation.DEFAULT_KEEP)
    b.set_defaults(fn=cmd_bifurcation)

    c = sub.add_parser("certify", help="oscillation certificate pipeline")
    c.add_argument("--map", type=parse_map, required=True)
    c.add_argument("--p", type=_int_at_least(3), default=3)
    c.add_argument("--k", type=int, default=10)
    c.add_argument("--depth", type=int, default=2)
    c.add_argument("--random-candidates", type=_int_at_least(0), default=10)
    c.set_defaults(fn=cmd_certify)

    cy = sub.add_parser("cycles", help="list detected cycles")
    cy.add_argument("--map", type=parse_map, required=True)
    cy.add_argument("--p-max", type=_int_at_least(1), default=6)
    cy.set_defaults(fn=cmd_cycles)

    ph = sub.add_parser("phase", help="regime/entropy/VC phase report")
    ph.add_argument("--maps", type=lambda s: [parse_map(t)
                                              for t in s.split(",")],
                    required=True)
    ph.add_argument("--p-max", type=_int_at_least(1), default=8)
    ph.add_argument("--k-max", type=_int_at_least(2), default=14)
    ph.add_argument("--shatter-d", default=2,
                    type=_int_at_least(1, vcbounds.MAX_SHATTER_D))
    ph.set_defaults(fn=cmd_phase)

    sy = sub.add_parser("synth", help="exact ReLU synthesis of f^k")
    sy.add_argument("--map", type=parse_map, required=True)
    sy.add_argument("--k", type=_int_at_least(1), default=6)
    sy.set_defaults(fn=cmd_synth)

    v = sub.add_parser("vc", help="weak-VC calculus and shattering")
    v.add_argument("--regex", default="1*0(01)^inf|10^inf")
    # 0 skips the witness
    v.add_argument("--shatter-d", default=2,
                   type=_int_at_least(0, vcbounds.MAX_SHATTER_D))
    v.set_defaults(fn=cmd_vc)

    ce = sub.add_parser("counterexample",
                        help="symmetry/concavity necessity constructions")
    ce.add_argument("--p", type=_int_at_least(3), default=3)
    ce.add_argument("--eps", type=_fraction, default="1/10")
    ce.add_argument("--k-max", type=_int_at_least(1), default=10)
    ce.set_defaults(fn=cmd_counterexample)

    for parser in sub.choices.values():
        _add_shared_options(parser, defaults=False)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
