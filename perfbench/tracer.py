"""Per-layer tracing of itermaps from outside the package.

Inside ``with Tracer():`` every public function and public method of the
itermaps modules (plus ``__call__`` and ``__post_init__``) is replaced by a
wrapper that counts calls and accumulates inclusive and self time; leaving
the block puts every original back.  Self time is a call's duration minus the time of
the wrapped calls nested in it.  Only totals per function are kept, so the
hot per-point functions (``PiecewiseLinear.__call__``, map ``__call__`` and
``preimages``) are timed in aggregate.  ``itermaps.cli.main`` is wrapped as
the root, so its self time is the command time outside every wrapped layer.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import sys
import time

#: modules whose public functions are wrapped; cli contributes only main
TRACED_MODULES = ("pl", "maps", "oscillation", "cycles", "spectra",
                  "hardness", "relunet", "vcbounds", "warmup", "bifurcation")
DUNDERS = ("__call__", "__post_init__")
#: exact-rational coercion called once per knot coordinate; wrapping it
#: would cost more than the work, so its time stays in the caller's self time
UNWRAPPED = {"pl.rat"}

#: size counters: function key -> size of its return value
SIZES = {
    "pl.compose": lambda r: len(r.knots),
    "relunet.net_to_pl": lambda r: len(r.knots),
    "oscillation.entropy_estimate": lambda r: r.counts[-1],
    "cycles.find_cycles": len,
    "bifurcation.sweep": lambda r: sum(len(tail) for _, tail in r),
}

CALLS, INCL, SELF, SIZE = range(4)
_FIELDS = {"calls": CALLS, "incl": INCL, "self": SELF, "size": SIZE}

#: layer -> metric -> (field, function-key patterns); "moves", "on" and
#: "not_on" record which end-to-end metric each layer should move, on which
#: workload, and where it should stay unchanged
LAYERS = [
    {"layer": "pl composition", "moves": "cycles_s, wall_s; synth_s",
     "on": "exact-certify; relu-synth",
     "not_on": "entropy-float (small share)",
     "metrics": {
         "pl.compose.calls": ("calls", "pl.compose"),
         "pl.compose.self_s": ("self", "pl.compose"),
         "pl.compose.knots_out": ("size", "pl.compose"),
         "pl.iterate.calls": ("calls", "pl.iterate"),
         "pl.iterate.s": ("incl", "pl.iterate"),
         "pl.canon.calls": ("calls", "pl.PiecewiseLinear.__post_init__"),
         "pl.canon.self_s": ("self", "pl.PiecewiseLinear.__post_init__"),
     }},
    {"layer": "pl evaluation/norms", "moves": "certify_s",
     "on": "exact-certify", "not_on": "relu-synth, entropy-float",
     "metrics": {
         "pl.eval.calls": ("calls", "pl.PiecewiseLinear.__call__"),
         "pl.eval.self_s": ("self", "pl.PiecewiseLinear.__call__"),
         "pl.linf_diff.self_s": ("self", "pl.linf_diff"),
         "pl.l1_diff.self_s": ("self", "pl.l1_diff"),
         "pl.crossing_points.calls": ("calls", "pl.crossing_points"),
         "pl.crossing_points.self_s": ("self", "pl.crossing_points"),
     }},
    {"layer": "relunet", "moves": "synth_s, peak_rss_mb; certify_s "
     "(eps_approx)", "on": "relu-synth; exact-certify",
     "not_on": "entropy-float",
     "metrics": {
         "relunet.net_to_pl.calls": ("calls", "relunet.net_to_pl"),
         "relunet.net_to_pl.self_s": ("self", "relunet.net_to_pl"),
         "relunet.net_to_pl.knots_out": ("size", "relunet.net_to_pl"),
         "relunet.synth_from_pl.self_s": ("self", "relunet.synth_from_pl"),
         "relunet.eps_approx.self_s": ("self", "relunet.eps_approx"),
     }},
    {"layer": "oscillation", "moves": "warmup_s, phase_s",
     "on": "entropy-float", "not_on": "exact-certify, relu-synth",
     "metrics": {
         "oscillation.entropy_estimate.calls":
             ("calls", "oscillation.entropy_estimate"),
         "oscillation.entropy_estimate.self_s":
             ("self", "oscillation.entropy_estimate"),
         "oscillation.laps_counted":
             ("size", "oscillation.entropy_estimate"),
         "oscillation.count_crossings_map.calls":
             ("calls", "oscillation.count_crossings_map"),
         "oscillation.count_crossings_map.self_s":
             ("self", "oscillation.count_crossings_map"),
     }},
    {"layer": "maps", "moves": "warmup_s, phase_s, bifurcation_s",
     "on": "entropy-float", "not_on": "relu-synth",
     "metrics": {
         "maps.preimages.calls": ("calls", "maps.*.preimages"),
         "maps.preimages.self_s": ("self", "maps.*.preimages"),
         "maps.eval.calls": ("calls", "maps.*.__call__"),
         "maps.eval.self_s": ("self", "maps.*.__call__"),
     }},
    {"layer": "cycles", "moves": "cycles_s (exact); phase_s, wall_s "
     "(smooth, bisection)", "on": "exact-certify; entropy-float",
     "not_on": "relu-synth",
     "metrics": {
         "cycles.find_cycles.calls": ("calls", "cycles.find_cycles"),
         "cycles.find_cycles.self_s": ("self", "cycles.find_cycles"),
         "cycles.find_cycles.records": ("size", "cycles.find_cycles"),
         "cycles.superstable_r.calls": ("calls", "cycles.superstable_r"),
         "cycles.superstable_r.self_s": ("self", "cycles.superstable_r"),
     }},
    {"layer": "hardness", "moves": "certify_s", "on": "exact-certify",
     "not_on": "relu-synth, entropy-float",
     "metrics": {
         "hardness.increasing_certificate.self_s":
             ("self", "hardness.increasing_certificate"),
         "hardness.certify_against_candidate.self_s":
             ("self", "hardness.certify_against_candidate"),
         "hardness.candidates.self_s":
             ("self", "hardness.decimated_candidate",
              "hardness.least_squares_candidate", "hardness.random_candidate"),
         "hardness.adversarial_sample.self_s":
             ("self", "hardness.adversarial_sample"),
     }},
    {"layer": "bifurcation", "moves": "bifurcation_s", "on": "entropy-float",
     "not_on": "exact-certify, relu-synth",
     "metrics": {
         "bifurcation.sweep.self_s": ("self", "bifurcation.sweep"),
         "bifurcation.orbit_tail.calls": ("calls", "bifurcation.orbit_tail"),
         "bifurcation.points": ("size", "bifurcation.sweep"),
     }},
    {"layer": "warmup, spectra, vcbounds", "moves": "warmup_s, phase_s",
     "on": "entropy-float", "not_on": "exact-certify, relu-synth",
     "metrics": {
         "warmup.toy_map.self_s":
             ("self", "warmup.toy_map", "warmup.cycle_interpolant"),
         "spectra.self_s": ("self", "spectra.*"),
         "vcbounds.shatter.self_s": ("self", "vcbounds.shatter"),
     }},
    {"layer": "cli", "moves": "bifurcation_s (6 MB of CSV)",
     "on": "entropy-float", "not_on": "-",
     "metrics": {"cli.self_s": ("self", "cli.main")}},
]


def _public(name: str) -> bool:
    return not name.startswith("_") or name in DUNDERS


def _targets():
    """(owner, attribute, function, key) for every function to wrap."""
    out = []
    for short in TRACED_MODULES:
        mod = sys.modules[f"itermaps.{short}"]
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and _public(name):
                out.append((mod, name, obj, f"{short}.{name}"))
            elif inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    if inspect.isfunction(meth) and _public(mname):
                        out.append((obj, mname, meth,
                                    f"{short}.{name}.{mname}"))
    cli = sys.modules["itermaps.cli"]
    out.append((cli, "main", cli.main, "cli.main"))
    return [t for t in out if t[3] not in UNWRAPPED]


class Tracer:
    """Wraps itermaps functions while entered; keeps totals per function."""

    def __init__(self):
        #: function key -> [calls, inclusive s, self s, size]
        self.stats: dict[str, list] = {}
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        size = SIZES.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[CALLS] += 1
                stat[INCL] += dt
                stat[SELF] += dt - child
            if size is not None:
                stat[SIZE] += size(result)
            return result
        return wrapper

    def __enter__(self):
        if self._patches:
            raise RuntimeError("tracer already entered")
        wrappers = {}
        for owner, name, fn, key in _targets():
            wrappers[id(fn)] = self._wrap(key, fn)
            self._patches.append((owner, name, fn))
            setattr(owner, name, wrappers[id(fn)])
        # modules that imported a function by name hold their own reference
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "itermaps":
                continue
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, w)
        return self

    def exclude(self, seconds: float):
        """Count time spent outside itermaps, such as a probe sample taken
        inside a traced call, as nested time of the innermost traced call."""
        self._stack[-1] += seconds

    def __exit__(self, *exc):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def layer_map() -> list[dict]:
    """LAYERS with metric names only: which layer should move what, where."""
    return [dict(layer, metrics=list(layer["metrics"])) for layer in LAYERS]


def layer_metrics(stats: dict[str, list]) -> dict[str, float]:
    """Per-layer metric values from a tracer's totals."""
    out = {}
    for layer in LAYERS:
        for metric, (field, *patterns) in layer["metrics"].items():
            i = _FIELDS[field]
            out[metric] = sum(
                row[i] for key, row in stats.items()
                if any(fnmatch.fnmatchcase(key, p) for p in patterns))
    return out
