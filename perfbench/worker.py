"""One benchmark pass: a fresh process runs one workload's commands in order.

    python3 perfbench/worker.py [--workload NAME] --seed N --launched T [--trace]

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and passes the
``time.monotonic()`` reading taken just before launch (a system-wide clock
on Linux), so set-up time covers interpreter start, the itermaps import and
building the parser.  Each command is ``itermaps.cli.main(argv)`` with stdout
captured.  Oracles run after the last command, outside the timed region and
after peak RSS is read.  The pass prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction


def probe_chunk():
    """A fixed few-millisecond mix of exact-rational, float and text work."""
    acc = Fraction(0)
    for i in range(1, 240):
        acc += Fraction(i, i + 7) * Fraction(3, 11)
    x, seen = 0.3, {}
    for i in range(3000):
        x = 3.9 * x * (1.0 - x)
        seen[i & 63] = f"{x:.12g}"


class SpeedProbe:
    """Samples the machine's speed while commands run.

    On a shared host the same code can run much slower for seconds at a
    time.  Every `interval` seconds a SIGALRM handler times probe_chunk();
    the mean sample is the pass's speed unit, and the time spent probing is
    subtracted from each command's wall time and, when tracing, from the
    self time of the traced call it interrupted.
    """

    def __init__(self, interval: float = 0.2, tracer=None):
        self.interval = interval
        self.tracer = tracer
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe_chunk()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        if self.tracer:
            self.tracer.exclude(dt)

    def __enter__(self):
        self._sample(None, None)  # so that even a short pass has a unit
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_commands(cli, commands, tracer=None, probe=None) -> list[tuple]:
    """(argv, rc, stdout, seconds, error) per command, in order.

    rc is None when the command raised; seconds excludes the time the probe
    spent sampling during the command.
    """
    runs = []
    with tracer or contextlib.nullcontext():
        for argv in commands:
            buf = io.StringIO()
            error = None
            n0 = len(probe.samples) if probe else 0
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
            except (Exception, SystemExit):
                # a command that raises is a failed operation, not a crash
                rc, error = None, traceback.format_exc(limit=-3)
            seconds = time.perf_counter() - t0
            if probe:
                seconds -= sum(probe.samples[n0:])
            runs.append((argv, rc, buf.getvalue(), seconds, error))
    return runs


def check_runs(runs) -> list[dict]:
    """Oracle verdict and timing of each operation."""
    import oracles
    import workloads

    ops = []
    for argv, rc, out, seconds, error in runs:
        chk = oracles.check(argv, rc, out)
        ops.append({"argv": argv, "command": workloads.subcommand(argv),
                    "seconds": seconds, "rc": rc, "error": error,
                    "failures": chk.failures, "notes": chk.notes})
    return ops


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload",
                    help="omit to time the set-up alone and exit")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import itermaps
    from itermaps import cli
    cli.build_parser()
    setup_s = time.monotonic() - args.launched
    if args.workload is None:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # the benchmark's own modules load after the set-up is timed
    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    with SpeedProbe(tracer=tracer) as probe:
        runs = run_commands(cli, workloads.commands(args.workload, args.seed),
                            tracer, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({
        "itermaps_version": itermaps.__version__,
        "traced": args.trace,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": probe.samples,
        "ops": check_runs(runs),
        "stats": tracer.stats if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
