"""Workload definitions: the itermaps commands one pass runs, in order.

A pass is one fresh Python process that calls ``itermaps.cli.main(argv)``
for each command below, one at a time (a closed loop with one client), with
``--jobs`` left at 1.  ``{seed}`` is replaced by the workload seed; only
``certify`` reads it, through the global ``--seed`` placed before the
subcommand, the one position the CLI accepts it in.
"""

from __future__ import annotations

#: why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    # exact pl error norms, point evaluation and find_cycles' iterate calls
    "exact-certify": [
        ["--seed", "{seed}", "certify", "--map", "tent:1", "--k", "10"],
        ["--seed", "{seed}", "certify", "--map", "tent:9/10", "--k", "10"],
        ["cycles", "--map", "tent:1", "--p-max", "10"],
        ["counterexample", "--k-max", "12"],
    ],
    # relunet.net_to_pl over large knot lists
    "relu-synth": [
        ["synth", "--map", "tent:1", "--k", "9"],
        ["synth", "--map", "tent:9/10", "--k", "8"],
    ],
    # preimage trees (exact and float), smooth cycles, bifurcation, bisection
    "entropy-float": [
        ["warmup", "--k-max", "16"],
        ["phase", "--maps",
         "tent:1,tent:9/10,logistic:0.99,logistic:0.8671,sine:0.97",
         "--k-max", "16"],
        ["bifurcation", "--family", "logistic"],
        ["bifurcation", "--family", "tent", "--steps", "400"],
        ["superstable"],
    ],
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's argv lists with the seed filled in."""
    return [[str(seed) if a == "{seed}" else a for a in argv]
            for argv in WORKLOADS[workload]]


def subcommand(argv: list[str]) -> str:
    """The subcommand name of an itermaps argv (global options skipped)."""
    i = 0
    while argv[i].startswith("--"):
        i += 2
    return argv[i]
