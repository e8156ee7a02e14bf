"""The CLI output manifest: what each listed argv prints, exits and writes.

``cli_outputs.jsonl`` holds one JSON object per line: an ``id``, the
``argv``, and its record: the exit code (``exit``), the sha256 of stdout
(``stdout``), the last line of stderr (``stderr``, empty if none) and the
sha256 of each file written under ``--out`` (``files``).  An argv that
writes files gives ``--out out``: every argv runs in a fresh directory, so
stdout's "wrote out/..." lines do not depend on where it ran.  ``pin`` names
the test class a line was first pinned in.  Lines that start with ``#`` are
notes on the lines below them.

``tests/test_cli.py`` compares every line with a fresh run.  To record new
lines, or lines whose output a change means to alter, run

    PYTHONPATH=src python tests/cli_outputs.py [ID ...]

which re-records the named lines (all lines if none is named), rewrites the
file and prints each line that changed, before and after.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from itermaps.cli import main

MANIFEST = Path(__file__).with_suffix(".jsonl")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv: list[str]) -> dict:
    """Run ``itermaps argv`` in-process in a fresh directory: its exit code,
    stdout digest, last stderr line and --out file digests."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
            files = {p.name: sha256(p.read_bytes())
                     for p in sorted(Path("out").glob("*"))}
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    return {"exit": code, "stdout": sha256(out.getvalue().encode()),
            "stderr": lines[-1] if lines else "", "files": files}


def load() -> list[dict]:
    """The manifest's entries, in file order."""
    return [json.loads(line) for line in MANIFEST.read_text().splitlines()
            if line and not line.startswith("#")]


def rerecord(ids: set[str]) -> None:
    """Re-record the entries named in ids (all if ids is empty), rewrite the
    manifest and print each entry line that changed."""
    lines = MANIFEST.read_text().splitlines()
    for i, line in enumerate(lines):
        if not line or line.startswith("#"):
            continue
        entry = json.loads(line)
        if ids and entry["id"] not in ids:
            continue
        entry.update(record(entry["argv"]))
        new = json.dumps(entry)
        if new != line:
            print(f"- {line}\n+ {new}")
            lines[i] = new
    MANIFEST.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    rerecord(set(sys.argv[1:]))
