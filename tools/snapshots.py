"""The reference-config artifacts: what the six CLI commands write on configs/reference.cfg.

Run from the repository root:

    PYTHONPATH=src python3 tools/snapshots.py --write   # regenerate tests/snapshots/
    PYTHONPATH=src python3 tools/snapshots.py           # list what a fresh run changes; exit 1 if anything

``tests/test_snapshots.py`` makes the same comparison in process. Keys,
headers, row counts, failed (NaN) cells, strings, booleans and integers must
match exactly, and every other float within ``REL_TOL`` relative: numpy's
``power`` may round differently on another CPU, so floats are not compared as
bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile

from blocktrade.cli import run_command
from blocktrade.config import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "reference.cfg")
SNAPSHOTS = os.path.join(ROOT, "tests", "snapshots")
COMMANDS = ("solve", "price", "decompose", "grid", "simulate", "implied-gamma")
REL_TOL = 1e-12


def run(out_dir: str) -> list:
    """Run the six commands on the reference config into ``out_dir``; returns the file names written, sorted."""
    cfg = parse_config(CONFIG)
    return sorted(os.path.basename(path) for command in COMMANDS for path in run_command(command, cfg, out_dir).values())


def load(path: str):
    """A JSON artifact's payload, or a CSV's header and rows, each field a float (None where empty)."""
    with open(path, newline="") as fh:
        if path.endswith(".json"):
            return json.load(fh)
        header, *rows = csv.reader(fh)
    return {"header": header, "rows": [[float(field) if field else None for field in row] for row in rows]}


def differences(got, want, where: str = "") -> list:
    """Where ``got`` differs from ``want``, one line each."""
    if type(got) is not type(want):
        return [f"{where}: {got!r} against {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} against {sorted(want)}"]
        return [line for key in want for line in differences(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} entries against {len(want)}"]
        return [line for i, pair in enumerate(zip(got, want)) for line in differences(*pair, f"{where}[{i}]")]
    if isinstance(want, float) and not math.isnan(want):
        same = abs(got - want) <= REL_TOL * max(abs(got), abs(want))
    else:
        same = got == want or (isinstance(want, float) and math.isnan(got))
    return [] if same else [f"{where}: {got!r} against {want!r}"]


def compare(out_dir: str) -> list:
    """Where the artifacts in ``out_dir`` differ from the snapshots, one line each."""
    names = sorted(os.listdir(SNAPSHOTS))
    if sorted(os.listdir(out_dir)) != names:
        return [f"files {sorted(os.listdir(out_dir))} against {names}"]
    return [line for name in names for line in differences(load(os.path.join(out_dir, name)), load(os.path.join(SNAPSHOTS, name)), name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the snapshots")
    args = parser.parse_args(argv)
    if args.write:
        os.makedirs(SNAPSHOTS, exist_ok=True)
        print("\n".join(run(SNAPSHOTS)))
        return 0
    with tempfile.TemporaryDirectory() as out_dir:
        run(out_dir)
        lines = compare(out_dir)
    print("\n".join(lines) or "every artifact matches its snapshot")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
