"""Mutation check of the test suite: does each listed one-line fault make some test fail?

Each entry of ``tools/mutants.json`` names a file, an exact text that occurs
once in it, the text to put in its place, the tests to run and why the fault
matters. The script copies the repository to a temporary directory, runs the
union of the listed tests there once unchanged (they must pass), then applies
each mutant alone, runs its tests with ``-x`` and restores the file. A mutant
is killed when its tests fail and survives when they pass. The working tree is
never written. Standard library only; the tests need the repository's own
dependencies.

Run from anywhere:

    python3 tools/mutants.py              # every mutant; exit 1 if one survives
    python3 tools/mutants.py NAME ...     # the named mutants only
    python3 tools/mutants.py --list       # names and reasons, nothing run
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIST = os.path.join(ROOT, "tools", "mutants.json")
FIELDS = ("name", "file", "old", "new", "tests", "reason")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".counters", "out")
TIMEOUT_S = 900


def load(path: str = LIST) -> list:
    with open(path) as fh:
        return json.load(fh)


def problems(mutants: list, root: str = ROOT) -> list:
    """What is wrong with the list: a missing field, a repeated name, an old text not found exactly once in its
    file, a new text equal to the old, or a test path that does not exist."""
    found, names = [], set()
    for mutant in mutants:
        name = mutant.get("name", "?")
        missing = [field for field in FIELDS if field not in mutant]
        if missing:
            found.append(f"{name}: missing {', '.join(missing)}")
            continue
        if name in names:
            found.append(f"{name}: listed twice")
        names.add(name)
        path = os.path.join(root, mutant["file"])
        count = open(path).read().count(mutant["old"]) if os.path.isfile(path) else 0
        if count != 1:
            found.append(f"{name}: old text occurs {count} times in {mutant['file']}")
        if mutant["new"] == mutant["old"]:
            found.append(f"{name}: new text equals the old")
        for test in mutant["tests"]:
            if not os.path.exists(os.path.join(root, test.split("::")[0])):
                found.append(f"{name}: no test file {test}")
    return found


def run_tests(tree: str, tests, stop_first: bool) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *(["-x"] if stop_first else []), *tests]
    try:
        done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return done.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="print each mutant's name and reason and exit")
    args = parser.parse_args(argv)
    mutants = load()
    wrong = problems(mutants)
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 2
    unknown = set(args.names) - {m["name"] for m in mutants}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in mutants if not args.names or m["name"] in args.names]
    if args.list:
        for mutant in chosen:
            print(f"{mutant['name']}: {mutant['reason']}")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = os.path.join(scratch, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        targets = list(dict.fromkeys(test for mutant in chosen for test in mutant["tests"]))
        if run_tests(tree, targets, stop_first=False) != 0:
            print("the listed tests fail on the unchanged tree; no mutant was run", file=sys.stderr)
            return 2
        outcomes = {}
        for mutant in chosen:
            path = os.path.join(tree, mutant["file"])
            with open(path) as fh:
                original = fh.read()
            with open(path, "w") as fh:
                fh.write(original.replace(mutant["old"], mutant["new"]))
            try:
                code = run_tests(tree, mutant["tests"], stop_first=True)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            outcome = {0: "survived", 1: "killed", -1: "timeout"}.get(code, f"error {code}")
            outcomes[mutant["name"]] = outcome
            print(f"{outcome:>9}  {mutant['name']}", flush=True)
    tally = {outcome: list(outcomes.values()).count(outcome) for outcome in sorted(set(outcomes.values()))}
    print(", ".join(f"{count} {outcome}" for outcome, count in tally.items()))
    return 0 if set(outcomes.values()) <= {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main())
