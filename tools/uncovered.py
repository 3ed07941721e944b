"""List every statement of ``src/blocktrade`` that no test executes.

Runs the test suite in this process (``pytest.main``) under a ``sys.settrace``
tracer that records the lines executed in ``src/blocktrade`` and ignores
every other file, then prints each statement none of them reached, as
``path:line: source``, and a count. Docstrings, ``def`` and ``class`` lines
and ``try:`` headers are not statements here; a statement counts as executed
when any line of it ran (of a compound statement, any line of its header).
Standard library only; the tests need the repository's own dependencies.

Run from anywhere (arguments go to pytest; the default is the whole suite):

    python3 tools/uncovered.py
    python3 tools/uncovered.py tests/test_cli.py

Limits:

- Forked grid workers (``value_function._fork_over``) leave by ``os._exit``,
  so the lines only they run are not recorded; a build they share is
  recorded only for the groups the parent process solves. Tests that run
  the package in a subprocess (``python -m blocktrade``) are not traced
  either, so ``__main__.py`` is always listed.
- The tracer makes the suite about twice as slow: 25 s against 11 s for
  the whole suite on a 2-CPU VM.
- A test that fails under the tracer still leaves its lines recorded. The
  allocation tests (``tracemalloc``) pass under it, since a line already
  recorded adds nothing to the set.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "blocktrade")


def statements(path: str) -> dict:
    """Each statement of the module at ``path`` as {first line: the lines that count as running it}."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        node.body[0].lineno
        for node in ast.walk(tree)
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None
    }
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (*scopes, ast.Try)) or node.lineno in docstrings:
            continue
        inner = [child for field in ("body", "orelse", "handlers", "finalbody") for child in getattr(node, field, [])]
        end = min(child.lineno for child in inner) - 1 if inner else node.end_lineno
        found[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return found


def trace(args) -> tuple:
    """Run pytest with ``args`` under the tracer; returns its exit code and the set of (file, line) executed."""
    import pytest

    ran = set()
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    sys.settrace(call)
    try:
        code = pytest.main(list(args))
    finally:
        sys.settrace(None)
    return code, ran


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    code, ran = trace(["-q", "-p", "no:cacheprovider", *args])
    missed = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read().splitlines()
        for line, lines in sorted(statements(path).items()):
            total += 1
            if not any((path, n) in ran for n in lines):
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} statements not executed (pytest exit code {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
