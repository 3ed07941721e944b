import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import snapshots  # noqa: E402
from conftest import forking  # noqa: E402


def test_reference_config_artifacts_match_their_snapshots(tmp_path, monkeypatch):
    # the grid run forks over two CPUs wherever a build may fork, so the snapshot holds the forked path
    forks = forking(monkeypatch)
    start = time.perf_counter()
    written = snapshots.run(str(tmp_path))
    assert time.perf_counter() - start < 2.0
    assert len(written) == 8 and len(forks) == (sys.platform == "linux" and sys.version_info < (3, 12))
    assert snapshots.compare(str(tmp_path)) == []


def test_a_snapshot_difference_is_reported(tmp_path):
    # a float past the tolerance, a changed integer, a NaN cell and a missing key each make a line
    want = {"a": 1.0, "n": 3, "cells": [[1.0, float("nan")]], "k": None}
    assert snapshots.differences(want, want) == []
    assert snapshots.differences({**want, "a": 1.0 + 1e-13}, want) == []
    got = {"a": 1.0 + 1e-11, "n": 4, "cells": [[1.0, 2.0]]}
    assert len(snapshots.differences({**got, "k": None}, want)) == 3
    assert snapshots.differences(got, want, "x") == ["x: keys ['a', 'cells', 'n'] against ['a', 'cells', 'k', 'n']"]
