import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "mutants.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_listed_mutant_applies_to_exactly_one_place():
    # tools/mutants.py runs the list (minutes); here only that each entry still points at real code
    tool = load_tool()
    mutants = tool.load()
    assert len(mutants) >= 15
    assert tool.problems(mutants) == []


def test_a_stale_mutant_is_reported(tmp_path):
    tool = load_tool()
    (tmp_path / "module.py").write_text("x = 1\nx = 1\n")
    entry = {"name": "twice", "file": "module.py", "old": "x = 1\n", "new": "x = 2\n", "tests": ["absent.py"], "reason": ""}
    assert tool.problems([entry, {"name": "bare"}], root=str(tmp_path)) == [
        "twice: old text occurs 2 times in module.py",
        "twice: no test file absent.py",
        "bare: missing file, old, new, tests, reason",
    ]
