import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "uncovered.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("uncovered", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_skip_docstrings_definitions_and_try_headers(tmp_path):
    # tools/uncovered.py runs the whole suite under its tracer (a minute); here only what it counts
    source = '''"""Module docstring."""
import os


def f(x):
    """Function docstring."""
    try:
        y = (x
             + 1)
    except ValueError:
        y = 0
    if y > (
        1
    ):
        return y
    return 0
'''
    path = tmp_path / "module.py"
    path.write_text(source)
    found = load_tool().statements(str(path))
    assert {line: list(lines) for line, lines in found.items()} == {
        2: [2],  # import os
        8: [8, 9],  # a statement over two lines
        11: [11],  # the handler's body; the handler line itself is not a statement
        12: [12, 13, 14],  # the if's header, not its body
        15: [15],
        16: [16],
    }
