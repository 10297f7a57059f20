"""tools/coverage.py counts a statement by its own lines and prints line ranges."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""A module docstring, which is not a statement to run."""
import os


@staticmethod
def f(x):
    """A function docstring."""
    if x:
        return 1
    return [
        2,
    ]
'''


def _coverage():
    spec = importlib.util.spec_from_file_location("coverage_tool", ROOT / "tools" / "coverage.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_skip_docstrings_and_count_headers_with_their_decorators(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    found = sorted(_coverage().statements(path), key=lambda lines: lines.start)
    # the import; decorator and def; the if header only; its body; a
    # statement over three lines
    assert found == [range(2, 3), range(5, 7), range(8, 9), range(9, 10), range(10, 13)]


def test_spans_print_runs_as_ranges():
    spans = _coverage().spans
    assert spans([3, 7, 8, 9]) == "3, 7-9"
    assert spans([1, 2, 4]) == "1-2, 4"
    assert spans([5]) == "5"
    assert spans([]) == ""
