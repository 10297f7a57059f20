"""The ``src/`` statements that a pytest run never executes, with the standard library only.

    python3 tools/coverage.py                 # the tier-1 suite
    python3 tools/coverage.py tests/test_slp.py -x

Run from the repository root.  The arguments go to ``pytest.main``
(default ``-q --continue-on-collection-errors``), which runs under a
``sys.settrace`` recorder of the lines executed in ``src/slpforge``; the
package is first imported inside that run, so module-level statements count.
A statement, docstrings aside, is executable when its own lines (a compound
statement's header only, its decorators included) hold compiled code, and
run when one of those lines produced a line event.  Code run in child processes, as the CLI and
demo tests start, is not seen.  The tracer slows the suite several times, so
the whole-suite probe is run by hand; CI runs it over one test file only, to
keep the tracer path working.

Prints each file's unrun statements as line ranges and the total, then exits
with pytest's status.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slpforge"


def own_lines(stmt: ast.stmt) -> range:
    """The lines a statement runs code on itself: a compound statement's
    header up to its first child statement, else all of it."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(start, max(stmt.lineno, body[0].lineno - 1) + 1)
    return range(start, stmt.end_lineno + 1)


def code_lines(code) -> set[int]:
    """Every line that holds bytecode in ``code`` or the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def is_docstring(node: ast.AST) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def statements(path: Path) -> list[range]:
    """The own lines of each executable statement of one source file,
    docstrings left out."""
    source = path.read_text()
    compiled = code_lines(compile(source, str(path), "exec"))
    nodes = (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.stmt) and not is_docstring(n))
    return [lines for lines in map(own_lines, nodes) if compiled.intersection(lines)]


def spans(lines: list[int]) -> str:
    """Sorted line numbers as ranges: 3, 7-9, 12."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    hits: set[tuple[str, int]] = set()
    record = hits.add

    def local(frame, event, arg):
        if event == "line":
            record((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    start = perf_counter()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = perf_counter() - start

    total = unrun = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        name, found = str(path), statements(path)
        missed = [lines.start for lines in found if not any((name, line) in hits for line in lines)]
        total += len(found)
        unrun += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} unrun: {spans(sorted(set(missed)))}")
    print(f"total: {unrun} of {total} statements unrun ({elapsed:.0f} s under the tracer)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
