"""Text formats: .cay Cayley tables (with generator/target sidecars) and
.slp straight-line programs.  Writers emit one canonical layout so that a
write/read/write cycle is byte-identical; a program read is renumbered into
first-assignment order.
"""

from __future__ import annotations

import io
import warnings
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import parallel
from .errors import FormatError, OutOfRangeError
from .semigroup import Semigroup, table_dtype, validate_table
from .slp import Slp, _renumbered

PathLike = Union[str, Path]

_TEXT_PER_WORKER = 1 << 18  # bytes of .cay text that make a row range worth a thread
_BLOCK = 1 << 17  # characters of row lines one np.fromstring call reads
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines' line ends besides "\n"


def dump_cay(
    S: Semigroup,
    gens: Optional[Sequence[int]] = None,
    target: Optional[int] = None,
) -> str:
    out = io.StringIO()
    out.write(f"CAYLEY {S.n}\n")
    if S.name:
        out.write(f"# NAME {S.name}\n")
    if gens is not None:
        out.write("# GENS " + " ".join(str(int(g)) for g in gens) + "\n")
    if target is not None:
        out.write(f"# TARGET {int(target)}\n")
    # row by row: the whole table as Python ints would take ~50 MB at n = 2048
    for row in S.table:
        out.write(" ".join(map(str, row.tolist())) + "\n")
    return out.getvalue()


def write_cay(
    path: PathLike,
    S: Semigroup,
    gens: Optional[Sequence[int]] = None,
    target: Optional[int] = None,
) -> None:
    Path(path).write_text(dump_cay(S, gens, target))


def parse_cay(text: str) -> tuple[Semigroup, Optional[list[int]], Optional[int]]:
    # numpy before 2.0 stops a row at an unparsable token with a
    # DeprecationWarning and a short row; numpy 2 raises ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        table, name, gens, target = _read_cay_text(text)
    S = validate_table(table, name=name, gens_hint=gens, entries_checked=True)
    return S, gens, target


def _header_ints(line: str, lineno: int) -> list[int]:
    """The integers after the first word of ``line``."""
    words = line.split()
    try:
        return [int(x) for x in words[1:]]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: bad {words[0]} entry") from exc


def _comment(line: str, lineno: int) -> Optional[tuple[str, object]]:
    """The header a stripped ``#`` line holds: ("GENS" or "TARGET", (line
    number, elements)) or ("NAME", name); None for a plain comment."""
    body = line[1:].strip()
    if body.startswith("GENS"):
        return "GENS", (lineno, _header_ints(body, lineno))
    if body.startswith("TARGET"):
        elements = _header_ints(body, lineno)
        if len(elements) != 1:
            raise FormatError(f"line {lineno}: TARGET takes one element")
        return "TARGET", (lineno, elements)
    if body.startswith("NAME"):
        return "NAME", body[4:].strip()
    return None


def _read_cay_text(text: str) -> tuple[np.ndarray, str, Optional[list[int]], Optional[int]]:
    """The table (read-only, at ``table_dtype(n)``), name, generators and
    target of a .cay text.

    The lines are those ``str.splitlines`` gives.  The ones above the first
    row are read one at a time; the rest in contiguous ranges of lines, one
    per worker once the text is ``_TEXT_PER_WORKER`` bytes per worker, each
    as blocks of rows (``_Rows``).

    Errors come as one pass over the lines would raise them: the first bad
    row or header line, then a wrong row count, a header element outside the
    table, an empty table, and last the first entry outside it, in row-major
    order (OutOfRangeError).
    """
    if any(c in text for c in _BREAKS):
        text = "\n".join(text.splitlines())  # the same lines, each ended by "\n"
    header: dict[str, tuple[int, list[int]]] = {}
    name = ""
    n: Optional[int] = None
    pos, lineno = 0, 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        line = text[pos:end].strip()
        if line and not line.startswith("#") and n is not None:
            break  # the first row
        lineno += 1
        pos = end
        if not line:
            continue
        if line.startswith("#"):
            found = _comment(line, lineno)
            if found is not None and found[0] == "NAME":
                name = found[1]
            elif found is not None:
                header[found[0]] = found[1]
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] != "CAYLEY":
            raise FormatError(f"line {lineno}: expected 'CAYLEY <n>'")
        n = _header_ints(line, lineno)[0]
    if n is None:
        raise FormatError("missing CAYLEY header")

    # n well-formed rows take at least 2 n^2 - 1 characters, so a table that
    # does not fit the text is never allocated: its rows are only checked
    table = np.empty((n, n), dtype=table_dtype(n)) if 0 < n and n * n <= len(text) else None
    parts = _read_ranges(text, pos, lineno, n, table)
    for part in parts:
        for key, value in part.headers:
            if key == "NAME":
                name = value
            else:
                header[key] = value
    if parts[-1].row != n:
        raise FormatError(f"expected {n} rows, found {parts[-1].row}")
    for lineno, elements in header.values():
        for x in elements:
            if not 0 <= x < n:
                raise FormatError(f"line {lineno}: element {x} outside [0, {n})")
    if n == 0:
        raise OutOfRangeError("empty table")
    bad = next((part.bad for part in parts if part.bad is not None), None)
    if bad is not None:
        raise OutOfRangeError(f"entry at ({bad[0]}, {bad[1]}) = {bad[2]} outside [0, {n})")
    table.setflags(write=False)
    gens = header["GENS"][1] if "GENS" in header else None
    target = header["TARGET"][1][0] if "TARGET" in header else None
    return table, name, gens, target


def _read_ranges(text: str, pos: int, lineno: int, n: int, table: Optional[np.ndarray]) -> list["_Rows"]:
    """The lines of ``text`` from ``pos`` on (line ``lineno`` + 1 on), read in
    one contiguous range per worker once the text is ``_TEXT_PER_WORKER``
    bytes per worker.  Ranges run in order, so the first bad line is the one
    reported.

    Each range's first row is counted as if every line above it (from
    ``pos``) were a row; when a comment or blank line makes that wrong, the
    lines are read again as one range.
    """
    k = len(text) // _TEXT_PER_WORKER if table is not None else 1
    k = min(parallel.workers(), k) if k > 1 else 1
    spans, start, row = [], pos, 0
    for i in range(1, k):
        stop = text.find("\n", pos + (len(text) - pos) * i // k) + 1 or len(text)
        if stop > start:
            spans.append((start, stop, lineno + 1, row))
            lines = text.count("\n", start, stop)
            lineno, row, start = lineno + lines, row + lines, stop
    if start < len(text):
        spans.append((start, len(text), lineno + 1, row))

    def read(span: tuple[int, int, int, int]) -> _Rows:
        part = _Rows(n, table, span[3])
        part.text(text, *span[:3])
        return part

    parts = parallel.parallel_map(read, spans) if spans else [_Rows(n, table, 0)]
    if any(later.first != part.row for part, later in zip(parts, parts[1:])):
        parts = [read((spans[0][0], len(text), spans[0][2], 0))]
    return parts


class _Rows:
    """What one range of lines holds: its rows, written into ``table`` (when
    there is one) from row ``first`` on; its header lines, as ``_comment``
    gives them, in order; and its first entry outside [0, n), as (row,
    column, value).  ``row`` is the index the next row takes."""

    def __init__(self, n: int, table: Optional[np.ndarray], first: int):
        self.n, self.table, self.first, self.row = n, table, first, first
        self.headers: list[tuple[str, object]] = []
        self.bad: Optional[tuple[int, int, int]] = None

    def text(self, text: str, start: int, stop: int, lineno: int) -> None:
        """Read ``text[start:stop]``, whole lines from line ``lineno``.

        Lines with a "#" are read alone; the runs of lines between them go
        to ``_block`` in blocks of about ``_BLOCK`` characters, and a block
        it refuses is read line by line.
        """
        while start < stop:
            mark = text.find("#", start, stop)
            run_end = stop if mark < 0 else max(start, text.rfind("\n", start, mark) + 1)
            while start < run_end:
                cut = run_end
                if run_end - start > _BLOCK:
                    cut = text.find("\n", start + _BLOCK, run_end) + 1 or run_end
                block = text[start:cut]
                rows = self._block(block) if self.table is not None else None
                lineno += rows if rows is not None else self.lines(block.splitlines(), lineno)
                start = cut
            if mark >= 0:
                line_end = text.find("\n", mark, stop) + 1 or stop
                lineno += self.lines(text[start:line_end].splitlines(), lineno)
                start = line_end

    def _block(self, block: str) -> Optional[int]:
        """Read a block of lines that are all rows with one ``np.fromstring``
        and return its row count, or None, having stored nothing, when it
        is not that.

        Every line gets a -1 sentinel.  A block with a "-" of its own is left
        to ``lines``, so no other value is negative, and when the values
        fill rows of n + 1 ending in -1 and holding no other negative value,
        each line held exactly n entries.  No ``count`` is passed: asked for
        more values than the text holds, numpy 2.4 returns made-up ones
        (``np.fromstring("1 2", dtype=np.int64, sep=" ", count=3)`` is [1, 2, 32]).
        """
        n = self.n
        if "-" in block:
            return None
        if not block.endswith("\n"):
            block += "\n"
        try:  # as bytes: numpy would encode a str itself, and more slowly
            values = np.fromstring(block.encode().replace(b"\n", b" -1\n"), dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning):  # a lone surrogate fails to encode: a ValueError
            return None
        if values.size % (n + 1):
            return None
        grid = values.reshape(-1, n + 1)
        if grid[:, n].max() != -1:  # every value is at least -1
            return None
        grid[:, n] = 0
        if values.view(np.uint64).max() >= n:  # a negative value wraps past n
            if values.min() < 0:  # a blank line's lone sentinel, say
                return None
            if self.bad is None:
                at = int(np.argmax(values >= n))
                self.bad = (self.row + at // (n + 1), at % (n + 1), int(values[at]))
        self._store(grid[:, :n])
        return len(grid)

    def lines(self, lines: list[str], lineno: int) -> int:
        """Read ``lines``, from line ``lineno``, one at a time; return how many."""
        for i, line in enumerate(lines, lineno):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                found = _comment(line, i)
                if found is not None:
                    self.headers.append(found)
                continue
            try:
                row = np.fromstring(line, dtype=np.int64, sep=" ")
            except (ValueError, DeprecationWarning) as exc:
                raise FormatError(f"line {i}: bad table row") from exc
            if len(row) != self.n:
                raise FormatError(f"line {i}: row has {len(row)} entries, expected {self.n}")
            if self.bad is None and (row.min() < 0 or row.max() >= self.n):
                at = int(np.argmax((row < 0) | (row >= self.n)))
                self.bad = (self.row, at, int(row[at]))
            self._store(row[None, :])
        return len(lines)

    def _store(self, rows: np.ndarray) -> None:
        """Write the next rows into the table, those below row n only."""
        if self.table is not None and self.row < self.n:
            m = min(len(rows), self.n - self.row)
            np.copyto(self.table[self.row : self.row + m], rows[:m], casting="unsafe")
        self.row += len(rows)


def read_cay(path: PathLike) -> tuple[Semigroup, Optional[list[int]], Optional[int]]:
    return parse_cay(Path(path).read_text())


def dump_slp(prog: Slp) -> str:
    out = io.StringIO()
    out.write("SLP\n")
    out.write("A " + " ".join(str(int(v)) for v in prog.alphabet) + "\n")
    for ins in prog.instructions:
        if ins[0] == "L":
            out.write(f"L {ins[1]} {ins[2]}\n")
        elif ins[0] == "M":
            out.write(f"M {ins[1]} {ins[2]} {ins[3]}\n")
        else:
            out.write(f"I {ins[1]} {ins[2]}\n")
    out.write(f"O {prog.output}\n")
    return out.getvalue()


def write_slp(path: PathLike, prog: Slp) -> None:
    Path(path).write_text(dump_slp(prog))


def parse_slp(text: str) -> Slp:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0] != "SLP":
        raise FormatError("missing SLP header")
    head = lines[1].split() if len(lines) >= 2 else []
    if not head or head[0] != "A":
        raise FormatError("missing alphabet line")
    try:
        alphabet = tuple(int(x) for x in head[1:])
    except ValueError as exc:
        raise FormatError(f"bad alphabet line: {lines[1]!r}") from exc
    instrs: list[tuple] = []
    output: Optional[int] = None
    for ln in lines[2:]:
        parts = ln.split()
        try:
            if parts[0] == "L" and len(parts) == 3:
                instrs.append(("L", int(parts[1]), int(parts[2])))
            elif parts[0] == "M" and len(parts) == 4:
                instrs.append(("M", int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "I" and len(parts) == 3:
                instrs.append(("I", int(parts[1]), int(parts[2])))
            elif parts[0] == "O" and len(parts) == 2:
                if output is not None:
                    raise FormatError(f"second output line: {ln!r}")
                output = int(parts[1])
            else:
                raise FormatError(f"bad instruction line: {ln!r}")
        except ValueError as exc:
            raise FormatError(f"bad instruction line: {ln!r}") from exc
    if output is None:
        raise FormatError("missing output line")
    instructions, output = _renumbered(alphabet, tuple(instrs), output)
    return Slp(alphabet, instructions, output)


def read_slp(path: PathLike) -> Slp:
    return parse_slp(Path(path).read_text())
