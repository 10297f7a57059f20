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


def _comment(line: str, lineno: int, header: dict) -> None:
    """Store the header a stripped ``#`` line holds, if any, in ``header``:
    "NAME" -> the name, "GENS" or "TARGET" -> (line number, elements)."""
    body = line[1:].strip()
    if body.startswith("GENS"):
        header["GENS"] = lineno, _header_ints(body, lineno)
    elif body.startswith("TARGET"):
        elements = _header_ints(body, lineno)
        if len(elements) != 1:
            raise FormatError(f"line {lineno}: TARGET takes one element")
        header["TARGET"] = lineno, elements
    elif body.startswith("NAME"):
        header["NAME"] = body[4:].strip()


def _read_cay_text(text: str) -> tuple[np.ndarray, str, Optional[list[int]], Optional[int]]:
    """The table (read-only, at ``table_dtype(n)``), name, generators and
    target of a .cay text.

    The lines are those ``str.splitlines`` gives.  The ones above the first
    row are read one at a time.  When the table fits the text, the rest go
    to ``_read_blocks``; a body it refuses, and any body when the table
    does not fit, is read from its first row by ``_read_lines``.

    Errors come as one pass over the lines would raise them: the first bad
    row or header line, then a wrong row count, a header element outside the
    table, an empty table, and last the first entry outside it, in row-major
    order (OutOfRangeError).
    """
    if any(c in text for c in _BREAKS):
        text = "\n".join(text.splitlines())  # the same lines, each ended by "\n"
    header: dict = {}
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
            _comment(line, lineno, header)
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
    read = _read_blocks(text, pos, n, table) if table is not None else None
    rows, bad = read if read is not None and read[0] == n else _read_lines(text, pos, lineno, n, table, header)
    if rows != n:
        raise FormatError(f"expected {n} rows, found {rows}")
    name = header.pop("NAME", "")
    for lineno, elements in header.values():
        for x in elements:
            if not 0 <= x < n:
                raise FormatError(f"line {lineno}: element {x} outside [0, {n})")
    if n == 0:
        raise OutOfRangeError("empty table")
    if bad is not None:
        raise OutOfRangeError(f"entry at ({bad[0]}, {bad[1]}) = {bad[2]} outside [0, {n})")
    table.setflags(write=False)
    gens = header["GENS"][1] if "GENS" in header else None
    target = header["TARGET"][1][0] if "TARGET" in header else None
    return table, name, gens, target


def _read_blocks(text: str, pos: int, n: int, table: np.ndarray) -> Optional[tuple[int, Optional[tuple]]]:
    """Read the lines of ``text`` from ``pos`` on into ``table``, every line
    a row, and return the row count and the first entry outside [0, n), as
    (row, column, value); or None, when a range holds anything else.

    The lines are split into one contiguous range per worker once the text
    is ``_TEXT_PER_WORKER`` bytes per worker, and a range's first row is the
    count of lines above it.  Each range is read in blocks of about
    ``_BLOCK`` characters, cut at line ends, with one ``np.fromstring`` per
    block: every line gets a -1 sentinel.  A block with a "#" or a "-" is
    refused, so no other value is negative, and when the values fill rows
    of n + 1 ending in -1 and holding no other negative value, each line
    held exactly n entries.  No ``count`` is passed: asked for more values
    than the text holds, numpy 2.4 returns made-up ones
    (``np.fromstring("1 2", dtype=np.int64, sep=" ", count=3)`` is [1, 2, 32]).
    """
    k = min(parallel.workers(), len(text) // _TEXT_PER_WORKER)
    spans, start, row = [], pos, 0
    for i in range(1, k):
        stop = text.find("\n", pos + (len(text) - pos) * i // k) + 1 or len(text)
        if stop > start:
            spans.append((start, stop, row))
            row, start = row + text.count("\n", start, stop), stop
    spans.append((start, len(text), row))

    def read(span: tuple[int, int, int]) -> Optional[tuple[int, Optional[tuple]]]:
        start, stop, row = span
        bad = None
        while start < stop:
            cut = stop
            if stop - start > _BLOCK:
                cut = text.find("\n", start + _BLOCK, stop) + 1 or stop
            block = text[start:cut]
            if "#" in block or "-" in block:
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
            if grid[:, n].max() != -1 or row + len(grid) > n:  # no value is below -1
                return None
            grid[:, n] = 0
            if values.view(np.uint64).max() >= n:  # a negative value wraps past n
                if values.min() < 0:  # a blank line's lone sentinel, say
                    return None
                if bad is None:
                    at = int(np.argmax(values >= n))
                    bad = (row + at // (n + 1), at % (n + 1), int(values[at]))
            np.copyto(table[row : row + len(grid)], grid[:, :n], casting="unsafe")
            row, start = row + len(grid), cut
        return row, bad

    parts = parallel.parallel_map(read, spans)
    if None in parts:
        return None
    return parts[-1][0], next((bad for _, bad in parts if bad is not None), None)


def _read_lines(
    text: str, pos: int, lineno: int, n: int, table: Optional[np.ndarray], header: dict
) -> tuple[int, Optional[tuple]]:
    """Read the lines of ``text`` from ``pos`` on (line ``lineno`` + 1 on)
    one at a time, rows into ``table`` (when there is one) up to row n and
    headers into ``header``, and return the row count and the first entry
    outside [0, n); the first bad line raises FormatError."""
    row, bad = 0, None
    for i, line in enumerate(text[pos:].splitlines(), lineno + 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            _comment(line, i, header)
            continue
        try:
            values = np.fromstring(line, dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning) as exc:
            raise FormatError(f"line {i}: bad table row") from exc
        if len(values) != n:
            raise FormatError(f"line {i}: row has {len(values)} entries, expected {n}")
        if bad is None and (values.min() < 0 or values.max() >= n):
            at = int(np.argmax((values < 0) | (values >= n)))
            bad = (row, at, int(values[at]))
        if table is not None and row < n:
            np.copyto(table[row], values, casting="unsafe")
        row += 1
    return row, bad


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
