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
from .errors import FormatError
from .semigroup import Semigroup, validate_table
from .slp import Slp, _renumbered

PathLike = Union[str, Path]

_TEXT_PER_WORKER = 1 << 18  # bytes of .cay text that make a row range worth a thread


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
    S = validate_table(table, name=name, gens_hint=gens)
    return S, gens, target


def _header_ints(line: str, lineno: int) -> list[int]:
    """The integers after the first word of ``line``."""
    words = line.split()
    try:
        return [int(x) for x in words[1:]]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: bad {words[0]} entry") from exc


def _read_cay_text(text: str) -> tuple[np.ndarray, str, Optional[list[int]], Optional[int]]:
    # GENS / TARGET -> (line number, elements); range-checked once n is known
    header: dict[str, tuple[int, list[int]]] = {}
    name = ""
    rows: list[tuple[int, str]] = []  # (line number, row text), parsed after the loop
    n: Optional[int] = None
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("GENS"):
                    header["GENS"] = lineno, _header_ints(body, lineno)
                elif body.startswith("TARGET"):
                    header["TARGET"] = lineno, _header_ints(body, lineno)
                    if len(header["TARGET"][1]) != 1:
                        raise FormatError(f"line {lineno}: TARGET takes one element")
                elif body.startswith("NAME"):
                    name = body[4:].strip()
                continue
            if n is None:
                parts = line.split()
                if len(parts) != 2 or parts[0] != "CAYLEY":
                    raise FormatError(f"line {lineno}: expected 'CAYLEY <n>'")
                n = _header_ints(line, lineno)[0]
                continue
            rows.append((lineno, line))
    except FormatError:
        if rows:
            _parse_rows(rows, n, 0)  # a bad row above the bad header line is reported first
        raise
    if n is None:
        raise FormatError("missing CAYLEY header")
    table = _parse_rows(rows, n, len(text))
    if len(rows) != n:
        raise FormatError(f"expected {n} rows, found {len(rows)}")
    for lineno, elements in header.values():
        for x in elements:
            if not 0 <= x < n:
                raise FormatError(f"line {lineno}: element {x} outside [0, {n})")
    gens = header["GENS"][1] if "GENS" in header else None
    target = header["TARGET"][1][0] if "TARGET" in header else None
    return table, name, gens, target


def _parse_rows(rows: list[tuple[int, str]], n: int, size: int) -> np.ndarray:
    """The rows as a table, parsed in one contiguous range of rows per
    worker once the text is ``size`` >= _TEXT_PER_WORKER bytes per worker.
    Ranges run in order, so the first bad row is the one reported.

    A well-formed row has at least n characters, so when len(rows) * n
    exceeds ``size`` some row is short: the rows are then only checked, in
    one range, which raises that row's error with no table of the header's
    n allocated.
    """
    fits = n >= 0 and len(rows) * n <= size
    table = np.empty((len(rows), n if fits else 0), dtype=np.int64)

    def parse(span: tuple[int, int]) -> None:
        for i in range(*span):
            lineno, line = rows[i]
            try:
                row = np.fromstring(line, dtype=np.int64, sep=" ")
            except (ValueError, DeprecationWarning) as exc:
                raise FormatError(f"line {lineno}: bad table row") from exc
            if len(row) != n:
                raise FormatError(f"line {lineno}: row has {len(row)} entries, expected {n}")
            if fits:
                table[i] = row

    k = max(1, min(parallel.workers(), len(rows), size // _TEXT_PER_WORKER)) if fits else 1
    parallel.parallel_map(parse, [(len(rows) * i // k, len(rows) * (i + 1) // k) for i in range(k)])
    return table


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
