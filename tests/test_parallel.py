"""The threaded ingest path, row ranges in the .cay reader, forced on small
inputs by lowering its size threshold and fixing the worker count; and
Light's test, which runs on the calling thread, over one-row blocks."""

import importlib.util
import multiprocessing
import os
import random
import re
import sys
import threading
import warnings
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import slpforge.io
import slpforge.semigroup
from slpforge import parallel, zoo
from slpforge.errors import FormatError, NotAssociativeError, OutOfRangeError
from slpforge.io import dump_cay, parse_cay
from slpforge.semigroup import table_dtype, validate_table


@pytest.fixture
def split(monkeypatch):
    """``split(k)`` makes every parse use up to k workers from here on;
    returns the job counts ``parallel_map`` is handed."""
    counts = []
    run = parallel.parallel_map

    def counting(fn, jobs):
        counts.append(len(jobs))
        return run(fn, jobs)

    monkeypatch.setattr(parallel, "parallel_map", counting)

    def force(k: int) -> list:
        monkeypatch.setattr(slpforge.io, "_TEXT_PER_WORKER", 1)
        monkeypatch.setattr(slpforge.io, "_BLOCK", 200)  # rows of a few lines per fromstring call
        monkeypatch.setattr(parallel, "workers", lambda: k)
        counts.clear()
        return counts

    return force


def _outcome(text: str):
    try:
        S, gens, target = parse_cay(text)
    except (FormatError, NotAssociativeError) as exc:
        return type(exc).__name__, str(exc)
    return S.table.tolist(), S.name, gens, target


def _layouts(S, gens, target) -> list[str]:
    """The dump, and the same table with comments between rows, blank
    lines, CRLF line ends, tabs and no final newline."""
    text = dump_cay(S, gens, target)
    lines = text.splitlines()
    spaced = [line if i % 3 else line + "\n\n# between rows" for i, line in enumerate(lines)]
    return [
        text,
        "\n".join(spaced) + "\n",
        "\r\n".join(lines) + "\r\n",
        "\n".join(line.replace(" ", "\t") for line in lines),
        "\n".join(lines),
    ]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_row_ranges_read_every_layout_alike(zoo_small, split, k):
    expected = {
        name: [_outcome(text) for text in _layouts(S, gens, target)]
        for name, (S, gens, target) in zoo_small.items()
    }
    counts = split(k)
    for name, (S, gens, target) in zoo_small.items():
        got = [_outcome(text) for text in _layouts(S, gens, target)]
        assert got == expected[name], name
        assert got[0][0] == S.table.tolist() and got[0][1:] == (S.name, gens, target)
    assert k in counts


def _rows(n: int) -> list[str]:
    return [" ".join(str((i + j) % n) for j in range(n)) for i in range(n)]


def test_a_bad_row_in_the_second_range_names_its_own_line(split):
    rows = _rows(6)
    rows[4] = "0 1 2 x 4 5"
    counts = split(2)
    with pytest.raises(FormatError, match="^line 6: bad table row$"):
        parse_cay("CAYLEY 6\n" + "\n".join(rows) + "\n")
    assert counts == [2]


def test_bad_rows_in_both_ranges_report_the_first(split):
    rows = _rows(6)
    rows[1] = "0 1 2"
    rows[5] = "0 y 2 3 4 5"
    text = "CAYLEY 6\n" + "\n".join(rows) + "\n"
    split(2)
    with pytest.raises(FormatError, match="^line 3: row has 3 entries, expected 6$"):
        parse_cay(text)
    rows[1], rows[5] = rows[5], rows[1]
    with pytest.raises(FormatError, match="^line 3: bad table row$"):
        parse_cay("CAYLEY 6\n" + "\n".join(rows) + "\n")


Z3 = "0 1 2\n1 2 0\n2 0 1\n"
# every .cay message ``test_io.py`` checks, with the text that raises it
MESSAGES = [
    ("0 1\n1 0\n", "line 1: expected 'CAYLEY <n>'"),
    ("CAYLEY 2\n0 1\n", "expected 2 rows, found 1"),
    ("CAYLEY 2\n0 1 0\n1 0\n", "line 2: row has 3 entries, expected 2"),
    ("CAYLEY 2\n0 1\n0 x\n", "line 3: bad table row"),
    ("CAYLEY 2\n0 1\n2.5 0\n", "line 3: bad table row"),
    ("CAYLEY 2\n0 1\n1\n", "line 3: row has 1 entries, expected 2"),
    # the blank line's sentinel fills the short row, which only the second -1 in it gives away
    ("CAYLEY 2\n0 1\n1\n\n", "line 3: row has 1 entries, expected 2"),
    ("CAYLEY 2\n0 1\n1 0\n1 0\n", "expected 2 rows, found 3"),
    ("# only a comment\n", "missing CAYLEY header"),
    (f"CAYLEY 3\n# GENS 7\n{Z3}", "line 2: element 7 outside [0, 3)"),
    (f"CAYLEY 3\n# GENS 1 x\n{Z3}", "line 2: bad GENS entry"),
    (f"CAYLEY 3\n# TARGET 3\n{Z3}", "line 2: element 3 outside [0, 3)"),
    (f"CAYLEY 3\n# TARGET y\n{Z3}", "line 2: bad TARGET entry"),
    (f"CAYLEY 3\n# TARGET 1 2\n{Z3}", "line 2: TARGET takes one element"),
    (f"CAYLEY 3\n{Z3}# GENS 1 3\n", "line 5: element 3 outside [0, 3)"),
    (f"CAYLEY three\n{Z3}", "line 1: bad CAYLEY entry"),
    # a bad header line below a bad row: the row, as in one pass over the lines
    ("CAYLEY 3\n0 1 2\n1 x 0\n# GENS z\n2 0 1\n", "line 3: bad table row"),
    ("CAYLEY 3\n0 1 2\n1 2 0\n# TARGET 1 2\n2 0 x\n", "line 4: TARGET takes one element"),
    # a header n the rows cannot fill: refused before its table is allocated
    ("CAYLEY 100000000000\n0 1\n", "line 2: row has 2 entries, expected 100000000000"),
    ("CAYLEY 100000000000\n0 1\n# GENS x\n", "line 2: row has 2 entries, expected 100000000000"),
    ("CAYLEY -1\n", "expected -1 rows, found 0"),
    # a line of 2n + 1 entries fills two rows of n + 1 values, its last a sentinel; the
    # second line's middle -1 would pass for one, were it not refused as a "-"
    ("CAYLEY 2\n0 1 1 0 1\n", "line 2: row has 5 entries, expected 2"),
    ("CAYLEY 2\n0 1\n1 0 -1 1 0\n", "line 3: row has 5 entries, expected 2"),
    # characters outside ASCII inside a row, one of them a lone surrogate
    ("CAYLEY 2\n0 1\n1\xa00\n", "line 3: bad table row"),
    ("CAYLEY 2\n0 1\n1 \ud800\n", "line 3: bad table row"),
]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_format_message_holds_at_any_worker_count(split, k):
    split(k)
    for text, message in MESSAGES:
        with pytest.raises(FormatError) as raised:
            parse_cay(text)
        assert str(raised.value) == message, text


# -- the line-by-line reader the block reader replaced, as the reference ------------


def _ref_header_ints(line: str, lineno: int) -> list[int]:
    words = line.split()
    try:
        return [int(x) for x in words[1:]]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: bad {words[0]} entry") from exc


def _ref_parse_rows(rows: list[tuple[int, str]], n: int, size: int) -> np.ndarray:
    fits = n >= 0 and len(rows) * n <= size
    table = np.empty((len(rows), n if fits else 0), dtype=np.int64)
    for i, (lineno, line) in enumerate(rows):
        try:
            row = np.fromstring(line, dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning) as exc:
            raise FormatError(f"line {lineno}: bad table row") from exc
        if len(row) != n:
            raise FormatError(f"line {lineno}: row has {len(row)} entries, expected {n}")
        if fits:
            table[i] = row
    return table


def _ref_read_cay_text(text: str):
    """Every line visited in turn, every row parsed alone into an int64 table,
    and the entries range-checked as ``validate_table`` checks them."""
    header: dict[str, tuple[int, list[int]]] = {}
    name = ""
    rows: list[tuple[int, str]] = []
    n: Optional[int] = None
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("GENS"):
                    header["GENS"] = lineno, _ref_header_ints(body, lineno)
                elif body.startswith("TARGET"):
                    header["TARGET"] = lineno, _ref_header_ints(body, lineno)
                    if len(header["TARGET"][1]) != 1:
                        raise FormatError(f"line {lineno}: TARGET takes one element")
                elif body.startswith("NAME"):
                    name = body[4:].strip()
                continue
            if n is None:
                parts = line.split()
                if len(parts) != 2 or parts[0] != "CAYLEY":
                    raise FormatError(f"line {lineno}: expected 'CAYLEY <n>'")
                n = _ref_header_ints(line, lineno)[0]
                continue
            rows.append((lineno, line))
    except FormatError:
        if rows:
            _ref_parse_rows(rows, n, 0)
        raise
    if n is None:
        raise FormatError("missing CAYLEY header")
    table = _ref_parse_rows(rows, n, len(text))
    if len(rows) != n:
        raise FormatError(f"expected {n} rows, found {len(rows)}")
    for lineno, elements in header.values():
        for x in elements:
            if not 0 <= x < n:
                raise FormatError(f"line {lineno}: element {x} outside [0, {n})")
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise OutOfRangeError("table must be square")
    if n == 0:
        raise OutOfRangeError("empty table")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise OutOfRangeError(f"entry at ({bad[0]}, {bad[1]}) = {table[bad[0], bad[1]]} outside [0, {n})")
    gens = header["GENS"][1] if "GENS" in header else None
    target = header["TARGET"][1][0] if "TARGET" in header else None
    return table, name, gens, target


def _read(read, text: str):
    """``read(text)`` as ``parse_cay`` runs it: the table as lists, or the
    error's class and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table, name, gens, target = read(text)
    except (FormatError, OutOfRangeError) as exc:
        return type(exc).__name__, str(exc)
    return table.tolist(), name, gens, target


def _randsemi():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "randsemi.py"
    spec = importlib.util.spec_from_file_location("perfbench_randsemi", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


_TOKEN = re.compile(r"\S+")
_BAD_TOKENS = ["-1", "-0", "+3", "3.0", "x", "1234567890123456789012345"]


def _mutated(rng: random.Random, text: str) -> str:
    """``text`` with one seeded change to its rows or headers."""
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line.strip() and not line.strip().startswith(("#", "CAYLEY"))]
    i = rng.choice(rows)
    tokens = list(_TOKEN.finditer(lines[i]))
    tok = rng.choice(tokens)
    before, after = lines[i][: tok.start()], lines[i][tok.end() :]
    kind = rng.randrange(10)
    if kind == 0:
        lines[i] = before + rng.choice(_BAD_TOKENS) + after
    elif kind == 1:  # a token dropped or added
        lines[i] = before + (after if rng.random() < 0.5 else tok.group() + " " + tok.group() + after)
    elif kind == 2:  # a row split
        lines[i] = before + "\n" + tok.group() + after
    elif kind == 3 and i + 1 < len(lines):  # a row joined to the next line, maybe through a -1
        lines[i : i + 2] = [lines[i] + rng.choice([" ", " -1 "]) + lines[i + 1]]
    elif kind == 4:  # a bare CR, or a form feed, inside a row
        lines[i] = before + rng.choice(["\r", "\x0c"]) + tok.group() + after
    elif kind == 5:  # a header after the rows, its elements in range or not
        lines.insert(len(lines) - 1, "# GENS 0 " + rng.choice(["1", "9999", "y"]))
    elif kind == 6:  # a bad header below or above a bad row
        lines[i] = before + "x" + after
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["# GENS z", "# TARGET 1 2"]))
    elif kind == 7:  # a blank or whitespace-only line among the rows
        lines.insert(i, rng.choice(["", "  ", "\t"]))
    elif kind == 8:  # a row dropped or repeated
        lines[i : i + 1] = [] if rng.random() < 0.5 else [lines[i]] * 2
    else:  # an entry out of range
        lines[i] = before + str(rng.choice([len(rows), 10**6])) + after
    return "\n".join(lines)


def _random_tables(rng: random.Random) -> list:
    """Five random tables of up to 230 elements, as (S, gens, None)."""
    randsemi = _randsemi()
    tables = []
    for lo, hi in ((1, 4), (5, 19), (20, 79), (80, 179), (180, 230)):
        rt = randsemi.draw_table(rng, lo, hi)
        tables.append((validate_table(rt.table), rt.gens, None))
    return tables


@pytest.fixture(scope="module")
def cay_corpus(zoo_small):
    """Every ``zoo_small`` dump and five random tables of up to 230 elements,
    each in every layout, and four seeded mutations of each of those texts."""
    randsemi = _randsemi()
    rng = random.Random(20261021)
    tables = list(zoo_small.values()) + _random_tables(rng)
    texts = [text for S, gens, target in tables for text in _layouts(S, gens, target)]
    texts.append(randsemi.to_cay(tables[-1][0].table, tables[-1][1]))
    mutants = [_mutated(rng, text) for text in texts for _ in range(4)]
    return texts + mutants, [_read(_ref_read_cay_text, text) for text in texts + mutants]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_reader_matches_the_line_by_line_reference(cay_corpus, split, k):
    texts, expected = cay_corpus
    assert sum(isinstance(out[0], list) for out in expected) >= 100
    assert len({out for out in expected if isinstance(out[0], str)}) >= 100  # distinct errors
    counts = split(k)
    for text, want in zip(texts, expected):
        assert _read(slpforge.io._read_cay_text, text) == want, text[:200]
    assert k in counts


def test_the_default_block_size_matches_the_reference(cay_corpus):
    texts, expected = cay_corpus
    for text, want in zip(texts, expected):
        assert _read(slpforge.io._read_cay_text, text) == want, text[:200]


@pytest.mark.parametrize("k", [1, 2])
def test_only_comments_and_blank_lines_among_the_rows_take_the_line_path(zoo_small, cay_corpus, split, monkeypatch, k):
    calls = []
    read_lines = slpforge.io._read_lines

    def counting(*args):
        calls.append(args[0])
        return read_lines(*args)

    monkeypatch.setattr(slpforge.io, "_read_lines", counting)
    split(k)
    randsemi = _randsemi()
    random_texts = [randsemi.to_cay(S.table, gens) for S, gens, _ in _random_tables(random.Random(20261021))]
    assert all(text in cay_corpus[0] for text in random_texts)
    for text in [dump_cay(S, gens, target) for S, gens, target in zoo_small.values()] + random_texts:
        parse_cay(text)
        assert calls == [], text[:200]
    for name, (S, gens, target) in zoo_small.items():
        for i, text in enumerate(_layouts(S, gens, target)):
            calls.clear()
            parse_cay(text)
            assert len(calls) == (i == 1), (name, i)  # the layout with comments and blank lines


def test_the_table_read_is_stored_read_only_at_its_dtype(zoo_small):
    for S, gens, target in zoo_small.values():
        table = slpforge.io._read_cay_text(dump_cay(S, gens, target))[0]
        assert table.dtype == table_dtype(S.n) and not table.flags.writeable
        assert parse_cay(dump_cay(S))[0].table is not S.table


def _perturbed(rng: random.Random, table) -> np.ndarray:
    """A copy of ``table`` with one entry changed."""
    table = np.array(table, dtype=np.int64)
    n = table.shape[0]
    a, b = rng.randrange(n), rng.randrange(n)
    table[a, b] = (table[a, b] + rng.randrange(1, n)) % n
    return table


def _witness(table, hint):
    try:
        validate_table(table, gens_hint=hint)
    except NotAssociativeError as exc:
        return exc.witness
    return None


def test_split_light_test_reports_the_serial_witness(zoo_small, monkeypatch):
    tables = [(S.table, gens) for S, gens, _ in zoo_small.values() if S.n > 1]
    rng = random.Random(20261020)
    cases = []
    for _ in range(200):
        table, gens = rng.choice(tables)
        cases.append((_perturbed(rng, table), rng.choice([None, gens])))
    serial = [_witness(table, hint) for table, hint in cases]
    assert sum(w is not None for w in serial) > 150
    monkeypatch.setattr(slpforge.semigroup, "_LIGHT_CLASS_READS", 1)
    monkeypatch.setattr(slpforge.semigroup, "_LIGHT_BLOCK", 1)  # one row of (a*g)*b at a time
    assert [_witness(table, hint) for table, hint in cases] == serial


def test_lights_test_runs_on_the_calling_thread(split):
    S, gens, _ = zoo.build_family("dihedral", [512])
    counts = split(2)
    assert validate_table(S.table, gens_hint=gens).n == 1024
    assert counts == []


def test_more_workers_than_cpus_under_frequent_switches(split):
    S = zoo.make_dihedral(40)
    text = dump_cay(S, zoo.dihedral_generators(40))
    bad = np.array(S.table, dtype=np.int64)
    bad[17, 33] = (bad[17, 33] + 1) % S.n
    expected = _outcome(text), _witness(bad, None)
    split(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert (_outcome(text), _witness(bad, None)) == expected
    finally:
        sys.setswitchinterval(interval)


def _parse_in_child() -> None:
    S, _, _ = parse_cay(dump_cay(zoo.make_dihedral(16)))
    assert S.n == 32


def test_a_forked_child_runs_its_own_pool(split):
    counts = split(2)
    _parse_in_child()  # the parent's pool now has threads, which a fork does not copy
    assert 2 in counts
    child = multiprocessing.get_context("fork").Process(target=_parse_in_child)
    child.start()
    child.join(timeout=20)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_small_inputs_start_no_thread(zoo_small, monkeypatch):
    monkeypatch.setattr(parallel, "_pool", None)  # so a threaded run would start threads
    before = threading.active_count()
    for S, gens, target in zoo_small.values():
        parse_cay(dump_cay(S, gens, target))
        validate_table(S.table)
    assert threading.active_count() == before


def test_one_worker_starts_no_thread(split, monkeypatch):
    split(1)
    monkeypatch.setattr(parallel, "_pool", None)
    before = threading.active_count()
    parse_cay(dump_cay(zoo.make_dihedral(16)))
    assert threading.active_count() == before


def test_parallel_map_keeps_job_order_and_raises_the_first_failure():
    def job(i: int) -> int:
        if i in (1, 3):
            raise ValueError(i)
        return i * i

    assert parallel.parallel_map(job, [0, 2, 4]) == [0, 4, 16]
    with pytest.raises(ValueError, match="^1$"):
        parallel.parallel_map(job, range(5))
    assert parallel.parallel_map(job, []) == []
    assert parallel.workers() >= 1


def test_workers_without_cpu_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert parallel.workers() == (os.cpu_count() or 1)


def test_a_fork_forgets_the_pool_and_its_lock(monkeypatch):
    # what the at-fork hook runs in the child
    monkeypatch.setattr(parallel, "_pool", object())
    monkeypatch.setattr(parallel, "_pool_lock", parallel._pool_lock)
    held = parallel._pool_lock
    parallel._forget_pool()
    assert parallel._pool is None and parallel._pool_lock is not held
