"""Finite semigroups as validated Cayley tables.

The table is an n x n numpy array; entry ``table[a, b]`` is the index of the
product a*b.  Everything downstream (closures, word search, ideals,
decompositions) reads this one array, so validation happens here, once.

Associativity is checked by Light's test over a generating set (Clifford &
Preston, *The Algebraic Theory of Semigroups* I, section 1.2): if
``(a*g)*b == a*(g*b)`` for every a, b and every g in a set that reaches every
element under repeated (non-associative) pairwise products, the table is
associative.  For fixed g both sides read a only through its row (each
applies x -> a*x) and b only through its column (each applies x -> x*b), so
a ranges over one row per class of equal rows and b over one column per
class of equal columns, and the test costs |gens| r_rows r_cols products.
Each class is represented by its least index: when (a, b) fails for g, so
does (a', b') for the least a' with a's row and the least b' with b's
column, so the first failing (g, a, b) in the order g, a, b lies in the
reduced grid, and the witness is the one a scan over every a and b reports.
The classes cost a sort of the rows and one of the columns, so they are
found only once |gens| n^2 reaches ``_LIGHT_CLASS_READS``; the rows
restricted to the generator columns are sorted first, and when those are
all distinct (as in a group) the full rows cannot repeat.  Tables whose
rows and columns are all distinct and that need about n generators (a
min-chain) keep the cubic cost.

The grid's rows are taken in blocks of at most ``_LIGHT_BLOCK`` entries,
each with one transposed copy (its slab), and each g costs two gathers over
a block, so beside the table the test holds at most 2 n^2 entries (the
grid's rows and columns, when classes shrink them), one block's slab and
two buffers of ``_LIGHT_BLOCK`` entries.  In each block the gens are tried
in order up to the first that has failed so far.  The witness is the first
failing g in gens at its first failing (a, b) in row-major order: a g is
skipped only after an earlier g has failed, and a g tried in a block passed
in every earlier block.  The test runs on the calling thread (the README
says why only the reader uses worker threads).

Closed-form constructors and ``.cay`` headers that know a small generating
set pass it as a hint; without one, or when the hint does not generate the
table, the set is picked greedily.  Once the test passes over a hint, the
hint generates the whole table as a semigroup, and that closure is memoised
so ``compress`` over the same generators does not build it again.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from .errors import (
    BudgetExceededError,
    EmptyGeneratorsError,
    NotAnIdealError,
    NotAssociativeError,
    OutOfRangeError,
)
from .sets import ElementSet

DIRECT_PRODUCT_MAX = 20_000
_ROUND_READS = 4096  # products a closure round may spend on shortcuts past the seed
_LIGHT_CLASS_READS = 1 << 20  # Light's test entries that make sorting rows and columns into classes worth it
_LIGHT_BLOCK = 1 << 18  # entries of each side of Light's test held at once
_SCATTER_BLOCK = 1 << 16  # products ideal_chain scatters between checks for a stable level

_V = TypeVar("_V")


def table_dtype(n: int):
    """The dtype a table on n elements is stored at: the narrowest that fits."""
    if n <= 0x100:
        return np.uint8
    if n <= 0x10000:
        return np.uint16
    return np.int32


class Semigroup:
    """Immutable finite semigroup on elements 0..n-1."""

    def __init__(self, table: np.ndarray, name: str = "", _trusted: bool = False):
        table = np.asarray(table)
        if not _trusted:
            _check_entries(table)
        n = table.shape[0]
        # copy a writeable table; share a read-only one at the stored dtype, as ElementSet does
        if table.flags.writeable or table.dtype != table_dtype(n):
            table = table.astype(table_dtype(n))
        self.n = n
        self.table = np.ascontiguousarray(table)
        self.table.setflags(write=False)
        self.name = name
        self._memo: dict = {}
        if not _trusted:
            self._check_associativity()

    # -- construction ------------------------------------------------------

    @classmethod
    def trusted(cls, table: np.ndarray, name: str = "") -> "Semigroup":
        """Wrap a table the library built, square and associative by construction.

        Used for subsemigroups, quotients and direct products of validated
        semigroups, and for rectangular bands, whose closed form
        (a,b)(c,d) = (a,d) is associative; neither the range scan nor
        Light's test runs on them.
        """
        return cls(table, name=name, _trusted=True)

    def _check_associativity(self, gens_hint: Optional[Sequence[int]] = None) -> None:
        n, table = self.n, self.table
        gens = list(dict.fromkeys(int(g) for g in (() if gens_hint is None else gens_hint)))
        # a word is a pairwise product, so the cheap word closure settles most hints
        closures = (self._word_closure_mask, self._magma_closure_mask)
        hint_generates = bool(gens) and any(close(gens).all() for close in closures)
        if not hint_generates:
            gens = self._greedy_generators()
        row_ids = col_ids = range(n)  # the grid of a and b: every element, or one per class
        if len(gens) * n * n >= _LIGHT_CLASS_READS:
            g_arr = np.asarray(gens)
            row_ids = _class_representatives(table, table[:, g_arr])
            col_ids = _class_representatives(table.T, table[g_arr, :].T)
        top = table if len(row_ids) == n else table[row_ids]  # the grid's rows
        left = table if len(col_ids) == n else np.ascontiguousarray(table[:, col_ids])  # its columns
        r, c = top.shape[0], left.shape[1]
        rows = max(1, _LIGHT_BLOCK // c)  # rows of (a*g)*b compared at once
        lhs_buf, rhs_buf, slab_buf = (np.empty(min(rows, r) * k, table.dtype) for k in (c, c, n))
        best, witness = len(gens), None  # position in gens of the first g failed so far
        for lo in range(0, r, rows):
            if not best:
                break
            m = min(rows, r - lo)
            # slab[x, a - lo] = a*x over this block of grid rows a, so that a*(g*b) is a gather of whole slab rows
            slab = slab_buf[: n * m].reshape(n, m)
            slab[...] = top[lo : lo + m].T
            lhs = lhs_buf[: m * c].reshape(m, c)  # lhs[a - lo, b] = (a*g)*b
            rhs = rhs_buf[: c * m].reshape(c, m)  # rhs[b, a - lo] = a*(g*b)
            for i in range(best):
                g = gens[i]
                # every index is in range; mode="raise" would buffer a copy of the output
                np.take(left, top[lo : lo + m, g], axis=0, out=lhs, mode="clip")
                np.take(slab, left[g, :], axis=0, out=rhs, mode="clip")
                if np.bitwise_xor(lhs, rhs.T, out=lhs).any():
                    a, b = np.argwhere(lhs)[0]  # nonzero where the two sides differ
                    best, witness = i, (int(row_ids[lo + a]), g, int(col_ids[b]))
                    break
        if witness is not None:
            raise NotAssociativeError(*witness)
        if hint_generates:
            self.cached(("closure", tuple(sorted(gens))), lambda: ElementSet.full(n))

    def _word_closure_mask(self, seed: Sequence[int]) -> np.ndarray:
        """Values of words over ``seed`` (on an associative table, the
        generated subsemigroup): a breadth-first search that multiplies the
        frontier on the right by the seed and by as many of the earliest
        elements found as keep a round within ``_ROUND_READS`` products.  A
        cyclic closure of order c thus takes about 6 + c / 64 rounds, not c,
        and the search reads O(|closure| * |seed| + _ROUND_READS * rounds).
        """
        table = self.table
        seed_arr = np.unique(np.asarray(list(seed), dtype=np.int64))
        in_set = np.zeros(self.n, dtype=bool)
        in_set[seed_arr] = True
        found = frontier = seed_arr  # found: the seed, then each round's frontier
        while frontier.size:
            right = found[: max(seed_arr.size, _ROUND_READS // frontier.size)]
            hit = np.zeros(self.n, dtype=bool)
            hit[table[frontier[:, None], right]] = True
            frontier = np.flatnonzero(hit & ~in_set)
            in_set[frontier] = True
            if found.size < _ROUND_READS:
                found = np.concatenate((found, frontier[: _ROUND_READS - found.size]))
        return in_set

    def _magma_closure_mask(
        self, seed: Sequence[int], base: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Elements reached from ``seed`` by repeated pairwise products.

        ``base``, when given, must already be closed under products; the
        closure of base and seed then grows from the seed alone, since a
        product of two base elements stays in base.
        """
        table = self.table
        in_set = np.zeros(self.n, dtype=bool) if base is None else base.copy()
        seed_arr = np.unique(np.asarray(list(seed), dtype=np.int64))
        frontier = seed_arr[~in_set[seed_arr]]
        in_set[frontier] = True
        while frontier.size:
            if in_set.all():  # nothing left to reach
                break
            cur = np.flatnonzero(in_set)
            hit = np.zeros(self.n, dtype=bool)
            hit[table[np.ix_(frontier, cur)]] = True
            hit[table[np.ix_(cur, frontier)]] = True
            frontier = np.flatnonzero(hit & ~in_set)
            in_set[frontier] = True
        return in_set

    def _greedy_generators(self) -> list[int]:
        """The least element outside the closure so far, until all are reached."""
        in_set = np.zeros(self.n, dtype=bool)
        gens: list[int] = []
        while not in_set.all():
            g = int(np.flatnonzero(~in_set)[0])
            gens.append(g)
            in_set = self._magma_closure_mask([g], base=in_set)
        return gens

    def cached(self, key: Hashable, build: Callable[[], _V]) -> _V:
        """Return the memoised value under ``key``, calling ``build()`` on a miss.

        The table is read-only, so a value derived from it (and from what the
        key names: generators, masks, budgets) never goes stale; it lives as
        long as this object.  The key must name everything ``build`` depends on
        besides the table.  An exception from ``build`` propagates and leaves
        nothing behind, so a failed build is retried on the next call.  Cached
        values are shared between callers and must not be mutated, except by
        growing, so that what a caller already read stays valid: the
        ``group-bsz`` cube list, appended to by ``build_cube``, whose states set
        their h_i program ``prefix`` and its inverse-elimination pass ``mirror``
        on first use; the ``shortest_word`` tree, which gains whole BFS levels;
        the solvable plan's ``Level.lifts`` and the polycyclic set's scan memo
        ``scans``, one entry per block and scan state, filled as targets ask;
        and the shared-prefix scans of a plan's builder (the solvable plan's, a
        cube state's ``prefix`` and its pass's), one per set of its registers
        that its forks read.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    # -- basic product queries ---------------------------------------------

    def word_value(self, word: Sequence[int]) -> int:
        """Left-to-right product of a nonempty element sequence."""
        it = iter(word)
        acc = next(it)
        for x in it:
            acc = self.table.item(acc, x)
        return acc

    def power(self, s: int, e: int) -> int:
        if e < 1:
            raise ValueError("exponent must be >= 1")
        acc = s
        for _ in range(e - 1):
            acc = self.table.item(acc, s)
        return acc

    # -- omega caches --------------------------------------------------------

    def _build_power_caches(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per element s: the idempotent power s^e, the least such e >= 1,
        and the period p of the powers of s, in O(sqrt(n)) gathers.

        The powers are walked one product at a time for up to
        m = ceil(sqrt(n)) steps, which settles every s with e <= m (and
        p <= e).  For the rest, y = s^(m*m) lies in the cycle of <s>, as
        index + period - 1 <= n; baby steps y s^b (b < m) against giant steps
        y s^(a m) give p, the idempotent is s^(c p) for c p >= m*m, and the
        index i, the first power it fixes, gives e = p * ceil(i / p).
        """
        n, table = self.n, self.table
        m = math.isqrt(n - 1) + 1
        steps = [np.arange(n, dtype=np.int64)]  # steps[j - 1] = s^j
        pending = table[steps[0], steps[0]] != steps[0]
        while pending.any() and len(steps) < m:
            steps.append(table[steps[-1], steps[0]].astype(np.int64))
            pending &= table[steps[-1], steps[-1]] != steps[-1]
        steps = np.stack(steps)
        omega_exp = np.argmax(table[steps, steps] == steps, axis=0) + 1
        omega = steps[omega_exp - 1, np.arange(n)]
        period = np.argmax(table[omega, steps] == omega, axis=0) + 1
        if pending.any():
            cols = np.flatnonzero(pending)
            steps, at = steps[:, cols], np.arange(cols.size)
            giant = [steps[-1]]  # giant[a - 1] = s^(a m), a <= 2m
            for _ in range(2 * m - 1):
                giant.append(table[giant[-1], steps[-1]].astype(np.int64))
            giant = np.stack(giant)

            def power(e: np.ndarray) -> np.ndarray:  # s^e for 1 <= e <= 2m*m
                hi, lo = np.divmod(e - 1, m)
                return np.where(hi == 0, steps[lo, at], table[giant[hi - 1, at], steps[lo, at]])

            y = giant[m - 1]
            # the first giant step to meet a baby step y s^b meets it at p = a m - b, b largest
            match = np.vstack((y, table[y, steps[:-1]])) == giant[m:, None]
            a = np.argmax(match.any(axis=1), axis=0)
            p = (a + 1) * m - (m - 1 - np.argmax(match[a, ::-1, at], axis=1))
            om = power(-(-m * m // p) * p)
            first = np.argmax(table[om, giant] == giant, axis=0)  # the block holding i
            block = power(first * m + np.arange(1, m + 1)[:, None])
            index = first * m + 1 + np.argmax(table[om, block] == block, axis=0)
            omega[cols], omega_exp[cols], period[cols] = om, -(-index // p) * p, p
        return omega, omega_exp, period

    @property
    def omega_powers(self) -> np.ndarray:
        return self.cached(("power_caches",), self._build_power_caches)[0]

    @property
    def omega_exponents(self) -> np.ndarray:
        """Least e >= 1 with s^e idempotent, per element."""
        return self.cached(("power_caches",), self._build_power_caches)[1]

    @property
    def periods(self) -> np.ndarray:
        """Cycle length of the power sequence of each element."""
        return self.cached(("power_caches",), self._build_power_caches)[2]

    def omega_power(self, s: int) -> int:
        return int(self.omega_powers[s])

    def omega_plus_one(self, s: int) -> int:
        return int(self.table[self.omega_powers[s], s])

    # -- structural queries --------------------------------------------------

    def zero_element(self) -> Optional[int]:
        table = self.table
        for z in range(self.n):
            if (table[z, :] == z).all() and (table[:, z] == z).all():
                return z
        return None

    def identity_element(self) -> Optional[int]:
        table = self.table
        idx = np.arange(self.n)
        for e in range(self.n):
            if (table[e, :] == idx).all() and (table[:, e] == idx).all():
                return e
        return None

    def is_completely_regular(self) -> bool:
        return self.completely_regular_elements().cardinality == self.n

    def completely_regular_elements(self) -> ElementSet:
        om = self.omega_powers
        base = np.arange(self.n, dtype=np.int64)
        return ElementSet(self.table[om, base] == base)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Semigroup(n={self.n}{label})"


def validate_table(
    raw, name: str = "", gens_hint: Optional[Sequence[int]] = None, *, entries_checked: bool = False
) -> Semigroup:
    """Validate a raw square table of indices and wrap it as a Semigroup.

    Raises OutOfRangeError for bad entries or a hint element outside the
    table, and NotAssociativeError (with a witness triple) when associativity
    fails.  With ``entries_checked`` the caller vouches that the table is
    square, nonempty and holds only indices of its rows (the .cay reader
    checks each block of rows as it stores it), and the range scan is
    skipped; a read-only table at ``table_dtype(n)`` is then shared.
    """
    table = np.asarray(raw)
    if not entries_checked:
        _check_entries(table)
    sg = Semigroup(table, name=name, _trusted=True)
    if gens_hint is not None:
        for g in gens_hint:
            check_element(sg, g, "generator hint")
    sg._check_associativity(gens_hint=gens_hint)
    return sg


def spread(size: int, count: int) -> np.ndarray:
    """min(size, count) distinct indices spread evenly over range(size),
    from 0 up: the elements a probe samples."""
    m = min(size, count)
    return np.arange(m) * size // m


def _class_representatives(lines: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """The least index of each class of equal rows of ``lines``, ascending.

    ``probe`` holds some of the columns of ``lines``, and rows that differ
    there differ everywhere.  So the probe's narrow rows are sorted first:
    when they are all distinct (as in a group), or each row of ``lines``
    equals the first row with its probe, the probe's classes are the
    answer.  Only otherwise are the full rows sorted.
    """
    first, inverse = _unique_rows(probe)
    if first.size < len(probe) and not np.array_equal(lines, lines[first[inverse]]):
        first = _unique_rows(lines)[0]
    return np.sort(first)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index of the first occurrence of each distinct row, index into those
    of each row's)."""
    _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array with at least one column, each viewed as one
    opaque byte string, so that a 1-D unique sorts fixed-width keys instead
    of comparing rows column by column."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _check_entries(table: np.ndarray) -> None:
    """Raise OutOfRangeError unless a table from outside is square, nonempty
    and holds only indices of its rows."""
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise OutOfRangeError("table must be square")
    n = table.shape[0]
    if n == 0:
        raise OutOfRangeError("empty table")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise OutOfRangeError(
            f"entry at ({bad[0]}, {bad[1]}) = {table[bad[0], bad[1]]} outside [0, {n})"
        )


def closure(S: Semigroup, gens: Iterable[int]) -> ElementSet:
    """Subsemigroup generated by ``gens``: the values of words over them."""
    seed = sorted(set(int(g) for g in gens))
    if not seed:
        raise EmptyGeneratorsError("closure of the empty set")
    for g in seed:
        check_element(S, g, "generator")
    return ElementSet(S._word_closure_mask(seed))


def check_element(S: Semigroup, x: int, role: str) -> None:
    """Raise OutOfRangeError unless x indexes an element of S."""
    if not 0 <= x < S.n:
        raise OutOfRangeError(f"{role} {x} outside [0, {S.n})")


def cached_closure(S: Semigroup, gens: Iterable[int]) -> ElementSet:
    """``closure(S, gens)``, memoised on S under the sorted generator set."""
    key = tuple(sorted(set(int(g) for g in gens)))
    return S.cached(("closure", key), lambda: closure(S, key))


def cached_sub_semigroup(
    S: Semigroup, members: ElementSet
) -> tuple[Semigroup, np.ndarray, np.ndarray]:
    """``sub_semigroup(S, members)``, memoised on S under the member set.

    The one way a strategy carves out a sub-table, so every caller that
    lands on one member set shares the sub-table and whatever is memoised on
    it.  ``to_sub`` and ``to_parent`` are shared and read-only.
    """
    return S.cached(("sub_semigroup", members), lambda: sub_semigroup(S, members))


class _WordTree:
    """Breadth-first search tree of shortest words over one generator tuple.

    ``via[x]`` is the position in the tuple of the last letter of x's word and
    ``parent[x]`` the element before it (-1 for a one-letter word); both are
    meaningful only where ``seen[x]``.  ``levels[d]`` holds the elements whose
    shortest word has d + 1 letters, in the lexicographic order of their
    words; ``frontier`` is the deepest of them.  Levels are expanded only on
    demand and whole: a search never stops mid-level, so a tree that stopped
    early for one target is still exact for the next.
    """

    def __init__(self, S: Semigroup, gens: tuple[int, ...]):
        n = S.n
        self.table = S.table
        self.gen_vals = np.asarray(gens, dtype=np.int64)
        self.parent = np.full(n, -1, dtype=np.int64)
        self.via = np.full(n, -1, dtype=np.int64)
        self.seen = np.zeros(n, dtype=bool)
        level: list[int] = []
        for i, g in enumerate(gens):
            if not self.seen[g]:
                self.seen[g] = True
                self.via[g] = i
                level.append(g)
        self.frontier = np.asarray(level, dtype=np.int64)
        self.levels = [self.frontier]

    def _grow(self) -> None:
        """Expand the frontier by one level.

        The first discovery of an element keeps the lex-least shortest word:
        the products are scanned in (frontier word, letter) order.
        """
        lvl, m = self.frontier, self.gen_vals.size
        flat = self.table[np.ix_(lvl, self.gen_vals)].astype(np.int64).ravel()
        uniq, first = np.unique(flat, return_index=True)
        fresh = ~self.seen[uniq]
        uniq, first = uniq[fresh], first[fresh]
        order = np.argsort(first, kind="stable")
        uniq, first = uniq[order], first[order]
        self.parent[uniq] = lvl[first // m]
        self.via[uniq] = first % m
        self.seen[uniq] = True
        self.frontier = uniq
        self.levels.append(uniq)

    def word(self, t: int) -> Optional[list[int]]:
        while not self.seen[t] and self.frontier.size:
            self._grow()
        if not self.seen[t]:
            return None
        word: list[int] = []
        x = t
        while x != -1:
            word.append(int(self.via[x]))
            x = int(self.parent[x])
        word.reverse()
        return word

    def listing(self, depth: int) -> list[tuple[int, list[int]]]:
        """(element, word) for every element with a word of at most ``depth``
        letters, level by level."""
        while len(self.levels) < depth and self.frontier.size:
            self._grow()
        words: dict[int, list[int]] = {-1: []}
        out: list[tuple[int, list[int]]] = []
        for lvl in self.levels[:depth]:
            for x, p, i in zip(lvl.tolist(), self.parent[lvl].tolist(), self.via[lvl].tolist()):
                words[x] = words[p] + [i]
                out.append((x, words[x]))
        return out


def _search(S: Semigroup, gens: tuple[int, ...], ask: Callable[[_WordTree], _V]) -> _V:
    """``ask`` the memoised word tree of ``gens``; a search that raises drops
    the tree, so a half-grown level is never reused."""

    def build() -> _WordTree:
        for g in gens:
            check_element(S, g, "generator")
        return _WordTree(S, gens)

    key = ("word_tree", gens)
    tree = S.cached(key, build)
    try:
        return ask(tree)
    except BaseException:
        # an expansion cut short (say by KeyboardInterrupt) may have marked a
        # level seen without moving the frontier to it; drop the tree rather
        # than let it report deeper elements unreachable
        S._memo.pop(key, None)
        raise


def shortest_word(S: Semigroup, gens: Sequence[int], t: int) -> Optional[list[int]]:
    """Minimum-length word over ``gens`` whose left-to-right product is t.

    Returns generator *positions* into ``gens``; ties broken by the
    lexicographically smallest index sequence.  None when t is unreachable.
    The search tree is memoised on S under the generator tuple as given
    (order and repeats included, since the answer indexes it) and grown
    level by level only as deep as the targets asked so far need; a search
    that raises drops the tree, so a half-grown level is never reused.  Raises
    OutOfRangeError for a target or generator outside S.
    """
    gens = tuple(int(g) for g in gens)
    if not gens:
        raise EmptyGeneratorsError("no generators")
    check_element(S, t, "target")
    return _search(S, gens, lambda tree: tree.word(int(t)))


def shortest_words(S: Semigroup, gens: Sequence[int], depth: int) -> list[tuple[int, list[int]]]:
    """Every element that is the value of a word over ``gens`` of at most
    ``depth`` letters, with its ``shortest_word``, in breadth-first order:
    by word length, then lexicographically.  Reads and grows the same
    memoised tree as ``shortest_word``."""
    gens = tuple(int(g) for g in gens)
    if not gens:
        raise EmptyGeneratorsError("no generators")
    return _search(S, gens, lambda tree: tree.listing(depth))


def ideal_chain(S: Semigroup) -> tuple[np.ndarray, ...]:
    """The strictly descending chain S^1 > S^2 > ... > S^m, memoised on S.

    Entries are read-only boolean masks over the elements.  The last entry is
    the stable ideal: S^k equals it for every k >= m.

    S^(k+1) = S^k S lies in S^k, so the level is stable as soon as the
    products scattered so far cover S^k, and the rows not yet read are not
    needed.  A table of more than ``_SCATTER_BLOCK`` entries is scattered
    from the squares x*x of S^k, which cover every band outright, then over
    blocks of about ``_SCATTER_BLOCK`` products, each followed by that
    check; a smaller one is scattered whole, by one gather per level.
    """

    def build():
        n, table = S.n, S.table
        step = max(1, _SCATTER_BLOCK // n)  # rows of S^k scattered between checks
        cur = np.ones(n, dtype=bool)
        cur.setflags(write=False)
        chain = [cur]
        while True:
            nxt = np.zeros(n, dtype=bool)
            if n * n <= _SCATTER_BLOCK:
                nxt[table[cur, :]] = True
            else:
                members = np.flatnonzero(cur)
                nxt[table[members, members]] = True
                for lo in range(0, members.size, step):
                    if np.array_equal(nxt, cur):
                        break
                    nxt[table[members[lo : lo + step]]] = True
            if np.array_equal(nxt, cur):
                return tuple(chain)
            nxt.setflags(write=False)
            chain.append(nxt)
            cur = nxt

    return S.cached(("ideal_chain",), build)


def ideal_power(S: Semigroup, k: int) -> ElementSet:
    """S^k: values of all products of exactly k elements."""
    if k < 1:
        raise ValueError("k must be >= 1")
    chain = ideal_chain(S)
    return ElementSet(chain[min(k, len(chain)) - 1])


def products_outside(S: Semigroup, members: np.ndarray) -> np.ndarray:
    """Ascending products a*b, with a and b in ``members``, that leave it."""
    hit = np.zeros(S.n, dtype=bool)
    hit[S.table[np.ix_(members, members)]] = True
    hit[members] = False
    return np.flatnonzero(hit)


def is_ideal(S: Semigroup, I: ElementSet) -> bool:
    if not I:
        return False
    members = I.to_array()
    table = S.table
    hit = np.zeros(S.n, dtype=bool)
    hit[table[:, members]] = True
    hit[table[members, :]] = True
    hit[members] = False
    return not hit.any()


def rees_quotient(S: Semigroup, I: ElementSet) -> tuple[Semigroup, np.ndarray]:
    """Collapse the two-sided ideal I to a single zero element.

    Returns (quotient, projection) where projection maps each element of S to
    its class index.  Surviving elements keep their relative order; the zero
    class takes the last index.
    """
    if not is_ideal(S, I):
        raise NotAnIdealError("given set is not a two-sided ideal")
    keep = np.flatnonzero(~I.mask)
    m = keep.size
    proj = np.full(S.n, m, dtype=np.int64)
    proj[keep] = np.arange(m)
    qtable = np.full((m + 1, m + 1), m, dtype=table_dtype(m + 1))
    if m:
        qtable[:m, :m] = proj.astype(qtable.dtype)[S.table[np.ix_(keep, keep)]]
    qtable.setflags(write=False)  # at the stored dtype and read-only, so the quotient shares it
    name = f"{S.name}/I" if S.name else ""
    return Semigroup.trusted(qtable, name=name), proj


def direct_product(S: Semigroup, T: Semigroup, budget: int = DIRECT_PRODUCT_MAX) -> Semigroup:
    """Componentwise product; element (a, b) gets index a*|T| + b."""
    n = S.n * T.n
    if n > budget:
        raise BudgetExceededError(f"product size {n} exceeds budget {budget}")
    sa = np.repeat(np.arange(S.n, dtype=np.int64), T.n)
    tb = np.tile(np.arange(T.n, dtype=np.int64), S.n)
    scaled = (np.arange(S.n) * T.n).astype(table_dtype(n))  # a -> a*|T|, which fits
    table = scaled[S.table[np.ix_(sa, sa)]]
    table += T.table[np.ix_(tb, tb)]
    table.setflags(write=False)  # at the stored dtype and read-only, so the product shares it
    name = ""
    if S.name and T.name:
        name = f"{S.name}x{T.name}"
    return Semigroup.trusted(table, name=name)


def sub_semigroup(S: Semigroup, members: ElementSet) -> tuple[Semigroup, np.ndarray, np.ndarray]:
    """Restrict S to a product-closed subset.

    Returns (sub, to_sub, to_parent): ``to_sub[x]`` is the sub-index of parent
    element x (or -1), ``to_parent[i]`` the parent index of sub-element i.
    """
    mem = members.to_array()
    if products_outside(S, mem).size:
        raise ValueError("subset is not product-closed")
    to_sub = np.full(S.n, -1, dtype=np.int64)
    to_sub[mem] = np.arange(mem.size)
    to_sub.setflags(write=False)
    mem.setflags(write=False)
    # non-members wrap in the narrow lookup, but no product of members reads them
    sub_table = to_sub.astype(table_dtype(mem.size))[S.table[np.ix_(mem, mem)]]
    sub_table.setflags(write=False)  # at the stored dtype and read-only, so the sub-semigroup shares it
    return Semigroup.trusted(sub_table), to_sub, mem
