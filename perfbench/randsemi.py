"""Seeded random transformation semigroups for the random-member workload.

A draw picks 1-4 random self-maps of {0, ..., d-1} with 3 <= d <= 7 and closes
them under composition.  Draws whose closure grows past the size cap are
thrown away and redrawn, so every table has at most ``MAX_SIZE`` elements.
The product ``x * y`` is "apply x, then y"; any composition order gives an
associative table, this one matches the left-to-right reading of words.

Everything here is plain data (tuples, lists, one numpy table) built from a
``random.Random``, so the same seed always gives the same tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

MAX_SIZE = 400
MIN_POINTS, MAX_POINTS = 3, 7
MIN_MAPS, MAX_MAPS = 1, 4

Map = tuple[int, ...]


@dataclass
class RandomTable:
    """A Cayley table with the indices of the maps that generate it."""

    maps: list[Map]
    elements: list[Map]
    table: np.ndarray
    gens: list[int]

    @property
    def n(self) -> int:
        return len(self.elements)


def draw_maps(rng: random.Random) -> list[Map]:
    d = rng.randint(MIN_POINTS, MAX_POINTS)
    k = rng.randint(MIN_MAPS, MAX_MAPS)
    return [tuple(rng.randrange(d) for _ in range(d)) for _ in range(k)]


def close_maps(maps: list[Map], cap: int = MAX_SIZE) -> Optional[list[Map]]:
    """Every product of the maps, in breadth-first order; None past ``cap``.

    Right multiplication by the generators reaches every product, because
    each element is a word in them.
    """
    elements = list(dict.fromkeys(maps))
    if len(elements) > cap:
        return None
    seen = set(elements)
    i = 0
    while i < len(elements):
        a = elements[i]
        i += 1
        for g in maps:
            c = tuple(g[y] for y in a)
            if c not in seen:
                if len(elements) == cap:
                    return None
                seen.add(c)
                elements.append(c)
    return elements


def cayley_table(elements: list[Map]) -> np.ndarray:
    """``table[i, j]`` is the index of elements[i] followed by elements[j]."""
    E = np.asarray(elements, dtype=np.int64)
    n, d = E.shape
    comp = E[np.arange(n)[None, :, None], E[:, None, :]]  # comp[i, j, x] = E[j, E[i, x]]
    weights = d ** np.arange(d, dtype=np.int64)
    codes = comp @ weights
    own = E @ weights
    order = np.argsort(own)
    pos = np.searchsorted(own[order], codes)
    table = order[pos]
    if not np.array_equal(own[table], codes):
        raise ValueError("element set is not closed under composition")
    return table


def draw_table(rng: random.Random, lo: int = 1, hi: int = MAX_SIZE) -> RandomTable:
    """Redraw until the closure has between ``lo`` and ``hi`` elements."""
    if not 1 <= lo <= hi <= MAX_SIZE:
        raise ValueError(f"size range [{lo}, {hi}] outside [1, {MAX_SIZE}]")
    while True:
        maps = draw_maps(rng)
        elements = close_maps(maps, hi)
        if elements is not None and len(elements) >= lo:
            index = {e: i for i, e in enumerate(elements)}
            gens = sorted({index[m] for m in maps})
            return RandomTable(maps, elements, cayley_table(elements), gens)


def to_cay(table: np.ndarray, gens: list[int]) -> str:
    """The table in the .cay text format, generators in the GENS sidecar."""
    lines = [f"CAYLEY {table.shape[0]}", "# GENS " + " ".join(map(str, gens))]
    lines.extend(" ".join(map(str, row)) for row in table.tolist())
    return "\n".join(lines) + "\n"
