"""Tests of the random transformation-semigroup generator.

    python3 -m pytest -q perfbench/test_randsemi.py
"""

from __future__ import annotations

import random
import sys
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import randsemi  # noqa: E402


def draws(seed: int, count: int, lo: int = 1, hi: int = randsemi.MAX_SIZE):
    rng = random.Random(seed)
    return [randsemi.draw_table(rng, lo, hi) for _ in range(count)]


@pytest.mark.parametrize("seed", range(4))
def test_size_cap(seed):
    for rt in draws(seed, 30):
        assert 1 <= rt.n <= randsemi.MAX_SIZE
        assert rt.table.shape == (rt.n, rt.n)
    for rt in draws(seed, 5, 121, 250):
        assert 121 <= rt.n <= 250


def test_closure_stops_at_cap():
    shift = tuple(range(1, 7)) + (0,)
    assert randsemi.close_maps([shift], cap=6) is None
    assert len(randsemi.close_maps([shift], cap=7)) == 7


def test_maps_in_range():
    rng = random.Random(11)
    for _ in range(200):
        maps = randsemi.draw_maps(rng)
        d = len(maps[0])
        assert randsemi.MIN_POINTS <= d <= randsemi.MAX_POINTS
        assert randsemi.MIN_MAPS <= len(maps) <= randsemi.MAX_MAPS
        assert all(len(m) == d and all(0 <= x < d for x in m) for m in maps)


def test_same_seed_same_tables():
    a, b = draws(7, 20), draws(7, 20)
    assert [(rt.maps, rt.gens, rt.table.tolist()) for rt in a] == [
        (rt.maps, rt.gens, rt.table.tolist()) for rt in b
    ]
    assert [rt.table.tolist() for rt in draws(8, 20)] != [rt.table.tolist() for rt in a]


@pytest.mark.parametrize("seed", range(6))
def test_small_draws_are_associative_compositions(seed):
    for rt in draws(seed, 15, 1, 30):
        rows = rt.table.tolist()
        elems = rt.elements
        for i, j in product(range(rt.n), repeat=2):
            assert elems[rows[i][j]] == tuple(elems[j][x] for x in elems[i])
        for a, b, c in product(range(rt.n), repeat=3):
            assert rows[rows[a][b]][c] == rows[a][rows[b][c]]


@pytest.mark.parametrize("seed", range(3))
def test_generators_reach_every_element_and_text_round_trips(seed):
    for rt in draws(seed, 20):
        rows = checker.parse_table(randsemi.to_cay(rt.table, rt.gens))
        assert rows == rt.table.tolist()
        assert checker.closure(rows, rt.gens) == set(range(rt.n))
