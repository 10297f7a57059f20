"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's own vectorised paths:
closures run over plain python sets, word searches are naive BFS, and the
free-object models for the obstruction witnesses are built from scratch so
the closed-form tables have something honest to be compared against.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest
from hypothesis import settings

# every run draws the same examples, so a failure is reproducible and the
# suite's outcome does not depend on an example database
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def py_closure(table, gens) -> set[int]:
    """Worklist closure over python sets (no numpy)."""
    members = set(int(g) for g in gens)
    frontier = list(members)
    while frontier:
        new = []
        for a in list(members):
            for b in frontier:
                for c in (table[a][b], table[b][a]):
                    c = int(c)
                    if c not in members:
                        members.add(c)
                        new.append(c)
        frontier = new
    return members


def py_shortest_words(table, gens, max_len=None) -> dict[int, list[int]]:
    """BFS shortest lex-least words (generator positions) for every element."""
    words: dict[int, list[int]] = {}
    level = []
    for i, g in enumerate(gens):
        if int(g) not in words:
            words[int(g)] = [i]
            level.append(int(g))
    depth = 1
    while level and (max_len is None or depth < max_len):
        nxt = []
        for x in level:
            for i, g in enumerate(gens):
                p = int(table[x][int(g)])
                if p not in words:
                    words[p] = words[x] + [i]
                    nxt.append(p)
        level = nxt
        depth += 1
    return words


def _transformation_table(rng, cap: int = 120):
    """Closure of 1-4 random maps on 3-6 points, or None past ``cap`` elements.

    Maps compose left to right: (a*b)(x) = b(a(x)).
    """
    points = rng.randint(3, 6)
    gens = [tuple(rng.randrange(points) for _ in range(points)) for _ in range(rng.randint(1, 4))]
    elems = list(dict.fromkeys(gens))
    index = {e: i for i, e in enumerate(elems)}
    for a in elems:  # grows while iterating: a worklist over right multiples
        for g in gens:
            c = tuple(g[a[x]] for x in range(points))
            if c not in index:
                if len(elems) == cap:
                    return None
                index[c] = len(elems)
                elems.append(c)
    return [[index[tuple(b[a[x]] for x in range(points))] for b in elems] for a in elems]


def random_semigroups(count: int, seed: int):
    """``count`` seeded random transformation semigroups of at most 120 elements."""
    import numpy as np

    from slpforge.semigroup import Semigroup

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        table = _transformation_table(rng)
        if table is not None:
            out.append(Semigroup.trusted(np.asarray(table)))
    return out


def table_of(S) -> list[list[int]]:
    return [[int(x) for x in row] for row in S.table]


# -- free-object models for the obstruction witnesses -------------------------


def free_lrb_value(word: list[int]) -> tuple[int, ...]:
    """Free left-regular band: keep the first occurrence of each letter."""
    seen: set[int] = set()
    out = []
    for a in word:
        if a not in seen:
            seen.add(a)
            out.append(a)
    return tuple(out)


def free_rrb_value(word: list[int]) -> tuple[int, ...]:
    """Free right-regular band: keep the last occurrence of each letter."""
    rev = free_lrb_value(list(reversed(word)))
    return tuple(reversed(rev))


def lrb_witness_oracle(n: int):
    """Congruence quotient behind the LRB witness, built by brute force.

    Starts from the free LRB on n letters (injective words with
    first-occurrence product) and merges along the absorption relations
    s_i s_j ~ s_j for j >= i+2 and s_j s_i ~ s_j for j > i, saturating under
    left and right multiplication.  Returns (word -> class id, classes).
    """
    letters = list(range(1, n + 1))
    elements: list[tuple[int, ...]] = []
    for r in range(1, n + 1):
        for combo in itertools.permutations(letters, r):
            elements.append(combo)
    index = {e: i for i, e in enumerate(elements)}

    def mul(a, b):
        return free_lrb_value(list(a) + list(b))

    parent = list(range(len(elements)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
            return True
        return False

    for i in letters:
        for j in letters:
            if j >= i + 2:
                union(index[(i, j)], index[(j,)])
            if j > i:
                union(index[(j, i)], index[(j,)])
    changed = True
    while changed:
        changed = False
        reps: dict[int, list[int]] = {}
        for k in range(len(elements)):
            reps.setdefault(find(k), []).append(k)
        for root, members in list(reps.items()):
            if len(members) < 2:
                continue
            base = members[0]
            for other in members[1:]:
                for e in elements:
                    if union(index[mul(e, elements[base])], index[mul(e, elements[other])]):
                        changed = True
                    if union(index[mul(elements[base], e)], index[mul(elements[other], e)]):
                        changed = True
    classes: dict[int, set] = {}
    for k, e in enumerate(elements):
        classes.setdefault(find(k), set()).add(e)
    return {e: find(index[e]) for e in elements}, classes


@pytest.fixture(scope="session")
def zoo_small():
    """Structures with |S| <= 80 shared across oracle-style tests."""
    from slpforge import zoo

    out = {}
    out["Z6"] = (zoo.make_cyclic(6), [1], None)
    out["Z2^3"] = (zoo.make_abelian([2, 2, 2]), [4, 2, 1], None)
    out["RB(2,3)"] = (zoo.make_rectangular_band(2, 3), list(range(6)), None)
    S, gens, tgt = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    out["RB(2,2)xZ3"] = (S, gens, tgt)
    S, gens, tgt = zoo.build_family("clifford-z4-z2", [])
    out["Clifford"] = (S, gens, tgt)
    for variant in ("LRB", "RRB", "T"):
        w = zoo.make_obstruction_witness(variant, 4)
        out[f"{variant}4"] = (w.semigroup, w.generators, w.target)
    w = zoo.make_u_witness(4)
    out["U4"] = (w.semigroup, w.generators, w.target)
    out["D8"] = (zoo.make_dihedral(4), zoo.dihedral_generators(4), None)
    out["S4"] = (
        zoo.make_sym(4),
        [zoo.perm_index(4, (1, 0, 2, 3)), zoo.perm_index(4, (1, 2, 3, 0))],
        None,
    )
    out["A4"] = (zoo.make_alt(4), zoo._alt_generators(4), None)
    out["H3"] = (zoo.make_heisenberg(3), zoo.heisenberg_generators(3), None)
    w = zoo.make_power_witness(zoo.make_cyclic(2), 1, 3)
    out["PW(Z2,3)"] = (w.semigroup, w.generators, w.target)
    w = zoo.make_subset_semilattice(4)
    out["Sl2^4"] = (w.semigroup, w.generators, w.target)
    base, bgens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    T, _ = zoo.make_nilpotent_extension(base, len(bgens), bgens, 2)
    out["NilExt"] = (T, list(range(len(bgens))), None)
    return out
