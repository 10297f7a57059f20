"""Shared pieces for the compression strategies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import UnreachableError
from ..groups import GroupView
from ..semigroup import Semigroup, cached_closure, cached_sub_semigroup
from ..slp import Slp, SlpBuilder


@dataclass
class CompressionReport:
    """Outcome of one compression run: program plus measured metrics."""

    strategy: str
    slp: Slp
    length: int
    width: int
    verified: bool = field(default=True, init=False)  # compress raises instead
    target: int
    extras: dict = field(default_factory=dict)


def generated_part(
    S: Semigroup, gens: Sequence[int], t: int
) -> tuple[Semigroup, list[int], int, Optional[np.ndarray]]:
    """(sub, its generators, its target, to_parent): the subsemigroup
    ``gens`` generate, carved as its own table, with ``gens`` and t in its
    numbering and the map of its elements to S.  When it is all of S, S and
    the arguments come back with to_parent None.  Raises UnreachableError
    when t lies outside it.  Memoised on S through the closure and carve."""
    gens = [int(g) for g in gens]
    members = cached_closure(S, gens)
    if t not in members:
        raise UnreachableError(f"target {t} is outside the generated subsemigroup")
    if members.cardinality == S.n:
        return S, gens, t, None
    sub, to_sub, to_parent = cached_sub_semigroup(S, members)
    return sub, [int(to_sub[g]) for g in gens], int(to_sub[t]), to_parent


def word_program(values: list[int]) -> Slp:
    """Left-to-right product program: width <= 2, length 2m - 1."""
    b = SlpBuilder()
    acc = b.fresh()
    if len(values) == 1:
        b.load(acc, values[0])
        return b.compact(acc)
    scratch = b.fresh()
    b.word_product(values, acc, scratch)
    return b.compact(acc)


def identity_program(G: GroupView, g: int) -> Slp:
    """``compact(fast_exp(g, order of g))``, made as one program: the identity
    of G as every group builder writes it, g its first generator."""
    b, order = SlpBuilder(), G.element_order(g)
    b.load(0, g)
    if order > 1:
        b.fast_exp_into(1, 0, order)
    return b.compact(0 if order == 1 else 1)
