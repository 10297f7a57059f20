"""Shared pieces for the compression strategies."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..groups import GroupView
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
