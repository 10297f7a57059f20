"""Shared pieces for the compression strategies."""

from __future__ import annotations

from dataclasses import dataclass, field
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
