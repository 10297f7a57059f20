"""Immutable bit-set over element indices [0, n).

Python integers double as arbitrarily wide bit vectors, which keeps closure
loops allocation-free.  Conversions to sorted index tuples / numpy arrays sit
at the API boundary.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class ElementSet:
    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if mask < 0 or mask >> n:
            raise ValueError("mask has bits outside [0, n)")
        self.n = n
        self.mask = mask

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "ElementSet":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} outside [0, {n})")
            mask |= 1 << i
        return cls(n, mask)

    @classmethod
    def from_mask(cls, bools: np.ndarray) -> "ElementSet":
        """Set of the True positions of a 1-D boolean array."""
        packed = np.packbits(np.asarray(bools, dtype=bool), bitorder="little")
        return cls(len(bools), int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def full(cls, n: int) -> "ElementSet":
        return cls(n, (1 << n) - 1)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def to_array(self) -> np.ndarray:
        return np.fromiter(self, dtype=np.int64, count=self.cardinality)

    def contains(self, i: int) -> bool:
        return bool((self.mask >> i) & 1)

    __contains__ = contains

    def add(self, i: int) -> "ElementSet":
        return ElementSet(self.n, self.mask | (1 << i))

    def remove(self, i: int) -> "ElementSet":
        return ElementSet(self.n, self.mask & ~(1 << i))

    def union(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.n, self.mask | other.mask)

    def intersection(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.n, self.mask & other.mask)

    def difference(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.n, self.mask & ~other.mask)

    def issubset(self, other: "ElementSet") -> bool:
        return self.mask & ~other.mask == 0

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            lsb = m & -m
            yield lsb.bit_length() - 1
            m ^= lsb

    def __len__(self) -> int:
        return self.cardinality

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"ElementSet({self.n}, {{{', '.join(map(str, self))}}})"


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m
