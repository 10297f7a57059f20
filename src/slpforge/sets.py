"""Immutable set of element indices [0, n), held as a read-only bool mask.

Closures, ideals and H-classes come out of numpy passes as bool masks over
the elements, and an ``ElementSet`` wraps such a mask as it is.  The wrapper
adds what a bare array lacks: ``in`` with set semantics, where an index
outside [0, n) is not a member rather than a wrapped-around lookup, and a
hash, so that sets can key the memo on ``Semigroup``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class ElementSet:
    __slots__ = ("mask", "_hash")

    def __init__(self, mask: np.ndarray):
        """Wrap a 1-D bool mask: a writeable one is copied, a read-only one shared."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 1:
            raise ValueError("an element mask must be 1-D")
        if mask.flags.writeable:
            mask = mask.copy()
            mask.setflags(write=False)
        self.mask = mask
        self._hash = None

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "ElementSet":
        idx = np.asarray(list(indices), dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= n)]
        if bad.size:
            raise ValueError(f"index {bad[0]} outside [0, {n})")
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        return cls(mask)

    @classmethod
    def full(cls, n: int) -> "ElementSet":
        return cls(np.ones(n, dtype=bool))

    @property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.mask))

    def to_array(self) -> np.ndarray:
        """Members in ascending order."""
        return np.flatnonzero(self.mask)

    def __contains__(self, i) -> bool:
        return 0 <= i < self.mask.size and bool(self.mask[i])

    def __iter__(self) -> Iterator[int]:
        return iter(np.flatnonzero(self.mask).tolist())

    def __len__(self) -> int:
        return self.cardinality

    def __eq__(self, other) -> bool:
        # the cached hashes tell most unequal sets apart without a scan
        return (
            isinstance(other, ElementSet)
            and hash(self) == hash(other)
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.mask.tobytes())
        return self._hash

    def __repr__(self) -> str:
        return f"ElementSet({self.mask.size}, {{{', '.join(map(str, self))}}})"
