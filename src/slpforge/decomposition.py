"""Decomposition of a completely regular semigroup into a band of groups.

H-classes are computed from mutual left/right divisibility; each is a group
(Clifford and Preston, vol. I), checked to hold one idempotent, and the
partition is checked to be a congruence.  The quotient band must be normal
(uxyv = uyxv); anything else is reported as the corresponding structural
failure.  The normal-band test ``is_medial`` lives here, below ``classify``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BandNotNormalError,
    HNotCongruenceError,
    NotCompletelyRegularError,
)
from .semigroup import Semigroup, _row_keys
from .sets import ElementSet


def _row_classes(rows: np.ndarray) -> np.ndarray:
    """Class id per row of a 2-D array; equal rows share an id.

    Ids are only meaningful for equality; their order is unspecified.
    """
    if rows.shape[1] == 0:
        return np.zeros(rows.shape[0], dtype=np.intp)
    _, inv = np.unique(_row_keys(rows), return_inverse=True)
    return inv.ravel()


def _right_classes(S: Semigroup, cols: np.ndarray) -> np.ndarray:
    """Class ids of elements under u ~ v iff u*b == v*b for all b in cols."""
    return _row_classes(S.table[:, cols])


def _commutes_modulo(S: Semigroup, members: np.ndarray) -> bool:
    """Does a*x*y*b == a*y*x*b hold for all a, b in members and x, y in S?

    Exactly when x*y and y*x share a two-sided class over ``members``
    (z ~ z' iff a*z*b == a*z'*b for all a, b in it): the right class of u
    names the map b -> u*b, and z's key is the right class of a*z for every a.
    O(n |members|) for the classes plus O(n^2) for the comparisons.
    """
    table = S.table
    rcls = _right_classes(S, members).astype(table.dtype)  # ids < n fit
    two = _row_classes(rcls[table[members, :]].T).astype(table.dtype)
    both = two[table]
    return bool(np.array_equal(both, both.T))


def is_medial(S: Semigroup) -> bool:
    """Does uxyv = uyxv hold for all u, x, y, v in S?  O(n^2 log n).

    That is commutation modulo the two-sided classes over all of S: xy and
    yx must share a class.  On a band this is the normal-band law.
    """
    return _commutes_modulo(S, np.arange(S.n))


@dataclass(frozen=True)
class BandDecomposition:
    """S partitioned into disjoint subgroups indexed by a normal band."""

    band: Semigroup
    projection: np.ndarray
    idempotents: list[int]
    carriers: list[ElementSet]

    @property
    def class_count(self) -> int:
        return self.band.n

    def class_of(self, x: int) -> int:
        return int(self.projection[x])

    def j_below(self, alpha: int, x: int) -> bool:
        """Is the idempotent of class alpha in S^1 x S^1?

        S is a band of groups, so J-order is the order of the band S/H, where
        a <=_J b iff aba = a: one lookup instead of a search over S.
        """
        B = self.band.table
        return bool(B[B[alpha, self.class_of(x)], alpha] == alpha)


def cached_decomposition(S: Semigroup) -> BandDecomposition:
    """``band_of_groups_decomposition(S)``, memoised on S.

    A failed decomposition raises again on every call, as it stores nothing.
    """
    return S.cached(("band_of_groups_decomposition",), lambda: band_of_groups_decomposition(S))


def band_of_groups_decomposition(S: Semigroup) -> BandDecomposition:
    """Split a completely regular S into subgroups over its H-class band."""
    regular = S.completely_regular_elements()
    if regular.cardinality < S.n:
        bad = np.flatnonzero(~regular.mask)[0]
        raise NotCompletelyRegularError(
            f"element {int(bad)} has s^(w+1) != s; not a union of groups"
        )
    n, table = S.n, S.table
    idx = np.arange(n)
    lmat = np.zeros((n, n), dtype=bool)
    rmat = np.zeros((n, n), dtype=bool)
    rows = np.repeat(idx, n)
    lmat[rows, np.ascontiguousarray(table.T).ravel()] = True
    rmat[rows, table.ravel()] = True
    lmat[idx, idx] = True
    rmat[idx, idx] = True
    l_id = _row_classes(np.packbits(lmat, axis=1))
    r_id = _row_classes(np.packbits(rmat, axis=1))
    pair = l_id.astype(np.int64) * (r_id.max() + 1) + r_id

    # classes are numbered by their least element, whatever ids came before
    _, first, h_id = np.unique(pair, return_index=True, return_inverse=True)
    order = np.argsort(first)
    relabel = np.empty_like(order)
    relabel[order] = np.arange(order.size)
    cls = relabel[h_id.ravel()].astype(np.int64)
    m = order.size
    reps = first[order].astype(np.int64)

    carriers = [ElementSet(cls == i) for i in range(m)]
    # the identity of each class is the idempotent power of its members
    idems = S.omega_powers[reps]
    stray = np.flatnonzero(cls[idems] != np.arange(m))
    if stray.size:
        raise HNotCongruenceError(
            f"H-class of element {int(reps[stray[0]])} misses its idempotent power"
        )
    if np.count_nonzero(table[idx, idx] == idx) != m:
        raise HNotCongruenceError(f"more idempotents than the {m} H-classes")

    prod_cls = cls[table.astype(np.int64)]
    repmap = reps[cls]
    collapsed = prod_cls[np.ix_(repmap, repmap)]
    if not np.array_equal(prod_cls, collapsed):
        a, b = np.argwhere(prod_cls != collapsed)[0]
        raise HNotCongruenceError(
            f"H is not a congruence: witness pair ({int(a)}, {int(b)})"
        )

    btable = cls[table[np.ix_(reps, reps)].astype(np.int64)]
    # idempotent with no check: each H-class is a group, so rep*rep stays in it
    band = Semigroup.trusted(btable, name=f"{S.name}/H" if S.name else "")
    if not is_medial(band):
        raise BandNotNormalError("quotient band fails uxyv = uyxv")

    return BandDecomposition(band, cls, idems.tolist(), carriers)
