"""Structural classification driving strategy dispatch.

All flags are computed by exhaustive scans over the concrete table, guarded
by budgets.  The central-commutation scan avoids the naive n^4 loop: a*x*y*b
equals a*y*x*b for all b in the ideal iff (a*x)*y and (a*y)*x fall into the
same right-translation class over that ideal, so each a costs one n^2 pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, SlpforgeError
from .groups import cached_group_view, derived_series, group_view
from .semigroup import Semigroup, ideal_power
from .sets import ElementSet

DEFAULT_KMAX = 6
DEFAULT_SCAN_BUDGET = 10**8


@dataclass
class Config:
    kmax: int = DEFAULT_KMAX
    scan_budget: int = DEFAULT_SCAN_BUDGET
    identity_budget: int = 10**8
    diameter: Optional[int] = None
    band_mode: str = "wide"
    group_strategy: str = "auto"


@dataclass
class ClassReport:
    completely_regular: bool
    commutation_level: Optional[int]
    commutation_unknown: bool
    sandwich_level: Optional[int]
    sandwich_unknown: bool
    rb_ideal_level: Optional[int]
    stable_ideal_level: int
    is_band: bool
    is_normal_band: Optional[bool]
    is_lrb: Optional[bool]
    is_rrb: Optional[bool]
    is_group: bool
    groups_solvable: Optional[bool]
    recommended: str
    ideal_sizes: list[int] = field(default_factory=list)


def _right_classes(S: Semigroup, cols: np.ndarray) -> np.ndarray:
    """Class ids of elements under u ~ v iff u*b == v*b for all b in cols."""
    sub = S.table[:, cols]
    _, inv = np.unique(sub.reshape(S.n, -1), axis=0, return_inverse=True)
    return inv


def _left_classes(S: Semigroup, rows: np.ndarray) -> np.ndarray:
    sub = S.table[rows, :]
    _, inv = np.unique(sub.reshape(rows.size, -1).T, axis=0, return_inverse=True)
    return inv


def central_commutation_level(
    S: Semigroup, kmax: int = DEFAULT_KMAX, budget: int = DEFAULT_SCAN_BUDGET
) -> Optional[int]:
    """Least k <= kmax with a x y b = a y x b for all a, b in S^k, x, y in S.

    k = 0 means plain commutativity.  Raises BudgetExceededError when the scan
    for some level would be too large (smaller levels already refuted).
    """
    table = S.table
    if np.array_equal(table, table.T):
        return 0
    ideal = ElementSet.full(S.n)
    for k in range(1, kmax + 1):
        ideal = ideal_power(S, k)
        members = ideal.to_array()
        if members.size * S.n * S.n > budget:
            raise BudgetExceededError(
                f"central-commutation scan at level {k} exceeds budget"
            )
        rcls = _right_classes(S, members)
        ok = True
        for a in members:
            U = table[table[int(a), :].astype(np.int64), :].astype(np.int64)
            C = rcls[U]
            if not np.array_equal(C, C.T):
                ok = False
                break
        if ok:
            return k
    return None


def cached_commutation_level(S: Semigroup, kmax: int, budget: int) -> Optional[int]:
    """``central_commutation_level``, memoised on S under (kmax, budget).

    A BudgetExceededError is not memoised; it is raised again on every call.
    """
    return S.cached(
        ("central_commutation_level", kmax, budget),
        lambda: central_commutation_level(S, kmax, budget),
    )


def sandwich_ideal_level(
    S: Semigroup, kmax: int = DEFAULT_KMAX, budget: int = DEFAULT_SCAN_BUDGET
) -> Optional[int]:
    """Least k <= kmax where S^k satisfies xyz = x y^(w+1) z and I(S^k) is closed.

    The scan quantifies x, y, z over elements of the ideal; this is exactly
    what the peeled pipeline needs, since its witness words keep a generator
    on both sides of every replaced letter.
    """
    table = S.table
    for k in range(1, kmax + 1):
        ideal = ideal_power(S, k)
        members = ideal.to_array()
        if members.size**2 > budget:
            raise BudgetExceededError(f"sandwich scan at level {k} exceeds budget")
        rcls = _right_classes(S, members)
        om = S.omega_powers
        wp1 = table[om[members], members].astype(np.int64)  # y^(w+1) per y in ideal
        ok = True
        for x in members:
            row = table[int(x), members].astype(np.int64)      # x*y
            row_w = table[int(x), wp1].astype(np.int64)        # x*y^(w+1)
            if not np.array_equal(rcls[row], rcls[row_w]):
                ok = False
                break
        if not ok:
            continue
        cr = [int(s) for s in members if int(table[om[int(s)], int(s)]) == int(s)]
        cr_set = set(cr)
        closed = True
        for a in cr:
            for b in cr:
                if int(table[a, b]) not in cr_set:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            return k
    return None


def rb_ideal_level(S: Semigroup, kmax: int = DEFAULT_KMAX) -> Optional[int]:
    """Least k <= kmax with S^k a rectangular band (gives diameter <= 2k).

    xyz = xz over the ideal reduces to: the row of x*y and the row of x agree
    on ideal columns, checked through right-translation classes.
    """
    table = S.table
    for k in range(1, kmax + 1):
        members = ideal_power(S, k).to_array()
        if not (table[members, members] == members).all():
            continue
        rcls = _right_classes(S, members)
        ok = True
        chunk = max(1, (1 << 24) // max(1, members.size))
        for start in range(0, members.size, chunk):
            xs = members[start : start + chunk]
            prods = table[np.ix_(xs, members)].astype(np.int64)
            if not (rcls[prods] == rcls[xs][:, None]).all():
                ok = False
                break
        if ok:
            return k
    return None


def _band_flags(S: Semigroup) -> tuple[bool, Optional[bool], Optional[bool], Optional[bool]]:
    table = S.table
    idx = np.arange(S.n, dtype=np.int64)
    is_band = bool((table[idx, idx] == idx).all())
    xy = table.astype(np.int64)
    xyx = np.zeros_like(xy)
    for x in range(S.n):
        xyx[x] = table[xy[x], x]
    is_lrb = is_band and bool(np.array_equal(xyx, xy))
    is_rrb = is_band and bool(np.array_equal(xyx, _yx(table)))
    # uxyv = uyxv for all u, v iff xy and yx right-translate identically after
    # collapsing left-translation-equivalent values
    lcls = _left_classes(S, idx)
    m2 = lcls[xy]
    _, r2 = np.unique(m2, axis=0, return_inverse=True)
    is_medial = bool(np.array_equal(r2[xy], r2[_yx(table)]))
    is_normal_band = is_band and is_medial
    return is_band, is_normal_band, is_lrb, is_rrb


def _yx(table: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(table.astype(np.int64).T)


def maximal_subgroups_solvable(S: Semigroup) -> bool:
    table = S.table
    idx = np.arange(S.n, dtype=np.int64)
    idems = np.flatnonzero(table[idx, idx] == idx)
    om = S.omega_powers
    for e in idems:
        exe = np.unique(table[int(e), table[:, int(e)].astype(np.int64)].astype(np.int64))
        unit = [int(s) for s in exe if int(om[int(s)]) == int(e)]
        view = group_view(S, ElementSet.from_indices(S.n, unit))
        if not derived_series(view).is_trivial_terminal:
            return False
    return True


def stable_ideal_level(S: Semigroup) -> tuple[int, list[int]]:
    sizes = []
    prev = None
    k = 0
    while True:
        k += 1
        cur = ideal_power(S, k)
        sizes.append(cur.cardinality)
        if prev is not None and cur == prev:
            return k - 1, sizes
        prev = cur
        if k > S.n + 1:
            raise SlpforgeError("ideal chain failed to stabilise")


def classify(S: Semigroup, gens=None, config: Optional[Config] = None) -> ClassReport:
    """Compute all dispatch flags and a recommended strategy."""
    cfg = config or Config()
    completely_regular = S.is_completely_regular()
    comm_level: Optional[int] = None
    comm_unknown = False
    try:
        comm_level = cached_commutation_level(S, cfg.kmax, cfg.scan_budget)
    except BudgetExceededError:
        comm_unknown = True
    sand_level: Optional[int] = None
    sand_unknown = False
    try:
        sand_level = sandwich_ideal_level(S, cfg.kmax, cfg.scan_budget)
    except BudgetExceededError:
        sand_unknown = True
    rb_level = rb_ideal_level(S, cfg.kmax)
    stable_k, sizes = stable_ideal_level(S)
    is_band, is_nb, is_lrb, is_rrb = _band_flags(S)
    try:
        cached_group_view(S)
        is_group = True
    except SlpforgeError:
        is_group = False
    try:
        solvable = maximal_subgroups_solvable(S)
    except SlpforgeError:
        solvable = None

    if rb_level is not None:
        recommended = "bounded-diameter"
    elif comm_level is not None:
        recommended = "permutative"
    elif is_group:
        recommended = "group-solvable-bw" if solvable else "group-bsz"
    elif completely_regular:
        recommended = "normal-band"
    elif sand_level is not None:
        recommended = "general"
    else:
        recommended = "bounded-diameter"
    return ClassReport(
        completely_regular=completely_regular,
        commutation_level=comm_level,
        commutation_unknown=comm_unknown,
        sandwich_level=sand_level,
        sandwich_unknown=sand_unknown,
        rb_ideal_level=rb_level,
        stable_ideal_level=stable_k,
        is_band=is_band,
        is_normal_band=is_nb,
        is_lrb=is_lrb,
        is_rrb=is_rrb,
        is_group=is_group,
        groups_solvable=solvable,
        recommended=recommended,
        ideal_sizes=sizes,
    )
