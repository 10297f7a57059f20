"""Structural classification driving strategy dispatch.

All flags are computed by exhaustive scans over the concrete table, guarded
by budgets.  The central-commutation scan avoids the naive n^4 loop: a*x*y*b
equals a*y*x*b for all a, b in the ideal iff x*y and y*x fall into the same
two-sided class over that ideal (z ~ z' iff a*z*b = a*z'*b for all a, b), so
one level costs O(n |S^k|) to build the classes plus one n^2 comparison.

The three level flags ask for the least k <= kmax at which S^k has a
property that S^(k+1), a subsemigroup and an ideal inside S^k, inherits:
- a rectangular band is exactly a semigroup with x*y*x = x (Howie,
  *Fundamentals of Semigroup Theory*, section 1.1), an identity over S^k,
  checked as x*x = x and then one |S^k|^2 gather;
- central commutation is an identity over a, b in S^k;
- the sandwich condition is the identity x y z = x y^(w+1) z over S^k,
  which makes the completely regular part of S^k closed under products
  (``_sandwich_holds``).
So each flag tries the deepest level, min(kmax, chain length), first and
returns None when it fails; only a table that passes there scans upward for
the least k.  A level's scan shrinks with k, so the budget is checked at
level 1, before any scan, which raises BudgetExceededError in exactly the
cases an upward scan with a budget check per level would.

``recommend`` walks the dispatch ladder and computes only the flags it needs
to reach a decision; ``classify`` computes every flag for reporting.  Both
memoise each flag on the Semigroup, keyed by the config fields it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .decomposition import _commutes_modulo, _right_classes, cached_decomposition, is_medial
from .errors import BandNotNormalError, BudgetExceededError, HNotCongruenceError, SlpforgeError
from .groups import GroupView, group_view, is_solvable
from .semigroup import Semigroup, cached_closure, cached_sub_semigroup, ideal_chain, spread, sub_semigroup
from .sets import ElementSet

DEFAULT_KMAX = 6
DEFAULT_SCAN_BUDGET = 10**8
_PROBES = 4  # rows, ideal elements and factors a commutation probe samples


@dataclass
class Config:
    kmax: int = DEFAULT_KMAX
    scan_budget: int = DEFAULT_SCAN_BUDGET


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


def _ideal_levels(S: Semigroup, kmax: int):
    """(k, members of S^k) for k = 1 .. kmax, stopping once the chain is stable.

    Every level flag depends on k only through S^k, so a level at which the
    chain has stopped shrinking decides nothing the one before it did not.
    """
    chain = ideal_chain(S)
    for k in range(1, min(kmax, len(chain)) + 1):
        yield k, np.flatnonzero(chain[k - 1])


def _least_level(S: Semigroup, kmax: int, holds, refuted=None) -> Optional[int]:
    """Least k <= kmax with ``holds(members of S^k)``, for a property that
    S^(k+1) inherits from S^k.

    The deepest level, min(kmax, chain length), is tried first: when it
    fails, so does every level above it, and one check returns None.  There
    ``refuted``, a cheaper test that fails whenever ``holds`` holds, may
    answer first.  Otherwise the levels are scanned upward from 1.
    """
    chain = ideal_chain(S)
    deepest = min(kmax, len(chain))
    if deepest < 1:
        return None
    members = np.flatnonzero(chain[deepest - 1])
    if (refuted is not None and refuted(members)) or not holds(members):
        return None
    for k, members in _ideal_levels(S, deepest - 1):
        if holds(members):
            return k
    return deepest


def central_commutation_level(
    S: Semigroup, kmax: int = DEFAULT_KMAX, budget: int = DEFAULT_SCAN_BUDGET
) -> Optional[int]:
    """Least k <= kmax with a x y b = a y x b for all a, b in S^k, x, y in S.

    k = 0 means plain commutativity.  Raises BudgetExceededError when the scan
    at level 1, the largest, would be too large.
    """
    table = S.table
    # a few rows against their columns, spread over the table, refute most
    # noncommutative tables in O(n); row 0 alone is a group's identity
    rows = spread(S.n, _PROBES)
    if np.array_equal(table[rows], table[:, rows].T) and np.array_equal(table, table.T):
        return 0
    if kmax >= 1 and S.n**3 > budget:
        raise BudgetExceededError("central-commutation scan at level 1 exceeds budget")
    return _least_level(
        S,
        kmax,
        lambda members: _commutes_modulo(S, members),
        lambda members: _commutation_refuted(S, members),
    )


def _commutation_refuted(S: Semigroup, members: np.ndarray) -> bool:
    """Is a*x*y*a != a*y*x*a for some y, a among a few of ``members`` and x
    among a few elements?  One gather per side; ``_commutes_modulo`` fails
    whenever this holds, and the table needs no classes for it."""
    table, n = S.table, S.n
    a = members[spread(members.size, _PROBES)]
    x = spread(n, _PROBES)
    left, right = table[a], table[:, a].T  # a*z and z*a, one row per a
    at = (np.arange(a.size) * n)[:, None, None]  # the flat offset of a's row
    xy, yx = table[x], table[:, x].T  # x*y and y*x, one row per x
    return not np.array_equal(
        np.take(right, at + np.take(left, at + xy)), np.take(right, at + np.take(left, at + yx))
    )


def sandwich_ideal_level(
    S: Semigroup, kmax: int = DEFAULT_KMAX, budget: int = DEFAULT_SCAN_BUDGET
) -> Optional[int]:
    """Least k <= kmax where S^k satisfies xyz = x y^(w+1) z (so I(S^k) is closed).

    The scan quantifies x, y, z over elements of the ideal; this is exactly
    what the peeled pipeline needs, since its witness words keep a generator
    on both sides of every replaced letter.  Raises BudgetExceededError when
    the scan at level 1, the largest, would be too large.
    """
    if kmax >= 1 and S.n**2 > budget:
        raise BudgetExceededError("sandwich scan at level 1 exceeds budget")
    return _least_level(S, kmax, lambda members: _sandwich_holds(S, members))


def _sandwich_holds(S: Semigroup, members: np.ndarray) -> bool:
    """Does the ideal I = ``members`` satisfy xyz = x y^(w+1) z?

    Its completely regular elements are then closed under products, so that
    is not checked.  Take completely regular u, v in I and s = uv.  At
    x = u^w, y = s and z = v^w, all in I, the identity reads
    u^w s v^w = u^w s^(w+1) v^w.  As u^w u = u and v v^w = v, the left side
    is uv = s, and the right side is s^(w+1), a product of copies of uv.  So
    s = s^(w+1): s is completely regular, and it lies in the ideal I.
    """
    table = S.table
    rcls = _right_classes(S, members)
    wp1 = table[S.omega_powers[members], members].astype(np.int64)  # y^(w+1) per y in ideal
    for x in members:
        row = table[int(x), members].astype(np.int64)      # x*y
        row_w = table[int(x), wp1].astype(np.int64)        # x*y^(w+1)
        if not np.array_equal(rcls[row], rcls[row_w]):
            return False
    return True


def rb_ideal_level(S: Semigroup, kmax: int = DEFAULT_KMAX) -> Optional[int]:
    """Least k <= kmax with S^k a rectangular band (gives diameter <= 2k)."""
    return _least_level(S, kmax, lambda members: _is_rectangular_band(S, members))


def _is_rectangular_band(S: Semigroup, members: np.ndarray) -> bool:
    """Is the subsemigroup ``members`` a rectangular band?  That is x*x = x
    and x*y*x = x for all x, y in it (Howie, *Fundamentals of Semigroup
    Theory*, section 1.1): idempotence first, then one gather of x*y*x."""
    table = S.table
    if not (table[members, members] == members).all():
        return False
    xy = table if members.size == S.n else table[np.ix_(members, members)]
    at = xy.astype(np.intp)  # the flat index of (x*y)*x, for a 1-D gather
    at *= S.n
    at += members[:, None]
    return bool((np.take(table, at) == members[:, None]).all())


def _band_flags(S: Semigroup) -> tuple[bool, Optional[bool], Optional[bool], Optional[bool]]:
    table = S.table
    idx = np.arange(S.n, dtype=np.int64)
    is_band = bool((table[idx, idx] == idx).all())
    xyx = table[table, idx[:, None]]            # (x, y) -> x*y*x
    is_lrb = is_band and bool(np.array_equal(xyx, table))
    is_rrb = is_band and bool(np.array_equal(xyx, table.T))
    is_normal_band = is_band and is_medial(S)
    return is_band, is_normal_band, is_lrb, is_rrb


def maximal_subgroups_solvable(S: Semigroup) -> bool:
    """Is the H-class of every idempotent a solvable group?

    The H-class of e is the group of units of eSe: the elements of eSe whose
    idempotent power is e.  A trivial H-class {e} is solvable and skipped.
    """
    table = S.table
    idx = np.arange(S.n, dtype=np.int64)
    idems = np.flatnonzero(table[idx, idx] == idx)
    om = S.omega_powers
    for e in idems:
        exe = np.zeros(S.n, dtype=bool)
        exe[table[e, table[:, e]]] = True
        unit = exe & (om == e)
        if np.count_nonzero(unit) == 1:
            continue
        # H_e is the group of units of eSe, so the carve and the view hold; a
        # group is its own H-class and shares its memo, derived series included
        H = S if unit.all() else sub_semigroup(S, ElementSet(unit))[0]
        if not is_solvable(group_view(H)):
            return False
    return True


def stable_ideal_level(S: Semigroup) -> tuple[int, list[int]]:
    """Least k with S^k = S^(k+1), and |S^1|, ..., |S^(k+1)|."""
    chain = ideal_chain(S)
    sizes = [int(np.count_nonzero(mask)) for mask in chain]
    return len(chain), sizes + sizes[-1:]


def cached_flag(S: Semigroup, fn, *args):
    """``fn(S, *args)``, memoised on S under (fn name, *args).

    The one memo for every flag: ``recommend``, ``classify`` and the
    strategies that read a level (``permutative``, ``general``) pass the
    module-level function and share its entry.  An exception (a
    BudgetExceededError, say) is not memoised; it is raised again on every
    call.
    """
    return S.cached((fn.__name__, *args), lambda: fn(S, *args))


def _level_or_unknown(S: Semigroup, fn, kmax: int, budget: int) -> tuple[Optional[int], bool]:
    """(memoised level, False), or (None, True) when the scan is over budget."""
    try:
        return cached_flag(S, fn, kmax, budget), False
    except BudgetExceededError:
        return None, True


def _is_group(S: Semigroup) -> bool:
    try:
        group_view(S)
        return True
    except SlpforgeError:
        return False


def _solvable_or_none(S: Semigroup) -> Optional[bool]:
    try:
        return cached_flag(S, maximal_subgroups_solvable)
    except SlpforgeError:
        return None


def group_route(G: GroupView) -> str:
    """The ``GROUP_STRATEGIES`` key for G: group-solvable-bw if solvable, else group-bsz.

    Rung 3 of ``recommend`` for a group table, and the class-group step of
    ``normal-band``, which must not walk the whole ladder: rungs 1 and 2
    would send trivial or abelian class groups elsewhere.
    """
    return "group-solvable-bw" if is_solvable(G) else "group-bsz"


def recommend(S: Semigroup, config: Optional[Config] = None) -> str:
    """The ``STRATEGIES`` key ``auto`` dispatches to, memoised on S.

    Walks the ladder in order and stops at the first rung that decides, so
    only the flags that rung and the ones above it need are computed:

    1. some S^k (k <= kmax) is a rectangular band -> bounded-diameter
    2. central commutation at some level k <= kmax -> permutative
    3. a group -> group-solvable-bw if solvable, else group-bsz
    4. completely regular -> normal-band if S is a normal band of groups,
       else bounded-diameter
    5. the sandwich identity at some level k <= kmax, and the completely
       regular part of S^k a normal band of groups -> general
    6. otherwise -> bounded-diameter

    A scan over budget on rung 2 or 5 counts as "no".  Rungs 4 and 5 check
    the decomposition their strategy needs (README, "How ``auto`` decides").
    """
    cfg = config or Config()
    kmax, budget = cfg.kmax, cfg.scan_budget

    def ladder() -> str:
        if cached_flag(S, rb_ideal_level, kmax) is not None:
            return "bounded-diameter"
        if _level_or_unknown(S, central_commutation_level, kmax, budget)[0] is not None:
            return "permutative"
        if _is_group(S):
            return group_route(group_view(S))
        if S.is_completely_regular():
            return "normal-band" if _decomposes(S) else "bounded-diameter"
        k = _level_or_unknown(S, sandwich_ideal_level, kmax, budget)[0]
        if k is not None and cached_flag(S, sandwich_part_decomposes, k):
            return "general"
        return "bounded-diameter"

    return S.cached(("recommend", kmax, budget), ladder)


def _decomposes(S: Semigroup) -> bool:
    """Is the completely regular S a normal band of groups?"""
    try:
        cached_decomposition(S)  # a failure stores nothing; callers memoise the answer
    except (HNotCongruenceError, BandNotNormalError):
        return False
    return True


def sandwich_part_decomposes(S: Semigroup, k: int) -> bool:
    """Rung 5's check, which ``general`` makes too: is the completely regular
    part of S^k (closed under products once S^k satisfies the sandwich
    identity), carved as a table, a normal band of groups?"""
    part = S.completely_regular_elements().mask & ideal_chain(S)[k - 1]
    return _decomposes(cached_sub_semigroup(S, ElementSet(part))[0])


def classify(S: Semigroup, gens=None, config: Optional[Config] = None) -> ClassReport:
    """Compute all dispatch flags; ``recommended`` comes from ``recommend``.

    With ``gens``, the flags are those of the sub-semigroup they generate,
    the table ``auto`` decides on."""
    if gens is not None:
        members = cached_closure(S, gens)
        S = S if members.cardinality == S.n else cached_sub_semigroup(S, members)[0]
    cfg = config or Config()
    kmax, budget = cfg.kmax, cfg.scan_budget
    comm_level, comm_unknown = _level_or_unknown(S, central_commutation_level, kmax, budget)
    sand_level, sand_unknown = _level_or_unknown(S, sandwich_ideal_level, kmax, budget)
    stable_k, sizes = cached_flag(S, stable_ideal_level)
    is_band, is_nb, is_lrb, is_rrb = cached_flag(S, _band_flags)
    return ClassReport(
        completely_regular=S.is_completely_regular(),
        commutation_level=comm_level,
        commutation_unknown=comm_unknown,
        sandwich_level=sand_level,
        sandwich_unknown=sand_unknown,
        rb_ideal_level=cached_flag(S, rb_ideal_level, kmax),
        stable_ideal_level=stable_k,
        is_band=is_band,
        is_normal_band=is_nb,
        is_lrb=is_lrb,
        is_rrb=is_rrb,
        is_group=_is_group(S),
        groups_solvable=_solvable_or_none(S),
        recommended=recommend(S, cfg),
        ideal_sizes=sizes,
    )
