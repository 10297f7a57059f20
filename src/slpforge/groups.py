"""Group structure on top of Cayley tables.

A GroupView is a whole table verified to be a group: identity, inverse
table, exponent.  A subgroup is held the same way, as a table carved out
with ``cached_sub_semigroup``, and element sets inside a group or one of its
quotients are ``ElementSet``s.  The functions here are the group-theoretic
workhorses for the compressors: minimal generating subsets, normal closures
with conjugation provenance, derived series, and quotient groups with
liftable sections.

Everything is deterministic: scans run in ascending element order and greedy
loops restart from the smallest candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NotAGroupError, NotNormalError
from .semigroup import Semigroup, closure, products_outside
from .sets import ElementSet


@dataclass(frozen=True)
class GroupView:
    """A whole table verified to be a group; a subgroup is a carved table."""

    base: Semigroup
    identity: int
    inverse: dict[int, int]

    @property
    def carrier(self) -> ElementSet:
        return ElementSet.full(self.base.n)

    @property
    def order(self) -> int:
        return self.base.n

    def conjugate(self, g: int, h: int) -> int:
        t = self.base.table
        return int(t[t[self.inverse[h], g], h])

    def commutator(self, g: int, h: int) -> int:
        t = self.base.table
        return int(t[t[t[self.inverse[g], self.inverse[h]], g], h])

    def element_order(self, g: int) -> int:
        return int(self.base.periods[g])

    def exponent(self) -> int:
        return math.lcm(*self.base.periods.tolist())


def group_view(S: Semigroup) -> GroupView:
    """Verify that the table S is a group and return its view, memoised on S.

    Raises NotAGroupError with a witness element otherwise; a failure stores
    nothing, so it raises again on every call.
    """
    # the memo keeps the parts, not the view: a view refers back to S, and
    # that cycle would keep the table alive until the cyclic collector runs
    return GroupView(S, *S.cached(("group_view",), lambda: _group_parts(S)))


def _group_parts(S: Semigroup) -> tuple[int, dict[int, int]]:
    """Identity and inverse table of S, checking a unique idempotent acting
    neutrally and a two-sided inverse for every element."""
    table = S.table
    mem = np.arange(S.n, dtype=np.int64)
    idems = mem[table[mem, mem] == mem].tolist()
    neutral = None
    for e in idems:
        if (table[e] == mem).all() and (table[:, e] == mem).all():
            if neutral is not None:
                raise NotAGroupError(
                    f"two neutral idempotents {neutral} and {e}", witness=e
                )
            neutral = e
    if neutral is None:
        witness = idems[0] if idems else 0
        raise NotAGroupError("no neutral element in the table", witness=witness)
    for e in idems:
        if e != neutral:
            raise NotAGroupError(f"extra idempotent {e}", witness=e)
    # is_inv[i, j]: j is a two-sided inverse of i; the first one wins
    is_inv = (table == neutral) & (table.T == neutral)
    has_inv = is_inv.any(axis=1)
    if not has_inv.all():
        g = int(np.argmin(has_inv))
        raise NotAGroupError(f"element {g} has no inverse", witness=g)
    return neutral, dict(enumerate(is_inv.argmax(axis=1).tolist()))


def subgroup_closure(G: GroupView, gens: Sequence[int]) -> ElementSet:
    """Subgroup generated by ``gens`` (= subsemigroup closure, finite group)."""
    if not gens:
        return ElementSet.from_indices(G.base.n, [G.identity])
    return closure(G.base, gens)


def minimal_generating_subset(G: GroupView, sigma: Sequence[int]) -> ElementSet:
    """Scan generators in ascending order, keeping those that grow the span.

    Every kept generator at least doubles the subgroup built so far, so the
    result has at most log2 of the generated subgroup many elements; dropped
    generators lie in the span of smaller-index ones.
    """
    sigma = sorted(set(int(g) for g in sigma))
    target = subgroup_closure(G, sigma)
    keep: list[int] = []
    span = subgroup_closure(G, [])
    for g in sigma:
        if g in span:
            continue
        keep.append(g)
        span = subgroup_closure(G, keep)
        if span == target:
            break
    if not keep:
        keep = [sigma[0]]
    return ElementSet.from_indices(G.base.n, keep)


@dataclass
class ConjugationStep:
    """One element added by the normal-closure loop: value = g conjugated by h."""

    g: int
    h: int
    value: int


def normal_closure_set(
    G: GroupView,
    delta: Sequence[int],
    sigma: Sequence[int],
    quotient: Optional[QuotientGroup] = None,
) -> tuple[ElementSet, list[ConjugationStep]]:
    """Grow <delta> to its normal closure under <sigma>-conjugation.

    Returns (xi, log) where every step logs (g, h, g^h) so the element can be
    re-derived by a straight-line program (5 instructions per step).  When a
    ``quotient`` of G is given, closure growth is measured by the span of the
    images in the quotient's table instead of in G itself; the logged values
    remain genuine G-elements.
    """
    delta = sorted(set(int(g) for g in delta))
    sigma_l = sorted(set(int(h) for h in sigma))
    xi: list[int] = []
    log: list[ConjugationStep] = []
    if not delta:
        return ElementSet.from_indices(G.base.n, []), log
    if quotient is None:
        span_group, proj = G, np.arange(G.base.n)
    else:
        span_group, proj = quotient.group, quotient.projection

    cur = subgroup_closure(span_group, proj[delta].tolist())
    changed = True
    while changed:
        changed = False
        for g in delta + xi:
            for h in sigma_l:
                c = G.conjugate(g, h)
                if proj[c] not in cur:
                    xi.append(c)
                    log.append(ConjugationStep(g, h, c))
                    cur = subgroup_closure(span_group, proj[delta + xi].tolist())
                    changed = True
                    break
            if changed:
                break
    return ElementSet.from_indices(G.base.n, sorted(set(xi))), log


@dataclass
class SeriesChain:
    """Descending chain of subgroups given as element sets of the ambient group."""

    terms: list[ElementSet]

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    @property
    def is_trivial_terminal(self) -> bool:
        return self.terms[-1].cardinality == 1


_COMMUTATOR_ROWS = 256


def derived_series(G: GroupView) -> SeriesChain:
    """G >= G' >= G'' >= ... until stabilisation (all commutator pairs, no sampling).

    Memoised on G's table; the returned chain is shared and must not be
    mutated.
    """
    return G.base.cached(("derived_series",), lambda: _derived_series(G))


def _derived_series(G: GroupView) -> SeriesChain:
    """Commutators of each term are gathered in blocks of rows g, so the
    temporaries stay at ``_COMMUTATOR_ROWS`` x |term| table entries."""
    cur = G.carrier
    terms = [cur]
    table = G.base.table
    while True:
        mem = cur.to_array()
        inv_mem = np.asarray([G.inverse[int(h)] for h in mem], dtype=np.int64)
        hit = np.zeros(G.base.n, dtype=bool)
        for start in range(0, mem.size, _COMMUTATOR_ROWS):
            g = mem[start : start + _COMMUTATOR_ROWS, None]
            ginv = inv_mem[start : start + _COMMUTATOR_ROWS, None]
            left = table[ginv, inv_mem]                        # g^-1 h^-1
            mid = table[left, g]                               # g^-1 h^-1 g
            hit[table[mid, mem]] = True                        # g^-1 h^-1 g h
        nxt = closure(G.base, np.flatnonzero(hit).tolist())
        if nxt == cur:
            break
        terms.append(nxt)
        cur = nxt
        if cur.cardinality == 1:
            break
    return SeriesChain(terms)


def is_solvable(G: GroupView) -> bool:
    return derived_series(G).is_trivial_terminal


@dataclass
class QuotientGroup:
    """Quotient of a group by a normal subgroup, with a liftable section."""

    semigroup: Semigroup
    group: GroupView
    projection: np.ndarray                  # read-only int64: element -> coset
    section: list[int]


def quotient_group(G: GroupView, N: ElementSet) -> QuotientGroup:
    """Quotient by a normal subgroup; cosets indexed by minimum representative.

    Raises NotNormalError with a conjugation witness when N is not normal.
    """
    if G.identity not in N:
        raise NotAGroupError("subgroup does not contain the identity", witness=G.identity)
    nm = N.to_array()
    table = G.base.table
    outside = products_outside(G.base, nm)
    if outside.size:
        raise NotAGroupError("subgroup set not product-closed", witness=int(outside[0]))
    for h in range(G.base.n):
        escaped = ~N.mask[table[table[G.inverse[h], nm], h]]
        if escaped.any():
            raise NotNormalError(int(nm[escaped.argmax()]), h)
    # scanning x upwards, an x in no coset yet is the least element of xN
    coset = np.full(G.base.n, -1, dtype=np.int64)
    reps: list[int] = []
    for x in range(G.base.n):
        if coset[x] < 0:
            coset[table[x, nm]] = len(reps)
            reps.append(x)
    coset.setflags(write=False)
    qtable = coset[table[np.ix_(reps, reps)]]
    name = f"{G.base.name}/N" if G.base.name else ""
    qsg = Semigroup.trusted(qtable, name=name)
    qview = group_view(qsg)
    return QuotientGroup(qsg, qview, coset, reps)


def is_adapted(G: GroupView, sigma: Sequence[int], chain: SeriesChain) -> bool:
    """Does sigma intersect every chain term in a generating set of that term?"""
    sig = sorted(set(int(s) for s in sigma))
    for term in chain.terms:
        if term.cardinality == 1:
            continue
        part = [g for g in sig if g in term]
        if not part:
            return False
        if subgroup_closure(G, part) != term:
            return False
    return True
