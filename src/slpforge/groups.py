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
from .semigroup import Semigroup, closure, products_outside, spread
from .sets import ElementSet

_NEUTRAL_PROBES = 8  # elements a candidate neutral element is first checked on


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
    neutrally; in a finite table some power of each element is idempotent,
    hence neutral, so every element then has an inverse."""
    table = S.table
    mem = np.arange(S.n)
    idems = np.flatnonzero(table.diagonal() == mem)
    # a neutral element fixes every element, so one gather over the
    # idempotents and a few elements leaves at most a few to check in full
    probe = spread(S.n, _NEUTRAL_PROBES)
    fixes = (table[idems[:, None], probe] == probe).all(axis=1)
    fixes &= (table[probe, idems[:, None]] == probe).all(axis=1)
    neutral = next(
        (int(e) for e in idems[fixes] if (table[e] == mem).all() and (table[:, e] == mem).all()), None
    )
    if neutral is None:
        witness = int(idems[0]) if idems.size else 0
        raise NotAGroupError("no neutral element in the table", witness=witness)
    for e in idems.tolist():
        if e != neutral:
            raise NotAGroupError(f"extra idempotent {e}", witness=e)
    # is_inv[i, j]: i j is neutral, so j is also a left inverse (in a finite
    # monoid a right inverse is two-sided); the first one wins
    is_inv = table == neutral
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
    remain genuine G-elements.  The conjugates of the elements not scanned
    yet are one gather, scanned in (element, conjugator) order; scanning on
    past an escape is the same as restarting, as what came before stays in.
    """
    delta = sorted(set(int(g) for g in delta))
    sigma_l = sorted(set(int(h) for h in sigma))
    span_group, proj = G, np.arange(G.base.n)
    if quotient is not None:
        span_group, proj = quotient.group, quotient.projection
    gens, cur, log = list(delta), subgroup_closure(span_group, proj[delta].tolist()), []
    scanned, m = 0, len(sigma_l)
    while scanned < len(gens):
        rows, scanned = gens[scanned:], len(gens)
        conj = conjugates(G, rows, sigma_l)
        cur, taken = grow_span(span_group, proj, gens, cur, conj)
        log += [ConjugationStep(rows[i // m], sigma_l[i % m], int(conj[i])) for i in taken]
    return ElementSet.from_indices(G.base.n, sorted(gens[len(delta):])), log


def conjugates(G: GroupView, vals: Sequence[int], by: Sequence[int]) -> np.ndarray:
    """h^-1 g h for every g in ``vals`` and h in ``by``, flattened in (g, h) order."""
    table, by = G.base.table, np.asarray(by, dtype=np.int64)
    by_inv = np.asarray([G.inverse[int(h)] for h in by], dtype=np.int64)
    return table[table[by_inv, np.asarray(vals, dtype=np.int64)[:, None]], by].ravel()


def commutators(G: GroupView, vals: Sequence[int]) -> np.ndarray:
    """g^-1 h^-1 g h for every g and h in ``vals``, flattened in (g, h) order."""
    table, v = G.base.table, np.asarray(vals, dtype=np.int64)
    v_inv = np.asarray([G.inverse[int(g)] for g in v], dtype=np.int64)
    return table[table[table[v_inv[:, None], v_inv], v[:, None]], v].ravel()


def grow_span(
    H: GroupView, proj: np.ndarray, gens: list[int], cur: ElementSet, cands: np.ndarray
) -> tuple[ElementSet, list[int]]:
    """Append to ``gens``, in order, each candidate whose image under ``proj``
    escapes ``cur``, the span in H of the images of ``gens``, closing the
    span again after each one; returns the span and the positions taken.
    Only a candidate that escapes costs a closure, and it at least doubles
    the span.
    """
    taken: list[int] = []
    i = 0
    while True:
        out = np.flatnonzero(~cur.mask[proj[cands[i:]]])
        if not out.size:
            return cur, taken
        i += int(out[0])
        taken.append(i)
        gens.append(int(cands[i]))
        cur = subgroup_closure(H, proj[gens].tolist())
        i += 1


@dataclass
class SeriesChain:
    """Descending chain of subgroups given as element sets of the ambient group."""

    terms: list[ElementSet]

    @property
    def is_trivial_terminal(self) -> bool:
        return self.terms[-1].cardinality == 1


def derived_series(G: GroupView) -> SeriesChain:
    """G >= G' >= G'' >= ... until stabilisation.

    Each term is the normal closure, under conjugation by a small generating
    set X of G, of the commutators of a small generating set of the term
    before: a term is characteristic in the one above it, so normal in G,
    and the commutators of generators of N generate N' as a normal subgroup.
    Each closure step costs one gather per generator of X.  Memoised on G's
    table; the returned chain is shared and must not be mutated.
    """
    return G.base.cached(("derived_series",), lambda: _derived_series(G))


def _derived_series(G: GroupView) -> SeriesChain:
    ident, trivial = np.arange(G.base.n), subgroup_closure(G, [])
    sigma: list[int] = []  # X: each least element outside the span of those before
    grow_span(G, ident, sigma, trivial, ident)
    cur, gens, terms = G.carrier, sigma, [G.carrier]
    while True:
        comms, gens = commutators(G, gens), []
        nxt, _ = grow_span(G, ident, gens, trivial, comms)
        scanned = 0
        while scanned < len(gens):  # close under conjugation by X
            rows, scanned = gens[scanned:], len(gens)
            nxt, _ = grow_span(G, ident, gens, nxt, conjugates(G, rows, sigma))
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
