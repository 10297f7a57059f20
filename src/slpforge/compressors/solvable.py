"""Solvable-group compression: adapted series, derived-series generating
sets, and polycyclic sets with width-3 provenance programs.

Three layers:

* ``adapt_subnormal`` walks the levels of a subnormal series with an
  adapted generating set (``adapted_levels``): per level it writes the
  residual target's normal form in the abelian quotient as a simultaneous
  square-and-multiply over the generators' registers, and accumulates the
  lifts left to right in one extra register.

* ``compress_group_solvable`` builds a generating set adapted to the derived
  series out of conjugates and commutators (each rederivable in at most 7
  group instructions) and eliminates the inverses of its program once, in
  the plan; each target writes that program and then the adapted-series
  walk, which has no INV, into one builder.  Length O(log |G|), width
  unbounded.

* ``compress_group_solvable_bounded`` builds a polycyclic generating set by
  layered conjugate-commutator closure, conjugating by the values of the
  generator words of length <= log2 |G| that the table's memoised word tree
  lists (``shortest_words``).  Every record is a value
  u^-1 g^-1 v^-1 g^-1 v g v^-1 g v u  over the previous layer; holding either
  the running prefix or its inverse lets three registers evaluate it with a
  constant number of omega-minus-one exponentiations, so the whole program
  fits in width 4 and length O(log^3 |G|), with no inverse instructions at
  all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import (
    ChainVerificationFailedError,
    NotAdaptedError,
    NotSolvableError,
    SlpforgeError,
)
from ..groups import (
    GroupView,
    QuotientGroup,
    SeriesChain,
    commutators,
    conjugates,
    derived_series,
    group_view,
    grow_span,
    is_adapted,
    normal_closure_set,
    quotient_group,
    subgroup_closure,
)
from ..semigroup import cached_sub_semigroup, closure, shortest_word, shortest_words
from ..sets import ElementSet
from ..slp import (
    BlockScans,
    InverseMirror,
    Slp,
    SlpBuilder,
    compact_blocks,
    evaluate,
    inverting_power,
    scan_block,
)
from .base import identity_program
from .permutative import minimize_exponents


# -- adapted subnormal series ------------------------------------------------


@dataclass(frozen=True)
class Level:
    """One step G_{i-1} > G_i of an adapted chain.

    ``quotient`` is G_{i-1}/G_i, carved out of G_{i-1}, and ``to_sub`` maps
    G's indices into G_{i-1}'s.  ``rep`` maps each distinct image of the
    generators lying in G_{i-1}, in order of first appearance, to the first
    generator with that image.
    """

    term: ElementSet
    to_sub: np.ndarray
    quotient: QuotientGroup
    rep: dict[int, int]
    # residual image x -> its normal form and its lift's value, filled as targets ask
    lifts: dict = field(default_factory=dict, compare=False, repr=False)


def adapted_levels(
    G: GroupView, sigma: Sequence[int], chain: SeriesChain, top: Optional[QuotientGroup] = None
) -> list[Level]:
    """The chain's proper steps with the quotients ``adapt_subnormal`` walks.

    A step down from the whole group reads G itself, not a carved copy, and
    its quotient is ``top`` when the caller has built G modulo the next term.
    Raises NotAdaptedError unless sigma meets every term in a generating set.
    """
    sigma = list(dict.fromkeys(int(s) for s in sigma))
    if not is_adapted(G, sigma, chain):
        raise NotAdaptedError("generating set is not adapted to the chain")
    levels: list[Level] = []
    for upper, lower in zip(chain.terms, chain.terms[1:]):
        if upper.cardinality == G.order:
            to_sub, Q = np.arange(G.order), top or quotient_group(G, lower)
        else:
            sub, to_sub, to_parent = cached_sub_semigroup(G.base, upper)
            Q = quotient_group(group_view(sub), ElementSet(lower.mask[to_parent]))
        rep: dict[int, int] = {}
        for s in sigma:
            if s in upper:
                rep.setdefault(int(Q.projection[to_sub[s]]), s)
        levels.append(Level(upper, to_sub, Q, rep))
    return levels


def adapt_subnormal(
    G: GroupView, levels: Sequence[Level], t: int, b: SlpBuilder, held: dict[int, int]
) -> Optional[int]:
    """Write t into ``b`` level by level through the chain's abelian quotients;
    returns the register that holds it, or None for the identity, which no
    level writes.

    Per level the residual target is projected into G_{i-1}/G_i and written as
    its normal form there (memoised with its lift's value on the level), a
    simultaneous square-and-multiply reading each generator from ``held[g]``;
    the lifts multiply left to right.  Each product takes a new register, and
    ``compact`` reuses them.  A lift's value is its product in emission order:
    the quotient is abelian, G need not be.
    """
    table, inverse = G.base.table, G.inverse
    out: Optional[int] = None
    for level in levels:
        if t not in level.term:
            raise SlpforgeError("residual target escaped its chain term")
        Q = level.quotient
        x = int(Q.projection[level.to_sub[t]])
        if x == Q.group.identity:
            continue
        if x not in level.lifts:
            level.lifts[x] = _lift(table, level, x)
        nf, val = level.lifts[x]
        reg = None
        for bit in range(max(nf.exponents).bit_length() - 1, -1, -1):
            if reg is not None:
                dst = b.fresh()
                b.mul(dst, reg, reg)
                reg = dst
            for q, e in zip(nf.order, nf.exponents):
                if e >> bit & 1:
                    if reg is None:
                        reg = held[level.rep[q]]
                    else:
                        dst = b.fresh()
                        b.mul(dst, reg, held[level.rep[q]])
                        reg = dst
        if out is None:
            out = reg
        else:
            acc = b.fresh()
            b.mul(acc, out, reg)
            out = acc
        t = table.item(inverse[val], t)
    if t != G.identity:
        raise SlpforgeError("chain walk did not exhaust the target")
    return out


def _lift(table, level: Level, x: int):
    """x's normal form (its shortest word over the level's generator images,
    the letters' exponents minimised with k = 0) and the value of the lift
    ``adapt_subnormal`` writes for it: the square-and-multiply product of the
    generators in emission order."""
    quotient, images = level.quotient.semigroup, list(level.rep)
    order = list(dict.fromkeys(images[i] for i in shortest_word(quotient, images, x)))
    nf = minimize_exponents(quotient, [], order, [], x)
    val = None
    for bit in range(max(nf.exponents).bit_length() - 1, -1, -1):
        if val is not None:
            val = table.item(val, val)
        for q, e in zip(nf.order, nf.exponents):
            if e >> bit & 1:
                val = level.rep[q] if val is None else table.item(val, level.rep[q])
    return nf, val


# -- derived-series generating set (unbounded width) -------------------------


@dataclass
class DeltaRecord:
    value: int
    kind: str                     # "gen" | "conj" | "comm"
    g: Optional[int] = None       # referenced value (conj/comm)
    h: Optional[int] = None       # generator for conj, second value for comm


@dataclass
class DeltaSet:
    records: list[DeltaRecord]
    top: QuotientGroup            # G modulo G', which ``adapted_levels`` reuses

    @property
    def values(self) -> list[int]:
        return [r.value for r in self.records]


def build_derived_adapted_set(G: GroupView, sigma: Sequence[int], chain: SeriesChain) -> DeltaSet:
    """Generators adapted to the derived series, from conjugates/commutators."""
    sigma = list(dict.fromkeys(int(s) for s in sigma))
    registry: dict[int, int] = {}
    records: list[DeltaRecord] = []

    def register(rec: DeltaRecord) -> None:
        if rec.value not in registry:
            registry[rec.value] = len(records)
            records.append(rec)

    def span(Q: QuotientGroup, values: Sequence[int]) -> ElementSet:
        return subgroup_closure(Q.group, Q.projection[values].tolist())

    # level 0: a minimal subset of sigma generating G modulo G'
    Qg = quotient_group(G, chain.terms[1] if len(chain.terms) > 1 else subgroup_closure(G, []))
    if span(Qg, sigma).cardinality != Qg.semigroup.n:
        raise SlpforgeError("sigma does not generate G modulo G'")
    delta0 = list(sigma)
    for s in sigma:
        if len(delta0) == 1:
            break
        trial = [x for x in delta0 if x != s]
        if trial and span(Qg, trial).cardinality == Qg.semigroup.n:
            delta0 = trial
    for s in delta0:
        register(DeltaRecord(s, "gen"))

    prev_vals = list(delta0)
    for i in range(1, len(chain.terms) - 1):
        Q = quotient_group(G, chain.terms[i + 1])
        proj = Q.projection

        _, xi_log = normal_closure_set(G, prev_vals, sigma, quotient=Q)
        for step in xi_log:
            register(DeltaRecord(step.value, "conj", g=step.g, h=step.h))
        d1 = prev_vals + [s.value for s in xi_log]

        # the commutators of d1, in (g, h) order, that grow the span mod Q
        comms, theta = commutators(G, d1), []
        _, taken = grow_span(Q.group, proj, theta, subgroup_closure(Q.group, []), comms)
        for j in taken:
            register(DeltaRecord(int(comms[j]), "comm", g=d1[j // len(d1)], h=d1[j % len(d1)]))
        _, xi2_log = normal_closure_set(G, theta, sigma, quotient=Q)
        for step in xi2_log:
            register(DeltaRecord(step.value, "conj", g=step.g, h=step.h))
        delta_i = theta + [s.value for s in xi2_log]
        image = ElementSet.from_indices(Q.semigroup.n, proj[chain.terms[i].mask])
        if span(Q, delta_i) != image:
            raise SlpforgeError(f"level {i} generators miss their derived term")
        prev_vals = delta_i
    return DeltaSet(records, Qg)


def emit_delta_program(G: GroupView, delta: DeltaSet) -> Slp:
    """Group SLP computing every record value into its own register.

    Conjugates cost 5 instructions, commutators 5; both reuse one shared
    scratch register for loads and inversions.
    """
    if not delta.records:
        raise SlpforgeError("empty generating set")
    b = SlpBuilder()
    reg: dict[int, int] = {}
    u = b.fresh()
    for rec in delta.records:
        r = b.fresh()
        if rec.kind == "gen":
            b.load(r, rec.value)
        elif rec.kind == "conj":
            b.load(u, rec.h)
            b.inv(u, u)
            b.mul(r, u, reg[rec.g])
            b.load(u, rec.h)
            b.mul(r, r, u)
        else:
            b.inv(u, reg[rec.g])
            b.inv(r, reg[rec.h])
            b.mul(r, u, r)
            b.mul(r, r, reg[rec.g])
            b.mul(r, r, reg[rec.h])
        reg[rec.value] = r
    return b.finish(reg[delta.records[-1].value])


@dataclass(frozen=True)
class SolvablePlan:
    """Target-independent part of the unbounded-width construction.

    ``builder`` computes every record of ``delta`` without INV, for targets
    to fork, and ``held`` maps each value to the lowest register holding it
    there; ``levels`` are the derived series' steps for ``delta``'s values.
    """

    delta: DeltaSet
    chain: SeriesChain
    held: dict[int, int]
    levels: list[Level]
    builder: SlpBuilder


def solvable_plan(G: GroupView, sigma: Sequence[int]) -> SolvablePlan:
    """Derived-adapted set, its inverse-free program, the register holding
    each value the program leaves, and the chain's levels."""
    chain = derived_series(G)
    if not chain.is_trivial_terminal:
        raise NotSolvableError("derived series does not reach the trivial group")
    delta = build_derived_adapted_set(G, sigma, chain)
    levels = adapted_levels(G, delta.values, chain, top=delta.top)
    program = emit_delta_program(G, delta)
    if program.is_group:
        # the pass's own builder, every register it wrote kept for ``held``
        mirror = InverseMirror(G, program.alphabet)
        mirror.feed(program.instructions)
        b = mirror.b
    else:
        b = SlpBuilder()
        b.splice(program, 0)
    # the builder's registers as they are (numbered at first write, which the
    # ``Slp`` checks); from the highest down, so the lowest holding a value wins
    registers = evaluate(G.base, Slp(tuple(b.alphabet), tuple(b.instructions), 0)).registers
    return SolvablePlan(delta, chain, {v: r for r, v in reversed(registers.items())}, levels, b)


def compress_group_solvable(G: GroupView, sigma: Sequence[int], t: int) -> Slp:
    """O(log |G|)-length ordinary SLP for solvable G, width unbounded.

    The plan is built once per generator list and memoised on the table, so
    a target forks the plan's builder and walks its levels there, the walk's
    registers above the program's.
    """
    sigma = tuple(int(s) for s in sigma)
    plan = G.base.cached(("solvable_plan", sigma), lambda: solvable_plan(G, sigma))
    if t == G.identity:
        return identity_program(G, sigma[0])
    b = plan.builder.fork()
    return b.compact(adapt_subnormal(G, plan.levels, t, b, plan.held))


# -- polycyclic generating set (bounded width) --------------------------------


@dataclass
class PolyRecord:
    value: int
    layer: int
    base: Optional[int] = None          # sigma value (layer 0)
    parent: Optional[int] = None        # record index of g (layer >= 1)
    v_word: Optional[list[int]] = None  # conjugator making g~ = g^v
    u_word: list[int] = field(default_factory=list)


@dataclass
class PolycyclicGenSet:
    records: list[PolyRecord]
    chain_indices: list[int]
    chain: SeriesChain
    exponent: int                       # of the group, for omega-minus-one inverses
    # per chain record: ``_record_block``'s block, its value's register, a free one
    blocks: list[tuple[list, int, int]]
    # per chain record j: each element of term j to the a with x in rec^a term
    # j+1 (-1 off term j), and the inverse of rec^a for each a
    logs: list[tuple[np.ndarray, list[int]]]
    identity: Slp                       # ``identity_program`` of the first generator
    alphabet: range                     # every element: the blocks' loads name values
    # ``compact_blocks``' memo over ``block``, filled as targets ask
    scans: BlockScans = field(repr=False, compare=False)

    def block(self, key) -> list:
        """The scanned block ``key`` names: chain record j's, or the join
        (j, a, first) of its a-th power."""
        return self.blocks[key][0] if isinstance(key, int) else _join(self, *key)


def _conjugator_words(G: GroupView, sigma: Sequence[int], k: int) -> list[tuple[int, list[int]]]:
    """Values of sigma-words of length <= k with lex-least shortest words,
    starting with the empty conjugator."""
    words = shortest_words(G.base, sigma, k)
    return [(G.identity, [])] + [
        (v, [sigma[i] for i in w]) for v, w in words if v != G.identity
    ]


def build_polycyclic_set(G: GroupView, sigma: Sequence[int]) -> PolycyclicGenSet:
    """Layered conjugate/commutator records inducing a verified cyclic chain."""
    dchain = derived_series(G)
    if not dchain.is_trivial_terminal:
        raise NotSolvableError("polycyclic sets need a solvable group")
    sigma = list(dict.fromkeys(int(s) for s in sigma))
    k = max(1, math.ceil(math.log2(max(2, G.order))))
    conj = _conjugator_words(G, sigma, k)
    words = [w for _, w in conj]
    h = np.asarray([v for v, _ in conj], dtype=np.int64)
    table = G.base.table
    inv = np.asarray([G.inverse[x] for x in range(G.order)], dtype=np.int64)

    def first_new(vals: np.ndarray) -> np.ndarray:
        """Positions of the first occurrence of each value but the identity."""
        uniq, first = np.unique(vals, return_index=True)
        return np.sort(first[uniq != G.identity])

    # records are registered in (element, conjugator) order, the first
    # occurrence of each value per layer
    vals = conjugates(G, sigma, h)
    pos = first_new(vals)
    records = [
        PolyRecord(int(vals[i]), 0, base=sigma[i // h.size], u_word=list(words[i % h.size]))
        for i in pos.tolist()
    ]
    members, member_vals = np.arange(len(records)), vals[pos]

    layer = 0
    while members.size:
        layer += 1
        # [g, g^v] for every member g and nonempty conjugator word v
        gt = conjugates(G, member_vals, h[1:])
        g = np.repeat(member_vals, h.size - 1)
        comms = table[table[table[inv[g], inv[gt]], g], gt]
        cpos = first_new(comms)
        vals = conjugates(G, comms[cpos], h)
        pos = first_new(vals)
        parents = members[cpos // (h.size - 1)]
        v_words = [words[1 + i % (h.size - 1)] for i in cpos.tolist()]
        base = len(records)
        records += [
            PolyRecord(
                int(vals[i]), layer, parent=int(parents[i // h.size]),
                v_word=list(v_words[i // h.size]), u_word=list(words[i % h.size]),
            )
            for i in pos.tolist()
        ]
        members, member_vals = np.arange(base, len(records)), vals[pos]
        escaped = ~dchain.terms[layer].mask[member_vals]
        if escaped.any():
            raise ChainVerificationFailedError(
                f"layer {layer} value {int(member_vals[escaped.argmax()])} escapes the derived term"
            )

    # prune right to left, keeping records that grow the suffix subgroup;
    # suffixes[-1] is generated by the records kept so far
    kept: list[int] = []
    suffixes = [subgroup_closure(G, [])]
    for idx in range(len(records) - 1, -1, -1):
        if records[idx].value not in suffixes[-1]:
            kept.append(idx)
            suffixes.append(closure(G.base, [records[i].value for i in kept]))
    kept.reverse()
    if suffixes[-1] != G.carrier:
        raise ChainVerificationFailedError("records do not generate the group")

    terms = [G.carrier] + suffixes[-2::-1]
    for j in range(1, len(terms)):
        sub = terms[j]
        r = records[kept[j - 1]].value
        if not sub.mask[table[table[G.inverse[r], sub.to_array()], r]].all():
            raise ChainVerificationFailedError(
                f"suffix subgroup at step {j} is not normalised by its record"
            )
        if terms[j - 1].cardinality % sub.cardinality:
            raise ChainVerificationFailedError("non-Lagrangian chain step")
    exponent = G.exponent()
    blocks = [_record_block(records, records[i], inverting_power(exponent)) for i in kept]
    chain = SeriesChain(terms)
    logs = [
        _discrete_logs(G, records[i].value, chain.terms[j], chain.terms[j + 1]) for j, i in enumerate(kept)
    ]
    identity = identity_program(G, sigma[0])
    return PolycyclicGenSet(records, kept, chain, exponent, blocks, logs, identity, range(G.order), BlockScans())


def _discrete_logs(G: GroupView, r: int, term: ElementSet, below: ElementSet) -> tuple[np.ndarray, list[int]]:
    """The exponent table of the chain step term > below that record value r
    spans: each element x of ``term`` to the a < [term : below] with x in
    r^a below, -1 off ``term``; and the inverse of r^a for each a.  Raises
    ChainVerificationFailedError when the cosets leave an element unmapped."""
    powers = [G.identity]
    for _ in range(1, term.cardinality // below.cardinality):
        powers.append(G.base.table.item(powers[-1], r))
    logs = np.full(G.order, -1, dtype=np.int32)
    logs[G.base.table[np.ix_(powers, below.to_array())]] = np.arange(len(powers))[:, None]
    missed = term.mask & (logs < 0)
    if missed.any():
        raise ChainVerificationFailedError(f"the powers of record value {r} miss element {int(missed.argmax())}")
    return logs, [G.inverse[p] for p in powers]


class _BoundedEmitter:
    """Width-3 emission of one record into three working registers, which
    a target's program shares with its accumulator."""

    def __init__(self, records: list[PolyRecord], inv_exp: int):
        self.records = records
        self.inv_exp = inv_exp
        self.b = SlpBuilder()
        self.work = [self.b.fresh(), self.b.fresh(), self.b.fresh()]

    def _invert(self, src: int, dst: int) -> None:
        self.b.fast_exp_into(dst, src, self.inv_exp)

    def _word_right(self, reg: int, load_reg: int, word: Sequence[int]) -> None:
        for letter in word:
            self.b.load(load_reg, letter)
            self.b.mul(reg, reg, load_reg)

    def emit_record(self, rec: PolyRecord, allowed: list[int]) -> tuple[int, list[int]]:
        """Compute the record value; returns (holding register, free registers)."""
        b = self.b
        if rec.layer == 0:
            A, B, C = allowed
            if not rec.u_word:
                b.load(A, rec.base)
                return A, [B, C]
            # value = u^-1 sigma u
            b.word_product(rec.u_word, A, B)
            self._invert(A, B)
            b.load(A, rec.base)
            b.mul(B, B, A)
            self._word_right(B, A, rec.u_word)
            return B, [A, C]
        rg, free = self.emit_record(self.records[rec.parent], allowed)
        A, B = free
        v, u = rec.v_word, rec.u_word  # v names a non-identity conjugator
        # W1 = g v g u; the record value is W1^-1 * (v g) * v^-1 * (g v u)
        b.load(B, v[0])
        b.mul(A, rg, B)
        self._word_right(A, B, v[1:])
        b.mul(A, A, rg)
        self._word_right(A, B, u)
        self._invert(A, B)          # B = u^-1 g^-1 v^-1 g^-1
        self._word_right(B, A, v)   # ... v
        b.mul(B, B, rg)             # ... g
        self._invert(B, A)          # A = (prefix)^-1
        for letter in reversed(v):  # left-multiply by v: prefix gains v^-1
            b.load(B, letter)
            b.mul(A, B, A)
        self._invert(A, B)          # B = prefix (= u^-1 g^-1 v^-1 g^-1 v g v^-1)
        b.mul(B, B, rg)             # ... g
        self._word_right(B, A, v)   # ... v
        self._word_right(B, A, u)   # ... u
        return B, [A, rg]


def _record_block(records: list[PolyRecord], rec: PolyRecord, inv_exp: int) -> tuple[list, int, int]:
    """The instructions ``_BoundedEmitter`` writes for ``rec`` into registers
    0 .. 2, each load naming its value, not a symbol, scanned by
    ``scan_block``; the register holding ``rec`` after them and one free
    register."""
    em = _BoundedEmitter(records, inv_exp)
    reg, free = em.emit_record(rec, em.work)
    alphabet = em.b.alphabet
    block = [("L", i[1], alphabet[i[2]]) if i[0] == "L" else i for i in em.b.instructions]
    return scan_block(block, (reg,)), reg, free[0]


def compress_group_solvable_bounded(G: GroupView, sigma: Sequence[int], t: int) -> Slp:
    """Width <= 4 ordinary SLP of length O(log^3 |G|) for solvable G.

    The polycyclic set, with each chain record's block and exponent table,
    is built once per generator list and memoised on the table; a target
    reads its discrete logs off the tables and joins the blocks of its
    nonzero exponents with square-and-multiply, each block's scan memoised
    per scan state (``compact_blocks``).
    """
    sigma = list(dict.fromkeys(int(s) for s in sigma))
    pcs = G.base.cached(("polycyclic_set", tuple(sigma)), lambda: build_polycyclic_set(G, sigma))
    table, keys = G.base.table, []
    for j, (logs, inverses) in enumerate(pcs.logs):
        a = logs.item(t)
        if a:
            first = not keys
            keys += (j, (j, a, first))
            t = table.item(inverses[a], t)
    if not keys:
        return pcs.identity
    return compact_blocks(pcs.scans, pcs.alphabet, keys, pcs.block, 3)


def _join(pcs: PolycyclicGenSet, j: int, a: int, first: bool) -> list:
    """Square-and-multiply of chain record j's value to the power a into the
    accumulator, register 3, after record j's block (which writes registers
    0 .. 2); scanned by ``scan_block``, the accumulator alone read later."""
    _, rreg, spare = pcs.blocks[j]
    b, acc = SlpBuilder(), 3
    if first:
        b.fast_exp_into(acc, rreg, a if a >= 2 else a + pcs.exponent)
    elif a == 1:
        b.mul(acc, acc, rreg)
    else:
        b.fast_exp_into(spare, rreg, a)
        b.mul(acc, acc, spare)
    return scan_block(b.instructions, (acc,))
