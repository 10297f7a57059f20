"""Cube-doubling reachability compression for groups.

Maintains elements h_1 .. h_m whose subset products form the cube K.  While
the target is outside K^-1 K, the first element a*sigma escaping it (a scanned
in element-index order, sigma in generator order) is appended; every append
provably doubles |K|, so there are at most log2 |G| rounds.  The emitted group
program keeps each h_i in its own register and assembles values as b^-1 c
from two subset chains, giving width rounds + 3 and length O(log^2 |G|).

The escapes never depend on the target, which only decides when growth
stops.  The states after 0, 1, 2, ... doublings therefore form one sequence
per group and generator list, and a kept sequence serves every later target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import NotInSubgroupError
from ..groups import GroupView
from ..slp import InverseMirror, Slp, SlpBuilder
from .base import identity_program


@dataclass
class HRecord:
    value: int
    bmask: int
    cmask: int
    sigma: int


@dataclass
class CubeState:
    """Cube elements with their subset masks and the K^-1 K pair table."""

    values: dict[int, int] = field(default_factory=dict)   # value -> h-mask
    order: list[int] = field(default_factory=list)
    h_records: list[HRecord] = field(default_factory=list)
    kk: dict[int, tuple[int, int]] = field(default_factory=dict)
    # set on first use: the builder holding the h_i records, and the pass fed them
    prefix: Optional[SlpBuilder] = None
    mirror: Optional[InverseMirror] = None

    @property
    def rounds(self) -> int:
        return len(self.h_records)

    def rebuild_kk(self, G: GroupView) -> None:
        import numpy as np

        table = G.base.table
        vals = np.asarray(self.order, dtype=np.int64)
        binv = np.asarray([G.inverse[b] for b in self.order], dtype=np.int64)
        prods = table[np.ix_(binv, vals)].astype(np.int64)
        flat = prods.ravel()
        uniq, first = np.unique(flat, return_index=True)
        m = vals.size
        kk: dict[int, tuple[int, int]] = {}
        for v, idx in zip(uniq, first):
            bi, ci = int(idx) // m, int(idx) % m
            kk[int(v)] = (self.values[self.order[bi]], self.values[self.order[ci]])
        self.kk = kk


def start_cube(G: GroupView) -> CubeState:
    """The one-point cube {identity}: the state before the first doubling."""
    state = CubeState()
    state.values[G.identity] = 0
    state.order.append(G.identity)
    state.rebuild_kk(G)
    return state


def _double(G: GroupView, gens: Sequence[int], state: CubeState) -> Optional[CubeState]:
    """The state after one more doubling, or None when nothing escapes K^-1 K.

    The escape is the first a*sigma outside K^-1 K (a in element-index order,
    sigma in generator order); no target is consulted, so the states form one
    sequence per (group, generators).  The given state is left untouched.
    """
    table = G.base.table
    escape = None
    for a in sorted(state.kk):
        for g in gens:
            cand = int(table[a, g])
            if cand not in state.kk:
                escape = (a, g, cand)
                break
        if escape:
            break
    if escape is None:
        return None
    a, g, zval = escape
    bmask, cmask = state.kk[a]
    bit = 1 << len(state.h_records)
    nxt = CubeState(
        values=dict(state.values),
        order=list(state.order),
        h_records=state.h_records + [HRecord(zval, bmask, cmask, g)],
    )
    for v in state.order:
        nv = int(table[v, zval])
        if nv in nxt.values:
            raise AssertionError("cube append failed to double; not an escape")
        nxt.values[nv] = state.values[v] | bit
        nxt.order.append(nv)
    nxt.rebuild_kk(G)
    return nxt


def _emit_chain(b: SlpBuilder, regs: list[int], mask: int, scratch: int) -> int:
    """Product of the masked h-registers in index order; single factors alias."""
    idxs = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    if len(idxs) == 1:
        return regs[idxs[0]]
    b.mul(scratch, regs[idxs[0]], regs[idxs[1]])
    for i in idxs[2:]:
        b.mul(scratch, scratch, regs[i])
    return scratch


def _emit_pair(
    b: SlpBuilder,
    regs: list[int],
    bmask: int,
    cmask: int,
    sigma: Optional[int],
    dst: int,
    u1: int,
    u2: int,
) -> int:
    """Emit (chain bmask)^-1 * (chain cmask) * sigma into dst.

    Returns the register actually holding the value (an alias when the whole
    expression is a single existing register and no instruction is needed).
    """
    if bmask == 0 and cmask == 0:
        b.load(dst, sigma)  # an h_i record: the target's pair is never empty
        return dst
    if bmask == 0:
        creg = _emit_chain(b, regs, cmask, u2)
        if sigma is None:
            return creg
        b.load(u1, sigma)
        b.mul(dst, creg, u1)
        return dst
    breg = _emit_chain(b, regs, bmask, u1)
    if cmask == 0 and sigma is None:
        b.inv(dst, breg)
        return dst
    b.inv(u1, breg)
    if cmask:
        creg = _emit_chain(b, regs, cmask, u2)
        b.mul(dst, u1, creg)
        if sigma is not None:
            b.load(u1, sigma)
            b.mul(dst, dst, u1)
        return dst
    b.load(u2, sigma)
    b.mul(dst, u1, u2)
    return dst


def build_cube(G: GroupView, gens: Sequence[int], target: Optional[int]) -> CubeState:
    """First state of the doubling sequence whose K^-1 K holds the target.

    The states after 0, 1, 2, ... doublings, starting with ``start_cube(G)``,
    are kept on the table per generator list and grown only as far as the
    targets asked so far need, so later targets do not regrow them.  Target
    None grows until saturation and returns the last state.
    """
    gens = [int(g) for g in gens]
    cubes = G.base.cached(("cubes", tuple(gens)), lambda: [start_cube(G)])
    i = 0
    while True:
        state = cubes[i]
        if target is not None and target in state.kk:
            return state
        if i + 1 == len(cubes):
            nxt = _double(G, gens, state)
            if nxt is None:
                if target is None:
                    return state
                raise NotInSubgroupError(f"target {target} is outside the generated subgroup")
            cubes.append(nxt)
        i += 1


def _emit_target(state: CubeState, t: int) -> tuple[SlpBuilder, int]:
    """A fork of the builder holding the state's h_i records (registers 0 ..
    rounds - 1), with t, not the identity, written after them; returns it and
    t's register."""
    if t not in state.kk:
        raise NotInSubgroupError(f"target {t} is not covered by the cube")
    regs = list(range(state.rounds))
    u1, u2, out = state.rounds, state.rounds + 1, state.rounds + 2
    if state.prefix is None:
        state.prefix = SlpBuilder()
        for i, rec in enumerate(state.h_records):
            _emit_pair(state.prefix, regs, rec.bmask, rec.cmask, rec.sigma, regs[i], u1, u2)
    b = state.prefix.fork()
    bmask, cmask = state.kk[t]
    return b, _emit_pair(b, regs, bmask, cmask, None, out, u1, u2)


def emit_from_cube(G: GroupView, gens: Sequence[int], state: CubeState, t: int) -> Slp:
    """Assemble the group SLP for a target already inside K^-1 K; the
    identity is ``identity_program``, as every group builder writes it."""
    if t == G.identity:
        return identity_program(G, gens[0])
    b, holder = _emit_target(state, t)
    return b.finish(holder)


def compress_group_reachability(G: GroupView, gens: Sequence[int], t: int) -> Slp:
    """Ordinary SLP for t over gens: the cube's group program (width <= rounds
    + 3, strict cube doubling) with its inverses eliminated, compacted; the
    state keeps the elimination pass fed its h_i records, and a fork of it is
    fed t's."""
    state = build_cube(G, gens, t)
    if t == G.identity:
        return identity_program(G, gens[0])
    b, holder = _emit_target(state, t)
    if not any(ins[0] == "I" for ins in b.instructions):
        return b.compact(holder)
    if state.mirror is None:
        state.mirror = InverseMirror(G, state.prefix.alphabet)
        state.mirror.feed(state.prefix.instructions)
    mirror = state.mirror.fork()
    mirror.feed(b.instructions[len(state.prefix.instructions):])
    return mirror.finish(holder)
