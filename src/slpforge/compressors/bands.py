"""Compression through a normal band-of-groups decomposition.

The class idempotent e_a is produced by lifting a width-2 program for the
class index in the quotient band (a normal band is permutative) and raising
the lift to its idempotent power.  The group part runs over the generators
e_a s e_a with s a product of at most two input generators lying J-above e_a,
with the class group's entry ``GROUP_STRATEGIES[group_route(view)]``.
Wide mode pins e_a in a register and expands each group load with one helper
register; narrow mode spends only one extra register and recomputes e_a by
exponentiating a live group value whenever it had to be overwritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..classify import group_route
from ..decomposition import BandDecomposition, cached_decomposition
from ..errors import DecompositionFailedError, SlpforgeError
from ..groups import group_view
from ..semigroup import Semigroup, cached_closure, cached_sub_semigroup
from ..slp import Slp, SlpBuilder, evaluate
from .in_group import GROUP_STRATEGIES
from .permutative import compress_permutative


@dataclass
class BandCompression:
    slp: Slp
    alpha: int
    group_width: int


def class_generators(
    S: Semigroup, decomp: BandDecomposition, gens: Sequence[int], alpha: int
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Values e_a s e_a for s in Sigma^(<=2) with s J-above e_a, plus witnesses."""
    e = decomp.idempotents[alpha]
    table = S.table
    out_vals: list[int] = []
    witnesses: list[tuple[int, ...]] = []
    seen: set[int] = set()
    candidates: list[tuple[tuple[int, ...], int]] = []
    for g in gens:
        candidates.append(((g,), g))
    for g1 in gens:
        for g2 in gens:
            candidates.append(((g1, g2), int(table[g1, g2])))
    for wit, val in candidates:
        if not decomp.j_below(alpha, val):
            continue
        sval = int(table[int(table[e, val]), e])
        if sval in seen:
            continue
        seen.add(sval)
        if sval not in decomp.carriers[alpha]:
            raise SlpforgeError("e_a s e_a escaped its class; decomposition bug")
        out_vals.append(sval)
        witnesses.append(wit)
    return out_vals, witnesses


def compress_normal_band(
    S: Semigroup,
    gens: Sequence[int],
    t: int,
    mode: str = "wide",
) -> BandCompression:
    if mode not in ("wide", "narrow"):
        raise ValueError("mode must be 'wide' or 'narrow'")
    gens = [int(g) for g in gens]
    decomp = cached_decomposition(S)
    alpha = decomp.class_of(t)
    B = decomp.band

    rep: dict[int, int] = {}
    bgens: list[int] = []
    for g in gens:
        bv = decomp.class_of(g)
        if bv not in rep:
            rep[bv] = g
            bgens.append(bv)
    kstar_b = 0 if np.array_equal(B.table, B.table.T) else 1
    bprog = compress_permutative(B, bgens, alpha, kstar=kstar_b)
    lift = bprog.relabel(rep)
    t_alpha = evaluate(S, lift).output_value
    e_alpha = S.omega_power(t_alpha)
    if e_alpha != decomp.idempotents[alpha]:
        raise SlpforgeError("lifted band program landed in the wrong class")

    sigma_alpha, witnesses = class_generators(S, decomp, gens, alpha)
    carrier = decomp.carriers[alpha]
    if cached_closure(S, sigma_alpha) != carrier:
        raise SlpforgeError("class generators do not generate the class group")

    # memoised, so the class group's builders keep their own memo across targets
    sub, to_sub, to_parent = cached_sub_semigroup(S, carrier)
    view = group_view(sub)
    gsub = [int(to_sub[v]) for v in sigma_alpha]
    gprog = GROUP_STRATEGIES[group_route(view)](view, gsub, int(to_sub[t]))
    gparent = gprog.relabel(to_parent)
    witness_of = {v: w for v, w in zip(sigma_alpha, witnesses)}

    b = SlpBuilder()
    r_e = b.fresh()
    aux = b.fresh() if mode == "wide" else None
    base = b._next_reg

    r_t = b.splice(lift, base)
    # e_a = t_a^omega; an idempotent t_a (exponent 1) is its own square
    b.fast_exp_into(r_e, r_t, max(int(S.omega_exponents[t_alpha]), 2))

    live_vals: dict[int, int] = {}
    table = S.table
    for ins in gparent.instructions:
        if ins[0] == "M":
            dst, a_, b_ = base + ins[1], base + ins[2], base + ins[3]
            b.mul(dst, a_, b_)
            live_vals[dst] = int(table[live_vals[a_], live_vals[b_]])
            continue
        dst = base + ins[1]
        sval = gparent.alphabet[ins[2]]
        wit = witness_of[sval]
        if mode == "wide":
            b.load(dst, wit[0])
            b.mul(dst, r_e, dst)
            if len(wit) == 2:
                b.load(aux, wit[1])
                b.mul(dst, dst, aux)
            b.mul(dst, dst, r_e)
        else:
            if len(wit) == 1:
                b.load(dst, wit[0])
                b.mul(dst, r_e, dst)
                b.mul(dst, dst, r_e)
            else:
                helper = None  # a compact group program may have width 1
                for r in range(base, base + max(gparent.width, 2)):
                    if r != dst and r not in live_vals:
                        helper = r
                        break
                if helper is not None:
                    b.load(dst, wit[0])
                    b.mul(dst, r_e, dst)
                    b.load(helper, wit[1])
                    b.mul(dst, dst, helper)
                    b.mul(dst, dst, r_e)
                else:
                    b.load(dst, wit[0])
                    b.mul(dst, r_e, dst)
                    b.load(r_e, wit[1])
                    b.mul(dst, dst, r_e)
                    donor = min(r for r in live_vals if r != dst)
                    b.fast_exp_into(r_e, donor, max(int(S.omega_exponents[live_vals[donor]]), 2))
                    b.mul(dst, dst, r_e)
        live_vals[dst] = sval
    out = base + gparent.output
    slp = b.compact(out)
    trace = evaluate(S, slp)
    if trace.output_value != t:
        raise DecompositionFailedError("band splice produced a wrong value")
    return BandCompression(slp, alpha, gprog.width)
