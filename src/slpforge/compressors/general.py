"""End-to-end pipeline for extensions of almost-completely-regular ideals.

Eligibility: some ideal power S^k satisfies the sandwich identity
xyz = x y^(w+1) z and has a product-closed set of completely regular
elements.  The nilpotent layer is peeled off; inside the ideal the witness
word u s_1 .. s_m v is compressed by mapping the middle letters to their
omega-plus-one powers (landing in a normal band of groups), compressing
there, and rewriting every leaf load back to the original letter, which the
sandwich identity proves harmless once u and v are re-attached.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..classify import Config, cached_flag, sandwich_ideal_level, sandwich_part_decomposes
from ..errors import NotEligibleError, UnreachableError
from ..semigroup import Semigroup, cached_closure, cached_sub_semigroup, shortest_word
from ..slp import Slp, SlpBuilder, evaluate
from .base import generated_part, word_program
from .bands import BandCompression, compress_normal_band
from .peel import nilpotent_peel


@dataclass
class GeneralCompression:
    slp: Slp
    group_width: Optional[int]
    band: Optional[BandCompression]
    # three-way split diagnostics (None when the word was too short to split)
    left: Optional[int] = None
    right: Optional[int] = None
    tilde_value: Optional[int] = None


def compress_general(
    S: Semigroup,
    gens: Sequence[int],
    t: int,
    config: Optional[Config] = None,
) -> GeneralCompression:
    cfg = config or Config()
    sub, sub_gens, sub_t, to_parent = generated_part(S, gens, t)
    if to_parent is not None:
        # judged and compressed in the generated subsemigroup, as ``compress``
        # does; ``band`` keeps the numbering of the table it ran on
        gc = compress_general(sub, sub_gens, sub_t, cfg)
        left, right, tilde = (
            None if v is None else int(to_parent[v]) for v in (gc.left, gc.right, gc.tilde_value)
        )
        return replace(gc, slp=gc.slp.relabel(to_parent), left=left, right=right, tilde_value=tilde)
    k = cached_flag(S, sandwich_ideal_level, cfg.kmax, cfg.scan_budget)
    if k is None:
        raise NotEligibleError(
            f"no ideal power up to {cfg.kmax} satisfies the sandwich identity"
        )
    if not cached_flag(S, sandwich_part_decomposes, k):
        raise NotEligibleError(
            f"the completely regular part of S^{k} is not a normal band of groups"
        )
    info: dict = {}

    def inner(sub: Semigroup, delta: list[int], t_sub: int) -> Slp:
        prog, band, split = _compress_sandwich(sub, delta, t_sub)
        info["band"] = band
        info["split"] = split
        return prog

    slp = nilpotent_peel(S, gens, t, k, inner)
    band = info.get("band")
    split = info.get("split") or (None, None, None)
    return GeneralCompression(
        slp,
        band.group_width if band is not None else None,
        band,
        left=split[0],
        right=split[1],
        tilde_value=split[2],
    )


def _compress_sandwich(
    S: Semigroup, gens: Sequence[int], t: int
) -> tuple[Slp, Optional[BandCompression], Optional[tuple]]:
    """Inside the sandwich-identity ideal: three-way split and leaf rewrite."""
    word = shortest_word(S, gens, t)
    if word is None:
        raise UnreachableError(f"target {t} is not generated inside the ideal")
    letters = [gens[i] for i in word]
    if len(letters) <= 2:
        return word_program(letters), None, None
    u, mid, v = letters[0], letters[1:-1], letters[-1]

    tilde = [S.omega_plus_one(s) for s in mid]
    tilde_gens: list[int] = []
    preimage: dict[int, int] = {}
    for s, ts in zip(mid, tilde):
        if ts not in preimage:
            preimage[ts] = s
            tilde_gens.append(ts)
    t_tilde = S.word_value(tilde)

    sub, to_sub, to_parent = cached_sub_semigroup(S, cached_closure(S, tilde_gens))
    band = compress_normal_band(
        sub, [int(to_sub[g]) for g in tilde_gens], int(to_sub[t_tilde])
    )
    rewritten = band.slp.relabel({a: preimage[int(to_parent[a])] for a in band.slp.alphabet})

    b = SlpBuilder()
    out = b.splice(rewritten, 0)
    aux = 1 if out == 0 else 0  # any register but the output
    b.load(aux, u)
    b.mul(out, aux, out)
    b.load(aux, v)
    b.mul(out, out, aux)
    slp = b.compact(out)
    if evaluate(S, slp).output_value != t:
        raise NotEligibleError("leaf substitution changed the target value")
    return slp, band, (u, v, t_tilde)
