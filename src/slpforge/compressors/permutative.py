"""Width-2 logarithmic compression for permutative semigroups.

The target is rewritten as  u * s_1^v1 ... s_m^vm * v  with u, v words of
exactly k* generators (k* = verified central-commutation level) and the
middle grouped by first occurrence.  A backward-reachability dynamic program
(one pointer-doubling orbit pass per generator) picks the lexicographically
minimal exponent tuple, which bounds the product
of (v_i + 1) by |S| and hence the emitted length by O(log |S|).  The program
itself is a simultaneous square-and-multiply over all generators at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..classify import Config, cached_flag, central_commutation_level
from ..errors import NotPermutativeError, UnreachableError
from ..semigroup import Semigroup, shortest_word
from ..slp import Slp, SlpBuilder
from .base import word_program


@dataclass
class PermNormalForm:
    """t = prefix * order[0]^exponents[0] * ... * suffix, exponents >= 1."""

    prefix: list[int]
    order: list[int]
    exponents: list[int]
    suffix: list[int]

    def value(self, S: Semigroup) -> int:
        seq: list[int] = list(self.prefix)
        for s, e in zip(self.order, self.exponents):
            seq.extend([s] * e)
        seq.extend(self.suffix)
        return S.word_value(seq)


def minimize_exponents(
    S: Semigroup,
    prefix: Sequence[int],
    order: Sequence[int],
    suffix: Sequence[int],
    t: int,
) -> PermNormalForm:
    """Lexicographically minimal exponents with prefix*order^exps*suffix = t.

    Backward pass (``reach_sets``): R_i is the set of partial products
    completable through generators i+1..m and the suffix; forward pass
    greedily takes the least exponent staying inside R_i.  Exponents of zero
    are pruned from the form.
    """
    n = S.n
    table = S.table
    virt = n  # virtual empty product
    m = len(order)

    base = np.zeros(n + 1, dtype=bool)
    if suffix:
        v_val = S.word_value(list(suffix))
        base[:n] = table[:, v_val] == t
        base[virt] = v_val == t
    else:
        base[t] = True

    caps = [int(S.omega_exponents[s] + S.periods[s] - 1) for s in order]
    r_sets = reach_sets(S, order, caps, base)
    p = S.word_value(list(prefix)) if prefix else virt
    if not r_sets[0][p]:
        raise UnreachableError("no exponent tuple realises the target")
    exps: list[int] = []
    for i in range(m):
        s = order[i]
        e = 0
        q = p
        while not r_sets[i + 1][q]:
            q = s if q == virt else table.item(q, s)
            e += 1
            if e > caps[i]:
                raise UnreachableError("exponent search overran its cap")
        exps.append(e)
        p = q
    kept = [(s, e) for s, e in zip(order, exps) if e > 0]
    nf = PermNormalForm(
        list(prefix), [s for s, _ in kept], [e for _, e in kept], list(suffix)
    )
    if nf.order or nf.prefix or nf.suffix:
        if nf.value(S) != t:
            raise UnreachableError("normal form does not evaluate to the target")
    else:
        raise UnreachableError("empty normal form")
    return nf


def reach_sets(S: Semigroup, order, caps, base: np.ndarray) -> list[np.ndarray]:
    """R_0, ..., R_m over the n elements and the empty product n; R_m = base.

    x < n is in R_i when x * s^e is in R_(i+1) for some 0 <= e <= cap, s the
    i-th generator.  Powers past the cap repeat, so that is "the forward orbit
    of x under right multiplication by s meets R_(i+1)", decided for all x by
    pointer doubling in O(n log cap): acc covers exponents below span, and f
    maps x to x * s^span.
    """
    n = S.n
    r_sets = [base]
    for s, cap in zip(reversed(order), reversed(caps)):
        cur = r_sets[-1]
        f = S.table[:, s]
        acc = cur[:n].copy()
        span = 1
        while span <= cap:
            acc |= acc[f]
            f = f[f]
            span *= 2
        # the empty product times s^e is s^e, and s * s^(e-1) for e >= 1
        r_sets.append(np.append(acc, cur[n] or acc[s]))
    r_sets.reverse()
    return r_sets


def compress_permutative(
    S: Semigroup,
    gens: Sequence[int],
    t: int,
    kstar: Optional[int] = None,
    config: Optional[Config] = None,
) -> Slp:
    """Two-register program of length O(log |S|) for permutative structures."""
    cfg = config or Config()
    if kstar is None:
        kstar = cached_flag(S, central_commutation_level, cfg.kmax, cfg.scan_budget)
        if kstar is None:
            raise NotPermutativeError(
                f"no central commutation level <= {cfg.kmax} holds"
            )
    word = shortest_word(S, gens, t)
    if word is None:
        raise UnreachableError(f"target {t} is not generated")
    letters = [gens[i] for i in word]
    if len(word) <= 2 * kstar:
        return word_program(letters)
    prefix = letters[:kstar]
    suffix = letters[len(letters) - kstar :] if kstar else []
    middle = letters[kstar : len(letters) - kstar] if kstar else letters
    order: list[int] = []
    for s in middle:
        if s not in order:
            order.append(s)
    nf = minimize_exponents(S, prefix, order, suffix, t)
    return _emit(nf)


def _emit(nf: PermNormalForm) -> Slp:
    if not nf.order:
        return word_program(nf.prefix + nf.suffix)
    b = SlpBuilder()
    acc = b.fresh()
    scratch = b.fresh()
    held: Optional[int] = None  # symbol currently sitting in the scratch register

    def in_scratch(s: int) -> None:
        nonlocal held
        if held != s:
            b.load(scratch, s)
            held = s

    bits = max(e.bit_length() for e in nf.exponents)
    started = False
    for bit in range(bits - 1, -1, -1):
        if started:
            b.mul(acc, acc, acc)
        for s, e in zip(nf.order, nf.exponents):
            if (e >> bit) & 1:
                if not started:
                    b.load(acc, s)
                    started = True
                else:
                    in_scratch(s)
                    b.mul(acc, acc, scratch)
    for s in reversed(nf.prefix):
        in_scratch(s)
        b.mul(acc, scratch, acc)
    for s in nf.suffix:
        in_scratch(s)
        b.mul(acc, acc, scratch)
    return b.compact(acc)
