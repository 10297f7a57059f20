"""Reduction from an extension-by-nilpotent to its ideal.

If the target misses the ideal S^k it is a short product.  Otherwise the
ideal is generated by the values of generator words of length at most 2k - 1,
listed from the table's memoised word tree (``shortest_words``).  The inner
strategy compresses inside the ideal over those values, and its program is
re-emitted onto S with every load written as its witness word through one
shared scratch register (one extra register, factor 4k - 3 in length).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import SlpforgeError
from ..semigroup import (
    Semigroup, cached_sub_semigroup, closure, ideal_power, shortest_word, shortest_words,
)
from ..slp import Slp, SlpBuilder
from .base import generated_part, word_program

InnerStrategy = Callable[[Semigroup, list[int], int], Slp]


def ideal_generators(
    S: Semigroup, gens: Sequence[int], k: int
) -> list[tuple[int, list[int]]]:
    """Values of generator words of length <= 2k - 1 inside S^k, with their
    shortest (lex-least) witness words; their closure is all of S^k."""
    sk = ideal_power(S, k)
    delta = [
        (v, [gens[i] for i in w]) for v, w in shortest_words(S, gens, 2 * k - 1) if v in sk
    ]
    vals = [v for v, _ in delta]
    if vals and closure(S, vals) != sk:
        raise SlpforgeError("short-word values do not generate the ideal")
    return delta


def nilpotent_peel(
    S: Semigroup,
    gens: Sequence[int],
    t: int,
    k: int,
    inner: InnerStrategy,
) -> Slp:
    """Peel the k-nilpotent layer off and defer to ``inner`` on the ideal.

    The peel needs generators of the whole table, so it works inside the
    subsemigroup ``gens`` generate (``generated_part``), where S^k is that
    subsemigroup's ideal, and the program is relabelled to S, as
    ``compress`` does.
    """
    sub, sub_gens, sub_t, to_parent = generated_part(S, gens, t)
    if to_parent is not None:
        return nilpotent_peel(sub, sub_gens, sub_t, k, inner).relabel(to_parent)
    sk = ideal_power(S, k)
    if t not in sk:
        word = shortest_word(S, gens, t)
        if len(word) >= k:
            raise SlpforgeError("word of length >= k evaluated outside the ideal")
        return word_program([gens[i] for i in word])
    gens = tuple(int(g) for g in gens)
    delta = S.cached(("ideal_generators", gens, k), lambda: ideal_generators(S, gens, k))
    sub, to_sub, to_parent = cached_sub_semigroup(S, sk)
    inner_prog = inner(sub, [int(to_sub[v]) for v, _ in delta], int(to_sub[t]))
    by_value = {v: w for v, w in delta}
    b = SlpBuilder()
    scratch = inner_prog.width
    for ins in inner_prog.instructions:
        if ins[0] != "L":
            b.instructions.append(ins)
            continue
        val = int(to_parent[inner_prog.alphabet[ins[2]]])
        word = by_value.get(val)
        if word is None:
            raise SlpforgeError(f"inner program loads a value {val} outside delta")
        b.word_product(word, ins[1], scratch)
    return b.compact(inner_prog.output)
