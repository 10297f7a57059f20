"""Constructors for the example structures and lower-bound witness families.

Each family builds a concrete Cayley table and validates it with its own
generators as the hint, so Light's test runs over a few generators at every
size.  Permutation groups and the Clifford shape pass no hint and are checked
over a greedily picked generating set.  Rectangular bands, and products built
from validated factors, are associative by construction and are not checked
again.  The test suite additionally validates small members of every family
from scratch, without a hint.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decomposition import cached_decomposition
from .errors import (
    BudgetExceededError,
    DecompositionFailedError,
    NotAHomomorphismError,
    SlpforgeError,
    UnknownFamilyError,
)
from .semigroup import (
    Semigroup,
    cached_closure,
    direct_product,
    ideal_power,
    table_dtype,
    validate_table,
)

MAX_GROUP_ORDER = 5000
MAX_TABLE_CELLS = 3 * 10**8


@dataclass(frozen=True)
class Witness:
    """A structure together with its canonical generators and hard target."""

    semigroup: Semigroup
    generators: list[int]
    target: int


def _check_cells(n: int) -> None:
    if n * n > MAX_TABLE_CELLS:
        raise BudgetExceededError(
            f"table with {n}x{n} cells exceeds the {MAX_TABLE_CELLS} cell budget"
        )


# -- groups ----------------------------------------------------------------


def make_cyclic(m: int) -> Semigroup:
    if m < 1 or m > MAX_GROUP_ORDER:
        raise BudgetExceededError(f"cyclic order {m} outside [1, {MAX_GROUP_ORDER}]")
    idx = np.arange(m, dtype=np.int64)
    table = (idx[:, None] + idx[None, :]) % m
    return validate_table(table, name=f"Z{m}", gens_hint=[0, 1 % m])


def make_abelian(dims: Sequence[int]) -> Semigroup:
    order = math.prod(dims)
    if order > MAX_GROUP_ORDER:
        raise BudgetExceededError(f"abelian order {order} exceeds {MAX_GROUP_ORDER}")
    S = make_cyclic(dims[0])
    for m in dims[1:]:
        S = direct_product(S, make_cyclic(m), budget=MAX_GROUP_ORDER)
    name = "x".join(f"Z{m}" for m in dims)
    return Semigroup.trusted(S.table, name=name)


def make_dihedral(m: int) -> Semigroup:
    """Dihedral group of order 2m; index s*m + i encodes flip^s rot^i."""
    if m < 1 or 2 * m > MAX_GROUP_ORDER:
        raise BudgetExceededError(f"dihedral order {2 * m} exceeds {MAX_GROUP_ORDER}")
    s = np.arange(2 * m, dtype=np.int64) // m
    i = np.arange(2 * m, dtype=np.int64) % m
    sign = 1 - 2 * s
    rot = (i[:, None] + sign[:, None] * i[None, :]) % m
    flip = (s[:, None] + s[None, :]) % 2
    table = flip * m + rot
    return validate_table(table, name=f"D{2 * m}", gens_hint=[1 % (2 * m), m])


def dihedral_generators(m: int) -> list[int]:
    """Rotation and flip indices in the encoding of make_dihedral."""
    return [1, m] if m > 1 else [m]


def make_heisenberg(p: int) -> Semigroup:
    """Unitriangular 3x3 matrices over Z_p; order p^3, derived length 2."""
    if p**3 > MAX_GROUP_ORDER:
        raise BudgetExceededError(f"heisenberg order {p ** 3} exceeds {MAX_GROUP_ORDER}")
    n = p**3
    idx = np.arange(n, dtype=np.int64)
    a, rem = idx // (p * p), idx % (p * p)
    b, c = rem // p, rem % p
    aa = (a[:, None] + a[None, :]) % p
    bb = (b[:, None] + b[None, :]) % p
    cc = (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p
    table = aa * p * p + bb * p + cc
    return validate_table(table, name=f"H{p}", gens_hint=[p * p, p, 1])


def heisenberg_generators(p: int) -> list[int]:
    return [p * p, p]  # a-generator and b-generator; c lies in the commutator


def _perm_table(perms: list[tuple[int, ...]], name: str) -> Semigroup:
    index = {q: i for i, q in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=np.int64)
    for i, sig in enumerate(perms):
        for j, tau in enumerate(perms):
            table[i, j] = index[tuple(sig[t] for t in tau)]
    return validate_table(table, name=name)


def _parity(perm: tuple[int, ...]) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            inv += perm[i] > perm[j]
    return inv % 2


def make_sym(n: int) -> Semigroup:
    if n > 5:
        raise BudgetExceededError("symmetric groups supported up to degree 5")
    return _perm_table(list(itertools.permutations(range(n))), f"S{n}")


def make_alt(n: int) -> Semigroup:
    if n > 5:
        raise BudgetExceededError("alternating groups supported up to degree 5")
    perms = [q for q in itertools.permutations(range(n)) if _parity(q) == 0]
    return _perm_table(perms, f"A{n}")


def perm_index(n: int, perm: Sequence[int], even_only: bool = False) -> int:
    perms = itertools.permutations(range(n))
    if even_only:
        perms = (q for q in perms if _parity(q) == 0)
    for i, q in enumerate(perms):
        if q == tuple(perm):
            return i
    raise ValueError(f"{perm} is not in the enumeration")


def make_group(family: str, params: Sequence[int]) -> Semigroup:
    if family == "cyclic":
        return make_cyclic(params[0])
    if family == "abelian":
        return make_abelian(list(params))
    if family == "dihedral":
        return make_dihedral(params[0])
    if family == "heisenberg":
        return make_heisenberg(params[0])
    if family == "sym":
        return make_sym(params[0])
    if family == "alt":
        return make_alt(params[0])
    raise UnknownFamilyError(f"unknown group family {family!r}")


# -- obstruction witnesses ---------------------------------------------------


def _interval_index(n: int) -> tuple[dict[tuple[int, int], int], list[tuple[int, int]]]:
    intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return {iv: k for k, iv in enumerate(intervals)}, intervals


def _lrb_product(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    (i, j), (k, l) = a, b
    if k >= j + 2:
        return (k, l)
    return (i, max(j, l))


def _rrb_product(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    (i, j), (k, l) = a, b
    if k >= j + 2:
        return (i, j)
    return (min(i, k), l)


def make_obstruction_witness(variant: str, n: int) -> Witness:
    """Interval models of the free objects behind the three obstructions.

    LRB keeps the first occurrence of each generator, RRB the last, and T
    kills every non-consecutive junction.  Generators are the unit intervals,
    the target is the full interval [1..n].
    """
    if not 2 <= n <= 200:
        raise BudgetExceededError("witness parameter n must be in [2, 200]")
    if variant not in ("LRB", "RRB", "T"):
        raise UnknownFamilyError(f"unknown obstruction variant {variant!r}")
    index, intervals = _interval_index(n)
    m = len(intervals)
    if variant in ("LRB", "RRB"):
        prod = _lrb_product if variant == "LRB" else _rrb_product
        table = np.zeros((m, m), dtype=np.int64)
        for x, a in enumerate(intervals):
            for y, b in enumerate(intervals):
                table[x, y] = index[prod(a, b)]
        size = m
    else:
        zero = m
        table = np.full((m + 1, m + 1), zero, dtype=np.int64)
        for x, (i, j) in enumerate(intervals):
            for y, (k, l) in enumerate(intervals):
                if k == j + 1:
                    table[x, y] = index[(i, l)]
        size = m + 1
    gens = [index[(i, i)] for i in range(1, n + 1)]
    S = validate_table(table, name=f"{variant}-witness-{n}", gens_hint=gens)
    _verify_obstruction(S, variant, n, gens, index)
    expected = n * (n + 1) // 2 + (1 if variant == "T" else 0)
    if S.n != expected:
        raise SlpforgeError(f"witness size {S.n} != expected {expected}")
    return Witness(S, gens, index[(1, n)])


def _verify_obstruction(S, variant, n, gens, index):
    table = S.table
    # every interval must be the product of its unit letters
    for (i, j), k in index.items():
        acc = gens[i - 1]
        for letter in range(i + 1, j + 1):
            acc = int(table[acc, gens[letter - 1]])
        if acc != k:
            raise SlpforgeError(f"interval ({i},{j}) is not the product of its letters")
    if cached_closure(S, gens).cardinality != S.n:
        raise SlpforgeError("unit intervals do not generate the witness")
    # defining relations on generators
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            p = int(table[gens[i - 1], gens[j - 1]])
            if variant == "LRB" and j >= i + 2 and p != gens[j - 1]:
                raise SlpforgeError("LRB absorption s_i s_j = s_j failed")
            if variant == "RRB" and j >= i + 2 and p != gens[i - 1]:
                raise SlpforgeError("RRB absorption s_i s_j = s_i failed")
            if variant == "T" and j != i + 1 and p != S.n - 1:
                raise SlpforgeError("T annihilation s_i s_j = 0 failed")


def make_u_witness(n: int) -> Witness:
    """Nonempty subsets of [n] plus zero; disjoint union, overlap kills."""
    if not 2 <= n <= 16:
        raise BudgetExceededError("u-witness parameter n must be in [2, 16]")
    size = 1 << n
    _check_cells(size)
    subs = np.arange(1, size, dtype=np.int64)
    zero = size - 1
    overlap = (subs[:, None] & subs[None, :]) != 0
    union = (subs[:, None] | subs[None, :]) - 1
    table = np.full((size, size), zero, dtype=np.int64)
    table[:-1, :-1] = np.where(overlap, zero, union)
    gens = [(1 << i) - 1 for i in range(n)]
    S = validate_table(table, name=f"U-witness-{n}", gens_hint=gens)
    if S.n != size:
        raise SlpforgeError("u-witness size mismatch")
    return Witness(S, gens, size - 2)


def u_witness_size_by_enumeration(n: int) -> int:
    """Independent count of <singletons> in the subsets-with-zero model.

    Closure over python sets; no Cayley table is materialised, so this scales
    to n = 16 where the table would not fit in memory.
    """
    zero = frozenset({-1})
    gens = [frozenset({i}) for i in range(n)]

    def mul(a, b):
        if a == zero or b == zero or (a & b):
            return zero
        return a | b

    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                for c in (mul(a, g), mul(g, a)):
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return len(seen)


def make_power_witness(M: Semigroup, s: int, n: int, max_elements: int = 10**5) -> Witness:
    """Subsemigroup of M^n generated by s-in-one-coordinate vectors.

    M must be a monoid with neutral element e and s != e; generator i has s in
    coordinate i and e elsewhere.  Elements are discovered by BFS closure, so
    only the reachable part of the power is materialised.
    """
    e = M.identity_element()
    if e is None:
        raise SlpforgeError("power witness needs a monoid")
    if s == e:
        raise SlpforgeError("power witness needs s distinct from the neutral element")
    gens_t = []
    for i in range(n):
        vec = [e] * n
        vec[i] = s
        gens_t.append(tuple(vec))
    index: dict[tuple, int] = {}
    elems: list[tuple] = []
    for g in gens_t:
        if g not in index:
            index[g] = len(elems)
            elems.append(g)
    frontier = list(gens_t)
    table_m = M.table
    while frontier:
        nxt = []
        for a in sorted(frontier, key=lambda t: index[t]):
            for g in gens_t:
                for c in (
                    tuple(int(table_m[x, y]) for x, y in zip(a, g)),
                    tuple(int(table_m[y, x]) for x, y in zip(a, g)),
                ):
                    if c not in index:
                        if len(elems) >= max_elements:
                            raise BudgetExceededError(
                                f"power witness exceeded {max_elements} elements"
                            )
                        index[c] = len(elems)
                        elems.append(c)
                        nxt.append(c)
        frontier = nxt
    size = len(elems)
    _check_cells(size)
    arr = np.asarray(elems, dtype=np.int64)
    # encode coordinate tuples as mixed-radix codes to vectorise the lookup
    weights = (M.n ** np.arange(n - 1, -1, -1, dtype=np.int64)) if n else np.array([], dtype=np.int64)
    codes = arr @ weights
    order_idx = np.argsort(codes)
    sorted_codes = codes[order_idx]
    table = np.zeros((size, size), dtype=np.int64)
    for x in range(size):
        prods = table_m[arr[x][None, :], arr].astype(np.int64)   # (size, n)
        pcodes = prods @ weights
        pos = np.searchsorted(sorted_codes, pcodes)
        table[x, :] = order_idx[pos]
    gens = [index[g] for g in gens_t]
    t_val = elems[gens[0]]
    for g in gens_t[1:]:
        t_val = tuple(int(table_m[x, y]) for x, y in zip(t_val, g))
    S = validate_table(table, name=f"power-witness-{n}", gens_hint=gens)
    return Witness(S, gens, index[t_val])


def make_subset_semilattice(n: int) -> Witness:
    """Nonempty subsets of [n] under union; generators the singletons."""
    if not 1 <= n <= 13:
        raise BudgetExceededError("subset semilattice supported for n in [1, 13]")
    size = (1 << n) - 1
    _check_cells(size)
    subs = np.arange(1, size + 1, dtype=np.int64)
    table = (subs[:, None] | subs[None, :]) - 1
    gens = [(1 << i) - 1 for i in range(n)]
    S = validate_table(table, name=f"Sl2^{n}", gens_hint=gens)
    return Witness(S, gens, size - 1)


def make_rectangular_band(p: int, q: int) -> Semigroup:
    """Carrier [p] x [q] with (a,b)(c,d) = (a,d); index a*q + b."""
    if p < 1 or q < 1 or p * q > 10**4:
        raise BudgetExceededError("rectangular band needs p, q >= 1 and pq <= 10^4")
    n = p * q
    idx, dt = np.arange(n), table_dtype(n)
    # (a*q + b)(c*q + d) = a*q + d: the index arithmetic stays in int64 (q may
    # not fit the stored dtype, as in RB(1, 256)); only the two length-n
    # vectors are narrowed, so the n x n sum is written at the stored dtype
    table = (idx // q * q).astype(dt)[:, None] + (idx % q).astype(dt)[None, :]
    table.setflags(write=False)  # read-only at the stored dtype: wrapped, not copied
    return Semigroup.trusted(table, name=f"RB({p},{q})")


def rectangular_band_generators(p: int, q: int) -> list[int]:
    """A generating set of size max(p, q): covers every row and column."""
    gens = sorted({i * q + (i % q) for i in range(p)} | {(j % p) * q + j for j in range(q)})
    return gens


def make_normal_band_of_groups(kind: str, **kwargs) -> Semigroup:
    """Two supported shapes of normal bands of groups.

    kind="product": RB(p, q) x G for a group G.
    kind="clifford": two-level strong semilattice G1 -> G0 along a verified
    homomorphism phi (list mapping G1 indices to G0 indices); carrier is the
    disjoint union with G1 first.

    The result is checked by decomposing it, which also rejects a ``group``,
    ``top`` or ``bottom`` that is not a group.  The decomposition stays
    memoised on the table, so ``normal-band`` on it does not build it again.
    """
    if kind == "product":
        p, q, G = kwargs["p"], kwargs["q"], kwargs["group"]
        S = direct_product(make_rectangular_band(p, q), G)
        S = Semigroup.trusted(S.table, name=f"RB({p},{q})x{G.name or 'G'}")
    elif kind == "clifford":
        G1, G0, phi = kwargs["top"], kwargs["bottom"], list(kwargs["hom"])
        if len(phi) != G1.n:
            raise NotAHomomorphismError("phi must be defined on all of the top group")
        for a in range(G1.n):
            for b in range(G1.n):
                if phi[int(G1.table[a, b])] != int(G0.table[phi[a], phi[b]]):
                    raise NotAHomomorphismError(
                        f"phi({a}*{b}) != phi({a})*phi({b})"
                    )
        n1, n0 = G1.n, G0.n
        n = n1 + n0
        table = np.zeros((n, n), dtype=np.int64)
        table[:n1, :n1] = G1.table
        table[n1:, n1:] = G0.table.astype(np.int64) + n1
        phi_arr = np.asarray(phi, dtype=np.int64)
        table[:n1, n1:] = G0.table.astype(np.int64)[phi_arr][:, :] + n1
        table[n1:, :n1] = (G0.table.astype(np.int64)[:, phi_arr]) + n1
        S = validate_table(table, name=f"Clifford({G1.name or 'G1'}->{G0.name or 'G0'})")
    else:
        raise UnknownFamilyError(f"unknown normal band shape {kind!r}")
    try:
        cached_decomposition(S)
    except SlpforgeError as exc:
        raise DecompositionFailedError(f"construction is not a normal band of groups: {exc}")
    return S


def make_nilpotent_extension(
    S: Semigroup, alphabet_size: int, assignment: Sequence[int], k: int
) -> tuple[Semigroup, np.ndarray]:
    """Fresh generators multiplying freely below length k, then landing in S.

    Carrier: nonempty words over the alphabet of length < k, followed by the
    closure of the evaluation image of words of length >= k inside S.  The
    projection extends the assignment to an onto-S-part homomorphism.
    """
    if k < 2:
        raise BudgetExceededError("nilpotency threshold k must be >= 2")
    a = alphabet_size
    if len(assignment) != a:
        raise SlpforgeError("assignment must cover the whole alphabet")
    word_count = sum(a**i for i in range(1, k))
    if word_count > 10**4:
        raise BudgetExceededError("too many short words for the extension budget")

    def eval_word(w: tuple[int, ...]) -> int:
        acc = assignment[w[0]]
        for letter in w[1:]:
            acc = int(S.table[acc, assignment[letter]])
        return acc

    words: list[tuple[int, ...]] = []
    for length in range(1, k):
        words.extend(itertools.product(range(a), repeat=length))
    windex = {w: i for i, w in enumerate(words)}

    v_prev = {eval_word(w) for w in itertools.product(range(a), repeat=k)}
    embedded = set(v_prev)
    seen_levels = {frozenset(v_prev)}
    gen_vals = sorted({assignment[x] for x in range(a)})
    while True:
        v_next = {int(S.table[x, g]) for x in v_prev for g in gen_vals}
        embedded |= v_next
        key = frozenset(v_next)
        if key in seen_levels:
            break
        seen_levels.add(key)
        v_prev = v_next
    emb_sorted = sorted(embedded)
    emb_index = {v: len(words) + i for i, v in enumerate(emb_sorted)}
    n = len(words) + len(emb_sorted)
    _check_cells(n)

    table = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            if x < len(words) and y < len(words):
                w1, w2 = words[x], words[y]
                if len(w1) + len(w2) < k:
                    table[x, y] = windex[w1 + w2]
                else:
                    table[x, y] = emb_index[int(S.table[eval_word(w1), eval_word(w2)])]
            elif x < len(words):
                v = int(S.table[eval_word(words[x]), emb_sorted[y - len(words)]])
                table[x, y] = emb_index[v]
            elif y < len(words):
                v = int(S.table[emb_sorted[x - len(words)], eval_word(words[y])])
                table[x, y] = emb_index[v]
            else:
                v = int(S.table[emb_sorted[x - len(words)], emb_sorted[y - len(words)]])
                table[x, y] = emb_index[v]
    gens = [windex[(i,)] for i in range(a)]
    T = validate_table(table, name=f"{S.name or 'S'}-ext-k{k}", gens_hint=gens)
    if ideal_power(T, k).mask[: len(words)].any():
        raise SlpforgeError("T^k escapes the embedded part; construction bug")
    projection = np.zeros(n, dtype=np.int64)
    for x in range(n):
        projection[x] = eval_word(words[x]) if x < len(words) else emb_sorted[x - len(words)]
    return T, projection


# -- registry ----------------------------------------------------------------

FAMILIES: dict[str, str] = {
    "cyclic": "m (group order, <= 5000)",
    "abelian": "m1,...,md (cyclic factors, product <= 5000)",
    "dihedral": "m (order 2m <= 5000)",
    "heisenberg": "p (order p^3 <= 5000)",
    "sym": "n <= 5",
    "alt": "n <= 5",
    "rb": "p,q (pq <= 10^4)",
    "lrb-witness": "n in [2, 200]",
    "rrb-witness": "n in [2, 200]",
    "t-witness": "n in [2, 200]",
    "u-witness": "n in [2, 16] (table materialised while it fits in memory)",
    "semilattice": "n in [1, 13]: nonempty subsets of [n] under union",
    "power-witness": "m,n: power of Z_m with n coordinates",
    "rb-x-cyclic": "p,q,m: RB(p,q) x Z_m",
    "clifford-z4-z2": "(no parameters) Z4 -> Z2 along mod 2",
    "nilpotent-rb": "p,q,m,k: extension of RB(p,q) x Z_m with k-threshold",
}


def build_family(family: str, params: Sequence[int]):
    """CLI entry: returns (Semigroup, generators or None, target or None)."""
    params = list(params)
    if family in ("cyclic", "abelian", "dihedral", "heisenberg", "sym", "alt"):
        S = make_group(family, params)
        if family == "dihedral":
            gens = dihedral_generators(params[0])
        elif family == "heisenberg":
            gens = heisenberg_generators(params[0])
        elif family in ("cyclic", "abelian"):
            gens = [1 % S.n] if family == "cyclic" else _abelian_unit_generators(params)
        elif family == "sym":
            n = params[0]
            gens = [perm_index(n, (1, 0) + tuple(range(2, n))), perm_index(n, tuple(range(1, n)) + (0,))]
        else:
            gens = _alt_generators(params[0])
        return S, sorted(set(gens)), None
    if family == "rb":
        p, q = params
        return make_rectangular_band(p, q), rectangular_band_generators(p, q), None
    if family in ("lrb-witness", "rrb-witness", "t-witness"):
        w = make_obstruction_witness(family.split("-")[0].upper(), params[0])
        return w.semigroup, w.generators, w.target
    if family == "u-witness":
        w = make_u_witness(params[0])
        return w.semigroup, w.generators, w.target
    if family == "semilattice":
        w = make_subset_semilattice(params[0])
        return w.semigroup, w.generators, w.target
    if family == "power-witness":
        m, n = params
        w = make_power_witness(make_cyclic(m), 1 % m, n)
        return w.semigroup, w.generators, w.target
    if family == "rb-x-cyclic":
        p, q, m = params
        S = make_normal_band_of_groups("product", p=p, q=q, group=make_cyclic(m))
        gens = sorted({rb * m + g for rb in rectangular_band_generators(p, q) for g in (1 % m,)})
        return S, gens, None
    if family == "clifford-z4-z2":
        S = make_normal_band_of_groups(
            "clifford", top=make_cyclic(4), bottom=make_cyclic(2), hom=[v % 2 for v in range(4)]
        )
        return S, [1, 4 + 1], None
    if family == "nilpotent-rb":
        p, q, m, k = params
        base = make_normal_band_of_groups("product", p=p, q=q, group=make_cyclic(m))
        assignment = sorted({rb * m + 1 % m for rb in rectangular_band_generators(p, q)})
        T, _ = make_nilpotent_extension(base, len(assignment), assignment, k)
        return T, list(range(len(assignment))), None
    raise UnknownFamilyError(f"unknown family {family!r}")


def _abelian_unit_generators(dims: Sequence[int]) -> list[int]:
    gens = []
    stride = math.prod(dims)
    for m in dims:
        stride //= m
        gens.append(stride)
    return gens


def _alt_generators(n: int) -> list[int]:
    if n <= 3:
        return [perm_index(n, tuple(range(1, n)) + (0,), even_only=True)] if n == 3 else [0]
    three_cycle = (1, 2, 0) + tuple(range(3, n))
    if n == 4:
        other = (0, 2, 3, 1)
    else:
        other = (0, 1, 3, 4, 2)
    return sorted(
        {perm_index(n, three_cycle, even_only=True), perm_index(n, other, even_only=True)}
    )
