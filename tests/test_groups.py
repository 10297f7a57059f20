import math

import numpy as np
import pytest

from slpforge import zoo
from slpforge.errors import NotAGroupError, NotNormalError
from slpforge.groups import (
    derived_series,
    group_view,
    is_adapted,
    minimal_generating_subset,
    normal_closure_set,
    quotient_group,
    subgroup_closure,
)
from slpforge import groups
from slpforge.semigroup import Semigroup, closure, direct_product, spread, sub_semigroup, validate_table
from slpforge.sets import ElementSet

from conftest import py_closure, random_semigroups, table_of


def _s3():
    S = zoo.make_sym(3)
    swap = zoo.perm_index(3, (1, 0, 2))      # (12)
    cycle = zoo.perm_index(3, (1, 2, 0))     # (123)
    return S, swap, cycle


def test_group_view_z7():
    S = zoo.make_cyclic(7)
    G = group_view(S)
    assert G.identity == 0
    assert G.inverse[3] == 4


def test_group_view_on_decomposed_carrier():
    S, gens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    from slpforge.decomposition import band_of_groups_decomposition

    dec = band_of_groups_decomposition(S)
    assert dec.band.n == 4
    for carrier in dec.carriers:
        assert group_view(sub_semigroup(S, carrier)[0]).order == 3


def test_group_view_rejects_free_lrb():
    w = zoo.make_obstruction_witness("LRB", 2)
    with pytest.raises(NotAGroupError):
        group_view(w.semigroup)


def _group_parts_reference(S):
    """Every idempotent's row and column compared with the identity map."""
    table = S.table
    mem = np.arange(S.n)
    idems = [e for e in range(S.n) if table[e, e] == e]
    neutral = [e for e in idems if (table[e] == mem).all() and (table[:, e] == mem).all()]
    if not neutral:
        return "no neutral element in the table", idems[0] if idems else 0
    extra = [e for e in idems if e != neutral[0]]
    return (f"extra idempotent {extra[0]}", extra[0]) if extra else neutral[0]


def _group_outcome(S):
    try:
        return group_view(S).identity
    except NotAGroupError as exc:
        return str(exc), exc.witness


def test_group_view_matches_the_reference_census(zoo_small):
    tables = [S for S, _, _ in zoo_small.values()] + random_semigroups(200, seed=29)
    tables += [zoo.make_dihedral(150), zoo.make_heisenberg(5), zoo.make_rectangular_band(3, 4)]
    outcomes = [_group_outcome(Semigroup.trusted(S.table)) for S in tables]
    assert outcomes == [_group_parts_reference(S) for S in tables]
    kinds = {o if isinstance(o, int) else o[0].split()[0] for o in outcomes}
    assert {"no", "extra", 0} <= kinds


def _inflated_group(m: int) -> Semigroup:
    """Z_m and one more element a, last, that multiplies as the generator 1:
    x*y = p(x) + p(y) with p(a) = 1.  Its one idempotent, 0, fixes every
    element but a (0*a = 1), so it is no neutral element."""
    p = list(range(m)) + [1 % m]
    return validate_table([[(p[x] + p[y]) % m for y in range(m + 1)] for x in range(m + 1)])


def test_a_probed_neutral_candidate_is_checked_in_full():
    S = _inflated_group(23)
    probe = spread(S.n, groups._NEUTRAL_PROBES)
    assert S.n - 1 not in probe  # so 0 passes the probe
    assert (S.table[0, probe] == probe).all() and (S.table[probe, 0] == probe).all()
    with pytest.raises(NotAGroupError, match="^no neutral element in the table$") as err:
        group_view(S)
    assert err.value.witness == 0


def _two_sided_inverses(S, e) -> dict[int, int]:
    """For each element, the least j with g j = j g = e."""
    t = table_of(S)
    return {g: next(j for j in range(S.n) if t[g][j] == e == t[j][g]) for g in range(S.n)}


@pytest.mark.parametrize(
    "S",
    [
        zoo.make_cyclic(1),
        zoo.make_cyclic(7),
        zoo.make_sym(4),
        zoo.make_alt(4),
        zoo.make_heisenberg(3),
        direct_product(zoo.make_sym(3), zoo.make_dihedral(4)),
        zoo.make_dihedral(150),  # 300 elements, stored as uint16
    ],
    ids=["Z1", "Z7", "S4", "A4", "H3", "S3xD8", "D300"],
)
def test_group_view_inverses_are_two_sided(S):
    G = group_view(S)
    assert G.inverse == _two_sided_inverses(S, G.identity)


def test_minimal_generating_subset_z6():
    S = zoo.make_cyclic(6)
    G = group_view(S)
    got = minimal_generating_subset(G, [1, 2, 3])
    # oracle: greedy drop in ascending order, checking closures by brute force
    assert set(got) == {1}


def test_minimal_generating_subset_identity_only():
    S = zoo.make_cyclic(5)
    G = group_view(S)
    got = minimal_generating_subset(G, [0])
    assert set(got) == {0}


def test_minimal_generating_subset_klein():
    S = zoo.make_abelian([2, 2])
    G = group_view(S)
    got = minimal_generating_subset(G, [1, 2, 3])
    assert len(got) == 2 == math.log2(4)
    assert subgroup_closure(G, list(got)).cardinality == 4


def test_minimal_generating_subset_log_bound(zoo_small):
    for name, (S, gens, _) in zoo_small.items():
        try:
            G = group_view(S)
        except NotAGroupError:
            continue
        got = minimal_generating_subset(G, gens)
        span = subgroup_closure(G, gens)
        assert subgroup_closure(G, list(got)) == span, name
        assert len(got) <= math.log2(span.cardinality) or span.cardinality == 1, name


def test_normal_closure_abelian_empty():
    S = zoo.make_cyclic(8)
    G = group_view(S)
    xi, log = normal_closure_set(G, [2], [1])
    assert not xi and not log


def test_normal_closure_of_nothing_is_empty():
    S, swap, cycle = _s3()
    G = group_view(S)
    Q = quotient_group(G, subgroup_closure(G, [cycle]))
    for quotient in (None, Q):
        xi, log = normal_closure_set(G, [], [swap, cycle], quotient=quotient)
        assert xi == ElementSet.from_indices(6, []) and log == []


def test_normal_closure_s3_transposition():
    S, swap, cycle = _s3()
    G = group_view(S)
    xi, log = normal_closure_set(G, [swap], [swap, cycle])
    # oracle: the normal closure of a transposition is all of S3
    members = subgroup_closure(G, [swap] + list(xi))
    assert members.cardinality == 6
    for step in log:
        assert G.conjugate(step.g, step.h) == step.value


def test_normal_closure_a3_already_normal():
    S, swap, cycle = _s3()
    G = group_view(S)
    xi, log = normal_closure_set(G, [cycle], [swap, cycle])
    assert not xi
    assert subgroup_closure(G, [cycle]).cardinality == 3


def test_normal_closure_conjugation_stable(zoo_small):
    import random

    rng = random.Random(5)
    for name, (S, gens, _) in zoo_small.items():
        try:
            G = group_view(S)
        except NotAGroupError:
            continue
        delta = [rng.choice(range(S.n))]
        xi, _ = normal_closure_set(G, delta, gens)
        members = subgroup_closure(G, delta + list(xi))
        for g in list(members)[:20]:
            for h in gens:
                assert G.conjugate(g, h) in members, name


def test_derived_series_s3():
    S, swap, cycle = _s3()
    G = group_view(S)
    chain = derived_series(G)
    sizes = [t.cardinality for t in chain.terms]
    assert sizes == [6, 3, 1]
    # oracle: brute-force commutators of S3 generate A3
    table = table_of(S)
    inv = {g: G.inverse[g] for g in range(6)}
    comms = {
        table[table[table[inv[a]][inv[b]]][a]][b] for a in range(6) for b in range(6)
    }
    assert py_closure(table, comms) == set(chain.terms[1])


def _py_derived_series(G, table):
    """Reference: every commutator pair in plain Python, closed by py_closure."""
    terms = [set(G.carrier)]
    while True:
        cur = terms[-1]
        comms = {
            table[table[table[G.inverse[g]][G.inverse[h]]][g]][h] for g in cur for h in cur
        }
        nxt = py_closure(table, comms)
        if nxt == cur:
            return terms
        terms.append(nxt)
        if len(nxt) == 1:
            return terms


@pytest.mark.parametrize(
    "S", [zoo.make_dihedral(150), zoo.make_heisenberg(7)], ids=["D150", "H7"]
)
def test_derived_series_past_one_commutator_block(S):
    # both groups have more elements than one block of commutator rows
    G = group_view(S)
    expected = _py_derived_series(G, table_of(S))
    assert [set(t) for t in derived_series(G).terms] == expected
    assert len(expected) == 3


def _all_pairs_derived_series(G):
    """Reference: each term closes every commutator pair of the one before,
    the construction derived_series used before it took normal closures;
    the closure is the python oracle's."""
    table, rows = G.base.table, table_of(G.base)
    terms = [set(G.carrier)]
    while True:
        mem = np.asarray(sorted(terms[-1]), dtype=np.int64)
        inv = np.asarray([G.inverse[int(g)] for g in mem], dtype=np.int64)
        comms = table[table[table[inv[:, None], inv], mem[:, None]], mem]
        nxt = py_closure(rows, np.unique(comms).tolist())
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)
        if len(nxt) == 1:
            return terms


ZOO_GROUPS = [
    ("cyclic", [1]), ("cyclic", [12]), ("abelian", [2, 6, 4]), ("abelian", [32, 32]),
    ("dihedral", [4]), ("dihedral", [8]), ("dihedral", [75]), ("dihedral", [256]),
    ("heisenberg", [3]), ("heisenberg", [5]), ("heisenberg", [7]),
    ("sym", [3]), ("sym", [4]), ("sym", [5]), ("alt", [4]), ("alt", [5]),
]


@pytest.mark.parametrize("family,params", ZOO_GROUPS, ids=[f"{f}{p}" for f, p in ZOO_GROUPS])
def test_derived_series_matches_all_commutator_pairs(family, params):
    S, _, _ = zoo.build_family(family, params)
    G = group_view(S)
    assert [set(t) for t in derived_series(G).terms] == _all_pairs_derived_series(G)


def test_derived_series_of_a_direct_product_matches_all_commutator_pairs():
    # no zoo family builds a direct product of two non-abelian groups
    G = group_view(direct_product(zoo.make_sym(3), zoo.make_sym(4)))
    chain = derived_series(G)
    assert [t.cardinality for t in chain.terms] == [144, 36, 4, 1]
    assert [set(t) for t in chain.terms] == _all_pairs_derived_series(G)


def test_derived_series_abelian():
    G = group_view(zoo.make_abelian([4, 3]))
    chain = derived_series(G)
    assert [t.cardinality for t in chain.terms] == [12, 1]


def test_derived_series_a5_stabilises():
    G = group_view(zoo.make_alt(5))
    chain = derived_series(G)
    assert [t.cardinality for t in chain.terms] == [60]
    assert not chain.is_trivial_terminal


def test_derived_terms_normal_in_whole_group(zoo_small):
    for name, (S, gens, _) in zoo_small.items():
        try:
            G = group_view(S)
        except NotAGroupError:
            continue
        chain = derived_series(G)
        for term in chain.terms[1:]:
            for g in term:
                for h in range(S.n):
                    assert G.conjugate(g, h) in term, name


def test_quotient_by_whole_group():
    G = group_view(zoo.make_dihedral(4))
    Q = quotient_group(G, G.carrier)
    assert Q.semigroup.n == 1


def test_quotient_s3_by_a3():
    S, swap, cycle = _s3()
    G = group_view(S)
    a3 = subgroup_closure(G, [cycle])
    Q = quotient_group(G, a3)
    assert Q.semigroup.n == 2
    assert Q.projection[swap] != Q.projection[cycle]
    # projection is a homomorphism (exhaustive)
    for a in range(6):
        for b in range(6):
            assert (
                Q.projection[int(S.table[a, b])]
                == Q.semigroup.table[Q.projection[a], Q.projection[b]]
            )
    # section composed with projection is the identity on the quotient
    for q in range(Q.semigroup.n):
        assert Q.projection[Q.section[q]] == q


def test_quotient_not_normal():
    S, swap, cycle = _s3()
    G = group_view(S)
    sub = subgroup_closure(G, [swap])
    with pytest.raises(NotNormalError):
        quotient_group(G, sub)


def test_is_adapted():
    S, swap, cycle = _s3()
    G = group_view(S)
    chain = derived_series(G)
    assert is_adapted(G, [swap, cycle], chain)
    assert not is_adapted(G, [swap], chain)
    # two transpositions generate S3 but meet A3 nowhere; the identity alone
    # lies in A3 but does not generate it
    other_swap = zoo.perm_index(3, (0, 2, 1))
    assert not is_adapted(G, [swap, other_swap], chain)
    assert G.identity == 0 and not is_adapted(G, [0, swap, other_swap], chain)


def test_quotient_needs_a_subgroup():
    S, swap, cycle = _s3()
    G = group_view(S)
    with pytest.raises(NotAGroupError, match="does not contain the identity") as err:
        quotient_group(G, ElementSet.from_indices(6, [swap]))
    assert err.value.witness == G.identity
    with pytest.raises(NotAGroupError, match="not product-closed") as err:
        quotient_group(G, ElementSet.from_indices(6, [G.identity, cycle]))
    assert err.value.witness == G.inverse[cycle]


@pytest.mark.parametrize("family,params", [("sym", [4]), ("dihedral", [4]), ("heisenberg", [3])])
def test_quotient_by_each_cyclic_subgroup_matches_cosets(family, params):
    S, _, _ = zoo.build_family(family, params)
    G = group_view(S)
    t = table_of(S)
    for x in range(S.n):
        N = sorted(py_closure(t, [x]))
        escaped = [
            (g, h) for h in range(S.n) for g in N if t[t[G.inverse[h]][g]][h] not in N
        ]
        if escaped:
            with pytest.raises(NotNormalError) as err:
                quotient_group(G, ElementSet.from_indices(S.n, N))
            assert err.value.witness == escaped[0], x
            continue
        Q = quotient_group(G, ElementSet.from_indices(S.n, N))
        cosets = sorted({min(t[a][g] for g in N) for a in range(S.n)})
        assert Q.section == cosets, x
        for a in range(S.n):
            assert cosets[Q.projection[a]] == min(t[a][g] for g in N), (x, a)
            for b in range(S.n):
                assert Q.semigroup.table[Q.projection[a], Q.projection[b]] == Q.projection[t[a][b]]


def test_group_view_builds_once_and_stores_no_failure(monkeypatch):
    import slpforge.groups as groups_mod

    builds = []
    parts = groups_mod._group_parts
    monkeypatch.setattr(groups_mod, "_group_parts", lambda S: builds.append(S) or parts(S))
    S = zoo.make_dihedral(4)
    first, second = group_view(S), group_view(S)
    assert len(builds) == 1
    assert (first.identity, first.inverse) == (second.identity, second.inverse)
    assert first.order == S.n and first.carrier == ElementSet.full(S.n)

    w = zoo.make_obstruction_witness("LRB", 2)
    for _ in range(2):
        with pytest.raises(NotAGroupError):
            group_view(w.semigroup)
    assert len(builds) == 3
    assert ("group_view",) not in w.semigroup._memo


@pytest.mark.parametrize("name", ["S4", "D8"])
def test_normal_closure_modulo_the_derived_subgroup(zoo_small, name):
    S, sigma, _ = zoo_small[name]
    G = group_view(S)
    Q = quotient_group(G, derived_series(G).terms[1])
    proj = Q.projection
    assert not proj.flags.writeable and proj.dtype == np.int64
    for x in range(S.n):
        xi, log = normal_closure_set(G, [x], sigma, quotient=Q)
        known = {x}
        for step in log:
            # every logged value is a genuine conjugate g^h in G
            assert step.g in known and step.h in sigma, (x, step)
            assert step.value == int(S.table[G.inverse[step.h], S.table[step.g, step.h]])
            known.add(step.value)
        assert set(xi) == known - {x}
        # the span grown modulo G' is the image of the normal closure in G
        xi_g, _ = normal_closure_set(G, [x], sigma)
        in_g = subgroup_closure(G, [x] + list(xi_g))
        span = subgroup_closure(Q.group, proj[[x] + list(xi)].tolist())
        assert span == ElementSet.from_indices(Q.semigroup.n, proj[in_g.mask]), x
