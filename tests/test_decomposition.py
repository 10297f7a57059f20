import pytest

from slpforge import zoo
from slpforge.decomposition import band_of_groups_decomposition
from slpforge.errors import BandNotNormalError, NotCompletelyRegularError, SlpforgeError
from slpforge.semigroup import validate_table

from conftest import random_semigroups, table_of


def test_group_decomposes_trivially():
    G = zoo.make_dihedral(4)
    dec = band_of_groups_decomposition(G)
    assert dec.band.n == 1
    assert dec.carriers[0].cardinality == 8


def test_rb_times_z3():
    S, gens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    dec = band_of_groups_decomposition(S)
    assert dec.band.n == 4
    for alpha, carrier in enumerate(dec.carriers):
        assert carrier.cardinality == 3
        e = dec.idempotents[alpha]
        assert int(S.table[e, e]) == e
        for s in carrier:
            assert int(S.table[e, s]) == s and int(S.table[s, e]) == s
    # H-classes of the product are {(i,j)} x Z3: projections constant on them
    for x in range(S.n):
        assert dec.class_of(x) == dec.class_of(int(S.table[x, x]))


def test_product_lands_in_product_class():
    S, gens, _ = zoo.build_family("rb-x-cyclic", [2, 3, 4])
    dec = band_of_groups_decomposition(S)
    B = dec.band
    assert all(int(B.table[alpha, alpha]) == alpha for alpha in range(B.n))
    for a in range(S.n):
        for b in range(S.n):
            assert dec.class_of(int(S.table[a, b])) == int(
                B.table[dec.class_of(a), dec.class_of(b)]
            )


def test_lrb_witness_is_not_normal():
    # two letters are too few: the first-occurrence order is then forced, so
    # the band is normal; from three letters on uxyv = uyxv fails (x=b, y=c
    # behind u=a distinguish abc from acb)
    w2 = zoo.make_obstruction_witness("LRB", 2)
    band_of_groups_decomposition(w2.semigroup)
    w = zoo.make_obstruction_witness("LRB", 3)
    with pytest.raises(BandNotNormalError):
        band_of_groups_decomposition(w.semigroup)


def test_not_completely_regular_rejected():
    w = zoo.make_u_witness(3)
    with pytest.raises(NotCompletelyRegularError):
        band_of_groups_decomposition(w.semigroup)


def test_clifford_two_level():
    S, gens, _ = zoo.build_family("clifford-z4-z2", [])
    dec = band_of_groups_decomposition(S)
    assert dec.band.n == 2
    assert sorted(c.cardinality for c in dec.carriers) == [2, 4]


def _two_sided_downset(table, x) -> set[int]:
    """S^1 x S^1 over plain python lists: x, every a x, x b and a x b."""
    n = len(table)
    left = {x} | {table[a][x] for a in range(n)}
    return left | {table[y][b] for y in left for b in range(n)}


def test_j_below_matches_two_sided_ideal_reference(zoo_small):
    checked = []
    for name, (S, gens, _) in zoo_small.items():
        if not S.is_completely_regular():
            continue
        try:
            dec = band_of_groups_decomposition(S)
        except BandNotNormalError:
            continue
        table = table_of(S)
        candidates = list(gens) + [table[g1][g2] for g1 in gens for g2 in gens]
        for val in candidates:
            down = _two_sided_downset(table, val)
            for alpha in range(dec.class_count):
                expect = dec.idempotents[alpha] in down
                assert dec.j_below(alpha, val) == expect, (name, alpha, val)
        checked.append(name)
    assert {"RB(2,2)xZ3", "Clifford", "Sl2^4", "D8"} <= set(checked)


def test_class_idempotents_are_identities_of_their_classes(zoo_small):
    tables = [S for S, _, _ in zoo_small.values()] + random_semigroups(120, seed=13)
    decomposed = 0
    for S in tables:
        try:
            dec = band_of_groups_decomposition(S)
        except SlpforgeError:
            continue
        decomposed += 1
        assert len(dec.idempotents) == len(dec.carriers) == dec.band.n
        for e, carrier in zip(dec.idempotents, dec.carriers):
            assert int(S.table[e, e]) == e and e in carrier
            mem = carrier.to_array()
            assert (S.table[e, mem] == mem).all() and (S.table[mem, e] == mem).all()
    assert decomposed >= 10
