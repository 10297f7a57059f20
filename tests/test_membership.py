import random

import pytest

from slpforge import zoo
from slpforge.compressors import compress
from slpforge.errors import BudgetExceededError, OutOfRangeError
from slpforge.membership import irredundancy, member_certified, member_oracle
from slpforge.semigroup import closure

from conftest import py_closure, table_of


def test_oracle_examples():
    Z5 = zoo.make_cyclic(5)
    assert member_oracle(Z5, [2], 1)        # closure of {2} is all of Z5
    w = zoo.make_obstruction_witness("LRB", 5)
    pruned = [g for g in w.generators if g != w.generators[2]]
    assert not member_oracle(w.semigroup, pruned, w.target)
    assert member_oracle(w.semigroup, w.generators, w.generators[0])


@pytest.mark.parametrize("offset", [-1, 0, 5])
def test_target_outside_the_table_is_a_typed_error(offset):
    D8, gens = zoo.make_dihedral(4), zoo.dihedral_generators(4)
    t = offset if offset < 0 else D8.n + offset
    assert t not in closure(D8, gens)
    for entry in (compress, member_oracle, member_certified, irredundancy):
        with pytest.raises(OutOfRangeError, match=f"target {t} outside"):
            entry(D8, gens, t)


def test_oracle_matches_python_closure(zoo_small):
    rng = random.Random(31)
    for name, (S, gens, _) in zoo_small.items():
        table = table_of(S)
        for _ in range(10):
            sub = rng.sample(range(S.n), rng.randrange(1, min(4, S.n) + 1))
            expect = py_closure(table, sub)
            t = rng.randrange(S.n)
            assert member_oracle(S, sub, t) == (t in expect), name


def test_certified_member_and_nonmember():
    S, gens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    ans = member_certified(S, gens, 5)
    assert ans.member and ans.certificate is not None
    Z6 = zoo.make_cyclic(6)
    ans = member_certified(Z6, [2], 1)
    assert not ans.member and ans.certificate is None


def test_certified_solvable_width():
    S = zoo.make_dihedral(8)
    gens = zoo.dihedral_generators(8)
    ans = member_certified(S, gens, 13)
    assert ans.member
    assert ans.report.strategy == "group-solvable-bw"
    assert ans.report.width <= 5


def test_irredundancy_obstructions():
    for variant in ("LRB", "RRB", "T"):
        w = zoo.make_obstruction_witness(variant, 6)
        necessary = irredundancy(w.semigroup, w.generators, w.target)
        assert necessary == set(w.generators), variant


def test_irredundancy_u_witness():
    w = zoo.make_u_witness(5)
    assert irredundancy(w.semigroup, w.generators, w.target) == set(w.generators)


def test_irredundancy_redundant_generators():
    Z6 = zoo.make_cyclic(6)
    # 1 and 5 each generate all of Z6, so neither is necessary for 3
    assert irredundancy(Z6, [1, 5], 3) == set()


def test_irredundancy_budget():
    Z6 = zoo.make_cyclic(6)
    with pytest.raises(BudgetExceededError):
        irredundancy(Z6, list(range(6)), 3, budget=2)
