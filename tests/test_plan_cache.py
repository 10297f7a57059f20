"""Target-independent structure memoised on a Semigroup must not change outputs.

Every check compares a table reused across targets with a fresh
``Semigroup(S.table)`` per target: the two must emit identical .slp bytes (or
raise the same error class when the strategy does not apply).
"""

import random

import pytest

from slpforge import zoo
from slpforge.compressors import compress
from slpforge.errors import SlpforgeError
from slpforge.io import dump_slp
from slpforge.semigroup import Semigroup, closure

# the abelian table is the one instance on which ``permutative`` applies
INSTANCES = [("dihedral", (8,)), ("dihedral", (16,)), ("heisenberg", (3,)), ("abelian", (2, 4, 4))]
STRATEGIES = ("group-solvable", "group-solvable-bw", "group-bsz", "permutative", "auto")


def _answer(S, gens, t, strategy) -> str:
    try:
        return dump_slp(compress(S, gens, t, strategy).slp)
    except SlpforgeError as exc:
        return type(exc).__name__


def _fresh(S, gens, t, strategy) -> str:
    return _answer(Semigroup(S.table), gens, t, strategy)


def _instance(family, params):
    S, gens, _ = zoo.build_family(family, params)
    return S, gens


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("family,params", INSTANCES)
def test_reused_table_matches_fresh_in_shuffled_order(family, params, strategy):
    S, gens = _instance(family, params)
    targets = sorted(closure(S, gens))
    random.Random(f"{family}{params}{strategy}").shuffle(targets)
    for t in targets:
        assert _answer(S, gens, t, strategy) == _fresh(S, gens, t, strategy), t


@pytest.mark.parametrize("family,params", INSTANCES)
def test_cube_prefix_in_both_orders_of_rounds(family, params):
    S, gens = _instance(family, params)
    fresh = {t: compress(Semigroup(S.table), gens, t, "group-bsz") for t in closure(S, gens)}
    rounds = {t: report.extras["rounds"] for t, report in fresh.items()}
    assert len(set(rounds.values())) > 2
    for descending in (False, True):
        reused = Semigroup(S.table)
        for t in sorted(rounds, key=lambda t: (rounds[t], t), reverse=descending):
            report = compress(reused, gens, t, "group-bsz")
            assert report.extras["rounds"] == rounds[t], t
            assert dump_slp(report.slp) == dump_slp(fresh[t].slp), (descending, t)


@pytest.mark.parametrize("family,params", INSTANCES)
def test_generator_sets_do_not_share_entries(family, params):
    S, gens = _instance(family, params)
    subgroup_gens = gens[:1]
    generating_sets = [gens, list(reversed(gens)), subgroup_gens]
    assert closure(S, subgroup_gens).cardinality < S.n
    for strategy in STRATEGIES:
        for sigma in generating_sets:
            targets = sorted(closure(S, sigma))
            for t in random.Random(strategy).sample(targets, min(6, len(targets))):
                assert _answer(S, sigma, t, strategy) == _fresh(S, sigma, t, strategy), (sigma, t)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("family,params", INSTANCES)
def test_repeated_target_is_unchanged(family, params, strategy):
    S, gens = _instance(family, params)
    members = sorted(closure(S, gens))
    t1, t2 = members[-1], members[len(members) // 2]
    first = _answer(S, gens, t1, strategy)
    _answer(S, gens, t2, strategy)
    assert _answer(S, gens, t1, strategy) == first == _fresh(S, gens, t1, strategy)
