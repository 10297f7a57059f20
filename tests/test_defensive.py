"""The guards in ``src/`` that no input reaches, each forced once.

Every check here guards an invariant that the code before it already
establishes (a construction, a verified decomposition, a generating set),
so no real input runs it.  Each test breaks the invariant through a
monkeypatched helper or a tampered intermediate value and asserts the error
the guard raises, so a guard that stops firing, or starts raising another
class, shows up here.
"""

import dataclasses
import importlib

import numpy as np
import pytest

import slpforge.slp as slp_mod
from slpforge import zoo
from slpforge.classify import classify
from slpforge.compressors import (
    adapt_subnormal,
    adapted_levels,
    bands,
    build_derived_adapted_set,
    build_polycyclic_set,
    class_generators,
    compress_general,
    compress_normal_band,
    compress_permutative,
    general,
    minimize_exponents,
    nilpotent_peel,
    peel,
    permutative,
    reachability,
    solvable,
    start_cube,
    word_program,
)
from slpforge.compressors.permutative import PermNormalForm
from slpforge.decomposition import band_of_groups_decomposition
from slpforge.errors import (
    ChainVerificationFailedError,
    DecompositionFailedError,
    HNotCongruenceError,
    InvalidProgramError,
    NotEligibleError,
    SlpforgeError,
    UnreachableError,
)
from slpforge.groups import SeriesChain, derived_series, group_view, subgroup_closure
from slpforge.sets import ElementSet
from slpforge.slp import EvalTrace, InverseMirror, SlpBuilder

classify_mod = importlib.import_module("slpforge.classify")
decomposition_mod = importlib.import_module("slpforge.decomposition")


def _s3():
    G = group_view(zoo.make_sym(3))
    return G, [zoo.perm_index(3, (1, 0, 2)), zoo.perm_index(3, (1, 2, 0))]


# -- slp.py --------------------------------------------------------------------


def test_inverse_mirror_needs_every_generator_over_the_minimal_subset(monkeypatch):
    G = group_view(zoo.make_dihedral(4))
    mirror = InverseMirror(G, (1, 4, 5))  # 5 = flip * rotation is not in sigma_min
    assert 5 not in mirror.inv_reg
    monkeypatch.setattr(slp_mod, "shortest_word", lambda *args: None)
    with pytest.raises(InvalidProgramError, match="generator 5 not expressible"):
        mirror.feed([("L", 0, 2)])


# -- zoo.py: the constructions' self-checks --------------------------------------


def test_obstruction_witness_size_check(monkeypatch):
    Z2 = zoo.make_cyclic(2)
    monkeypatch.setattr(zoo, "_verify_obstruction", lambda *args: None)
    monkeypatch.setattr(zoo, "validate_table", lambda table, **kwargs: Z2)
    with pytest.raises(SlpforgeError, match="witness size 2 != expected 6"):
        zoo.make_obstruction_witness("LRB", 3)


def test_obstruction_intervals_are_products_of_their_letters():
    w = zoo.make_obstruction_witness("LRB", 3)
    index, _ = zoo._interval_index(3)
    index[(1, 2)] = index[(1, 3)]
    with pytest.raises(SlpforgeError, match=r"interval \(1,2\) is not the product"):
        zoo._verify_obstruction(w.semigroup, "LRB", 3, w.generators, index)


def test_obstruction_unit_intervals_generate(monkeypatch):
    monkeypatch.setattr(zoo, "cached_closure", lambda S, gens: ElementSet.from_indices(S.n, gens))
    with pytest.raises(SlpforgeError, match="unit intervals do not generate"):
        zoo.make_obstruction_witness("LRB", 3)


@pytest.mark.parametrize(
    "table_of, variant, message",
    [("RRB", "LRB", "LRB absorption"), ("LRB", "RRB", "RRB absorption"), ("LRB", "T", "T annihilation")],
)
def test_obstruction_defining_relations(table_of, variant, message):
    # consecutive letters multiply alike in the three models, so only the
    # relations on non-consecutive letters tell a table of another variant
    w = zoo.make_obstruction_witness(table_of, 3)
    index, _ = zoo._interval_index(3)
    with pytest.raises(SlpforgeError, match=message):
        zoo._verify_obstruction(w.semigroup, variant, 3, w.generators, index)


def test_u_witness_size_check(monkeypatch):
    Z3 = zoo.make_cyclic(3)
    monkeypatch.setattr(zoo, "validate_table", lambda table, **kwargs: Z3)
    with pytest.raises(SlpforgeError, match="u-witness size mismatch"):
        zoo.make_u_witness(2)


def test_nilpotent_extension_ideal_check(monkeypatch):
    monkeypatch.setattr(zoo, "ideal_power", lambda T, k: ElementSet.full(T.n))
    with pytest.raises(SlpforgeError, match="T\\^k escapes the embedded part"):
        zoo.build_family("nilpotent-rb", [1, 1, 2, 2])


# -- decomposition.py and classify.py --------------------------------------------


def test_h_classes_hold_their_idempotent_powers(monkeypatch):
    # singleton classes: 1 in Z3 is not in the class of its idempotent power 0
    monkeypatch.setattr(decomposition_mod, "_row_classes", lambda packed: np.arange(packed.shape[0]))
    with pytest.raises(HNotCongruenceError, match="misses its idempotent power"):
        band_of_groups_decomposition(zoo.make_cyclic(3))


def test_one_idempotent_per_h_class(monkeypatch):
    # one class over RB(1, 2), whose two elements are idempotents
    monkeypatch.setattr(decomposition_mod, "_row_classes", lambda packed: np.zeros(packed.shape[0], dtype=int))
    with pytest.raises(HNotCongruenceError, match="more idempotents than the 1 H-classes"):
        band_of_groups_decomposition(zoo.make_rectangular_band(1, 2))


def test_classify_reports_an_unknown_solvability_flag(monkeypatch):
    def fails(S):
        raise SlpforgeError("no subgroup view")

    monkeypatch.setattr(classify_mod, "maximal_subgroups_solvable", fails)
    assert classify(zoo.make_cyclic(4), [1]).groups_solvable is None


# -- compressors/bands.py ----------------------------------------------------------


def _rb_x_z3():
    S, gens, _ = zoo.build_family("rb-x-cyclic", [1, 2, 3])  # two classes, each Z3
    return S, gens


def test_class_generators_stay_in_their_class():
    S, gens = _rb_x_z3()
    dec = band_of_groups_decomposition(S)
    empty = dataclasses.replace(dec, carriers=[ElementSet.from_indices(S.n, [])] * dec.class_count)
    with pytest.raises(SlpforgeError, match="escaped its class"):
        class_generators(S, empty, gens, 0)


def test_band_lift_lands_in_the_target_class(monkeypatch):
    S, gens = _rb_x_z3()
    monkeypatch.setattr(bands, "compress_permutative", lambda B, bgens, alpha, kstar: word_program([1 - alpha]))
    with pytest.raises(SlpforgeError, match="landed in the wrong class"):
        compress_normal_band(S, gens, 0)


def test_class_generators_generate_the_class_group(monkeypatch):
    S, gens = _rb_x_z3()
    monkeypatch.setattr(bands, "cached_closure", lambda S, vals: ElementSet.from_indices(S.n, []))
    with pytest.raises(SlpforgeError, match="do not generate the class group"):
        compress_normal_band(S, gens, 0)


@pytest.mark.parametrize("mode", ["wide", "narrow"])
def test_band_splice_checks_its_value(monkeypatch, mode):
    S, gens = _rb_x_z3()
    routes = bands.GROUP_STRATEGIES
    for route, run in list(routes.items()):
        monkeypatch.setitem(routes, route, lambda G, sigma, t, run=run: run(G, sigma, (t + 1) % G.order))
    with pytest.raises(DecompositionFailedError, match="band splice produced a wrong value"):
        compress_normal_band(S, gens, 1, mode)


# -- compressors/general.py and peel.py ----------------------------------------------


def _nilpotent_rb():
    S, gens, _ = zoo.build_family("nilpotent-rb", [1, 1, 2, 2])
    assert compress_general(S, gens, 2).left is not None  # target 2 takes the three-way split
    return S, gens


def test_sandwich_target_is_generated_inside_the_ideal(monkeypatch):
    S, gens = _nilpotent_rb()
    monkeypatch.setattr(general, "shortest_word", lambda *args: None)
    with pytest.raises(UnreachableError, match="not generated inside the ideal"):
        compress_general(S, gens, 2)


def test_leaf_substitution_keeps_the_target(monkeypatch):
    S, gens = _nilpotent_rb()
    monkeypatch.setattr(general, "evaluate", lambda S, prog: EvalTrace({}, -1))
    with pytest.raises(NotEligibleError, match="leaf substitution changed the target"):
        compress_general(S, gens, 2)


def test_peel_short_words_stay_outside_the_ideal(monkeypatch):
    w = zoo.make_obstruction_witness("T", 3)
    s1 = w.generators[0]  # outside S^2
    monkeypatch.setattr(peel, "shortest_word", lambda S, gens, t: [0, 0])
    with pytest.raises(SlpforgeError, match="word of length >= k"):
        nilpotent_peel(w.semigroup, w.generators, s1, 2, compress_permutative)


def test_peel_inner_program_loads_only_delta_values():
    # in T4, S^2 is every interval of two or more letters and zero; the short
    # words reach intervals of up to three letters, so [1, 4] is no delta value
    w = zoo.make_obstruction_witness("T", 4)
    full = zoo._interval_index(4)[0][(1, 4)]
    with pytest.raises(SlpforgeError, match=f"loads a value {full} outside delta"):
        nilpotent_peel(w.semigroup, w.generators, full, 2, lambda sub, delta, t: word_program([t]))


# -- compressors/permutative.py ------------------------------------------------------


def _reach_all(S, order, caps, base):
    return [np.ones(S.n + 1, dtype=bool) for _ in range(len(order) + 1)]


def test_exponent_search_stays_under_its_cap(monkeypatch):
    Z4 = zoo.make_cyclic(4)
    monkeypatch.setattr(
        permutative, "reach_sets",
        lambda S, order, caps, base: [np.ones(S.n + 1, dtype=bool)] + [np.zeros(S.n + 1, dtype=bool)] * len(order),
    )
    with pytest.raises(UnreachableError, match="overran its cap"):
        minimize_exponents(Z4, [], [1], [], 3)


def test_normal_form_evaluates_to_the_target(monkeypatch):
    monkeypatch.setattr(permutative, "reach_sets", _reach_all)
    with pytest.raises(UnreachableError, match="does not evaluate to the target"):
        minimize_exponents(zoo.make_cyclic(4), [1], [1], [], 3)


def test_normal_form_is_not_empty(monkeypatch):
    monkeypatch.setattr(permutative, "reach_sets", _reach_all)
    with pytest.raises(UnreachableError, match="empty normal form"):
        minimize_exponents(zoo.make_cyclic(4), [], [1], [], 3)


def test_a_normal_form_without_powers_is_its_word(monkeypatch):
    # a word longer than 2 k* always keeps a power: prefix and suffix alone
    # would be a shorter word for the target
    monkeypatch.setattr(permutative, "minimize_exponents", lambda S, p, order, s, t: PermNormalForm(p, [], [], s))
    assert compress_permutative(zoo.make_cyclic(8), [1], 5, kstar=1) == word_program([1, 1])


# -- compressors/solvable.py and reachability.py ---------------------------------


def test_chain_walk_keeps_the_residual_in_its_term():
    G, sigma = _s3()
    levels = adapted_levels(G, sigma, derived_series(G))
    b, held = SlpBuilder(), {}
    for s in sigma:
        held[s] = b.fresh()
        b.load(held[s], s)
    with pytest.raises(SlpforgeError, match="residual target escaped its chain term"):
        adapt_subnormal(G, levels[1:], sigma[0], b, held)  # a transposition, outside A3


def test_chain_walk_exhausts_the_target():
    G = group_view(zoo.make_cyclic(4))
    levels = adapted_levels(G, [1], derived_series(G))
    b = SlpBuilder()
    held = {1: b.fresh()}
    b.load(held[1], 1)
    adapt_subnormal(G, levels, 3, b, held)
    nf, _ = levels[0].lifts[3]
    levels[0].lifts[3] = (nf, 1)  # a lift with the wrong value
    with pytest.raises(SlpforgeError, match="chain walk did not exhaust the target"):
        adapt_subnormal(G, levels, 3, b, held)


def test_derived_generators_reach_their_term(monkeypatch):
    G, sigma = _s3()
    monkeypatch.setattr(solvable, "commutators", lambda G, vals: np.full(len(vals) ** 2, G.identity))
    with pytest.raises(SlpforgeError, match="level 1 generators miss their derived term"):
        build_derived_adapted_set(G, sigma, derived_series(G))


def test_polycyclic_layers_stay_in_their_derived_term(monkeypatch):
    G, sigma = _s3()
    monkeypatch.setattr(solvable, "derived_series", lambda G: SeriesChain([G.carrier, subgroup_closure(G, [])]))
    with pytest.raises(ChainVerificationFailedError, match="layer 1 value .* escapes the derived term"):
        build_polycyclic_set(G, sigma)


@pytest.mark.parametrize(
    "seed, message",
    # the records kept are a transposition, then a 3-cycle c: the chain is
    # S3 > A3 > seed; c does not normalise {e, (12)}, and |A3| is odd
    [([1], "not normalised by its record"), ([3], "non-Lagrangian chain step")],
)
def test_polycyclic_chain_is_normal_and_lagrangian(monkeypatch, seed, message):
    G, sigma = _s3()
    real = solvable.subgroup_closure
    fake = ElementSet.from_indices(G.order, [G.identity] + seed)
    monkeypatch.setattr(solvable, "subgroup_closure", lambda G, gens: real(G, gens) if gens else fake)
    with pytest.raises(ChainVerificationFailedError, match=message):
        build_polycyclic_set(G, sigma)


def test_cube_doubling_appends_only_new_values():
    G = group_view(zoo.make_dihedral(4))
    state = start_cube(G)
    state.values[1] = 1  # the escape 1 = identity * 1, listed as a cube value already
    with pytest.raises(AssertionError, match="failed to double"):
        reachability._double(G, [1, 4], state)
