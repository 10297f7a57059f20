import itertools
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from slpforge import zoo
from slpforge.classify import Config, recommend
from slpforge.compressors import dispatch, peel, solvable
from slpforge.compressors.base import identity_program
from slpforge.compressors import (
    GROUP_STRATEGIES,
    STRATEGIES,
    adapt_subnormal,
    adapted_levels,
    build_cube,
    build_derived_adapted_set,
    build_polycyclic_set,
    compress,
    compress_bounded_diameter,
    compress_general,
    compress_group_reachability,
    compress_group_solvable,
    compress_group_solvable_bounded,
    compress_normal_band,
    compress_permutative,
    emit_delta_program,
    emit_from_cube,
    ideal_generators,
    minimize_exponents,
    nilpotent_peel,
    solvable_plan,
    word_program,
)
from slpforge.errors import (
    CompressorFailedError,
    DiameterExceededError,
    NotEligibleError,
    NotInSubgroupError,
    NotSolvableError,
    SlpforgeError,
    UnreachableError,
)
from slpforge.groups import derived_series, group_view, is_adapted, subgroup_closure
from slpforge.membership import member_certified
from slpforge.semigroup import Semigroup, closure, ideal_power, shortest_word, sub_semigroup, validate_table
from slpforge.slp import Slp, SlpBuilder, compact, eliminate_inverses, evaluate, fast_exp, verify

from conftest import py_shortest_words, random_semigroups, table_of


# -- bounded diameter ----------------------------------------------------------


def test_bounded_diameter_rb():
    R = zoo.make_rectangular_band(2, 3)
    gens = list(range(6))
    for t in range(6):
        slp = compress_bounded_diameter(R, gens, t, D=3)
        assert evaluate(R, slp).output_value == t
        assert slp.length <= 3 and slp.width <= 2


def test_bounded_diameter_exceeded():
    Z9 = zoo.make_cyclic(9)
    with pytest.raises(DiameterExceededError):
        compress_bounded_diameter(Z9, [1], 5, D=2)
    with pytest.raises(DiameterExceededError):
        compress_bounded_diameter(zoo.make_cyclic(6), [2], 1, D=10)


# -- permutative ----------------------------------------------------------------


def _brute_force_min_exponents(S, prefix, order, suffix, t, caps):
    best = None
    for exps in itertools.product(*[range(c + 1) for c in caps]):
        seq = list(prefix)
        for s, e in zip(order, exps):
            seq.extend([s] * e)
        seq.extend(suffix)
        if not seq:
            continue
        if S.word_value(seq) == t and (best is None or exps < best):
            best = exps
    return best


def test_minimize_exponents_matches_brute_force():
    cases = []
    Z8 = zoo.make_abelian([2, 2, 2])
    cases.append((Z8, [], [4, 2, 1], [], 7))
    cases.append((Z8, [], [4, 2, 1], [], 5))
    Z9 = zoo.make_cyclic(9)
    cases.append((Z9, [], [1], [], 7))
    sl = zoo.make_subset_semilattice(3).semigroup
    cases.append((sl, [], [0, 2], [], 2))      # {1} and {1,2}: lex prefers (0,1)
    S, gens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    cases.append((S, [gens[0]], [gens[1], gens[0]], [gens[1]], int(S.table[gens[0], gens[1]])))
    for S_, prefix, order, suffix, t in cases:
        caps = [int(S_.omega_exponents[s] + S_.periods[s] - 1) for s in order]
        expect = _brute_force_min_exponents(S_, prefix, order, suffix, t, caps)
        if expect is None:
            with pytest.raises(UnreachableError):
                minimize_exponents(S_, prefix, order, suffix, t)
            continue
        nf = minimize_exponents(S_, prefix, order, suffix, t)
        got = []
        i = 0
        for s in order:
            if i < len(nf.order) and nf.order[i] == s:
                got.append(nf.exponents[i])
                i += 1
            else:
                got.append(0)
        assert tuple(got) == expect, (S_.name, t)
        assert all(e >= 1 for e in nf.exponents)
        assert nf.value(S_) == t


def test_minimize_exponents_examples():
    Z8 = zoo.make_abelian([2, 2, 2])
    nf = minimize_exponents(Z8, [], [4, 2, 1], [], 7)
    assert nf.exponents == [1, 1, 1]
    Z9 = zoo.make_cyclic(9)
    nf = minimize_exponents(Z9, [], [1], [], 7)
    assert nf.exponents == [7]
    sl = zoo.make_subset_semilattice(3).semigroup
    # target {1,2} over order ({1}, {1,2}): lex minimum zeroes the first slot
    nf = minimize_exponents(sl, [], [0, 2], [], 2)
    assert nf.order == [2] and nf.exponents == [1]


def test_minimize_exponents_brute_force_sweep():
    rng = random.Random(17)
    structures = [
        zoo.make_cyclic(12),
        zoo.make_abelian([3, 3]),
        zoo.make_subset_semilattice(3).semigroup,
        zoo.make_rectangular_band(2, 3),
    ]
    for S in structures:
        assert S.n <= 40
        elems = list(range(S.n))
        for _ in range(30):
            m = rng.randrange(1, 4)
            order = rng.sample(elems, m)
            prefix = [rng.choice(elems)] if rng.random() < 0.5 else []
            suffix = [rng.choice(elems)] if rng.random() < 0.5 else []
            t = rng.choice(elems)
            caps = [int(S.omega_exponents[s] + S.periods[s] - 1) for s in order]
            expect = _brute_force_min_exponents(S, prefix, order, suffix, t, caps)
            if expect is None:
                with pytest.raises(UnreachableError):
                    minimize_exponents(S, prefix, order, suffix, t)
                continue
            nf = minimize_exponents(S, prefix, order, suffix, t)
            got, i = [], 0
            for s in order:
                if i < len(nf.order) and nf.order[i] == s:
                    got.append(nf.exponents[i])
                    i += 1
                else:
                    got.append(0)
            assert tuple(got) == expect


def test_permutative_width_two_families():
    cases = [
        (zoo.make_abelian([2] * 6), None),
        (zoo.make_abelian([3, 9]), None),
        (zoo.make_subset_semilattice(6).semigroup, zoo.make_subset_semilattice(6).generators),
    ]
    for S, gens in cases:
        if gens is None:
            gens = zoo._abelian_unit_generators([2] * 6 if S.n == 64 else [3, 9])
        for t in range(0, S.n, max(1, S.n // 17)):
            slp = compress_permutative(S, gens, t)
            assert evaluate(S, slp).output_value == t
            assert slp.width <= 2


def test_permutative_single_generator_reduces_to_fast_exp():
    Z1000 = zoo.make_cyclic(1000)
    slp = compress_permutative(Z1000, [1], 999)
    assert evaluate(Z1000, slp).output_value == 999
    assert slp.length <= 2 * math.floor(math.log2(999)) + 1 + 4
    assert slp.width == 2


def test_permutative_normal_band_level_one():
    S, gens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 9])
    for t in range(S.n):
        slp = compress_permutative(S, gens, t, kstar=1)
        assert evaluate(S, slp).output_value == t
        assert slp.width <= 2


# -- nilpotent peel -------------------------------------------------------------


def _extension_over_band():
    base = zoo.make_rectangular_band(2, 2)
    T, _ = zoo.make_nilpotent_extension(base, 2, [0, 3], 3)
    return T


def test_ideal_generators_cover():
    T = _extension_over_band()
    gens = [0, 1]
    delta = ideal_generators(T, gens, 3)
    sk = ideal_power(T, 3)
    vals = [v for v, _ in delta]
    assert closure(T, vals) == sk
    for v, w in delta:
        assert 1 <= len(w) <= 5
        assert T.word_value(w) == v


def test_nilpotent_peel_shallow_target():
    T = _extension_over_band()
    gens = [0, 1]
    sk = ideal_power(T, 3)
    outside = [t for t in range(T.n) if t not in sk and t in closure(T, gens)]
    for t in outside:
        slp = nilpotent_peel(T, gens, t, 3, lambda *a: None)
        assert evaluate(T, slp).output_value == t
        assert slp.length <= 2 * 3 - 3


def test_nilpotent_peel_deep_target_width():
    T = _extension_over_band()
    gens = [0, 1]
    sk = ideal_power(T, 3)

    def inner(sub, delta, t_sub):
        return compress_bounded_diameter(sub, delta, t_sub, D=sub.n)

    for t in closure(T, gens):
        if t not in sk:
            continue
        slp = nilpotent_peel(T, gens, t, 3, inner)
        assert evaluate(T, slp).output_value == t
        assert slp.width <= 3  # inner width 2 plus one shared scratch


# -- reachability ----------------------------------------------------------------


def test_cube_doubles_every_round():
    S = zoo.make_abelian([2] * 6)
    gens = zoo._abelian_unit_generators([2] * 6)
    G = group_view(S)
    t = S.n - 1
    state = build_cube(G, gens, t)
    prog = emit_from_cube(G, gens, state, t)
    assert len(state.order) == 2 ** state.rounds
    assert state.rounds == 6  # the cube is exactly the spanned subspace
    assert evaluate(S, prog, group=G).output_value == t
    assert prog.width <= state.rounds + 3


def test_reachability_a5():
    A5 = zoo.make_alt(5)
    gens = zoo._alt_generators(5)
    G = group_view(A5)
    rng = random.Random(3)
    for t in rng.sample(range(60), 12):
        state = build_cube(G, gens, t)
        prog = emit_from_cube(G, gens, state, t)
        assert state.rounds <= math.ceil(math.log2(60))
        assert evaluate(A5, prog, group=G).output_value == t
        plain = compress_group_reachability(G, gens, t)
        assert plain == eliminate_inverses(G, prog)
        assert evaluate(A5, plain).output_value == t


def test_reachability_outside_subgroup():
    S4 = zoo.make_sym(4)
    G = group_view(S4)
    # <(12)> has order 2; pick a target outside
    swap = zoo.perm_index(4, (1, 0, 2, 3))
    cycle = zoo.perm_index(4, (1, 2, 3, 0))
    with pytest.raises(NotInSubgroupError):
        compress_group_reachability(G, [swap], cycle)


def test_reachability_identity_target():
    Z6 = zoo.make_cyclic(6)
    G = group_view(Z6)
    prog = compress_group_reachability(G, [1], 0)
    assert evaluate(Z6, prog).output_value == 0


# -- adapted series / solvable ----------------------------------------------------


def test_adapt_subnormal_s3():
    S = zoo.make_sym(3)
    G = group_view(S)
    swap = zoo.perm_index(3, (1, 0, 2))
    cycle = zoo.perm_index(3, (1, 2, 0))
    chain = derived_series(G)
    levels = adapted_levels(G, [swap, cycle], chain)
    for t in range(6):
        # the walk reads the generators from registers the caller filled
        b = SlpBuilder()
        held = {g: b.fresh() for g in (swap, cycle)}
        for g, r in held.items():
            b.load(r, g)
        out = adapt_subnormal(G, levels, t, b, held)
        if t == G.identity:
            # no level writes it: the builders return ``identity_program``
            assert out is None
            continue
        assert evaluate(S, b.finish(out)).output_value == t


def test_adapt_subnormal_rejects_unadapted():
    S = zoo.make_sym(3)
    G = group_view(S)
    swap = zoo.perm_index(3, (1, 0, 2))
    chain = derived_series(G)
    from slpforge.errors import NotAdaptedError

    with pytest.raises(NotAdaptedError):
        adapted_levels(G, [swap], chain)


def test_derived_adapted_set_levels():
    S = zoo.make_sym(4)
    G = group_view(S)
    gens = [zoo.perm_index(4, (1, 0, 2, 3)), zoo.perm_index(4, (1, 2, 3, 0))]
    chain = derived_series(G)
    assert len(chain.terms) == 4        # S4 > A4 > V4 > 1
    delta = build_derived_adapted_set(G, gens, chain)
    assert is_adapted(G, delta.values, chain)
    # adaptedness per level, stated as closure equality
    for i, term in enumerate(chain.terms[:-1]):
        part = [v for v in delta.values if v in term]
        assert subgroup_closure(G, part) == term, i
    # every record value is rederivable from its provenance
    reg = {}
    for rec in delta.records:
        if rec.kind == "gen":
            val = rec.value
        elif rec.kind == "conj":
            val = G.conjugate(rec.g, rec.h)
        else:
            val = G.commutator(rec.g, rec.h)
        assert val == rec.value
        reg[rec.value] = val


def test_delta_program_computes_all_records():
    S = zoo.make_heisenberg(3)
    G = group_view(S)
    gens = zoo.heisenberg_generators(3)
    plan = solvable_plan(G, gens)
    program = plan.builder.finish(0)
    assert not any(ins[0] == "I" for ins in program.instructions)
    trace = evaluate(S, program)
    for rec in plan.delta.records:
        assert rec.value in trace.registers.values()


def test_solvable_not_solvable():
    A5 = zoo.make_alt(5)
    G = group_view(A5)
    with pytest.raises(NotSolvableError):
        compress_group_solvable(G, zoo._alt_generators(5), 1)
    with pytest.raises(NotSolvableError):
        compress_group_solvable_bounded(G, zoo._alt_generators(5), 1)


def test_solvable_heisenberg_adapted_per_level():
    S = zoo.make_heisenberg(3)
    G = group_view(S)
    gens = zoo.heisenberg_generators(3)
    chain = derived_series(G)
    delta = build_derived_adapted_set(G, gens, chain)
    for i in range(len(chain.terms) - 1):
        part = [v for v in delta.values if v in chain.terms[i]]
        assert subgroup_closure(G, part) == chain.terms[i]


def test_polycyclic_set_dihedral():
    S = zoo.make_dihedral(4)
    G = group_view(S)
    pcs = build_polycyclic_set(G, zoo.dihedral_generators(4))
    # chain descends with cyclic quotients down to the trivial subgroup
    sizes = [t.cardinality for t in pcs.chain.terms]
    assert sizes[0] == 8 and sizes[-1] == 1
    for a, b in zip(sizes, sizes[1:]):
        assert a % b == 0 and a > b
    # commutator layer lands inside <r^2>
    r, f = zoo.dihedral_generators(4)
    r2 = int(S.table[r, r])
    layer1 = [rec for rec in pcs.records if rec.layer == 1]
    sub = subgroup_closure(G, [r2])
    for rec in layer1:
        assert rec.value in sub


def test_polycyclic_layers_in_derived_terms(zoo_small):
    for name, (S, gens, _) in zoo_small.items():
        try:
            G = group_view(S)
        except Exception:
            continue
        chain = derived_series(G)
        if not chain.is_trivial_terminal:
            continue
        pcs = build_polycyclic_set(G, gens)
        for rec in pcs.records:
            if rec.layer < len(chain.terms):
                assert rec.value in chain.terms[rec.layer], name
        # provenance reproduces every record value
        for rec in pcs.records:
            if rec.layer == 0:
                val = rec.base
                for h in rec.u_word:
                    pass
                hval = G.identity
                for letter in rec.u_word:
                    hval = int(S.table[hval, letter])
                assert rec.value == G.conjugate(rec.base, hval), name
            else:
                parent = pcs.records[rec.parent]
                vval = G.identity
                for letter in rec.v_word:
                    vval = int(S.table[vval, letter])
                uval = G.identity
                for letter in rec.u_word:
                    uval = int(S.table[uval, letter])
                gt = G.conjugate(parent.value, vval)
                comm = G.commutator(parent.value, gt)
                assert rec.value == G.conjugate(comm, uval), name


def test_solvable_bounded_width_and_value():
    cases = [
        (zoo.make_dihedral(8), zoo.dihedral_generators(8)),
        (zoo.make_heisenberg(3), zoo.heisenberg_generators(3)),
        (zoo.make_sym(4), [zoo.perm_index(4, (1, 0, 2, 3)), zoo.perm_index(4, (1, 2, 3, 0))]),
    ]
    for S, gens in cases:
        G = group_view(S)
        for t in range(S.n):
            slp = compress_group_solvable_bounded(G, gens, t)
            assert evaluate(S, slp).output_value == t, (S.name, t)
            assert slp.width <= 5
            assert not any(ins[0] == "I" for ins in slp.instructions)


@pytest.mark.parametrize("family,n", [("sym", 3), ("alt", 4), ("sym", 4)], ids=["S3", "A4", "S4"])
def test_solvable_bounded_on_every_generating_pair(family, n):
    # a generator that already lies in G' must still start a layer-1 record,
    # or the pruned chain skips a derived term and a step is not normal
    S = zoo.make_group(family, [n])
    pairs = [
        [a, b] for a, b in itertools.permutations(range(S.n), 2)
        if closure(S, [a, b]).cardinality == S.n
    ]
    assert pairs
    for gens in pairs:
        for t in range(S.n):
            rep = compress(S, gens, t, "group-solvable-bw")
            assert rep.verified and rep.width <= 4, (gens, t)
            auto = compress(S, gens, t, "auto")
            assert auto.extras == {"classified": "group-solvable-bw"}, (gens, t)


# (group, generator lists): each builder's identity is the first generator
# to its order
IDENTITY_CASES = (
    (("sym", [3]), [[2, 3], [1, 2], [3, 1]]),
    (("sym", [4]), [[9, 6], [6, 9]]),
    (("dihedral", [8]), [[1, 8], [8, 1], [3, 9]]),
    (("heisenberg", [3]), [[9, 3], [3, 9]]),
    (("cyclic", [1]), [[0]]),
)


@pytest.mark.parametrize("strategy", sorted(GROUP_STRATEGIES))
def test_group_builders_write_one_identity_program(strategy):
    for (family, params), gen_lists in IDENTITY_CASES:
        S = zoo.make_group(family, params)
        G = group_view(S)
        for gens in gen_lists:
            assert closure(S, gens).cardinality == S.n, (family, gens)
            expect = compact(fast_exp(gens[0], G.element_order(gens[0])))
            assert identity_program(G, gens[0]) == expect
            assert GROUP_STRATEGIES[strategy](G, gens, G.identity) == expect, (family, gens)
            state = build_cube(G, gens, G.identity)
            assert emit_from_cube(G, gens, state, G.identity) == expect, (family, gens)


def test_solvable_cyclic_collapses_to_fast_exp():
    Z = zoo.make_cyclic(97)
    G = group_view(Z)
    slp = compress_group_solvable_bounded(G, [1], 55)
    assert evaluate(Z, slp).output_value == 55
    assert slp.width == 2
    assert len(build_polycyclic_set(G, [1]).chain_indices) == 1


# -- normal band ----------------------------------------------------------------


def test_normal_band_group_degenerate():
    S = zoo.make_cyclic(9)
    bc = compress_normal_band(S, [1], 7, "wide")
    assert evaluate(S, bc.slp).output_value == 7
    assert bc.alpha == 0


def test_normal_band_wide_and_narrow_widths():
    S, gens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 9])
    for mode, extra in (("wide", 2), ("narrow", 1)):
        for t in range(S.n):
            bc = compress_normal_band(S, gens, t, mode)
            assert evaluate(S, bc.slp).output_value == t
            assert bc.slp.width <= max(bc.group_width + extra, 3), (mode, t)


def test_normal_band_sigma_alpha_closure_every_class():
    from slpforge.compressors import class_generators
    from slpforge.decomposition import band_of_groups_decomposition

    for family, params in (("rb-x-cyclic", [2, 2, 9]), ("clifford-z4-z2", [])):
        S, gens, _ = zoo.build_family(family, params)
        dec = band_of_groups_decomposition(S)
        for alpha in range(dec.class_count):
            vals, wits = class_generators(S, dec, gens, alpha)
            assert closure(S, vals) == dec.carriers[alpha], (family, alpha)


def test_clifford_bottom_class_generators_via_products():
    S, gens, _ = zoo.build_family("clifford-z4-z2", [])
    from slpforge.compressors import class_generators
    from slpforge.decomposition import band_of_groups_decomposition

    dec = band_of_groups_decomposition(S)
    bottom = dec.class_of(S.n - 1)
    vals, wits = class_generators(S, dec, gens, bottom)
    assert any(len(w) == 2 for w in wits)
    assert closure(S, vals) == dec.carriers[bottom]


# -- general pipeline --------------------------------------------------------------


def test_general_on_extension():
    base, bgens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 9])
    T, _ = zoo.make_nilpotent_extension(base, len(bgens), bgens, 3)
    gens = list(range(len(bgens)))
    members = closure(T, gens)
    for t in members:
        gc = compress_general(T, gens, t)
        assert evaluate(T, gc.slp).output_value == t
        if gc.group_width is not None:
            assert gc.slp.width <= gc.group_width + 3


def test_general_leaf_substitution_equality():
    base, bgens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 9])
    T, _ = zoo.make_nilpotent_extension(base, len(bgens), bgens, 3)
    gens = list(range(len(bgens)))
    found = 0
    for t in closure(T, gens):
        gc = compress_general(T, gens, t)
        if gc.band is None or gc.tilde_value is None:
            continue
        found += 1
        # the tilde-side product wrapped in u, v also evaluates to the target
        lhs = T.word_value([gc.left, gc.tilde_value, gc.right])
        assert lhs == t
    assert found >= 3


def test_general_not_eligible():
    w = zoo.make_obstruction_witness("T", 12)
    with pytest.raises(NotEligibleError):
        compress_general(w.semigroup, w.generators, w.target, Config(kmax=3))


def test_general_refuses_what_rung_5_refuses_before_any_work():
    # S^1 satisfies the sandwich identity, but H is not a congruence on its
    # completely regular part: once only t = 7 reached the bare inner error
    S = random_semigroups(150, seed=2)[37]
    assert closure(S, [0, 1]).cardinality == S.n and recommend(S) == "bounded-diameter"
    for t in range(S.n):
        with pytest.raises(NotEligibleError, match="S\\^1 is not a normal band of groups"):
            compress_general(S, [0, 1], t)
        with pytest.raises(NotEligibleError):
            compress(S, [0, 1], t, "general")


# -- dispatcher ---------------------------------------------------------------------


def test_compress_reports_and_verifies(zoo_small):
    for name, (S, gens, _) in zoo_small.items():
        members = sorted(closure(S, gens))
        for t in members[:: max(1, len(members) // 7)]:
            rep = compress(S, gens, t, "auto")
            assert rep.verified, (name, t)
            assert rep.length == rep.slp.length and rep.width == rep.slp.width


@pytest.mark.parametrize("t", [0, 5, -1, 8], ids=["member", "non-member", "below", "above"])
def test_unknown_strategy_rejected_before_any_work(t):
    S = zoo.make_dihedral(4)
    assert 5 not in closure(S, [1]) and 0 in closure(S, [1])
    before = set(S._memo)
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        compress(S, [1], t, "bogus")
    if 0 <= t < S.n:
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            member_certified(S, [1], t, "bogus")
    assert set(S._memo) == before


def test_named_strategy_reports_no_extras(zoo_small):
    S, gens, _ = zoo_small["RB(2,2)xZ3"]
    for strategy in ("normal-band", "bounded-diameter", "general"):
        assert compress(S, gens, 5, strategy).extras == {}, strategy
    G = zoo.make_dihedral(8)
    for strategy in GROUP_STRATEGIES:
        assert compress(G, zoo.dihedral_generators(8), 13, strategy).extras == {}, strategy
    assert set(compress(G, zoo.dihedral_generators(8), 13).extras) == {"classified"}


def test_readme_lists_the_strategy_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| strategy ", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\s*\| `([a-z-]+)` ", table, flags=re.M)
    assert sorted(listed) == sorted([*STRATEGIES, "auto"])
    assert set(GROUP_STRATEGIES) < set(STRATEGIES)


# solvable zoo groups of order <= 32: every family, several orders
SMALL_SOLVABLE_GROUPS = (
    ("cyclic", [8]),
    ("abelian", [2, 4]),
    ("dihedral", [3]),
    ("dihedral", [4]),
    ("dihedral", [8]),
    ("dihedral", [16]),
    ("heisenberg", [3]),
    ("sym", [3]),
    ("sym", [4]),
    ("alt", [4]),
)


def _auto_cases():
    """(S, gens, targets): random tables over all their elements and over one
    to three random ones, and every generating pair of each small solvable
    group; at most three members of the generated sub-semigroup each, all
    drawn from one seed."""
    rng = random.Random(99)
    for S in random_semigroups(150, seed=99):
        for gens in (list(range(S.n)), rng.sample(range(S.n), min(S.n, rng.randint(1, 3)))):
            members = sorted(closure(S, gens))
            yield S, gens, rng.sample(members, min(3, len(members)))
    for family, params in SMALL_SOLVABLE_GROUPS:
        G = zoo.make_group(family, params)
        for pair in itertools.permutations(range(G.n), 2):
            if closure(G, pair).cardinality == G.n:
                yield G, list(pair), rng.sample(range(G.n), 1)


def test_auto_runs_what_recommend_picks_and_never_raises():
    strategies = set()
    for S, gens, targets in _auto_cases():
        members = closure(S, gens)
        sub = S if members.cardinality == S.n else sub_semigroup(S, members)[0]
        expected = recommend(Semigroup.trusted(sub.table))
        strategies.add(expected)
        for t in targets:
            report = compress(S, gens, t, "auto")
            assert report.strategy == expected, (S.table.tolist(), gens, t)
            assert evaluate(S, report.slp).output_value == t, (S.table.tolist(), gens, t)
    # the draw reaches rungs 1 or 6, 2, 3 and 5
    assert strategies == {"bounded-diameter", "permutative", "group-solvable-bw", "general"}


def test_compress_unreachable():
    Z6 = zoo.make_cyclic(6)
    with pytest.raises(UnreachableError):
        compress(Z6, [2], 1)


def test_compress_inside_proper_subsemigroup():
    Z12 = zoo.make_cyclic(12)
    rep = compress(Z12, [4], 8, "auto")
    assert rep.verified and set(rep.slp.alphabet) <= {4}


# (S, gens, t): the generators close to the whole table, or to a proper part
WRONG_PROGRAM_CASES = {
    "full-table": (zoo.make_cyclic(7), [1], 3),
    "proper-closure": (zoo.make_cyclic(12), [2], 6),
}


def test_auto_propagates_what_its_strategy_raises(monkeypatch):
    ran = []

    def refuses(S, gens, t, cfg):
        ran.append(S.n)
        raise NotEligibleError("refused")

    for name in STRATEGIES:
        monkeypatch.setitem(STRATEGIES, name, refuses)
    # one strategy, run once: no second path catches the error
    with pytest.raises(NotEligibleError, match="refused"):
        compress(zoo.make_cyclic(7), [1], 3, "auto")
    assert ran == [7]


@pytest.mark.parametrize("strategy", ["permutative", "auto"])
@pytest.mark.parametrize("case", sorted(WRONG_PROGRAM_CASES))
def test_failed_verification_raises_without_fallback(monkeypatch, case, strategy):
    S, gens, t = WRONG_PROGRAM_CASES[case]
    ran = []

    def wrong(S, gens, t, cfg):
        ran.append(S.n)
        return word_program([gens[0]])

    for name in STRATEGIES:
        monkeypatch.setitem(STRATEGIES, name, wrong)
    with pytest.raises(SlpforgeError, match="failed verification"):
        compress(S, gens, t, strategy)
    assert len(ran) == 1
    with pytest.raises(CompressorFailedError):
        member_certified(S, gens, t, strategy)


def test_proper_closure_is_verified_once(monkeypatch):
    counts = {"compress": 0, "verify": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(dispatch, "verify", counting("verify", dispatch.verify))
    monkeypatch.setattr(dispatch, "compress", counting("compress", dispatch.compress))
    rep = dispatch.compress(zoo.make_cyclic(12), [4], 8, "auto")
    assert rep.verified and counts == {"compress": 1, "verify": 1}


# -- word listings against the per-compressor searches they replaced ----------


def _ref_conjugator_words(G, sigma, k):
    out = [(G.identity, [])]
    seen = {G.identity}
    level = []
    for g in sigma:
        if g not in seen:
            seen.add(g)
            level.append((g, [g]))
    out.extend(level)
    for _ in range(k - 1):
        nxt = []
        for val, w in level:
            for g in sigma:
                p = int(G.base.table[val, g])
                if p not in seen:
                    seen.add(p)
                    nxt.append((p, w + [g]))
        out.extend(nxt)
        level = nxt
    return out


def _ref_ideal_generators(S, gens, k):
    sk = ideal_power(S, k)
    discovered = {}
    level = []
    for g in gens:
        if g not in discovered:
            discovered[g] = [g]
            level.append((g, [g]))
    delta = [(v, w) for v, w in level if v in sk]
    for _ in range(2 * k - 2):
        nxt, seen_this_level = [], set()
        for val, w in level:
            for g in gens:
                p = int(S.table[val, g])
                if p in seen_this_level:
                    continue
                seen_this_level.add(p)
                nxt.append((p, w + [g]))
                if p not in discovered:
                    discovered[p] = w + [g]
                    if p in sk:
                        delta.append((p, w + [g]))
        level = nxt
    return delta


@pytest.mark.parametrize(
    "S",
    [zoo.make_sym(4), zoo.make_alt(4), zoo.make_dihedral(4), zoo.make_heisenberg(3)],
    ids=["S4", "A4", "D8", "H3"],
)
def test_word_listings_match_reference_searches_on_groups(S):
    G = group_view(S)
    k = math.ceil(math.log2(S.n))
    pairs = 0
    for gens in itertools.permutations(range(S.n), 2):
        if closure(S, gens).cardinality != S.n:
            continue
        pairs += 1
        gens = list(gens)
        assert solvable._conjugator_words(G, gens, k) == _ref_conjugator_words(G, gens, k)
        for depth in (1, 2, 3):
            assert peel.ideal_generators(S, gens, depth) == _ref_ideal_generators(S, gens, depth)
    assert pairs > 0


def test_ideal_generators_match_reference_search_on_random_tables():
    rng = random.Random(60)
    for S in random_semigroups(60, seed=60):
        # random tables are generated by a prefix of their elements
        m = next(m for m in range(1, S.n + 1) if closure(S, range(m)).cardinality == S.n)
        gens = list(range(m))
        gens.insert(rng.randrange(m + 1), rng.randrange(m))  # a repeat
        for k in (1, 2, 3):
            assert peel.ideal_generators(S, gens, k) == _ref_ideal_generators(S, gens, k), k


@pytest.mark.parametrize(
    "S",
    [zoo.make_cyclic(n) for n in range(1, 7)] + [zoo.make_sym(3)],
    ids=[f"Z{n}" for n in range(1, 7)] + ["S3"],
)
def test_group_strategies_with_every_element_as_a_generator(S):
    # the identity and repeated generators among the generators; an
    # inverse-free plan program need not use register 0
    for gens in (list(range(S.n)), list(range(S.n - 1, -1, -1)) + [0, S.n - 1]):
        for name in GROUP_STRATEGIES:
            for t in range(S.n):
                slp = compress(S, gens, t, name).slp
                assert evaluate(S, slp).output_value == t, (name, gens, t)


def test_the_trivial_group_has_an_empty_delta_set_and_no_delta_program():
    G = group_view(zoo.make_cyclic(1))
    delta = build_derived_adapted_set(G, [], derived_series(G))
    assert delta.records == []
    with pytest.raises(SlpforgeError, match="empty generating set"):
        emit_delta_program(G, delta)


def test_the_first_cube_covers_only_the_identity():
    G = group_view(zoo.make_dihedral(4))
    state = build_cube(G, [1, 4], G.identity)
    assert state.rounds == 0 and list(state.kk) == [G.identity]
    prog = emit_from_cube(G, [1, 4], state, G.identity)
    assert evaluate(G.base, prog, group=G).output_value == G.identity
    with pytest.raises(NotInSubgroupError, match="not covered by the cube"):
        emit_from_cube(G, [1, 4], state, 1)


def test_normal_band_mode_is_wide_or_narrow():
    S, gens, _ = zoo.build_family("rb-x-cyclic", [1, 1, 3])
    with pytest.raises(ValueError, match="'wide' or 'narrow'"):
        compress_normal_band(S, gens, 1, mode="x")


def test_peel_and_permutative_reject_an_ungenerated_target():
    w = zoo.make_obstruction_witness("T", 3)  # nilpotent: S^4 is the zero
    s1, s2 = w.generators[:2]
    with pytest.raises(UnreachableError, match=f"target {s2} is outside the generated subsemigroup"):
        nilpotent_peel(w.semigroup, [s1], s2, 2, compress_permutative)
    with pytest.raises(UnreachableError, match=f"target {s2} is outside the generated subsemigroup"):
        compress_general(w.semigroup, [s1], s2)


def test_peel_and_general_work_inside_a_smaller_generated_subsemigroup():
    # the words over s1 alone reach only the zero of S^2, so the peel runs in
    # the subsemigroup {s1, s1 s1} that s1 generates
    w = zoo.make_obstruction_witness("T", 3)
    S, s1 = w.semigroup, w.generators[0]
    zero = S.n - 1
    assert S.table[s1, s1] == zero and closure(S, [s1]).cardinality == 2
    with pytest.raises(SlpforgeError, match="short-word values do not generate the ideal"):
        ideal_generators(S, [s1], 2)
    for prog in (
        nilpotent_peel(S, [s1], zero, 2, compress_permutative),
        compress_general(S, [s1], zero).slp,
        compress(S, [s1], zero, "general").slp,
    ):
        assert set(prog.alphabet) == {s1} and verify(S, prog, zero)
    gc = compress_general(S, [s1, s1], zero)
    assert gc.slp == compress(S, [s1, s1], zero, "general").slp


def test_general_lifts_its_split_out_of_the_generated_subsemigroup():
    base, bgens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 9])
    T, _ = zoo.make_nilpotent_extension(base, len(bgens), bgens, 3)
    extra = T.n  # T with a zero adjoined: the generators miss the new element
    table = np.full((extra + 1, extra + 1), extra)
    table[:extra, :extra] = T.table
    U = validate_table(table)
    gens = list(range(len(bgens)))
    split = 0
    for t in closure(T, gens):
        inside, outside = compress_general(T, gens, t), compress_general(U, gens, t)
        assert verify(U, outside.slp, t) and outside.slp == inside.slp
        assert (outside.left, outside.right, outside.tilde_value) == (inside.left, inside.right, inside.tilde_value)
        split += inside.tilde_value is not None
    assert split >= 3
    with pytest.raises(UnreachableError, match="target 1 is not generated"):
        compress_permutative(zoo.make_cyclic(4), [2], 1, kstar=0)
