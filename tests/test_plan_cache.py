"""Target-independent structure memoised on a Semigroup must not change outputs.

Most checks compare a table reused across targets with a fresh
``Semigroup(S.table)`` per target: the two must emit identical .slp bytes (or
raise the same error class when the strategy does not apply).  The group
builders keep their entries on the table under the generator list, so new
views of one table share them, and a subgroup is a carved table of its own
that does not lend its entries to the whole group.
"""

import functools
import importlib
import random
import sys

import pytest

from slpforge import zoo
from slpforge.classify import classify
from slpforge.compressors import (
    build_cube,
    compress,
    emit_from_cube,
    compress_group_reachability,
    compress_group_solvable,
    compress_group_solvable_bounded,
    compress_normal_band,
    reachability,
    solvable,
)
from slpforge.errors import ChainVerificationFailedError, SlpforgeError
from slpforge.groups import SeriesChain, group_view, subgroup_closure
from slpforge.io import dump_cay, dump_slp, parse_cay
from slpforge.semigroup import Semigroup, closure, sub_semigroup
from slpforge.slp import InverseMirror, Slp, SlpBuilder, compact, eliminate_inverses, fast_exp, verify

# the package re-exports functions under some of these modules' names
classify_mod = importlib.import_module("slpforge.classify")
decomposition_mod = importlib.import_module("slpforge.decomposition")
general_mod = importlib.import_module("slpforge.compressors.general")
groups_mod = importlib.import_module("slpforge.groups")
semigroup_mod = importlib.import_module("slpforge.semigroup")
slp_mod = importlib.import_module("slpforge.slp")
permutative_mod = importlib.import_module("slpforge.compressors.permutative")

# the abelian table is the one instance on which ``permutative`` applies;
# S4 > A4 > V4 > 1 has derived length 3
INSTANCES = [
    ("dihedral", (8,)), ("dihedral", (16,)), ("heisenberg", (3,)), ("abelian", (2, 4, 4)), ("sym", (4,)),
]
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


def _rounds(T, gens, t) -> int:
    """Doublings of the memoised cube that covers t, once compress has grown it."""
    return build_cube(group_view(T), gens, t).rounds


@pytest.mark.parametrize("family,params", INSTANCES)
def test_cube_prefix_in_both_orders_of_rounds(family, params):
    S, gens = _instance(family, params)
    fresh, rounds = {}, {}
    for t in closure(S, gens):
        T = Semigroup(S.table)
        fresh[t] = compress(T, gens, t, "group-bsz")
        rounds[t] = _rounds(T, gens, t)
    assert len(set(rounds.values())) > 2
    for descending in (False, True):
        reused = Semigroup(S.table)
        for t in sorted(rounds, key=lambda t: (rounds[t], t), reverse=descending):
            report = compress(reused, gens, t, "group-bsz")
            assert _rounds(reused, gens, t) == rounds[t], t
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


# normal-band runs the group builders on each class group, through the same
# path as the group strategies; their groups are abelian, so ``auto`` picks
# permutative on these tables
BAND_INSTANCES = [("rb-x-cyclic", (2, 2, 3)), ("clifford-z4-z2", ())]


@pytest.mark.parametrize("strategy", ("normal-band", "auto"))
@pytest.mark.parametrize("family,params", BAND_INSTANCES)
def test_band_tables_reused_match_fresh(family, params, strategy):
    S, gens = _instance(family, params)
    targets = sorted(closure(S, gens))
    random.Random(f"{family}{params}{strategy}").shuffle(targets)
    for t in targets:
        assert _answer(S, gens, t, strategy) == _fresh(S, gens, t, strategy), t


# the builders under the short names the test ids carry
def _bsz(G, gens, t):
    return compress_group_reachability(G, gens, t)


def _solvable(G, gens, t):
    return compress_group_solvable(G, gens, t)


def _bounded(G, gens, t):
    return compress_group_solvable_bounded(G, gens, t)


BUILDERS = (_bsz, _solvable, _bounded)


def _built(builder, S, gens, t) -> str:
    try:
        return dump_slp(builder(group_view(S), gens, t))
    except SlpforgeError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("family,params", INSTANCES)
def test_builders_on_new_views_of_one_table(family, params, builder):
    # each call gets its own view; the memo lives on the table they share
    S, gens = _instance(family, params)
    members = sorted(closure(S, gens))
    t1, t2 = members[-1], members[len(members) // 2]
    answers = [_built(builder, S, gens, t) for t in (t1, t2, t1)]
    fresh = [_built(builder, Semigroup(S.table), gens, t) for t in (t1, t2)]
    assert answers == [fresh[0], fresh[1], fresh[0]]


@pytest.mark.parametrize(
    "builder,error",
    [(_solvable, SlpforgeError), (_bounded, ChainVerificationFailedError)],
)
def test_builder_memo_is_keyed_by_the_carrier(builder, error):
    S, _ = _instance("dihedral", (8,))
    sigma, t = [1], 3
    rotations = closure(S, sigma)
    assert rotations.cardinality < S.n
    # the same generator list generates the rotation subgroup but not the group
    R, to_sub, _ = sub_semigroup(S, rotations)
    builder(group_view(R), [int(to_sub[s]) for s in sigma], int(to_sub[t]))
    with pytest.raises(error):
        builder(group_view(S), sigma, t)
    with pytest.raises(error):
        builder(group_view(Semigroup(S.table)), sigma, t)


def test_cube_doublings_are_shared_by_every_target(monkeypatch):
    S, gens = _instance("dihedral", (16,))
    doublings = []
    double = reachability._double
    monkeypatch.setattr(
        reachability, "_double", lambda *args: doublings.append(1) or double(*args)
    )
    rounds = []
    for t in sorted(closure(S, gens)):
        compress_group_reachability(group_view(S), gens, t)
        rounds.append(build_cube(group_view(S), gens, t).rounds)
    # one call per doubling, plus at most one that finds nothing to add
    assert max(rounds) <= len(doublings) <= max(rounds) + 1


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _counting_everywhere(monkeypatch, module, name):
    """``_counting``, also under every name a package module imported it by."""
    original = getattr(module, name)
    calls = _counting(monkeypatch, module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("slpforge.") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, getattr(module, name))
    return calls


def _counting_programs(monkeypatch) -> list:
    """Grows by one per ``Slp`` made, by the constructor or by the scan of
    ``compact``, which numbers its program canonically as it writes it."""
    programs = []
    check, scanned = Slp.__post_init__, Slp._scanned.__func__
    monkeypatch.setattr(Slp, "__post_init__", lambda self: programs.append(1) or check(self))
    monkeypatch.setattr(Slp, "_scanned", classmethod(lambda cls, *args: programs.append(1) or scanned(cls, *args)))
    return programs


def test_solvable_plan_eliminates_inverses_once(monkeypatch):
    S, gens = _instance("dihedral", (8,))
    targets = sorted(closure(S, gens))
    random.Random("D16").shuffle(targets)
    fresh = [_fresh(S, gens, t, "group-solvable") for t in targets]
    eliminations = _counting(monkeypatch, InverseMirror, "feed")
    quotients = _counting(monkeypatch, solvable, "quotient_group")
    reused = Semigroup(S.table)
    assert _answer(reused, gens, targets[0], "group-solvable") == fresh[0]
    # the first target builds the plan: one elimination, every level quotient
    assert len(eliminations) == 1 and quotients
    planned = len(quotients)
    for t, expect in zip(targets[1:], fresh[1:]):
        assert _answer(reused, gens, t, "group-solvable") == expect, t
    assert len(eliminations) == 1 and len(quotients) == planned


@pytest.mark.parametrize("family,params", [("dihedral", (8,)), ("heisenberg", (3,))])
def test_solvable_target_on_a_reused_table_builds_one_program(monkeypatch, family, params):
    S, gens = _instance(family, params)
    targets = sorted(closure(S, gens))
    compress(S, gens, targets[0], "group-solvable")  # builds the plan
    programs = _counting_programs(monkeypatch)
    evaluations = _counting_everywhere(monkeypatch, slp_mod, "evaluate")
    permutative = _counting_everywhere(monkeypatch, permutative_mod, "compress_permutative")
    for t in targets[1:]:
        programs.clear(), evaluations.clear()
        compress(S, gens, t, "group-solvable")
        # the program itself, and the verification in compress
        assert len(programs) == 1 and len(evaluations) == 1, t
    assert permutative == []


GROUP_ONLY = ("group-solvable", "group-solvable-bw", "group-bsz")


@pytest.mark.parametrize(
    "family,params,strategies",
    [
        ("dihedral", (128,), GROUP_ONLY),
        ("heisenberg", (7,), GROUP_ONLY),
        ("abelian", (32, 32), GROUP_ONLY),
        ("rb-x-cyclic", (2, 3, 4), ("normal-band",)),
        ("nilpotent-rb", (2, 2, 3, 3), ("general",)),
    ],
    ids=["D256", "Heis7", "Z32xZ32", "rb-x-cyclic", "nilpotent-rb"],
)
def test_solvable_programs_need_no_renumbering(monkeypatch, family, params, strategies):
    # a returned program is compact, numbered at first write by the pass
    # itself, so no renumbering rebuilds one
    S, gens = _instance(family, params)
    targets = random.Random(0).choices(sorted(closure(S, gens)), k=200)
    for strategy in strategies:
        compress(S, gens, targets[0], strategy)  # builds the plan
    rebuilt = []
    renumbered = slp_mod._renumbered

    def counted(alphabet, instructions, output):
        out = renumbered(alphabet, instructions, output)
        rebuilt.append(out[0] is not instructions)
        return out

    monkeypatch.setattr(slp_mod, "_renumbered", counted)
    for strategy in strategies:
        for t in targets:
            prog = compress(S, gens, t, strategy).slp
            assert compact(prog) is prog, (strategy, t)
    assert not any(rebuilt)


def test_solvable_plan_builds_each_quotient_once(monkeypatch):
    S, gens = _instance("dihedral", (8,))
    quotients = _counting(monkeypatch, solvable, "quotient_group")
    targets = sorted(closure(S, gens))
    fresh = [_fresh(S, gens, t, "group-solvable") for t in targets]
    quotients.clear()
    reused = Semigroup(S.table)
    assert [_answer(reused, gens, t, "group-solvable") for t in targets] == fresh
    # D16 > D16' > 1: G/G' (shared by the adapted set and the first level),
    # G/G'' for the adapted set, and G'/G'' for the second level
    assert len(quotients) == 3


@pytest.mark.parametrize(
    "S", [zoo.make_dihedral(8), zoo.make_sym(4), zoo.make_heisenberg(3)], ids=["D16", "S4", "H3"]
)
def test_classify_on_a_group_carves_nothing_and_builds_one_derived_series(monkeypatch, S):
    carves = _counting(monkeypatch, semigroup_mod, "sub_semigroup")
    monkeypatch.setattr(classify_mod, "sub_semigroup", semigroup_mod.sub_semigroup)
    series = _counting(monkeypatch, groups_mod, "_derived_series")
    report = classify(Semigroup(S.table))
    assert report.is_group and report.groups_solvable
    assert report.recommended == "group-solvable-bw"
    # the group is its own H-class: maximal_subgroups_solvable reads the
    # derived series that recommend's group route built on the same table
    assert carves == [] and len(series) == 1


@pytest.mark.parametrize("family,params", BAND_INSTANCES)
def test_band_decomposition_and_class_groups_built_once(monkeypatch, family, params):
    S, gens = _instance(family, params)
    targets = sorted(closure(S, gens))
    random.Random(family).shuffle(targets)
    fresh = {t: dump_slp(compress_normal_band(Semigroup(S.table), gens, t).slp) for t in targets}
    builds = _counting(monkeypatch, decomposition_mod, "band_of_groups_decomposition")
    carves = _counting(monkeypatch, semigroup_mod, "sub_semigroup")
    # the zoo checks its construction with the decomposition every target reuses
    S, _ = _instance(family, params)
    classes = set()
    for t in targets:
        bc = compress_normal_band(S, gens, t)
        assert dump_slp(bc.slp) == fresh[t], t
        classes.add(bc.alpha)
    assert len(builds) == 1
    # one class group per class the targets fall in, each carved out once
    assert len(carves) == len(classes) > 1


@pytest.mark.parametrize("params", [(2, 2, 3, 3), (3, 3, 4, 2)])
def test_general_plan_built_once_per_table(monkeypatch, params):
    S, gens = _instance("nilpotent-rb", params)
    targets = sorted(closure(S, gens))
    random.Random(str(params)).shuffle(targets)
    fresh = [_fresh(S, gens, t, "general") for t in targets]
    scans = []
    scan = classify_mod.sandwich_ideal_level

    @functools.wraps(scan)  # keeps the name ``cached_flag`` keys its entry by
    def counted_scan(*args):
        scans.append(args)
        return scan(*args)

    # ``classify`` and ``general`` each hold the scan under its own name
    for module in (classify_mod, general_mod):
        monkeypatch.setattr(module, "sandwich_ideal_level", counted_scan)
    carves = _counting(monkeypatch, semigroup_mod, "sub_semigroup")
    reused = Semigroup(S.table)
    assert classify(reused).sandwich_level is not None
    for t, expect in zip(targets, fresh):
        assert _answer(reused, gens, t, "general") == expect, t
    # ``general`` reads the level ``classify`` found, through the flag memo
    assert [args[0] is reused for args in scans] == [True]
    # the ideal S^k, each S~ and each class group are carved once each
    carved = [(id(args[0]), args[1]) for args in carves]
    assert len(carved) == len(set(carved)) > 2


def test_zoo_band_check_shares_the_decomposition_with_auto(monkeypatch):
    builds = _counting(monkeypatch, decomposition_mod, "band_of_groups_decomposition")
    S = zoo.make_normal_band_of_groups("product", p=2, q=2, group=zoo.make_sym(3))
    gens = list(range(S.n))
    for t in (0, S.n - 1):
        report = compress(S, gens, t, "auto")
        assert report.strategy == "normal-band" and report.verified, t
    assert [args[0] is S for args in builds] == [True]


@pytest.mark.parametrize(
    "S,gens",
    [
        (zoo.make_dihedral(8), zoo.dihedral_generators(8)),
        (zoo.make_heisenberg(3), zoo.heisenberg_generators(3)),
    ],
    ids=["D16", "H3"],
)
def test_one_shot_auto_reuses_validation_structure(monkeypatch, S, gens):
    text = dump_cay(S, gens)
    targets = sorted(closure(S, gens))[::5]
    fresh = [_fresh(S, gens, t, "auto") for t in targets]
    closures = _counting(monkeypatch, semigroup_mod, "closure")
    series = _counting(monkeypatch, groups_mod, "_derived_series")
    for t, expect in zip(targets, fresh):
        parsed, hint, _ = parse_cay(text)
        before = len(series)
        assert dump_slp(compress(parsed, hint, t, "auto").slp) == expect, t
        # compress's cached_closure found the entry validation stored; other
        # modules bind closure at import and still run it on their own sets
        assert not any(args[0] is parsed for args in closures), t
        # the group route and the polycyclic set share one derived series
        assert len(series) == before + 1, t


@pytest.mark.parametrize(
    "S,gens",
    [
        (zoo.make_dihedral(8), zoo.dihedral_generators(8)),
        (zoo.make_heisenberg(3), zoo.heisenberg_generators(3)),
    ],
    ids=["D16", "H3"],
)
def test_word_trees_grow_each_level_once(monkeypatch, S, gens):
    targets = random.Random(S.n).choices(sorted(closure(S, gens)), k=20)
    fresh = [_fresh(S, gens, t, "group-solvable") for t in targets]
    grows: dict = {}  # tree -> levels expanded
    words: dict = {}  # tree -> answers given
    grow, word = semigroup_mod._WordTree._grow, semigroup_mod._WordTree.word

    def counted_grow(tree):
        grows[tree] = grows.get(tree, 0) + 1
        grow(tree)

    def recorded_word(tree, t):
        words.setdefault(tree, []).append(word(tree, t))
        return words[tree][-1]

    monkeypatch.setattr(semigroup_mod._WordTree, "_grow", counted_grow)
    monkeypatch.setattr(semigroup_mod._WordTree, "word", recorded_word)
    reused = Semigroup(S.table)
    for t, expect in zip(targets, fresh):
        assert _answer(reused, gens, t, "group-solvable") == expect, t
    # one tree per quotient table serves every target
    assert words and all(len(answers) > 1 for answers in words.values())
    for tree, answers in words.items():
        assert None not in answers
        # the tree is built holding the one-letter words; every later level
        # is expanded once, and none past the deepest word asked of it
        assert grows.get(tree, 0) == max(map(len, answers)) - 1


@pytest.mark.parametrize(
    "family,params", [("dihedral", (8,)), ("heisenberg", (3,)), ("sym", (4,)), ("alt", (5,))],
    ids=["D16", "H3", "S4", "A5"],
)
def test_bsz_is_the_elimination_of_the_cube_program(family, params):
    # each cube state keeps its h_i prefix and the elimination pass fed it;
    # a target resumes both, and must give what eliminating its whole group
    # program gives, once every state has been used in an arbitrary order
    S, gens = _instance(family, params)
    G = group_view(S)
    targets = sorted(closure(S, gens))
    random.Random(family).shuffle(targets)
    for t in targets:
        compress_group_reachability(G, gens, t)
    for t in targets:
        expect = eliminate_inverses(G, emit_from_cube(G, gens, build_cube(G, gens, t), t))
        assert compress_group_reachability(G, gens, t) == expect, t


def test_bsz_writes_an_inverted_chain_times_a_generator():
    # on S4 with these generators the third h_i record is (h_1 h_2)^-1 * 10:
    # a chain b and no chain c
    S = zoo.build_family("sym", [4])[0]
    G, gens = group_view(S), [13, 9, 10]
    records = build_cube(G, gens, None).h_records
    assert (records[2].bmask, records[2].cmask, records[2].sigma) == (3, 0, 10)
    for t in sorted(closure(S, gens)):
        prog = compress_group_reachability(G, gens, t)
        assert prog == eliminate_inverses(G, emit_from_cube(G, gens, build_cube(G, gens, t), t)), t
        assert verify(S, prog, t), t


LARGE = pytest.mark.parametrize(
    "family,params", [("dihedral", (128,)), ("heisenberg", (7,))], ids=["D256", "Heis7"]
)


def _planned(family, params, builder):
    """A group view whose builder has its plan, and 200 random targets."""
    S, gens = _instance(family, params)
    G = group_view(S)
    targets = random.Random(0).choices(range(S.n), k=200)
    builder(G, gens, targets[0])
    return G, gens, targets


@LARGE
def test_quotient_normal_forms_are_computed_once(monkeypatch, family, params):
    G, gens, targets = _planned(family, params, compress_group_solvable)
    forms = _counting(monkeypatch, solvable, "minimize_exponents")
    for t in targets:
        compress_group_solvable(G, gens, t)
    # (quotient table, element): each level's forms are memoised on its quotient
    keys = [(id(args[0]), args[4]) for args in forms]
    assert len(keys) == len(set(keys))


@LARGE
def test_bounded_targets_write_the_plan_blocks(monkeypatch, family, params):
    G, gens, targets = _planned(family, params, compress_group_solvable_bounded)
    records = _counting(monkeypatch, solvable._BoundedEmitter, "emit_record")
    for t in targets:
        compress_group_solvable_bounded(G, gens, t)
    assert records == []


@LARGE
def test_warm_bounded_targets_scan_no_block(monkeypatch, family, params):
    G, gens, targets = _planned(family, params, compress_group_solvable_bounded)
    first = [compress_group_solvable_bounded(G, gens, t) for t in targets]
    scans = _counting(monkeypatch, slp_mod._Scan, "run")
    assert [compress_group_solvable_bounded(G, gens, t) for t in targets] == first
    assert scans == []


# Z1 has no chain record, so its one target is the identity program
BW_INSTANCES = pytest.mark.parametrize(
    "family,params",
    [("dihedral", (8,)), ("sym", (4,)), ("alt", (4,)), ("heisenberg", (3,)), ("abelian", (8, 8)), ("cyclic", (1,))],
    ids=["D16", "S4", "A4", "Heis3", "Z8xZ8", "Z1"],
)


def _least_power(G, r, below, x) -> int:
    """The least a with (r^a)^-1 x in ``below``, by multiplying r up."""
    a, p = 0, G.identity
    while G.base.table.item(G.inverse[p], x) not in below:
        p, a = G.base.table.item(p, r), a + 1
        assert a <= G.order
    return a


def _joined(G, sigma, pcs, t) -> Slp:
    """``compact`` of the blocks that the chain walk of t names, joined."""
    keys = []
    for j, rec in enumerate(pcs.records[i] for i in pcs.chain_indices):
        a = _least_power(G, rec.value, pcs.chain.terms[j + 1], t)
        if a:
            keys += (j, (j, a, not keys))
        for _ in range(a):
            t = G.base.table.item(G.inverse[rec.value], t)
    assert t == G.identity
    if not keys:
        return compact(fast_exp(sigma[0], G.element_order(sigma[0])))
    b = SlpBuilder()
    for key in keys:
        for ins, _ in pcs.block(key):
            b.instructions.append(("L", ins[1], b.symbol(ins[2])) if ins[0] == "L" else ins)
    return compact(b.finish(3))


@BW_INSTANCES
def test_bounded_programs_are_the_compacted_joined_blocks(family, params):
    S, gens = _instance(family, params)
    targets = sorted(closure(S, gens))
    fresh = {t: compress_group_solvable_bounded(group_view(Semigroup(S.table)), gens, t) for t in targets}
    random.Random(f"{family}{params}").shuffle(targets)
    G = group_view(S)
    warm = {t: compress_group_solvable_bounded(G, gens, t) for t in targets}
    pcs = solvable.build_polycyclic_set(G, gens)
    for t in targets:
        expect = _joined(G, gens, pcs, t)
        for prog in (fresh[t], warm[t]):
            assert prog == expect, t
            assert Slp(prog.alphabet, prog.instructions, prog.output) == prog
            assert verify(S, prog, t), t


@BW_INSTANCES
def test_exponent_tables_match_the_walk(family, params):
    S, gens = _instance(family, params)
    G = group_view(S)
    pcs = solvable.build_polycyclic_set(G, gens)
    assert len(pcs.logs) == len(pcs.chain_indices) == len(pcs.chain.terms) - 1
    for j, (rec, (logs, inverses)) in enumerate(zip((pcs.records[i] for i in pcs.chain_indices), pcs.logs)):
        term, below = pcs.chain.terms[j], pcs.chain.terms[j + 1]
        for x in range(G.order):
            assert logs.item(x) == (_least_power(G, rec.value, below, x) if x in term else -1), (j, x)
        power = G.identity
        for inverse in inverses:
            assert inverse == G.inverse[power]
            power = S.table.item(power, rec.value)
        assert len(inverses) == term.cardinality // below.cardinality


def test_a_chain_step_its_record_does_not_span_fails_the_plan(monkeypatch):
    S, gens = _instance("dihedral", (8,))
    G = group_view(S)
    trivial = subgroup_closure(G, [])
    # below the whole group, the trivial group: the powers of one record
    # cannot cover the non-cyclic D16
    monkeypatch.setattr(solvable, "SeriesChain", lambda terms: SeriesChain([terms[0], trivial, *terms[2:]]))
    with pytest.raises(ChainVerificationFailedError, match="miss element"):
        solvable.build_polycyclic_set(G, gens)


@LARGE
def test_bsz_feeds_each_prefix_once_and_builds_one_program(monkeypatch, family, params):
    G, gens, targets = _planned(family, params, compress_group_reachability)
    fed, programs = _counting(monkeypatch, InverseMirror, "feed"), _counting_programs(monkeypatch)
    for t in targets:
        programs.clear()
        compress_group_reachability(G, gens, t)
        assert len(programs) == 1, t
    states = {id(s): s for s in (build_cube(G, gens, t) for t in targets)}.values()
    # a pair loads nothing once there are h_i, so it never equals a prefix
    prefixes = {tuple(s.prefix.instructions) for s in states if s.prefix and s.rounds}
    fed_prefixes = [tuple(args[1]) for args in fed if tuple(args[1]) in prefixes]
    # each state's h_i records are fed once; every other feed is one target's pair
    assert fed_prefixes and len(fed_prefixes) == len(set(fed_prefixes))
    assert len(fed) - len(fed_prefixes) <= len(targets)
