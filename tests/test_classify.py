import importlib
import random

import numpy as np
import pytest

from slpforge import zoo
from slpforge.classify import (
    Config,
    _ideal_levels,
    _right_classes,
    central_commutation_level,
    classify,
    group_route,
    is_medial,
    rb_ideal_level,
    recommend,
    sandwich_ideal_level,
    stable_ideal_level,
)
from slpforge.compressors import GROUP_STRATEGIES, STRATEGIES, compress
from slpforge.decomposition import _row_classes, band_of_groups_decomposition
from slpforge.errors import (
    BandNotNormalError,
    BudgetExceededError,
    HNotCongruenceError,
    SlpforgeError,
)
from slpforge.groups import group_view
from slpforge.identities import IDENTITY_NORMAL_BAND, satisfies_identity
from slpforge.semigroup import (
    Semigroup, closure, ideal_chain, products_outside, spread, sub_semigroup, validate_table
)
from slpforge.sets import ElementSet

from conftest import random_semigroups

# the package re-exports the function ``classify`` under the module's name
classify_mod = importlib.import_module("slpforge.classify")


def test_commutative_is_level_zero():
    assert central_commutation_level(zoo.make_cyclic(6)) == 0
    w = zoo.make_u_witness(4)
    assert central_commutation_level(w.semigroup) == 0


def test_normal_band_is_level_one():
    S, _, _ = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    assert central_commutation_level(S) == 1
    # oracle: exhaustively check a x y b = a y x b over all quadruples
    table = S.table
    for a in range(S.n):
        for x in range(S.n):
            for y in range(S.n):
                lhs_pre = int(table[int(table[a, x]), y])
                rhs_pre = int(table[int(table[a, y]), x])
                for b in range(S.n):
                    assert int(table[lhs_pre, b]) == int(table[rhs_pre, b])


def test_lrb_is_not_permutative():
    w = zoo.make_obstruction_witness("LRB", 4)
    assert central_commutation_level(w.semigroup, kmax=3) is None


def test_commutation_budget():
    S = zoo.make_dihedral(16)
    with pytest.raises(BudgetExceededError):
        central_commutation_level(S, kmax=2, budget=10)


def _commutation_level_reference(S, kmax, budget):
    """The per-a scan: for each a in S^k, a*x*y and a*y*x must share a right
    class over S^k, one n x n gather per a."""
    table = S.table
    if np.array_equal(table, table.T):
        return 0
    for k, members in _ideal_levels(S, kmax):
        if members.size * S.n * S.n > budget:
            raise BudgetExceededError(f"level {k}")
        rcls = _right_classes(S, members)
        if all(
            np.array_equal(C, C.T)
            for C in (rcls[table[table[int(a), :].astype(np.int64), :]] for a in members)
        ):
            return k
    return None


def _probe_evader(n: int) -> tuple[Semigroup, int, int]:
    """A monoid with zero 0 and identity 1, on n >= 16 elements, where every
    product of two other elements is 0 but i*j = u, for i = n - 1, j = n - 2
    and u = 2.  (Nilpotent, with an identity adjoined.)  Its rows equal its
    columns except at i and j, and a*x*y*a = a*y*x*a unless a = 1 and x is
    i or j.  So each commutation probe passes where it does not sample i
    and j, while the table does not commute at any level: S^k = S."""
    i, j, u = n - 1, n - 2, 2
    table = np.zeros((n, n), dtype=np.int64)
    table[1, :] = table[:, 1] = np.arange(n)
    table[i, j] = u
    return validate_table(table), i, j


def test_passing_commutation_probes_leave_the_decision_to_the_full_scans():
    S, i, j = _probe_evader(20)
    rows = spread(S.n, classify_mod._PROBES)
    assert i not in rows and j not in rows
    assert np.array_equal(S.table[rows], S.table[:, rows].T)  # the level-0 probe passes
    assert not classify_mod._commutation_refuted(S, np.arange(S.n))  # and so does the deeper one
    assert len(ideal_chain(S)) == 1
    assert central_commutation_level(S) is None
    assert _commutation_level_reference(S, 6, 10**8) is None
    assert recommend(S) != "permutative"


def test_kmax_0_asks_for_level_0_only():
    assert central_commutation_level(zoo.make_cyclic(6), kmax=0) == 0
    assert central_commutation_level(zoo.make_sym(3), kmax=0) is None
    band = zoo.make_rectangular_band(2, 2)
    assert rb_ideal_level(band, 0) is None and sandwich_ideal_level(band, kmax=0) is None


def test_the_commutation_probes_refute_groups_with_their_identity_at_0():
    # row 0 alone is the identity's, equal to its column in every group
    for S in (zoo.make_sym(3), zoo.make_dihedral(20), zoo.make_heisenberg(3)):
        rows = spread(S.n, classify_mod._PROBES)
        assert np.array_equal(S.table[0], S.table[:, 0])
        assert not np.array_equal(S.table[rows], S.table[:, rows].T)
        assert classify_mod._commutation_refuted(S, np.arange(S.n))
        assert central_commutation_level(S) is None


def _level_or_error(fn, S, kmax, budget):
    try:
        return fn(Semigroup.trusted(S.table), kmax, budget)
    except BudgetExceededError:
        return "over budget"


def test_commutation_kernel_matches_per_a_reference(zoo_small):
    levels = set()
    for name, (S, _, _) in zoo_small.items():
        for kmax, budget in ((6, 10**8), (3, 10**8), (6, 1_000)):
            got = _level_or_error(central_commutation_level, S, kmax, budget)
            ref = _level_or_error(_commutation_level_reference, S, kmax, budget)
            assert got == ref, (name, kmax, budget)
            levels.add(got)
    assert {0, 1, None, "over budget"} <= levels


def test_commutation_kernel_matches_on_random_semigroups():
    levels = set()
    for S in random_semigroups(200, seed=5):
        for budget in (10**8, 50_000):
            got = _level_or_error(central_commutation_level, S, 6, budget)
            assert got == _level_or_error(_commutation_level_reference, S, 6, budget), S.table.tolist()
            levels.add(got)
    # the draw reaches levels above 1, refutations and the budget guard
    assert {0, 1, None, "over budget"} <= levels and any(
        isinstance(k, int) and k > 1 for k in levels
    )


def _naive_levels(S, kmax):
    """(k, members of S^k) for k = 1 .. kmax, built as S^(k+1) = S^k S over
    python sets and stopped once the chain is stable."""
    table = S.table.tolist()
    level, k = set(range(S.n)), 1
    while k <= kmax:
        yield k, np.array(sorted(level), dtype=np.int64)
        nxt = {table[a][b] for a in level for b in range(S.n)}
        if nxt == level:
            return
        level, k = nxt, k + 1


def _rb_level_reference(S, kmax):
    """Ascending scan: the least level whose ideal satisfies x*x = x and
    x*y*z = x*z, the definition of a rectangular band."""
    table = S.table.astype(np.int64)
    for k, members in _naive_levels(S, kmax):
        xy = table[np.ix_(members, members)]
        if (np.diagonal(xy) == members).all() and all(
            np.array_equal(table[xy[i]][:, members], np.broadcast_to(xy[i], (members.size,) * 2))
            for i in range(members.size)
        ):
            return k
    return None


def _sandwich_level_reference(S, kmax, budget):
    """Ascending scan with a budget check per level: the least level whose
    ideal satisfies x*y*z = x*y^(w+1)*z and whose completely regular
    elements are closed under products."""
    table = S.table.astype(np.int64)
    om = S.omega_powers
    for k, members in _naive_levels(S, kmax):
        if members.size**2 > budget:
            raise BudgetExceededError(f"level {k}")
        wp1 = table[om[members], members]
        xy, xyw = table[np.ix_(members, members)], table[np.ix_(members, wp1)]
        if all(np.array_equal(table[xy[i]][:, members], table[xyw[i]][:, members]) for i in range(members.size)):
            cr = set(members[wp1 == members].tolist())
            if all(int(table[a, b]) in cr for a in cr for b in cr):
                return k
    return None


def _rb_level(S, kmax, budget):
    return rb_ideal_level(S, kmax)


def test_level_flags_match_ascending_reference_scans(zoo_small):
    tables = [S for S, _, _ in zoo_small.values()] + random_semigroups(200, seed=11)
    seen = {"rb": set(), "sandwich": set()}
    for S in tables:
        for kmax in (1, 3, 6):
            for budget in (10**8, 1_000):
                for name, fn, ref in (
                    ("rb", _rb_level, lambda S, kmax, budget: _rb_level_reference(S, kmax)),
                    ("sandwich", sandwich_ideal_level, _sandwich_level_reference),
                ):
                    got = _level_or_error(fn, S, kmax, budget)
                    assert got == _level_or_error(ref, S, kmax, budget), (name, kmax, budget, S.table.tolist())
                    seen[name].add(got)
    # the draw reaches levels above 1, refutations and the budget guard
    assert {1, None} <= seen["rb"] and any(isinstance(k, int) and k > 1 for k in seen["rb"])
    assert {1, None, "over budget"} <= seen["sandwich"]
    assert any(isinstance(k, int) and k > 1 for k in seen["sandwich"])


def test_the_sandwich_identity_closes_the_completely_regular_part(zoo_small):
    # _sandwich_holds checks only the identity, by the argument in its docstring
    tables = [S for S, _, _ in zoo_small.values()] + random_semigroups(200, seed=13)
    holding = 0
    for S in tables:
        for _, members in _ideal_levels(S, 6):
            if classify_mod._sandwich_holds(S, members):
                holding += 1
                regular = members[S.completely_regular_elements().mask[members]]
                assert not products_outside(S, regular).size, S.table.tolist()
    assert holding > 100


def test_ideal_chain_matches_the_naive_chain(zoo_small, monkeypatch):
    import slpforge.semigroup

    tables = [S for S, _, _ in zoo_small.values()] + random_semigroups(200, seed=11)
    lengths = set()
    for block in (None, 1):  # the whole scatter, then blocks of one row from the squares on
        if block is not None:
            monkeypatch.setattr(slpforge.semigroup, "_SCATTER_BLOCK", block)
        for S in tables:
            chain = ideal_chain(Semigroup.trusted(S.table))
            naive = [members for _, members in _naive_levels(S, S.n + 1)]
            assert [np.flatnonzero(mask).tolist() for mask in chain] == [m.tolist() for m in naive]
            lengths.add(len(chain))
    assert {1, 2, 3} <= lengths


def test_rb_ideal_level():
    assert rb_ideal_level(zoo.make_rectangular_band(3, 3)) == 1
    w = zoo.make_u_witness(3)
    # S^k collapses to the zero element: a one-point rectangular band
    assert rb_ideal_level(w.semigroup, kmax=6) is not None
    assert rb_ideal_level(zoo.make_cyclic(6)) is None
    base, bgens, _ = zoo.build_family("rb", [2, 2])
    T, _ = zoo.make_nilpotent_extension(
        zoo.make_rectangular_band(2, 2), 2, [0, 3], 3
    )
    assert rb_ideal_level(T) is not None


def test_sandwich_level():
    S, gens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 9])
    assert sandwich_ideal_level(S) == 1
    # at small n every triple product of the ideal dies, so the identity holds
    # vacuously at k = ceil((n+1)/3); above that threshold it must be refuted
    w = zoo.make_obstruction_witness("T", 4)
    assert sandwich_ideal_level(w.semigroup, kmax=1) is None
    assert sandwich_ideal_level(w.semigroup, kmax=2) == 2
    w12 = zoo.make_obstruction_witness("T", 12)
    assert sandwich_ideal_level(w12.semigroup, kmax=4) is None


def test_classify_z6():
    rep = classify(zoo.make_cyclic(6))
    assert rep.commutation_level == 0
    assert rep.is_group and rep.groups_solvable
    assert rep.recommended == "permutative"


def test_classify_rb():
    rep = classify(zoo.make_rectangular_band(2, 3))
    assert rep.is_band and rep.is_normal_band
    assert rep.completely_regular
    assert rep.rb_ideal_level == 1
    assert rep.recommended == "bounded-diameter"


def test_classify_u_witness():
    rep = classify(zoo.make_u_witness(4).semigroup)
    assert rep.commutation_level == 0
    assert not rep.completely_regular
    assert rep.recommended == "bounded-diameter"  # nilpotent: S^k is trivial RB


def test_classify_lrb_flags():
    rep = classify(zoo.make_obstruction_witness("LRB", 4).semigroup)
    assert rep.is_band and rep.is_lrb and not rep.is_rrb
    assert rep.is_normal_band is False
    assert rep.completely_regular


def test_classify_groups():
    rep = classify(zoo.make_sym(4))
    assert rep.is_group and rep.groups_solvable
    assert rep.recommended == "group-solvable-bw"
    rep = classify(zoo.make_alt(5))
    assert rep.is_group and not rep.groups_solvable
    assert rep.recommended == "group-bsz"


def test_classify_extension_over_abelian_base_is_permutative():
    # products of two extension elements already land in the base, which is a
    # normal band of abelian groups, so central commutation holds at level 1
    base, bgens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    T, _ = zoo.make_nilpotent_extension(base, len(bgens), bgens, 2)
    rep = classify(T)
    assert rep.sandwich_level is not None
    assert rep.commutation_level == 1
    assert rep.recommended == "permutative"


def _general_extension():
    S3 = zoo.make_sym(3)
    base = zoo.make_normal_band_of_groups("product", p=2, q=2, group=S3)
    a = zoo.perm_index(3, (1, 0, 2))
    b = zoo.perm_index(3, (1, 2, 0))
    assignment = [0 * 6 + a, 0 * 6 + b, 3 * 6 + a, 3 * 6 + b]
    from slpforge.semigroup import closure

    assert closure(base, assignment).cardinality == base.n
    T, _ = zoo.make_nilpotent_extension(base, len(assignment), assignment, 2)
    return T


def test_classify_general_extension_nonabelian_base():
    T = _general_extension()
    rep = classify(T)
    assert rep.commutation_level is None
    assert not rep.completely_regular
    assert rep.sandwich_level is not None
    assert rep.recommended == "general"


def test_band_flags_need_a_band():
    # a null semigroup has xyx = xy = yx = 0, but x*x = 0 != x: not a band
    rep = classify(Semigroup.trusted(np.zeros((3, 3), dtype=np.int64)))
    assert not rep.is_band
    assert (rep.is_lrb, rep.is_rrb, rep.is_normal_band) == (False, False, False)


def test_stable_ideal_level_on_the_t_witness():
    # T4: the ten intervals of [1..4] and a zero; S^k keeps the intervals of
    # length >= k, so the chain stops at S^5 = {0}
    T4 = zoo.make_obstruction_witness("T", 4).semigroup
    assert stable_ideal_level(T4) == (5, [11, 7, 4, 2, 1, 1])


def test_stable_ideal_chain():
    w = zoo.make_u_witness(4)
    rep = classify(w.semigroup)
    assert rep.ideal_sizes[0] == 16
    assert rep.ideal_sizes[-1] == 1


# -- the lazy recommendation ladder ------------------------------------------


def _fresh(S: Semigroup) -> Semigroup:
    return Semigroup.trusted(S.table)


def test_recommend_matches_classify_on_zoo(zoo_small):
    for name, (S, _, _) in zoo_small.items():
        assert recommend(_fresh(S)) == classify(_fresh(S)).recommended, name


def test_recommend_matches_classify_on_random_semigroups():
    seen = set()
    for S in random_semigroups(200, seed=20261018):
        rec = recommend(_fresh(S))
        assert rec == classify(_fresh(S)).recommended, S.table.tolist()
        seen.add(rec)
    # the draw reaches rungs 1, 2, 5 and 6; each of its completely regular
    # non-groups fails the decomposition, so ``RUNG_PINS`` pins rung 4
    assert {"bounded-diameter", "permutative", "general"} <= seen


def _table(rows) -> Semigroup:
    return Semigroup.trusted(np.asarray(rows))


# completely regular, but H is not a congruence: rung 4 refuses it
CR_H_NOT_CONGRUENCE = [[2, 1, 0, 3], [3, 1, 1, 3], [0, 1, 2, 3], [1, 1, 3, 3]]
# the sandwich identity holds in some S^k, but H is not a congruence on the
# completely regular part of S^k: rung 5 refuses it
SANDWICH_PART_FAILS = [
    [2, 3, 2, 5, 0, 5],
    [2, 4, 2, 5, 1, 5],
    [2, 5, 2, 5, 2, 5],
    [2, 0, 2, 5, 3, 5],
    [2, 1, 2, 5, 4, 5],
    [2, 2, 2, 5, 5, 5],
]
# no S^k satisfies the sandwich identity, though the completely regular part
# of the stable ideal decomposes: rung 6
NO_SANDWICH = [[0, 1, 3, 3], [3, 3, 1, 3], [3, 3, 2, 3], [3, 3, 3, 3]]

# one table per rung of ``recommend``, and where ``auto`` sends it
RUNG_PINS = {
    "1-rectangular-band": (lambda: zoo.make_rectangular_band(3, 4), "bounded-diameter"),
    "2-central-commutation": (lambda: zoo.build_family("rb-x-cyclic", [2, 2, 3])[0], "permutative"),
    "3-group": (lambda: zoo.make_dihedral(4), "group-solvable-bw"),
    "4-normal-band": (
        lambda: zoo.make_normal_band_of_groups("product", p=2, q=2, group=zoo.make_sym(3)),
        "normal-band",
    ),
    "4-band-not-normal": (lambda: zoo.build_family("lrb-witness", [4])[0], "bounded-diameter"),
    "4-h-not-congruence": (lambda: _table(CR_H_NOT_CONGRUENCE), "bounded-diameter"),
    "5-general": (_general_extension, "general"),
    "5-part-fails": (lambda: _table(SANDWICH_PART_FAILS), "bounded-diameter"),
    "6-no-sandwich": (lambda: _table(NO_SANDWICH), "bounded-diameter"),
}


@pytest.mark.parametrize("case", list(RUNG_PINS))
def test_auto_takes_one_rung_per_table(case):
    build, expected = RUNG_PINS[case]
    S = build()
    assert recommend(_fresh(S)) == expected
    # the whole table as generators, so ``auto`` decides on S itself
    gens = list(range(S.n))
    for t in range(S.n):
        report = compress(S, gens, t, "auto")
        assert (report.strategy, report.extras) == (expected, {"classified": expected}), t


def test_rung_pins_fail_where_they_say():
    lrb = zoo.build_family("lrb-witness", [4])[0]
    assert lrb.is_completely_regular()
    with pytest.raises(BandNotNormalError):
        band_of_groups_decomposition(lrb)
    cr = _table(CR_H_NOT_CONGRUENCE)
    assert cr.is_completely_regular()
    with pytest.raises(HNotCongruenceError):
        band_of_groups_decomposition(cr)
    S = _table(SANDWICH_PART_FAILS)
    k = sandwich_ideal_level(S)
    assert not S.is_completely_regular() and k is not None
    part = ElementSet(S.completely_regular_elements().mask & ideal_chain(S)[k - 1])
    with pytest.raises(HNotCongruenceError):
        band_of_groups_decomposition(sub_semigroup(S, part)[0])
    assert sandwich_ideal_level(_table(NO_SANDWICH)) is None


def test_recommend_is_keyed_by_budget():
    S, _, _ = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    S = _fresh(S)
    assert recommend(S) == "permutative"
    # an over-budget commutation scan counts as "no"; the next rung decides
    tight = Config(scan_budget=10)
    assert recommend(S, tight) == "normal-band"
    assert classify(_fresh(S), config=tight).recommended == "normal-band"
    assert recommend(S) == "permutative"


def _counting(monkeypatch, name):
    calls = []
    original = getattr(classify_mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(classify_mod, name, counted)
    return calls


def test_recommend_skips_flags_past_the_deciding_rung(monkeypatch, zoo_small):
    sandwich = _counting(monkeypatch, "sandwich_ideal_level")
    bands = _counting(monkeypatch, "_band_flags")
    # a failed group view is not memoised, so only the memoised
    # recommendation keeps a reused non-group table from retrying it
    views = _counting(monkeypatch, "group_view")
    # small members of the families the benchmark's zoo-auto workload uses;
    # all of them are decided above the sandwich rung
    decided_early = {
        "rb": [5, 5],
        "power-witness": [3, 2],
        "dihedral": [16],
        "heisenberg": [3],
        "rb-x-cyclic": [2, 2, 4],
        "semilattice": [4],
        "lrb-witness": [4],
        "nilpotent-rb": [2, 2, 3, 2],
        "alt": [5],
    }
    cases = dict(zoo_small)
    for family, params in decided_early.items():
        cases[family] = zoo.build_family(family, params)
    for name, (S, _, _) in cases.items():
        T = _fresh(S)
        before = len(sandwich)
        first = recommend(T)
        reached_sandwich = len(sandwich) - before
        assert reached_sandwich <= 1, name
        views_before = len(views)
        for _ in range(3):
            assert recommend(T) == first, name
        assert len(sandwich) == before + reached_sandwich, name
        assert len(views) == views_before, name
        if name in decided_early:
            assert reached_sandwich == 0, name
    assert bands == []


def test_classify_reuses_the_flags_recommend_computed(monkeypatch):
    S = _fresh(_general_extension())
    sandwich = _counting(monkeypatch, "sandwich_ideal_level")
    assert recommend(S) == "general"
    classify(S)
    classify(S)
    assert len(sandwich) == 1


# -- translation classes and the medial test ----------------------------------


def _partition(ids: np.ndarray) -> list[int]:
    """Relabel class ids by first occurrence, so equal partitions compare equal."""
    first: dict[int, int] = {}
    return [first.setdefault(int(c), len(first)) for c in ids]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("shape", [(40, 3), (200, 1), (64, 17), (7, 0), (1, 5)])
def test_row_classes_match_unique_rows(dtype, shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    high = 3 if dtype is np.uint8 else 70000
    rows = rng.integers(0, high, size=shape, dtype=np.int64).astype(dtype)
    if shape[0] > 1:
        rows[rng.integers(0, shape[0], size=shape[0] // 2)] = rows[0]
    _, ref = np.unique(rows, axis=0, return_inverse=True)
    assert _partition(_row_classes(rows)) == _partition(ref.ravel())
    # a strided (transposed) input is handled too
    cols = np.ascontiguousarray(rows.T).T
    assert _partition(_row_classes(cols)) == _partition(ref.ravel())


def test_medial_matches_normal_band_identity(zoo_small):
    bands = 0
    for name, (S, _, _) in zoo_small.items():
        assert is_medial(S) == satisfies_identity(S, *IDENTITY_NORMAL_BAND), name
        idx = np.arange(S.n)
        bands += bool((S.table[idx, idx] == idx).all())
    for variant in ("LRB", "RRB"):
        for n in (2, 3):
            S = zoo.make_obstruction_witness(variant, n).semigroup
            assert is_medial(S) == satisfies_identity(S, *IDENTITY_NORMAL_BAND)
    assert bands >= 4


def test_group_route_is_rung_three(zoo_small):
    routed = {}
    cases = dict(zoo_small)
    cases["A5"] = (zoo.make_alt(5), zoo._alt_generators(5), None)
    for name, (S, _, _) in cases.items():
        try:
            G = group_view(S)
        except SlpforgeError:
            continue
        routed[name] = group_route(G)
        T = _fresh(S)
        if recommend(T) not in ("bounded-diameter", "permutative"):
            assert recommend(T) == routed[name] == group_route(group_view(T)), name
    assert routed["A5"] == "group-bsz"
    assert routed["S4"] == routed["D8"] == routed["H3"] == "group-solvable-bw"


def test_ladder_answers_are_table_keys(zoo_small):
    tables = [S for S, _, _ in zoo_small.values()] + random_semigroups(120, seed=11)
    tables.append(zoo.make_alt(5))
    routes = set()
    for S in tables:
        assert recommend(_fresh(S)) in STRATEGIES, S.table.tolist()
        try:
            G = group_view(S)
        except SlpforgeError:
            continue
        routes.add(group_route(G))
    assert routes == set(GROUP_STRATEGIES) - {"group-solvable"}


def test_classify_decides_on_the_generated_sub_semigroup(zoo_small):
    rng = random.Random(13)
    cases = [(S, gens) for S, gens, _ in zoo_small.values()]
    for S in random_semigroups(40, seed=13):
        cases.append((S, rng.sample(range(S.n), rng.randint(1, 2))))
    # one rotation of D8 generates Z4: permutative, not the group route
    cases.append((zoo.make_dihedral(4), [1]))
    for S, gens in cases:
        members = sorted(closure(S, gens))
        t = members[len(members) // 2]
        report = compress(_fresh(S), gens, t, "auto")
        assert classify(_fresh(S), gens).recommended == report.extras["classified"], (
            S.table.tolist(),
            gens,
        )
    assert classify(zoo.make_dihedral(4), [1]).recommended == "permutative"
    assert classify(zoo.make_dihedral(4)).recommended == "group-solvable-bw"
