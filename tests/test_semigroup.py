import math
import random

import numpy as np
import pytest

from slpforge import semigroup, zoo
from slpforge.errors import (
    BudgetExceededError,
    EmptyGeneratorsError,
    NotAnIdealError,
    NotAssociativeError,
    OutOfRangeError,
)
from slpforge.semigroup import (
    Semigroup,
    closure,
    direct_product,
    ideal_chain,
    ideal_power,
    is_ideal,
    rees_quotient,
    shortest_word,
    shortest_words,
    sub_semigroup,
    table_dtype,
    validate_table,
    _WordTree,
)
from slpforge.sets import ElementSet

from conftest import py_closure, py_shortest_words, random_semigroups, table_of


def test_trivial_semigroup():
    S = validate_table([[0]])
    assert S.n == 1


def test_z3_valid():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    S = validate_table(table)
    assert S.n == 3


def test_corrupted_z3_reports_witness():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    table[1][1] = 0
    # oracle: find some failing triple by brute force
    bad = None
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    bad = (a, b, c)
                    break
    assert bad is not None
    with pytest.raises(NotAssociativeError) as err:
        validate_table(table)
    a, b, c = err.value.witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_out_of_range_entry():
    with pytest.raises(OutOfRangeError):
        validate_table([[0, 1], [1, 5]])


@pytest.mark.parametrize("read_only", [False, True])
@pytest.mark.parametrize(
    "dtype,entry", [(np.int64, -1), (np.int64, 2), (np.uint8, 2), (np.uint8, 255), (np.int16, -3)]
)
def test_out_of_range_entry_from_outside_at_any_dtype(dtype, entry, read_only):
    table = np.zeros((2, 2), dtype=dtype)
    table[1, 0] = entry
    table.setflags(write=not read_only)
    with pytest.raises(OutOfRangeError, match=r"entry at \(1, 0\)"):
        Semigroup(table)
    with pytest.raises(OutOfRangeError, match=r"entry at \(1, 0\)"):
        validate_table(table)


@pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,)])
def test_non_square_or_empty_table_from_outside(shape):
    with pytest.raises(OutOfRangeError):
        Semigroup(np.zeros(shape, dtype=np.int64))
    with pytest.raises(OutOfRangeError):
        validate_table(np.zeros(shape, dtype=np.int64))


def test_read_only_table_at_stored_dtype_is_shared():
    R = zoo.make_rectangular_band(3, 5)
    assert not R.table.flags.writeable and R.table.dtype == np.uint8
    gens = zoo.rectangular_band_generators(3, 5)
    for wrapped in (Semigroup.trusted(R.table), Semigroup(R.table), validate_table(R.table, gens_hint=gens)):
        assert np.shares_memory(wrapped.table, R.table)
    writeable = np.array(R.table)
    wider = R.table.astype(np.int64)
    wider.setflags(write=False)
    for source in (writeable, wider):
        S = Semigroup.trusted(source)
        assert not np.shares_memory(S.table, source)
        assert S.table.dtype == np.uint8 and not S.table.flags.writeable


def test_sub_tables_are_built_read_only_at_the_stored_dtype(monkeypatch):
    built = []
    trusted = Semigroup.trusted.__func__

    def recording(cls, table, name=""):
        built.append(table)
        return trusted(cls, table, name)

    monkeypatch.setattr(Semigroup, "trusted", classmethod(recording))

    def check(result, reference):
        assert np.shares_memory(result.table, built[-1])
        assert result.table.dtype == table_dtype(result.n) and not result.table.flags.writeable
        assert np.array_equal(result.table, reference)

    D, S4 = zoo.make_dihedral(150), zoo.make_sym(4)  # D300 at uint16; its 150 rotations at uint8
    for S, members in ((D, closure(D, [1])), (D, ElementSet.full(D.n)), (S4, closure(S4, [5]))):
        mem = members.to_array()
        to_sub = np.full(S.n, -1, dtype=np.int64)
        to_sub[mem] = np.arange(mem.size)
        check(sub_semigroup(S, members)[0], to_sub[S.table[np.ix_(mem, mem)].astype(np.int64)])

    u3 = zoo.make_u_witness(3).semigroup
    sl9 = zoo.make_subset_semilattice(9).semigroup  # 512 elements: a quotient at uint16
    for S, I in ((u3, [u3.zero_element()]), (sl9, [sl9.zero_element()]), (u3, range(u3.n))):
        I = ElementSet.from_indices(S.n, list(I))
        keep = np.flatnonzero(~I.mask)
        proj = np.full(S.n, keep.size, dtype=np.int64)
        proj[keep] = np.arange(keep.size)
        reference = np.full((keep.size + 1,) * 2, keep.size, dtype=np.int64)
        reference[: keep.size, : keep.size] = proj[S.table[np.ix_(keep, keep)].astype(np.int64)]
        check(rees_quotient(S, I)[0], reference)

    # 1 x 256 fits uint8 only once S's entries are scaled; 150 x 2 is stored at uint16
    for S, T in ((zoo.make_cyclic(1), zoo.make_cyclic(256)), (zoo.make_cyclic(3), S4), (zoo.make_cyclic(150), zoo.make_cyclic(2))):
        sa = np.repeat(np.arange(S.n), T.n)
        tb = np.tile(np.arange(T.n), S.n)
        reference = S.table.astype(np.int64)[np.ix_(sa, sa)] * T.n + T.table.astype(np.int64)[np.ix_(tb, tb)]
        check(direct_product(S, T), reference)


def test_lights_test_over_a_one_element_hint():
    S = zoo.make_cyclic(30)
    revalidated = validate_table(S.table, gens_hint=[1])
    assert revalidated.n == 30
    bad = np.array(S.table, dtype=np.int64, copy=True)
    bad[7, 11] = (bad[7, 11] + 1) % 30
    with pytest.raises(NotAssociativeError):
        validate_table(bad, gens_hint=[1])


def test_hint_may_be_any_integer_sequence():
    S = zoo.make_dihedral(8)
    gens = zoo.dihedral_generators(8)
    for hint in (np.array(gens), tuple(gens), np.array(gens[:1])):
        assert validate_table(S.table, gens_hint=hint).n == S.n
    with pytest.raises(OutOfRangeError):
        validate_table(S.table, gens_hint=np.array([1, S.n]))


def _all_triples_witness(table):
    """Reference check: the first (a, b, c) with (ab)c != a(bc), or None."""
    table = np.asarray(table, dtype=np.int64)
    for a in range(table.shape[0]):
        lhs, rhs = table[table[a]], table[a][table]  # (b, c) -> (ab)c, a(bc)
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            return a, int(b), int(c)
    return None


def _greedy_reference(table) -> list[int]:
    """Least element outside the pairwise closure, closing from scratch each time."""
    gens: list[int] = []
    reached: set[int] = set()
    while len(reached) < len(table):
        gens.append(min(set(range(len(table))) - reached))
        reached = py_closure(table, gens)
    return gens


def _null_table(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=np.int64)  # every product is the zero 0


def test_hintless_validation_accepts_random_semigroups():
    for S in random_semigroups(60, seed=5):
        assert _all_triples_witness(S.table) is None
        assert validate_table(S.table).n == S.n


def test_hintless_validation_rejects_random_magmas_with_a_failing_triple():
    sizes = set()
    for table in _non_associative_tables(80, seed=3, sizes=(3, 41)):
        assert _all_triples_witness(table) is not None
        with pytest.raises(NotAssociativeError) as err:
            validate_table(table)
        a, b, c = err.value.witness
        assert table[table[a, b], c] != table[a, table[b, c]]
        assert b in _greedy_reference(table.tolist())
        sizes.add(table.shape[0])
    assert min(sizes) <= 5 and max(sizes) >= 35


def test_greedy_generators_match_the_from_scratch_reference():
    tables = [S.table for S in random_semigroups(40, seed=9)]
    tables += _non_associative_tables(40, seed=4, sizes=(3, 41))
    tables.append(_null_table(40))
    for table in tables:
        S = Semigroup.trusted(table)
        assert S._greedy_generators() == _greedy_reference(table_of(S)), table_of(S)
    null = Semigroup.trusted(_null_table(512))
    assert null._greedy_generators() == list(range(512))
    assert validate_table(null.table).n == 512


@pytest.mark.parametrize("p, q", [(1, 1), (3, 5), (20, 30)])
def test_rectangular_bands_revalidate_from_scratch(p, q):
    R = zoo.make_rectangular_band(p, q)
    gens = zoo.rectangular_band_generators(p, q)
    assert validate_table(R.table, gens_hint=gens).n == p * q
    assert closure(R, gens) == ElementSet.full(p * q)


def _non_associative_tables(count: int, seed: int, sizes=(3, 7)):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(*sizes))
        table = rng.integers(0, n, size=(n, n))
        if not np.array_equal(table[table, :], table[:, table]):  # (ab)c vs a(bc)
            out.append(table)
    return out


# -- Light's test over one row and one column per class ---------------------


def _light_reference(table, hint):
    """The first (a, g, b) with (a*g)*b != a*(g*b), in the order g, a, b over
    every a and b: g runs over the hint when it generates the table, else
    over the greedy set."""
    rows = table.tolist()
    gens = list(dict.fromkeys(int(g) for g in (() if hint is None else hint)))
    if not gens or len(py_closure(rows, gens)) < len(rows):
        gens = _greedy_reference(rows)
    table = np.asarray(table, dtype=np.int64)
    for g in gens:
        bad = table[table[:, g]] != table[:, table[g]]  # (a, b) -> (a*g)*b vs a*(g*b)
        if bad.any():
            a, b = np.argwhere(bad)[0]
            return int(a), g, int(b)
    return None


def _repeated_class_semigroups() -> dict:
    """Associative tables whose rows or columns repeat, with generators."""
    rb_x_z, rb_x_z_gens, _ = zoo.build_family("rb-x-cyclic", [2, 3, 2])
    out = {"RB(2,3)xZ2": (rb_x_z.table, rb_x_z_gens), "null(9)": (_null_table(9), list(range(9)))}
    for p, q in ((3, 4), (12, 1), (1, 12)):
        out[f"RB({p},{q})"] = (zoo.make_rectangular_band(p, q).table, zoo.rectangular_band_generators(p, q))
    return out


def _magma_with_repeats(rng: random.Random, n: int) -> np.ndarray:
    """A random table on n elements in which row a copies row rmap[a] and
    column b copies column cmap[b] of a random table."""
    base = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    rmap = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    cmap = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    return base[np.ix_(rmap, cmap)]


def _perturbed_with_repeats(rng: random.Random) -> tuple[np.ndarray, list[int]]:
    """One of ``_repeated_class_semigroups`` with one to three entries changed."""
    table, gens = rng.choice(list(_repeated_class_semigroups().values()))
    table = np.array(table, dtype=np.int64)
    n = len(table)
    for _ in range(rng.randint(1, 3)):
        table[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
    return table, gens


@pytest.fixture
def grids(monkeypatch):
    """Force the class path of Light's test on every table; returns the
    (rows, columns) of each grid it runs over."""
    seen = []
    reps = semigroup._class_representatives

    def recording(lines, probe):
        out = reps(lines, probe)
        seen.append(len(out))
        return out

    monkeypatch.setattr(semigroup, "_class_representatives", recording)
    monkeypatch.setattr(semigroup, "_LIGHT_CLASS_READS", 1)
    return seen


@pytest.fixture(params=[1, 2])
def block_rows(request, monkeypatch):
    """Light's test takes its grid 1 or 2 rows per block, so witnesses are
    looked for across block boundaries."""
    rows = request.param

    class Block(int):  # the rows per block are _LIGHT_BLOCK // (grid columns)
        def __floordiv__(self, columns):
            return rows

    monkeypatch.setattr(semigroup, "_LIGHT_BLOCK", Block(rows))
    return rows


def test_light_classes_report_the_row_major_witness(grids, block_rows):
    rng = random.Random(20261021)
    cases = []
    for i in range(160):
        if i % 2:
            table = _magma_with_repeats(rng, rng.randint(3, 30))
            gens = list(range(len(table)))
        else:
            table, gens = _perturbed_with_repeats(rng)
        hints = [None, rng.sample(gens, len(gens)), rng.sample(range(len(table)), len(table)) * 2]
        cases.append((table, hints[i % 3]))
    found = 0
    for table, hint in cases:
        expected = _light_reference(table, hint)
        found += expected is not None
        assert _witness(table, hint) == expected, (table.tolist(), hint)
    assert found > 120
    # the grids were smaller than the tables: one row and one column per class
    assert sum(grids) < sum(len(table) for table, _ in cases) * 2


def _witness(table, hint):
    try:
        validate_table(table, gens_hint=hint)
    except NotAssociativeError as exc:
        return exc.witness
    return None


def test_light_classes_at_their_own_threshold_report_the_row_major_witness():
    """Unforced: 128 generators of 128 rows reach the 2^20 threshold."""
    rng = random.Random(7)
    found = 0
    for base in (_null_table(128), zoo.make_rectangular_band(128, 1).table, zoo.make_rectangular_band(1, 128).table):
        table = np.array(base, dtype=np.int64)
        for _ in range(3):
            table[rng.randrange(128), rng.randrange(128)] = rng.randrange(1, 128)
        hint = rng.sample(range(128), 128)
        expected = _light_reference(table, hint)
        found += expected is not None
        assert _witness(table, hint) == expected
    assert found >= 2  # the left- and right-zero bands


def test_lights_test_reports_the_first_failing_generator_across_blocks(monkeypatch):
    # 1 fails in row 0, but 0 comes first in the hint and fails only in row 1
    table = np.array([[0, 0, 2], [2, 0, 1], [2, 0, 1]])
    assert table[table[0, 1], 0] != table[0, table[1, 0]]
    assert _light_reference(table, [0, 1]) == (1, 0, 1)
    monkeypatch.setattr(semigroup, "_LIGHT_BLOCK", 1)  # one row of (a*g)*b per block
    assert _witness(table, [0, 1]) == (1, 0, 1)


def test_light_classes_accept_tables_whose_rows_and_columns_repeat(monkeypatch, block_rows):
    rb_x_z, rb_x_z_gens, _ = zoo.build_family("rb-x-cyclic", [6, 6, 8])
    tables = dict(_repeated_class_semigroups())
    tables["RB(6,6)xZ8"] = (rb_x_z.table, rb_x_z_gens)
    tables["null(128)"] = (_null_table(128), list(range(128)))
    for p, q in ((20, 30), (256, 1), (1, 256)):
        tables[f"RB({p},{q})"] = (zoo.make_rectangular_band(p, q).table, zoo.rectangular_band_generators(p, q))
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(semigroup, "_LIGHT_CLASS_READS", 1)
        for name, (table, gens) in tables.items():
            for hint in (None, gens):
                assert validate_table(table, gens_hint=hint).n == len(table), (name, forced, hint)


def test_class_representatives_are_the_least_of_each_class():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 12)
        lines = _magma_with_repeats(rng, n)
        cols = sorted(rng.sample(range(n), rng.randint(1, n)))
        expected = [a for a in range(n) if all((lines[a] != lines[b]).any() for b in range(a))]
        got = semigroup._class_representatives(lines, lines[:, cols])
        assert got.tolist() == expected
    # rows that agree on the probe but not beyond it
    lines = np.array([[0, 1, 2], [0, 2, 1], [0, 1, 2]])
    assert semigroup._class_representatives(lines, lines[:, :1]).tolist() == [0, 1]
    R = zoo.make_rectangular_band(4, 5).table
    gens = zoo.rectangular_band_generators(4, 5)
    assert semigroup._class_representatives(R, R[:, gens]).tolist() == [0, 5, 10, 15]
    assert semigroup._class_representatives(R.T, R[gens, :].T).tolist() == [0, 1, 2, 3, 4]


def test_hint_that_misses_left_normed_words_still_catches_non_associativity():
    kinds = set()
    for table in _non_associative_tables(300, seed=7):
        S = Semigroup.trusted(table)
        hint = [S.n - 1, S.n - 2]
        words, magma = S._word_closure_mask(hint), S._magma_closure_mask(hint)
        assert not (words & ~magma).any()  # left-normed words are pairwise products
        kinds.add((bool(words.all()), bool(magma.all())))
        with pytest.raises(NotAssociativeError) as err:
            validate_table(table, gens_hint=hint)
        a, b, c = err.value.witness
        assert table[table[a, b], c] != table[a, table[b, c]]
        if magma.all():
            # Light's test ran over the hint itself, not a greedy substitute
            assert b in hint
    # the hint generates by left-normed words, only by pairwise products, or not at all
    assert kinds == {(True, True), (False, True), (False, False)}


def test_word_closure_equals_magma_closure_on_random_semigroups():
    rng = np.random.default_rng(11)
    for S in random_semigroups(100, seed=11):
        for size in (1, 2, 3):
            gens = rng.choice(S.n, size=min(size, S.n), replace=False).tolist()
            expect = S._magma_closure_mask(gens)
            assert np.array_equal(S._word_closure_mask(gens), expect), (S.table.tolist(), gens)
            assert closure(S, gens) == ElementSet(expect)


def test_validation_hands_the_hint_closure_on():
    S = zoo.make_dihedral(8)
    gens = zoo.dihedral_generators(8)
    seeded = validate_table(S.table, gens_hint=list(reversed(gens)) + gens[:1])
    key = ("closure", tuple(sorted(gens)))
    assert seeded._memo[key] == closure(S, gens) == ElementSet.full(S.n)
    # a hint that does not generate the table stores nothing
    rotations = validate_table(S.table, gens_hint=[1])
    assert closure(S, [1]).cardinality < S.n
    assert ("closure", (1,)) not in rotations._memo
    assert validate_table(S.table)._memo == {}


@pytest.mark.parametrize("hint", [[-1], [0, 3], [5]])
def test_hint_outside_the_table_is_rejected(hint):
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(OutOfRangeError, match="generator hint"):
        validate_table(table, gens_hint=hint)


def test_omega_power_group_is_identity():
    Z6 = zoo.make_cyclic(6)
    for g in range(6):
        assert Z6.omega_power(g) == 0


def test_zero_element_is_two_sided():
    # every z of a left-zero band has z*y = z, but y*z = y; right-zero dually
    assert zoo.make_rectangular_band(3, 1).zero_element() is None
    assert zoo.make_rectangular_band(1, 3).zero_element() is None
    assert zoo.make_u_witness(3).semigroup.zero_element() is not None


def test_omega_power_t_witness_generator_squares_to_zero():
    w = zoo.make_obstruction_witness("T", 2)
    S = w.semigroup
    zero = S.zero_element()
    for g in w.generators:
        assert S.omega_power(g) == zero


def test_omega_power_in_cyclic_subsemigroup():
    # <a : a^4 = a^2>: elements a, a^2, a^3 with a^4 = a^2
    table = [[min(i + j + 1, (i + j + 1 - 1) % 2 + 1) for j in range(3)] for i in range(3)]
    # build explicitly: index 0 = a, 1 = a^2, 2 = a^3; a^i * a^j = a^(i+j mod cycle)
    def power_index(e):
        while e > 3:
            e -= 2
        return e - 1

    table = [[power_index(i + j + 2) for j in range(3)] for i in range(3)]
    S = validate_table(table)
    # oracle: enumerate powers of a and test idempotence directly
    powers = [0]
    while True:
        nxt = table[powers[-1]][0]
        if nxt in powers:
            break
        powers.append(nxt)
    idem = [p for p in powers if table[p][p] == p]
    assert idem == [1]          # a^2 is the idempotent
    assert S.omega_power(0) == 1


def test_closure_z5():
    Z5 = zoo.make_cyclic(5)
    got = closure(Z5, [2])
    assert got == ElementSet.full(5)


def test_closure_rectangular_band_matches_oracle():
    R = zoo.make_rectangular_band(2, 3)
    gens = [0 * 3 + 0, 1 * 3 + 2]
    oracle = py_closure(table_of(R), gens)
    got = set(closure(R, gens))
    assert got == oracle
    assert got == {0, 5, 2, 3}  # (0,0), (1,2), (0,2), (1,0)


def test_closure_idempotent_and_monotone_on_zoo(zoo_small):
    for name, (S, gens, _) in zoo_small.items():
        full = closure(S, gens)
        again = closure(S, list(full))
        assert again == full, name
        sub = closure(S, gens[:1])
        assert not (sub.mask & ~full.mask).any(), name


def test_closure_matches_the_python_oracle_on_random_semigroups():
    rng = random.Random(17)
    for S in random_semigroups(60, seed=17):
        table = table_of(S)
        for size in (1, 2, 3):
            gens = rng.sample(range(S.n), min(size, S.n))
            assert set(closure(S, gens)) == py_closure(table, gens), (table, gens)


def _dihedral_subgroup(m, gens):
    """The subgroup of ``make_dihedral(m)`` that ``gens`` generate, by arithmetic.

    (s, i)(t, j) = (s + t, i + (-1)^s j), so its rotations are the multiples
    of the gcd of m, the rotations in gens and the differences of the
    reflections in gens, and its reflections are one coset of them.
    """
    rots = [g for g in gens if g < m]
    flips = [g - m for g in gens if g >= m]
    d = math.gcd(m, *rots, *(f - flips[0] for f in flips))
    members = set(range(0, m, d))
    if flips:
        members |= {m + (flips[0] + k) % m for k in range(0, m, d)}
    return members


@pytest.mark.parametrize("order", [2, 6, 64, 200, 2048])
def test_closure_of_cyclic_and_dihedral_groups_matches_oracles(order):
    # deep cyclic closures are where a round per power used to go
    m = order // 2
    rng = random.Random(order)
    cyclic, dihedral = zoo.make_cyclic(order), zoo.make_dihedral(m)
    cases = [(cyclic, [1], set(range(order))), (dihedral, [1 % order, m], set(range(order)))]
    for size in (1, 1, 2, 3):
        gens = rng.sample(range(order), min(size, order))
        cases.append((cyclic, gens, {k % order for k in range(0, order, math.gcd(order, *gens))}))
        cases.append((dihedral, gens, _dihedral_subgroup(m, gens)))
    for S, gens, expect in cases:
        got = set(closure(S, gens))
        assert got == expect, (S.name, gens)
        if order <= 200:
            assert got == py_closure(table_of(S), gens), (S.name, gens)


def test_closure_empty_raises():
    with pytest.raises(EmptyGeneratorsError):
        closure(zoo.make_cyclic(3), [])


def test_shortest_word_z5():
    Z5 = zoo.make_cyclic(5)
    word = shortest_word(Z5, [2], 1)
    assert word == [0, 0, 0]    # 2+2+2 = 6 = 1 mod 5


def test_shortest_word_direct_generator(zoo_small):
    for name, (S, gens, _) in zoo_small.items():
        w = shortest_word(S, gens, gens[0])
        assert w == [0], name


def test_shortest_word_absent():
    Z6 = zoo.make_cyclic(6)
    assert shortest_word(Z6, [2], 1) is None


def test_shortest_word_minimal_and_lexleast(zoo_small):
    for name, (S, gens, _) in zoo_small.items():
        if S.n > 60:
            continue
        oracle = py_shortest_words(table_of(S), gens)
        for t, expect in oracle.items():
            got = shortest_word(S, gens, t)
            assert got is not None and len(got) == len(expect), (name, t)
            assert got == expect, (name, t)


def test_shortest_word_lrb_needs_every_generator():
    w = zoo.make_obstruction_witness("LRB", 5)
    word = shortest_word(w.semigroup, w.generators, w.target)
    assert word == [0, 1, 2, 3, 4]


def _query_orders(S, gens, oracle):
    """Two target sequences: unreachable first, then deep to shallow; and a
    generator first, then deep to shallow with every target asked twice."""
    deep_first = sorted(oracle, key=lambda t: (-len(oracle[t]), t))
    unreachable = [t for t in range(S.n) if t not in oracle]
    return (
        unreachable[:1] + deep_first + unreachable,
        [gens[-1]] + [t for t in deep_first for _ in range(2)],
    )


def test_word_tree_matches_fresh_search_in_every_query_order():
    rng = random.Random(11)
    tables = [S for S in random_semigroups(40, seed=11) if S.n >= 2]
    for S in tables:
        # the transformation semigroup's own generators come first
        pool = range(min(S.n, 6))
        base = rng.sample(pool, k=min(len(pool), rng.randint(2, 4)))
        # one set in two orders, and with repeats: each tuple is its own
        # tree on the shared table, since the answer is positions into it
        tuples = (base, base[::-1], base[:1] + base, base + base[1:2])
        oracles = [py_shortest_words(table_of(S), gens) for gens in tuples]
        for order in range(2):
            reused = Semigroup.trusted(S.table)
            for gens, oracle in zip(tuples, oracles):
                for t in _query_orders(S, gens, oracle)[order]:
                    assert shortest_word(reused, gens, t) == oracle.get(t), (gens, t)


def test_word_tree_keys_are_generator_tuples():
    S = zoo.make_dihedral(4)
    r, s = zoo.dihedral_generators(4)
    for gens in ([r, s], [s, r], [r, r, s], [s, r, s]):
        oracle = py_shortest_words(table_of(S), gens)
        for t in range(S.n):
            assert shortest_word(S, gens, t) == oracle[t], (gens, t)
    trees = {key: v for key, v in S._memo.items() if key[0] == "word_tree"}
    assert set(trees) == {("word_tree", g) for g in [(r, s), (s, r), (r, r, s), (s, r, s)]}


def test_word_tree_interrupted_mid_level_is_dropped(monkeypatch):
    S = zoo.make_dihedral(8)
    gens = list(zoo.dihedral_generators(8))
    oracle = py_shortest_words(table_of(S), gens)
    deep = max(oracle, key=lambda t: len(oracle[t]))
    shortest_word(S, gens, gens[0])
    first = S._memo[("word_tree", tuple(gens))]

    def interrupted(tree):
        # the window between marking a level seen and moving the frontier
        lvl = tree.frontier
        nxt = tree.table[np.ix_(lvl, tree.gen_vals)].ravel()
        tree.seen[nxt] = True
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(_WordTree, "_grow", interrupted)
        with pytest.raises(KeyboardInterrupt):
            shortest_word(S, gens, deep)
    assert ("word_tree", tuple(gens)) not in S._memo
    for t in range(S.n):
        assert shortest_word(S, gens, t) == oracle[t], t
    assert S._memo[("word_tree", tuple(gens))] is not first


def test_word_listing_matches_bfs_at_every_depth():
    rng = random.Random(5)
    for S in random_semigroups(30, seed=5):
        gens = [rng.randrange(S.n) for _ in range(rng.randint(1, 3))]
        gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))  # a repeat
        table = table_of(S)
        depths = list(range(1, 7))
        rng.shuffle(depths)
        for d in depths:
            if rng.random() < 0.3:  # deepen the shared tree through a target
                shortest_word(S, gens, rng.randrange(S.n))
            listing = shortest_words(S, gens, d)
            oracle = py_shortest_words(table, gens, max_len=d)
            assert dict(listing) == oracle, d
            # each element once, by word length and then lexicographically
            words = [w for _, w in listing]
            assert len(listing) == len(oracle)
            assert words == sorted(words, key=lambda w: (len(w), w))


@pytest.mark.parametrize(
    "gens,t,message",
    [
        ([1, 4], -1, "target -1 outside"),
        ([1, 4], 8, "target 8 outside"),
        ([1, -1], 3, "generator -1 outside"),
        ([1, 8], 3, "generator 8 outside"),
    ],
)
def test_shortest_word_range_checks(gens, t, message):
    S = zoo.make_dihedral(4)
    with pytest.raises(OutOfRangeError, match=message):
        shortest_word(S, gens, t)
    # a rejected generator tuple leaves no tree behind
    assert not any(key[0] == "word_tree" for key in S._memo)


def test_ideal_power_basics(zoo_small):
    for name, (S, gens, _) in zoo_small.items():
        assert ideal_power(S, 1) == ElementSet.full(S.n), name
    G = zoo.make_dihedral(4)
    assert ideal_power(G, 3) == ElementSet.full(8)


def test_ideal_power_nilpotent_extension():
    base, bgens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    T, proj = zoo.make_nilpotent_extension(base, len(bgens), bgens, 3)
    # oracle: enumerate all length-3 products over the whole carrier
    table = table_of(T)
    all_elems = range(T.n)
    prods = {
        table[table[a][b]][c] for a in all_elems for b in all_elems for c in all_elems
    }
    assert set(ideal_power(T, 3)) == prods


def test_ideal_power_matches_naive_products(zoo_small):
    for name, (S, _, _) in zoo_small.items():
        table = table_of(S)
        level = set(range(S.n))  # S^1
        for k in range(1, 9):
            assert set(ideal_power(S, k)) == level, (name, k)
            level = {table[a][b] for a in level for b in range(S.n)}


def test_ideal_chain_is_memoised_and_read_only(zoo_small):
    S, _, _ = zoo_small["NilExt"]
    chain = ideal_chain(S)
    assert chain is ideal_chain(S)
    assert len(chain) >= 2 and not chain[0].flags.writeable
    sizes = [int(m.sum()) for m in chain]
    assert sizes == sorted(set(sizes), reverse=True)


def test_ideal_chain_stabilises(zoo_small):
    for name, (S, gens, _) in zoo_small.items():
        sizes = []
        prev = None
        for k in range(1, S.n + 2):
            cur = ideal_power(S, k)
            if prev is not None and cur == prev:
                break
            assert prev is None or not (cur.mask & ~prev.mask).any(), name
            prev = cur
        else:
            pytest.fail(f"{name}: ideal chain did not stabilise")


def test_rees_quotient_full_ideal():
    S = zoo.make_cyclic(4)
    Q, proj = rees_quotient(S, ElementSet.full(4))
    assert Q.n == 1
    assert all(proj[x] == 0 for x in range(4))


def test_rees_quotient_not_an_ideal():
    Z4 = zoo.make_cyclic(4)
    # {0} is not an ideal: 0+1 = 1 is outside
    assert not is_ideal(Z4, ElementSet.from_indices(4, [0]))
    with pytest.raises(NotAnIdealError):
        rees_quotient(Z4, ElementSet.from_indices(4, [0]))


def test_rees_quotient_t_witness_shape():
    w = zoo.make_u_witness(3)
    S = w.semigroup
    zero = S.zero_element()
    # ideal of everything except the singletons and zero
    singles = set(w.generators)
    ideal_members = [x for x in range(S.n) if x not in singles]
    I = ElementSet.from_indices(S.n, ideal_members)
    assert is_ideal(S, I)
    Q, proj = rees_quotient(S, I)
    assert Q.n == len(singles) + 1
    qzero = Q.zero_element()
    assert qzero is not None
    for x in ideal_members:
        assert proj[x] == qzero


def test_direct_product_klein():
    Z2 = zoo.make_cyclic(2)
    K = direct_product(Z2, Z2)
    # oracle: componentwise addition table
    expect = [[(a // 2 ^ b // 2) * 2 + (a % 2 ^ b % 2) for b in range(4)] for a in range(4)]
    assert np.array_equal(K.table.astype(np.int64), np.array(expect))


def test_direct_product_with_trivial():
    S = zoo.make_rectangular_band(2, 2)
    T = validate_table([[0]])
    P = direct_product(S, T)
    assert np.array_equal(P.table.astype(np.int64), S.table.astype(np.int64))


def test_rb_is_product_of_left_and_right_zero():
    LZ = validate_table([[0, 0], [1, 1]])   # xy = x
    RZ = validate_table([[0, 1], [0, 1]])   # xy = y
    P = direct_product(LZ, RZ)
    R = zoo.make_rectangular_band(2, 2)
    assert np.array_equal(P.table.astype(np.int64), R.table.astype(np.int64))


def test_completely_regular_elements():
    G = zoo.make_dihedral(3)
    assert G.completely_regular_elements() == ElementSet.full(6)
    w = zoo.make_obstruction_witness("T", 2)
    S = w.semigroup
    # oracle: brute-force s^(w+1) = s test
    expect = set()
    table = table_of(S)
    for s in range(S.n):
        seen = [s]
        cur = s
        while True:
            cur = table[cur][s]
            if cur in seen:
                break
            seen.append(cur)
        idem = [p for p in seen if table[p][p] == p][0]
        if table[idem][s] == s:
            expect.add(s)
    assert set(S.completely_regular_elements()) == expect
    assert expect == {S.zero_element()}


def test_sub_semigroup_roundtrip():
    S = zoo.make_dihedral(6)
    members = closure(S, [2])
    sub, to_sub, to_parent = sub_semigroup(S, members)
    for a in members:
        for b in members:
            assert to_parent[sub.table[to_sub[a], to_sub[b]]] == S.table[a, b]


def test_omega_cache_properties(zoo_small):
    for name, (S, gens, _) in zoo_small.items():
        base = np.arange(S.n, dtype=np.int64)
        om = S.omega_powers
        assert (S.table[om, om] == om).all(), name
        for s in range(S.n):
            members = py_closure(table_of(S), [s])
            assert int(om[s]) in members, name
            e = int(S.omega_exponents[s])
            assert S.power(s, e) == int(om[s]), name


def _power_walk(S):
    """Reference: (omega, omega exponent, period) raising every element one
    power at a time, the construction the power caches used before they
    took giant steps."""
    n, table = S.n, S.table
    base = np.arange(n, dtype=np.int64)
    pw = base.copy()
    omega = np.full(n, -1, dtype=np.int64)
    omega_exp = np.zeros(n, dtype=np.int64)
    e = 1
    pending = np.ones(n, dtype=bool)
    while pending.any():
        idem = table[pw, pw] == pw
        found = pending & idem
        omega[found] = pw[found]
        omega_exp[found] = e
        pending &= ~idem
        pw = table[pw, base].astype(np.int64)
        e += 1
    period = np.zeros(n, dtype=np.int64)
    cur = table[omega, base].astype(np.int64)
    p = 1
    pending = np.ones(n, dtype=bool)
    while pending.any():
        done = pending & (cur == omega)
        period[done] = p
        pending &= ~done
        cur = table[cur, base].astype(np.int64)
        p += 1
    return omega, omega_exp, period


def _monogenic(index, period):
    """<s> with the given index and period; element j - 1 is s^j."""
    n = index + period - 1

    def reduce(e):
        return e if e < index + period else index + (e - index) % period

    return validate_table([[reduce(a + b + 2) - 1 for b in range(n)] for a in range(n)])


def _power_cases():
    # index and period both above sqrt(n), one of them above, or neither
    shapes = [(30, 40), (40, 30), (64, 65), (200, 57), (100, 100), (40, 3), (3, 40), (1, 200), (200, 1)]
    cases = [(f"mono{i},{p}", _monogenic(i, p)) for i, p in shapes]
    cases.append(("mono30,40 x mono9,4", direct_product(_monogenic(30, 40), _monogenic(9, 4))))
    cases += [(f"random{k}", S) for k, S in enumerate(random_semigroups(80, seed=13))]
    cases.append(("D1024", zoo.make_dihedral(512)))
    return cases


def test_power_caches_match_the_per_power_walk():
    for name, S in _power_cases():
        for got, expect, what in zip(S._build_power_caches(), _power_walk(S), ("omega", "exponent", "period")):
            assert np.array_equal(got, expect), (name, what)


def test_table_dtype_is_the_narrowest_that_fits():
    assert [table_dtype(n) for n in (256, 257, 65_536, 65_537)] == [np.uint8, np.uint16, np.uint16, np.int32]


def test_repr_names_the_table():
    assert repr(zoo.make_cyclic(3)) == "Semigroup(n=3 'Z3')"
    assert repr(Semigroup(np.zeros((2, 2), dtype=np.int64))) == "Semigroup(n=2)"


def test_power_and_ideal_power_need_a_positive_exponent():
    Z4 = zoo.make_cyclic(4)
    assert Z4.power(1, 3) == 3
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        Z4.power(1, 0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        ideal_power(Z4, 0)


def test_word_searches_need_generators():
    Z4 = zoo.make_cyclic(4)
    with pytest.raises(EmptyGeneratorsError):
        shortest_word(Z4, [], 0)
    with pytest.raises(EmptyGeneratorsError):
        shortest_words(Z4, [], 2)


def test_the_empty_set_is_no_ideal():
    assert not is_ideal(zoo.make_cyclic(4), ElementSet.from_indices(4, []))


def test_direct_product_budget():
    Z4 = zoo.make_cyclic(4)
    assert direct_product(Z4, Z4, budget=16).n == 16
    with pytest.raises(BudgetExceededError, match="product size 16 exceeds budget 15"):
        direct_product(Z4, Z4, budget=15)


def test_sub_semigroup_needs_a_product_closed_subset():
    with pytest.raises(ValueError, match="not product-closed"):
        sub_semigroup(zoo.make_cyclic(4), ElementSet.from_indices(4, [0, 1]))
