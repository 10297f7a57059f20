import itertools

import numpy as np
import pytest

from slpforge import zoo
from slpforge.errors import (
    BudgetExceededError,
    DecompositionFailedError,
    NotAHomomorphismError,
    SlpforgeError,
    UnknownFamilyError,
)
from slpforge.identities import (
    IDENTITY_BAND,
    IDENTITY_COMMUTATIVE,
    IDENTITY_COMPLETELY_REGULAR,
    IDENTITY_LRB,
    IDENTITY_RECTANGULAR,
    IDENTITY_RRB,
    OmegaTerm,
    ZERO,
    satisfies_identity,
)
from slpforge.groups import derived_series, group_view
from slpforge.semigroup import closure, ideal_power, validate_table

from conftest import (
    free_lrb_value,
    free_rrb_value,
    lrb_witness_oracle,
    py_closure,
    table_of,
)


def test_every_family_validates(zoo_small):
    for name, (S, gens, _) in zoo_small.items():
        revalidated = validate_table(np.asarray(S.table, dtype=np.int64))
        assert revalidated.n == S.n, name


def test_make_group_families():
    assert zoo.make_group("cyclic", [6]).n == 6
    assert zoo.make_group("dihedral", [4]).n == 8
    assert zoo.make_group("sym", [4]).n == 24
    assert zoo.make_group("alt", [5]).n == 60
    with pytest.raises(UnknownFamilyError):
        zoo.make_group("sporadic", [1])
    with pytest.raises(BudgetExceededError):
        zoo.make_group("cyclic", [100000])


def test_heisenberg_structure():
    H = zoo.make_heisenberg(3)
    assert H.n == 27
    G = group_view(H)
    chain = derived_series(G)
    # oracle: commutator subgroup = centre of order p, derived length 2
    assert [t.cardinality for t in chain.terms] == [27, 3, 1]
    centre = [
        g
        for g in range(27)
        if all(int(H.table[g, x]) == int(H.table[x, g]) for x in range(27))
    ]
    assert set(chain.terms[1]) == set(centre)


def test_alt5_is_perfect():
    A5 = zoo.make_alt(5)
    chain = derived_series(group_view(A5))
    assert [t.cardinality for t in chain.terms] == [60]


def test_dihedral_generators_present():
    for m in (3, 4, 6):
        D = zoo.make_dihedral(m)
        gens = zoo.dihedral_generators(m)
        assert closure(D, gens).cardinality == 2 * m


def test_obstruction_sizes_exact():
    for n in (2, 5, 9):
        for variant, extra in (("LRB", 0), ("RRB", 0), ("T", 1)):
            w = zoo.make_obstruction_witness(variant, n)
            assert w.semigroup.n == n * (n + 1) // 2 + extra, (variant, n)
            assert len(w.generators) == n
            got = closure(w.semigroup, w.generators)
            assert got.cardinality == w.semigroup.n


@pytest.mark.parametrize("n", range(2, 9))
def test_obstruction_witnesses_satisfy_their_identities(n):
    x, y = OmegaTerm.var(0), OmegaTerm.var(1)
    lrb = zoo.make_obstruction_witness("LRB", n).semigroup
    assert satisfies_identity(lrb, *IDENTITY_BAND) and satisfies_identity(lrb, *IDENTITY_LRB)
    rrb = zoo.make_obstruction_witness("RRB", n).semigroup
    assert satisfies_identity(rrb, *IDENTITY_BAND) and satisfies_identity(rrb, *IDENTITY_RRB)
    t = zoo.make_obstruction_witness("T", n).semigroup
    assert satisfies_identity(t, x * x, ZERO) and satisfies_identity(t, x * y * x, ZERO)


def test_lrb_witness_matches_congruence_oracle():
    for n in (2, 3, 4, 5):
        w = zoo.make_obstruction_witness("LRB", n)
        S, gens = w.semigroup, w.generators
        class_of, classes = lrb_witness_oracle(n)
        assert len(classes) == S.n
        # map each congruence class to the table element of its letter word
        def table_value(word):
            acc = gens[word[0] - 1]
            for letter in word[1:]:
                acc = int(S.table[acc, gens[letter - 1]])
            return acc

        for rep_class in classes.values():
            vals = {table_value(word) for word in rep_class}
            assert len(vals) == 1, f"class {rep_class} not constant on the table"
        # distinct classes -> distinct table elements
        rep_vals = {table_value(next(iter(c))) for c in classes.values()}
        assert len(rep_vals) == S.n


def test_lrb_product_example():
    w = zoo.make_obstruction_witness("LRB", 3)
    S, gens = w.semigroup, w.generators
    # [2..2]*[1..3] = [2..3]: reduce the word s2 s1 s2 s3 by hand:
    # s2 s1 absorbs to s2, leaving s2 s2 s3 = s2 s3
    idx = {(i, j): k for k, (i, j) in enumerate(
        (i, j) for i in range(1, 4) for j in range(i, 4)
    )}
    assert int(S.table[idx[(2, 2)], idx[(1, 3)]]) == idx[(2, 3)]


def test_rrb_witness_dual_of_lrb():
    n = 4
    # free-object duality: last occurrences are first occurrences of the
    # reversed word, reversed back
    for word in itertools.permutations(range(1, n + 1), 3):
        assert free_rrb_value(list(word)) == tuple(
            reversed(free_lrb_value(list(reversed(word))))
        )
    # witness duality: the RRB table is the LRB table of the mirrored
    # intervals with the arguments swapped
    lrb = zoo.make_obstruction_witness("LRB", n).semigroup
    rrb = zoo.make_obstruction_witness("RRB", n).semigroup
    intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    idx = {iv: k for k, iv in enumerate(intervals)}

    def mirror(iv):
        i, j = iv
        return (n + 1 - j, n + 1 - i)

    for a in intervals:
        for b in intervals:
            lhs = intervals[int(rrb.table[idx[a], idx[b]])]
            rhs = mirror(intervals[int(lrb.table[idx[mirror(b)], idx[mirror(a)]])])
            assert lhs == rhs, (a, b)


def test_t_witness_products():
    w = zoo.make_obstruction_witness("T", 3)
    S, gens = w.semigroup, w.generators
    zero = S.n - 1
    assert S.n == 7
    assert int(S.table[gens[0], gens[2]]) == zero      # s1 s3 = 0
    assert int(S.table[gens[0], gens[1]]) != zero      # s1 s2 consecutive
    x = OmegaTerm.var(0)
    assert satisfies_identity(S, x * x, ZERO)


def test_u_witness_model():
    w = zoo.make_u_witness(3)
    S, gens = w.semigroup, w.generators
    assert S.n == 8
    zero = S.zero_element()
    assert int(S.table[gens[0], gens[0]]) == zero             # {1}{1} = 0
    assert int(S.table[gens[0], gens[1]]) == (0b011) - 1      # {1}{2} = {1,2}
    # oracle: python frozensets
    def py_val(subsets):
        acc = frozenset(subsets[0])
        for s in subsets[1:]:
            if acc is None or acc & frozenset(s):
                return None
            acc = acc | frozenset(s)
        return acc

    assert py_val([{0}, {1}, {2}]) == {0, 1, 2}
    assert w.target == (1 << 3) - 2


def test_u_witness_sizes_and_enumeration_oracle():
    for n in (2, 4, 6):
        assert zoo.make_u_witness(n).semigroup.n == 2**n
        assert zoo.u_witness_size_by_enumeration(n) == 2**n


def test_power_witness_z2():
    w = zoo.make_power_witness(zoo.make_cyclic(2), 1, 3)
    # oracle: closure BFS from the three unit vectors under addition reaches
    # every vector including zero (s_i + s_i = 0), so the power is full
    vectors = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    frontier = list(vectors)
    while frontier:
        new = []
        for a in list(vectors):
            for b in list(vectors):
                c = tuple((x + y) % 2 for x, y in zip(a, b))
                if c not in vectors:
                    vectors.add(c)
                    new.append(c)
        frontier = new
    assert w.semigroup.n == len(vectors) == 8


def test_power_witness_semilattice():
    two = validate_table([[0, 1], [1, 1]])  # {e > z} under meet
    w = zoo.make_power_witness(two, 1, 4)
    assert w.semigroup.n == 15
    assert satisfies_identity(w.semigroup, *IDENTITY_BAND)
    assert satisfies_identity(w.semigroup, *IDENTITY_COMMUTATIVE)


def test_power_witness_single_coordinate():
    w = zoo.make_power_witness(zoo.make_cyclic(5), 2, 1)
    assert set(closure(w.semigroup, w.generators)) == set(range(w.semigroup.n))


def test_rectangular_band():
    R = zoo.make_rectangular_band(2, 3)
    assert int(R.table[0 * 3 + 1, 1 * 3 + 2]) == 0 * 3 + 2
    assert satisfies_identity(R, *IDENTITY_RECTANGULAR)
    assert zoo.make_rectangular_band(1, 1).n == 1
    gens = zoo.rectangular_band_generators(5, 7)
    assert closure(zoo.make_rectangular_band(5, 7), gens).cardinality == 35


@pytest.mark.parametrize("p,q", [(16, 16), (256, 1), (1, 256), (1, 257), (257, 1), (3, 100), (40, 50)])
def test_rectangular_band_closed_form_at_stored_dtype(p, q):
    R = zoo.make_rectangular_band(p, q)
    n = p * q
    assert R.table.dtype == (np.uint8 if n <= 256 else np.uint16)
    a = np.arange(n)
    np.testing.assert_array_equal(R.table, (a[:, None] // q) * q + a[None, :] % q)


def test_subset_semilattice():
    w = zoo.make_subset_semilattice(4)
    S = w.semigroup
    assert S.n == 15
    assert satisfies_identity(S, *IDENTITY_BAND)
    assert satisfies_identity(S, *IDENTITY_COMMUTATIVE)
    assert w.target == S.n - 1


def test_normal_band_product_shape():
    S = zoo.make_normal_band_of_groups("product", p=2, q=2, group=zoo.make_cyclic(3))
    assert S.n == 12
    assert satisfies_identity(S, *IDENTITY_COMPLETELY_REGULAR)


def test_clifford_shape_and_cross_products():
    G1, G0 = zoo.make_cyclic(4), zoo.make_cyclic(2)
    S = zoo.make_normal_band_of_groups(
        "clifford", top=G1, bottom=G0, hom=[0, 1, 0, 1]
    )
    assert S.n == 6
    # e1 * g0 = g0 by definition of the linking product
    e1 = 0
    for g0 in (4, 5):
        assert int(S.table[e1, g0]) == g0
    # cross product maps the top argument through phi then multiplies below
    assert int(S.table[1, 4]) == 4 + 1


def test_clifford_rejects_non_homomorphism():
    with pytest.raises(NotAHomomorphismError):
        zoo.make_normal_band_of_groups(
            "clifford",
            top=zoo.make_cyclic(4),
            bottom=zoo.make_cyclic(2),
            hom=[0, 1, 1, 1],
        )


def test_nilpotent_extension_small():
    Z2 = zoo.make_cyclic(2)
    T, proj = zoo.make_nilpotent_extension(Z2, 1, [1], 3)
    # carrier: words x, x^2 plus the embedded closure {0, 1}
    assert T.n == 4
    assert int(T.table[0, 0]) == 1                  # x * x = word xx
    x3 = int(T.table[1, 0])                         # x^2 * x lands in Z2
    assert proj[x3] == 1                            # evaluates to 1+1+1 = 1
    # projection is a homomorphism onto the base
    for a in range(T.n):
        for b in range(T.n):
            assert proj[int(T.table[a, b])] == int(Z2.table[proj[a], proj[b]])


def test_nilpotent_extension_threshold():
    base, bgens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    T, proj = zoo.make_nilpotent_extension(base, len(bgens), bgens, 3)
    words = [i for i in range(T.n) if T.n]  # word part comes first
    # every product of a length-2 word with one more letter is embedded
    a = len(bgens)
    two_letter = range(a, a + a * a)
    embedded = set(ideal_power(T, 3))
    for w2 in two_letter:
        for g in range(a):
            assert int(T.table[w2, g]) in embedded


def test_t_witness_is_rees_quotient_of_free_model():
    """Build the free 3-letter model (injective words plus zero) from scratch,
    quotient by the ideal generated by non-consecutive two-letter products,
    and compare with the closed-form witness."""
    from slpforge.semigroup import rees_quotient
    from slpforge.sets import ElementSet

    letters = [1, 2, 3]
    words = [()]  # () stands for the zero element
    for r in range(1, 4):
        words.extend(itertools.permutations(letters, r))
    index = {w: i for i, w in enumerate(words)}

    def mul(a, b):
        if a == () or b == ():
            return ()
        joined = a + b
        return joined if len(set(joined)) == len(joined) and len(joined) <= 3 else ()

    table = [[index[mul(a, b)] for b in words] for a in words]
    free_t = validate_table(table)
    bad = [index[(i, j)] for i in letters for j in letters
           if i != j and j != i + 1 and (i, j) in index]
    ideal = set(bad) | {index[()]}
    changed = True
    while changed:
        changed = False
        for x in list(ideal):
            for y in range(free_t.n):
                for p in (int(free_t.table[x, y]), int(free_t.table[y, x])):
                    if p not in ideal:
                        ideal.add(p)
                        changed = True
    Q, proj = rees_quotient(free_t, ElementSet.from_indices(free_t.n, ideal))
    w = zoo.make_obstruction_witness("T", 3)
    S = w.semigroup
    assert Q.n == S.n == 7
    # exhibit the isomorphism interval -> class and check it respects products
    intervals = [(i, j) for i in range(1, 4) for j in range(i, 4)]
    wit_index = {iv: k for k, iv in enumerate(intervals)}
    phi = {wit_index[(i, j)]: int(proj[index[tuple(range(i, j + 1))]]) for i, j in intervals}
    phi[S.n - 1] = Q.zero_element()
    assert sorted(phi.values()) == list(range(Q.n))
    for a in range(S.n):
        for b in range(S.n):
            assert phi[int(S.table[a, b])] == int(Q.table[phi[a], phi[b]])


def test_omega_cache_up_to_two_hundred():
    w = zoo.make_obstruction_witness("LRB", 19)   # 190 elements
    S = w.semigroup
    om = S.omega_powers
    import numpy as np

    base = np.arange(S.n, dtype=np.int64)
    assert (S.table[om, om] == om).all()
    assert (om == base).all()   # a band: every element is its own omega power


def test_completely_regular_closed_for_eligible_families():
    # Lemma-style check: on sandwich-eligible members the completely regular
    # part is product-closed
    base, bgens, _ = zoo.build_family("rb-x-cyclic", [2, 2, 3])
    T, _ = zoo.make_nilpotent_extension(base, len(bgens), bgens, 2)
    cr = T.completely_regular_elements()
    for a in cr:
        for b in cr:
            assert int(T.table[a, b]) in cr


def test_zoo_registry_covers_cli_families():
    for fam in zoo.FAMILIES:
        assert isinstance(zoo.FAMILIES[fam], str)
    S, gens, tgt = zoo.build_family("lrb-witness", [4])
    assert tgt is not None and gens is not None


RB22, Z3 = zoo.make_rectangular_band(2, 2), zoo.make_cyclic(3)
T2 = zoo.make_obstruction_witness("T", 2).semigroup


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: zoo.build_family("u-witness", [16]), BudgetExceededError, "cell budget"),
        (lambda: zoo.build_family("u-witness", [1]), BudgetExceededError, r"in \[2, 16\]"),
        (lambda: zoo.build_family("abelian", [100, 100]), BudgetExceededError, "abelian order 10000"),
        (lambda: zoo.build_family("dihedral", [0]), BudgetExceededError, "dihedral order 0"),
        (lambda: zoo.build_family("dihedral", [2501]), BudgetExceededError, "dihedral order 5002"),
        (lambda: zoo.build_family("heisenberg", [19]), BudgetExceededError, "order 6859"),
        (lambda: zoo.build_family("sym", [6]), BudgetExceededError, "up to degree 5"),
        (lambda: zoo.build_family("alt", [6]), BudgetExceededError, "up to degree 5"),
        (lambda: zoo.perm_index(3, (1, 0, 2), even_only=True), ValueError, "not in the enum"),
        (lambda: zoo.build_family("lrb-witness", [1]), BudgetExceededError, r"in \[2, 200\]"),
        (lambda: zoo.build_family("t-witness", [201]), BudgetExceededError, r"in \[2, 200\]"),
        (lambda: zoo.make_obstruction_witness("X", 3), UnknownFamilyError, "variant 'X'"),
        (lambda: zoo.make_power_witness(RB22, 0, 2), SlpforgeError, "needs a monoid"),
        (lambda: zoo.make_power_witness(Z3, 0, 2), SlpforgeError, "s distinct from"),
        (lambda: zoo.make_power_witness(Z3, 1, 3, max_elements=5), BudgetExceededError, "exceeded 5"),
        (lambda: zoo.build_family("semilattice", [0]), BudgetExceededError, r"n in \[1, 13\]"),
        (lambda: zoo.build_family("semilattice", [14]), BudgetExceededError, r"n in \[1, 13\]"),
        (lambda: zoo.build_family("rb", [0, 3]), BudgetExceededError, "p, q >= 1"),
        (lambda: zoo.build_family("rb", [200, 51]), BudgetExceededError, "pq <= 10"),
        (
            lambda: zoo.make_normal_band_of_groups("clifford", top=zoo.make_cyclic(4), bottom=Z3, hom=[0, 1]),
            NotAHomomorphismError, "all of the top group",
        ),
        (lambda: zoo.make_normal_band_of_groups("tower"), UnknownFamilyError, "shape 'tower'"),
        (
            # the T witness has nilpotent elements, so RB(1, 1) x T is no union of groups
            lambda: zoo.make_normal_band_of_groups("product", p=1, q=1, group=T2),
            DecompositionFailedError, "not a normal band of groups",
        ),
        (lambda: zoo.build_family("nilpotent-rb", [1, 1, 2, 1]), BudgetExceededError, "threshold k must be >= 2"),
        (lambda: zoo.make_nilpotent_extension(Z3, 2, [1], 2), SlpforgeError, "whole alphabet"),
        (lambda: zoo.build_family("nilpotent-rb", [1, 2, 2, 15]), BudgetExceededError, "short words"),
    ],
    ids=[
        "u-witness-cells", "u-witness-n", "abelian", "dihedral-0", "dihedral-order", "heisenberg", "sym", "alt",
        "odd-perm", "lrb-n", "t-n", "variant", "power-non-monoid", "power-neutral", "power-elements",
        "semilattice-0", "semilattice-14", "rb-empty", "rb-size", "clifford-hom-length", "band-shape",
        "band-not-union-of-groups", "nilpotent-k", "nilpotent-assignment", "nilpotent-words",
    ],
)
def test_out_of_range_parameters_raise(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("n", [1, 2])
def test_alt_of_degree_below_three_is_trivial(n):
    S, gens, target = zoo.build_family("alt", [n])
    assert (S.n, gens, target) == (1, [0], None)
