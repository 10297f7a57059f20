"""The pointer-doubling backward pass of ``minimize_exponents`` against the
per-power loop it replaced, on structures whose powers have long tails and
long periods."""

import random

import numpy as np
import pytest

from slpforge import zoo
from slpforge.compressors.permutative import PermNormalForm, minimize_exponents, reach_sets
from slpforge.errors import UnreachableError
from slpforge.semigroup import Semigroup, direct_product

from conftest import random_semigroups


def monogenic(index: int, period: int) -> Semigroup:
    """<a | a^(index+period) = a^index>; element k is a^(k+1)."""
    n = index + period - 1

    def reduce(e: int) -> int:
        return e if e < index + period else index + (e - index) % period

    table = np.array([[reduce(j + k) - 1 for k in range(1, n + 1)] for j in range(1, n + 1)])
    return Semigroup(table, name=f"M({index},{period})")


def caps_of(S, order):
    return [int(S.omega_exponents[s] + S.periods[s] - 1) for s in order]


def per_power_reach_sets(S, order, caps, base):
    """One gather per power s^1 .. s^cap, as the backward pass first did."""
    n, table, virt = S.n, S.table, S.n
    r_sets = [base]
    cur = base
    for s, cap in zip(reversed(order), reversed(caps)):
        col = table[:, s].astype(np.int64)
        acc = cur.copy()
        stage = cur
        for _ in range(cap):
            nxt = np.zeros(n + 1, dtype=bool)
            nxt[:n] = stage[col]
            nxt[virt] = stage[s]
            acc |= nxt
            stage = nxt
        r_sets.append(acc)
        cur = acc
    r_sets.reverse()
    return r_sets


def reference_normal_form(S, prefix, order, suffix, t):
    """``minimize_exponents`` over the per-power sets; None when unreachable."""
    n, virt = S.n, S.n
    base = np.zeros(n + 1, dtype=bool)
    if suffix:
        v_val = S.word_value(list(suffix))
        base[:n] = S.table[:, v_val] == t
        base[virt] = v_val == t
    else:
        base[t] = True
    caps = caps_of(S, order)
    r_sets = per_power_reach_sets(S, order, caps, base)
    p = S.word_value(list(prefix)) if prefix else virt
    if not r_sets[0][p]:
        return None
    exps = []
    for i, s in enumerate(order):
        e, q = 0, p
        while not r_sets[i + 1][q]:
            q = s if q == virt else int(S.table[q, s])
            e += 1
        exps.append(e)
        p = q
    kept = [(s, e) for s, e in zip(order, exps) if e > 0]
    if not (kept or prefix or suffix):
        return None
    return PermNormalForm(list(prefix), [s for s, _ in kept], [e for _, e in kept], list(suffix))


def check_against_reference(S, rng, cases):
    elems = list(range(S.n))
    for _ in range(cases):
        order = rng.sample(elems, rng.randrange(1, min(4, S.n) + 1))
        caps = caps_of(S, order)
        base = np.asarray([rng.random() < 0.05 for _ in range(S.n + 1)])
        got = reach_sets(S, order, caps, base)
        want = per_power_reach_sets(S, order, caps, base)
        assert len(got) == len(want) == len(order) + 1
        for i, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), (S.name, order, i)

        prefix = [rng.choice(elems)] if rng.random() < 0.4 else []
        suffix = [rng.choice(elems)] if rng.random() < 0.4 else []
        t = rng.choice(elems)
        expect = reference_normal_form(S, prefix, order, suffix, t)
        if expect is None:
            with pytest.raises(UnreachableError):
                minimize_exponents(S, prefix, order, suffix, t)
        else:
            assert minimize_exponents(S, prefix, order, suffix, t) == expect


@pytest.mark.parametrize("index, period", [(2, 3), (3, 5), (6, 4), (9, 3), (5, 11), (17, 15)])
def test_monogenic_tails_and_periods(index, period):
    S = monogenic(index, period)
    a = 0
    cap = caps_of(S, [a])[0]
    assert cap >= S.n  # a^1 .. a^cap run through every element
    assert cap + 1 & cap  # not one less than a power of two: doubling overshoots
    check_against_reference(S, random.Random(index * 100 + period), 40)
    # every target as a power of the generator, with no prefix or suffix
    for t in range(S.n):
        nf = minimize_exponents(S, [], [a], [], t)
        assert nf.exponents == [t + 1]


def test_cyclic_group_of_order_1024():
    S = zoo.make_cyclic(1024)
    assert caps_of(S, [1]) == [2047]
    check_against_reference(S, random.Random(1024), 12)


def test_non_group_with_a_tail():
    S = direct_product(monogenic(4, 6), zoo.make_cyclic(6))
    assert S.identity_element() is None
    check_against_reference(S, random.Random(46), 40)


def test_random_transformation_semigroups():
    rng = random.Random(7)
    for S in random_semigroups(12, seed=7):
        check_against_reference(S, rng, 8)
