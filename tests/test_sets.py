import numpy as np
import pytest
from hypothesis import given, strategies as st

from slpforge import zoo
from slpforge.semigroup import closure, ideal_chain, ideal_power
from slpforge.sets import ElementSet

idx_sets = st.sets(st.integers(min_value=0, max_value=63), max_size=20)


@given(idx_sets)
def test_roundtrip(xs):
    es = ElementSet.from_indices(64, xs)
    assert set(es) == xs
    assert list(es) == sorted(xs)
    assert all(type(x) is int for x in es)
    assert list(es.to_array()) == sorted(xs)
    assert es.cardinality == len(es) == len(xs)
    assert all((i in es) == (i in xs) for i in range(64))


@given(idx_sets, idx_sets)
def test_set_algebra_matches_python_sets(a, b):
    ea, eb = ElementSet.from_indices(64, a), ElementSet.from_indices(64, b)
    assert (ea == eb) == (a == b)


def test_repr_lists_the_members():
    assert repr(ElementSet.from_indices(8, [5, 1])) == "ElementSet(8, {1, 5})"
    assert repr(ElementSet.from_indices(3, [])) == "ElementSet(3, {})"


@given(idx_sets, st.integers(min_value=-200, max_value=200))
def test_indices_outside_the_range_are_not_members(xs, i):
    es = ElementSet.from_indices(64, xs)
    assert (i in es) == (i in xs)
    assert -1 not in ElementSet.full(64)
    assert 64 not in ElementSet.full(64)


def test_bounds_checked():
    for bad in (4, 5, -1):
        with pytest.raises(ValueError):
            ElementSet.from_indices(4, [0, bad])
    with pytest.raises(ValueError):
        ElementSet(np.ones((2, 2), dtype=bool))


def test_to_array_sorted():
    es = ElementSet.from_indices(10, [7, 2, 5])
    assert list(es.to_array()) == [2, 5, 7]


def test_sets_from_every_source_compare_and_hash_equal():
    S = zoo.make_cyclic(6)
    everything = [
        closure(S, [1]),
        ideal_power(S, 2),
        ElementSet.from_indices(6, range(6)),
        ElementSet.full(6),
        ElementSet(np.ones(6, dtype=bool)),
    ]
    assert all(es == everything[0] for es in everything)
    assert len({hash(es) for es in everything}) == 1
    assert len(set(everything)) == 1
    evens = closure(S, [2])
    assert evens == ElementSet.from_indices(6, [0, 2, 4]) != everything[0]
    assert hash(evens) == hash(ElementSet.from_indices(6, [4, 2, 0]))
    assert ElementSet.full(5) != ElementSet.full(6)


def test_writeable_source_is_copied_and_the_mask_is_read_only():
    source = np.zeros(8, dtype=bool)
    source[3] = True
    es = ElementSet(source)
    before = hash(es)
    source[:] = True
    assert list(es) == [3] and hash(es) == before
    assert not es.mask.flags.writeable
    with pytest.raises(ValueError):
        es.mask[0] = True


def test_read_only_source_is_shared():
    S = zoo.make_nilpotent_extension(zoo.make_cyclic(3), 2, [1, 1], 3)[0]
    chain = ideal_chain(S)
    assert len(chain) > 1
    for k, mask in enumerate(chain, start=1):
        assert ideal_power(S, k).mask is mask
