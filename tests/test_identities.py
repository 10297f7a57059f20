import pytest

from slpforge import zoo
from slpforge.errors import BudgetExceededError
from slpforge.identities import (
    IDENTITY_BAND,
    IDENTITY_COMMUTATIVE,
    IDENTITY_COMPLETELY_REGULAR,
    IDENTITY_LRB,
    IDENTITY_NORMAL_BAND,
    IDENTITY_RECTANGULAR,
    IDENTITY_RRB,
    OmegaTerm,
    ZERO,
    satisfies_identity,
)

x, y = OmegaTerm.var(0), OmegaTerm.var(1)


def test_commutative_group():
    assert satisfies_identity(zoo.make_cyclic(6), *IDENTITY_COMMUTATIVE)
    assert not satisfies_identity(zoo.make_sym(3), *IDENTITY_COMMUTATIVE)


def test_rectangular_band_identities():
    R = zoo.make_rectangular_band(2, 2)
    assert satisfies_identity(R, *IDENTITY_BAND)
    assert satisfies_identity(R, *IDENTITY_RECTANGULAR)
    assert satisfies_identity(R, *IDENTITY_NORMAL_BAND)


def test_lrb_vs_rrb():
    lrb = zoo.make_obstruction_witness("LRB", 3).semigroup
    rrb = zoo.make_obstruction_witness("RRB", 3).semigroup
    assert satisfies_identity(lrb, *IDENTITY_LRB)
    assert not satisfies_identity(lrb, *IDENTITY_RRB)
    assert satisfies_identity(rrb, *IDENTITY_RRB)
    assert not satisfies_identity(rrb, *IDENTITY_LRB)
    # free LRB on two letters: x = a, y = b gives ab*a = ab != ba
    assert not satisfies_identity(lrb, x * y * x, y * x)


def test_zero_identities_on_t_witness():
    w = zoo.make_obstruction_witness("T", 3)
    S = w.semigroup
    assert satisfies_identity(S, x * x, ZERO)
    assert satisfies_identity(S, x * y * x, ZERO)
    assert not satisfies_identity(S, x * y, ZERO)


def test_zero_side_requires_zero_element():
    assert not satisfies_identity(zoo.make_cyclic(3), x * x, ZERO)


def test_omega_terms():
    G = zoo.make_dihedral(4)
    assert satisfies_identity(G, *IDENTITY_COMPLETELY_REGULAR)
    w = zoo.make_u_witness(3)
    assert not satisfies_identity(w.semigroup, *IDENTITY_COMPLETELY_REGULAR)
    # groups satisfy x^w y = y
    assert satisfies_identity(G, x.omega() * y, y)


def test_budget():
    S = zoo.make_cyclic(50)
    with pytest.raises(BudgetExceededError):
        satisfies_identity(S, *IDENTITY_NORMAL_BAND, budget=10**4)


def test_evaluate_concrete():
    Z6 = zoo.make_cyclic(6)
    term = x * x * y
    assert term.evaluate(Z6, [2, 1]) == 5
    assert (x.omega_plus_one()).evaluate(Z6, [4]) == 4


def test_variables_must_be_contiguous():
    with pytest.raises(ValueError):
        satisfies_identity(zoo.make_cyclic(2), OmegaTerm.var(1), OmegaTerm.var(1))


def test_a_term_needs_a_factor():
    with pytest.raises(ValueError, match="at least one factor"):
        OmegaTerm(())


def test_word_and_repr():
    S = zoo.make_obstruction_witness("LRB", 3).semigroup
    assert satisfies_identity(S, OmegaTerm.word(0, 1, 0), x * y)
    assert repr(OmegaTerm.word(0, 1, 0)) == "x0 x1 x0"
    assert repr(x * (x * y).omega() * y.omega_plus_one()) == "x0 (x0 x1)^w (x1)^(w+1)"
    assert repr(ZERO) == "ZERO"


def test_zero_on_either_side():
    t3 = zoo.make_obstruction_witness("T", 3).semigroup
    assert satisfies_identity(t3, ZERO, x * x)
    assert not satisfies_identity(t3, ZERO, x * y)
    assert satisfies_identity(t3, ZERO, ZERO)
    assert not satisfies_identity(zoo.make_cyclic(3), ZERO, ZERO)
