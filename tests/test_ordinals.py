"""Ordinal arithmetic, the interval club system, and derived colorings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from connramsey.ordinals import (
    ZERO,
    CnfOrdinal,
    CsystemReport,
    acc_member,
    block_tail,
    blockfloor,
    check_csystem_axioms,
    club_interval,
    coloring_from_csystem,
    derived_color,
    enumerate_limits,
    i_min,
    omega_power,
    ord_print,
    sample_universe,
    successor,
)
from oracles import from_int, ord_parse


@st.composite
def ordinals(draw, max_exp=4, max_coeff=5):
    exps = draw(st.sets(st.integers(0, max_exp), max_size=max_exp + 1))
    terms = tuple(
        (e, draw(st.integers(1, max_coeff))) for e in sorted(exps, reverse=True)
    )
    return CnfOrdinal(terms)


W = omega_power(1)
W2 = omega_power(2)


def test_parse_examples():
    assert ord_parse("w^2*3+w*1+5").terms == ((2, 3), (1, 1), (0, 5))
    assert ord_parse("0") == ZERO
    with pytest.raises(ValueError, match="descending"):
        ord_parse("w*1+w^2*1")
    with pytest.raises(ValueError, match="malformed"):
        ord_parse("w^*3")
    with pytest.raises(ValueError, match="coefficient"):
        ord_parse("w*0")
    with pytest.raises(ValueError, match="bound"):
        ord_parse("w^5*1", d=3)


def test_print_forms():
    assert ord_print(CnfOrdinal(((2, 3), (1, 1), (0, 5)))) == "w^2*3+w*1+5"
    assert ord_print(ZERO) == "0"
    assert ord_print(from_int(7)) == "7"
    assert ord_print(W) == "w*1"


@given(ordinals())
def test_parse_print_round_trip(x):
    assert ord_parse(ord_print(x)) == x


@given(ordinals(), ordinals(), ordinals())
def test_comparison_is_total_order(a, b, c):
    assert (a < b) + (b < a) + (a == b) == 1
    if a < b and b < c:
        assert a < c
    # Order, equality and hash follow the terms.
    assert (a < b, a <= b, a == b, a != b, a >= b, a > b) == (
        a.terms < b.terms,
        a.terms <= b.terms,
        a.terms == b.terms,
        a.terms != b.terms,
        a.terms >= b.terms,
        a.terms > b.terms,
    )
    same = CnfOrdinal(list(a.terms))
    assert same == a and hash(same) == hash(a)


def test_comparison_spot_cases():
    assert W < CnfOrdinal(((1, 1), (0, 1)))  # w < w+1
    assert CnfOrdinal(((1, 1), (0, 9))) < omega_power(1, 2)  # w+9 < w*2
    assert omega_power(1, 5) < W2  # w*5 < w^2
    assert from_int(100) < W


def test_ordinal_validation():
    with pytest.raises(ValueError, match="descending"):
        CnfOrdinal(((1, 1), (2, 1)))
    with pytest.raises(ValueError, match="coefficient"):
        CnfOrdinal(((1, 0),))


def test_classification():
    # A successor is a nonzero ordinal whose last term has exponent 0.
    assert not ZERO.terms and not ZERO.is_limit
    assert W.is_limit and W.terms[-1][0] != 0
    assert from_int(3).terms[-1][0] == 0
    assert CnfOrdinal(((2, 1), (0, 4))).terms[-1][0] == 0


def test_blockfloor_and_tail():
    x = ord_parse("w^2*3+w*1+5")
    assert blockfloor(x, 2) == omega_power(2, 3)
    assert blockfloor(x, 1) == CnfOrdinal(((2, 3), (1, 1)))
    assert blockfloor(x, 3) == ZERO
    assert block_tail(x, 2) == CnfOrdinal(((1, 1), (0, 5)))


@given(ordinals(), st.integers(0, 5))
def test_blockfloor_decomposition(x, k):
    # x splits exactly into the floor followed by the tail
    assert blockfloor(x, k).terms + block_tail(x, k).terms == x.terms
    assert blockfloor(x, k) <= x


def test_successor():
    assert successor(ZERO) == from_int(1)
    assert successor(from_int(4)) == from_int(5)
    assert successor(W) == CnfOrdinal(((1, 1), (0, 1)))


def test_acc_member_examples():
    w_times_2 = omega_power(1, 2)
    assert acc_member(W, w_times_2, 1)
    assert not acc_member(from_int(5), w_times_2, 1)
    w2_plus_w = CnfOrdinal(((2, 1), (1, 1)))
    assert not acc_member(W2, w2_plus_w, 1)  # equals the left endpoint
    assert acc_member(W2, w2_plus_w, 2)


def test_acc_member_validation():
    with pytest.raises(ValueError, match="gamma < alpha"):
        acc_member(W2, W, 1)
    with pytest.raises(ValueError, match="limit"):
        acc_member(W, successor(W2), 1)


def test_i_min_examples():
    assert i_min(W) == 1
    assert i_min(W2) == 2
    assert i_min(CnfOrdinal(((2, 1), (1, 1)))) == 1
    with pytest.raises(ValueError, match="limit"):
        i_min(from_int(3))


def test_i_min_equals_least_exponent():
    for x in enumerate_limits(3, 3):
        assert i_min(x) == x.terms[-1][0]


def test_club_interval_examples():
    assert club_interval(W2, 2).left == ZERO
    iv = club_interval(CnfOrdinal(((2, 1), (1, 1))), 1)
    assert iv.left == W2
    assert club_interval(omega_power(1, 3), 1).left == ZERO
    with pytest.raises(ValueError, match="index floor"):
        club_interval(W2, 1)


def test_club_interval_order_type_bound():
    for alpha in enumerate_limits(3, 3):
        for i in range(i_min(alpha), 4):
            iv = club_interval(alpha, i)
            assert iv.left < alpha
            assert iv.order_type < omega_power(i + 1)


def test_derived_color_examples():
    assert derived_color(W, W2) == 2
    assert derived_color(omega_power(1, 2), omega_power(1, 3)) == 1
    assert derived_color(W, omega_power(1, 2)) == 1


def test_derived_color_total_and_bounded_below():
    limits = enumerate_limits(3, 2)
    for k, a in enumerate(limits):
        for b in limits[k + 1 :]:
            col = derived_color(a, b)
            assert col >= i_min(b)


def test_sample_universe_deterministic():
    a = sample_universe(2, 3, 5, seed=9)
    b = sample_universe(2, 3, 5, seed=9)
    assert a == b
    assert all(x.is_limit for x in a)
    assert list(a) == sorted(a)


def test_sample_universe_exhausts_small_pool():
    assert [ord_print(x) for x in sample_universe(1, 3, 3)] == ["w*1", "w*2", "w*3"]
    with pytest.raises(ValueError, match="available"):
        sample_universe(1, 3, 4)


def test_coloring_from_csystem_examples():
    c = coloring_from_csystem((W, omega_power(1, 2)))
    assert (c.n, c.lam, c.colors) == (2, 2, (1,))
    c = coloring_from_csystem((W, W2))
    assert (c.n, c.lam, c.colors) == (2, 3, (2,))
    c = coloring_from_csystem((W,))
    assert (c.n, c.colors) == (1, ())


def test_coloring_from_csystem_validation():
    with pytest.raises(ValueError, match="ascending"):
        coloring_from_csystem((W2, W))
    with pytest.raises(ValueError, match="limit"):
        coloring_from_csystem((from_int(4),))


def test_csystem_axioms_pass():
    rep = check_csystem_axioms(2, 4)
    assert rep.ok and rep.first_violation is None
    assert rep.limits_checked == 4
    assert not CsystemReport(*rep[:-1], "covering fails").ok
    rep = check_csystem_axioms(3, 3)
    assert rep.ok
    assert rep.limits_checked == len(enumerate_limits(2, 3))


def test_nesting_spot_case():
    alpha = ord_parse("w^2*1+w*2")
    low = club_interval(alpha, 1)
    high = club_interval(alpha, 2)
    assert low.left == W2 and high.left == ZERO
    assert high.left <= low.left  # containment of final segments
