"""Benchmark colorings."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from connramsey import (
    RelationQuery,
    constant_coloring,
    decide,
    delta_coloring,
    hub_coloring,
    random_coloring,
)
from connramsey.generators import first_difference
from oracles import color, kappa_connected_bruteforce, make_graph


@given(st.integers(1, 6), st.data())
def test_string_order_matches_vertex_order(ell, data):
    # the smaller vertex has the 0 bit where the ell-bit strings first
    # differ, so string order is vertex order
    u = data.draw(st.integers(0, (1 << ell) - 2))
    v = data.draw(st.integers(u + 1, (1 << ell) - 1))
    at = first_difference(u, v, ell)
    su, sv = format(u, f"0{ell}b"), format(v, f"0{ell}b")
    assert su[:at] == sv[:at]
    assert (su[at], sv[at]) == ("0", "1")


def test_delta_coloring_examples():
    d = delta_coloring(2)
    assert (d.n, d.lam) == (4, 2)
    assert color(d, 0, 1) == 1  # 00 vs 01
    assert color(d, 0, 2) == 0
    assert color(d, 2, 3) == 1
    single = delta_coloring(1)
    assert (single.n, single.lam, single.colors) == (2, 1, (0,))
    with pytest.raises(ValueError):
        delta_coloring(0)


def test_delta_color_is_common_prefix_length():
    d = delta_coloring(3)
    for u, v in combinations(range(8), 2):
        su, sv = format(u, "03b"), format(v, "03b")
        expected = next(i for i in range(3) if su[i] != sv[i])
        assert color(d, u, v) == expected


def test_delta_injection_bound_exhaustive():
    for ell in (1, 2, 3):
        d = delta_coloring(ell)
        for size in range(1, d.n + 1):
            for xs in combinations(range(d.n), size):
                realized = {color(d, a, b) for a, b in combinations(xs, 2)}
                assert len(xs) <= 2 ** len(realized)


def test_constant_and_random():
    c = constant_coloring(4, 0, 2)
    assert set(c.colors) == {0}
    assert random_coloring(6, 3, seed=42) == random_coloring(6, 3, seed=42)
    assert random_coloring(6, 3, seed=1) != random_coloring(6, 3, seed=2)
    with pytest.raises(ValueError):
        constant_coloring(4, 2, 2)


def test_hub_2_2_structure():
    hub = hub_coloring(2, 2)
    assert (hub.n, hub.lam) == (4, 2)
    crossing = {(a, b) for a, b in combinations(range(4), 2) if color(hub, a, b) == 0}
    assert crossing == {(0, 1), (0, 3), (1, 2), (2, 3)}
    assert color(hub, 0, 2) == 1 and color(hub, 1, 3) == 1
    # the crossing edges form a 4-cycle, which is 2-connected
    g = make_graph(range(4), crossing)
    assert kappa_connected_bruteforce(g, 2)
    assert not decide(hub, RelationQuery("classical", 3, 1)).holds


def test_hub_1_1():
    hub = hub_coloring(1, 1)
    assert (hub.n, hub.lam, hub.colors) == (2, 1, (0,))


def test_hub_classes_interleaved():
    hub = hub_coloring(3, 2)
    assert hub.n == 5
    # positions 0,2 and 1,3 alternate; leftover class-0 vertex sits at 4
    crossing = {(a, b) for a, b in combinations(range(5), 2) if color(hub, a, b) == 0}
    assert (0, 1) in crossing and (1, 2) in crossing and (3, 4) in crossing
    assert (0, 2) not in crossing and (1, 3) not in crossing
