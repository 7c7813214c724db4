"""Well-connectedness: path witnesses, the induced order, chain extraction."""

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from connramsey import (
    Coloring,
    Palette,
    RelationQuery,
    decide,
    is_wc_set,
    make_coloring,
)
from connramsey.core import constant_coloring, palette_adjacency
from connramsey.generators import delta_coloring, hub_coloring, random_coloring
from connramsey.wellconn import chain_of_length, wc_sweep
from oracles import (
    _chain_levels,
    chain_of_length_reference,
    color,
    longest_wc_set,
    max_wc_subset_exhaustive,
    order_pairs,
    tree_check,
    wc_order,
    wc_order_rows,
    wc_pair_reference,
    wc_path_exists,
    wc_pairs_exhaustive,
)


def pal(*colors):
    return Palette(frozenset(colors))


def pair_path(c, a, b, palette):
    """The witnessing path of the pair a < b that is_wc_set certifies, or None."""
    cert = is_wc_set(c, (a, b), palette)
    return None if cert is None else cert.paths[(a, b)]


def check_path(c, a, b, palette, path):
    assert path[0] == a and path[-1] == b
    assert len(set(path)) == len(path)
    assert all(v >= a for v in path)
    assert all(color(c, u, w) in palette.members for u, w in zip(path, path[1:]))


def test_wc_pair_detour_above_source():
    c = make_coloring(3, 2, [(0, 1, 1), (0, 2, 0), (1, 2, 0)])
    path = pair_path(c, 0, 1, pal(0))
    assert path == (0, 2, 1)


def test_wc_pair_blocked_below_source():
    c = make_coloring(3, 2, [(0, 1, 0), (0, 2, 0), (1, 2, 1)])
    assert pair_path(c, 1, 2, pal(0)) is None


def test_wc_pair_direct_edge():
    c = random_coloring(6, 3, seed=0)
    for a, b in combinations(range(6), 2):
        path = pair_path(c, a, b, pal(color(c, a, b)))
        assert path is not None
        check_path(c, a, b, pal(color(c, a, b)), path)


def test_is_wc_set_constant_coloring():
    c = constant_coloring(5, 0, 1)
    cert = is_wc_set(c, range(5), pal(0))
    assert cert is not None
    assert all(len(p) == 2 for p in cert.paths.values())


def test_is_wc_set_delta_examples():
    d = delta_coloring(2)
    cert = is_wc_set(d, {0, 1, 2}, pal(0))
    assert cert is not None
    assert cert.paths[(0, 1)] == (0, 2, 1)
    assert is_wc_set(d, {0, 1, 2, 3}, pal(0)) is None  # pair (2, 3) fails


def test_is_wc_set_vacuous():
    c = random_coloring(4, 2, seed=2)
    assert is_wc_set(c, [], pal(0)) is not None
    assert is_wc_set(c, [3], pal(1)) is not None


def test_wc_order_constant_full():
    c = constant_coloring(4, 0, 1)
    order = wc_order(c, pal(0))
    assert set(order_pairs(order)) == set(combinations(range(4), 2))


def test_wc_order_delta_example():
    order = wc_order(delta_coloring(2), pal(0))
    assert set(order_pairs(order)) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}


def test_wc_order_empty_palette():
    c = random_coloring(5, 2, seed=3)
    order = wc_order(c, Palette(frozenset()))
    assert list(order_pairs(order)) == []


def test_wc_order_matches_exhaustive_paths():
    # reachability must agree with exhaustive simple-path search
    rng = random.Random(4)
    for case in range(60):
        n = rng.randint(2, 8)
        lam = rng.randint(1, 3)
        c = random_coloring(n, lam, seed=100 + case)
        members = frozenset(rng.sample(range(lam), rng.randint(1, lam)))
        order = wc_order(c, Palette(members))
        assert set(order_pairs(order)) == wc_pairs_exhaustive(c, members)


def test_wc_pair_witness_is_valid_path():
    rng = random.Random(5)
    for case in range(40):
        n = rng.randint(2, 8)
        c = random_coloring(n, 3, seed=200 + case)
        palette = pal(rng.randrange(3))
        order = wc_order(c, palette)
        for a, b in order_pairs(order):
            path = pair_path(c, a, b, palette)
            assert path is not None
            check_path(c, a, b, palette, path)


def test_longest_wc_set_examples():
    assert longest_wc_set(constant_coloring(5, 0, 1), pal(0)) == (0, 1, 2, 3, 4)
    assert longest_wc_set(delta_coloring(2), pal(0)) == (0, 1, 2)
    assert longest_wc_set(constant_coloring(1, 0, 1), pal(0)) == (0,)
    assert longest_wc_set(Coloring(0, 1, ()), pal(0)) == ()


def test_longest_wc_set_matches_subset_bruteforce():
    rng = random.Random(6)
    for case in range(80):
        n = rng.randint(1, 8)
        lam = rng.randint(1, 4)
        c = random_coloring(n, lam, seed=300 + case)
        members = frozenset(rng.sample(range(lam), rng.randint(1, min(lam, 2))))
        chain = longest_wc_set(c, Palette(members))
        assert len(chain) == max_wc_subset_exhaustive(c, members)
        # and the reported set really is well-connected
        assert is_wc_set(c, chain, Palette(members)) is not None


def test_tree_check_examples():
    assert tree_check(constant_coloring(5, 0, 1), pal(0))
    d = delta_coloring(2)
    for members in ((), (0,), (1,), (0, 1)):
        assert tree_check(d, Palette(frozenset(members)))


def test_tree_check_sweep():
    # transitivity and predecessor linearity on seeded random colorings
    rng = random.Random(7)
    for case in range(500):
        n = rng.randint(1, 10)
        lam = rng.randint(1, 4)
        c = random_coloring(n, lam, seed=1000 + case)
        for i in range(lam):
            assert tree_check(c, pal(i))


def test_palette_monotonicity():
    rng = random.Random(8)
    for case in range(60):
        n = rng.randint(2, 8)
        lam = rng.randint(2, 4)
        c = random_coloring(n, lam, seed=2000 + case)
        small = frozenset(rng.sample(range(lam), 1))
        big = small | frozenset(rng.sample(range(lam), 1))
        lo = set(order_pairs(wc_order(c, Palette(small))))
        hi = set(order_pairs(wc_order(c, Palette(big))))
        assert lo <= hi


def path_corpus():
    """Random colorings with n <= 30 and lambda <= 4, delta(5) and
    hub(8, 8), each with its one-color palettes and one two-color one."""
    rng = random.Random(9)
    colorings = [
        random_coloring(rng.randint(2, 30), rng.randint(1, 4), seed=400 + k) for k in range(12)
    ]
    colorings += [delta_coloring(5), hub_coloring(8, 8)]
    for c in colorings:
        palettes = [frozenset({x}) for x in range(c.lam)]
        if c.lam >= 2:
            palettes.append(frozenset(rng.sample(range(c.lam), 2)))
        yield c, palettes


def consecutive(xs):
    return list(zip(xs, xs[1:]))


def test_paths_equal_the_list_ordered_search():
    # is_wc_set on pairs and on chains, and wc decide, keep the paths of
    # the per-pair search, byte for byte; a chain's certificate holds
    # exactly its consecutive pairs
    for c, palettes in path_corpus():
        for members in palettes:
            palette = Palette(members)
            want = {
                (a, b): wc_pair_reference(c, a, b, members) for a, b in combinations(range(c.n), 2)
            }
            assert {p: pair_path(c, *p, palette) for p in want} == want
            chain = longest_wc_set(c, palette)
            cert = is_wc_set(c, chain, palette)
            assert cert.paths == {p: want[p] for p in consecutive(chain)}
        for m in (2, 3, c.n // 2, c.n):
            out = decide(c, RelationQuery("wc", max(m, 2), 2))
            if out.holds:
                members = out.certificate.palette.members
                assert out.certificate.paths == {
                    p: wc_pair_reference(c, *p, members) for p in consecutive(out.certificate.X)
                }


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_consecutive_pairs_decide_every_pair(data):
    # Paths a -> b above a and b -> c above b join into a walk a -> c
    # above a, so is_wc_set, which searches the consecutive pairs only,
    # holds exactly when an exhaustive search joins every pair of X.
    n = data.draw(st.integers(0, 9))
    lam = data.draw(st.integers(1, 3))
    npairs = n * (n - 1) // 2
    cols = data.draw(st.lists(st.integers(0, lam - 1), min_size=npairs, max_size=npairs))
    c = Coloring(n, lam, tuple(cols))
    X = sorted(data.draw(st.sets(st.integers(0, n - 1))) if n else [])
    for k in range(lam + 1):
        for members in combinations(range(lam), k):
            want = all(wc_path_exists(c, a, b, members) for a, b in combinations(X, 2))
            assert (is_wc_set(c, X, Palette(frozenset(members))) is not None) == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sweep_matches_the_reach_and_level_oracles(data):
    # From the palette rows and from the successor masks they give, the
    # top-down sweep returns the per-source reach oracle's masks and, per
    # vertex, the number of levels of the level scan that hold it, which
    # is its longest chain; and chain_of_length on either input is the
    # level scan's chain for every m up to n + 1.
    n = data.draw(st.integers(0, 12))
    lam = data.draw(st.integers(1, 3))
    npairs = n * (n - 1) // 2
    cols = data.draw(st.lists(st.integers(0, lam - 1), min_size=npairs, max_size=npairs))
    members = frozenset(data.draw(st.sets(st.integers(0, lam - 1))))
    adj = palette_adjacency(Coloring(n, lam, tuple(cols)), members)
    succ = wc_order_rows(adj)
    levels = _chain_levels(succ, n)
    height = [sum(level >> v & 1 for level in levels) for v in range(n)]
    for masks in (adj, succ):
        assert wc_sweep(masks) == (succ, height)
        for m in range(1, n + 2):
            assert chain_of_length(masks, m) == chain_of_length_reference(succ, m)
