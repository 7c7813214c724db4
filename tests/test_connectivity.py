"""kappa-connectedness: oracle equivalence, examples, monotonicity."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connramsey import (
    FormatError,
    kappa_connected_mask,
    read_graph,
)
from connramsey import connectivity
from connramsey.connectivity import _cut_at_least
from connramsey.verify import _disjoint_paths_at_least, _split_graph
from oracles import (
    Graph,
    all_graphs_on,
    cut_at_least_reference,
    graph_rows,
    is_complete,
    kappa_connected_bruteforce,
    kappa_connected_fast,
    make_graph,
    min_vertex_separator,
    vertex_mask,
    write_graph,
)


def complete_graph(m):
    return make_graph(range(m), combinations(range(m), 2))


def cycle(m):
    return make_graph(range(m), [(i, (i + 1) % m) for i in range(m)])


def path_graph(m):
    return make_graph(range(m), [(i, i + 1) for i in range(m - 1)])


def random_graph(m, rng):
    edges = [p for p in combinations(range(m), 2) if rng.random() < rng.choice((0.2, 0.5, 0.8))]
    return make_graph(range(m), edges)


def test_is_connected_conventions():
    assert kappa_connected_fast(make_graph([], []), 1)
    assert kappa_connected_fast(make_graph([0], []), 1)
    assert not kappa_connected_fast(make_graph([0, 1], []), 1)
    assert kappa_connected_fast(cycle(4), 1)


def test_bruteforce_examples():
    assert kappa_connected_bruteforce(complete_graph(4), 4)
    assert not kappa_connected_bruteforce(cycle(4), 3)
    assert kappa_connected_bruteforce(cycle(4), 2)
    assert kappa_connected_bruteforce(make_graph([0], []), 1)


def test_fast_examples():
    assert kappa_connected_fast(complete_graph(4), 4)
    assert not kappa_connected_fast(path_graph(3), 2)


def highly_connected(g):
    return kappa_connected_bruteforce(g, len(g.vertices))


def test_highly_connected_examples():
    assert highly_connected(complete_graph(5))
    assert not highly_connected(cycle(4))
    k4_minus = make_graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert not highly_connected(k4_minus)
    assert highly_connected(make_graph([0], []))
    assert highly_connected(make_graph([0, 1], [(0, 1)]))


def test_oracle_equivalence_exhaustive_small():
    for m in range(6):
        for g in all_graphs_on(m):
            for kappa in range(1, m + 2):
                assert kappa_connected_fast(g, kappa) == kappa_connected_bruteforce(g, kappa), (
                    g,
                    kappa,
                )


def test_oracle_equivalence_random():
    rng = random.Random(0)
    for _ in range(500):
        m = rng.randint(1, 10)
        g = random_graph(m, rng)
        kappa = rng.randint(1, m + 1)
        assert kappa_connected_fast(g, kappa) == kappa_connected_bruteforce(g, kappa), (g, kappa)


def test_highly_connected_iff_complete_small():
    for m in range(1, 7):
        for g in all_graphs_on(m):
            assert highly_connected(g) == is_complete(g), g


def test_kappa_monotone():
    rng = random.Random(1)
    for _ in range(100):
        m = rng.randint(2, 8)
        g = random_graph(m, rng)
        verdicts = [kappa_connected_fast(g, k) for k in range(1, m + 2)]
        # once false, false for every larger kappa
        assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))


def test_edge_monotone():
    rng = random.Random(2)
    for _ in range(100):
        m = rng.randint(2, 8)
        g = random_graph(m, rng)
        missing = [p for p in combinations(range(m), 2) if p not in g.edges]
        if not missing:
            continue
        bigger = Graph(g.vertices, g.edges | {rng.choice(missing)})
        for kappa in range(1, m + 1):
            if kappa_connected_fast(g, kappa):
                assert kappa_connected_fast(bigger, kappa)


def random_embedded(rng, universe):
    """Random graph on the whole universe and a random vertex subset of it:
    the subset need not be contiguous, and its neighbor masks name
    vertices outside it, as when the hc decider tests a candidate set."""
    adj = [0] * universe
    p = rng.choice((0.3, 0.5, 0.7, 0.9))
    for a, b in combinations(range(universe), 2):
        if rng.random() < p:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    X = sorted(rng.sample(range(universe), rng.randint(0, universe)))
    return adj, X


def induced(adj, X):
    return make_graph(X, [(a, b) for a, b in combinations(X, 2) if adj[a] >> b & 1])


def test_disconnected_graph_answered_before_vertices_are_listed(monkeypatch):
    # The reachability gate comes first: listing the vertices of a large
    # mask one by one is quadratic in its size.
    def no_listing(mask):
        raise AssertionError("the kernel listed the vertices of a disconnected graph")

    monkeypatch.setattr("connramsey.connectivity.bits", no_listing)
    adj = graph_rows(make_graph(range(6), [(0, 1), (1, 2), (3, 4), (4, 5)]))
    for kappa in (1, 2, 6):
        assert not kappa_connected_mask(0b111111, adj, kappa)
    assert not kappa_connected_mask(0b11, [0, 0], 1)


def test_mask_matches_bruteforce_inside_larger_universe():
    rng = random.Random(3)
    for _ in range(1500):
        adj, X = random_embedded(rng, rng.randint(1, 12))
        vmask = sum(1 << v for v in X)
        g = induced(adj, X)
        for kappa in range(len(X) + 2):
            assert kappa_connected_mask(vmask, adj, kappa) == kappa_connected_bruteforce(g, kappa), (
                adj,
                X,
                kappa,
            )


def test_cut_at_least_counts_min_vertex_separator():
    rng = random.Random(4)
    for _ in range(400):
        adj, X = random_embedded(rng, rng.randint(2, 9))
        vmask = sum(1 << v for v in X)
        g = induced(adj, X)
        for s, t in combinations(X, 2):
            if adj[s] >> t & 1:
                continue
            sep = min_vertex_separator(g.vertices, g.edges, s, t)
            largest = max(k for k in range(len(X)) if _cut_at_least(vmask, adj, s, t, k))
            assert largest == sep, (adj, X, s, t)
            assert _cut_at_least(vmask, adj, t, s, sep)
            assert not _cut_at_least(vmask, adj, t, s, sep + 1)


@st.composite
def flow_instances(draw):
    """Symmetric rows on up to 12 vertices, a vertex mask that holds s and
    t and may leave out others (whose rows and bits stay in place), and a
    non-adjacent pair s, t."""
    n = draw(st.integers(2, 12))
    pairs = list(combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    adj = [0] * n
    for (a, b), edge in zip(pairs, present):
        if edge and {a, b} != {s, t}:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    inside = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    X = [v for v in range(n) if inside[v] or v in (s, t)]
    return adj, X, s, t


@settings(max_examples=300, deadline=None)
@given(flow_instances())
def test_layered_flow_matches_reference_and_separator(case):
    """The layer-mask flow, the parent-map flow it replaced and the
    brute-force separator agree for both orders of the pair and every k."""
    adj, X, s, t = case
    vmask = sum(1 << v for v in X)
    g = induced(adj, X)
    sep = min_vertex_separator(g.vertices, g.edges, s, t)
    for a, b in ((s, t), (t, s)):
        for k in range(1, len(X) + 1):
            fast = _cut_at_least(vmask, adj, a, b, k)
            slow = cut_at_least_reference(vmask, adj, a, b, k)
            assert fast == slow == (k <= sep), (adj, X, a, b, k)


def test_flow_walks_back_along_an_earlier_path():
    """The first augmenting path s-a-b..-c-t is the only shortest one, and
    the second must enter it at c, walk back to a through the reversed
    split arcs of the b's, and leave by the z chain; with the x and w
    chains, a third search must not reach b from c over a cancelled arc.
    Random rows seldom need either, so both are built."""
    rng = random.Random(8)
    for length in (1, 2, 3):
        chains = [
            ("s", ["a", *(f"b{i}" for i in range(length)), "c"], "t"),
            ("s", [f"y{i}" for i in range(length + 2)], "c"),
            ("a", [f"z{i}" for i in range(length + 2)], "t"),
            ("s", [f"x{i}" for i in range(length + 2)], "c"),
            ("b0", [f"w{i}" for i in range(length + 2)], "t"),
        ]
        for arms in (3, 5):
            for _ in range(4):
                walks = [[head, *body, tail] for head, body, tail in chains[:arms]]
                names = sorted({v for walk in walks for v in walk})
                label = dict(zip(names, rng.sample(range(len(names)), len(names))))
                edges = {
                    tuple(sorted((label[p], label[q]))) for w in walks for p, q in zip(w, w[1:])
                }
                g = make_graph(range(len(names)), edges)
                adj, vmask = graph_rows(g), vertex_mask(g)
                s, t = label["s"], label["t"]
                sep = min_vertex_separator(g.vertices, g.edges, s, t)
                assert sep == 2
                for a, b in ((s, t), (t, s)):
                    for k in (1, 2, 3):
                        assert _cut_at_least(vmask, adj, a, b, k) == (k <= sep), (length, a, b, k)
                        assert cut_at_least_reference(vmask, adj, a, b, k) == (k <= sep)


def test_flow_counts_on_bench_circulants(monkeypatch):
    """README's flow counts for the Esfahanian-Hakimi plan: a change to the
    sink plan must update both."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _cut_at_least(*args)

    monkeypatch.setattr(connectivity, "_cut_at_least", counted)
    for n, flows in ((40, 39), (60, 59)):
        calls.clear()
        assert kappa_connected_mask((1 << n) - 1, circulant_adj(n, 3), 6)
        assert len(calls) == flows, n


def test_even_cut_hidden_behind_first_sources():
    """Every cut smaller than kappa holds all of the first kappa - 1
    vertices, and each of them reaches every non-neighbor kappa times, so
    no flow from those vertices can find the cut."""
    rng = random.Random(5)
    for _ in range(60):
        kappa = rng.randint(2, 5)
        size_a = rng.randint(2, 4)
        size_b = rng.randint(max(2, kappa - size_a), 5)
        sep = list(range(kappa - 1))
        rest = list(range(kappa - 1, kappa - 1 + size_a + size_b))
        rng.shuffle(rest)
        A, B = rest[:size_a], rest[size_a:]
        edges = set(combinations(A, 2)) | set(combinations(B, 2))
        edges |= {(x, v) for x in sep for v in rest}
        edges |= {p for p in combinations(sep, 2) if rng.random() < 0.5}
        g = make_graph(sep + rest, edges)
        adj, vmask = graph_rows(g), vertex_mask(g)
        # The deficient cut is the first kappa - 1 vertices themselves, and
        # each of them still reaches every non-neighbor kappa times.
        for s in sep:
            for t in g.vertices:
                if t != s and not adj[s] >> t & 1:
                    assert _cut_at_least(vmask, adj, s, t, kappa)
        assert not kappa_connected_bruteforce(g, kappa)
        assert not kappa_connected_mask(vmask, adj, kappa)
        assert kappa_connected_mask(vmask, adj, kappa - 1)
        # One edge across the cut: the flow must not report a stale cut.
        bridged = Graph(g.vertices, g.edges | {tuple(sorted((rng.choice(A), rng.choice(B))))})
        assert kappa_connected_fast(bridged, kappa) == kappa_connected_bruteforce(bridged, kappa)


def test_cut_through_least_degree_vertex():
    """Every cut smaller than kappa holds the least-degree vertex v, so
    only a flow between two neighbors of v can find one.

    Cliques A and B are joined through a separator of kappa - 1 vertices:
    v, adjacent to kappa vertices of each clique, and kappa - 2 vertices
    adjacent to all of A and B.  Each cross pair of v's neighbors has
    exactly kappa - 1 common neighbors, one short of the skip.  One more
    vertex outside the graph is adjacent to everything, so a common
    neighbor counted outside vmask would lift the pair to the skip.
    """
    rng = random.Random(6)
    for _ in range(24):
        kappa = rng.randint(2, 5)
        low, high = 2 * kappa + 2, 2 * kappa + 4
        size_a, size_b = rng.randint(low, high), rng.randint(low, high)
        n = size_a + size_b + kappa
        labels = rng.sample(range(n), n)
        A, B = labels[:size_a], labels[size_a : size_a + size_b]
        v, *others, outside = labels[size_a + size_b :]
        edges = set(combinations(A, 2)) | set(combinations(B, 2))
        edges |= {(x, y) for x in others for y in A + B}
        edges |= set(combinations(others, 2))
        edges |= {(v, y) for y in rng.sample(A, kappa) + rng.sample(B, kappa)}
        edges |= {(outside, y) for y in labels if y != outside}
        adj = graph_rows(make_graph(labels, edges))
        vmask = sum(1 << x for x in labels) & ~(1 << outside)
        g = induced(adj, sorted(labels[:-1]))
        degree = {x: (adj[x] & vmask).bit_count() for x in g.vertices}
        assert all(degree[x] > degree[v] for x in g.vertices if x != v)
        for t in g.vertices:
            if t != v and not adj[v] >> t & 1:
                assert _cut_at_least(vmask, adj, v, t, kappa)
        assert not kappa_connected_mask(vmask, adj, kappa)
        assert kappa_connected_mask(vmask, adj, kappa - 1)
        if n <= 20:
            assert not kappa_connected_bruteforce(g, kappa)
            assert kappa_connected_bruteforce(g, kappa - 1)


def circulant_adj(n, r):
    adj = [0] * n
    for a in range(n):
        for d in range(1, r + 1):
            adj[a] |= 1 << (a + d) % n | 1 << (a - d) % n
    return adj


def menger_verdict(adj, X, kappa):
    """kappa-connected by the verifier's disjoint-path counter: every
    non-adjacent pair of X joined by kappa internally disjoint paths."""
    nbrs = {a: {b for b in X if adj[a] >> b & 1} for a in X}
    return all(
        _disjoint_paths_at_least(_split_graph(nbrs), a, b, kappa)
        for a, b in combinations(X, 2)
        if b not in nbrs[a]
    )


def test_mask_matches_menger_counter_on_large_graphs():
    """The sizes check-conn and the certify decides run at, beyond the
    reach of the brute-force oracle."""
    rng = random.Random(7)
    cases = []
    for n in (12, 17, 24, 31, 40):
        r = rng.randint(1, 4)
        cases += [(circulant_adj(n, r), list(range(n)), k) for k in (2 * r, 2 * r + 1)]
    for _ in range(6):
        size_a, size_b = rng.randint(6, 20), rng.randint(6, 20)
        bridges = rng.randint(1, 5)
        n = size_a + size_b
        A, B = range(size_a), range(size_a, n)
        edges = set(combinations(A, 2)) | set(combinations(B, 2))
        edges |= {(rng.choice(A), rng.choice(B)) for _ in range(bridges)}
        adj = graph_rows(make_graph(range(n), edges))
        cases += [(adj, list(range(n)), k) for k in (bridges, bridges + 1)]
    for _ in range(24):
        adj, X = random_embedded(rng, rng.randint(12, 40))
        if len(X) < 12:
            continue
        low = min((adj[x] & sum(1 << y for y in X)).bit_count() for x in X)
        cases.append((adj, X, rng.randint(1, low + 1)))
    for adj, X, kappa in cases:
        vmask = sum(1 << x for x in X)
        assert kappa_connected_mask(vmask, adj, kappa) == menger_verdict(adj, X, kappa), (
            adj,
            X,
            kappa,
        )


def test_graph_validation():
    with pytest.raises(ValueError, match="loop"):
        make_graph([0, 1], [(1, 1)])
    with pytest.raises(ValueError, match="leaves"):
        Graph((0, 1), frozenset({(0, 2)}))
    with pytest.raises(ValueError, match="ascending"):
        Graph((1, 0), frozenset())


def test_graph_file_round_trip():
    g = make_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    text = write_graph(g)
    assert text == "4 4\n0 1\n0 3\n1 2\n2 3\n"
    assert read_graph(text) == graph_rows(g) == [0b1010, 0b0101, 0b1010, 0b0101]


def test_graph_file_errors():
    with pytest.raises(FormatError, match="header"):
        read_graph("4\n")
    with pytest.raises(FormatError, match="expected 2 edge lines"):
        read_graph("3 2\n0 1\n")
    with pytest.raises(FormatError, match="duplicate"):
        read_graph("3 2\n0 1\n0 1\n")
    with pytest.raises(FormatError, match="need 0 <= a < b < n"):
        read_graph("3 1\n2 1\n")
