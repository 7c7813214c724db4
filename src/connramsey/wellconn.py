"""Well-connectedness of pairs and sets, and the induced order.

A pair a < b is well-connected in a palette when some finite path joins a
to b using only vertices >= a and only edges whose colors lie in the
palette.  The path may leave any ambient set under discussion; only the
coloring's vertex range constrains it.  Reachability in the induced
subgraph on {a..n-1} decides the question, because every walk contains a
simple path with the same endpoints.

Relating a < b whenever the pair is well-connected yields a strict order,
kept as one successor bitmask per vertex: the a-th mask holds the b > a
reachable from a above a.  Concatenating witness paths shows it is
transitive, and its predecessor sets are linearly ordered; the tree_check
oracle in tests/oracles.py asserts both on concrete inputs, and a failure
there is a test failure, not a silent assumption.  By transitivity an
ascending set is well-connected exactly when each consecutive pair is, so
a certificate carries one path per consecutive pair.  One top-down
sweep gives the order and the longest chain from each vertex
(wc_sweep), and a chain is read off the levels those heights make.
"""

from __future__ import annotations

from .core import Coloring, Palette, WcCertificate, bits, palette_adjacency


def _check_palette(c: Coloring, palette: Palette) -> None:
    for x in palette.members:
        if x >= c.lam:
            raise ValueError(f"palette color {x} out of range for lambda={c.lam}")


def is_wc_set(c: Coloring, X, palette: Palette) -> WcCertificate | None:
    """Certificate with a path per consecutive pair when every pair of X
    is well-connected in the palette; singletons and the empty set
    qualify vacuously.  The relation is transitive, so the consecutive
    pairs of X decide every pair."""
    xs = tuple(sorted(set(X)))
    for v in xs:
        if not 0 <= v < c.n:
            raise ValueError(f"vertex {v} out of range for n={c.n}")
    _check_palette(c, palette)
    return wc_certificate(c.n, c.lam, xs, palette, palette_adjacency(c, palette.members))


def wc_certificate(n: int, lam: int, xs, palette: Palette, adj) -> WcCertificate | None:
    """is_wc_set for the ascending vertices xs on the palette's rows adj.

    The path of a consecutive pair a < b is the path to b in the
    breadth-first search tree from a over vertices >= a: frontier by
    frontier, each frontier vertex in discovery order adding its new
    neighbors in ascending order, so the path is simple and never dips
    below a.  b stays undiscovered until it is found, so its parent is the
    first vertex of its frontier adjacent to it, and a frontier is
    expanded only while b's row misses the frontier's mask `layer`.
    """
    paths = {}
    for a, b in zip(xs, xs[1:]):
        near = adj[b]
        frontier, layer, free, parent = [a], 1 << a, -2 << a, {}
        while not near & layer:
            if not layer:
                return None
            nxt, layer = [], 0
            for v in frontier:
                new = adj[v] & free
                free ^= new
                layer |= new
                for w in bits(new):
                    parent[w] = v
                    nxt.append(w)
            frontier = nxt
        for u in frontier:
            if near >> u & 1:
                break
        path = [b, u]
        while u != a:
            u = parent[u]
            path.append(u)
        path.reverse()
        paths[(a, b)] = tuple(path)
    return WcCertificate(n, lam, xs, palette, paths)


def wc_sweep(masks) -> tuple[list[int], list[int]]:
    """(succ, height): the successor masks of the wc order on palette rows
    or on a wc order's own successor masks, and the most vertices of a
    chain from each vertex.  Top down from a = n - 1, the components of
    G[> a] are kept as a mask of roots: a component is its least vertex r
    plus succ[r], and r is related to all of it.  succ[a] is the union of
    the components that the neighbors of a above a meet (on a wc order,
    those succ[a] holds), and height[a] is one more than the largest of
    their roots' heights."""
    succ = [0] * len(masks)
    height = succ[:]
    roots = 0
    for a in reversed(range(len(masks))):
        up = masks[a] & -2 << a
        s, h, rest = 0, 0, roots
        while up:
            low = rest & -rest
            rest ^= low
            r = low.bit_length() - 1
            comp = succ[r] | low
            if comp & up:
                up &= ~comp
                s |= comp
                roots ^= low
                h = height[r] if height[r] > h else h
        succ[a] = s
        height[a] = h + 1
        roots |= 1 << a
    return succ, height


def chain_of_length(masks, m: int) -> int:
    """Vertex mask of the lexicographically least ascending chain of m >= 1
    vertices of the wc order of `masks` (as wc_sweep takes them), or 0.
    Level k, the vertices that start a chain of k + 1 vertices, is the
    union of the height tiers from k up.  Taking the least vertex of each
    level in turn, from the top level down, among the successors of the
    last one taken is exact because the relation is transitive: extending
    through any successor keeps all earlier pairs related."""
    succ, height = wc_sweep(masks)
    tiers = [0] * m
    for v, h in enumerate(height):
        tiers[min(h, m) - 1] |= 1 << v
    if not tiers[-1]:
        return 0
    chain, level, cands = 0, 0, -1
    for tier in reversed(tiers):
        level |= tier
        low = cands & level
        low &= -low
        chain |= low
        cands = succ[low.bit_length() - 1]
    return chain
