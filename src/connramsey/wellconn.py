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
a certificate carries one path per consecutive pair.  Chains come from
level masks: level k holds the vertices that start a chain of k + 1
vertices.
"""

from __future__ import annotations

from .core import Coloring, Palette, WcCertificate, bits, palette_adjacency, reach


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
    below a.  A tree path is fixed when its vertex is discovered, so the
    search stops at b's discoverer with the path of the whole tree.
    """
    paths = {}
    for a, b in zip(xs, xs[1:]):
        above, seen, tree, frontier = -1 << a, 1 << a, {a: (a,)}, [a]
        while b not in tree:
            if not frontier:
                return None
            nxt = []
            for u in frontier:
                new = adj[u] & above & ~seen
                if new >> b & 1:
                    tree[b] = tree[u] + (b,)
                    break
                seen |= new
                for w in bits(new):
                    tree[w] = tree[u] + (w,)
                    nxt.append(w)
            frontier = nxt
        paths[(a, b)] = tree[b]
    return WcCertificate(n, lam, xs, palette, paths)


def wc_order_rows(adj) -> list[int]:
    """Successor masks of the relation on the palette's adjacency rows
    `adj`: bit b of the a-th mask is set exactly when a < b and the pair
    is well-connected in the palette.

    One reachability sweep per source and no search-tree parents:
    threshold search builds orders by the thousand and needs no paths;
    is_wc_set builds trees for the chain it certifies.
    """
    return [reach(1 << a, adj, -1 << a) ^ 1 << a for a in range(len(adj))]


def _chain_levels(succ, m: int) -> list[int]:
    """levels[k]: the mask of the vertices that start a chain of k + 1
    vertices, for k < m, up to the first empty level."""
    levels = []
    level = (1 << len(succ)) - 1
    while level and len(levels) < m:
        levels.append(level)
        nxt = 0
        for v, s in enumerate(succ):
            if s & level:
                nxt |= 1 << v
        level = nxt
    return levels


def chain_of_length(succ, m: int) -> int:
    """Vertex mask of the lexicographically least ascending chain with
    exactly m vertices of the order with successor masks succ, or 0.

    Taking the least vertex of each level in turn, from the top level
    down, among the successors of the last one taken is exact because the
    relation is transitive: extending through any successor keeps all
    earlier pairs related.
    """
    levels = _chain_levels(succ, m)
    if len(levels) < m:
        return 0
    chain = 0
    cands = -1
    for level in reversed(levels):
        low = cands & level
        low &= -low
        chain |= low
        cands = succ[low.bit_length() - 1]
    return chain
