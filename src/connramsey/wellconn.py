"""Well-connectedness of pairs and sets, and the induced order.

A pair a < b is well-connected in a palette when some finite path joins a
to b using only vertices >= a and only edges whose colors lie in the
palette.  The path may leave any ambient set under discussion; only the
coloring's vertex range constrains it.  Reachability in the induced
subgraph on {a..n-1} decides the question, because every walk contains a
simple path with the same endpoints.

Relating a < b whenever the pair is well-connected yields a strict order.
Concatenating witness paths shows it is transitive, and its predecessor
sets are linearly ordered; tree_check asserts both on concrete inputs,
and a failure there is a test failure, not a silent assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Coloring, Palette, WcCertificate, bits, palette_adjacency, reach


def _check_palette(c: Coloring, palette: Palette) -> None:
    for x in palette.members:
        if x >= c.lam:
            raise ValueError(f"palette color {x} out of range for lambda={c.lam}")


def _search_tree(adj, a: int) -> dict[int, int]:
    """Breadth-first search from a over vertices >= a along adj: the
    parent of every vertex reached, in discovery order.

    Vertices are discovered frontier by frontier, each frontier vertex in
    discovery order adding its new neighbors in ascending order, so every
    tree path is simple, starts at a and never dips below a.
    """
    above = -1 << a
    seen = 1 << a
    parent = {a: a}
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            new = adj[u] & above & ~seen
            seen |= new
            for w in bits(new):
                parent[w] = u
                nxt.append(w)
        frontier = nxt
    return parent


def _tree_path(parent: dict[int, int], b: int) -> tuple[int, ...] | None:
    """Path from the root of the search tree to b, or None."""
    if b not in parent:
        return None
    path = [b]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def wc_pair(c: Coloring, alpha: int, beta: int, palette: Palette) -> tuple[int, ...] | None:
    """Witnessing path for the pair, or None: the path to beta in the
    search tree from alpha over vertices >= alpha along palette-colored
    edges."""
    if not 0 <= alpha < c.n or not 0 <= beta < c.n:
        raise ValueError(f"pair ({alpha}, {beta}) out of range for n={c.n}")
    if alpha >= beta:
        raise ValueError("need alpha < beta")
    _check_palette(c, palette)
    return _tree_path(_search_tree(palette_adjacency(c, palette.members), alpha), beta)


def is_wc_set(c: Coloring, X, palette: Palette) -> WcCertificate | None:
    """Certificate with a path per pair when every pair of X is
    well-connected in the palette; singletons and the empty set qualify
    vacuously.  One search tree per vertex of X gives its paths to the
    larger ones, the same paths wc_pair gives."""
    xs = tuple(sorted(set(X)))
    for v in xs:
        if not 0 <= v < c.n:
            raise ValueError(f"vertex {v} out of range for n={c.n}")
    _check_palette(c, palette)
    return wc_certificate(c.n, c.lam, xs, palette, palette_adjacency(c, palette.members))


def wc_certificate(n: int, lam: int, xs, palette: Palette, adj) -> WcCertificate | None:
    """is_wc_set for the ascending vertices xs on the palette's rows adj."""
    paths = {}
    for k, a in enumerate(xs[:-1]):
        parent = _search_tree(adj, a)
        for b in xs[k + 1 :]:
            p = _tree_path(parent, b)
            if p is None:
                return None
            paths[(a, b)] = p
    return WcCertificate(n, lam, xs, palette, paths)


@dataclass(frozen=True)
class WcOrder:
    """Successor sets of the well-connectedness relation on 0..n-1.

    rel(a, b) holds exactly when a < b and the pair is well-connected in
    the palette the order was built from.
    """

    n: int
    palette: Palette
    succ: tuple[frozenset[int], ...]

    def rel(self, a: int, b: int) -> bool:
        return b in self.succ[a]

    def pairs(self):
        for a in range(self.n):
            for b in sorted(self.succ[a]):
                yield a, b


def wc_order(c: Coloring, palette: Palette) -> WcOrder:
    """Materialize the relation by one reachability sweep per source.

    Keeps no search-tree parents: threshold search builds orders by the
    thousand and needs no paths; is_wc_set builds trees for the chain it
    certifies.
    """
    _check_palette(c, palette)
    return wc_order_rows(palette_adjacency(c, palette.members), palette)


def wc_order_rows(adj, palette: Palette) -> WcOrder:
    """wc_order on the palette's adjacency rows `adj`."""
    succ = tuple(
        frozenset(bits(reach(1 << a, adj, -1 << a) ^ (1 << a))) for a in range(len(adj))
    )
    return WcOrder(len(adj), palette, succ)


def _chain_potentials(order: WcOrder) -> list[int]:
    """Length of the longest chain starting at each vertex."""
    best = [1] * order.n
    for v in range(order.n - 1, -1, -1):
        top = 0
        for w in order.succ[v]:
            if best[w] > top:
                top = best[w]
        best[v] = 1 + top
    return best


def chain_of_length(order: WcOrder, m: int) -> tuple[int, ...] | None:
    """Lexicographically least ascending chain with exactly m vertices.

    Greedy over the potentials is exact because the relation is
    transitive: extending through any successor keeps all earlier pairs
    related.
    """
    if m == 0:
        return ()
    best = _chain_potentials(order)
    start = next((v for v in range(order.n) if best[v] >= m), None)
    if start is None:
        return None
    out = [start]
    need = m - 1
    while need:
        step = next(w for w in sorted(order.succ[out[-1]]) if best[w] >= need)
        out.append(step)
        need -= 1
    return tuple(out)


def longest_wc_set(c: Coloring, palette: Palette) -> tuple[int, ...]:
    """A maximum-size set well-connected in the palette.

    Computed as a longest chain of the order by dynamic programming; ties
    break to the lexicographically least vertex list.
    """
    order = wc_order(c, palette)
    if order.n == 0:
        return ()
    chain = chain_of_length(order, max(_chain_potentials(order)))
    assert chain is not None
    return chain


def tree_check(c: Coloring, palette: Palette) -> bool:
    """Is the relation a strict partial order with linearly ordered
    predecessor sets?  Expected true for every coloring and palette."""
    order = wc_order(c, palette)
    for a in range(order.n):
        succ_a = order.succ[a]
        for b in succ_a:
            if not order.succ[b] <= succ_a:
                return False
    preds: list[list[int]] = [[] for _ in range(order.n)]
    for a in range(order.n):
        for b in order.succ[a]:
            preds[b].append(a)
    for b in range(order.n):
        below = sorted(preds[b])
        for i, low in enumerate(below):
            for high in below[i + 1 :]:
                if high not in order.succ[low]:
                    return False
    return True
