"""Independent oracles for the test suite.

Everything here re-derives answers by exhaustive enumeration so library
results can be checked against code that shares nothing with the
production paths: simple-path search instead of reachability, subset
sweeps instead of chain dynamic programming and clique search, and a
brute-force removal enumerator instead of flows or path counting.  The
hc witness oracle leans only on that enumerator.  The hc subset sweep is
the exception: it shares the connectivity kernel and checks only the
pruning of the witness search.  Also here: the color relabelings the tests
use (the canonical form is the slow oracle for the enumeration's
restricted-growth strings and keys), the pairs of a successor-mask
order, and the per-pair list search whose paths the library's wc
certificates must reproduce byte for byte.

The rest are helpers that only the tests call, kept out of the package:
the colorings of the scanner's restricted-growth strings
(canonical_colorings); the wc order of a coloring (wc_order), its
longest chain (longest_wc_set) and tree_check, the executable form of
the claim that the relation is a tree order; graph construction and
serialization (make_graph, write_graph); and ordinal construction and
parsing (from_int, ord_parse).
"""

import re
from itertools import combinations

from connramsey import CnfOrdinal, Coloring, Graph, Palette
from connramsey.arrows import _restricted_growth
from connramsey.connectivity import kappa_connected_mask
from connramsey.core import bits, palette_adjacency
from connramsey.ordinals import ZERO
from connramsey.wellconn import _chain_levels, _check_palette, chain_of_length, wc_order_rows


def kappa_connected_bruteforce(g, kappa):
    """Test every removal set Y with |Y| < kappa, exhaustively.

    Removals that leave at most one vertex never disconnect.  kappa <= 0
    is vacuously true (there is nothing to remove, not even the empty
    set).  Each remainder is searched from its least vertex.
    """
    if kappa <= 0:
        return True
    adj = {v: 0 for v in g.vertices}
    for a, b in g.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    everything = sum(1 << v for v in g.vertices)
    for size in range(min(kappa - 1, len(g.vertices)) + 1):
        for removal in combinations(g.vertices, size):
            left = everything - sum(1 << y for y in removal)
            if left.bit_count() <= 1:
                continue
            seen = frontier = left & -left
            while frontier:
                v = frontier.bit_length() - 1
                frontier ^= 1 << v
                new = adj[v] & left & ~seen
                seen |= new
                frontier |= new
            if seen != left:
                return False
    return True


def wc_path_exists(c, a, b, members):
    """Exhaustive simple-path search from a to b over vertices >= a using
    only edges colored in members."""

    def dfs(u, used):
        if u == b:
            return True
        for w in range(a, c.n):
            if w in used or w == u:
                continue
            if c.color(u, w) in members:
                if dfs(w, used | {w}):
                    return True
        return False

    return dfs(a, frozenset([a]))


def wc_pairs_exhaustive(c, members):
    return {
        (a, b)
        for a in range(c.n)
        for b in range(a + 1, c.n)
        if wc_path_exists(c, a, b, members)
    }


def order_pairs(succ):
    """The related pairs (a, b) of the order with successor masks succ,
    in lexicographic order."""
    return [(a, b) for a, s in enumerate(succ) for b in bits(s)]


def max_wc_subset_exhaustive(c, members):
    """Size of the largest set whose pairs are all well-connected, by
    subset sweep over the exhaustively computed pair relation."""
    rel = wc_pairs_exhaustive(c, members)
    best = min(c.n, 1)
    for size in range(2, c.n + 1):
        hit = any(
            all(p in rel for p in combinations(sub, 2))
            for sub in combinations(range(c.n), size)
        )
        if not hit:
            break  # well-connected sets are closed under subsets
        best = size
    return best


def all_graphs_on(m):
    """Every graph on the vertex set 0..m-1."""
    verts = tuple(range(m))
    pairs = list(combinations(verts, 2))
    for bits in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)
        yield Graph(verts, edges)


def is_complete(g):
    n = len(g.vertices)
    return len(g.edges) == n * (n - 1) // 2


def has_monochromatic_m_set(c, m):
    """Direct scan for a size-m set whose pairs all share one color."""
    for sub in combinations(range(c.n), m):
        colors = {c.color(a, b) for a, b in combinations(sub, 2)}
        if len(colors) == 1:
            return True
    return False


def min_vertex_separator(vertices, edges, s, t):
    """Size of the smallest S, avoiding s and t, whose removal leaves no
    s-t path; found by sweeping removal sets in order of size.  s and t
    must be distinct and non-adjacent."""
    nbrs = {v: set() for v in vertices}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    others = [v for v in vertices if v not in (s, t)]
    for size in range(len(others) + 1):
        for removed in combinations(others, size):
            blocked = set(removed)
            seen, stack = {s}, [s]
            while stack:
                for w in nbrs[stack.pop()] - blocked - seen:
                    seen.add(w)
                    stack.append(w)
            if t not in seen:
                return size
    raise ValueError("s and t are adjacent")


def canonical_color_form(c):
    """Relabel colors by first appearance in lexicographic pair order.

    The result is a restricted-growth string over the pair slots: it is
    idempotent and constant on color-permutation orbits.
    """
    relabel: dict[int, int] = {}
    out = []
    for x in c.colors:
        if x not in relabel:
            relabel[x] = len(relabel)
        out.append(relabel[x])
    return Coloring(c.n, c.lam, tuple(out))


def permute_colors(c, perm):
    """Relabel colors through a bijection on 0..lambda-1."""
    perm = tuple(perm)
    if sorted(perm) != list(range(c.lam)):
        raise ValueError("color map is not a bijection on 0..lambda-1")
    return Coloring(c.n, c.lam, tuple(perm[x] for x in c.colors))


def _first_witness(c, m, kappa, accepts):
    """Walk the palettes of size 1..kappa as sorted tuples in
    lexicographic order, and the m-sets of each in lexicographic order;
    return (palette, X, palettes tried before) for the first set that
    accepts(palette, X) takes, or (None, None, every palette)."""
    palettes = sorted(p for k in range(1, kappa + 1) for p in combinations(range(c.lam), k))
    tried = []
    for pal in palettes:
        for X in combinations(range(c.n), m):
            if accepts(pal, X):
                return pal, X, tuple(tried)
        tried.append(pal)
    return None, None, tuple(tried)


def hc_witness_bruteforce(c, m, kappa, j):
    """First palette and least m-set whose palette-colored pairs pass the
    removal enumerator at connectivity j; classical is j = m."""

    def accepts(pal, X):
        edges = frozenset((a, b) for a, b in combinations(X, 2) if c.color(a, b) in pal)
        return kappa_connected_bruteforce(Graph(X, edges), j)

    return _first_witness(c, m, kappa, accepts)


def hc_witness_sweep(c, m, j, palettes, top=False):
    """(palette, X) for the first of `palettes` with a j-connected m-set,
    X the lexicographically least, by sweeping every m-set through the
    connectivity kernel; None when there is none.  With top=True only
    the m-sets that contain vertex n-1 are swept.  It is the library's
    hc search below j = m - 1 without its pruning, so it checks that the
    pruning loses no witness and keeps the least one.
    """
    masks = [1 << v for v in range(c.n)]
    for pal in palettes:
        adj = palette_adjacency(c, pal.members)
        if top:
            sets = (rest + (masks[-1],) for rest in combinations(masks[:-1], m - 1))
        else:
            sets = combinations(masks, m)
        for X in sets:
            if kappa_connected_mask(sum(X), adj, j):
                return pal, tuple(bits(sum(X)))
    return None


def wc_witness_bruteforce(c, m, kappa):
    """First palette and least m-set whose pairs are all joined by a
    simple path at or above their smaller end, by exhaustive search."""
    related = {}

    def accepts(pal, X):
        if pal not in related:
            related[pal] = wc_pairs_exhaustive(c, frozenset(pal))
        return all(p in related[pal] for p in combinations(X, 2))

    return _first_witness(c, m, kappa, accepts)


def wc_pair_reference(c, alpha, beta, members):
    """Breadth-first search from alpha over vertices >= alpha along edges
    colored in members, reading one pair color per step and stopping at
    beta; the path to beta in its search tree, or None.  This is the
    list-ordered search whose paths the library's wc certificates keep."""
    parent = {alpha: None}
    frontier = [alpha]
    while frontier:
        nxt = []
        for u in frontier:
            for w in range(alpha, c.n):
                if w in parent or w == u:
                    continue
                if c.color(u, w) in members:
                    parent[w] = u
                    if w == beta:
                        path = [w]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return tuple(reversed(path))
                    nxt.append(w)
        frontier = nxt
    return None


def canonical_colorings(n, lam):
    """One coloring per color-permutation orbit, in the order of the
    scanner's restricted-growth strings."""
    return (Coloring(n, lam, colors) for colors in _restricted_growth(n, lam))


def wc_order(c: Coloring, palette: Palette) -> list[int]:
    """Successor masks of the relation: bit b of the a-th mask is set
    exactly when a < b and the pair is well-connected in the palette.
    The library's wc_order_rows on the coloring's palette rows."""
    _check_palette(c, palette)
    return wc_order_rows(palette_adjacency(c, palette.members))


def longest_wc_set(c: Coloring, palette: Palette) -> tuple[int, ...]:
    """A maximum-size set well-connected in the palette.

    Computed as a longest chain of the order; ties break to the
    lexicographically least vertex list.
    """
    succ = wc_order(c, palette)
    return chain_of_length(succ, len(_chain_levels(succ, c.n)))


def tree_check(c: Coloring, palette: Palette) -> bool:
    """Is the relation a strict partial order with linearly ordered
    predecessor sets?  Expected true for every coloring and palette."""
    succ = wc_order(c, palette)
    preds = [0] * c.n
    for a, s in enumerate(succ):
        for b in bits(s):
            if succ[b] & ~s:
                return False
            preds[b] |= 1 << a
    # Each predecessor of b relates to every larger predecessor of b.
    return all(not p & -2 << a & ~succ[a] for p in preds for a in bits(p))


def make_graph(vertices, edges) -> Graph:
    """Graph from any iterables; edge pairs are normalized to a < b."""
    vs = tuple(sorted(set(vertices)))
    es = set()
    for a, b in edges:
        if a == b:
            raise ValueError(f"loop at vertex {a}")
        es.add((a, b) if a < b else (b, a))
    return Graph(vs, frozenset(es))


def write_graph(g: Graph) -> str:
    """Serialize: header `<n> <e>`, then `<a> <b>` edge lines, a < b.

    The file format fixes the vertex universe to 0..n-1.
    """
    n = len(g.vertices)
    if g.vertices != tuple(range(n)):
        raise ValueError("graph files require vertices 0..n-1")
    lines = [f"{n} {len(g.edges)}"]
    for a, b in sorted(g.edges):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def from_int(value: int) -> CnfOrdinal:
    if value < 0:
        raise ValueError("ordinals are non-negative")
    return CnfOrdinal(((0, value),)) if value else ZERO


_TERM_RE = re.compile(r"w\^(\d+)\*(\d+)|w\*(\d+)|(\d+)")


def ord_parse(text: str, d: int | None = None) -> CnfOrdinal:
    """Parse the ordinal grammar; `d`, when given, bounds the exponents."""
    s = text.strip()
    if s == "0":
        return ZERO
    terms = []
    for tok in s.split("+"):
        m = _TERM_RE.fullmatch(tok)
        if m is None:
            raise ValueError(f"malformed ordinal term {tok!r}")
        if m.group(1) is not None:
            e, c = int(m.group(1)), int(m.group(2))
        elif m.group(3) is not None:
            e, c = 1, int(m.group(3))
        else:
            e, c = 0, int(m.group(4))
        if c < 1:
            raise ValueError(f"coefficient must be >= 1 in {text!r}")
        if d is not None and e >= d:
            raise ValueError(f"exponent {e} not below the bound {d}")
        terms.append((e, c))
    for k in range(1, len(terms)):
        if terms[k - 1][0] <= terms[k][0]:
            raise ValueError(f"exponents not strictly descending in {text!r}")
    return CnfOrdinal(tuple(terms))
