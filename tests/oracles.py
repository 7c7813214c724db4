"""Independent oracles for the test suite.

Everything here re-derives answers by exhaustive enumeration so library
results can be checked against code that shares nothing with the
production paths: simple-path search instead of reachability, subset
sweeps instead of chain dynamic programming and clique search, and a
brute-force removal enumerator instead of flows or path counting.  The
hc witness oracle leans only on that enumerator.  Four are exceptions:
the hc subset sweep shares the connectivity kernel and checks only the
pruning of the witness search; the per-coloring threshold scanner
(first_failures) runs decide on every canonical coloring and checks
only the pruning of the threshold search, in lexicographic or colex
pair order (lex_pairs, colex_pairs); the level-by-level scanner
(_scan_levels), which shares the restricted-growth walk and checks the
thresholds of the classical and hc search in colex pair order; and the colour-orbit
extension search (_extend_levels), which shares the witness search,
checks the wc search over order states level by level.  Also here: the
color relabelings the tests use (the canonical form is the slow oracle
for the enumeration's restricted-growth strings and keys), the pairs of
a successor-mask order, and the per-pair list search whose paths the
library's wc certificates must reproduce byte for byte.

The rest are helpers that only the tests call, kept out of the package:
the scanner's restricted-growth strings and their colorings
(_restricted_growth, canonical_colorings); the color of a pair (color);
the wc order of a coloring (wc_order), its longest chain
(longest_wc_set) and tree_check, the executable form of the claim that
the relation is a tree order; the Graph type of the removal enumerator,
its vertex mask and adjacency rows (vertex_mask, graph_rows), the
library's kernel on it (kappa_connected_fast), and its construction and
serialization (make_graph, write_graph); and ordinal construction and
parsing (from_int, ord_parse).

Last come the per-line and per-pair coloring and certificate readers and
verifier (read_coloring_reference, certificate_from_json_reference,
verify_certificate_reference), the references the library's bulk
versions are held to, and the kernel's flow as it was before its
layer-mask search (cut_at_least_reference), which records each
vertex's BFS parent in a dict and which the layered flow is held to.
The wc order and its chains as they were before the top-down sweep
(wc_sweep) are the sweep's oracles: one reachability search per source
(wc_order_rows), a scan of every vertex per chain level (_chain_levels)
and the least chain read off those levels (chain_of_length_reference).
"""

import json
import re
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product

from connramsey import (
    CnfOrdinal,
    Coloring,
    FormatError,
    HcCertificate,
    Palette,
    RelationQuery,
    WcCertificate,
    make_coloring,
)
from connramsey.arrows import ThresholdResult, _first_failure, _witness, decide
from connramsey.connectivity import kappa_connected_mask
from connramsey.core import (
    _as_int,
    _as_int_list,
    bits,
    constant_coloring,
    pair_index,
    palette_adjacency,
    reach,
)
from connramsey.ordinals import ZERO
from connramsey.wellconn import _check_palette


@dataclass(frozen=True)
class Graph:
    """Undirected loop-free graph on an ascending vertex tuple: the input
    type of the brute-force oracle, which the library replaces with
    adjacency rows."""

    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        vs = set()
        for k, v in enumerate(self.vertices):
            if v < 0:
                raise ValueError(f"negative vertex {v}")
            if k and self.vertices[k - 1] >= v:
                raise ValueError("vertices must be strictly ascending")
            vs.add(v)
        for a, b in self.edges:
            if a >= b:
                raise ValueError(f"edge ({a}, {b}) must have a < b")
            if a not in vs or b not in vs:
                raise ValueError(f"edge ({a}, {b}) leaves the vertex set")


def vertex_mask(g):
    return sum(1 << v for v in g.vertices)


def graph_rows(g):
    """Adjacency rows of g: row v is the neighbor mask of vertex v, for v
    up to the largest vertex (rows of non-vertices stay empty)."""
    adj = [0] * (max(g.vertices, default=-1) + 1)
    for a, b in g.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def kappa_connected_fast(g, kappa):
    """The library's connectivity kernel on a Graph."""
    return kappa_connected_mask(vertex_mask(g), graph_rows(g), kappa)


def kappa_connected_bruteforce(g, kappa):
    """Test every removal set Y with |Y| < kappa, exhaustively.

    Removals that leave at most one vertex never disconnect.  kappa <= 0
    is vacuously true (there is nothing to remove, not even the empty
    set).  Each remainder is searched from its least vertex.
    """
    if kappa <= 0:
        return True
    adj = graph_rows(g)
    everything = vertex_mask(g)
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
            if color(c, u, w) in members:
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
        colors = {color(c, a, b) for a, b in combinations(sub, 2)}
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


def cut_at_least_reference(vmask: int, adj, s: int, t: int, k: int) -> bool:
    """At least k internally disjoint s-t paths (s, t non-adjacent).

    Unit-capacity flow on the vertex-split graph: each v has an entry
    v_in and an exit v_out joined by the split arc v_in -> v_out, and each
    edge vw gives the arcs v_out -> w_in and w_out -> v_in; every arc has
    capacity one, which suffices because flow through any edge is
    throttled by its endpoints.  The flow runs from s_out to t_in and is
    kept in three masks: fout[v] holds the w with flow on v_out -> w_in,
    fin[w] the same arcs seen from w, and used the vertices whose split
    arc carries flow.  Each augmenting-path search reads the residual
    arcs from them and adj:

        v_out -> w_in   w in adj[v] & vmask, w != s, w not in fout[v]
        w_in -> v_out   v in fin[w] (cancels flow)
        v_in -> v_out   v not in used
        v_out -> v_in   v in used (cancels flow)

    Conservation gives fin[v] and fout[v] one bit each for v in used and
    none otherwise (s and t aside), so a used vertex's entry leads back
    only to its predecessor on its path.  Stops as soon as k paths exist.
    """
    size = vmask.bit_length()
    fout = [0] * size
    fin = [0] * size
    used = 0
    sbit, tbit = 1 << s, 1 << t
    enter = vmask & ~sbit  # no path re-enters s
    for _ in range(k):
        # BFS by layers of exits.  from_out[w] is the exit that reached
        # w_in (w itself: the reversed split arc); from_in[v] is the entry
        # that reached v_out (v itself: the split arc).
        from_out: dict[int, int] = {}
        from_in: dict[int, int] = {}
        seen_in = 0
        seen_out = frontier = sbit
        while frontier:
            entries = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                v = low.bit_length() - 1
                opened = (adj[v] & ~fout[v] & enter | used & low) & ~seen_in
                seen_in |= opened
                entries |= opened
                while opened:
                    w_low = opened & -opened
                    opened ^= w_low
                    from_out[w_low.bit_length() - 1] = v
            if seen_in & tbit:
                break
            while entries:
                low = entries & -entries
                entries ^= low
                w = low.bit_length() - 1
                nxt = fin[w] if used & low else low
                if not seen_out & nxt:
                    seen_out |= nxt
                    frontier |= nxt
                    from_in[nxt.bit_length() - 1] = w
        if not seen_in & tbit:
            return False
        # Augment along the path back from t_in to s_out.
        w = t
        while True:
            v = from_out[w]
            if v == w:
                used &= ~(1 << v)
            else:
                fout[v] |= 1 << w
                fin[w] |= 1 << v
            if v == s:
                break
            w = from_in[v]
            if w == v:
                used |= 1 << v
            else:
                fout[v] &= ~(1 << w)
                fin[w] &= ~(1 << v)
    return True


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
        edges = frozenset((a, b) for a, b in combinations(X, 2) if color(c, a, b) in pal)
        return kappa_connected_bruteforce(Graph(X, edges), j)

    return _first_witness(c, m, kappa, accepts)


def hc_witness_sweep(c, m, j, palettes, seed=0):
    """(palette, X) for the first of `palettes` with a j-connected m-set
    that contains the vertex mask `seed`, X the lexicographically least,
    by sweeping every such m-set through the connectivity kernel; None
    when there is none.  It is the library's hc searches without their
    pruning and candidate masks, so it checks that they lose no witness
    and keep the least one.
    """
    rest = [1 << v for v in range(c.n) if not seed >> v & 1]
    for pal in palettes:
        adj = palette_adjacency(c, pal.members)
        for X in combinations(rest, m - seed.bit_count()):
            if kappa_connected_mask(seed + sum(X), adj, j):
                return pal, tuple(bits(seed + sum(X)))
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
                if color(c, u, w) in members:
                    parent[w] = u
                    if w == beta:
                        path = [w]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return tuple(reversed(path))
                    nxt.append(w)
        frontier = nxt
    return None


def _restricted_growth(n: int, lam: int):
    """The pair colors of exactly one coloring per color-permutation
    orbit, as tuples in deterministic order: the restricted-growth
    strings over the lexicographic pair slots with values below lam, in
    lexicographic order."""
    if n < 2:
        raise ValueError("need n >= 2")
    if lam < 1:
        raise ValueError("need lam >= 1")
    npairs = n * (n - 1) // 2
    buf = [0] * npairs
    # cap[i]: the largest value slot i may take after the prefix buf[:i],
    # i.e. one past the largest value used so far, and below lam.
    cap = [min(1, lam - 1)] * npairs
    cap[0] = 0
    while True:
        yield tuple(buf)
        i = npairs - 1
        while buf[i] == cap[i]:
            i -= 1
            if i < 0:
                return
        buf[i] += 1
        nxt = min(max(cap[i], buf[i] + 1), lam - 1)
        for k in range(i + 1, npairs):
            buf[k] = 0
            cap[k] = nxt


def lex_pairs(n):
    """The pairs of 0..n-1 in lexicographic order, the order of
    Coloring.colors and of the scanner's slots."""
    return list(combinations(range(n), 2))


def colex_pairs(n):
    """The pairs of 0..n-1 in colex order, every pair of 0..b-1 before any
    pair with b: the order of the threshold walk's slots."""
    return [(a, b) for b in range(1, n) for a in range(b)]


def canonical_colorings(n, lam, order=lex_pairs):
    """One coloring per color-permutation orbit, in the order of the
    restricted-growth strings over the pair slots order(n)."""
    slot = {p: k for k, p in enumerate(order(n))}
    where = [slot[p] for p in lex_pairs(n)]
    return (Coloring(n, lam, tuple(colors[k] for k in where)) for colors in _restricted_growth(n, lam))


def first_failures(query, lam, n_max, order):
    """The threshold scanner by decide, level by level: for each n from
    query.m up to n_max, the first of canonical_colorings(n, lam, order)
    that fails, stopping after the first level where none fails.  Returns
    (ThresholdResult, {n: first failing coloring or None})."""
    m = query.m
    failing = {}
    prev = Coloring(m - 1, lam, (0,) * ((m - 1) * (m - 2) // 2))
    for n in range(m, n_max + 1):
        failing[n] = next(
            (c for c in canonical_colorings(n, lam, order) if not decide(c, query).holds), None
        )
        if failing[n] is None:
            return ThresholdResult(n, prev), failing
        prev = failing[n]
    return ThresholdResult(None, prev), failing


# The colour-orbit extension search, which wc threshold search ran
# before it walked order states; the reference for the state walk
# (_wc_states).


def _extension_slots(n: int) -> list[int]:
    """For each pair of n vertices in lexicographic order, its position in
    the colors of the first n-1 vertices followed by the n-1 colors of
    the pairs (a, n-1)."""
    below = (n - 1) * (n - 2) // 2
    return [
        below + a if b == n - 1 else pair_index(n - 1, a, b)
        for a in range(n)
        for b in range(a + 1, n)
    ]


def _key(colors, lam: int) -> int:
    """Colors relabelled by first appearance, as one base-lam number with
    the first slot most significant: numeric order is lexicographic."""
    relabel: dict[int, int] = {}
    key = 0
    for x in colors:
        y = relabel.get(x)
        if y is None:
            y = relabel[x] = len(relabel)
        key = key * lam + y
    return key


def _unpack(key: int, lam: int, npairs: int) -> tuple[int, ...]:
    out = [0] * npairs
    for i in range(npairs - 1, -1, -1):
        key, out[i] = divmod(key, lam)
    return tuple(out)


def _top_verdicts(query: RelationQuery, n: int, lam: int, base, palettes):
    """(top, holds, searched) per top vector in product order: whether
    extending the colors `base` on n - 1 vertices by a vertex with those
    pair colors holds, and whether that ran a witness search.  Verdicts
    are memoised per (palette, top mask); see the module docstring."""
    last = n - 1
    base_coloring = Coloring(last, lam, base)
    base_rows = [palette_adjacency(base_coloring, p.members) for p in palettes]
    held: dict[tuple[int, int], bool] = {}
    for top in product(range(lam), repeat=last):
        by_color = [0] * lam
        for a, x in enumerate(top):
            by_color[x] |= 1 << a
        before = len(held)
        for i, pal in enumerate(palettes):
            mask = sum(map(by_color.__getitem__, pal.members))  # disjoint masks
            verdict = held.get((i, mask))
            if verdict is None:
                rows = [r | 1 << last if mask >> a & 1 else r for a, r in enumerate(base_rows[i])]
                verdict = held[i, mask] = _witness(query, rows + [mask], 1 << last) != 0
            if verdict:
                break
        yield top, verdict, len(held) > before


def _scan_levels(query: RelationQuery, lam: int, n_max: int, palettes):
    """The level-by-level scanner: per n, the first failing canonical
    coloring in enumeration order, each level walked from scratch.
    Yields what the walk yields and returns the ThresholdResult."""
    m = query.m
    prev_failing = constant_coloring(m - 1, 0, lam)
    for n in range(m, n_max + 1):
        failing = yield from _first_failure(query, n, lam, palettes)
        if failing is None:
            return ThresholdResult(n, prev_failing)
        prev_failing = failing
    return ThresholdResult(None, prev_failing)


def _extend_levels(query: RelationQuery, lam: int, n_max: int, palettes):
    """The extension search: the failing canonical colorings of level n
    are the canonical forms of the failing one-vertex extensions of
    level n-1.  Below m every coloring fails, so it starts from all
    canonical colorings on m-1 vertices.  Levels are sets of packed
    colors.  Yields the level after every coloring seeded and every
    verdict that ran a witness search, and returns the ThresholdResult."""
    m = query.m
    if m == 2:
        level = {0}
    else:
        level = set()
        for colors in _restricted_growth(m - 1, lam):
            level.add(_key(colors, lam))
            yield m - 1
    for n in range(m, n_max + 1):
        slots = _extension_slots(n)
        below = (n - 1) * (n - 2) // 2
        failing: set[int] = set()
        for key in level:
            base = _unpack(key, lam, below)
            for top, holds, searched in _top_verdicts(query, n, lam, base, palettes):
                if not holds:
                    failing.add(_key(map((base + top).__getitem__, slots), lam))
                if searched:
                    yield n
        if not failing:
            return ThresholdResult(n, Coloring(n - 1, lam, _unpack(min(level), lam, below)))
        level = failing
    return ThresholdResult(
        None, Coloring(n_max, lam, _unpack(min(level), lam, n_max * (n_max - 1) // 2))
    )


def color(c, a, b):
    """Color of the unordered pair {a, b} of the coloring c."""
    if a > b:
        a, b = b, a
    return c.colors[pair_index(c.n, a, b)]


def wc_order_rows(adj) -> list[int]:
    """Successor masks of the relation on the palette's adjacency rows
    `adj`: bit b of the a-th mask is set exactly when a < b and the pair
    is well-connected in the palette.  One reachability search per
    source: the oracle of the library's top-down sweep (wc_sweep)."""
    return [reach(1 << a, adj, -1 << a) ^ 1 << a for a in range(len(adj))]


def wc_order(c: Coloring, palette: Palette) -> list[int]:
    """wc_order_rows on the coloring's palette rows."""
    _check_palette(c, palette)
    return wc_order_rows(palette_adjacency(c, palette.members))


def _chain_levels(succ, m: int) -> list[int]:
    """levels[k]: the mask of the vertices that start a chain of k + 1
    vertices, for k < m, up to the first empty level.  One scan of every
    vertex per level: the oracle of the sweep's chain heights."""
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


def chain_of_length_reference(succ, m: int) -> int:
    """The library's chain_of_length as it was before the sweep: the
    least vertex of each of _chain_levels's levels in turn, from the top
    level down, among the successors of the last one taken, or 0 when
    there are fewer than m levels."""
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


def longest_wc_set(c: Coloring, palette: Palette) -> tuple[int, ...]:
    """A maximum-size set well-connected in the palette.

    Computed as a longest chain of the order; ties break to the
    lexicographically least vertex list.
    """
    succ = wc_order(c, palette)
    return tuple(bits(chain_of_length_reference(succ, len(_chain_levels(succ, c.n)))))


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


# The coloring and certificate readers and the verifier as they were
# before their bulk fast paths: one Python step per line, path or pair.
# The differential tests in tests/test_bulk_codecs.py hold the library's
# versions to the same objects, rejection messages and violations.


def read_coloring_reference(text: str) -> Coloring:
    """Parse the coloring file format; inverse of write_coloring."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty coloring file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"malformed header {lines[0]!r}: expected '<n> <lambda>'")
    try:
        n, lam = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"malformed header {lines[0]!r}") from exc
    if n < 0 or lam < 1:
        raise FormatError(f"bad header values n={n} lambda={lam}")
    want = n * (n - 1) // 2
    body = lines[1:]
    if len(body) != want:
        raise FormatError(f"expected {want} pair lines, got {len(body)}")
    entries = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError(f"malformed pair line {ln!r}")
        try:
            a, b, col = map(int, parts)
        except ValueError as exc:
            raise FormatError(f"malformed pair line {ln!r}") from exc
        if a >= b:
            raise FormatError(f"pair line {ln!r}: need a < b")
        entries.append((a, b, col))
    try:
        return make_coloring(n, lam, entries)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _unique_keys_reference(pairs):
    doc = {}
    for key, val in pairs:
        if key in doc:
            raise FormatError(f"duplicate key {key!r} in certificate")
        doc[key] = val
    return doc


def certificate_from_json_reference(text: str):
    """Parse a certificate document.

    Structural parsing only: semantic validity against a coloring is the
    verifier's job.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys_reference)
    except json.JSONDecodeError as exc:
        raise FormatError(f"certificate is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("certificate JSON is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise FormatError("certificate document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("wc", "hc"):
        raise FormatError(f"certificate kind must be 'wc' or 'hc', got {kind!r}")
    n = _as_int(doc, "n")
    lam = _as_int(doc, "lambda")
    X = tuple(_as_int_list(doc.get("X"), "X"))
    palette = Palette(frozenset(_as_int_list(doc.get("Lambda"), "Lambda")))
    if kind == "wc":
        raw = doc.get("paths")
        if not isinstance(raw, dict):
            raise FormatError("wc certificate needs a 'paths' object")
        paths = {}
        for key, val in raw.items():
            parts = key.split(",")
            if len(parts) != 2:
                raise FormatError(f"bad path key {key!r}: expected 'a,b'")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise FormatError(f"bad path key {key!r}") from exc
            if key != f"{a},{b}":
                # "00,1" or " 0,1" would name the same pair as "0,1".
                raise FormatError(f"bad path key {key!r}: expected '{a},{b}'")
            paths[(a, b)] = tuple(_as_int_list(val, f"paths[{key}]"))
        return WcCertificate(n, lam, X, palette, paths)
    raw = doc.get("E")
    if not isinstance(raw, list):
        raise FormatError("hc certificate needs an 'E' list")
    edges = set()
    for item in raw:
        pair = _as_int_list(item, "E entry")
        if len(pair) != 2:
            raise FormatError(f"bad edge {item!r}: expected [a, b]")
        if (pair[0], pair[1]) in edges:
            raise FormatError(f"duplicate edge {item!r}")
        edges.add((pair[0], pair[1]))
    return HcCertificate(n, lam, X, palette, frozenset(edges), _as_int(doc, "j"))


def _disjoint_paths_reference(nbrs: dict[int, set[int]], s: int, t: int, k: int) -> bool:
    """At least k internally vertex-disjoint s-t paths, s and t non-adjacent.

    Each vertex v is an entry (v, 0) and an exit (v, 1) joined by an arc
    of capacity one, and each edge vw gives the arcs (v, 1) -> (w, 0) and
    (w, 1) -> (v, 0); the flow runs from s's exit to t's entry.  Every arc
    is stored with its reverse, which starts at capacity zero, so a later
    path can cancel flow.
    """
    residual = {(v, side): {} for v in nbrs for side in (0, 1)}

    def arc(x, y):
        residual[x][y] = 1
        residual[y].setdefault(x, 0)

    for v, ws in nbrs.items():
        if v != s and v != t:
            arc((v, 0), (v, 1))
        for w in ws:
            arc((v, 1), (w, 0))
    source, sink = (s, 1), (t, 0)
    for _ in range(k):
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            x = queue.popleft()
            for y, cap in residual[x].items():
                if cap and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            return False
        y = sink
        while y != source:
            x = parent[y]
            residual[x][y] -= 1
            residual[y][x] += 1
            y = x
    return True


def verify_certificate_reference(cert, coloring: Coloring) -> str | None:
    """Recheck a certificate from scratch against a coloring.

    Independent of the decision procedures: wc paths are rechecked edge
    by edge, and hc connectivity is counted pair by pair in disjoint
    paths, never through the decider's flow kernel.  Returns None when
    valid, otherwise a description of the first violation found.
    """
    if cert.n != coloring.n or cert.lam != coloring.lam:
        return (
            f"certificate is for n={cert.n} lambda={cert.lam}, "
            f"coloring has n={coloring.n} lambda={coloring.lam}"
        )
    for k, v in enumerate(cert.X):
        if not 0 <= v < cert.n:
            return f"vertex {v} of X out of range"
        if k and cert.X[k - 1] >= v:
            return "X is not strictly ascending"
    allowed = set(cert.palette.members)
    for x in allowed:
        if not 0 <= x < cert.lam:
            return f"palette color {x} out of range"
    if isinstance(cert, WcCertificate):
        # A path per consecutive pair suffices: the relation is transitive.
        # A path given for any other pair of X is checked as well.
        have = set(cert.paths)
        missing = set(zip(cert.X, cert.X[1:])) - have
        if missing:
            return f"missing path for pair {min(missing)}"
        extra = have - set(combinations(cert.X, 2))
        if extra:
            return f"unexpected path key {min(extra)} outside the pairs of X"
        for (a, b) in sorted(cert.paths):
            path = cert.paths[(a, b)]
            if len(path) < 2 or path[0] != a or path[-1] != b:
                return f"path for ({a}, {b}) does not run from {a} to {b}"
            if len(set(path)) != len(path):
                return f"path for ({a}, {b}) repeats a vertex"
            for v in path:
                if not 0 <= v < cert.n:
                    return f"path for ({a}, {b}) leaves the vertex range"
                if v < a:
                    return f"path for ({a}, {b}) dips below source: vertex {v} < {a}"
            for u, w in zip(path, path[1:]):
                col = color(coloring, u, w)
                if col not in allowed:
                    return f"path edge ({u}, {w}) colored {col} outside the palette"
        return None
    if isinstance(cert, HcCertificate):
        if cert.j < 1:
            return f"certified connectivity {cert.j} must be >= 1"
        nbrs: dict[int, set[int]] = {v: set() for v in cert.X}
        for a, b in sorted(cert.E):
            if a >= b:
                return f"edge ({a}, {b}) must have a < b"
            if a not in nbrs or b not in nbrs:
                return f"edge ({a}, {b}) leaves X"
            col = color(coloring, a, b)
            if col not in allowed:
                return f"edge ({a}, {b}) colored {col} outside the palette"
            nbrs[a].add(b)
            nbrs[b].add(a)
        for a, b in combinations(cert.X, 2):
            if b not in nbrs[a] and not _disjoint_paths_reference(nbrs, a, b, cert.j):
                return f"(X, E) is not {cert.j}-connected"
        return None
    return f"unknown certificate type {type(cert).__name__}"
