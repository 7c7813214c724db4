"""Independent recheck of certificates against a coloring.

The verifier shares nothing with the deciders beyond the data model in
`core`: wc paths are rechecked edge by edge, each edge color read from
the coloring's color tuple by pair index.  A path is required for each
consecutive pair of the ascending X and checked for any other pair of X
that has one: paths a -> b at or above a and b -> c at or above b > a
join into a walk a -> c at or above a, which holds a simple path with
the same ends, so the consecutive pairs make every pair well-connected.
hc connectivity is re-derived from Menger's theorem (Menger, Fund.
Math. 10, 1927).  A graph is j-connected exactly when every non-adjacent
pair is joined by j internally vertex-disjoint paths.  So a complete
(X, E) passes at once.  A non-complete one with a vertex of fewer than j
neighbors fails: that vertex's neighborhood cuts it off from a
non-neighbor, or, when it has none, X has at most j vertices and a
non-adjacent pair at most j - 2 others to route through.  A non-adjacent
pair with j common neighbors has j disjoint two-edge paths and needs no
flow.  The paths of every other pair are counted on their own, by
augmenting paths that stop at j, on the vertex-split graph, a residual
dict-of-dicts built on the first such pair and reused, each pair's flow
undone before the next.  That is polynomial in |X|, where removing every
set of fewer than j vertices is exponential in j.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .core import Coloring, HcCertificate, WcCertificate, pair_index


def _split_graph(nbrs: dict[int, set[int]]) -> dict[int, dict[int, int]]:
    """The vertex-split graph of nbrs as a residual dict-of-dicts.

    Each vertex v is an entry v and an exit ~v = -v - 1, which no vertex
    is, joined by an arc of capacity one; each edge vw gives the arcs
    ~v -> w and ~w -> v.
    Every arc is stored with its reverse, which starts at capacity zero,
    so that a later path can cancel flow.
    """
    residual: dict[int, dict[int, int]] = {x: {} for v in nbrs for x in (v, ~v)}

    def arc(x, y):
        residual[x][y] = 1
        residual[y].setdefault(x, 0)

    for v, ws in nbrs.items():
        arc(v, ~v)
        for w in ws:
            arc(~v, w)
    return residual


def _disjoint_paths_at_least(
    residual: dict[int, dict[int, int]], s: int, t: int, k: int
) -> bool:
    """At least k internally vertex-disjoint s-t paths, s and t non-adjacent,
    in the split graph `residual` of _split_graph.

    The flow runs from s's exit to t's entry, so the arcs inside s and t
    carry none of it.  It is undone before returning, which leaves the
    split graph ready for the next pair.
    """
    source, sink = ~s, t
    pushed = []
    try:
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
                pushed.append((x, y))
                y = x
        return True
    finally:
        for x, y in pushed:
            residual[x][y] += 1
            residual[y][x] -= 1


def verify_certificate(cert, coloring: Coloring) -> str | None:
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
    # Fields read in the loops below are bound once: a local is read
    # faster than a named-tuple field.
    n, colors = cert.n, coloring.colors
    if isinstance(cert, WcCertificate):
        X, paths = cert.X, cert.paths
        for pair in zip(X, X[1:]):
            if pair not in paths:
                return f"missing path for pair {pair}"
        members = set(X)
        extra = [(a, b) for a, b in paths if not (a in members and b in members and a < b)]
        if extra:
            return f"unexpected path key {min(extra)} outside the pairs of X"
        for a, b in sorted(paths):
            path = paths[(a, b)]
            if len(path) < 2 or path[0] != a or path[-1] != b:
                return f"path for ({a}, {b}) does not run from {a} to {b}"
            if len(set(path)) != len(path):
                return f"path for ({a}, {b}) repeats a vertex"
            for v in path:
                if not 0 <= v < n:
                    return f"path for ({a}, {b}) leaves the vertex range"
                if v < a:
                    return f"path for ({a}, {b}) dips below source: vertex {v} < {a}"
            for u, w in zip(path, path[1:]):
                col = colors[pair_index(n, u, w) if u < w else pair_index(n, w, u)]
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
            col = colors[pair_index(n, a, b)]
            if col not in allowed:
                return f"edge ({a}, {b}) colored {col} outside the palette"
            nbrs[a].add(b)
            nbrs[b].add(a)
        if len(cert.E) == len(cert.X) * (len(cert.X) - 1) // 2:
            return None  # complete, so no pair is non-adjacent
        if min(map(len, nbrs.values())) < cert.j:
            return f"(X, E) is not {cert.j}-connected"
        residual = None
        for a, b in combinations(cert.X, 2):
            if b in nbrs[a] or len(nbrs[a] & nbrs[b]) >= cert.j:
                continue
            if residual is None:
                residual = _split_graph(nbrs)
            if not _disjoint_paths_at_least(residual, a, b, cert.j):
                return f"(X, E) is not {cert.j}-connected"
        return None
    return f"unknown certificate type {type(cert).__name__}"
