"""kappa-connectedness in the vertex-removal sense, on adjacency rows.

A graph is given by its adjacency rows, one neighbor mask per vertex,
and a vertex mask of the vertices it keeps; a graph file parses to the
rows of vertices 0..n-1, and the deciders pass the rows of a palette's
colored pairs.  A graph is kappa-connected when deleting any fewer than
kappa vertices leaves a connected graph, where graphs with at most one
vertex count as connected.  Under that convention a finite graph is
highly connected (|G|-connected) exactly when it is complete: removals
may cut a non-complete graph down to a missing pair.

The fast decision procedure rests on the equivalence

    kappa-connected  <=>  G is complete,
                          or G is connected, has at least kappa + 2
                          vertices, and every non-adjacent pair has
                          minimum vertex cut >= kappa

and on the Esfahanian-Hakimi reduction of its last clause (Esfahanian
and Hakimi, Networks 14, 1984), which flows from one source where
Even's reduction (Even, SIAM J. Comput. 4, 1975) flows from kappa.
Take a least-degree vertex v and a least cut S with |S| < kappa.  If S
misses v, it separates v from a non-neighbor.  If S holds v, then v,
like every vertex of a least cut, has a neighbor in each component of
G - S, so S separates two non-adjacent neighbors of v.  So only those
pairs need a flow, and a pair with kappa common neighbors needs none:
those give kappa internally disjoint two-edge paths.  Each flow is
unit-capacity flow on the vertex-split graph: its residual arcs are read
from bitmasks of the current flow, and each augmenting path is found one
breadth-first layer mask at a time and walked back by bit tests.  The
tests check it against the parent-map flow it replaced and a brute-force
removal enumerator in `tests/oracles.py`, which keeps the removal
definition literal, and against the certificate verifier, which counts
disjoint paths on its own and imports nothing from here.
"""

from __future__ import annotations

from itertools import chain

from .core import FormatError, bits, reach


def read_graph(text: str) -> list[int]:
    """Adjacency rows of a graph file: row v is the neighbor mask of
    vertex v, for v in 0..n-1."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"malformed header {lines[0]!r}: expected '<n> <e>'")
    try:
        n, e = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"malformed header {lines[0]!r}") from exc
    if n < 0 or e < 0:
        raise FormatError(f"bad header values n={n} e={e}")
    body = lines[1:]
    if len(body) != e:
        raise FormatError(f"expected {e} edge lines, got {len(body)}")
    adj = [0] * n
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"malformed edge line {ln!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"malformed edge line {ln!r}") from exc
        if not 0 <= a < b < n:
            raise FormatError(f"edge line {ln!r}: need 0 <= a < b < n")
        if adj[a] >> b & 1:
            raise FormatError(f"duplicate edge ({a}, {b})")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _cut_at_least(vmask: int, adj, s: int, t: int, k: int) -> bool:
    """At least k internally disjoint s-t paths (s, t non-adjacent).

    Unit-capacity flow on the vertex-split graph: each v has an entry
    v_in and an exit v_out joined by the split arc v_in -> v_out, and each
    edge vw gives the arcs v_out -> w_in and w_out -> v_in; every arc has
    capacity one, which suffices because flow through any edge is
    throttled by its endpoints.  The flow runs from s_out to t_in and is
    kept in masks: res[v] is adj[v] less the w with flow on v_out -> w_in,
    fin[w] holds the v with flow on those arcs, and used the vertices
    whose split arc carries flow.  Each augmenting-path search reads the
    residual arcs from them and the symmetric rows adj:

        v_out -> w_in   w in res[v] & vmask, w != s
        w_in -> v_out   v in fin[w] (cancels flow)
        v_in -> v_out   v not in used
        v_out -> v_in   v in used (cancels flow)

    Conservation gives fin[v] and adj[v] ^ res[v] one bit each for v in
    used and none otherwise (s and t aside): a used vertex's entry leads
    back only to its path predecessor, and its exit is reached only from
    its successor's entry.  A search keeps one mask per layer of exits
    and stops at the layer that reaches t_in; the path is then walked
    back by bit tests.  Stops as soon as k paths exist.
    """
    size = vmask.bit_length()
    res = adj[:size]
    fin = [0] * size
    used = 0
    enter = vmask & ~(1 << s)  # no path re-enters s
    for _ in range(k):
        layers = []
        seen_in = 0
        seen_out = exits = 1 << s
        while True:
            layers.append(exits)
            reached = 0
            step = exits
            while step:
                low = step & -step
                step ^= low
                reached |= res[low.bit_length() - 1]
            entries = (reached & enter | exits & used) & ~seen_in
            if entries >> t & 1:
                break
            seen_in |= entries
            exits = entries & ~used
            step = entries & used
            while step:
                low = step & -step
                step ^= low
                exits |= fin[low.bit_length() - 1]
            exits &= ~seen_out
            if not exits:
                return False
            seen_out |= exits
        # Augment back from t_in.  A step reads before it writes; what it
        # writes, later steps read only outside the layers they test.
        w = t
        for exits in reversed(layers):
            wbit = 1 << w
            back = exits & (adj[w] & ~fin[w] | used & wbit)
            vbit = back & -back
            v = vbit.bit_length() - 1
            prev = adj[v] ^ res[v] if used & vbit else vbit
            if v == w:
                used ^= vbit
            else:
                res[v] ^= wbit
                fin[w] |= vbit
            if v == s:
                break
            w = prev.bit_length() - 1
            if prev == vbit:
                used |= vbit
            else:
                res[v] ^= prev
                fin[w] ^= vbit
    return True


def kappa_connected_mask(vmask: int, adj, kappa: int) -> bool:
    """Bitset core of the fast decision; adj lists each vertex's neighbor mask.

    Neighbor masks may mention vertices outside vmask; they are ignored.
    After the connectivity, completeness, size and minimum-degree gates,
    the Esfahanian-Hakimi plan flows only from a least-degree vertex v
    (the lowest on ties) to each of its non-neighbors, and between each
    two non-adjacent neighbors of v, skipping a pair with kappa common
    neighbors in vmask.
    """
    if kappa <= 0:
        return True
    nv = vmask.bit_count()
    if nv <= 1:
        return True
    if reach(vmask & -vmask, adj, vmask) != vmask:
        # Gated before the vertices are listed: two or more vertices that
        # are not connected are neither complete nor 1-connected.
        return False
    verts = list(bits(vmask))
    if all((adj[v] & vmask) == vmask ^ (1 << v) for v in verts):
        return True
    if nv <= kappa + 1:
        # Removals reach two-vertex remainders, where only completeness
        # survives, and this graph is not complete.
        return False
    v = min(verts, key=lambda u: (adj[u] & vmask).bit_count())
    near = adj[v] & vmask
    if near.bit_count() < kappa:
        # A low-degree vertex has a non-neighbor; its neighborhood is a cut.
        return False
    pairs = chain(
        ((v, t) for t in bits(vmask & ~near & ~(1 << v))),
        # -(2 << x) keeps the bits above x, so each pair comes once.
        ((x, y) for x in bits(near) for y in bits(near & ~adj[x] & -(2 << x))),
    )
    for s, t in pairs:
        # kappa common neighbors are kappa disjoint two-edge paths.
        common = (adj[s] & adj[t] & vmask).bit_count()
        if common < kappa and not _cut_at_least(vmask, adj, s, t, kappa):
            return False
    return True
