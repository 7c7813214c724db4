"""Decide the partition relations on a coloring and search thresholds.

One witness search serves every mode.  hc asks for a size-m set X whose
palette-colored pairs form a j-connected graph on X (taking every
palette-colored pair inside X is sound because adding edges never breaks
j-connectedness); classical is hc with j = m.  Each member of a
j-connected m-set misses at most s = m - 1 - j others.  At s <= 1 that is
the whole test, as an m-vertex graph is (m - 1)-connected exactly when it
is complete and (m - 2)-connected exactly when its complement is a
matching, so _find_near_clique serves j >= m - 2 with two candidate masks
and no kernel.  _find_connected serves smaller j: it also peels j-cores
and runs the connectivity kernel on full m-sets.  Both grow X
lexicographically and bound it by a greedy coloring into independent
sets, made once per search after it has failed as many subtrees as there
are vertices to color: X takes at most s + 1 from each class.  A bound
only cuts subtrees without a witness, so the least witness, the palette
log and every output byte are those of the search without it.
wc asks for a size-m chain of the well-connectedness order under some
palette; its certificate carries one search-tree path per consecutive pair.

Searches are deterministic: palettes are enumerated in lexicographic
order of their ascending member tuples, vertex sets in lexicographic
order, and the first witness wins.

Threshold search quotients colorings by color permutations only; vertex
order carries meaning for wc, so vertex symmetry is never used.  Every
relation is monotone in the palette-colored pairs: adding pairs to a
palette never breaks a j-connected set or a well-connected chain.  A
walk colors the pair slots of the canonical colorings depth first, with
the unassigned pairs in no palette, and prunes a subtree as soon as its
partial coloring has a witness.  The relations are also hereditary, and
in colex pair order (every pair of 0..b-1 before any pair with b) a
prefix holding every pair of 0..n-1 is a coloring on n vertices, so for
classical and hc one walk over the pairs of up to n_max vertices
extends each level's failing colorings to the next, taking the pairs
of a new vertex the first time it reaches it: the most vertices it
colors without a witness make the last failing level.  The walk visits
restricted-growth strings in lexicographic order and prunes only
prefixes that hold a witness, so its first prefix over every pair of
0..n-1 is the colex-least failing canonical coloring on n, and that
coloring on the deepest level is the extremal.  Colex order prunes
nothing below m vertices, so the walk in lexicographic pair order (the
scanner) checks level m first; its first leaf without a witness, the
level's lexicographically least failing canonical coloring, is the
extremal when the colex walk completes no deeper level.

For wc, where a new pair can relate pairs away from it and each check
costs a whole order, a walk over order states replaces the scanner.  A
wc verdict asks only for an m-chain of some palette's well-connectedness
order, so it depends only on the coloring's state: its successor masks,
one order per maximal palette.  The relation is hereditary (a wc path
stays at or above its source, and a new top vertex lies above every old
one), so every failing state on n vertices is a child of one on n - 1,
and a child's state depends only on its parent's and, per palette, the
top mask of the old vertices whose pair with the new one has a palette
color.  The walk grows a failing state by every top vector with an O(n)
update per palette that also gives the new vertex's longest chain, so no
verdict searches or scans an order.  It decides each (palette, top mask)
once per state, descends depth first into every failing child, canonical
under color permutations, that it has not reached before, and stops at
its first failing state on n_max; else, once every state it reached is
expanded, the first depth with none is the threshold.  States keep no
coloring, so the extremal comes from the scanner, on the level below the
threshold or on n_max.  Verdicts try only the maximal palettes, as every
relation is monotone in the palette, and run on adjacency rows or
orders: only the extremal is a Coloring.  With kappa >= lam the one
maximal palette holds every pair, so every mode holds at n = m and
nothing is searched.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from itertools import combinations, permutations, product

from .connectivity import kappa_connected_mask
from .core import (
    Coloring,
    HcCertificate,
    Palette,
    RelationQuery,
    WcCertificate,
    bits,
    constant_coloring,
    palette_adjacency,
)
from .wellconn import chain_of_length, wc_certificate, wc_sweep


class ResourceCapExceeded(RuntimeError):
    """A search budget ran out; `reached` is the level a threshold search reached."""

    def __init__(self, message: str, reached: int = 0):
        super().__init__(message)
        self.reached = reached


class DecisionOutcome(namedtuple("DecisionOutcome", "certificate exhausted_palettes")):
    """Either a re-verifiable witness, when the relation holds, or the
    palette log, when it fails."""

    __slots__ = ()

    certificate: WcCertificate | HcCertificate | None
    exhausted_palettes: tuple[tuple[int, ...], ...] | None

    @property
    def holds(self) -> bool:
        return self.certificate is not None


def palette_tuples(lam: int, kappa: int):
    """Ascending-member color tuples of size 1..kappa, lexicographic.

    Lazy, each prefix before its extensions: decide stops at the first
    palette with a witness, and there are C(lam, 1) + ... + C(lam, kappa)
    palettes in all.
    """
    stack = [(x,) for x in range(lam - 1, -1, -1)]
    while stack:
        pal = stack.pop()
        yield pal
        if len(pal) < kappa:
            stack.extend(pal + (x,) for x in range(lam - 1, pal[-1], -1))


def _independent_classes(adj, mask: int) -> list[int]:
    """A greedy vertex coloring of the vertex mask: each class takes, in
    ascending order, every vertex left that has no neighbor in it, so
    every class is an independent set of adj."""
    classes = []
    while mask:
        cls = 0
        free = mask
        while free:
            low = free & -free
            cls |= low
            free &= ~adj[low.bit_length() - 1] ^ low
        mask ^= cls
        classes.append(cls)
    return classes


def _class_bound(state: list, adj, S: int, cap: int) -> int:
    """An upper bound on the vertices of the mask S in a set that meets
    each independent set of adj in at most cap vertices.

    state is [failures left, vertex mask, classes]: a search makes it as
    [n, mask, None], counts its failed subtrees down from n and then asks
    for the bound after each one.  The first call colors the mask
    (_independent_classes) and keeps the classes of more than cap
    vertices, since S can fill every other class.  The bound is |S| less,
    over the kept classes, the vertices of S beyond cap in each.  With no
    class kept it is always |S|, so the search is told never to ask again.
    """
    classes = state[2]
    if classes is None:
        classes = state[2] = [cls for cls in _independent_classes(adj, state[1]) if cls.bit_count() > cap]
        if not classes:
            state[0] = math.inf
    bound = S.bit_count()
    for cls in classes:
        over = (S & cls).bit_count() - cap
        if over > 0:
            bound -= over
    return bound


def _find_near_clique(adj, X: int, cands: int, m: int, s: int) -> int:
    """Mask of the lexicographically least m-set that contains the vertex
    mask X, takes its other members from the mask `cands` and whose
    members each miss at most s <= 1 others in `adj` (a clique, or K_m
    minus a matching), or 0.

    ok0 holds the candidates adjacent to every member, and ok1 those that
    miss one member, which misses no other.  Taking v from ok0 moves the
    candidates of ok0 that miss it to ok1 (at s = 1) and drops those of ok1
    that miss it; taking v from ok1, which misses u, keeps the candidates
    adjacent to both.  X meets an independent set in at most s + 1
    vertices, so after a failed subtree a node that needs more than two
    gives up once _class_bound (cap s + 1) over X and its candidates is
    below m.
    """
    ok0, ok1 = cands, 0
    rest = X
    while rest:
        low = rest & -rest
        rest ^= low
        row = adj[low.bit_length() - 1]
        miss = X & ~row ^ low  # the members it misses
        if miss:
            if not s or miss & miss - 1:
                return 0
            ok1 &= row
        elif s:
            ok1 = ok1 & row | ok0 & ~row
        ok0 &= row
    cands = ok0 | ok1
    need = m - X.bit_count()
    if cands.bit_count() < need:
        return 0
    if need < 2:
        return X | cands & -cands if need else X
    state = [(X | cands).bit_count(), X | cands, None] if need > 2 else None

    def grow(X: int, ok0: int, ok1: int, need: int) -> int:
        cands = ok0 | ok1
        while cands.bit_count() >= need:
            low = cands & -cands
            cands ^= low
            row = adj[low.bit_length() - 1]
            if ok1 & low:
                ok1 ^= low
                next1 = ok1 & row & adj[(X & ~row).bit_length() - 1]
            else:
                ok0 ^= low
                next1 = ok1 & row | ok0 & ~row if s else 0
            if need == 2:
                if last := ok0 & row | next1:
                    return X | low | last & -last
                continue
            hit = grow(X | low, ok0 & row, next1, need - 1)
            if hit:
                return hit
            state[0] -= 1
            if state[0] < 0 and _class_bound(state, adj, X | cands, s + 1) < m:
                return 0
        return 0

    return grow(X, ok0, ok1, need)


def _find_connected(adj, X: int, cands: int, m: int, j: int) -> int:
    """Mask of the lexicographically least m-set that contains the vertex
    mask X, takes its other members from the mask `cands` and is
    j-connected in `adj`, or 0.  For 1 <= j < m - 2.

    Each member of a j-connected m-set misses at most m - 1 - j others.
    Before branching, a node drops every candidate that already misses
    more than that many members of X, keeps only the neighbors of a member
    of X whose allowance is used up, and peels every candidate with fewer
    than j neighbors among X and the candidates, to a fixed point; it fails
    when a member of X has fewer than j there.  Only full m-sets reach the
    connectivity kernel.  As in _find_near_clique, after a failed subtree a
    node that needs more than two vertices gives up once _class_bound (cap
    m - j) over X and its candidates is below m.
    """
    budget = m - 1 - j
    state = [(X | cands).bit_count(), X | cands, None] if m - X.bit_count() > 2 else None

    def grow(X: int, cands: int, need: int) -> int:
        rest = X
        while rest:
            low = rest & -rest
            rest ^= low
            row = adj[low.bit_length() - 1]
            # X & ~row holds the member itself besides those it misses.
            if (X & ~row).bit_count() > budget:
                cands &= row
        if need == 1:
            # The kernel decides each candidate within the allowance.
            while cands:
                low = cands & -cands
                cands ^= low
                if (X & ~adj[low.bit_length() - 1]).bit_count() <= budget and kappa_connected_mask(X | low, adj, j):
                    return X | low
            return 0
        pool = X | cands
        while True:
            drop = 0
            rest = cands
            while rest:
                low = rest & -rest
                rest ^= low
                row = adj[low.bit_length() - 1]
                if (X & ~row).bit_count() > budget or (row & pool).bit_count() < j:
                    drop |= low
            if not drop:
                break
            cands ^= drop
            pool ^= drop
        rest = X
        while rest:
            low = rest & -rest
            rest ^= low
            if (adj[low.bit_length() - 1] & pool).bit_count() < j:
                return 0
        while cands.bit_count() >= need:
            low = cands & -cands
            cands ^= low
            hit = grow(X | low, cands, need - 1)
            if hit:
                return hit
            if need > 2:
                state[0] -= 1
                if state[0] < 0 and _class_bound(state, adj, X | cands, budget + 1) < m:
                    return 0
        return 0

    return grow(X, cands, m - X.bit_count())


def _witness(query: RelationQuery, adj, seed: int = 0, full: int = 0) -> int:
    """Vertex mask of the lexicographically least witness in the palette
    adjacency rows adj that contains the vertex mask `seed` and lies in
    the vertex mask `full` (all of adj's vertices when 0), or 0 when
    there is none.

    j >= m - 2 (classical, and hc by default) is _find_near_clique, and
    smaller j _find_connected; both take any seed.  A caller passes a seed
    when every classical or hc witness must contain it: the rows had none
    before the caller added the pair the seed is.  wc takes the least
    chain of the well-connectedness order on all of adj, ignoring `full`,
    and ignores the seed, since a new pair can relate pairs away from it.
    """
    m = query.m
    if query.mode == "wc":
        return chain_of_length(adj, m)
    j = m if query.j is None else query.j
    full = (full or (1 << len(adj)) - 1) & ~seed
    if j < m - 2:
        return _find_connected(adj, seed, full, m, j)
    return _find_near_clique(adj, seed, full, m, max(m - 1 - j, 0))


def decide(c: Coloring, query: RelationQuery) -> DecisionOutcome:
    """The first palette of size at most kappa, in palette_tuples order,
    with a witness, and a certificate for its least witness X; else the
    log of the palettes tried.

    Classical and hc certificates are hc certificates whose E holds every
    palette-colored pair of X and whose j is m for classical.  wc
    certificates carry one path per consecutive pair of X.
    """
    if query.m > c.n:
        raise ValueError(f"need 2 <= m <= n, got m={query.m}, n={c.n}")
    tried = []
    for pal in palette_tuples(c.lam, query.kappa):
        palette = Palette(frozenset(pal))
        adj = palette_adjacency(c, palette.members)
        xmask = _witness(query, adj)
        if not xmask:
            tried.append(pal)
            continue
        X = tuple(bits(xmask))
        if query.mode == "wc":
            cert = wc_certificate(c.n, c.lam, X, palette, adj)
            assert cert is not None  # chain pairs are related by construction
            return DecisionOutcome(cert, None)
        edges = frozenset((a, b) for a, b in combinations(X, 2) if adj[a] >> b & 1)
        j = query.m if query.j is None else query.j
        return DecisionOutcome(HcCertificate(c.n, c.lam, X, palette, edges, j), None)
    return DecisionOutcome(None, tuple(tried))


class ThresholdResult(namedtuple("ThresholdResult", "threshold extremal")):
    """Least n at which every coloring satisfies the relation, when that
    is at most n_max.

    extremal is a failing coloring at threshold - 1 on success (below the
    target size m every coloring fails for size reasons, so at n = m - 1
    the constant coloring is the witness) and a failing coloring at n_max
    when the search is exhausted (threshold None).  For classical and hc
    it is the colex-least failing canonical coloring on its level, or
    the lexicographically least at level m; for wc the lexicographically
    least.
    """

    __slots__ = ()

    threshold: int | None
    extremal: Coloring


def _maximal_palettes(lam: int, kappa: int) -> list[Palette]:
    """The palettes of size min(kappa, lam); every smaller palette lies
    inside one of them."""
    return [Palette(frozenset(pal)) for pal in combinations(range(lam), min(kappa, lam))]


def _walk(query: RelationQuery, lam: int, blocks, palettes, floor: int):
    """A depth-first walk over the restricted-growth strings of the pair
    slots (one per color-permutation orbit: each slot takes at most one
    more than the largest color before it), in lexicographic order, that
    keeps each palette's adjacency rows in place.  `blocks` yields the
    slots as lists, each ending where the slots so far hold every pair of
    0..n-1 for some n; the walk takes a block the first time it steps
    past the slots it has.  A witness on a prefix, its unassigned pairs
    in no palette, prunes the subtree.  A walk that reaches a node has
    found no witness above it, so once slot (a, b) takes color x only the
    palettes that contain x can gain one, for classical and hc only
    through a and b, and none can while the slots lie inside 0..m-2.
    Yields after every node the larger of floor and one more than the
    largest vertex of the slots so far; stops at the first leaf without a
    witness and returns the colors of the first prefix without one that
    ends the deepest block it reaches, or () when it ends none."""
    m = query.m
    # slots[i]: its pair, the mask of 0..top for the largest vertex top of
    # the slots up to i (0 while top < m - 1: no witness fits), the level
    # it yields and whether it ends a block.
    slots = []
    rows = [[] for _ in palettes]
    by_color = [[r for p, r in zip(palettes, rows) if x in p.members] for x in range(lam)]
    buf = []
    # hi[i]: the largest color among buf[:i]; slot i takes at most one more.
    hi = []
    top = -1

    def add(block) -> None:
        nonlocal top
        last = len(block) - 1
        for k, (a, b) in enumerate(block):
            top = max(top, b)
            slots.append((a, b, (2 << top) - 1 if top >= m - 1 else 0, max(floor, top + 1), k == last))
        for adj in rows:
            adj.extend([0] * (top + 1 - len(adj)))
        buf.extend([-1] * len(block))
        hi.extend([-1] * len(block))

    add(next(blocks))
    first = ()
    i = 0
    while i >= 0:
        a, b, full, level, end = slots[i]
        x = buf[i]
        if x >= 0:
            for adj in by_color[x]:
                adj[a] ^= 1 << b
                adj[b] ^= 1 << a
        if x > hi[i] or x == lam - 1:
            buf[i] = -1
            i -= 1
            continue
        x = buf[i] = x + 1
        for adj in by_color[x]:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        held = False
        if full:
            seed = 1 << a | 1 << b
            for adj in by_color[x]:
                if _witness(query, adj, seed, full):
                    held = True
                    break
        yield level
        if not held:
            if end and i >= len(first):
                first = tuple(buf[: i + 1])
            i += 1
            if i == len(slots):
                block = next(blocks, None)
                if block is None:
                    return first
                add(block)
            hi[i] = max(hi[i - 1], x)
    return first


def _first_failure(query: RelationQuery, n: int, lam: int, palettes):
    """The first failing canonical coloring on n vertices in enumeration
    order (lexicographic pair order), or None when every one holds."""
    colors = yield from _walk(query, lam, iter([list(combinations(range(n), 2))]), palettes, n)
    return Coloring(n, lam, colors) if colors else None


def _colex_search(query: RelationQuery, lam: int, n_max: int, palettes):
    """The classical and hc threshold search (see the module docstring);
    returns the ThresholdResult."""
    m = query.m
    failing = yield from _first_failure(query, m, lam, palettes)
    if failing is None:
        return ThresholdResult(m, constant_coloring(m - 1, 0, lam))
    n = m
    if n_max > m:
        blocks = ([(a, b) for a in range(b)] for b in range(1, n_max))
        colors = yield from _walk(query, lam, blocks, palettes, m)
        # colors holds every pair of 0..deep-1 in colex order.
        deep = (1 + math.isqrt(1 + 8 * len(colors))) // 2
        if deep > m:
            n = deep
            failing = Coloring(n, lam, tuple(colors[b * (b - 1) // 2 + a] for a, b in combinations(range(n), 2)))
    return ThresholdResult(None if n == n_max else n + 1, failing)


def _grow_order(succ, height, mask: int) -> tuple[tuple[int, ...], int]:
    """The successor masks of a palette's wc order with chain heights
    `height` (wc_sweep) once a top vertex t = len(succ) is added whose
    pairs with the vertices of `mask` lie in the palette, and the longest
    chain in t's grown block.  In G[>= a] the block of a is a plus
    succ[a], so adding t merges the blocks it touches.  Top down from
    a = t - 1, `joined` is the block of t in the grown G[> a], with
    longest chain h: a joins it exactly when its old block meets it or a
    is adjacent to t, and then gains all of it as successors and brings
    its own block in."""
    joined = 1 << len(succ)
    h = 1
    grown = [*succ, 0]
    for a in range(len(succ) - 1, -1, -1):
        s = succ[a]
        if s & joined or mask >> a & 1:
            grown[a] = s | joined
            joined |= s | 1 << a
            h = h + 1 if h >= height[a] else height[a]
    return tuple(grown), h


def _wc_states(query: RelationQuery, lam: int, n_max: int, palettes):
    """The wc walk over order states (see the module docstring); seen[n]
    holds the failing states reached on n vertices.  Yields the depth
    grown at every verdict it runs, and returns the ThresholdResult."""
    m = query.m
    index = {p.members: i for i, p in enumerate(palettes)}
    relabelings = {
        tuple(index[frozenset(perm[x] for x in p.members)] for p in palettes)
        for perm in permutations(range(lam))
    }

    def children(state, n):
        """Yields n per verdict run and each failing canonical child of state."""
        heights = [wc_sweep(succ)[1] for succ in state]
        # (palette, top mask) -> (grown order, whether it has an m-chain:
        # state has none, so only the new vertex's block can hold one)
        grown: dict[tuple[int, int], tuple[tuple[int, ...], bool]] = {}
        for top in product(range(lam), repeat=n - 1):
            by_color = [0] * lam
            for a, x in enumerate(top):
                by_color[x] |= 1 << a
            new = []
            for i, pal in enumerate(palettes):
                mask = sum(map(by_color.__getitem__, pal.members))  # disjoint masks
                hit = grown.get((i, mask))
                if hit is None:
                    succ, h = _grow_order(state[i], heights[i], mask)
                    hit = grown[i, mask] = succ, h >= m
                    yield n
                if hit[1]:
                    break
                new.append(hit[0])
            else:
                yield min(tuple(map(new.__getitem__, r)) for r in relabelings)

    root = ((0,),) * len(palettes)
    # A level's set is made when the walk first steps down to it, so an
    # n_max far above the threshold costs nothing.
    seen = [set(), {root}, set()]
    stack = [children(root, 2)]
    while stack:
        child = next(stack[-1], None)
        n = len(stack) + 1
        if child is None:
            stack.pop()
        elif isinstance(child, int):
            yield child
        elif n == n_max:
            return ThresholdResult(None, (yield from _first_failure(query, n_max, lam, palettes)))
        elif child not in seen[n]:
            seen[n].add(child)
            if len(seen) == n + 1:
                seen.append(set())
            stack.append(children(child, n + 1))
    n = seen.index(set(), 2)
    if n == m:
        return ThresholdResult(n, constant_coloring(m - 1, 0, lam))
    return ThresholdResult(n, (yield from _first_failure(query, n - 1, lam, palettes)))


def _drive(search, deadline: float | None):
    """Run the search to its result, checking the deadline before every
    step; `reached` is the largest level the search reported."""
    reached = 0
    while True:
        if deadline is not None and time.monotonic() > deadline:
            where = f"at n={reached}" if reached else "before the first step"
            raise ResourceCapExceeded(f"time budget used up {where}", reached)
        try:
            reached = max(reached, next(search))
        except StopIteration as done:
            return done.value


def ramsey_number(
    mode: str,
    m: int,
    lam: int,
    kappa: int,
    n_max: int,
    j: int | None = None,
    time_limit: float | None = None,
) -> ThresholdResult:
    """Least n <= n_max such that every coloring of the pairs of n
    vertices with lam colors satisfies the relation.

    Runs the colex walk, or for wc the walk over order states (see the
    module docstring); ThresholdResult says which failing coloring is
    the extremal.  With kappa >= lam it returns threshold m at once.
    A time_limit (seconds) raises ResourceCapExceeded when exhausted; a
    NaN one raises ValueError, and inf runs unbounded.  Running past
    n_max is not an error but a threshold of None.  j is the hc
    connectivity demand; RelationQuery rejects it in the other modes.
    """
    query = RelationQuery(mode, m, kappa, j)
    if lam < 1:
        raise ValueError("need lam >= 1")
    if n_max < m:
        raise ValueError(f"need n_max >= m, got n_max={n_max}, m={m}")
    if time_limit is not None and math.isnan(time_limit):
        raise ValueError("time_limit must be a number of seconds, got nan")
    if kappa >= lam:
        # The one maximal palette holds every pair, so any m vertices are
        # a witness in every mode, and below m every coloring fails.
        return ThresholdResult(m, constant_coloring(m - 1, 0, lam))
    deadline = None if time_limit is None else time.monotonic() + time_limit
    palettes = _maximal_palettes(lam, kappa)
    search = _wc_states if mode == "wc" else _colex_search
    return _drive(search(query, lam, n_max, palettes), deadline)
