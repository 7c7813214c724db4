"""Decide the partition relations on a coloring and search thresholds.

decide_classical asks for a size-m vertex set whose pairs use colors from
a palette of size at most kappa; decide_hc asks for a size-m set X whose
palette-colored pairs form a j-connected graph on X (taking every
palette-colored pair inside X is sound because adding edges never breaks
kappa-connectedness); decide_wc asks for a size-m chain of the
well-connectedness order under some palette.

Searches are deterministic: palettes are enumerated in lexicographic
order of their ascending member tuples, vertex sets in lexicographic
order, and the first witness wins.

Threshold search quotients colorings by color permutations only; vertex
order carries meaning for wc, so vertex symmetry is never used.  All
three relations are upward-hereditary: a witness in the coloring on
vertices 0..n-2 is still a witness once a top vertex n-1 is added (a wc
path stays at or above its source, and the new vertex lies above every
old one).  So every coloring that fails on n vertices extends one that
fails on n-1 vertices.  ramsey_number races two deterministic searches,
one verdict each in turn, and takes the answer of whichever finishes
first:

* the scanner walks the canonical colorings of each n in enumeration
  order and stops a level at its first failure; it wins where failures
  are dense;
* the extension search keeps the set of failing canonical colorings of
  each level and extends each by every color vector on the pairs of a new
  top vertex; it wins where failures are sparse.

Both report the lexicographically least canonical failing coloring one
level below the threshold: the scanner because the enumeration order is
lexicographic, the extension search because its level set holds every
failing canonical coloring and it reports the least.  Verdicts in the
search only try the maximal palettes, as every relation is monotone in
the palette.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations, product

from .connectivity import kappa_connected_mask
from .core import (
    AT_MOST_K,
    Coloring,
    HcCertificate,
    Palette,
    RelationQuery,
    WcCertificate,
    canonical_color_form,
    pair_index,
    palette_adjacency,
)
from .wellconn import chain_of_length, wc_order, wc_pair


class ResourceCapExceeded(RuntimeError):
    """A configured search budget ran out before an answer was reached."""


@dataclass(frozen=True)
class DecisionOutcome:
    """Verdict plus either a re-verifiable witness or the palette log.

    verdict == "holds" exactly when a certificate is present.
    """

    verdict: str
    certificate: WcCertificate | HcCertificate | None
    exhausted_palettes: tuple[tuple[int, ...], ...] | None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _holds(cert) -> DecisionOutcome:
    return DecisionOutcome("holds", cert, None)


def _fails(palettes) -> DecisionOutcome:
    return DecisionOutcome("fails", None, tuple(palettes))


def palette_tuples(lam: int, kappa: int):
    """Ascending-member color tuples of size 1..kappa, lexicographic."""

    def grow(prefix: tuple[int, ...], lo: int):
        for x in range(lo, lam):
            cur = prefix + (x,)
            yield cur
            if len(cur) < kappa:
                yield from grow(cur, x + 1)

    yield from grow((), 0)


def _check_params(c: Coloring, m: int, kappa: int) -> None:
    if not 2 <= m <= c.n:
        raise ValueError(f"need 2 <= m <= n, got m={m}, n={c.n}")
    if kappa < 1:
        raise ValueError("need kappa >= 1")


def _find_clique(adj, cands: int, m: int) -> tuple[int, ...] | None:
    """Lexicographically least m-set inside the vertex mask `cands` whose
    pairs are all adjacent in `adj`, or None."""
    out: list[int] = []

    def grow(cands: int, need: int) -> bool:
        if need == 0:
            return True
        while cands:
            if cands.bit_count() < need:
                return False
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            out.append(v)
            if grow(cands & adj[v], need - 1):
                return True
            out.pop()
        return False

    return tuple(out) if grow(cands, m) else None


def decide_classical(c: Coloring, m: int, kappa: int) -> DecisionOutcome:
    """Some X of size m with all pair colors inside a size <= kappa
    palette?  The witness is an hc certificate with E = all pairs of X
    and certified connectivity m."""
    _check_params(c, m, kappa)
    tried = []
    for pal in palette_tuples(c.lam, kappa):
        X = _find_clique(palette_adjacency(c, set(pal)), (1 << c.n) - 1, m)
        if X is not None:
            palette = Palette(frozenset(pal), AT_MOST_K, kappa)
            return _holds(HcCertificate(c.n, c.lam, X, palette, frozenset(combinations(X, 2)), m))
        tried.append(pal)
    return _fails(tried)


def decide_hc(c: Coloring, m: int, kappa: int, j: int | None = None) -> DecisionOutcome:
    """Some X of size m whose palette-colored pairs form a j-connected
    graph on X?  j defaults to m, the highly connected reading, under
    which this collapses to decide_classical at finite scale."""
    j = m if j is None else j
    _check_params(c, m, kappa)
    if not 1 <= j <= m:
        raise ValueError(f"need 1 <= j <= m, got j={j}")
    tried = []
    for pal in palette_tuples(c.lam, kappa):
        colors = set(pal)
        adj = palette_adjacency(c, colors)
        for X in combinations(range(c.n), m):
            xmask = 0
            for v in X:
                xmask |= 1 << v
            if kappa_connected_mask(xmask, adj, j):
                palette = Palette(frozenset(pal), AT_MOST_K, kappa)
                edges = frozenset(
                    (a, b) for a, b in combinations(X, 2) if c.color(a, b) in colors
                )
                return _holds(HcCertificate(c.n, c.lam, X, palette, edges, j))
        tried.append(pal)
    return _fails(tried)


def decide_wc(c: Coloring, m: int, kappa: int) -> DecisionOutcome:
    """Some palette of size <= kappa whose well-connectedness order has a
    chain of length m?"""
    _check_params(c, m, kappa)
    tried = []
    for pal in palette_tuples(c.lam, kappa):
        palette = Palette(frozenset(pal), AT_MOST_K, kappa)
        X = chain_of_length(wc_order(c, palette), m)
        if X is not None:
            paths = {}
            for a, b in combinations(X, 2):
                p = wc_pair(c, a, b, palette)
                assert p is not None  # chain pairs are related by construction
                paths[(a, b)] = p
            return _holds(WcCertificate(c.n, c.lam, X, palette, paths))
        tried.append(pal)
    return _fails(tried)


def decide(c: Coloring, query: RelationQuery) -> DecisionOutcome:
    if query.mode == "classical":
        return decide_classical(c, query.m, query.kappa)
    if query.mode == "hc":
        return decide_hc(c, query.m, query.kappa, query.j)
    return decide_wc(c, query.m, query.kappa)


def enumerate_colorings_canonical(n: int, lam: int):
    """Exactly one coloring per color-permutation orbit, in deterministic
    order: the restricted-growth strings over the lexicographic pair
    slots with values below lam, in lexicographic order."""
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
        yield Coloring(n, lam, tuple(buf))
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


@dataclass(frozen=True)
class ThresholdResult:
    """Least n at which every coloring satisfies the relation, when that
    is at most n_max.

    extremal is a failing coloring at threshold - 1 on success (below the
    target size m every coloring fails for size reasons, so at n = m - 1
    the constant coloring is the witness) and a failing coloring at n_max
    when the search is exhausted (threshold None).
    """

    threshold: int | None
    extremal: Coloring


def _maximal_palettes(lam: int, kappa: int) -> list[Palette]:
    """The palettes of size min(kappa, lam); every smaller palette lies
    inside one of them."""
    return [
        Palette(frozenset(pal), AT_MOST_K, kappa)
        for pal in combinations(range(lam), min(kappa, lam))
    ]


def _satisfies(c: Coloring, query: RelationQuery, palettes, top: bool = False) -> bool:
    """Verdict only: does c satisfy the relation under one of `palettes`?

    The palettes are the maximal ones: adding a color to the palette adds
    edges, which never breaks a clique, j-connectedness or a wc path.
    With top=True the caller knows that the coloring on vertices 0..n-2
    fails, so every classical or hc witness must contain vertex n-1 and
    only those are tried; wc keeps the full check.
    """
    m = query.m
    if query.mode == "wc":
        return any(chain_of_length(wc_order(c, pal), m) is not None for pal in palettes)
    last = c.n - 1
    bits = [1 << v for v in range(c.n)]
    for pal in palettes:
        adj = palette_adjacency(c, pal.members)
        if query.mode == "classical":
            if top:
                found = _find_clique(adj, adj[last], m - 1)
            else:
                found = _find_clique(adj, (1 << c.n) - 1, m)
            if found is not None:
                return True
            continue
        if not top:
            if any(kappa_connected_mask(sum(X), adj, query.j) for X in combinations(bits, m)):
                return True
            continue
        # The top vertex of a j-connected m-set has at least min(j, m - 1)
        # neighbors inside it: otherwise the set is neither complete nor
        # of minimum degree j.
        need = min(query.j, m - 1)
        near = adj[last]
        for rest in combinations(bits[:last], m - 1):
            xmask = sum(rest) | bits[last]
            if (xmask & near).bit_count() >= need and kappa_connected_mask(xmask, adj, query.j):
                return True
    return False


def _scan_levels(query: RelationQuery, lam: int, n_max: int, palettes):
    """The scanner: per n, canonical colorings in enumeration order up to
    the first failure.  Yields the level after every verdict and returns
    the ThresholdResult."""
    m = query.m
    prev_failing = Coloring(m - 1, lam, (0,) * ((m - 1) * (m - 2) // 2))
    for n in range(m, n_max + 1):
        failing = None
        for cand in enumerate_colorings_canonical(n, lam):
            holds = _satisfies(cand, query, palettes)
            yield n
            if not holds:
                failing = cand
                break
        if failing is None:
            return ThresholdResult(n, prev_failing)
        prev_failing = failing
    return ThresholdResult(None, prev_failing)


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


def _pack(colors, lam: int) -> int:
    """Colors as one base-lam number, first slot most significant: for
    colorings of one size, numeric order is lexicographic order."""
    key = 0
    for x in colors:
        key = key * lam + x
    return key


def _unpack(key: int, lam: int, npairs: int) -> tuple[int, ...]:
    out = [0] * npairs
    for i in range(npairs - 1, -1, -1):
        key, out[i] = divmod(key, lam)
    return tuple(out)


def _extend_levels(query: RelationQuery, lam: int, n_max: int, palettes):
    """The extension search: the failing canonical colorings of level n
    are the canonical forms of the failing one-vertex extensions of
    level n-1.  Below m every coloring fails, so it starts from all
    canonical colorings on m-1 vertices.  Levels are sets of packed
    colors.  Yields the level after every coloring seeded and every
    verdict, and returns the ThresholdResult."""
    m = query.m
    if m == 2:
        level = {_pack((), lam)}
    else:
        level = set()
        for c in enumerate_colorings_canonical(m - 1, lam):
            level.add(_pack(c.colors, lam))
            yield m - 1
    for n in range(m, n_max + 1):
        slots = _extension_slots(n)
        below = (n - 1) * (n - 2) // 2
        failing: set[int] = set()
        for key in level:
            base = _unpack(key, lam, below)
            for top in product(range(lam), repeat=n - 1):
                joined = base + top
                c = Coloring(n, lam, tuple([joined[i] for i in slots]))
                if not _satisfies(c, query, palettes, top=True):
                    failing.add(_pack(canonical_color_form(c).colors, lam))
                yield n
        if not failing:
            return ThresholdResult(n, Coloring(n - 1, lam, _unpack(min(level), lam, below)))
        level = failing
    return ThresholdResult(
        None, Coloring(n_max, lam, _unpack(min(level), lam, n_max * (n_max - 1) // 2))
    )


def _race(sides, deadline: float | None):
    """Advance the searches one step each in turn and return the result
    of the first to finish; the deadline is checked before every step."""
    reached = 0
    try:
        while True:
            for side in sides:
                if deadline is not None and time.monotonic() > deadline:
                    where = f"at n={reached}" if reached else "before the first step"
                    raise ResourceCapExceeded(f"time budget used up {where}")
                try:
                    reached = max(reached, next(side))
                except StopIteration as done:
                    return done.value
    finally:
        for side in sides:
            side.close()


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

    Races the scanner against the one-vertex extension search (see the
    module docstring); both return the same result, whose failing
    coloring is the lexicographically least canonical one at its level.
    A time_limit (seconds) raises ResourceCapExceeded when exhausted; a
    NaN one raises ValueError, and inf runs unbounded.  Running past
    n_max is not an error but a threshold of None.
    """
    query = RelationQuery(mode, m, kappa, j if mode == "hc" else None)
    if lam < 1:
        raise ValueError("need lam >= 1")
    if n_max < m:
        raise ValueError(f"need n_max >= m, got n_max={n_max}, m={m}")
    if time_limit is not None and math.isnan(time_limit):
        raise ValueError("time_limit must be a number of seconds, got nan")
    deadline = None if time_limit is None else time.monotonic() + time_limit
    palettes = _maximal_palettes(lam, kappa)
    sides = (
        _scan_levels(query, lam, n_max, palettes),
        _extend_levels(query, lam, n_max, palettes),
    )
    return _race(sides, deadline)
