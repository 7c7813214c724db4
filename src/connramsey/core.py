"""Symmetric pair colorings, color palettes, queries, certificates, and the
bitset helpers the searches share.

Vertices are the integers 0..n-1 and stand for ordinals, so the vertex
order is meaningful: well-connectedness constrains witness paths to
vertices at or above the smaller endpoint of the pair they join.  Colors
are dense integers 0..lambda-1 and palettes are explicit color sets, which
keeps exhaustive palette enumeration straightforward.

Everything in this module is immutable after construction and safe to
share between concurrent tasks.

The records (Coloring, Palette, RelationQuery and the two certificates)
are named tuples: immutable, with no __dict__, compared and hashed by
value, and storing no field that another one determines.  Coloring,
Palette and RelationQuery validate their fields in __new__.  Being
tuples, records iterate over their fields and equal the plain tuple of
them.  The named-tuple helpers _make and _replace build an instance
without calling __new__, so they skip that validation; no code in src,
tests or scripts calls them.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import combinations, compress


class FormatError(ValueError):
    """A coloring file or certificate document does not match its format."""


def pair_index(n: int, a: int, b: int) -> int:
    """Position of the pair (a, b), a < b < n, in lexicographic pair order."""
    return a * (2 * n - a - 1) // 2 + (b - a - 1)


def check_color_count(lam: int) -> None:
    if lam < 1:
        raise ValueError(f"color count must be >= 1, got {lam}")


class Coloring(namedtuple("Coloring", "n lam colors")):
    """A total symmetric edge-coloring of the complete graph on {0..n-1}.

    colors[k] is the color of the k-th pair in lexicographic order
    ((0,1), (0,2), ..., (n-2,n-1)); symmetry is structural because only
    the ordered representative a < b is stored.
    """

    __slots__ = ()

    n: int
    lam: int
    colors: tuple[int, ...]

    def __new__(cls, n: int, lam: int, colors: tuple[int, ...]):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        check_color_count(lam)
        want = n * (n - 1) // 2
        if len(colors) != want:
            raise ValueError(f"expected {want} pair colors for n={n}, got {len(colors)}")
        if colors and not (0 <= min(colors) and max(colors) < lam):
            x = next(x for x in colors if not 0 <= x < lam)
            raise ValueError(f"color {x} out of range 0..{lam - 1}")
        return super().__new__(cls, n, lam, colors)


def constant_coloring(n: int, color: int, lam: int) -> Coloring:
    check_color_count(lam)
    if not 0 <= color < lam:
        raise ValueError(f"color {color} out of range 0..{lam - 1}")
    return Coloring(n, lam, (color,) * (n * (n - 1) // 2))


def make_coloring(n: int, lam: int, entries) -> Coloring:
    """Build a coloring from explicit (a, b, color) entries.

    Every pair a < b < n must be covered exactly once; (b, a) names the
    same pair as (a, b).  Duplicates, gaps, out-of-range colors, and
    degenerate pairs are rejected.
    """
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    check_color_count(lam)
    npairs = n * (n - 1) // 2
    slots: list[int | None] = [None] * npairs
    for a, b, col in entries:
        if a == b:
            raise ValueError(f"degenerate pair ({a}, {a})")
        if a > b:
            a, b = b, a
        if a < 0 or b >= n:
            raise ValueError(f"pair ({a}, {b}) out of range for n={n}")
        if not 0 <= col < lam:
            raise ValueError(f"color {col} out of range 0..{lam - 1} for pair ({a}, {b})")
        k = pair_index(n, a, b)
        if slots[k] is not None:
            raise ValueError(f"duplicate pair ({a}, {b})")
        slots[k] = col
    for (a, b), col in zip(combinations(range(n), 2), slots):
        if col is None:
            raise ValueError(f"missing pair ({a}, {b})")
    return Coloring(n, lam, tuple(slots))  # type: ignore[arg-type]


def palette_adjacency(c: Coloring, colors) -> list[int]:
    """Neighbor bitmasks of the graph formed by pairs colored in `colors`."""
    adj = [0] * c.n
    for a, b in compress(combinations(range(c.n), 2), map(colors.__contains__, c.colors)):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def bits(mask: int):
    """The vertices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def reach(seed: int, adj, allowed: int) -> int:
    """Mask of the vertices reachable from the vertices of `seed` along
    `adj` through vertices of `allowed`, by bit-parallel breadth-first
    search; the seed itself is included."""
    seen = frontier = seed
    while frontier:
        out = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            out |= adj[low.bit_length() - 1]
        frontier = out & allowed & ~seen
        seen |= frontier
    return seen


def write_coloring(c: Coloring) -> str:
    """Serialize: header `<n> <lambda>`, then one `<a> <b> <color>` line
    per pair in ascending lexicographic order."""
    lines = [f"{c.n} {c.lam}"]
    for (a, b), col in zip(combinations(range(c.n), 2), c.colors):
        lines.append(f"{a} {b} {col}")
    return "\n".join(lines) + "\n"


def _pair_prefixes(n: int):
    """The words `<a> <b> ` of the pairs a < b < n in lexicographic order,
    made one at a time, and their total length."""
    words = [f"{v} " for v in range(n)]
    # Each vertex lies in n - 1 pairs.
    return map("".join, combinations(words, 2)), (n - 1) * sum(map(len, words))


def _lexicographic_colors(n: int, body: list[str]) -> tuple[int, ...] | None:
    """The colors of pair lines `<a> <b> <color>` in ascending lexicographic
    pair order, each number followed by one space, or None for any other
    layout.

    Each line's prefix `<a> <b> ` is stripped off in one pass.  removeprefix
    drops a whole prefix or nothing, so the lengths add up only when every
    line began with its pair; the rest must be one integer.
    """
    prefixes, total = _pair_prefixes(n)
    tails = list(map(str.removeprefix, body, prefixes))
    if sum(map(len, body)) != total + sum(map(len, tails)):
        return None
    try:
        return tuple(map(int, tails))
    except ValueError:
        return None


def read_coloring(text: str) -> Coloring:
    """Parse the coloring file format; inverse of write_coloring.

    The layout write_coloring writes, pairs in ascending lexicographic
    order with single spaces, is read with whole-list operations.  Any
    other layout accepted here (lines in any order, runs of spaces or
    tabs) and every rejection go through the per-line parser, which names
    the first bad line or pair.
    """
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
    colors = _lexicographic_colors(n, body)
    if colors is not None:
        try:
            return Coloring(n, lam, colors)
        except ValueError:
            pass  # a color out of range: the per-line parser names its pair
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


class Palette(namedtuple("Palette", "members")):
    """A set of colors."""

    __slots__ = ()

    members: frozenset[int]

    def __new__(cls, members):
        members = frozenset(members)
        for x in members:
            if x < 0:
                raise ValueError(f"negative color {x}")
        return super().__new__(cls, members)


class RelationQuery(namedtuple("RelationQuery", "mode m kappa j")):
    """One partition-relation instance: mode, target size m, palette
    budget kappa, and for hc mode the connectivity demand j (j = m is the
    highly connected reading)."""

    __slots__ = ()

    mode: str
    m: int
    kappa: int
    j: int | None

    def __new__(cls, mode: str, m: int, kappa: int, j: int | None = None):
        if mode not in ("classical", "hc", "wc"):
            raise ValueError(f"unknown mode {mode!r}")
        if m < 2:
            raise ValueError("need m >= 2")
        if kappa < 1:
            raise ValueError("need kappa >= 1")
        if mode == "hc":
            j = m if j is None else j
            if not 1 <= j <= m:
                raise ValueError("need 1 <= j <= m")
        elif j is not None:
            raise ValueError("j applies to hc mode only")
        return super().__new__(cls, mode, m, kappa, j)


class WcCertificate(namedtuple("WcCertificate", "n lam X palette paths")):
    """Witness that X is well-connected in the palette: one path per
    consecutive pair of the ascending X, which by transitivity covers
    every pair.

    Each path starts at the smaller endpoint, ends at the larger, visits
    pairwise distinct vertices all at or above the smaller endpoint, and
    uses only palette-colored edges.
    """

    __slots__ = ()

    n: int
    lam: int
    X: tuple[int, ...]
    palette: Palette
    paths: dict[tuple[int, int], tuple[int, ...]]


class HcCertificate(namedtuple("HcCertificate", "n lam X palette E j")):
    """Witness of a j-connected subgraph (X, E) whose edge colors lie in
    the palette."""

    __slots__ = ()

    n: int
    lam: int
    X: tuple[int, ...]
    palette: Palette
    E: frozenset[tuple[int, int]]
    j: int


# Shared by every call, as json.dumps and json.loads share theirs: neither
# keeps state between calls.
encode_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def certificate_to_json(cert) -> str:
    """Serialize a certificate to its JSON document (deterministic bytes)."""
    if isinstance(cert, WcCertificate):
        doc = {
            "kind": "wc",
            "n": cert.n,
            "lambda": cert.lam,
            "X": list(cert.X),
            "Lambda": sorted(cert.palette.members),
            "paths": {f"{a},{b}": list(p) for (a, b), p in cert.paths.items()},
        }
    elif isinstance(cert, HcCertificate):
        doc = {
            "kind": "hc",
            "n": cert.n,
            "lambda": cert.lam,
            "X": list(cert.X),
            "Lambda": sorted(cert.palette.members),
            "E": sorted([a, b] for a, b in cert.E),
            "j": cert.j,
        }
    else:
        raise TypeError(f"not a certificate: {cert!r}")
    return encode_json(doc) + "\n"


def _as_int(doc, key):
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise FormatError(f"certificate field {key!r} must be an integer")
    return v


def _as_int_list(v, what):
    # JSON yields no int subclass but bool, so an exact type test rejects
    # bools and the list needs no copy.
    if not isinstance(v, list) or not all(type(x) is int for x in v):
        raise FormatError(f"certificate field {what!r} must be a list of integers")
    return v


def _unique_keys(pairs):
    doc = {}
    for key, val in pairs:
        if key in doc:
            raise FormatError(f"duplicate key {key!r} in certificate")
        doc[key] = val
    return doc


_decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


def certificate_from_json(text: str):
    """Parse a certificate document.

    Structural parsing only: semantic validity against a coloring is the
    verifier's job.  The path keys and values of a wc certificate are
    checked one at a time, and the first malformed one in document order
    is rejected.
    """
    try:
        if text.startswith("\ufeff"):  # as json.loads rejects it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _decode(text)
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
