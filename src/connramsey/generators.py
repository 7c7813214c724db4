"""Constructors for benchmark colorings.

The first-difference coloring on bit strings keeps monochromatic and
small-palette structure provably small, and the hub coloring
manufactures instances where a one-color palette already carries a
well-spread connected subgraph.
"""

from __future__ import annotations

import random
from itertools import combinations

from .core import Coloring, check_color_count


def first_difference(u: int, v: int, ell: int) -> int:
    """First bit position (most significant = 0) where the ell-bit
    strings of u and v differ."""
    if u == v:
        raise ValueError("strings are equal")
    if not 0 <= u < 1 << ell or not 0 <= v < 1 << ell:
        raise ValueError(f"values must fit in {ell} bits")
    return ell - (u ^ v).bit_length()


def delta_coloring(ell: int) -> Coloring:
    """Color each pair of ell-bit strings by the first position where
    they differ: n = 2^ell vertices, ell colors.

    Any vertex set realizing only colors S on its pairs is determined by
    its bits at S, so its size is at most 2^|S|.
    """
    if ell < 1:
        raise ValueError("need ell >= 1")
    n = 1 << ell
    cols = tuple(first_difference(a, b, ell) for a, b in combinations(range(n), 2))
    return Coloring(n, ell, cols)


def random_coloring(n: int, lam: int, seed: int = 0) -> Coloring:
    """Uniform colors from a seeded generator; identical across runs."""
    check_color_count(lam)
    rng = random.Random(seed)
    return Coloring(n, lam, tuple(rng.randrange(lam) for _ in range(n * (n - 1) // 2)))


def hub_coloring(n0: int, n1: int) -> Coloring:
    """Two interleaved vertex classes with every crossing pair in color 0.

    Classes alternate positions (even slots class 0, odd slots class 1,
    leftovers at the end), so both are cofinal in the vertex order.
    Within-class pairs follow the first-difference pattern on class-local
    indices, shifted up by one: color 0 is exactly the crossing color.
    A one-color palette then spans a j-connected crossing subgraph while
    monochromatic cliques stay small.
    """
    if n0 < 1 or n1 < 1:
        raise ValueError("both classes need at least one vertex")
    slots: list[tuple[int, int]] = []
    a = b = 0
    while a < n0 and b < n1:
        slots.append((0, a))
        a += 1
        slots.append((1, b))
        b += 1
    while a < n0:
        slots.append((0, a))
        a += 1
    while b < n1:
        slots.append((1, b))
        b += 1
    bits = [(count - 1).bit_length() if count >= 2 else 0 for count in (n0, n1)]
    lam = 1 + max(bits)
    cols = []
    for p, q in combinations(range(n0 + n1), 2):
        cp, ip = slots[p]
        cq, iq = slots[q]
        if cp != cq:
            cols.append(0)
        else:
            cols.append(1 + first_difference(ip, iq, bits[cp]))
    return Coloring(n0 + n1, lam, tuple(cols))
