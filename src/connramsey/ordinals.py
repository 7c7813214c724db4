"""Cantor normal form ordinals and the interval club system.

An ordinal below omega^d is a descending tuple of (exponent, coefficient)
terms with positive coefficients; the empty tuple is 0.  Comparison is
lexicographic on the term tuples, which agrees with ordinal order.

CnfOrdinal is a named tuple, as the records of core are: it validates
its terms in __new__, and an ordinal, being the one-field tuple of its
terms, compares, equals and hashes as that tuple.

The club attached to a limit ordinal alpha at index i is the final
segment

    C(alpha, i) = [blockfloor(alpha, i+1), alpha)

where blockfloor(alpha, k) = omega^k * floor(alpha / omega^k) drops every
term with exponent below k.  These intervals are clubs in alpha, nest as
the index grows, cohere between ordinals (if alpha accumulates in
C(beta, i) then C(alpha, i) = C(beta, i) intersected with alpha), cover
every lower limit at some index, and have order type below omega^(i+1).
Final segments are used rather than sparse ladders because a ladder of
order type omega has no accumulation points at all, which would make the
derived coloring degenerate.

The derived coloring maps a pair of limit ordinals alpha < beta to the
least index at which alpha is an accumulation point of beta's club; any
set that is well-connected in a palette drawn from colors below i is then
trapped inside a single club at index i, whose order type is below
omega^(i+1).  The test suite checks these club-system clauses
exhaustively.

The sampler draws indices, not ordinals: ascending order of the limits
with exponents in 1..d and coefficients in 0..coeff_max (0 for an absent
term, not all 0) is the lexicographic order of their coefficient
vectors read from exponent d down, so the k-th limit, counting from 0,
has the base-(coeff_max+1) digits of k+1 as its coefficients.
"""

from __future__ import annotations

import random
import sys
from collections import namedtuple
from itertools import combinations

from .core import Coloring


class CnfOrdinal(namedtuple("CnfOrdinal", "terms")):
    """Ordinal in Cantor normal form: descending (exponent, coefficient)
    terms; the empty tuple is 0."""

    __slots__ = ()

    terms: tuple[tuple[int, int], ...]

    def __new__(cls, terms=()):
        terms = tuple((int(e), int(c)) for e, c in terms)
        for k, (e, c) in enumerate(terms):
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if c < 1:
                raise ValueError(f"coefficient {c} must be >= 1")
            if k and terms[k - 1][0] <= e:
                raise ValueError("exponents must be strictly descending")
        return super().__new__(cls, terms)

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] >= 1

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero has no leading exponent")
        return self.terms[0][0]

    def __str__(self) -> str:
        return ord_print(self)


def blockfloor(x: CnfOrdinal, k: int) -> CnfOrdinal:
    """omega^k * floor(x / omega^k): keep the terms with exponent >= k."""
    return CnfOrdinal(tuple(t for t in x.terms if t[0] >= k))


def ord_print(x: CnfOrdinal) -> str:
    """Canonical text: descending `w^<e>*<c>` terms joined by `+`, with
    `w*<c>` for exponent one and a bare integer for exponent zero."""
    if not x.terms:
        return "0"
    parts = []
    for e, c in x.terms:
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append(f"w*{c}")
        else:
            parts.append(f"w^{e}*{c}")
    return "+".join(parts)


def acc_member(gamma: CnfOrdinal, alpha: CnfOrdinal, i: int) -> bool:
    """Is gamma an accumulation point of C(alpha, i)?

    For a final-segment club this holds exactly when gamma is a limit
    ordinal strictly above the interval's left endpoint (a gamma equal to
    the endpoint has an empty initial part, whose supremum is 0).
    """
    if i < 0:
        raise ValueError("club index must be >= 0")
    if not alpha.is_limit:
        raise ValueError(f"clubs attach to limit ordinals, got {alpha}")
    if not gamma < alpha:
        raise ValueError(f"need gamma < alpha, got {gamma} >= {alpha}")
    return gamma.is_limit and blockfloor(alpha, i + 1) < gamma


def i_min(alpha: CnfOrdinal) -> int:
    """Least index whose club is nonempty, by direct scan.

    Equals the least exponent of alpha's normal form; the test suite
    checks that instead of assuming it.
    """
    if not alpha.is_limit:
        raise ValueError(f"index floor is defined for limit ordinals, got {alpha}")
    i = 0
    while blockfloor(alpha, i + 1) == alpha:
        i += 1
    return i


def derived_color(alpha: CnfOrdinal, beta: CnfOrdinal) -> int:
    """Least index at or above beta's floor with alpha an accumulation
    point of C(beta, index); total on ordered pairs of limit ordinals."""
    if not alpha.is_limit or not beta.is_limit:
        raise ValueError("both ordinals must be limits")
    if not alpha < beta:
        raise ValueError(f"need alpha < beta, got {alpha} >= {beta}")
    i = i_min(beta)
    while not acc_member(alpha, beta, i):
        i += 1
    return i


def sample_universe(d: int, coeff_max: int, size: int, seed: int = 0) -> tuple[CnfOrdinal, ...]:
    """Deterministic sample of distinct limit ordinals, ascending.

    `d` is the largest omega-exponent allowed, so the sample lies below
    omega^(d+1); coefficients stay in 1..coeff_max.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if coeff_max < 1:
        raise ValueError("need coeff_max >= 1")
    if size < 1:
        raise ValueError("need size >= 1")
    base = coeff_max + 1
    pool = base**d - 1
    if pool > sys.maxsize:
        raise ValueError(f"{pool} limit ordinals are too many to sample from")
    if size > pool:
        raise ValueError(f"only {pool} distinct limit ordinals available, need {size}")
    universe = []
    for k in sorted(random.Random(seed).sample(range(pool), size)):
        terms, rank = [], k + 1
        for e in range(1, d + 1):
            rank, c = divmod(rank, base)
            if c:
                terms.append((e, c))
        universe.append(CnfOrdinal(terms[::-1]))
    return tuple(universe)


def coloring_from_csystem(universe) -> Coloring:
    """Derived coloring of a finite ascending set of limit ordinals.

    Pair (i, j) receives derived_color(universe[i], universe[j]); vertex
    order mirrors ordinal order.  The color count is the tightest
    exponent bound covering the universe, one more than its largest
    exponent.
    """
    uni = tuple(universe)
    for k, x in enumerate(uni):
        if not isinstance(x, CnfOrdinal) or not x.is_limit:
            raise ValueError(f"universe member {x} is not a limit ordinal")
        if k and not uni[k - 1] < x:
            raise ValueError("universe must be strictly ascending")
    lam = max((x.max_exp for x in uni), default=0) + 1
    cols = tuple(derived_color(uni[i], uni[j]) for i, j in combinations(range(len(uni)), 2))
    return Coloring(len(uni), lam, cols)
