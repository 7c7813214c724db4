"""Cantor normal form ordinals and the interval club system.

An ordinal below omega^d is a descending tuple of (exponent, coefficient)
terms with positive coefficients; the empty tuple is 0.  Comparison is
lexicographic on the term tuples, which agrees with ordinal order.

The records (CnfOrdinal, ClubInterval and CsystemReport) are named
tuples, as in core: CnfOrdinal validates its terms in __new__, and an
ordinal, being the one-field tuple of its terms, compares, equals and
hashes as that tuple.

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
omega^(i+1).
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import combinations, product

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


ZERO = CnfOrdinal()


def omega_power(exp: int, coeff: int = 1) -> CnfOrdinal:
    return CnfOrdinal(((exp, coeff),))


def successor(x: CnfOrdinal) -> CnfOrdinal:
    if x.terms and x.terms[-1][0] == 0:
        return CnfOrdinal(x.terms[:-1] + ((0, x.terms[-1][1] + 1),))
    return CnfOrdinal(x.terms + ((0, 1),))


def blockfloor(x: CnfOrdinal, k: int) -> CnfOrdinal:
    """omega^k * floor(x / omega^k): keep the terms with exponent >= k."""
    return CnfOrdinal(tuple(t for t in x.terms if t[0] >= k))


def block_tail(x: CnfOrdinal, k: int) -> CnfOrdinal:
    """x minus blockfloor(x, k): the terms with exponent below k."""
    return CnfOrdinal(tuple(t for t in x.terms if t[0] < k))


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


class ClubInterval(namedtuple("ClubInterval", "left top index")):
    """The final-segment club [left, top) attached to a limit ordinal."""

    __slots__ = ()

    left: CnfOrdinal
    top: CnfOrdinal
    index: int

    @property
    def order_type(self) -> CnfOrdinal:
        return block_tail(self.top, self.index + 1)

    def __contains__(self, gamma: CnfOrdinal) -> bool:
        return self.left <= gamma < self.top


def club_interval(alpha: CnfOrdinal, i: int) -> ClubInterval:
    """C(alpha, i) as an interval descriptor; requires i >= i_min(alpha)."""
    if not alpha.is_limit:
        raise ValueError(f"clubs attach to limit ordinals, got {alpha}")
    floor = i_min(alpha)
    if i < floor:
        raise ValueError(f"club index {i} below the index floor {floor} of {alpha}")
    return ClubInterval(blockfloor(alpha, i + 1), alpha, i)


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


def enumerate_limits(max_exp: int, coeff_max: int) -> list[CnfOrdinal]:
    """Every limit ordinal with exponents in 1..max_exp and coefficients
    in 1..coeff_max, ascending."""
    out = []
    for r in range(1, max_exp + 1):
        for exps in combinations(range(max_exp, 0, -1), r):
            for coeffs in product(range(1, coeff_max + 1), repeat=r):
                out.append(CnfOrdinal(tuple(zip(exps, coeffs))))
    out.sort()
    return out


def enumerate_ordinals(max_exp: int, coeff_max: int) -> list[CnfOrdinal]:
    """Every ordinal (zero, successors, limits) with exponents up to
    max_exp and coefficients up to coeff_max, ascending."""
    out = [ZERO]
    for r in range(1, max_exp + 2):
        for exps in combinations(range(max_exp, -1, -1), r):
            for coeffs in product(range(1, coeff_max + 1), repeat=r):
                out.append(CnfOrdinal(tuple(zip(exps, coeffs))))
    out.sort()
    return out


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
    pool = enumerate_limits(d, coeff_max)
    if size > len(pool):
        raise ValueError(f"only {len(pool)} distinct limit ordinals available, need {size}")
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(pool, size)))


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


class CsystemReport(
    namedtuple("CsystemReport", "d coeff_max limits_checked clubs_checked pairs_checked first_violation")
):
    """Outcome of the exhaustive club-system check; ok when no clause
    was violated."""

    __slots__ = ()

    d: int
    coeff_max: int
    limits_checked: int
    clubs_checked: int
    pairs_checked: int
    first_violation: str | None

    @property
    def ok(self) -> bool:
        return self.first_violation is None


def check_csystem_axioms(d: int, coeff_max: int) -> CsystemReport:
    """Exhaustively verify the club-system clauses on the limit ordinals
    below omega^d with coefficients up to coeff_max.

    Checked per limit alpha and index i in [i_min(alpha), d): the club is
    a nonempty club in alpha (unboundedness and closedness probed against
    every enumerated ordinal below alpha), clubs nest as i grows, and
    otp(C(alpha, i)) < omega^(i+1).  Checked per pair alpha < beta:
    coherence at every index where alpha accumulates, and covering at
    some index.  Violations are report content, not exceptions.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if coeff_max < 1:
        raise ValueError("need coeff_max >= 1")
    limits = enumerate_limits(d - 1, coeff_max) if d >= 2 else []
    probes = enumerate_ordinals(d - 1, coeff_max)
    clubs = 0
    pairs = 0

    def report(violation: str | None) -> CsystemReport:
        return CsystemReport(d, coeff_max, len(limits), clubs, pairs, violation)

    for alpha in limits:
        floor = i_min(alpha)
        if floor >= d:
            return report(f"index floor {floor} of {alpha} is not below {d}")
        prev_left = None
        for i in range(floor, d):
            club = club_interval(alpha, i)
            clubs += 1
            if not club.left < alpha:
                return report(f"C({alpha},{i}) is empty")
            for gamma in probes:
                if not gamma < alpha:
                    continue
                # Unbounded in alpha: some member lies above gamma.
                witness = club.left if gamma < club.left else successor(gamma)
                if not (witness in club and gamma < witness):
                    return report(f"C({alpha},{i}) not unbounded past {gamma}")
                # Closed in alpha: limits of initial parts stay inside.
                if gamma.is_limit and club.left < gamma and gamma not in club:
                    return report(f"C({alpha},{i}) not closed at {gamma}")
            if not club.order_type < omega_power(i + 1):
                return report(f"otp(C({alpha},{i})) = {club.order_type} not below w^{i + 1}")
            if prev_left is not None and club.left > prev_left:
                return report(f"C({alpha},{i - 1}) not contained in C({alpha},{i})")
            prev_left = club.left
    for alpha, beta in combinations(limits, 2):
        pairs += 1
        covered = False
        for i in range(i_min(beta), d):
            if not acc_member(alpha, beta, i):
                continue
            covered = True
            if i_min(alpha) > i:
                return report(
                    f"coherence: i({alpha}) > {i} though {alpha} accumulates in C({beta},{i})"
                )
            if blockfloor(alpha, i + 1) != blockfloor(beta, i + 1):
                return report(f"coherence: C({alpha},{i}) != C({beta},{i}) below {alpha}")
        if not covered:
            return report(f"covering fails for {alpha} < {beta}")
    return report(None)
