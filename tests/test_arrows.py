"""Relation deciders, canonical enumeration, and threshold search."""

import random
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connramsey import (
    RelationQuery,
    ResourceCapExceeded,
    ThresholdResult,
    decide,
    ramsey_number,
)
from connramsey import arrows
from connramsey.arrows import (
    _colex_search,
    _first_failure,
    _grow_order,
    _maximal_palettes,
    _wc_states,
    _witness,
    palette_tuples,
)
from connramsey.connectivity import kappa_connected_mask
from connramsey.core import Coloring, Palette, bits, constant_coloring, palette_adjacency, read_coloring
from connramsey.generators import delta_coloring, hub_coloring, random_coloring
from connramsey.wellconn import chain_of_length, wc_sweep
from oracles import (
    Graph,
    _extend_levels,
    _scan_levels,
    _unpack,
    all_graphs_on,
    canonical_color_form,
    canonical_colorings,
    colex_pairs,
    color,
    first_failures,
    has_monochromatic_m_set,
    hc_witness_bruteforce,
    hc_witness_sweep,
    kappa_connected_bruteforce,
    lex_pairs,
    permute_colors,
    wc_order_rows,
    wc_path_exists,
    wc_witness_bruteforce,
)

DATA = Path(__file__).resolve().parent / "data"


def classical(c, m, kappa):
    return decide(c, RelationQuery("classical", m, kappa))


def hc(c, m, kappa, j):
    return decide(c, RelationQuery("hc", m, kappa, j))


def wc(c, m, kappa):
    return decide(c, RelationQuery("wc", m, kappa))


def all_colorings(n, lam):
    npairs = n * (n - 1) // 2
    buf = [0] * npairs

    def rec(i):
        if i == npairs:
            yield Coloring(n, lam, tuple(buf))
            return
        for v in range(lam):
            buf[i] = v
            yield from rec(i + 1)

    yield from rec(0)


def test_palette_order_is_lexicographic():
    assert list(palette_tuples(3, 2)) == [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    assert list(palette_tuples(2, 1)) == [(0,), (1,)]
    for lam, kappa in [(1, 1), (4, 2), (5, 5), (6, 3)]:
        want = sorted(
            pal for k in range(1, kappa + 1) for pal in combinations(range(lam), k)
        )
        assert list(palette_tuples(lam, kappa)) == want


def test_decide_stops_at_first_palette_with_a_witness():
    # Far too many palettes to list (about 5.5e11), but (0,) holds.
    c = constant_coloring(4, 0, 40)
    for query in [
        RelationQuery("classical", 4, 20),
        RelationQuery("hc", 4, 20, 2),
        RelationQuery("wc", 4, 20),
    ]:
        out = decide(c, query)
        assert out.holds and out.certificate.palette == Palette(frozenset({0}))
    assert next(iter(palette_tuples(10**4, 10**4))) == (0,)


def test_decide_classical_examples():
    assert classical(constant_coloring(3, 0, 1), 3, 1).holds
    assert not classical(delta_coloring(2), 3, 1).holds
    # lam <= kappa always holds: take every color
    c = random_coloring(5, 2, seed=0)
    for m in range(2, 6):
        assert classical(c, m, 2).holds


def test_decide_classical_agrees_with_direct_scan():
    rng = random.Random(1)
    for case in range(120):
        n = rng.randint(2, 8)
        lam = rng.randint(1, 4)
        c = random_coloring(n, lam, seed=3000 + case)
        m = rng.randint(2, n)
        assert classical(c, m, 1).holds == has_monochromatic_m_set(c, m)


def test_decide_classical_certificate_shape():
    out = classical(constant_coloring(4, 0, 2), 3, 1)
    cert = out.certificate
    assert cert.j == 3
    assert len(cert.X) == 3
    assert len(cert.E) == 3  # all pairs of X


def test_decide_classical_failure_logs_palettes():
    out = classical(delta_coloring(2), 3, 1)
    assert out.exhausted_palettes == ((0,), (1,))


def summary(out):
    """(Lambda, X) of a holding decide outcome, (None, palette log) of a
    failing one."""
    if out.holds:
        return tuple(sorted(out.certificate.palette.members)), out.certificate.X
    return None, out.exhausted_palettes


def oracle_summary(pal, X, tried):
    """The same shape from a witness oracle's (palette, X, log)."""
    return (pal, X) if X is not None else (None, tried)


def test_decide_hc_collapses_to_classical_at_j_equals_m():
    # exhaustive on small instances, seeded beyond; the removal
    # enumerator is the slow oracle for the clique route both modes take
    cases = [
        (c, m, kappa)
        for lam in (1, 2, 3)
        for n in (2, 3, 4)
        for c in all_colorings(n, lam)
        for m in range(2, n + 1)
        for kappa in (1, 2)
    ]
    rng = random.Random(2)
    for case in range(150):
        n = rng.randint(5, 6)
        c = random_coloring(n, rng.randint(2, 3), seed=4000 + case)
        cases.append((c, rng.choice((2, 3, n)), 1))
    for c, m, kappa in cases:
        want = oracle_summary(*hc_witness_bruteforce(c, m, kappa, m))
        assert summary(hc(c, m, kappa, m)) == want
        assert summary(classical(c, m, kappa)) == want


def test_decide_hc_hub_example():
    hub = hub_coloring(2, 2)
    out = hc(hub, 4, 1, 2)
    assert out.holds
    assert out.certificate.palette.members == {0}
    assert out.certificate.E == frozenset({(0, 1), (0, 3), (1, 2), (2, 3)})
    assert not hc(delta_coloring(2), 4, 1, 4).holds


def test_decide_wc_examples():
    d = delta_coloring(2)
    out = wc(d, 3, 1)
    assert out.holds
    assert out.certificate.X == (0, 1, 2)
    assert out.certificate.palette.members == {0}
    assert not wc(d, 4, 1).holds
    held = wc(d, 4, 2)
    assert held.holds
    assert held.certificate.palette.members == {0, 1}
    assert wc(constant_coloring(5, 0, 1), 5, 1).holds


def test_decide_parameter_validation():
    c = random_coloring(4, 2, seed=0)
    with pytest.raises(ValueError):
        classical(c, 1, 1)
    with pytest.raises(ValueError, match=r"^need 2 <= m <= n, got m=5, n=4$"):
        classical(c, 5, 1)
    with pytest.raises(ValueError):
        hc(c, 3, 1, 0)
    with pytest.raises(ValueError):
        wc(c, 3, 0)


@st.composite
def small_instances(draw):
    n = draw(st.integers(2, 7))
    lam = draw(st.integers(1, 3))
    npairs = n * (n - 1) // 2
    colors = draw(st.lists(st.integers(0, lam - 1), min_size=npairs, max_size=npairs))
    m = draw(st.integers(2, n))
    mode = draw(st.sampled_from(("classical", "hc", "wc")))
    j = draw(st.integers(1, m)) if mode == "hc" else None
    return Coloring(n, lam, tuple(colors)), RelationQuery(mode, m, draw(st.integers(1, 2)), j)


@settings(max_examples=150, deadline=None)
@given(small_instances())
def test_decide_matches_witness_oracles(instance):
    c, query = instance
    if query.mode == "wc":
        pal, X, tried = wc_witness_bruteforce(c, query.m, query.kappa)
    else:
        j = query.m if query.j is None else query.j
        pal, X, tried = hc_witness_bruteforce(c, query.m, query.kappa, j)
    out = decide(c, query)
    assert summary(out) == oracle_summary(pal, X, tried)
    if out.holds and query.mode != "wc":
        want = {(a, b) for a, b in combinations(X, 2) if color(c, a, b) in pal}
        assert out.certificate.E == want


def test_implication_chain_sampled():
    rng = random.Random(3)
    for case in range(150):
        n = rng.randint(2, 8)
        lam = rng.randint(1, 4)
        c = random_coloring(n, lam, seed=5000 + case)
        m = rng.randint(2, n)
        holds = [classical(c, m, 1).holds, hc(c, m, 1, m).holds, wc(c, m, 1).holds]
        assert (not holds[0] or holds[1]) and (not holds[1] or holds[2])


def test_verdicts_invariant_under_color_permutation():
    rng = random.Random(4)
    for case in range(40):
        n = rng.randint(2, 7)
        lam = rng.randint(2, 3)
        c = random_coloring(n, lam, seed=6000 + case)
        m = rng.randint(2, n)
        perm = list(range(lam))
        rng.shuffle(perm)
        p = permute_colors(c, perm)
        assert classical(c, m, 1).holds == classical(p, m, 1).holds
        assert hc(c, m, 1, max(2, m - 1)).holds == hc(p, m, 1, max(2, m - 1)).holds
        assert wc(c, m, 1).holds == wc(p, m, 1).holds


def test_budget_monotonicity():
    rng = random.Random(5)
    for case in range(40):
        n = rng.randint(3, 7)
        lam = rng.randint(2, 4)
        c = random_coloring(n, lam, seed=7000 + case)
        m = rng.randint(2, n)
        if wc(c, m, 1).holds:
            assert wc(c, m, 2).holds
        if classical(c, m, 1).holds:
            assert classical(c, m, 2).holds
        j = rng.randint(2, m)
        if hc(c, m, 1, j).holds:
            assert hc(c, m, 1, j - 1).holds


def test_enumerate_counts():
    assert len(list(canonical_colorings(2, 2))) == 1
    threes = [c.colors for c in canonical_colorings(3, 2)]
    assert threes == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    assert len(list(canonical_colorings(4, 2))) == 32


def test_enumerate_yields_canonical_orbit_representatives():
    for n, lam in ((3, 2), (4, 2), (3, 3)):
        reps = list(canonical_colorings(n, lam))
        assert all(canonical_color_form(c) == c for c in reps)
        # one representative per orbit of every coloring
        orbit_reps = {canonical_color_form(c) for c in all_colorings(n, lam)}
        assert orbit_reps == set(reps)


def test_enumerate_validation():
    with pytest.raises(ValueError):
        list(canonical_colorings(1, 2))
    with pytest.raises(ValueError):
        list(canonical_colorings(3, 0))


def test_ramsey_trivial_edge():
    res = ramsey_number("classical", 2, 2, 1, 4)
    assert res.threshold == 2
    assert res.extremal.n == 1


def test_ramsey_single_color_triangle():
    res = ramsey_number("classical", 3, 1, 1, 4)
    assert res.threshold == 3
    assert res.extremal.n == 2


def test_ramsey_wc_small():
    res = ramsey_number("wc", 2, 2, 1, 3)
    assert res.threshold == 2


def test_ramsey_hc_modes():
    # j defaults to m (the highly connected reading)
    assert ramsey_number("hc", 3, 1, 1, 4).threshold == 3
    # a weaker connectivity demand is reachable at the same small scale
    assert ramsey_number("hc", 2, 2, 1, 4, j=1).threshold == 2


def test_wc_threshold_at_most_classical():
    # the wc relation is weaker, so its threshold cannot exceed the
    # classical one at equal parameters
    for m, lam in ((2, 2), (3, 1), (3, 2)):
        classical = ramsey_number("classical", m, lam, 1, 6).threshold
        wc = ramsey_number("wc", m, lam, 1, 6).threshold
        assert classical is not None and wc is not None
        assert wc <= classical


def test_ramsey_exceeds_cap():
    # the classical triangle threshold is 6, so a cap of 4 is exhausted
    res = ramsey_number("classical", 3, 2, 1, 4)
    assert res.threshold is None
    assert res.extremal.n == 4
    assert not classical(res.extremal, 3, 1).holds


def test_ramsey_time_budget():
    with pytest.raises(ResourceCapExceeded):
        ramsey_number("classical", 3, 2, 1, 6, time_limit=0.0)


def test_ramsey_time_limit_nan_negative_inf():
    # monotonic() > nan is never true, so a NaN budget would never expire
    with pytest.raises(ValueError, match="nan"):
        ramsey_number("classical", 3, 2, 1, 6, time_limit=float("nan"))
    with pytest.raises(ResourceCapExceeded, match="before the first step"):
        ramsey_number("classical", 3, 2, 1, 6, time_limit=-1.0)
    assert ramsey_number("classical", 3, 2, 1, 6, time_limit=float("inf")).threshold == 6


def test_ramsey_time_budget_reports_the_level_reached(monkeypatch):
    # The search reads the clock before every step; a clock that jumps
    # after 40 readings stops it part way.  hc m=4 j=2 has threshold 6,
    # and the level reached is a lower bound on it.
    readings = iter(range(10**6))
    monkeypatch.setattr(arrows.time, "monotonic", lambda: 0.0 if next(readings) < 40 else 1e9)
    with pytest.raises(ResourceCapExceeded) as err:
        ramsey_number("hc", 4, 2, 1, 7, j=2, time_limit=1.0)
    assert 4 <= err.value.reached <= 6
    assert str(err.value) == f"time budget used up at n={err.value.reached}"
    monkeypatch.undo()
    with pytest.raises(ResourceCapExceeded) as err:
        ramsey_number("classical", 3, 2, 1, 6, time_limit=-1.0)
    assert err.value.reached == 0


def test_wc_time_budget_reports_the_level_reached(monkeypatch):
    # The state walk yields the depth it grows at every verdict, and every
    # state it grows fails, so the level reached by a stopped walk is a
    # lower bound on the threshold, 6 for wc m=4 with two colors.
    readings = iter(range(10**6))
    monkeypatch.setattr(arrows.time, "monotonic", lambda: 0.0 if next(readings) < 40 else 1e9)
    with pytest.raises(ResourceCapExceeded) as err:
        ramsey_number("wc", 4, 2, 1, 7, time_limit=1.0)
    assert 2 <= err.value.reached <= 6
    assert str(err.value) == f"time budget used up at n={err.value.reached}"


@pytest.mark.parametrize("m, lam, n_max", ((5, 3, 10), (8, 2, 12)))
def test_wc_walk_reaches_n_max_of_an_exhausted_cell(m, lam, n_max):
    # The walk stops at its first failing state on n_max; its dead ends on
    # the way take a fraction of a second here and must stay well inside
    # the budget.
    res = ramsey_number("wc", m, lam, 1, n_max, time_limit=10)
    assert res.threshold is None
    query = RelationQuery("wc", m, 1)
    assert res.extremal == drain(_first_failure(query, n_max, lam, _maximal_palettes(lam, 1)))


def test_ramsey_parameter_validation():
    with pytest.raises(ValueError):
        ramsey_number("classical", 3, 2, 1, 2)
    with pytest.raises(ValueError):
        ramsey_number("nope", 3, 2, 1, 6)


def test_ramsey_rejects_j_outside_hc():
    for mode in ("classical", "wc"):
        with pytest.raises(ValueError, match="j applies to hc mode only"):
            ramsey_number(mode, 3, 2, 1, 6, j=2)


def test_decide_dispatch():
    c = constant_coloring(4, 0, 2)
    assert decide(c, RelationQuery("classical", 3, 1)).holds
    assert decide(c, RelationQuery("hc", 3, 1, j=2)).holds
    assert decide(c, RelationQuery("wc", 3, 1)).holds


# Every relation the threshold-search tests below range over, as
# (mode, m, j) with hc at every j <= m.
RELATIONS = [
    (mode, m, j)
    for m in (2, 3, 4)
    for mode, js in (("classical", [None]), ("hc", range(1, m + 1)), ("wc", [None]))
    for j in js
]


def witness(c, query, palettes, seed=0):
    """(palette, X) for the first of `palettes` whose rows on a Coloring
    have a witness, X the least one; None when none has."""
    for p in palettes:
        X = _witness(query, palette_adjacency(c, p.members), seed=seed)
        if X:
            return p, tuple(bits(X))
    return None


def drain(search):
    """Run a threshold search generator to its result, with no deadline."""
    while True:
        try:
            next(search)
        except StopIteration as done:
            return done.value


def fails(c, query):
    return c.n < query.m or not decide(c, query).holds


def top_extensions(c):
    """Every coloring on c.n + 1 vertices whose restriction to 0..c.n-1 is c."""
    n = c.n + 1
    for top in product(range(c.lam), repeat=c.n):
        yield Coloring(
            n, c.lam,
            tuple(top[a] if b == n - 1 else color(c, a, b) for a, b in combinations(range(n), 2)),
        )


@pytest.mark.parametrize("lam", (1, 2, 3))
def test_threshold_searches_agree_with_ramsey_number(lam):
    for mode, m, j in RELATIONS:
        for kappa in (1, 2):
            query = RelationQuery(mode, m, kappa, j)
            palettes = _maximal_palettes(lam, kappa)
            for n_max in range(m, 6):
                want = ramsey_number(mode, m, lam, kappa, n_max, j=j)
                assert drain(_scan_levels(query, lam, n_max, palettes)) == want
                if mode == "wc":
                    assert drain(_wc_states(query, lam, n_max, palettes)) == want


@pytest.mark.parametrize("lam", (1, 2, 3))
def test_pruned_scanner_matches_per_coloring_oracle(lam):
    # The pruned walk, drained alone, must return the oracle's result and,
    # level by level, the oracle's first failing canonical coloring.  At
    # three colors level 6 has 2.4 million canonical colorings, too many
    # for decide one by one, so that row stops at n = 5.
    n_max = 5 if lam == 3 else 6
    for mode, m, j in RELATIONS:
        for kappa in (1, 2):
            query = RelationQuery(mode, m, kappa, j)
            palettes = _maximal_palettes(lam, kappa)
            want, failing = first_failures(query, lam, n_max, lex_pairs)
            assert drain(_scan_levels(query, lam, n_max, palettes)) == want
            for n, c in failing.items():
                assert drain(_first_failure(query, n, lam, palettes)) == c


def drain_counting(search):
    """Drain a threshold search; return its result, how often it yielded
    and the largest level it yielded."""
    steps, top = 0, 0
    while True:
        try:
            top = max(top, next(search))
        except StopIteration as done:
            return done.value, steps, top
        steps += 1


HEREDITARY = [(mode, m, j) for mode, m, j in RELATIONS if mode != "wc"]


@pytest.mark.parametrize("lam", (1, 2, 3))
def test_colex_search_matches_level_scanner(lam):
    # The walk in colex pair order extends each level's failing colorings
    # to the next; its thresholds must be the scanner's, level by level.
    # Above level m its extremal is the level's first failing canonical
    # coloring in colex order, and at m the scanner's, in lexicographic
    # order.  At three colors level 6 has 2.4 million canonical colorings,
    # too many for decide one by one, so that row checks extremals up to
    # n = 5.
    for mode, m, j in HEREDITARY:
        for kappa in (1, 2):
            query = RelationQuery(mode, m, kappa, j)
            palettes = _maximal_palettes(lam, kappa)
            for n_max in range(m, 7):
                res = drain(_colex_search(query, lam, n_max, palettes))
                assert res.threshold == drain(_scan_levels(query, lam, n_max, palettes)).threshold
                if lam == 3 and n_max == 6:
                    continue
                n = res.extremal.n
                order = colex_pairs if n > m else lex_pairs
                want, failing = first_failures(query, lam, n_max, order)
                assert res.extremal == (failing[n] if n >= m else want.extremal)


@pytest.mark.parametrize("m, j, kappa", ((5, 1, 1), (5, 3, 2)))
def test_exhausted_cell_reports_the_colex_least_failure(m, j, kappa):
    # With three colors these cells fail on 6 vertices.  The extremal is
    # the first failing canonical coloring in colex pair order, which is
    # not the scanner's first one in lexicographic order.
    query = RelationQuery("hc", m, kappa, j)
    res = ramsey_number("hc", m, 3, kappa, 6, j=j)
    assert res.threshold is None
    assert res.extremal == first_failures(query, 3, 6, colex_pairs)[1][6]
    assert res.extremal != drain(_first_failure(query, 6, 3, _maximal_palettes(3, kappa)))


@pytest.mark.parametrize("lam", (1, 2, 3))
def test_colex_search_yields_no_level_above_the_threshold(lam):
    # A stopped search reports the largest level it yielded as a lower
    # bound on the threshold (run_thresholds.py prints it as at_least).
    for mode, m, j in HEREDITARY:
        for kappa in (1, 2):
            query = RelationQuery(mode, m, kappa, j)
            palettes = _maximal_palettes(lam, kappa)
            for n_max in range(m, 8 if lam < 3 else 7):
                res, _, top = drain_counting(_colex_search(query, lam, n_max, palettes))
                assert top <= (n_max if res.threshold is None else res.threshold)


def test_colex_search_checks_level_m_first():
    # A cell whose threshold is m settles in the scanner's walk of level m
    # (1,311 nodes here); a walk in colex order alone would first color
    # every pair of m - 1 vertices in every way, and took 29,525.
    query = RelationQuery("hc", 6, 2, 1)
    res, steps, _ = drain_counting(_colex_search(query, 3, 8, _maximal_palettes(3, 2)))
    assert res.threshold == 6
    assert steps <= 1311


@pytest.mark.parametrize("m, j, n_max", ((5, 3, 14), (6, 3, 11)))
def test_ramsey_proves_an_hc_bound_above_n_max(m, j, n_max):
    # The walk colors every pair of n_max vertices without a witness, so
    # with two colors hc m=5 j=3 has threshold at least 15 and hc m=6 j=3
    # at least 12.  The oracle shares no code with the walk's witness
    # search.
    res = ramsey_number("hc", m, 2, 1, n_max, j=j, time_limit=60)
    assert res.threshold is None and res.extremal.n == n_max
    assert not decide(res.extremal, RelationQuery("hc", m, 1, j)).holds
    assert hc_witness_bruteforce(res.extremal, m, 1, j)[1] is None


def test_hc_6_4_fails_on_the_19_vertex_extremal():
    # ramsey --mode hc --m 6 --j 4 --colors 2 --palette-size 1 --max-n 19
    # prints this coloring (in about 23 s), so the threshold is at least 20.
    c = read_coloring((DATA / "hc_m6_j4_n19.col").read_text())
    assert c.n == 19
    assert not decide(c, RelationQuery("hc", 6, 1, 4)).holds
    assert hc_witness_bruteforce(c, 6, 1, 4)[1] is None


def test_walk_takes_each_block_when_it_first_reaches_it():
    # Classical m=3 with two colors fails on 5 vertices and holds on 6, so
    # a walk offered the pairs of up to 50 vertices takes the blocks of
    # vertices 1..5 and no more.
    taken = []

    def blocks():
        for b in range(1, 50):
            taken.append(b)
            yield [(a, b) for a in range(b)]

    query = RelationQuery("classical", 3, 1)
    assert drain(arrows._walk(query, 2, blocks(), _maximal_palettes(2, 1), 3))
    assert taken == [1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "mode, m, lam, kappa, n_max, threshold",
    [("classical", 3, 2, 1, 2000, 6), ("wc", 3, 2, 1, 10**6, 4)],
    ids=["classical", "wc"],
)
def test_time_limit_holds_before_the_walk_reaches_n_max(mode, m, lam, kappa, n_max, threshold):
    # Each walk sets up a level the first time it reaches it (the colex
    # walk takes the pairs of the new vertex, the wc walk makes the set of
    # its states), so an n_max far above the threshold costs neither time
    # nor memory.
    res = ramsey_number(mode, m, lam, kappa, n_max, time_limit=0.5)
    assert res.threshold == threshold


def is_witness(c, query, pal, X):
    """Whether X is a witness in c under the palette, by the oracles."""
    if query.mode == "wc":
        return all(wc_path_exists(c, a, b, pal.members) for a, b in combinations(X, 2))
    edges = frozenset((a, b) for a, b in combinations(X, 2) if color(c, a, b) in pal.members)
    return kappa_connected_bruteforce(Graph(X, edges), query.m if query.j is None else query.j)


def test_witness_on_a_partial_coloring_survives_every_completion():
    # The scanner prunes a partial coloring, whose unassigned pairs lie in
    # no palette, as soon as a palette has a witness: every completion
    # must keep that witness.  Here the unassigned pairs take color lam,
    # which no palette holds.
    rng = random.Random(13)
    hits = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        lam = rng.randint(1, 3)
        kappa = rng.randint(1, 2)
        m = rng.randint(2, n)
        mode = rng.choice(("classical", "hc", "wc"))
        query = RelationQuery(mode, m, kappa, rng.randint(1, m) if mode == "hc" else None)
        npairs = n * (n - 1) // 2
        colors = [rng.randrange(lam) for _ in range(npairs)]
        free = rng.sample(range(npairs), min(npairs, rng.randint(1, 4)))
        for k in free:
            colors[k] = lam
        for pal in _maximal_palettes(lam, kappa):
            partial = Coloring(n, lam + 1, tuple(colors))
            hit = tuple(bits(_witness(query, palette_adjacency(partial, pal.members))))
            if not hit:
                continue
            hits += 1
            for fill in product(range(lam), repeat=len(free)):
                for k, x in zip(free, fill):
                    colors[k] = x
                c = Coloring(n, lam, tuple(colors))
                assert is_witness(c, query, pal, hit)
                assert decide(c, query).holds
            for k in free:
                colors[k] = lam
    assert hits >= 100


def test_extension_side_finishes_an_exhausted_search():
    # wc m=5 still fails on 7 vertices; the state search must report the
    # same least failing coloring as the scanner and the orbit search.
    query = RelationQuery("wc", 5, 1)
    palettes = _maximal_palettes(2, 1)
    res = drain(_wc_states(query, 2, 7, palettes))
    assert res.threshold is None and res.extremal.n == 7
    assert res == drain(_scan_levels(query, 2, 7, palettes))
    assert res == drain(_extend_levels(query, 2, 7, palettes))
    assert res.extremal == next(
        c for c in canonical_colorings(7, 2) if not decide(c, query).holds
    )


@pytest.mark.parametrize("lam", (1, 2, 3))
def test_verdict_helper_agrees_with_decide(lam):
    for kappa in (1, 2):
        palettes = _maximal_palettes(lam, kappa)
        for mode, m, j in RELATIONS:
            query = RelationQuery(mode, m, kappa, j)
            for n in range(2, 6):
                for c in canonical_colorings(n, lam):
                    if n >= m:
                        verdict = witness(c, query, palettes) is not None
                        assert verdict == decide(c, query).holds
                    if m - 1 <= n < 5 and fails(c, query):
                        for ext in top_extensions(c):
                            verdict = witness(ext, query, palettes, seed=1 << n) is not None
                            assert verdict == decide(ext, query).holds


def state_of(c, palettes):
    """The coloring's wc successor masks under each palette, from scratch."""
    return tuple(tuple(wc_order_rows(palette_adjacency(c, p.members))) for p in palettes)


def top_mask(ext, pal):
    """The vertices whose pair with the top vertex of ext has a color of pal."""
    top = ext.n - 1
    return sum(1 << a for a in range(top) if color(ext, a, top) in pal.members)


def canonical_state(c, palettes):
    """The least state over the coloring's color permutations.  Relabelling
    colors by perm gives palette P the order that palette perm^-1(P) had."""
    orders = dict(zip((p.members for p in palettes), state_of(c, palettes)))
    return min(
        tuple(orders[frozenset(inv[x] for x in p.members)] for p in palettes)
        for inv in permutations(range(c.lam))
    )


def drain_levels(search):
    """Drain a threshold search; return its result and its levels by size.

    The orbit oracle keeps the finished level n - 1 in its local `level`
    while it builds level n into the local `failing`; the state walk adds
    each failing state it reaches on n vertices to its local `seen[n]`,
    where `seen` may be a list indexed by n or a dict keyed by n.  Both
    are read off the suspended generator frame."""
    levels = {}
    while True:
        try:
            next(search)
        except StopIteration as done:
            return done.value, {n: level for n, level in levels.items() if level}
        local = search.gi_frame.f_locals
        if "seen" in local:
            seen = local["seen"]
            levels = dict(seen) if isinstance(seen, dict) else dict(enumerate(seen))
        elif "failing" in local and local["failing"] is not local["level"]:
            levels[local["n"] - 1] = local["level"]


@pytest.mark.parametrize("lam, n_max", ((2, 6), (3, 5)))
def test_memoised_top_verdicts_agree_with_decide(lam, n_max):
    # The state search decides a top vector from the parent's state and
    # each palette's top mask, and memoises the grown order and its
    # verdict per (palette, mask); the grown orders must be those of the
    # built extension, and their verdict, read off the new vertex's chain
    # height, decide's.
    for m in (3, 4):
        for kappa in (1, 2):
            query = RelationQuery("wc", m, kappa)
            palettes = _maximal_palettes(lam, kappa)
            for n in range(m, n_max + 1):
                for c in canonical_colorings(n - 1, lam):
                    if not fails(c, query):
                        continue
                    state = state_of(c, palettes)
                    heights = [wc_sweep(s)[1] for s in state]
                    for ext in top_extensions(c):
                        grown = [
                            _grow_order(s, h, top_mask(ext, p)) for s, h, p in zip(state, heights, palettes)
                        ]
                        assert tuple(succ for succ, _ in grown) == state_of(ext, palettes)
                        holds = any(chain_of_length(succ, m) for succ, _ in grown)
                        assert holds == decide(ext, query).holds
                        assert holds == any(h >= m for _, h in grown)


@pytest.mark.parametrize("mode, m, j", (("wc", 3, None),))
def test_extension_side_memo_hits_at_three_colors(mode, m, j):
    # With three colors and palettes of one, top masks repeat across top
    # vectors: growing the failing states on 4 vertices runs fewer
    # verdicts than there are extensions, and the state search still
    # returns the scanner's result.
    query = RelationQuery(mode, m, 1, j)
    palettes = _maximal_palettes(3, 1)
    steps = []
    search = _wc_states(query, 3, 5, palettes)
    while True:
        try:
            steps.append(next(search))
        except StopIteration as done:
            assert done.value == drain(_scan_levels(query, 3, 5, palettes))
            break
    parents = {canonical_state(c, palettes) for c in canonical_colorings(4, 3) if fails(c, query)}
    assert 0 < steps.count(5) < 3**4 * len(parents)


# Cells of the state-search differential test, (m, lam, kappa) -> n_max.
# The orbit oracle takes 17 s on wc m=4 lam=3 kappa=1 at n_max 7 and
# 19 s on m=5 lam=3 kappa=1 at n_max 6, so those two stop lower.
STATE_CELLS = {
    (m, lam, kappa): {(4, 3, 1): 6, (5, 3, 1): 5}.get((m, lam, kappa), 7)
    for m in (2, 3, 4, 5)
    for lam in (1, 2, 3)
    for kappa in (1, 2)
}


@pytest.mark.parametrize("m, lam, kappa", sorted(STATE_CELLS))
def test_state_search_matches_orbit_oracle(m, lam, kappa):
    # The state walk must return the colour-orbit extension search's
    # result at every n_max.  When it settles it has expanded every state
    # it reached, so depth by depth its failing states must be exactly the
    # canonical states of the oracle's failing orbits; when the cell is
    # exhausted it stops at the first failing state on n_max, and each
    # depth must lie inside the oracle's level.
    query = RelationQuery("wc", m, kappa)
    palettes = _maximal_palettes(lam, kappa)
    top = STATE_CELLS[m, lam, kappa]
    for n_max in range(m, top):
        want = drain(_extend_levels(query, lam, n_max, palettes))
        assert drain(_wc_states(query, lam, n_max, palettes)) == want
    want, orbits = drain_levels(_extend_levels(query, lam, top, palettes))
    got, states = drain_levels(_wc_states(query, lam, top, palettes))
    assert got == want
    if got.threshold is None:
        assert states.keys() <= orbits.keys() | set(range(1, m - 1))
    else:
        assert orbits.keys() == states.keys() - set(range(1, m - 1))
    for n, level in orbits.items():
        npairs = n * (n - 1) // 2
        mapped = {canonical_state(Coloring(n, lam, _unpack(key, lam, npairs)), palettes) for key in level}
        if got.threshold is None:
            assert states.get(n, set()) <= mapped
        else:
            assert mapped == states[n]


def test_grow_order_matches_the_order_of_the_extension():
    # The state search never runs reach: it grows each palette's order by
    # the top-down update.  On every top vector of random colorings, under
    # every maximal palette, it must give the order of the extension.
    rng = random.Random(17)
    for case in range(40):
        n = rng.randint(1, 8)
        lam = rng.randint(1, 3)
        c = random_coloring(n, lam, seed=9000 + case)
        palettes = _maximal_palettes(lam, rng.randint(1, 2))
        state = state_of(c, palettes)
        for ext in top_extensions(c):
            for succ, p, want in zip(state, palettes, state_of(ext, palettes)):
                assert _grow_order(succ, wc_sweep(succ)[1], top_mask(ext, p))[0] == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grow_order_carries_the_chain_height_of_the_new_block(data):
    # The height _grow_order returns is the longest chain of the new top
    # vertex t's block (t and the vertices it becomes a successor of),
    # as a sweep of the grown order gives it, and every chain outside
    # that block keeps its height.  Every top vector of a coloring on
    # n <= 11 vertices gives each palette one of the 2**n top masks, so
    # all of them are tried.
    n = data.draw(st.integers(0, 11))
    lam = data.draw(st.integers(1, 3))
    npairs = n * (n - 1) // 2
    c = Coloring(n, lam, tuple(data.draw(st.lists(st.integers(0, lam - 1), min_size=npairs, max_size=npairs))))
    for p in _maximal_palettes(lam, data.draw(st.integers(1, 2))):
        succ = wc_order_rows(palette_adjacency(c, p.members))
        height = wc_sweep(succ)[1]
        for mask in range(1 << n):
            grown, h = _grow_order(succ, height, mask)
            after = wc_sweep(grown)[1]
            block = [v for v in range(n) if grown[v] >> n & 1] + [n]
            assert h == max(after[v] for v in block)
            assert all(after[v] == height[v] for v in range(n) if v not in block)
            assert max(after) == max([h, *height])


def test_palette_holding_every_color_settles_at_m():
    # kappa >= lam: the one maximal palette holds every pair, so every
    # mode holds at n = m and the extremal is the constant coloring below
    # it, as the scanner finds it, with no level searched.
    for mode, m, lam, kappa in (("classical", 6, 3, 3), ("hc", 5, 2, 3), ("wc", 7, 3, 4)):
        res = ramsey_number(mode, m, lam, kappa, m + 2, time_limit=-1.0)
        assert res == ThresholdResult(m, constant_coloring(m - 1, 0, lam))
    # The scanner itself still walks the 1035 pair slots of one color.
    query = RelationQuery("classical", 46, 1)
    res = drain(_scan_levels(query, 1, 46, _maximal_palettes(1, 1)))
    assert res == ramsey_number("classical", 46, 1, 1, 46)


def test_pruned_hc_search_matches_subset_sweep():
    # Below j = m - 2 the witness search prunes by minimum degree, and
    # from it up it searches two candidate masks through the seed; the
    # unpruned subset sweep must find the same palette and least X, over
    # all m-sets, over those that contain the top vertex, over those that
    # contain a pair {a, b}, as the scanner seeds them, and over those
    # that contain three vertices, a seed whose members can already miss
    # each other.
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(3, 12)
        lam = rng.randint(1, 4)
        kappa = rng.randint(1, 2)
        m = rng.randint(3, n)
        # Uneven color weights give dense and sparse palettes alike.
        weights = [rng.random() for _ in range(lam)]
        c = Coloring(n, lam, tuple(rng.choices(range(lam), weights, k=n * (n - 1) // 2)))
        palettes = [Palette(frozenset(p)) for p in palette_tuples(lam, kappa)]
        a, b = sorted(rng.sample(range(n), 2))
        three = sum(1 << v for v in rng.sample(range(n), 3))
        for j in (rng.randint(1, m - 2), rng.choice((m - 1, m))):
            query = RelationQuery("hc", m, kappa, j)
            for seed in (0, 1 << (n - 1), 1 << a | 1 << b, three):
                want = hc_witness_sweep(c, m, j, palettes, seed=seed)
                assert witness(c, query, palettes, seed=seed) == want


def test_pruned_hc_search_on_every_extension_of_failing_colorings():
    # Every one-vertex extension, up to 6 vertices, of every canonical
    # coloring that fails, seeded with its top vertex, as the subset sweep
    # decides it.
    for m in (3, 4, 5, 6):
        for j in range(1, m - 1):
            query = RelationQuery("hc", m, 1, j)
            palettes = _maximal_palettes(2, 1)
            for n in range(m - 1, 6):
                for c in canonical_colorings(n, 2):
                    if n >= m and hc_witness_sweep(c, m, j, palettes) is not None:
                        continue
                    for ext in top_extensions(c):
                        want = hc_witness_sweep(ext, m, j, palettes, seed=1 << n)
                        assert witness(ext, query, palettes, seed=1 << n) == want


def test_allowance_one_needs_no_kernel(monkeypatch):
    # At j = m - 2 the witnesses are K_m minus a matching, which the
    # candidate masks find without the kernel.  The subset sweep still
    # decides every m-set with the kernel.
    def kernel(*args):
        raise AssertionError("kernel called at j = m - 2")

    monkeypatch.setattr(arrows, "kappa_connected_mask", kernel)
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(3, 10)
        lam = rng.randint(1, 3)
        m = rng.randint(3, min(n, 7))
        weights = [rng.random() for _ in range(lam)]
        c = Coloring(n, lam, tuple(rng.choices(range(lam), weights, k=n * (n - 1) // 2)))
        palettes = [Palette(frozenset(p)) for p in palette_tuples(lam, rng.randint(1, 2))]
        query = RelationQuery("hc", m, 1, m - 2)
        a, b = sorted(rng.sample(range(n), 2))
        for seed in (0, 1 << (n - 1), 1 << a | 1 << b):
            want = hc_witness_sweep(c, m, m - 2, palettes, seed=seed)
            assert witness(c, query, palettes, seed=seed) == want


def test_seed_members_keep_their_allowance():
    # The star K1,3 with center 3 is not 2-connected: seeded with its
    # three leaves, which each miss two others, it has no witness at
    # hc m=4 j=2, though the center is adjacent to every seed member.
    rows = [0b1000, 0b1000, 0b1000, 0b0111]
    assert _witness(RelationQuery("hc", 4, 1, 2), rows, seed=0b0111) == 0
    assert _witness(RelationQuery("hc", 4, 1, 2), rows) == 0
    rows[0] |= 0b0110
    rows[1] |= 0b0001
    rows[2] |= 0b0001
    assert _witness(RelationQuery("hc", 4, 1, 2), rows, seed=0b0111) == 0b1111


def test_allowance_two_still_reaches_the_kernel(monkeypatch):
    # Two 4-cliques sharing the edge 23: every vertex misses at most two
    # others, as at j = m - 3 on m = 6, but {2, 3} is a cut, so only the
    # kernel tells the set from a 3-connected one.
    calls = []
    kernel = arrows.kappa_connected_mask

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(arrows, "kappa_connected_mask", spy)
    rows = [0] * 6
    for a, b in {*combinations(range(4), 2), *combinations(range(2, 6), 2)}:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    assert _witness(RelationQuery("hc", 6, 1, 3), rows) == 0
    assert calls


def random_rows(rng, n, p):
    """Adjacency rows of a random graph on n vertices with edge chance p."""
    rows = [0] * n
    for a, b in combinations(range(n), 2):
        if rng.random() < p:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


def test_color_classes_bound_cliques_and_s_plexes():
    # By brute force on random graphs with at most 10 vertices: the greedy
    # classes are independent sets that partition the vertices, there are
    # at least as many as the clique number, and min(|class|, budget + 1)
    # summed over the classes is at least the largest set whose members
    # each miss at most `budget` others (budget 0 is a clique).
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(1, 10)
        rows = random_rows(rng, n, rng.random())
        full = (1 << n) - 1
        classes = arrows._independent_classes(rows, full)
        assert sum(classes) == full
        assert all(not cls & rows[v] for cls in classes for v in bits(cls))
        # largest[b]: the most vertices in a set whose members each miss
        # at most b of the others.
        largest = [0] * n
        for mask in range(1, full + 1):
            worst = max((mask & ~rows[v]).bit_count() - 1 for v in bits(mask))
            largest[worst] = max(largest[worst], mask.bit_count())
        for budget in range(1, n):
            largest[budget] = max(largest[budget], largest[budget - 1])
        assert len(classes) >= largest[0]
        for budget in range(n):
            assert sum(min(cls.bit_count(), budget + 1) for cls in classes) >= largest[budget]


def test_class_bound_colors_once(monkeypatch):
    # The first call colors the state's mask; every call then sums the
    # classes, each counted up to the cap.  When no class exceeds the cap,
    # the bound is the count itself and the search is told to stop asking.
    colored = []
    classes = arrows._independent_classes
    monkeypatch.setattr(arrows, "_independent_classes", lambda *a: colored.append(a) or classes(*a))
    rows = random_rows(random.Random(3), 8, 0.5)
    state = [-1, 0b11111111, None]
    for S in (0b1111, 0b10110101, 0):
        want = sum(min((S & cls).bit_count(), 2) for cls in classes(rows, 0b11111111))
        assert arrows._class_bound(state, rows, S, 2) == want
    assert colored == [(rows, 0b11111111)]
    assert state[0] == -1
    state = [-1, 0b11111111, None]
    assert arrows._class_bound(state, rows, 0b10110101, 8) == 5
    assert state[0] > 1 << 64


def sweep_summary(c, m, kappa, j):
    """summary()'s shape from the subset sweep over decide's palettes."""
    palettes = [Palette(frozenset(p)) for p in palette_tuples(c.lam, kappa)]
    hit = hc_witness_sweep(c, m, j, palettes)
    if hit is None:
        return None, tuple(tuple(sorted(p.members)) for p in palettes)
    return tuple(sorted(hit[0].members)), hit[1]


# (coloring, whether some search on it runs long enough to color): only
# the one-color constant coloring, where every search takes its first
# branches to a witness, finishes before that.
BOUNDED_CASES = [
    pytest.param(delta_coloring(3), True, id="delta3"),
    pytest.param(delta_coloring(4), True, id="delta4"),
    pytest.param(hub_coloring(3, 3), True, id="hub33"),
    pytest.param(hub_coloring(4, 4), True, id="hub44"),
    pytest.param(constant_coloring(8, 0, 1), False, id="constant8-l1"),
    pytest.param(constant_coloring(8, 1, 3), True, id="constant8-l3"),
    pytest.param(random_coloring(8, 2, seed=0), True, id="random8-l2"),
    pytest.param(random_coloring(9, 2, seed=1), True, id="random9-l2"),
    pytest.param(random_coloring(10, 3, seed=2), True, id="random10-l3"),
    pytest.param(random_coloring(11, 2, seed=3), True, id="random11-l2"),
]


@pytest.mark.parametrize("c, colors", BOUNDED_CASES)
def test_bounded_decide_matches_the_oracles(c, colors, monkeypatch):
    # For every m up to 6, every j and kappa <= 2, decide (with the
    # coloring bounds) gives the subset sweep's verdict, least X and
    # palette log, and the removal enumerator's on at most 8 vertices.
    colored = []
    classes = arrows._independent_classes
    monkeypatch.setattr(arrows, "_independent_classes", lambda *a: colored.append(a) or classes(*a))
    for m in range(3, min(c.n, 6) + 1):
        for j in range(1, m + 1):
            for kappa in (1, 2):
                got = summary(hc(c, m, kappa, j))
                assert got == sweep_summary(c, m, kappa, j)
                if c.n <= 8:
                    assert got == oracle_summary(*hc_witness_bruteforce(c, m, kappa, j))
    assert bool(colored) == colors


def test_searches_needing_two_more_vertices_never_color(monkeypatch):
    # The walk seeds every search with a pair, so at m <= 4 each one needs
    # at most two more vertices and must not pay for a coloring.
    def color(*args):
        raise AssertionError("a search needing at most two more vertices colored")

    monkeypatch.setattr(arrows, "_independent_classes", color)
    assert ramsey_number("hc", 4, 2, 1, 7, j=2).threshold == 6
    assert ramsey_number("classical", 3, 2, 1, 6).threshold == 6
    assert ramsey_number("hc", 4, 2, 1, 7, j=3).threshold is None
    assert ramsey_number("hc", 3, 3, 2, 6, j=2).threshold == 5


def test_connected_search_keeps_witnesses_that_fill_their_classes():
    # A complete multipartite graph with parts of budget + 1 vertices is
    # (m - 1 - budget)-connected, and each of its members misses exactly
    # `budget` others, all in its own part: the greedy classes hold whole
    # parts, so the bound is tight and must count budget + 1 per class.
    # Random vertices around it make the search fail subtrees first.
    rng = random.Random(29)
    tight = 0
    for _ in range(150):
        budget = rng.randint(1, 2)
        parts = rng.randint(2, 3)
        m = parts * (budget + 1)
        n = m + rng.randint(2, 5)
        members = sorted(rng.sample(range(n), m))
        part = {v: i % parts for i, v in enumerate(members)}
        rows = random_rows(rng, n, rng.random() / 2)
        for a, b in combinations(members, 2):
            if part[a] == part[b]:
                rows[a] &= ~(1 << b)
                rows[b] &= ~(1 << a)
            else:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        j = m - 1 - budget
        full = (1 << n) - 1
        want = next((X for X in map(sum, combinations([1 << v for v in range(n)], m)) if kappa_connected_mask(X, rows, j)), 0)
        assert want
        if budget == 1:
            assert arrows._find_near_clique(rows, 0, full, m, 1) == want
        else:
            assert arrows._find_connected(rows, 0, full, m, j) == want
        tight += want == sum(1 << v for v in members)
    assert tight


def test_clique_search_keeps_cliques_with_one_vertex_per_class():
    # A complete bipartite graph on the low vertices has no triangle but
    # makes the search fail subtrees until it colors; a complete
    # m-partite graph with parts of two on the high vertices then meets
    # exactly m classes, all of which its least m-clique needs.
    for side in (4, 5, 6):
        for m in (3, 4):
            n = 2 * side + 2 * m
            rows = [0] * n
            for a, b in combinations(range(n), 2):
                if (a < side <= b < 2 * side) or (2 * side <= a and (a - b) % m):
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
            want = next(sum(1 << v for v in X) for X in combinations(range(n), m)
                        if all(rows[a] >> b & 1 for a, b in combinations(X, 2)))
            assert want == sum(1 << v for v in range(2 * side, 2 * side + m))
            assert arrows._find_near_clique(rows, 0, (1 << n) - 1, m, 0) == want


def test_m_minus_2_connected_iff_complement_is_a_matching():
    # A graph on m vertices is (m - 2)-connected exactly when its
    # complement is a matching, and (m - 1)-connected exactly when it is
    # complete: what the search at allowance 1 and 0 finds.
    for m in range(2, 7):
        for g in all_graphs_on(m):
            missing = [p for p in combinations(g.vertices, 2) if p not in g.edges]
            matching = len({v for p in missing for v in p}) == 2 * len(missing)
            assert kappa_connected_bruteforce(g, m - 2) == matching, g
            assert kappa_connected_bruteforce(g, m - 1) == (not missing), g


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_near_clique_search_matches_the_oracles(data):
    # At allowance 0 (j = m - 1 or m) and 1 (j = m - 2), with seeds of 0
    # to 3 vertices whose members may miss each other, the search gives
    # the subset sweep's palette and least X, and unseeded on at most 8
    # vertices the removal enumerator's.
    n = data.draw(st.integers(3, 11))
    lam = data.draw(st.integers(1, 3))
    npairs = n * (n - 1) // 2
    c = Coloring(n, lam, tuple(data.draw(st.lists(st.integers(0, lam - 1), min_size=npairs, max_size=npairs))))
    m = data.draw(st.integers(3, n))
    j = data.draw(st.integers(m - 2, m))
    kappa = data.draw(st.integers(1, 2))
    seed = sum(1 << v for v in data.draw(st.sets(st.integers(0, n - 1), max_size=3)))
    palettes = [Palette(frozenset(p)) for p in palette_tuples(lam, kappa)]
    query = RelationQuery("hc", m, kappa, j)
    got = witness(c, query, palettes, seed=seed)
    assert got == hc_witness_sweep(c, m, j, palettes, seed=seed)
    if not seed and n <= 8:
        assert summary(decide(c, query)) == oracle_summary(*hc_witness_bruteforce(c, m, kappa, j))
