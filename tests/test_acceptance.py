"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria with stated runtime bounds assert them via wall-clock checks.
Shared corpora are module-scoped fixtures so the implication-chain
decisions feed both the chain criterion and the certificate round trip.
"""

import json
import random
import time
from itertools import combinations

import pytest

from connramsey import (
    Palette,
    RelationQuery,
    certificate_to_json,
    decide,
    delta_coloring,
    ramsey_number,
    verify_certificate,
    write_coloring,
)
from connramsey.cli import main
from connramsey.generators import random_coloring
from connramsey.ordinals import (
    acc_member,
    check_csystem_axioms,
    club_interval,
    coloring_from_csystem,
    enumerate_limits,
    sample_universe,
)
from oracles import (
    all_graphs_on,
    color,
    has_monochromatic_m_set,
    is_complete,
    kappa_connected_bruteforce,
    kappa_connected_fast,
    longest_wc_set,
    make_graph,
    max_wc_subset_exhaustive,
    order_pairs,
    tree_check,
    wc_order,
)


def report(num, label):
    print(f"[acceptance] criterion {num} ({label}): PASS")


@pytest.fixture(scope="module")
def chain_corpus():
    """1000 seeded colorings with n <= 10, lambda <= 4, and a target m."""
    cases = []
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        lam = rng.randint(1, 4)
        m = rng.randint(2, n)
        cases.append((random_coloring(n, lam, seed=seed), m))
    return cases


@pytest.fixture(scope="module")
def chain_outcomes(chain_corpus):
    """Per corpus entry: the three decisions at kappa = 1, j = m."""
    rows = []
    for c, m in chain_corpus:
        rows.append(
            (
                c,
                m,
                decide(c, RelationQuery("classical", m, 1)),
                decide(c, RelationQuery("hc", m, 1, m)),
                decide(c, RelationQuery("wc", m, 1)),
            )
        )
    return rows


@pytest.fixture(scope="module")
def wc_threshold():
    return ramsey_number("wc", 3, 2, 1, 6)


def test_criterion_01_highly_connected_iff_complete():
    start = time.perf_counter()
    for m in range(1, 6):
        for g in all_graphs_on(m):
            assert kappa_connected_bruteforce(g, len(g.vertices)) == is_complete(g), g
    rng = random.Random(100)
    for _ in range(500):
        m = rng.randint(1, 9)
        edges = [p for p in combinations(range(m), 2) if rng.random() < rng.choice((0.3, 0.7, 0.95))]
        g = make_graph(range(m), edges)
        assert kappa_connected_bruteforce(g, len(g.vertices)) == is_complete(g), g
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, "finite highly connected iff complete")


def test_criterion_02_connectivity_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for m in range(7):
        for g in all_graphs_on(m):
            for kappa in range(1, 7):
                if kappa_connected_fast(g, kappa) != kappa_connected_bruteforce(g, kappa):
                    mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(2, "fast connectivity equals brute force, all graphs <= 6 vertices")


def test_criterion_03_implication_chain(chain_outcomes):
    violations = 0
    for _, _, classical, hc, wc in chain_outcomes:
        if classical.holds and not hc.holds:
            violations += 1
        if hc.holds and not wc.holds:
            violations += 1
    assert violations == 0
    report(3, "classical => hc => wc on 1000 seeded colorings")


def test_criterion_04_tree_linearity(chain_corpus):
    violations = 0
    for c, _ in chain_corpus:
        for i in range(c.lam):
            if not tree_check(c, Palette(frozenset({i}))):
                violations += 1
        if c.lam <= 3 and c.n <= 8:
            for pair in combinations(range(c.lam), 2):
                if not tree_check(c, Palette(frozenset(pair))):
                    violations += 1
    assert violations == 0
    report(4, "predecessor linearity of the order on the corpus")


def test_criterion_05_longest_chain_oracle():
    rng = random.Random(500)
    for case in range(200):
        n = rng.randint(1, 8)
        lam = rng.randint(1, 4)
        c = random_coloring(n, lam, seed=50_000 + case)
        members = frozenset(rng.sample(range(lam), rng.randint(1, min(lam, 2))))
        assert len(longest_wc_set(c, Palette(members))) == max_wc_subset_exhaustive(c, members)
    report(5, "longest chain equals subset brute force, 200 cases")


def test_criterion_06_classical_triangle_threshold():
    start = time.perf_counter()
    result = ramsey_number("classical", 3, 2, 1, 6)
    assert result.threshold == 6
    extremal = result.extremal
    assert extremal.n == 5
    assert not decide(extremal, RelationQuery("classical", 3, 1)).holds
    # independent re-check that the extremal coloring has no
    # monochromatic triangle
    assert not has_monochromatic_m_set(extremal, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(6, "classical threshold m=3 lambda=2 is 6 with verified extremal")


def test_criterion_07_wc_threshold(wc_threshold, tmp_path, capsys):
    start = time.perf_counter()
    v = wc_threshold.threshold
    assert v is not None and 2 <= v <= 6
    rerun = ramsey_number("wc", 3, 2, 1, 6)
    assert rerun.threshold == v and rerun.extremal == wc_threshold.extremal
    assert not decide(wc_threshold.extremal, RelationQuery("wc", 3, 1)).holds
    # twenty sampled colorings at n = v, certificates checked by the CLI
    for seed in range(20):
        c = random_coloring(v, 2, seed=70_000 + seed)
        outcome = decide(c, RelationQuery("wc", 3, 1))
        assert outcome.holds
        col_path = tmp_path / f"c{seed}.col"
        cert_path = tmp_path / f"c{seed}.cert.json"
        col_path.write_text(write_coloring(c))
        cert_path.write_text(certificate_to_json(outcome.certificate))
        code = main(["verify", str(cert_path), str(col_path)])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert json.loads(captured.out) == {"valid": True}
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(7, f"wc threshold m=3 lambda=2 is {v}, certificates verified")


def test_criterion_08_club_system_axioms():
    start = time.perf_counter()
    for d in range(1, 4):
        for coeff_max in range(1, 5):
            rep = check_csystem_axioms(d, coeff_max)
            assert rep.ok, rep.first_violation
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(8, "club system axioms exhaustively at d <= 3, coeff_max <= 4")


def test_criterion_09_derived_coloring_club_trapping():
    violations = 0
    for seed in range(100):
        rng = random.Random(9000 + seed)
        max_exp = rng.randint(1, 3)
        coeff_max = rng.randint(3, 6)
        pool = len(enumerate_limits(max_exp, coeff_max))
        size = min(rng.randint(2, 12), pool)
        universe = sample_universe(max_exp, coeff_max, size, seed=seed)
        coloring = coloring_from_csystem(universe)
        for i in range(1, coloring.lam):
            for r in range(1, i + 1):
                for members in combinations(range(i), r):
                    palette = Palette(frozenset(members))
                    order = wc_order(coloring, palette)
                    for a, b in order_pairs(order):
                        if not acc_member(universe[a], universe[b], i):
                            violations += 1
                        # the club-trapping corollary: lower members of any
                        # well-connected set lie inside the top's club
                        if universe[a] not in club_interval(universe[b], i):
                            violations += 1
    assert violations == 0
    report(9, "well-connected pairs accumulate in the index-i club, 100 universes")


def test_criterion_10_delta_injection_bound():
    d3 = delta_coloring(3)
    for size in range(1, 9):
        for xs in combinations(range(8), size):
            realized = {color(d3, a, b) for a, b in combinations(xs, 2)}
            assert len(xs) <= 2 ** len(realized)
    d4 = delta_coloring(4)
    rng = random.Random(4242)
    for _ in range(10_000):
        size = rng.randint(1, 16)
        xs = sorted(rng.sample(range(16), size))
        realized = {color(d4, a, b) for a, b in combinations(xs, 2)}
        assert len(xs) <= 2 ** len(realized)
    report(10, "first-difference coloring injection bound")


def test_criterion_11_certificate_round_trip(chain_outcomes, wc_threshold):
    certs = []
    for c, _, classical, hc, wc in chain_outcomes:
        for outcome in (classical, hc, wc):
            if outcome.holds:
                assert verify_certificate(outcome.certificate, c) is None
                certs.append((outcome.certificate, c))
    v = wc_threshold.threshold
    for seed in range(20):
        c6 = random_coloring(6, 2, seed=60_000 + seed)
        out = decide(c6, RelationQuery("classical", 3, 1))
        assert out.holds  # threshold 6 means every coloring of 6 holds
        assert verify_certificate(out.certificate, c6) is None
        certs.append((out.certificate, c6))
        cv = random_coloring(v, 2, seed=70_000 + seed)
        outw = decide(cv, RelationQuery("wc", 3, 1))
        assert outw.holds
        assert verify_certificate(outw.certificate, cv) is None
        certs.append((outw.certificate, cv))
    rejected = _rejected_mutations(certs)
    assert rejected == 20
    report(11, f"{len(certs)} certificates verified, 20 mutations rejected")


def _rejected_mutations(certs):
    """Build 20 broken certificates of the three mutation kinds and count
    how many the verifier rejects (all of them, or the test fails)."""
    from connramsey.core import HcCertificate, WcCertificate

    wc_certs = [(k, c) for k, c in certs if isinstance(k, WcCertificate) and len(k.X) >= 2]
    hc_certs = [(k, c) for k, c in certs if isinstance(k, HcCertificate) and k.E]
    rejected = 0

    # paths that dip below their source
    dips = 0
    for cert, coloring in wc_certs:
        pair = next(((a, b) for (a, b) in cert.paths if a > 0), None)
        if pair is None or dips >= 7:
            continue
        a, b = pair
        broken_paths = dict(cert.paths)
        broken_paths[(a, b)] = (a, 0, b)
        broken = WcCertificate(cert.n, cert.lam, cert.X, cert.palette, broken_paths)
        violation = verify_certificate(broken, coloring)
        assert violation is not None and "dips below source" in violation
        rejected += 1
        dips += 1
    assert dips == 7

    # palettes swapped off the witness edges
    offs = 0
    for cert, coloring in hc_certs:
        if cert.lam < 2 or offs >= 7:
            continue
        edge_colors = {color(coloring, a, b) for a, b in cert.E}
        other = next((x for x in range(cert.lam) if x not in edge_colors), None)
        if other is None:
            continue
        broken = HcCertificate(cert.n, cert.lam, cert.X, Palette(frozenset({other})), cert.E, cert.j)
        violation = verify_certificate(broken, coloring)
        assert violation is not None and "outside the palette" in violation
        rejected += 1
        offs += 1
    assert offs == 7

    # X shrunk under the witness material
    unders = 0
    for cert, coloring in wc_certs + hc_certs:
        if len(cert.X) < 2 or unders >= 6:
            continue
        shrunk = cert.X[:-1]
        if isinstance(cert, WcCertificate):
            broken = WcCertificate(cert.n, cert.lam, shrunk, cert.palette, dict(cert.paths))
        else:
            if not any(cert.X[-1] in e for e in cert.E):
                continue
            broken = HcCertificate(cert.n, cert.lam, shrunk, cert.palette, cert.E, cert.j)
        violation = verify_certificate(broken, coloring)
        assert violation is not None
        rejected += 1
        unders += 1
    assert unders == 6
    return rejected
