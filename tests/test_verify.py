"""The certificate verifier: hc verdicts against the removal oracle, large
certificates, and the benchmark's mutation pattern."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import connramsey
from connramsey import (
    HcCertificate,
    Palette,
    RelationQuery,
    decide,
    make_coloring,
    verify_certificate,
)
from connramsey.generators import hub_coloring, random_coloring
from oracles import Graph, kappa_connected_bruteforce


def expected_violation(X, E, j):
    if kappa_connected_bruteforce(Graph(X, E), j):
        return None
    return f"(X, E) is not {j}-connected"


def test_hc_verdict_matches_removal_oracle():
    # Both colors are in the palette, so every E passes the color checks
    # and only connectivity decides.  Labels are a random sample of the
    # coloring's range, so they are not contiguous.
    rng = random.Random(6)
    n = 14
    c = random_coloring(n, 2, seed=6)
    palette = Palette(frozenset({0, 1}))
    for _ in range(500):
        X = tuple(sorted(rng.sample(range(n), rng.randint(0, 10))))
        density = rng.choice((0.0, 1.0, rng.random()))
        E = frozenset(p for p in combinations(X, 2) if rng.random() < density)
        for j in range(1, len(X) + 3):
            cert = HcCertificate(n, 2, X, palette, E, j)
            assert verify_certificate(cert, c) == expected_violation(X, E, j), (X, sorted(E), j)


def test_hc_examples():
    c = random_coloring(8, 2, seed=1)
    palette = Palette(frozenset({0, 1}))
    bowtie = {(1, 3), (1, 5), (3, 5), (5, 6), (5, 7), (6, 7)}
    square = {(0, 2), (2, 4), (4, 6), (0, 6)}
    cases = [
        ((), set(), 3, None),
        ((4,), set(), 2, None),
        ((0, 2, 4, 6), set(combinations((0, 2, 4, 6), 2)), 6, None),  # complete, j > |X|
        ((1, 3, 5), {(1, 3)}, 1, "(X, E) is not 1-connected"),  # 5 is isolated
        ((1, 3, 5, 6, 7), bowtie, 1, None),
        ((1, 3, 5, 6, 7), bowtie, 2, "(X, E) is not 2-connected"),  # 5 is a cut vertex
        ((0, 2, 4, 6), square, 2, None),
        ((0, 2, 4, 6), square, 3, "(X, E) is not 3-connected"),  # j + 1 vertices, not complete
    ]
    for X, E, j, violation in cases:
        assert verify_certificate(HcCertificate(8, 2, X, palette, frozenset(E), j), c) == violation
        assert expected_violation(X, frozenset(E), j) == violation


def circulant_certificate(n, steps, j):
    edges = {tuple(sorted((v, (v + d) % n))) for v in range(n) for d in steps}
    c = make_coloring(n, 2, [(a, b, int((a, b) not in edges)) for a, b in combinations(range(n), 2)])
    return HcCertificate(n, 2, tuple(range(n)), Palette(frozenset({0})), frozenset(edges), j), c


def test_circulant_on_30_vertices():
    # C30(1..7) is 14-regular and 14-connected.
    cert, c = circulant_certificate(30, range(1, 8), 14)
    assert verify_certificate(cert, c) is None
    cert, c = circulant_certificate(30, range(1, 8), 15)
    assert verify_certificate(cert, c) == "(X, E) is not 15-connected"


def test_classical_certificate_on_30_vertices_through_cli(tmp_path):
    # A fresh process with a timeout, so that a verifier exponential in j
    # fails here instead of hanging the suite.
    env = dict(os.environ, PYTHONPATH=str(Path(connramsey.__file__).parent.parent))
    col, cert = tmp_path / "k30.col", tmp_path / "cert.json"

    def cli(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "connramsey.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        return done.returncode, done.stdout

    assert cli("gen", "constant", "--n", "30", "--color", "0", "--colors", "1", "--out", str(col))[0] == 0
    code, out = cli("decide", str(col), "--mode", "classical", "--m", "30", "--palette-size", "1")
    assert code == 0
    cert.write_text(out)
    assert cli("verify", str(cert), str(col)) == (0, '{"valid":true}\n')


def cut_least_degree_vertex(cert):
    """The benchmark's hc mutation: cut a least-degree vertex v down to
    min(j - 1, |X| - 2) edges, so that v has a non-neighbor and fewer
    than j neighbors."""
    degree = {v: sum(v in e for e in cert.E) for v in cert.X}
    v = min(cert.X, key=lambda x: (degree[x], x))
    at_v = sorted(e for e in cert.E if v in e)
    keep = min(cert.j - 1, len(cert.X) - 2)
    return HcCertificate(cert.n, cert.lam, cert.X, cert.palette, cert.E - set(at_v[keep:]), cert.j)


@pytest.fixture
def no_split_graph(monkeypatch):
    """Fail any verify call that builds the split graph for a flow."""

    def split_graph(nbrs):
        raise AssertionError("split graph built")

    monkeypatch.setattr(connramsey.verify, "_split_graph", split_graph)


def test_hub_certificate_rejected_after_least_degree_edges_drop(no_split_graph):
    # K8,8: every non-adjacent pair shares 8 neighbors, and the mutation
    # leaves a vertex with fewer than 8, so counting settles both.
    c = hub_coloring(8, 8)
    cert = decide(c, RelationQuery("hc", 16, 1, 8)).certificate
    assert verify_certificate(cert, c) is None
    assert verify_certificate(cut_least_degree_vertex(cert), c) == "(X, E) is not 8-connected"


def test_cut_down_clique_rejected_without_a_flow(no_split_graph):
    c = make_coloring(17, 1, [(a, b, 0) for a, b in combinations(range(17), 2)])
    cert = decide(c, RelationQuery("classical", 17, 1)).certificate
    assert verify_certificate(cert, c) is None
    assert verify_certificate(cut_least_degree_vertex(cert), c) == "(X, E) is not 17-connected"


def test_pairs_that_counting_cannot_settle_still_flow(monkeypatch):
    built = []
    split_graph = connramsey.verify._split_graph

    def spy(nbrs):
        built.append(nbrs)
        return split_graph(nbrs)

    monkeypatch.setattr(connramsey.verify, "_split_graph", spy)
    cert, c = circulant_certificate(30, range(1, 8), 14)
    assert verify_certificate(cert, c) is None
    assert len(built) == 1
    c = random_coloring(20, 2, 1)
    cert = decide(c, RelationQuery("hc", 12, 1, 4)).certificate
    assert verify_certificate(cert, c) is None
    assert len(built) == 2
