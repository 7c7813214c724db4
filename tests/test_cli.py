"""CLI surface: exit codes, JSON payloads, determinism, verifier."""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import connramsey

from connramsey import (
    Palette,
    certificate_from_json,
    certificate_to_json,
    delta_coloring,
    read_coloring,
    verify_certificate,
    write_coloring,
)
from connramsey.cli import _form, _read_plain, _read_text, build_parser, main
from connramsey.core import constant_coloring
from connramsey.generators import random_coloring
from connramsey.wellconn import is_wc_set
from oracles import longest_wc_set, make_graph, wc_pair_reference, write_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def delta_file(tmp_path):
    path = tmp_path / "delta2.col"
    path.write_text(write_coloring(delta_coloring(2)))
    return str(path)


def test_gen_delta(tmp_path, capsys):
    out = tmp_path / "d.col"
    code, stdout, _ = run(capsys, "gen", "delta", "--len", "2", "--out", str(out))
    assert code == 0
    meta = json.loads(stdout)
    assert meta["n"] == 4 and meta["lambda"] == 2
    assert read_coloring(out.read_text()) == delta_coloring(2)


def test_gen_constant(tmp_path, capsys):
    out = tmp_path / "c.col"
    code, stdout, _ = run(
        capsys, "gen", "constant", "--n", "3", "--color", "0", "--colors", "1", "--out", str(out)
    )
    assert code == 0
    assert out.read_text() == "3 1\n0 1 0\n0 2 0\n1 2 0\n"


@pytest.mark.parametrize(
    "argv, lam",
    [
        (("random", "--n", "3", "--colors", "-2"), -2),
        (("constant", "--n", "3", "--color", "0", "--colors", "0"), 0),
    ],
)
def test_gen_rejects_color_count_below_one(tmp_path, capsys, argv, lam):
    out = tmp_path / "bad.col"
    code, stdout, err = run(capsys, "gen", *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == f"error: color count must be >= 1, got {lam}\n"
    assert not out.exists()


def test_gen_csystem_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.col", tmp_path / "b.col"
    args = ["gen", "csystem", "--dim", "2", "--coeff-max", "3", "--size", "3", "--seed", "7"]
    code_a, meta_a, _ = run(capsys, *args, "--out", str(a))
    code_b, meta_b, _ = run(capsys, *args, "--out", str(b))
    assert code_a == code_b == 0
    assert a.read_text() == b.read_text()
    assert json.loads(meta_a)["universe"] == json.loads(meta_b)["universe"]


def test_gen_random_seeded(tmp_path, capsys):
    out = tmp_path / "r.col"
    code, stdout, _ = run(
        capsys, "gen", "random", "--n", "6", "--colors", "3", "--seed", "5", "--out", str(out)
    )
    assert code == 0
    assert read_coloring(out.read_text()) == random_coloring(6, 3, seed=5)


def test_decide_wc_holds_then_fails(delta_file, capsys):
    code, stdout, _ = run(
        capsys, "decide", delta_file, "--mode", "wc", "--m", "3", "--palette-size", "1"
    )
    assert code == 0
    cert = certificate_from_json(stdout)
    assert cert.X == (0, 1, 2)

    code, stdout, _ = run(
        capsys, "decide", delta_file, "--mode", "wc", "--m", "4", "--palette-size", "1"
    )
    assert code == 1
    payload = json.loads(stdout)
    assert payload["verdict"] == "fails"
    assert payload["exhausted_palettes"] == [[0], [1]]


def test_decide_classical_constant(tmp_path, capsys):
    path = tmp_path / "c.col"
    path.write_text("3 1\n0 1 0\n0 2 0\n1 2 0\n")
    code, stdout, _ = run(
        capsys, "decide", str(path), "--mode", "classical", "--m", "3", "--palette-size", "1"
    )
    assert code == 0


def test_decide_deterministic_output(delta_file, capsys):
    args = ("decide", delta_file, "--mode", "hc", "--m", "2", "--palette-size", "1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_decide_and_verify_round_trip(tmp_path, delta_file, capsys):
    code, stdout, _ = run(
        capsys, "decide", delta_file, "--mode", "wc", "--m", "3", "--palette-size", "1"
    )
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(stdout)
    code, stdout, _ = run(capsys, "verify", str(cert_path), delta_file)
    assert code == 0
    assert json.loads(stdout) == {"valid": True}


def test_verify_rejects_path_dipping_below_source(tmp_path, capsys):
    c = random_coloring(5, 2, seed=3)
    col_path = tmp_path / "c.col"
    col_path.write_text(write_coloring(c))
    cert = is_wc_set(c, [2, 3], Palette(frozenset({0, 1})))
    assert cert is not None
    doc = json.loads(certificate_to_json(cert))
    doc["paths"]["2,3"] = [2, 0, 3]  # vertex 0 sits below the source 2
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify", str(cert_path), str(col_path))
    assert code == 1
    assert "dips below source" in json.loads(stdout)["violation"]


def wc_rule_case(tmp_path, capsys, edit):
    """verify's output on the full-pair wc certificate of a longest chain,
    its paths those of the per-pair search oracle, after edit(X, paths)."""
    c = random_coloring(10, 2, seed=2)
    col_path = tmp_path / "c.col"
    col_path.write_text(write_coloring(c))
    X = longest_wc_set(c, Palette(frozenset({0})))
    assert X == (0, 1, 2, 3, 4, 6, 7, 8)
    paths = {(a, b): list(wc_pair_reference(c, a, b, {0})) for a, b in combinations(X, 2)}
    edit(X, paths)
    doc = {"kind": "wc", "n": 10, "lambda": 2, "X": list(X), "Lambda": [0]}
    doc["paths"] = {f"{a},{b}": path for (a, b), path in paths.items()}
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    return run(capsys, "verify", str(cert_path), str(col_path))


def test_verify_needs_a_path_per_consecutive_pair_only(tmp_path, capsys):
    # The full-pair certificates of earlier versions stay valid, and so
    # does one without a non-consecutive pair: paths join by transitivity.
    def only_consecutive(X, paths):
        for pair in set(paths) - set(zip(X, X[1:])):
            del paths[pair]

    valid = (0, '{"valid":true}\n', "")
    assert wc_rule_case(tmp_path, capsys, lambda X, paths: None) == valid
    assert wc_rule_case(tmp_path, capsys, lambda X, paths: paths.pop((2, 6))) == valid
    assert wc_rule_case(tmp_path, capsys, only_consecutive) == valid
    # A path that is given is checked, consecutive or not.
    bad = lambda X, paths: paths.update({(2, 6): [2, 1, 6]})
    code, stdout, _ = wc_rule_case(tmp_path, capsys, bad)
    assert (code, json.loads(stdout)["violation"]) == (
        1, "path for (2, 6) dips below source: vertex 1 < 2"
    )


def test_verify_rejects_a_missing_consecutive_pair_or_an_outside_key(tmp_path, capsys):
    def violation(edit):
        code, stdout, _ = wc_rule_case(tmp_path, capsys, edit)
        assert code == 1
        return json.loads(stdout)["violation"]

    assert violation(lambda X, paths: paths.pop((4, 6))) == "missing path for pair (4, 6)"
    assert violation(lambda X, paths: paths.update({(4, 5): [4, 5]})) == (
        "unexpected path key (4, 5) outside the pairs of X"
    )
    assert violation(lambda X, paths: paths.update({(6, 4): [6, 4]})) == (
        "unexpected path key (6, 4) outside the pairs of X"
    )


def test_random96_wc_certificate_has_a_path_per_consecutive_pair(tmp_path, capsys):
    col = str(tmp_path / "random96.col")
    assert run(capsys, "gen", "random", "--n", "96", "--colors", "2", "--seed", "1", "--out", col)[0] == 0
    code, stdout, _ = run(capsys, "decide", col, "--mode", "wc", "--m", "92", "--palette-size", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["X"]) == 92 and len(doc["paths"]) == 91
    cert = tmp_path / "random96.cert.json"
    cert.write_text(stdout)
    assert run(capsys, "verify", str(cert), col) == (0, '{"valid":true}\n', "")


def test_verify_rejects_off_palette_edge(tmp_path, delta_file, capsys):
    code, stdout, _ = run(
        capsys, "decide", delta_file, "--mode", "classical", "--m", "2", "--palette-size", "1"
    )
    assert code == 0
    doc = json.loads(stdout)
    # delta(2): pair (0,1) has color 1, outside the palette {0}
    assert doc["Lambda"] == [0]
    doc["X"] = [0, 1]
    doc["E"] = [[0, 1]]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify", str(cert_path), delta_file)
    assert code == 1
    assert "outside the palette" in json.loads(stdout)["violation"]


def test_verify_exit_2_on_parse_failure(tmp_path, delta_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad), delta_file)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "cert",
    [
        '{"kind": "wc", "n": 4, "lambda": 2, "X": [0, 1], "Lambda": [0],'
        ' "paths": {"0,1": [0, 2, 1], "00,1": [0, 1]}}',
        '{"kind": "hc", "n": 4, "lambda": 2, "X": [0, 2], "Lambda": [0],'
        ' "E": [[0, 2], [0, 2]], "j": 1}',
        "[" * 100000,
    ],
    ids=["wc-path-key-spellings", "hc-duplicate-edge", "deeply-nested"],
)
def test_verify_exit_2_on_malformed_certificate(tmp_path, delta_file, capsys, cert):
    path = tmp_path / "cert.json"
    path.write_text(cert)
    code, stdout, err = run(capsys, "verify", str(path), delta_file)
    assert code == 2
    assert stdout == ""
    assert "error" in err


def test_ramsey_payload(capsys):
    code, stdout, _ = run(
        capsys,
        "ramsey",
        "--mode", "classical", "--m", "2", "--colors", "2", "--palette-size", "1", "--max-n", "3",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["threshold"] == 2
    assert payload["extremal"].startswith("1 2\n")


def test_ramsey_exhausted_cap(capsys):
    code, stdout, _ = run(
        capsys,
        "ramsey",
        "--mode", "classical", "--m", "3", "--colors", "2", "--palette-size", "1", "--max-n", "4",
    )
    assert code == 1
    assert json.loads(stdout)["threshold"] is None


def test_ramsey_classical_triangle(capsys):
    code, stdout, _ = run(
        capsys,
        "ramsey",
        "--mode", "classical", "--m", "3", "--colors", "2", "--palette-size", "1", "--max-n", "6",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["threshold"] == 6
    extremal = read_coloring(payload["extremal"])
    assert extremal.n == 5


def test_ramsey_wc_deterministic_output(capsys):
    args = (
        "ramsey",
        "--mode", "wc", "--m", "3", "--colors", "2", "--palette-size", "1", "--max-n", "6",
    )
    code, first, _ = run(capsys, *args)
    assert code == 0
    payload = json.loads(first)
    assert payload["threshold"] is not None and payload["threshold"] <= 6
    _, second, _ = run(capsys, *args)
    assert first == second


def test_ramsey_many_vertices_one_color(capsys):
    # 1035 pair slots: far deeper than the interpreter's recursion limit
    code, stdout, _ = run(
        capsys,
        "ramsey",
        "--mode", "classical", "--m", "46", "--colors", "1", "--palette-size", "1",
        "--max-n", "46",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["threshold"] == 46
    assert read_coloring(payload["extremal"]).n == 45


def test_ramsey_palette_of_every_color_settles_at_once(capsys):
    # With kappa >= lambda every m vertices are a witness, so threshold m
    # is known without a search; scanning level 6 would take about 30 s.
    code, stdout, _ = run(
        capsys,
        "ramsey",
        "--mode", "classical", "--m", "6", "--colors", "3", "--palette-size", "3",
        "--max-n", "8", "--time-limit", "5",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["threshold"] == 6
    assert read_coloring(payload["extremal"]) == constant_coloring(5, 0, 3)


def test_ramsey_time_limit_exit_2(capsys):
    code, _, err = run(
        capsys,
        "ramsey",
        "--mode", "classical", "--m", "3", "--colors", "2", "--palette-size", "1",
        "--max-n", "6", "--time-limit", "0.0",
    )
    assert code == 2
    assert "time budget" in err


def test_ramsey_time_limit_nan_exit_2(capsys):
    code, stdout, err = run(
        capsys,
        "ramsey",
        "--mode", "classical", "--m", "3", "--colors", "2", "--palette-size", "1",
        "--max-n", "6", "--time-limit", "nan",
    )
    assert code == 2
    assert stdout == ""
    assert "nan" in err


def test_check_conn(tmp_path, capsys):
    g = make_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = tmp_path / "g.graph"
    path.write_text(write_graph(g))
    code, stdout, _ = run(capsys, "check-conn", str(path), "--kappa", "2")
    assert code == 0
    assert json.loads(stdout)["kappa_connected"] is True
    code, stdout, _ = run(capsys, "check-conn", str(path), "--kappa", "3")
    assert code == 1


def circulant(n, offsets):
    return make_graph(range(n), [(v, (v + o) % n) for v in range(n) for o in offsets])


def two_cliques(k, bridges):
    """Cliques on 0..k-1 and k..2k-1, joined by the edges (i, k + i), i < bridges."""
    edges = list(combinations(range(k), 2)) + [(a + k, b + k) for a, b in combinations(range(k), 2)]
    return make_graph(range(2 * k), edges + [(i, k + i) for i in range(bridges)])


@pytest.mark.parametrize(
    "graph, kappa, code, stdout",
    [
        (circulant(40, (1, 2, 3)), 6, 0, '{"kappa":6,"kappa_connected":true,"n":40}\n'),
        (circulant(40, (1, 2, 3)), 7, 1, '{"kappa":7,"kappa_connected":false,"n":40}\n'),
        # Minimum degree 6, but the bridge ends on one side are a 5-vertex
        # cut that only the flow finds.
        (two_cliques(7, 5), 6, 1, '{"kappa":6,"kappa_connected":false,"n":14}\n'),
        (two_cliques(7, 5), 5, 0, '{"kappa":5,"kappa_connected":true,"n":14}\n'),
    ],
)
def test_check_conn_bench_graphs(tmp_path, capsys, graph, kappa, code, stdout):
    path = tmp_path / "g.graph"
    path.write_text(write_graph(graph))
    assert run(capsys, "check-conn", str(path), "--kappa", str(kappa)) == (code, stdout, "")


def test_check_conn_edgeless_header_answered_before_vertices_are_listed(tmp_path, capsys, monkeypatch):
    # 100,000 isolated vertices: the kernel's reachability gate answers
    # before it lists the vertices one by one, which is quadratic.
    def no_listing(mask):
        raise AssertionError("the kernel listed the vertices of a disconnected graph")

    monkeypatch.setattr("connramsey.connectivity.bits", no_listing)
    path = tmp_path / "edgeless.graph"
    path.write_text("100000 0\n")
    assert run(capsys, "check-conn", str(path), "--kappa", "1") == (
        1,
        '{"kappa":1,"kappa_connected":false,"n":100000}\n',
        "",
    )


def test_check_wc(delta_file, capsys):
    code, stdout, _ = run(capsys, "check-wc", delta_file, "--set", "0,1,2", "--palette", "0")
    assert code == 0
    cert = certificate_from_json(stdout)
    assert cert.paths[(0, 1)] == (0, 2, 1)
    code, stdout, _ = run(capsys, "check-wc", delta_file, "--set", "0,1,2,3", "--palette", "0")
    assert code == 1


@pytest.mark.parametrize(
    "vertices, colors, bad", [("0,,2", "0", "0,,2"), ("0,1,", "0", "0,1,"), ("0,1", ",", ",")]
)
def test_check_wc_rejects_empty_list_items(delta_file, capsys, vertices, colors, bad):
    assert run(capsys, "check-wc", delta_file, "--set", vertices, "--palette", colors) == (
        2, "", f"error: expected comma-separated integers, got {bad!r}\n"
    )
    # the empty string stays the empty list, which is vacuously wc
    code, stdout, _ = run(capsys, "check-wc", delta_file, "--set", "", "--palette", "0")
    assert code == 0 and certificate_from_json(stdout).X == ()


def test_negative_palette_color_exit_2(tmp_path, delta_file, capsys):
    want = (2, "", "error: negative color -1\n")
    assert run(capsys, "check-wc", delta_file, "--set", "0,1", "--palette", "-1") == want
    cert = tmp_path / "cert.json"
    cert.write_text(
        '{"kind": "wc", "n": 4, "lambda": 2, "X": [0, 1], "Lambda": [-1], "paths": {"0,1": [0, 1]}}'
    )
    assert run(capsys, "verify", str(cert), delta_file) == want
    # the range checks of is_wc_set
    assert run(capsys, "check-wc", delta_file, "--set", "0,9", "--palette", "0") == (
        2, "", "error: vertex 9 out of range for n=4\n"
    )
    assert run(capsys, "check-wc", delta_file, "--set", "0,1", "--palette", "5") == (
        2, "", "error: palette color 5 out of range for lambda=2\n"
    )


def test_usage_errors_exit_2(tmp_path, delta_file, capsys):
    code, _, _ = run(capsys, "decide", str(tmp_path / "missing.col"), "--mode", "wc", "--m", "3", "--palette-size", "1")
    assert code == 2
    code, _, _ = run(capsys, "decide", delta_file, "--mode", "wc", "--m", "9", "--palette-size", "1")
    assert code == 2  # m > n
    code, _, _ = run(capsys, "decide", delta_file, "--mode", "nope", "--m", "3", "--palette-size", "1")
    assert code == 2  # argparse choices
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def text_mode_read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def same_read(path):
    """_read_text and a text-mode read of path: equal texts, or errors of
    one class with one message."""
    results = []
    for read in (_read_text, text_mode_read):
        try:
            results.append(read(path))
        except ValueError as exc:
            results.append((type(exc), str(exc)))
    assert results[0] == results[1], path.read_bytes()
    return results[0]


@pytest.mark.parametrize(
    "data",
    [
        b"2 1\n0 1 0\n",
        b"2 1\r\n0 1 0\r\n",
        b"2 1\r0 1 0\r",
        b"3 1\r\n0 1 0\r0 2 0\n1 2 0\r\n\r",
        b"\r\r\n\n\r",
        b"",
        b"\xef\xbb\xbf2 1\n0 1 0\n",
        "{\"kind\": \"wc\", \"note\": \"ä   \U0001f600\"}\r\n".encode(),
    ],
    ids=["lf", "crlf", "cr", "mixed", "only-newlines", "empty", "bom", "non-ascii"],
)
def test_read_text_matches_text_mode(tmp_path, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert isinstance(same_read(path), str)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(["\n", "\r", "\r\n", " ", "0", "é", "\ufeff", "\u2028"]))
        .map("".join)
        .map(str.encode),
        st.binary(max_size=40),
    )
)
def test_read_text_matches_text_mode_on_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("read") / "input"
    path.write_bytes(data)
    same_read(path)


@pytest.mark.parametrize("data", [b"\xff2 1\n", b"2 1\n0 1 \xc3", b"2 1\n0 1 \xed\xa0\x80\n"])
def test_invalid_utf8_is_rejected_as_text_mode_rejects_it(tmp_path, capsys, data):
    path = tmp_path / "bad.col"
    path.write_bytes(data)
    kind, message = same_read(path)
    assert kind is UnicodeDecodeError
    assert run(capsys, "decide", str(path), "--mode", "wc", "--m", "2", "--palette-size", "1") == (
        2, "", f"error: {message}\n"
    )


def stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@pytest.mark.parametrize("mode, j", [("classical", None), ("hc", 60)])
def test_search_deeper_than_the_stack_exits_2(tmp_path, capsys, mode, j):
    # The clique and connected-set searches recurse once per member of the
    # set they grow; 120 members are more than the lowered limit allows.
    # The relation holds, so exit 1 would be a wrong verdict.
    path = tmp_path / "k120.col"
    path.write_text(write_coloring(constant_coloring(120, 0, 1)))
    argv = ["decide", str(path), "--mode", mode, "--m", "120", "--palette-size", "1"]
    argv += ["--j", str(j)] if j is not None else []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        code, stdout, err = run(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1


def test_input_larger_than_memory_exits_2(tmp_path, capsys, monkeypatch):
    def out_of_memory(ell):
        raise MemoryError

    monkeypatch.setattr("connramsey.generators.delta_coloring", out_of_memory)
    out = tmp_path / "d.col"
    assert run(capsys, "gen", "delta", "--len", "30", "--out", str(out)) == (
        2, "", "error: out of memory\n"
    )
    assert not out.exists()


def test_argparse_only_forms_keep_their_results(tmp_path, delta_file, capsys):
    plain = run(capsys, "decide", delta_file, "--mode", "wc", "--m", "3", "--palette-size", "1")
    assert plain[0] == 0
    assert run(capsys, "decide", delta_file, "--mode=wc", "--m", "3", "--pal", "1") == plain
    cert = tmp_path / "cert.json"
    cert.write_text(plain[1])
    assert run(capsys, "verify", "--", str(cert), delta_file) == (0, '{"valid":true}\n', "")
    assert run(
        capsys, "ramsey", "--mode", "classical", "--m", "3", "--colors", "2", "--palette-size", "1",
        "--max-n", "6", "--time-limit", "-1",
    ) == (2, "", "error: time budget used up before the first step\n")
    code, stdout, _ = run(capsys, "decide", "--help")
    assert code == 0 and stdout.startswith("usage: connramsey decide")


def _leaves(form, path=()):
    """(command path, form) of every parser without subcommands."""
    *_, subcommands = form
    if subcommands is None:
        return [(path, form)]
    _, forms = subcommands
    return [leaf for name, sub in forms.items() for leaf in _leaves(sub, path + (name,))]


LEAVES = _leaves(_form(build_parser()))
NOISE = ["", "-", "--", "-h", "--help", "-1", "--mode=wc", "--m=3", "--pal", "--mo", "--n", "x.col", "wc"]


def _values(action):
    """Values that pass the action's type and choices, then values that fail them."""
    if action.choices is not None:
        return [*action.choices], ["nope", "", "-1"]
    if action.type is int:
        return [str(k) for k in range(-3, 13)] + [" 7", "1_0"], ["", "x", "1.5", "0x1"]
    if action.type is float:
        return ["0", "2.5", "60", "1e-3", "nan", "inf", "-1"], ["", "x", "1,5"]
    return ["a.col", "b.col", "x y", ""], ["-", "--", "-h", "--m"]


@st.composite
def _argv(draw):
    """A command path, then chunks: an option and its value (the option
    exact, a prefix, or joined to the value by '='), a positional, or a
    noise token.  At most one action gets a value that fails it, and each
    other departure from the plain form is drawn rarely, so that many
    lists are plain and most others hold one departure."""

    def rare():
        # 7, not an end of the range: Hypothesis draws the ends more often
        return draw(st.integers(0, 15)) == 7

    path, (_, options, positionals, _, _) = draw(st.sampled_from(LEAVES))
    actions = list(dict.fromkeys(options.values()))
    odd = draw(st.sampled_from([None, *actions, *positionals]))

    def value(action):
        good, bad = _values(action)
        return draw(st.sampled_from(bad if action is odd else good))

    chunks = []
    for action in draw(st.permutations(actions)):
        if rare():
            continue
        opt = draw(st.sampled_from(action.option_strings))
        if rare():
            chunks.append([f"{opt}={value(action)}"])
        elif rare():
            chunks.append([opt[: draw(st.integers(1, len(opt)))], value(action)])
        else:
            chunks.append([opt, value(action)])
    for action in positionals:
        if not rare():
            chunks.insert(draw(st.integers(0, len(chunks))), [value(action)])
    while rare():
        chunks.insert(draw(st.integers(0, len(chunks))), [draw(st.sampled_from(NOISE))])
    path = list(path)
    if rare():
        path = path[: draw(st.integers(0, len(path)))] + draw(st.lists(st.sampled_from(NOISE), max_size=1))
    return path + [token for chunk in chunks for token in chunk]


def _comparable(values: dict) -> dict:
    # `--time-limit nan` parses to a NaN, which equals no float, itself included.
    return {
        key: (float, "nan") if isinstance(value, float) and math.isnan(value) else value
        for key, value in values.items()
    }


@settings(max_examples=1000, deadline=None)
@given(_argv())
def test_plain_reader_agrees_with_argparse(argv):
    read = _read_plain(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
    assert read is None or (parsed is not None and _comparable(vars(read)) == _comparable(parsed))


def test_plain_reader_reads_bench_and_readme_argvs():
    # every argument list the bench issues, and every README CLI example,
    # must be read in one pass; a fallback there would lose the gain unseen
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_run", root / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    argvs = [cell for cells in bench.SEARCH_CELLS.values() for cell in cells]
    for workload in bench.SEARCH_CELLS:
        argvs += [c for _, _, checks in bench.search_inputs(workload, bench.load_pins()) for c in checks]
    argvs += [["gen", *gen, "--out", name] for name, gen in bench.CORPUS.items()]
    argvs += bench.CERTIFY_DECIDES + bench.CHECK_CONN
    argvs += [["verify", cert, coloring] for cert in ("cert.json", "mutated.json")
              for coloring in bench.CORPUS]
    readme = (root / "README.md").read_text().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line.split(">")[0])[1:]
                for line in readme.splitlines() if line.startswith("connramsey ")]
    assert len(examples) == 10
    for argv in argvs + examples:
        argv = [a.replace("{seed}", "1") for a in argv]
        read = _read_plain(argv)
        assert read is not None, argv
        assert vars(read) == vars(build_parser().parse_args(argv))


def test_verifier_independent_of_decider(tmp_path, capsys):
    # certificates hand-built from scratch, never produced by decide
    c = random_coloring(6, 2, seed=11)
    col_path = tmp_path / "c.col"
    col_path.write_text(write_coloring(c))
    cert = is_wc_set(c, range(6), Palette(frozenset({0, 1})))
    assert cert is not None  # full palette relates every pair directly
    assert verify_certificate(cert, c) is None


def test_parser_built_once_and_reused(tmp_path, delta_file, capsys, monkeypatch):
    graph = tmp_path / "g.graph"
    graph.write_text(write_graph(make_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])))
    cert = tmp_path / "cert.json"
    calls = [
        ("gen", "delta", "--len", "2", "--out", str(tmp_path / "d.col")),
        ("decide", delta_file, "--mode", "wc", "--m", "3", "--palette-size", "1"),
        ("decide", delta_file, "--mode", "hc", "--m", "4", "--palette-size", "1", "--j", "2"),
        ("decide", delta_file, "--mode", "hc", "--m", "4", "--palette-size", "1"),
        ("ramsey", "--mode", "wc", "--m", "3", "--colors", "2", "--palette-size", "1",
         "--max-n", "6"),
        ("verify", str(cert), delta_file),
        ("check-conn", str(graph), "--kappa", "2"),
        ("check-wc", delta_file, "--set", "0,1,2", "--palette", "0"),
        ("decide", delta_file, "--mode", "nope", "--m", "3", "--palette-size", "1"),
        ("--help",),
    ]
    code, stdout, _ = run(capsys, *calls[1])  # warm-up: builds the parser
    assert code == 0
    cert.write_text(stdout)

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    first = [run(capsys, *argv) for argv in calls]
    second = [run(capsys, *argv) for argv in calls]
    assert built == []
    assert first == second
    assert [code for code, _, _ in first] == [0, 0, 0, 1, 0, 0, 0, 0, 2, 0]


def fresh_process(argv, **env):
    """Run the CLI in a new interpreter: its parser is built for this call alone."""
    env = dict(os.environ, PYTHONPATH=str(Path(connramsey.__file__).parent.parent), **env)
    done = subprocess.run(
        [sys.executable, "-m", "connramsey.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout


def test_decide_hc_delta5_finishes(tmp_path):
    # Each one-color graph of delta(5) has C(32, 10) 10-sets, too many to
    # sweep; the minimum-degree bounds refute all five palettes at once.
    # The subprocess timeout turns a search that hangs into a failure.
    col = tmp_path / "delta5.col"
    col.write_text(write_coloring(delta_coloring(5)))
    argv = ["decide", str(col), "--mode", "hc", "--m", "10", "--j", "6", "--palette-size", "1"]
    assert fresh_process(argv) == (
        1,
        '{"exhausted_palettes":[[0],[1],[2],[3],[4]],"m":10,"mode":"hc",'
        '"palette_size":1,"verdict":"fails"}\n',
    )


# Failing decides that the coloring bounds of the witness searches settle:
# every κ-color palette graph of delta(L) is properly colored by the κ
# bits at its palette's positions, so it has no clique on 2^κ + 1
# vertices, and in hub(8, 8) no palette graph holds 10 vertices that
# each miss at most 3 of the others.  Their outputs are the bytes of the
# unbounded search, which exhausted every m-set.
FAILING_DECIDES = [
    (
        ("delta", "--len", "6"),
        ("--mode", "classical", "--m", "9", "--palette-size", "3"),
        '{"exhausted_palettes":[[0],[0,1],[0,1,2],[0,1,3],[0,1,4],[0,1,5],[0,2],[0,2,3],'
        "[0,2,4],[0,2,5],[0,3],[0,3,4],[0,3,5],[0,4],[0,4,5],[0,5],[1],[1,2],[1,2,3],"
        "[1,2,4],[1,2,5],[1,3],[1,3,4],[1,3,5],[1,4],[1,4,5],[1,5],[2],[2,3],[2,3,4],"
        "[2,3,5],[2,4],[2,4,5],[2,5],[3],[3,4],[3,4,5],[3,5],[4],[4,5],[5]],"
        '"m":9,"mode":"classical","palette_size":3,"verdict":"fails"}\n',
    ),
    (
        ("delta", "--len", "7"),
        ("--mode", "classical", "--m", "5", "--palette-size", "2"),
        '{"exhausted_palettes":[[0],[0,1],[0,2],[0,3],[0,4],[0,5],[0,6],[1],[1,2],[1,3],'
        "[1,4],[1,5],[1,6],[2],[2,3],[2,4],[2,5],[2,6],[3],[3,4],[3,5],[3,6],[4],[4,5],"
        '[4,6],[5],[5,6],[6]],"m":5,"mode":"classical","palette_size":2,"verdict":"fails"}\n',
    ),
    (
        ("hub", "--n0", "8", "--n1", "8"),
        ("--mode", "hc", "--m", "10", "--j", "6", "--palette-size", "1"),
        '{"exhausted_palettes":[[0],[1],[2],[3]],"m":10,"mode":"hc","palette_size":1,'
        '"verdict":"fails"}\n',
    ),
]


@pytest.mark.parametrize("gen, query, stdout", FAILING_DECIDES, ids=["delta6-m9", "delta7-m5", "hub-m10"])
def test_decide_exhausts_structured_colorings(tmp_path, capsys, gen, query, stdout):
    col = str(tmp_path / "in.col")
    assert run(capsys, "gen", *gen, "--out", col)[0] == 0
    assert run(capsys, "decide", col, *query) == (1, stdout, "")


def test_module_entry_point_runs_without_warnings():
    # The package must not import connramsey.cli itself, or runpy warns
    # that the module is already loaded before it runs it as __main__.
    env = dict(os.environ, PYTHONPATH=str(Path(connramsey.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "connramsey.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: connramsey")


LAZY_EXPORTS = {
    "generators": ("delta_coloring", "hub_coloring", "random_coloring"),
    "ordinals": (
        "CnfOrdinal",
        "CsystemReport",
        "check_csystem_axioms",
        "coloring_from_csystem",
        "ord_print",
        "sample_universe",
    ),
}


def test_verify_certificate_exported_lazily(monkeypatch):
    from connramsey import cli

    assert connramsey.verify_certificate is cli.verify_certificate
    assert verify_certificate is cli.verify_certificate
    lazy = {name: module for module, names in LAZY_EXPORTS.items() for name in names}
    assert connramsey._LAZY == lazy
    for name, module in lazy.items():
        own = getattr(importlib.import_module(f"connramsey.{module}"), name)
        # Forget the cached name, so that both lookups go through the hook.
        monkeypatch.delitem(vars(connramsey), name, raising=False)
        namespace = {}
        exec(f"from connramsey import {name}", namespace)
        assert namespace[name] is own
        monkeypatch.delitem(vars(connramsey), name)
        assert getattr(connramsey, name) is own
        assert vars(connramsey)[name] is own  # cached on first use
    namespace = {}
    exec("from connramsey import *", namespace)
    assert set(lazy) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        connramsey.no_such_name


def fresh_stdout(code: str, *args: str) -> str:
    """The stdout of code run in a new interpreter, which must exit 0
    without printing to stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(connramsey.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


# Prints the package's loaded modules, then the modules that importing
# the CLI and running {body} added.
LOADED_MODULES = """
import io, sys
before = set(sys.modules)
from connramsey import cli
{body}
sys.stdout = sys.__stdout__
print(*sorted(m for m in sys.modules if m.startswith("connramsey")))
print(*sorted(set(sys.modules) - before))
"""

DECIDE_THEN_VERIFY = """
sys.stdout = io.StringIO()
assert cli.main(["decide", sys.argv[1], "--mode", "wc", "--m", "3", "--palette-size", "1"]) == 0
open(sys.argv[2], "w").write(sys.stdout.getvalue())
assert cli.main(["verify", sys.argv[2], sys.argv[1]]) == 0
"""

RAMSEY = """
sys.stdout = io.StringIO()
argv = ["ramsey", "--mode", "classical", "--m", "3", "--colors", "2", "--palette-size", "1", "--max-n", "6"]
assert cli.main(argv) == 0
"""


GEN_CSYSTEM = """
sys.stdout = io.StringIO()
argv = ["gen", "csystem", "--dim", "3", "--coeff-max", "2", "--size", "14", "--seed", "1"]
assert cli.main(argv + ["--out", sys.argv[2]]) == 0
"""


@pytest.mark.parametrize(
    "body, gen_modules",
    [
        ("", []),
        (DECIDE_THEN_VERIFY, []),
        (RAMSEY, []),
        (GEN_CSYSTEM, ["connramsey.generators", "connramsey.ordinals"]),
    ],
    ids=["import", "decide-verify", "ramsey", "gen-csystem"],
)
def test_only_gen_loads_generators_and_ordinals(tmp_path, delta_file, body, gen_modules):
    stdout = fresh_stdout(LOADED_MODULES.format(body=body), delta_file, str(tmp_path / "out"))
    package, added = (line.split() for line in stdout.splitlines())
    assert package == sorted([
        "connramsey",
        "connramsey.arrows",
        "connramsey.cli",
        "connramsey.connectivity",
        "connramsey.core",
        "connramsey.verify",
        "connramsey.wellconn",
        *gen_modules,
    ])
    # The records are named tuples, so no command, gen csystem included,
    # loads the dataclass machinery.
    assert "dataclasses" not in added and "inspect" not in added


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["random", "--n", "6", "--colors", "3", "--seed", "5"], lambda: random_coloring(6, 3, seed=5)),
        (
            ["csystem", "--dim", "2", "--coeff-max", "3", "--size", "6", "--seed", "0"],
            lambda: connramsey.coloring_from_csystem(connramsey.sample_universe(2, 3, 6, 0)),
        ),
    ],
    ids=["random", "csystem"],
)
def test_gen_runs_in_a_fresh_process(tmp_path, argv, expected):
    out = tmp_path / "gen.col"
    code, stdout = fresh_process(["gen", *argv, "--out", str(out)])
    assert code == 0 and json.loads(stdout)["kind"] == argv[0]
    assert read_coloring(out.read_text()) == expected()


@pytest.mark.parametrize("columns", ["50", "120"])
def test_shared_parser_help_reads_terminal_width(capsys, monkeypatch, columns):
    main(["--help"])  # built, and help printed, at another width
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", columns)
    for argv in (["--help"], ["decide", "--help"]):
        code, stdout, _ = run(capsys, *argv)
        assert (code, stdout) == fresh_process(argv, COLUMNS=columns)


def test_j_default_does_not_leak_between_calls(delta_file, capsys):
    # decide --mode hc without --j asks for j = m, whatever an earlier call set
    args = ["decide", delta_file, "--mode", "hc", "--m", "4", "--palette-size", "1"]
    code, _, _ = run(capsys, *args, "--j", "2")
    assert code == 0
    code, stdout, _ = run(capsys, *args)
    assert (code, stdout) == fresh_process(args)
    assert code == 1


@pytest.mark.parametrize("mode", ["classical", "wc"])
def test_decide_rejects_j_outside_hc(delta_file, capsys, mode):
    args = ("decide", delta_file, "--mode", mode, "--m", "3", "--palette-size", "1", "--j", "7")
    assert run(capsys, *args) == (2, "", "error: j applies to hc mode only\n")


@pytest.mark.parametrize("mode", ["classical", "wc"])
def test_ramsey_rejects_j_outside_hc(capsys, mode):
    args = ("ramsey", "--mode", mode, "--m", "3", "--colors", "2", "--palette-size", "1",
            "--max-n", "6", "--j", "99")
    assert run(capsys, *args) == (2, "", "error: j applies to hc mode only\n")
