"""The bulk coloring and certificate readers and the verifier against the
per-line and per-pair references in oracles.py.

Every input is an edited copy of what the library itself writes: a
coloring file from write_coloring, a certificate that decide found.  On
each one the library must return an equal object or raise FormatError
with the reference's message, and give the reference's violation.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import connramsey
from connramsey import (
    Coloring,
    FormatError,
    RelationQuery,
    certificate_from_json,
    certificate_to_json,
    decide,
    read_coloring,
    verify_certificate,
    write_coloring,
)
from connramsey.cli import _emit
from connramsey.core import encode_json
from connramsey.generators import random_coloring
from oracles import (
    certificate_from_json_reference,
    read_coloring_reference,
    verify_certificate_reference,
    wc_pair_reference,
)


def outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


def assert_same_parse(parse, reference, text):
    got, want = outcome(parse, text), outcome(reference, text)
    assert got == want, text
    return got


@st.composite
def colorings(draw, min_n=0, max_n=9, max_lam=3):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    lam = draw(st.integers(min_value=1, max_value=max_lam))
    npairs = n * (n - 1) // 2
    cols = draw(st.lists(st.integers(0, lam - 1), min_size=npairs, max_size=npairs))
    return Coloring(n, lam, tuple(cols))


def edit_lines(draw, lines):
    """One edit of the pair lines (lines[0] is the header)."""
    body = len(lines) - 1
    kind = draw(st.sampled_from(
        ["swap", "duplicate", "drop", "crlf", "double space", "color", "truncate", "none"]
    ))
    if body == 0 or kind == "none":
        return lines
    k = draw(st.integers(1, body))
    if kind in ("double space", "color") and len(lines[k].split()) < 3:
        return lines  # an earlier truncate left too few words to edit
    if kind == "swap":
        i = draw(st.integers(1, body))
        lines[k], lines[i] = lines[i], lines[k]
    elif kind == "duplicate":
        i = draw(st.integers(1, body))
        if draw(st.booleans()):
            lines.insert(k, lines[i])
        else:
            lines[k] = lines[i]
    elif kind == "drop":
        del lines[k]
    elif kind == "crlf":
        lines = [ln + "\r" for ln in lines]
    elif kind == "truncate":
        lines[k] = " ".join(lines[k].split()[: draw(st.integers(1, 2))])
    elif kind == "double space":
        a, b, col = lines[k].split()[:3]
        lines[k] = draw(st.sampled_from([f"{a}  {b} {col}", f"{a} {b}  {col}"]))
    else:
        a, b = lines[k].split()[:2]
        lam = int(lines[0].split()[1])
        lines[k] = f"{a} {b} {draw(st.integers(lam, lam + 11))}"
    return lines


@st.composite
def coloring_texts(draw):
    lines = write_coloring(draw(colorings())).split("\n")[:-1]
    for _ in range(draw(st.integers(0, 2))):
        lines = edit_lines(draw, lines)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=300, deadline=None)
@given(coloring_texts())
def test_read_coloring_matches_reference(text):
    assert_same_parse(read_coloring, read_coloring_reference, text)


def test_read_coloring_matches_reference_on_fixed_edits():
    text = write_coloring(random_coloring(6, 3, seed=2))
    lines = text.split("\n")
    cases = [
        text,
        text.replace("\n", "\r\n"),
        text.replace(" ", "  "),
        text.replace("0 1 ", "0 1 +"),
        text.replace("0 1 ", "0 1 \t"),
        "\n".join([lines[0], lines[2], lines[1], *lines[3:]]),
        "\n".join([lines[0], *lines[1:3], lines[2], *lines[4:]]),
        "\n".join([lines[0], *lines[2:]]),
        text.replace("1 2 ", "1 2 1_0"),
        text.replace("1 2 ", "1 2 -"),
        text.replace("0 2 ", "0 2 ١"),
        text.replace("0 3 ", "0 3 9"),
        text.replace("0 3 ", "00 3 "),
        text.replace("2 5 ", "5 2 "),
        text.replace("0 1 ", "0 1"),
        "2 2\n0 1 \n",
        "2 2\n1\n",
        "3 3\n0 1 0\n0 2\n1 2 0\n",
        "2 2\n0 1 1 1\n",
        "1 2\n",
        "0 1\n",
        "",
    ]
    for case in cases:
        assert_same_parse(read_coloring, read_coloring_reference, case)


BAD_KEYS = ["00,1", " 0,1", "+1,2", "1_0,2", "١,2", "-1,2", "-0,1", "1,2,3", "1", "0,1 "]


@st.composite
def decided(draw):
    """A coloring and, when decide finds one, its certificate as a JSON
    document: small ones in every mode, and wc ones with 11 or 12 paths."""
    if draw(st.booleans()):
        c = draw(colorings(min_n=14, max_n=16, max_lam=2))
        query = RelationQuery("wc", draw(st.integers(12, 13)), 1)
    else:
        c = draw(colorings(min_n=2, max_n=8))
        m = draw(st.integers(2, c.n))
        mode = draw(st.sampled_from(["wc", "hc", "classical"]))
        j = draw(st.integers(1, m)) if mode == "hc" else None
        query = RelationQuery(mode, m, draw(st.integers(1, c.lam)), j)
    out = decide(c, query)
    return c, json.loads(certificate_to_json(out.certificate)) if out.holds else None


def edit_hc(draw, doc):
    edges = doc["E"]
    kind = draw(st.sampled_from(["mutate", "drop", "bool", "duplicate", "reverse", "none"]))
    if kind == "mutate":
        # The benchmark's mutation: cut a least-degree vertex v down to
        # min(j - 1, |X| - 2) edges.
        degree = {v: sum(v in e for e in edges) for v in doc["X"]}
        v = min(doc["X"], key=lambda x: (degree[x], x))
        drop = [e for e in edges if v in e][max(0, min(doc["j"] - 1, len(doc["X"]) - 2)):]
        doc["E"] = [e for e in edges if e not in drop]
    elif edges and kind != "none":
        k = draw(st.integers(0, len(edges) - 1))
        if kind == "drop":
            del edges[k]
        elif kind == "bool":
            edges[k][draw(st.integers(0, 1))] = True
        elif kind == "duplicate":
            edges.append(list(edges[k]))
        else:
            edges[k].reverse()
    return doc


def edit_wc(draw, doc):
    paths = doc["paths"]
    keys = list(paths)
    kind = draw(st.sampled_from(["mutate", "key", "drop", "bool", "detour", "none"]))
    if kind == "mutate":
        # The benchmark's mutation: the first path whose source a is above
        # 0 detours through a - 1.
        pairs = sorted(tuple(map(int, k.split(","))) for k in keys)
        hit = [p for p in pairs if p[0] > 0]
        if hit:
            a, b = hit[0]
            paths[f"{a},{b}"] = [a, a - 1] + paths[f"{a},{b}"][1:]
    elif kind == "key":
        if keys and draw(st.booleans()):
            del paths[keys[draw(st.integers(0, len(keys) - 1))]]
        paths[draw(st.sampled_from(BAD_KEYS))] = [0, 1]
    elif keys and kind != "none":
        key = keys[draw(st.integers(0, len(keys) - 1))]
        if kind == "drop":
            del paths[key]
        elif kind == "bool":
            paths[key][draw(st.integers(0, len(paths[key]) - 1))] = True
        else:
            paths[key].insert(1, draw(st.integers(-1, doc["n"])))
    return doc


@settings(max_examples=300, deadline=None)
@given(decided(), st.data())
def test_certificate_parse_and_verify_match_reference(found, data):
    c, doc = found
    if doc is None:
        return
    doc = (edit_hc if doc["kind"] == "hc" else edit_wc)(data.draw, doc)
    text = json.dumps(doc, separators=data.draw(st.sampled_from([(",", ":"), (", ", ": ")])))
    cert = assert_same_parse(certificate_from_json, certificate_from_json_reference, text)
    if isinstance(cert, str):
        return
    assert verify_certificate(cert, c) == verify_certificate_reference(cert, c), text


@settings(max_examples=100, deadline=None)
@given(colorings(min_n=14, max_n=16, max_lam=2), st.integers(12, 13), st.data())
def test_full_pair_certificates_verify_as_the_reference_does(c, m, data):
    # Earlier versions wrote a path for every pair of X: 66 or 78 here.
    # Each edit of such a certificate gets the reference's violation.
    out = decide(c, RelationQuery("wc", m, 1))
    if not out.holds:
        return
    X, members = out.certificate.X, out.certificate.palette.members
    doc = json.loads(certificate_to_json(out.certificate))
    doc["paths"] = {
        f"{a},{b}": list(wc_pair_reference(c, a, b, members)) for a, b in combinations(X, 2)
    }
    text = json.dumps(edit_wc(data.draw, doc))
    cert = assert_same_parse(certificate_from_json, certificate_from_json_reference, text)
    if not isinstance(cert, str):
        assert verify_certificate(cert, c) == verify_certificate_reference(cert, c), text


def test_certificate_parse_matches_reference_on_fixed_keys():
    # Each entry is added to no other path, to the 3 paths of a 3-vertex
    # X and to the 66 paths of a 12-vertex X: every paths object goes
    # through the per-key loop, which rejects the first bad key or value.
    few = ", ".join(f'"{a},{b}": [{a}, {b}]' for a, b in ((0, 1), (0, 2), (1, 2)))
    many = ", ".join(f'"{a},{b}": [{a}, {b}]' for a in range(12) for b in range(a + 1, 12))
    entries = [f'"{key}": [0, 1]' for key in BAD_KEYS] + [
        '"0,1": [0, true]',
        '"1,2": [1, 2.0]',
        '"0,1": 7',
        '"0,1": [[0], 1]',
        '"0,1": [0, 2, 1]',  # a duplicate key beside the 66
        '"%s,1": [0, 1]' % ("9" * 5000),
        '"12,13": [12, 13]',
    ]
    head = '{"kind": "wc", "n": 14, "lambda": 1, "X": [0, 1], "Lambda": [0], "paths": '
    cases = [head + "{}}", head + "[]}", head + "{" + few + "}}", head + "{" + many + "}}"]
    for entry in entries:
        cases += [head + "{" + entry + "}}"]
        cases += [head + "{" + paths + ", " + entry + "}}" for paths in (few, many)]
    for case in cases:
        assert_same_parse(certificate_from_json, certificate_from_json_reference, case)


def peak_bytes(fn, arg):
    fn(arg)  # compiled patterns and other one-time state are not counted
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_readers_peak_no_higher_than_reference():
    # The certify benchmark's largest pair: a 96-vertex random coloring and
    # its wc certificate on 92 vertices.
    c = random_coloring(96, 2, seed=1)
    coloring_text = write_coloring(c)
    cert_text = certificate_to_json(decide(c, RelationQuery("wc", 92, 1)).certificate)
    for parse, reference, text in [
        (read_coloring, read_coloring_reference, coloring_text),
        (certificate_from_json, certificate_from_json_reference, cert_text),
    ]:
        assert parse(text) == reference(text)
        assert peak_bytes(parse, text) <= peak_bytes(reference, text), parse.__name__


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), json_values, max_size=5))
def test_shared_encoder_writes_what_json_dumps_writes(doc):
    want = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert encode_json(doc) == want
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(doc)
    assert out.getvalue() == want + "\n"


@settings(max_examples=100, deadline=None)
@given(decided())
def test_certificate_to_json_writes_what_json_dumps_writes(found):
    c, doc = found
    if doc is None:
        return
    cert = certificate_from_json(json.dumps(doc))
    assert certificate_to_json(cert) == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_certificate_from_json_keeps_its_rejections():
    doc = '{"kind": "wc", "n": 2, "lambda": 1, "X": [0, 1], "Lambda": [0], "paths": {"0,1": [0, 1]}}'
    assert outcome(certificate_from_json, "\ufeff" + doc) == (
        "FormatError: certificate is not valid JSON: "
        "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    )
    assert outcome(certificate_from_json, doc.replace('"n": 2', '"n": 2, "n": 2')) == (
        "FormatError: duplicate key 'n' in certificate"
    )
    assert outcome(certificate_from_json, doc.replace('[0, 1]}', '[0, 1], "0,1": [0, 1]}')) == (
        "FormatError: duplicate key '0,1' in certificate"
    )
    for text in ("\ufeff" + doc, doc.replace('"n": 2', '"n": 2, "n": 2')):
        assert outcome(certificate_from_json, text) == outcome(certificate_from_json_reference, text)


KEPT_ACROSS_SIZES = """
import gc, tracemalloc
from connramsey import read_coloring, write_coloring
from connramsey.generators import random_coloring
from oracles import read_coloring_reference

texts = [write_coloring(random_coloring(n, 2, seed=n)) for n in (14, 16, 17, 32, 64, 96)]
wants = [read_coloring_reference(text) for text in texts]
gc.collect()
tracemalloc.start()
for _ in range(3):
    for text, want in zip(texts, wants):
        assert read_coloring(text) == want
gc.collect()
kept = tracemalloc.get_traced_memory()[0]
one = read_coloring(texts[-1])
assert one == wants[-1]
print(kept, tracemalloc.get_traced_memory()[0] - kept)
"""


def test_reader_keeps_less_than_one_coloring_across_sizes():
    # The certify benchmark's coloring sizes, read round robin: the reader
    # may keep what it reuses, but never as much as one parsed 96-vertex
    # coloring.  A fresh interpreter, so that nothing read by an earlier
    # test is kept already.
    src = Path(connramsey.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    done = subprocess.run(
        [sys.executable, "-c", KEPT_ACROSS_SIZES], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    kept, coloring_bytes = map(int, done.stdout.split())
    assert kept < coloring_bytes
