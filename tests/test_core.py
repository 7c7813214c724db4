"""Data model: colorings, canonicalization, palettes, file formats."""

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from connramsey import (
    Coloring,
    DecisionOutcome,
    FormatError,
    HcCertificate,
    Palette,
    RelationQuery,
    ThresholdResult,
    WcCertificate,
    certificate_from_json,
    certificate_to_json,
    make_coloring,
    read_coloring,
    write_coloring,
)
from connramsey.core import pair_index
from connramsey.generators import random_coloring
from connramsey.ordinals import (
    ClubInterval,
    CnfOrdinal,
    CsystemReport,
    check_csystem_axioms,
    club_interval,
    omega_power,
)
from oracles import canonical_color_form, color, permute_colors


@st.composite
def colorings(draw, max_n=7, max_lam=4):
    n = draw(st.integers(min_value=0, max_value=max_n))
    lam = draw(st.integers(min_value=1, max_value=max_lam))
    npairs = n * (n - 1) // 2
    cols = draw(st.lists(st.integers(0, lam - 1), min_size=npairs, max_size=npairs))
    return Coloring(n, lam, tuple(cols))


def test_pair_index_lexicographic():
    n = 6
    seen = [pair_index(n, a, b) for a in range(n) for b in range(a + 1, n)]
    assert seen == list(range(n * (n - 1) // 2))


def test_make_coloring_single_edge():
    c = make_coloring(2, 2, [(0, 1, 1)])
    assert color(c, 0, 1) == 1
    assert color(c, 1, 0) == 1  # symmetry is structural


def test_make_coloring_constant_case():
    c = make_coloring(3, 1, [(0, 1, 0), (0, 2, 0), (1, 2, 0)])
    assert c.colors == (0, 0, 0)


def test_make_coloring_missing_pair():
    with pytest.raises(ValueError, match=r"missing pair \(1, 2\)"):
        make_coloring(3, 2, [(0, 1, 0), (0, 2, 1)])


def test_make_coloring_duplicate_pair():
    with pytest.raises(ValueError, match="duplicate"):
        make_coloring(2, 2, [(0, 1, 0), (1, 0, 1)])


def test_make_coloring_color_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        make_coloring(2, 2, [(0, 1, 2)])


def test_make_coloring_degenerate_pair():
    with pytest.raises(ValueError, match="degenerate"):
        make_coloring(2, 2, [(1, 1, 0)])


def test_permute_identity_and_swap():
    c = make_coloring(2, 2, [(0, 1, 0)])
    assert permute_colors(c, (0, 1)) == c
    assert color(permute_colors(c, (1, 0)), 0, 1) == 1


def test_permute_rejects_non_bijection():
    c = make_coloring(2, 2, [(0, 1, 0)])
    with pytest.raises(ValueError, match="bijection"):
        permute_colors(c, (0, 0))


def test_canonical_constant_relabels_to_zero():
    c = Coloring(3, 4, (3, 3, 3))
    assert canonical_color_form(c).colors == (0, 0, 0)


def test_canonical_idempotent_on_sample():
    c = random_coloring(6, 4, seed=5)
    canon = canonical_color_form(c)
    assert canonical_color_form(canon) == canon


@pytest.mark.parametrize("n,lam", [(3, 2), (4, 3), (5, 4)])
def test_canonical_constant_on_orbits(n, lam):
    # exhaustive over every color permutation of seeded colorings
    for seed in range(6):
        c = random_coloring(n, lam, seed=seed)
        canon = canonical_color_form(c)
        for perm in permutations(range(lam)):
            assert canonical_color_form(permute_colors(c, perm)) == canon


@given(colorings())
def test_canonical_idempotent(c):
    canon = canonical_color_form(c)
    assert canonical_color_form(canon) == canon


@given(colorings(max_n=6, max_lam=3), st.randoms(use_true_random=False))
def test_canonical_orbit_invariance(c, rng):
    perm = list(range(c.lam))
    rng.shuffle(perm)
    assert canonical_color_form(permute_colors(c, perm)) == canonical_color_form(c)


def test_read_coloring_example():
    c = read_coloring("2 2\n0 1 1\n")
    assert (c.n, c.lam, c.colors) == (2, 2, (1,))


@given(colorings())
def test_write_read_round_trip(c):
    assert read_coloring(write_coloring(c)) == c


def test_read_write_identity_on_canonical_file():
    text = "3 2\n0 1 0\n0 2 1\n1 2 0\n"
    assert write_coloring(read_coloring(text)) == text


def test_read_coloring_missing_pairs():
    with pytest.raises(FormatError, match="expected 3 pair lines"):
        read_coloring("3 2\n0 1 0\n")


def test_read_coloring_malformed_header():
    with pytest.raises(FormatError, match="header"):
        read_coloring("3\n")
    with pytest.raises(FormatError, match="header"):
        read_coloring("x y\n")


def test_read_coloring_bad_values():
    with pytest.raises(FormatError):
        read_coloring("2 2\n0 1 5\n")
    with pytest.raises(FormatError, match="a < b"):
        read_coloring("2 2\n1 0 1\n")


def test_relation_query_validation():
    q = RelationQuery("hc", 4, 1)
    assert q.j == 4  # defaults to m
    assert RelationQuery("classical", 2, 1).j is None
    with pytest.raises(ValueError, match=r"^unknown mode 'nope'$"):
        RelationQuery("nope", 2, 1)
    with pytest.raises(ValueError, match=r"^need m >= 2$"):
        RelationQuery("wc", 1, 1)
    with pytest.raises(ValueError, match=r"^need kappa >= 1$"):
        RelationQuery("wc", 2, 0)
    for j in (0, 4):
        with pytest.raises(ValueError, match=r"^need 1 <= j <= m$"):
            RelationQuery("hc", 3, 1, j=j)
    with pytest.raises(ValueError, match=r"^j applies to hc mode only$"):
        RelationQuery("wc", 3, 1, j=2)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Coloring(-1, 1, ()), "vertex count must be >= 0, got -1"),
        (lambda: Coloring(2, 0, (0,)), "color count must be >= 1, got 0"),
        (lambda: Coloring(2, 2, ()), "expected 1 pair colors for n=2, got 0"),
        (lambda: Coloring(3, 2, (0, 2, 1)), "color 2 out of range 0..1"),
        (lambda: Coloring(3, 2, (0, -1, 1)), "color -1 out of range 0..1"),
        (lambda: Palette([0, -1]), "negative color -1"),
        (lambda: CnfOrdinal(((1, 1), (-1, 1))), "negative exponent -1"),
        (lambda: CnfOrdinal(((1, 0),)), "coefficient 0 must be >= 1"),
        (lambda: CnfOrdinal(((1, 1), (1, 2))), "exponents must be strictly descending"),
    ],
)
def test_coloring_and_palette_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


PAL = Palette(frozenset({0}))

# (record built twice by value, one that differs in a field, its repr)
RECORDS = [
    (
        lambda: Coloring(2, 1, (0,)),
        Coloring(2, 2, (1,)),
        "Coloring(n=2, lam=1, colors=(0,))",
    ),
    (
        lambda: Palette([1, 0]),
        Palette([1]),
        "Palette(members=frozenset({0, 1}))",
    ),
    (
        lambda: RelationQuery("hc", 4, 1),
        RelationQuery("hc", 4, 1, j=3),
        "RelationQuery(mode='hc', m=4, kappa=1, j=4)",
    ),
    (
        lambda: WcCertificate(2, 1, (0, 1), PAL, {(0, 1): (0, 1)}),
        WcCertificate(2, 1, (0, 1), PAL, {}),
        "WcCertificate(n=2, lam=1, X=(0, 1), palette=Palette(members=frozenset({0})), "
        "paths={(0, 1): (0, 1)})",
    ),
    (
        lambda: HcCertificate(2, 1, (0, 1), PAL, frozenset({(0, 1)}), 1),
        HcCertificate(2, 1, (0, 1), PAL, frozenset(), 1),
        "HcCertificate(n=2, lam=1, X=(0, 1), palette=Palette(members=frozenset({0})), "
        "E=frozenset({(0, 1)}), j=1)",
    ),
    (
        lambda: DecisionOutcome(None, ((0,),)),
        DecisionOutcome(None, ((1,),)),
        "DecisionOutcome(certificate=None, exhausted_palettes=((0,),))",
    ),
    (
        lambda: ThresholdResult(3, Coloring(2, 1, (0,))),
        ThresholdResult(None, Coloring(2, 1, (0,))),
        "ThresholdResult(threshold=3, extremal=Coloring(n=2, lam=1, colors=(0,)))",
    ),
    (
        lambda: CnfOrdinal(((2, 1), (1, 3))),
        CnfOrdinal(((2, 1),)),
        "CnfOrdinal(terms=((2, 1), (1, 3)))",
    ),
    (
        lambda: club_interval(omega_power(2), 2),
        ClubInterval(CnfOrdinal(), omega_power(2), 3),
        "ClubInterval(left=CnfOrdinal(terms=()), top=CnfOrdinal(terms=((2, 1),)), index=2)",
    ),
    (
        lambda: check_csystem_axioms(2, 4),
        CsystemReport(2, 4, 4, 4, 6, "covering fails"),
        "CsystemReport(d=2, coeff_max=4, limits_checked=4, clubs_checked=4, pairs_checked=6, "
        "first_violation=None)",
    ),
]


@pytest.mark.parametrize("make, other, text", RECORDS, ids=[text.split("(")[0] for _, _, text in RECORDS])
def test_record_semantics(make, other, text):
    record = make()
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    assert not hasattr(record, "__dict__")
    assert record == make() and record != other
    if isinstance(record, WcCertificate):
        with pytest.raises(TypeError, match="unhashable"):  # paths is a dict
            hash(record)
    else:
        assert hash(record) == hash(make())
    assert repr(record) == text
    # A record is a tuple of its fields, as the core docstring says.
    assert record == tuple(getattr(record, f) for f in type(record)._fields)


def test_record_constructors_normalise():
    assert Palette([1, 0]).members == frozenset({0, 1})
    assert RelationQuery(mode="wc", m=3, kappa=1) == RelationQuery("wc", 3, 1, None)
    assert CnfOrdinal([[2, 1], [0, 4]]).terms == ((2, 1), (0, 4))


def test_certificate_json_round_trip_wc():
    cert = WcCertificate(
        4, 2, (0, 1, 2), Palette(frozenset({0})), {(0, 1): (0, 2, 1), (0, 2): (0, 2), (1, 2): (1, 2)}
    )
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert certificate_to_json(back) == text
    assert back.X == cert.X
    assert back.paths == cert.paths
    assert back.palette.members == cert.palette.members


def test_certificate_json_round_trip_hc():
    cert = HcCertificate(4, 2, (0, 1, 3), Palette(frozenset({1})), frozenset({(0, 1), (1, 3)}), 1)
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert certificate_to_json(back) == text
    assert back.E == cert.E
    assert back.j == 1


def test_certificate_json_rejects_garbage():
    with pytest.raises(FormatError, match="JSON"):
        certificate_from_json("{nope")
    with pytest.raises(FormatError, match="kind"):
        certificate_from_json('{"kind": "xx"}')
    with pytest.raises(FormatError, match="paths"):
        certificate_from_json('{"kind": "wc", "n": 2, "lambda": 1, "X": [0, 1], "Lambda": [0]}')


def test_certificate_json_rejects_colliding_path_keys():
    head = '{"kind": "wc", "n": 3, "lambda": 1, "X": [0, 1], "Lambda": [0], "paths": '
    for paths in (
        '{"0,1": [0, 1], "00,1": [0, 2, 1]}',  # two spellings of one pair
        '{"0, 1": [0, 1]}',
        '{"+0,1": [0, 1]}',
    ):
        with pytest.raises(FormatError, match="path key"):
            certificate_from_json(head + paths + "}")
    with pytest.raises(FormatError, match="duplicate key"):
        certificate_from_json(head + '{"0,1": [0, 1], "0,1": [0, 2, 1]}}')


def test_certificate_json_rejects_duplicate_edges():
    doc = '{"kind": "hc", "n": 2, "lambda": 1, "X": [0, 1], "Lambda": [0], "j": 1, "E": %s}'
    with pytest.raises(FormatError, match="duplicate edge"):
        certificate_from_json(doc % "[[0, 1], [0, 1]]")
    assert certificate_from_json(doc % "[[0, 1]]").E == frozenset({(0, 1)})
