import json
import warnings

import pytest

from leibniz_algebras.algebra import _derived_space
from leibniz_algebras.catalog import standard_fixtures
from leibniz_algebras.errors import DocumentError
from leibniz_algebras.families import heisenberg, oscillator
from leibniz_algebras.fields import GF, QQ
from leibniz_algebras.serialize import (
    DocumentWarning,
    algebra_to_document,
    parse_algebra,
    serialize_algebra,
)

from conftest import F3, MALFORMED_GF_DOCUMENTS, gf3_document, reference_integer_view


def test_round_trip_fixtures():
    for F in (F3, QQ, GF(5)):
        for L in standard_fixtures(F):
            back = parse_algebra(serialize_algebra(L))
            assert back == L
            assert back.name == L.name
            assert serialize_algebra(back) == serialize_algebra(L)


def test_round_trip_heisenberg_gf3():
    text = serialize_algebra(heisenberg(F3))
    assert parse_algebra(text) == heisenberg(F3)


def test_document_shape():
    doc = algebra_to_document(oscillator(F3))
    assert doc["format_version"] == 1
    assert doc["field"] == {"kind": "gf", "p": 3}
    assert doc["dim"] == 4
    entries = {(e["i"], e["j"]) for e in doc["table"]}
    assert (0, 2) in entries and (2, 0) in entries
    # only nonzero rows are stored
    assert (1, 1) not in entries


def test_composite_modulus_rejected():
    text = json.dumps(
        {"format_version": 1, "field": {"kind": "gf", "p": 4}, "dim": 1, "table": []}
    )
    with pytest.raises(DocumentError) as err:
        parse_algebra(text)
    assert "composite" in str(err.value)


def test_wrong_scalar_syntax_for_field():
    text = json.dumps(
        {
            "format_version": 1,
            "field": {"kind": "gf", "p": 3},
            "dim": 1,
            "table": [{"i": 0, "j": 0, "c": ["1/2"]}],
        }
    )
    with pytest.raises(DocumentError):
        parse_algebra(text)
    text = json.dumps(
        {
            "format_version": 1,
            "field": {"kind": "rationals"},
            "dim": 1,
            "table": [{"i": 0, "j": 0, "c": [1]}],
        }
    )
    with pytest.raises(DocumentError):
        parse_algebra(text)


def test_malformed_documents():
    with pytest.raises(DocumentError):
        parse_algebra("not json")
    with pytest.raises(DocumentError):
        parse_algebra(json.dumps({"format_version": 2, "field": {"kind": "rationals"}, "dim": 0, "table": []}))
    with pytest.raises(DocumentError):
        parse_algebra(
            json.dumps(
                {
                    "format_version": 1,
                    "field": {"kind": "rationals"},
                    "dim": 2,
                    "table": [{"i": 0, "j": 5, "c": ["0", "0"]}],
                }
            )
        )
    with pytest.raises(DocumentError):
        parse_algebra(
            json.dumps(
                {
                    "format_version": 1,
                    "field": {"kind": "rationals"},
                    "dim": 2,
                    "table": [{"i": 0, "j": 0, "c": ["1"]}],
                }
            )
        )
    with pytest.raises(DocumentError):
        parse_algebra(
            json.dumps(
                {
                    "format_version": 1,
                    "field": {"kind": "rationals"},
                    "dim": 1,
                    "table": [{"i": 0, "j": 0, "c": ["1/0"]}],
                }
            )
        )


@pytest.mark.parametrize(
    "text, message",
    [pytest.param(text, message, id=name) for name, text, message in MALFORMED_GF_DOCUMENTS],
)
def test_gf_rejections_name_the_fault(text, message):
    # the exact message of each rule a GF(p) table entry can break, the
    # first bad entry of a document named
    with pytest.raises(DocumentError) as err:
        parse_algebra(text)
    assert str(err.value) == message


def test_unknown_entry_key_warns_when_lenient():
    text = gf3_document([{"i": 0, "j": 1, "c": [1, 2], "k": 0}])
    with pytest.raises(DocumentError, match="^unknown table entry fields: k$"):
        parse_algebra(text)
    with pytest.warns(DocumentWarning, match="^unknown table entry fields: k$"):
        L = parse_algebra(text, strict=False)
    assert L == parse_algebra(gf3_document([{"i": 0, "j": 1, "c": [1, 2]}]))


def test_strict_vs_lenient_unknown_fields():
    doc = {
        "format_version": 1,
        "field": {"kind": "rationals"},
        "dim": 1,
        "table": [],
        "color": "blue",
    }
    text = json.dumps(doc)
    with pytest.raises(DocumentError):
        parse_algebra(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        L = parse_algebra(text, strict=False)
    assert L.dim == 1
    assert any(issubclass(w.category, DocumentWarning) for w in caught)


def test_duplicate_entries_rejected():
    text = json.dumps(
        {
            "format_version": 1,
            "field": {"kind": "rationals"},
            "dim": 1,
            "table": [
                {"i": 0, "j": 0, "c": ["1"]},
                {"i": 0, "j": 0, "c": ["2"]},
            ],
        }
    )
    with pytest.raises(DocumentError):
        parse_algebra(text)


@pytest.mark.parametrize(
    "field, zero, entries",
    [
        ({"kind": "gf", "p": 5}, [0, 0, 0], [[1, 0, 2], [0, 4, 0]]),
        ({"kind": "rationals"}, ["0", "0", "0"], [["1/2", "0", "-3"], ["0", "2/3", "0"]]),
    ],
    ids=["GF(5)", "QQ"],
)
def test_explicit_zero_products(field, zero, entries):
    # a listed zero vector is the same table as no entry: equal, with the
    # same integer view and [L, L], and serialized without that entry
    def document(table):
        return json.dumps({"format_version": 1, "field": field, "dim": 3, "table": table})

    listed = [{"i": 0, "j": 1, "c": entries[0]}, {"i": 2, "j": 2, "c": entries[1]}]
    without = parse_algebra(document(listed))
    for zeros in ([(1, 0)], [(0, 0), (1, 2)]):
        table = listed + [{"i": i, "j": j, "c": zero} for i, j in zeros]
        L = parse_algebra(document(table))
        assert L == without
        assert (L._D, L._Dc, L._products) == (without._D, without._Dc, without._products)
        assert (L._D, L._Dc, L._products) == reference_integer_view(L)
        assert _derived_space(L) == _derived_space(without)
        assert algebra_to_document(L)["table"] == listed
        assert serialize_algebra(L) == serialize_algebra(without)


def test_golden_fixture_files():
    import pathlib

    from leibniz_algebras.catalog import (
        heisenberg_rotation_extension,
        nonideal_codim2_example,
    )
    from leibniz_algebras.families import make_a
    from leibniz_algebras.linalg import Matrix

    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    expected = {
        "nonideal_codim2_gf3.json": nonideal_codim2_example(F3),
        "rotation_extension_gf3.json": heisenberg_rotation_extension(F3),
        "pair_action_id_rot_qq.json": make_a(
            Matrix.identity(QQ, 2), Matrix(QQ, [[0, 1], [-1, 0]]), QQ
        ),
        "oscillator_gf3.json": oscillator(F3),
        "heisenberg_gf3.json": heisenberg(F3),
        "oscillator_qq.json": oscillator(QQ),
    }
    for name, L in expected.items():
        text = (root / name).read_text()
        assert parse_algebra(text) == L
        assert serialize_algebra(L) == text
