import json

import pytest

from tdq import engine, fixtures, leonard
from tdq.fixtures import (
    FixtureFormatError,
    fixture_from_leonard,
    fixture_from_suite,
    parse_fixture,
    read_fixture,
    write_fixture,
    write_json,
)
from tdq.params import QRacahParams
from tdq.scalars import rational_field, ratfunc_field

from conftest import make_params

QF = rational_field()


def leonard_fixture(d=1):
    p = make_params(QF, d=d)
    return fixture_from_leonard(leonard.leonard_suite(p, "u"))


def test_round_trip_equality(tmp_path):
    fixture = leonard_fixture()
    path = tmp_path / "f.json"
    write_fixture(str(path), fixture)
    loaded = read_fixture(str(path))
    assert loaded.matrices == fixture.matrices
    assert loaded.params == fixture.params
    assert loaded.basis == fixture.basis
    assert loaded.field == fixture.field


def test_suite_fixture_includes_subspaces(tmp_path):
    p = make_params(QF, d=1)
    ls = leonard.leonard_suite(p, "u")
    suite = engine.derive_suite(ls.A, K=ls.K, params=p)
    fixture = fixture_from_suite(suite)
    assert fixture.basis == "abstract"
    assert set(fixture.subspaces) == {"U0", "U1", "Udd0", "Udd1", "W0", "W1"}
    path = tmp_path / "s.json"
    write_fixture(str(path), fixture)
    loaded = read_fixture(str(path))
    assert loaded.subspaces == fixture.subspaces


def test_deterministic_serialization(tmp_path):
    fixture = leonard_fixture(d=2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_fixture(str(p1), fixture)
    write_fixture(str(p2), fixture)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("format"),
    lambda d: d.update(format="tdq-fixture/9"),
    lambda d: d.pop("field"),
    lambda d: d.update(basis="z"),
    lambda d: d["matrices"].update(A=[["1", "2"], ["3"]]),
    lambda d: d["matrices"].update(A=[["1", "nope ("], ["3", "4"]]),
    lambda d: d["params"].update(q="0"),
])
def test_malformed_documents_rejected(mangle):
    doc = leonard_fixture().to_dict()
    mangle(doc)
    with pytest.raises((FixtureFormatError, ValueError)):
        parse_fixture(doc)


@pytest.mark.parametrize("mangle", [
    lambda d: d["field"].update(backend="ratfunc", variables=5),
    lambda d: d["field"].update(backend="ratfunc", variables=["q", 1]),
    lambda d: d["field"].update(backend="ratfunc", variables=[{}]),
    lambda d: d["field"].update(backend="ratfunc", variables=["x y", "1"]),
    lambda d: d.update(matrices=["A"]),
    lambda d: d.update(subspaces="U0"),
    lambda d: d.update(subspaces={"U0": [["1", "0"], ["1"]]}),
    lambda d: d.update(subspaces={"U0": [5]}),
    lambda d: d["params"].update(d=float("inf")),
    lambda d: d["params"].update(d=1.9),
    lambda d: d["params"].update(d=True),
    lambda d: d["params"].update(d="1"),
], ids=["variables-int", "variables-mixed", "variables-dict", "variables-not-names",
        "matrices-list", "subspaces-string", "subspace-ragged", "subspace-row-int", "d-inf",
        "d-float", "d-bool", "d-string"])
def test_malformed_sections_are_format_errors(mangle):
    # each of these raised TypeError, AttributeError, OverflowError or a bare
    # ValueError from deeper code, which the CLI reported with a traceback
    doc = leonard_fixture().to_dict()
    mangle(doc)
    with pytest.raises(FixtureFormatError):
        parse_fixture(doc)


def test_scalars_serialized_as_grammar_strings():
    doc = leonard_fixture().to_dict()
    payload = json.dumps(doc)
    for row in doc["matrices"]["M"]:
        for entry in row:
            assert isinstance(entry, str)
    assert "3/4" in payload


def test_failed_write_leaves_no_temporary_file(tmp_path):
    # the temporary file is written, then cannot replace a directory
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(FixtureFormatError, match=f"cannot write {target}: "):
        write_json(str(target), {"x": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def _literals(doc):
    """Every scalar literal of a fixture document, in reading order."""
    texts = [x for rows in doc["matrices"].values() for row in rows for x in row]
    return texts + [doc["params"][k] for k in ("q", "a", "b") if k in doc["params"]]


@pytest.mark.parametrize("backend", ["rational", "ratfunc"])
def test_each_distinct_literal_parsed_once(tmp_path, monkeypatch, backend):
    if backend == "rational":
        fixture = leonard_fixture(d=3)
    else:
        RF = ratfunc_field(("q", "a"))
        params = QRacahParams(2, RF.generator("q"), RF.generator("a"))
        fixture = fixture_from_leonard(leonard.leonard_suite(params, "u"))
    path = tmp_path / "f.json"
    write_fixture(str(path), fixture)
    texts = _literals(json.loads(path.read_text()))
    parsed = []
    original = fixtures.parse_scalar

    def counted(text, field):
        parsed.append(text)
        return original(text, field)
    monkeypatch.setattr(fixtures, "parse_scalar", counted)
    loaded = read_fixture(str(path))
    assert sorted(parsed) == sorted(set(texts)) and len(parsed) < len(texts)
    assert loaded.matrices == fixture.matrices and loaded.params == fixture.params


@pytest.mark.parametrize("entry", [["1"], 5, None, {"x": "1"}],
                         ids=["list", "number", "null", "object"])
def test_non_string_entries_rejected(entry):
    # the type is checked before the parsed literals are looked up, so an
    # unhashable entry is a format error too
    doc = leonard_fixture().to_dict()
    doc["matrices"]["A"][0][1] = entry
    with pytest.raises(FixtureFormatError, match="scalar entries must be strings"):
        parse_fixture(doc)
