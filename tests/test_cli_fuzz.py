"""Fuzz `tdq verify`, `tdq engine` and `tdq generate` in process: every input
must end in exit code 0, 1 or 2, and nothing but SystemExit may escape the
command."""

import copy
import json
import os
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from tdq.cli import main
from tdq.engine import OPERATOR_NAMES, derive_suite
from tdq.fixtures import fixture_from_leonard, fixture_from_suite
from tdq.leonard import leonard_suite
from tdq.params import QRacahParams
from tdq.scalars import rational_field

QF = rational_field()
_LEONARD = leonard_suite(QRacahParams(2, QF.coerce(2), QF.coerce(3), QF.coerce(5)), "u")
# what `generate` writes, and what `engine` writes (subspaces included)
VALID = fixture_from_leonard(_LEONARD).to_dict()
DERIVED = fixture_from_suite(derive_suite(_LEONARD.A, K=_LEONARD.K)).to_dict()


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as path:
        yield path


def run_command(args, what):
    """Run one command; its exit code, which must be 0, 1 or 2."""
    result = CliRunner().invoke(main, args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise AssertionError(f"{args[0]} raised on {what!r}") from result.exception
    assert result.exit_code in (0, 1, 2), (args[0], what, result.output)
    return result.exit_code


def run_both(workdir, doc):
    """Write the document, then run verify and engine on it."""
    fix = os.path.join(workdir, "fix.json")
    with open(fix, "w", encoding="utf-8") as handle:
        handle.write(doc if isinstance(doc, str) else json.dumps(doc))
    return [run_command(args, doc) for args in (
        ["verify", fix], ["engine", fix, "--out", os.path.join(workdir, "out.json")])]


FUZZ = settings(max_examples=350, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)


def mostly(good, bad):
    """good four times in five, else bad."""
    return st.integers(0, 4).flatmap(lambda k: bad if k == 0 else good)


scalar_text = st.text(alphabet="0123456789qab+-*/^() .", max_size=8)
junk = scalar_text | json_values | st.sampled_from(
    ["", "q", "1/0", "0", "2^1000", "-1", float("inf"), float("nan"), -1, 0, 10 ** 6])
scalars = mostly(st.sampled_from(["0", "1", "-1", "2", "1/2", "4", "1/4", "q", "a"])
                 | scalar_text, junk)
names = st.lists(st.sampled_from(["q", "a", "b", "x y", "1", ""]), max_size=3)
field_specs = st.fixed_dictionaries(
    {"backend": mostly(st.sampled_from(["rational", "ratfunc"]), junk)},
    optional={"variables": mostly(names, junk)})
rows = st.lists(st.lists(scalars, max_size=3), max_size=3)


@st.composite
def junk_fixtures(draw):
    """The fixture schema with junk in the scalars, the spec fields and the
    shapes."""
    n = draw(st.integers(1, 3))
    square = st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n)
    operators = draw(st.lists(st.sampled_from(OPERATOR_NAMES + ("extra",)), max_size=4,
                              unique=True))
    doc = {"format": "tdq-fixture/1", "field": draw(field_specs),
           "matrices": {name: draw(mostly(square, rows)) for name in ["A", "K"] + operators}}
    if draw(st.booleans()):
        doc["params"] = draw(st.fixed_dictionaries(
            {}, optional={"d": mostly(st.integers(-1, 3), junk), "q": scalars, "a": scalars,
                          "b": scalars}))
    if draw(st.booleans()):
        doc["basis"] = draw(mostly(st.sampled_from(["u", "udd", "w", "abstract"]), junk))
    if draw(st.booleans()):
        doc["subspaces"] = draw(st.dictionaries(st.text(max_size=3), mostly(rows, junk),
                                                max_size=2))
    for key in ("matrices", "subspaces"):
        if draw(st.integers(0, 9)) == 0:
            doc[key] = draw(junk)
    return doc


def _paths(doc):
    """Every (container, key) in the document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _paths(value)


@st.composite
def mutated_fixtures(draw):
    """The valid d=2 fixture with entries, params, rows or matrices changed
    or dropped."""
    doc = copy.deepcopy(draw(st.sampled_from([VALID, DERIVED])))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["replace", "drop", "scalar", "duplicate"]))
        if action == "drop":
            del container[key]
        elif action == "duplicate" and isinstance(container, list):
            container.append(copy.deepcopy(container[key]))
        elif action == "scalar":
            container[key] = draw(st.sampled_from(["0", "1", "-1", "7/11", "2", "1/2", "q"]))
        else:
            container[key] = draw(junk)
    return doc


@FUZZ
@given(st.one_of(json_values, st.text(max_size=20)))
def test_arbitrary_documents(workdir, doc):
    run_both(workdir, doc if isinstance(doc, str) else json.dumps(doc))


@FUZZ
@given(junk_fixtures())
def test_fixtures_with_junk_scalars(workdir, doc):
    run_both(workdir, doc)


@FUZZ
@given(mutated_fixtures())
def test_mutated_valid_fixture(workdir, doc):
    run_both(workdir, doc)


# at most five characters, so a symbolic power stays small enough to expand
literals = mostly(st.sampled_from(["0", "1", "-1", "2", "3", "1/2", "-2/3", "q", "a", "q^2",
                                   "a/q", "q+1"]),
                  st.text(alphabet="0123456789qab+-*/^() .", max_size=5) | st.text(max_size=5))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d=st.integers(1, 3), backend=st.sampled_from(["rational", "ratfunc"]), q=literals,
       a=literals, b=st.none() | literals)
def test_generate_arbitrary_parameters(workdir, d, backend, q, a, b):
    args = ["generate", "--d", str(d), "--backend", backend, "--q", q, "--a", a,
            "--out", os.path.join(workdir, "gen.json")] + (["--b", b] if b is not None else [])
    run_command(args, args)


@pytest.mark.parametrize("doc", [VALID, DERIVED], ids=["generated", "derived"])
def test_valid_fixtures_pass(workdir, doc):
    assert run_both(workdir, doc) == [0, 0]
