"""The tdq-fixture/1 JSON file format.

Scalars serialize as canonical grammar strings, matrices as row-major arrays
of arrays of strings, subspaces as arrays of basis rows.  Writing is
deterministic (sorted keys, stable rendering) and atomic, so regenerating a
fixture yields a byte-identical file.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from .engine import OPERATOR_NAMES, OperatorSuite
from .leonard import BASES, KINDS, LeonardSuite
from .linalg import Matrix, Subspace
from .params import QRacahParams
from .parser import ParseError, parse_scalar
from .scalars import Scalar, get_field

__all__ = [
    "FORMAT_TAG",
    "FixtureFormatError",
    "Fixture",
    "fixture_from_leonard",
    "fixture_from_suite",
    "parse_fixture",
    "read_fixture",
    "write_fixture",
]

FORMAT_TAG = "tdq-fixture/1"


class FixtureFormatError(ValueError):
    """Malformed fixture input (bad JSON, schema, or unparsable scalars), or
    a path that cannot be read or written."""


@dataclass
class Fixture:
    field: object
    basis: str
    params: Optional[QRacahParams]
    matrices: dict[str, Matrix]
    subspaces: dict[str, Subspace] = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        doc: dict = {"format": FORMAT_TAG, "basis": self.basis}
        field_spec: dict = {"backend": self.field.backend}
        if self.field.backend == "ratfunc":
            field_spec["variables"] = list(self.field.variables)
        doc["field"] = field_spec
        if self.params is not None:
            doc["params"] = self.params.render()
        doc["matrices"] = {name: m.render() for name, m in self.matrices.items()}
        if self.subspaces:
            doc["subspaces"] = {name: s.render() for name, s in self.subspaces.items()}
        return doc


def fixture_from_leonard(suite: LeonardSuite) -> Fixture:
    matrices = {kind: getattr(suite, kind) for kind in KINDS + ("A_udd",)}
    for (f, t), m in suite.transitions.items():
        if f != t:
            matrices[f"trans_{f}_{t}"] = m
    return Fixture(field=suite.params.field, basis=suite.basis,
                   params=suite.params, matrices=matrices)


def fixture_from_suite(suite: OperatorSuite) -> Fixture:
    matrices = {name: getattr(suite, name) for name in OPERATOR_NAMES
                if getattr(suite, name) is not None}
    subspaces: dict[str, Subspace] = {}
    for name, spaces in (("U", suite.U), ("Udd", suite.Udd), ("W", suite.W)):
        for i, space in enumerate(spaces):
            subspaces[f"{name}{i}"] = space
    return Fixture(field=suite.params.field, basis="abstract",
                   params=suite.params, matrices=matrices, subspaces=subspaces)


def parse_fixture(doc: dict) -> Fixture:
    if not isinstance(doc, dict):
        raise FixtureFormatError("fixture must be a JSON object")
    if doc.get("format") != FORMAT_TAG:
        raise FixtureFormatError(f"unsupported format tag {doc.get('format')!r}")
    field_spec = doc.get("field")
    if not isinstance(field_spec, dict) or "backend" not in field_spec:
        raise FixtureFormatError("missing or malformed field spec")
    variables = field_spec.get("variables")
    if variables is not None and not (isinstance(variables, list)
                                      and all(isinstance(v, str) for v in variables)):
        raise FixtureFormatError("field variables must be an array of names")
    try:
        field = get_field(field_spec["backend"], variables)
    except ValueError as exc:
        raise FixtureFormatError(str(exc)) from None

    basis = doc.get("basis", "abstract")
    if basis not in BASES + ("abstract",):
        raise FixtureFormatError(f"unknown basis tag {basis!r}")

    parsed: dict[str, Scalar] = {}  # each distinct literal once; scalars are immutable

    def scalar(text):
        if not isinstance(text, str):
            raise FixtureFormatError(f"scalar entries must be strings, got {text!r}")
        value = parsed.get(text)
        if value is None:
            try:
                value = parsed[text] = parse_scalar(text, field)
            except (ParseError, ZeroDivisionError) as exc:
                raise FixtureFormatError(f"bad scalar {text!r}: {exc}") from None
        return value

    def section(key):
        value = doc.get(key) or {}
        if not isinstance(value, dict):
            raise FixtureFormatError(f"{key} must be a JSON object")
        return value.items()

    def table(kind, name, rows):
        if (not isinstance(rows, list) or not rows
                or any(not isinstance(r, list) or len(r) != len(rows[0]) for r in rows)):
            raise FixtureFormatError(f"{kind} {name!r} must be a rectangular array")
        if not rows[0]:
            raise FixtureFormatError(f"{kind} {name!r} must not be empty")
        return [[scalar(x) for x in r] for r in rows]

    matrices: dict[str, Matrix] = {}
    for name, rows in section("matrices"):
        matrices[name] = Matrix.from_rows(field, table("matrix", name, rows))
    n = matrices["A"].rows if "A" in matrices else None
    for name in OPERATOR_NAMES:
        m = matrices.get(name)
        if m is not None and not (m.is_square and m.rows == (n or m.rows)):
            raise FixtureFormatError(f"operator {name!r} is {m.rows}x{m.cols}; operators "
                                     "must be square and the size of A")

    params = None
    if "params" in doc:
        raw = doc["params"]
        if not isinstance(raw, dict) or "d" not in raw:
            raise FixtureFormatError("params must carry at least d, q, a")
        d = raw["d"]
        if type(d) is not int:  # a float, a bool or a string is not a diameter
            raise FixtureFormatError(f"bad params: d must be a JSON integer, got {d!r}")
        try:
            if n is None or d >= n:  # checked first: validation loops over d
                raise ValueError(f"d = {d} needs an n x n matrix A with n > d")
            params = QRacahParams(
                d, scalar(raw["q"]), scalar(raw["a"]),
                scalar(raw["b"]) if "b" in raw else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FixtureFormatError(f"bad params: {exc}") from None

    subspaces: dict[str, Subspace] = {}
    for name, rows in section("subspaces"):
        vectors = table("subspace", name, rows)
        subspaces[name] = Subspace.from_vectors(field, len(vectors[0]), vectors)

    return Fixture(field=field, basis=basis, params=params,
                   matrices=matrices, subspaces=subspaces)


def read_fixture(path: str) -> Fixture:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise FixtureFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FixtureFormatError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise FixtureFormatError(f"JSON in {path} is nested too deeply") from None
    return parse_fixture(doc)


def write_json(path: str, doc: dict) -> None:
    """Deterministic, atomic JSON emission; a path that cannot be written is
    a FixtureFormatError, and no temporary file is left behind."""
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tdq-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        raise FixtureFormatError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_fixture(path: str, fixture: Fixture) -> None:
    write_json(path, fixture.to_dict())
