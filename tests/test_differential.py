"""Symbolic against rational: a suite derived over Q(q, a), specialized at a
rational point, must equal the suite derived over Q at that point, entry by
entry.  This guards any change to the scalar representations or the kernels
they run through."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tdq import engine, leonard
from tdq.linalg import Matrix
from tdq.params import QRacahParams, validate_params
from tdq.scalars import rational_field, ratfunc_field

QF = rational_field()
RF = ratfunc_field(("q", "a"))
OPERATORS = ("A", "K", "B", "psi", "M", "Minv", "Delta", "Deltainv")
CASES = [(d, frame) for d in (1, 2, 3, 4) for frame in leonard.BASES]


def _derive(params, frame):
    ls = leonard.leonard_suite(params, frame)
    return engine.derive_suite(ls.A, K=ls.K, params=params)


@pytest.fixture(scope="module")
def symbolic_suites():
    q, a = RF.generator("q"), RF.generator("a")
    return {(d, frame): _derive(QRacahParams(d, q, a), frame) for d, frame in CASES}


def _mismatch(symbolic, rational, point):
    """The first (operator, row, column) where the specialized symbolic suite
    differs from the rational one, or None."""
    for name in OPERATORS:
        sym, rat = getattr(symbolic, name), getattr(rational, name)
        for k, (x, y) in enumerate(zip(sym.entries, rat.entries)):
            if RF.specialize(x, point) != y:
                return (name, *divmod(k, sym.cols))
    return None


nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


@pytest.mark.parametrize("d,frame", CASES)
@settings(max_examples=12, deadline=None)
@given(q=nonzero, a=nonzero)
def test_specialized_symbolic_suite_matches_rational(symbolic_suites, d, frame, q, a):
    q, a = QF.coerce(q), QF.coerce(a)
    assume(not validate_params(d, q, a))
    rational = _derive(QRacahParams(d, q, a), frame)
    assert _mismatch(symbolic_suites[d, frame], rational, {"q": q, "a": a}) is None


def test_one_perturbed_symbolic_entry_is_caught(symbolic_suites):
    symbolic = symbolic_suites[2, "u"]
    entries = list(symbolic.Delta.entries)
    entries[1] = entries[1] + 1
    perturbed = replace(symbolic, Delta=Matrix(RF, 3, 3, entries))
    q, a = QF.coerce(Fraction(5, 2)), QF.coerce(-3)
    rational = _derive(QRacahParams(2, q, a), "u")
    point = {"q": q, "a": a}
    assert _mismatch(symbolic, rational, point) is None
    assert _mismatch(perturbed, rational, point) == ("Delta", 0, 1)
