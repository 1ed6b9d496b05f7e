"""The inventory of the engine's failures: every ``EngineError(...)`` and
``NotQRacahError(...)`` in ``tdq/engine.py``, by the function that raises it,
its reason code and its message, with the test whose input reaches it.  A
failure that no input reaches is a check that cannot fail, and is deleted
rather than listed.  A change that adds, drops or rewords a failure edits
this inventory in the same diff."""

import ast
import re
from pathlib import Path

import pytest

from tdq import engine
from tdq.engine import EngineError
from tdq.linalg import Matrix
from tdq.scalars import rational_field

from test_cli import SRC

QF = rational_field()

TESTS = Path(__file__).resolve().parent
ENGINE = Path(SRC) / "tdq" / "engine.py"
ERRORS = {"EngineError", "NotQRacahError"}

REASONS = {
    ("detect_qracah", "a-system-inconsistent",
     "no (q, a) pair in the working field reproduces the eigenvalue sequence"):
        "test_engine.py::TestDetect::test_d1_roots_without_a_square_ratio_rejected",
    ("_detect_diameter_one", "no-field-root",
     "the quadratic for aq or a/q has no root in the working field"):
        "test_engine.py::TestDetect::test_d1_without_roots_rejected",
    ("_detect_recurrence", "middle-zero",
     "a vanishing interior eigenvalue forces a^2 = -1, "
     "which has no solution in the working field"):
        "test_engine.py::TestDetect::test_vanishing_interior_eigenvalue_rejected",
    ("_detect_recurrence", "recurrence-inconsistent",
     "the three-term recurrence theta_(i-1) + theta_(i+1) = "
     "(q^2 + q^-2) theta_i has no consistent solution"):
        "test_engine.py::TestDetect::test_inconsistent_recurrence_rejected",
    ("_detect_recurrence", "q4-forced", "q^4 = 1 forced (q^2 + q^-2 = +/-2)"):
        "test_engine.py::TestDetect::test_arithmetic_progression_rejected",
    ("_detect_recurrence", "no-field-root",
     "the quadratic for q^2 has no root in the working field"):
        "test_engine.py::TestDetect::test_irrational_q_rejected",
    ("_detect_recurrence", "no-field-root",
     "q^2 lies in the working field but q itself does not"):
        "test_engine.py::TestDetect::test_q_outside_the_field_rejected",
    ("_eigenvalues", "not-diagonalizable",
     "minimal polynomial does not split over the working field"):
        "test_engine.py::TestValidateAxioms::test_non_split_spectrum_inconclusive",
    ("_eigenvalues", "not-diagonalizable", "eigenspaces do not span the whole space"):
        "test_engine.py::TestFailureReasons::test_jordan_block_not_diagonalizable",
    ("split_from_pair", "diameter-mismatch", "eigenspace counts differ: {d + 1} vs {delta + 1}"):
        "test_engine.py::TestFailureReasons::test_eigenspace_counts_differ",
    ("split_from_pair", "diameter-zero", "need at least two distinct eigenvalues"):
        "test_engine.py::TestFailureReasons::test_one_eigenvalue_each",
    ("split_from_pair", "no-standard-ordering",
     "the dual operator does not act tridiagonally on any ordering of the eigenspaces"):
        "test_dual_pair.py::test_perturbed_split_sequence_fails",
    ("split_from_pair", "parameter-mismatch",
     "supplied parameters do not match the eigenvalues"):
        "test_engine.py::TestFailureReasons::test_pair_with_another_a",
    ("split_from_pair", "no-standard-ordering",
     "the first operator does not act tridiagonally on any ordering of the dual eigenspaces"):
        "test_engine.py::TestFailureReasons::"
        "test_first_operator_not_tridiagonal_on_the_dual_eigenspaces",
    ("split_from_pair", "dual-parameter-failure",
     "no b in the working field matches the dual eigenvalues"):
        "test_engine.py::TestFailureReasons::test_pair_with_another_b",
    ("_split", "split-failure", "the first split sequence is not a decomposition"):
        "test_engine.py::TestSplitChecks::test_first_sequence_not_direct",
    ("_split", "split-failure", "the second split sequence is not a decomposition"):
        "test_engine.py::TestSplitChecks::test_second_sequence_not_direct",
    ("split_from_AK", "spectrum-mismatch", "K is not diagonalizable with eigenvalues q^(d-2i)"):
        "test_engine.py::TestSplits::test_wrong_spectrum_rejected",
    ("split_from_AK", "split-action",
     "A does not act as a block lower bidiagonal raising operator on the K-eigenspace ordering"):
        "test_engine.py::TestSplits::test_split_action_violation_rejected",
    ("split_from_AK", "parameter-mismatch",
     "extracted eigenvalues do not match the supplied parameters"):
        "test_engine.py::TestFailureReasons::test_ak_with_another_a",
    ("split_from_AK", "eigenvalues-not-distinct",
     "A has a repeated eigenvalue on the K-eigenspaces"):
        "test_cli.py::test_repeated_block_eigenvalue_exit_1",
    ("split_from_AK", "parameter-detection",
     "no a in the working field fits the eigenvalues of A for the q of the K spectrum"):
        "test_cli.py::test_no_a_for_the_k_spectrum_exit_1",
    ("_k_spectrum_candidates", "diameter-zero", "K must have at least two eigenvalues"):
        "test_engine.py::TestFailureReasons::test_k_with_one_eigenvalue",
    ("_k_spectrum_candidates", "spectrum-mismatch",
     "the K spectrum is not a geometric chain q^d, ..., q^-d"):
        "test_cli.py::test_uncentred_k_spectrum_exit_1",
    ("psi_from_KB", "singular-operator", "K and B must be invertible"):
        "test_engine.py::TestFailureReasons::test_singular_k",
    ("quotient", "singular-denominator", "denominator of the {label} expression is singular"):
        "test_engine.py::TestFailureReasons::test_singular_denominator",
    ("delta_from_characterization", "delta-characterization",
     "the split sequences are not direct decompositions with equal flags"):
        "test_engine.py::TestDeltaCharacterization::test_swapped_udd_spaces_rejected",
    ("_attach_astar", "diameter-mismatch", "the dual operator has the wrong number of eigenspaces"):
        "test_engine.py::TestFailureReasons::test_dual_with_one_eigenvalue",
    ("_attach_astar", "split-failure", "the dual eigenspaces do not refine the split flags"):
        "test_engine.py::TestFailureReasons::test_dual_eigenspaces_off_the_split_flags",
    ("_attach_astar", "dual-parameter-failure",
     "no b in the working field matches the dual eigenvalues"):
        "test_engine.py::TestFailureReasons::test_dual_eigenvalues_fit_no_b",
    ("_attach_astar", "dual-parameter-failure", "supplied b does not match the dual eigenvalues"):
        "test_engine.py::TestFailureReasons::test_dual_with_another_b",
    ("downarrow", "downarrow-mismatch", "the halfway decomposition moved"):
        "test_engine.py::TestFailureReasons::test_downarrow_of_a_claimed_halfway_decomposition",
    ("downarrow", "downarrow-mismatch", "the split decompositions did not swap"):
        "test_engine.py::TestFailureReasons::test_downarrow_of_a_claimed_split",
}


def _text(node):
    """A string literal, or an f-string with ``{expression}`` for each field."""
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(part.value if isinstance(part, ast.Constant)
                   else "{" + ast.unparse(part.value) + "}" for part in node.values)


def _raises(path):
    """(function, reason, message) for each EngineError or NotQRacahError
    built in the module, in source order."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) in ERRORS:
                found.append((function, *(_text(arg) for arg in child.args)))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(ast.parse(path.read_text()), None)
    return found


def _test_ids():
    """``file::test`` and ``file::Class::test`` for every test function."""
    ids = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                ids.add(f"{path.name}::{node.name}")
            elif isinstance(node, ast.ClassDef):
                ids.update(f"{path.name}::{node.name}::{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef))
    return ids


def inventoried(exc):
    """True when an EngineError raised in ``engine.py`` matches an entry by
    the function that raised it, its reason code and its message, where a
    ``{expression}`` of the entry's message stands for any text."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    function = tb.tb_frame.f_code.co_name
    return any((function, exc.reason) == (f, reason) and re.fullmatch(
        ".+".join(map(re.escape, re.split(r"\{[^}]*\}", message))), str(exc))
        for f, reason, message in REASONS)


def test_every_failure_is_in_the_inventory():
    assert sorted(_raises(ENGINE)) == sorted(REASONS)


def test_each_entry_names_a_test_that_reaches_it():
    ids = _test_ids()
    for key, where in REASONS.items():
        assert where in ids, (key, where)


def test_a_raised_failure_is_matched_by_its_entry():
    # its entry's message is "eigenspace counts differ: {d + 1} vs {delta + 1}"
    A, Astar = (Matrix.diagonal(QF, [QF.coerce(v) for v in values])
                for values in ((1, 1, 2), (1, 2, 3)))
    with pytest.raises(EngineError) as err:
        engine.split_from_pair(A, Astar)
    assert str(err.value) == "eigenspace counts differ: 2 vs 3" and inventoried(err.value)
    err.value.reason = "another-reason"
    assert not inventoried(err.value)


def test_an_extra_failure_is_caught(tmp_path):
    source = ENGINE.read_text()
    check = "    if not is_direct_decomposition(Udd):\n"
    assert source.count(check) == 1
    copy = tmp_path / "engine.py"
    for extra in ('EngineError("split-failure", "the first split sequence is not a '
                  'decomposition")', 'NotQRacahError("extra", "one failure more")'):
        copy.write_text(source.replace(check, f"    if d < 0:\n        raise {extra}\n{check}"))
        found = _raises(copy)
        assert len(found) == len(REASONS) + 1 and sorted(found) != sorted(REASONS)
