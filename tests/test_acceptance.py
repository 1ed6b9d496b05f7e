"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its measured runtime.  All comparisons are exact; no
tolerances apply anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from tdq import engine, leonard
from tdq.battery import verify_battery
from tdq.engine import (
    NotQRacahError,
    delta_from_characterization,
    delta_series_coefficients,
    derive_suite,
    detect_qracah,
    validate_axioms,
)
from tdq.linalg import Matrix, subspace_sum
from tdq.params import QRacahParams, validate_params
from tdq.qcalc import q_exp
from tdq.scalars import rational_field, ratfunc_field

QF = rational_field()

GRID_DS = (1, 2, 3, 4, 5, 6)
GRID_POINTS = (
    (Fraction(2), Fraction(3), Fraction(5)),
    (Fraction(3), Fraction(2), Fraction(7)),
    (Fraction(-2), Fraction(3), Fraction(5)),
    (Fraction(5, 2), Fraction(4, 3), Fraction(7, 5)),
    (Fraction(2), Fraction(1, 5), Fraction(3)),
)

ASTAR_ITEMS = {"dual_eigenflags", "astar_action_splits", "delta_dual_triangular",
               "astar_action_w", "m_action_dual_ev"}


def _announce(criterion: str, started: float):
    print(f"\nACCEPTANCE {criterion}: PASS ({time.time() - started:.1f}s)")


def rational_grid_params():
    out = []
    for d in GRID_DS:
        for (q, a, b) in GRID_POINTS:
            qs, as_, bs = QF.coerce(q), QF.coerce(a), QF.coerce(b)
            if validate_params(d, qs, as_, bs):
                continue  # criterion text: skip invalid combos
            out.append(QRacahParams(d, qs, as_, bs))
    return out


@pytest.fixture(scope="module")
def grid_suites():
    suites = []
    for p in rational_grid_params():
        ls = leonard.leonard_suite(p, "u")
        suites.append((p, ls, derive_suite(ls.A, K=ls.K, params=p)))
    return suites


@pytest.fixture(scope="module")
def symbolic_suites():
    RF = ratfunc_field(("q", "a"))
    q, a = RF.generator("q"), RF.generator("a")
    suites = []
    for d in (1, 2, 3, 4):
        p = QRacahParams(d, q, a)
        ls = leonard.leonard_suite(p, "u")
        suites.append((p, ls, derive_suite(ls.A, K=ls.K, params=p)))
    return suites


def test_criterion_1_rational_battery(grid_suites):
    started = time.time()
    assert len(grid_suites) == 30  # the whole grid is admissible
    for p, _, suite in grid_suites:
        report = verify_battery(suite)
        failures = report.failures()
        assert not failures, (p.d, str(p.q), str(p.a), failures)
        skipped = {e.id for e in report.entries if e.status == "skipped-needs-Astar"}
        assert skipped == ASTAR_ITEMS
    elapsed = time.time() - started
    assert elapsed < 60.0, f"rational battery took {elapsed:.1f}s"
    _announce("1 rational-grid battery", started)


def test_criterion_2_symbolic_battery(symbolic_suites):
    started = time.time()
    for p, _, suite in symbolic_suites:
        report = verify_battery(suite)
        assert not report.failures(), (p.d, report.failures())
    elapsed = time.time() - started
    assert elapsed < 300.0, f"symbolic battery took {elapsed:.1f}s"
    _announce("2 symbolic battery (generic q, a; d <= 4)", started)


def test_criterion_3_closed_form_lemmas(grid_suites):
    started = time.time()
    # every (kind, basis) closed form against its constructive route, plus
    # the transition table, on every grid instance; a mismatch raises
    for p, _, _ in grid_suites:
        for basis in leonard.BASES:
            leonard.leonard_suite(p, basis)
    # pinned spot values at d=1, q=2, a=3
    p = QRacahParams(1, QF.coerce(2), QF.coerce(3), QF.coerce(5))
    assert leonard.operator_matrix("M", "u", p).render() == [["2", "3/4"], ["0", "1/2"]]
    assert leonard.operator_matrix("B", "u", p).render() == [["2", "-6"], ["0", "1/2"]]
    assert leonard.operator_matrix("Delta", "u", p).render() == [["1", "4"], ["0", "1"]]
    assert leonard.operator_matrix("A", "w", p).render() == [["20/3", "-9/4"], ["1", "5/3"]]
    _announce("3 closed-form matrix lemmas", started)


def test_criterion_4_three_route_delta(grid_suites, symbolic_suites):
    started = time.time()
    for _, _, suite in list(grid_suites) + list(symbolic_suites):
        field = suite.field
        series = Matrix.zero(field, suite.n)
        for c, power in zip(delta_series_coefficients(suite.d, suite.q, suite.a),
                            suite.psi_series.powers):
            series = series + c * power
        coeff = suite.q - suite.q ** -1
        product = (q_exp((suite.a / coeff) * suite.psi, suite.q)
                   * q_exp(-(suite.a ** -1 / coeff) * suite.psi, suite.q, "q_inverse"))
        triangular = delta_from_characterization(suite.U, suite.Udd, field)
        assert series == product == triangular == suite.Delta

    # coefficient identity on a generic nilpotent of index d+1, symbolically
    RF = ratfunc_field(("q", "a"))
    q, a = RF.generator("q"), RF.generator("a")
    c = q - q ** -1
    for d in range(1, 7):
        n = d + 1
        shift = Matrix.zero(RF, n)
        entries = list(shift.entries)
        for i in range(d):
            entries[i * n + i + 1] = RF.one
        X = Matrix(RF, n, n, entries)
        product = q_exp((a / c) * X, q) * q_exp(-(a ** -1 / c) * X, q, "q_inverse")
        expected = Matrix.zero(RF, n)
        power = Matrix.identity(RF, n)
        for coeff_i in delta_series_coefficients(d, q, a):
            expected = expected + coeff_i * power
            power = power * X
        assert product == expected
    _announce("4 three-route Delta + symbolic coefficient identity (d <= 6)", started)


def test_criterion_5_engine_equivariance():
    started = time.time()
    rng = random.Random(8020)
    for d in (1, 2, 3, 4, 5):
        p = QRacahParams(d, QF.coerce(2), QF.coerce(3), QF.coerce(5))
        ls = leonard.leonard_suite(p, "u")
        base = derive_suite(ls.A, K=ls.K)
        n = d + 1
        for _ in range(3):
            while True:
                S = Matrix.from_rows(
                    QF, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
                if not S.det().is_zero():
                    break
            Sinv = S.inverse()
            conj = derive_suite(S * ls.A * Sinv, K=S * ls.K * Sinv)
            for name in ("A", "K", "B", "psi", "M", "Minv", "Delta", "Deltainv"):
                assert getattr(conj, name) == S * getattr(base, name) * Sinv, (d, name)
            for name in ("U", "Udd", "W", "EV"):
                expected = tuple(x.image(S) for x in getattr(base, name))
                assert getattr(conj, name) == expected, (d, name)
    elapsed = time.time() - started
    assert elapsed < 30.0, f"equivariance took {elapsed:.1f}s"
    _announce("5 conjugation equivariance", started)


def test_criterion_6_halfway_decomposition(grid_suites, symbolic_suites):
    started = time.time()
    from tdq.linalg import eigenspace

    for _, _, suite in list(grid_suites) + list(symbolic_suites):
        c = suite.q - suite.q ** -1
        E_minus = q_exp((suite.a ** -1 / c) * suite.psi, suite.q)
        E_plus = q_exp((suite.a / c) * suite.psi, suite.q)
        total = 0
        u_running, w_running = [], []
        for i in range(suite.d + 1):
            space = eigenspace(suite.M, suite.q ** (suite.d - 2 * i))
            assert space == suite.W[i] and not space.is_zero()
            assert space.dim == suite.rho[i]
            total += space.dim
            assert suite.W[i].image(E_minus) == suite.U[i]
            assert suite.W[i].image(E_plus) == suite.Udd[i]
            u_running.append(suite.U[i])
            w_running.append(suite.W[i])
            assert subspace_sum(w_running) == subspace_sum(u_running)
        assert total == suite.n
    _announce("6 halfway decomposition", started)


def test_criterion_7_dual_operator_items():
    started = time.time()
    p = QRacahParams(1, QF.coerce(2), QF.coerce(3), QF.coerce(5))
    A = Matrix.from_rows(QF, [[p.theta(0), 0], [1, p.theta(1)]])
    Astar = Matrix.from_rows(QF, [[p.theta_star(0), 1], [0, p.theta_star(1)]])

    axioms = validate_axioms(A, Astar)
    assert axioms.conclusive and axioms.passed
    assert axioms.d == axioms.delta == 1

    suite = derive_suite(A, Astar=Astar)
    report = verify_battery(suite)
    assert not report.failures()
    status = {e.id: e.status for e in report.entries}
    assert status["delta_dual_triangular"] == "pass"     # dual triangularity
    assert status["astar_action_w"] == "pass"            # dual action on W
    assert status["m_action_dual_ev"] == "pass"          # M on dual eigenflags
    assert report.counts["skipped-needs-Astar"] == 0
    _announce("7 dual-operator items on the full d=1 fixture", started)


def test_criterion_8_mutation_sensitivity():
    started = time.time()
    p = QRacahParams(2, QF.coerce(2), QF.coerce(3), QF.coerce(5))
    ls = leonard.leonard_suite(p, "u")
    for name in ("M", "Delta", "psi"):
        original = getattr(ls, name)
        entries = list(original.entries)
        entries[1] = entries[1] + 1
        mutated = Matrix(QF, original.rows, original.cols, entries)
        suite = derive_suite(ls.A, K=ls.K, overrides={name: mutated})
        report = verify_battery(suite)
        failures = report.failures()
        assert failures, f"perturbing {name} went unnoticed"
        assert all(e.witness for e in failures)
    _announce("8 mutation sensitivity", started)


def test_criterion_9_detection(grid_suites):
    started = time.time()
    for p, _, _ in grid_suites:
        thetas = [p.theta(i) for i in range(p.d + 1)]
        result = detect_qracah(thetas)
        found = {(str(q), str(a)) for q, a in result.solutions}
        assert ((str(p.q), str(p.a)) in found
                or (str(p.q ** -1), str(p.a ** -1)) in found)
    with pytest.raises(NotQRacahError) as err:
        detect_qracah([QF.coerce(1), QF.coerce(2), QF.coerce(3)])
    assert err.value.reason == "q4-forced" and "q^4 = 1" in str(err.value)
    _announce("9 parameter detection", started)
