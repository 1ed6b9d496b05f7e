"""Suites with multiplicities: a direct sum L + L of one Leonard system,
conjugated by a unipotent S, so every split space and eigenspace has
dimension 2 and every block of the adapted coordinates is 2x2."""

from dataclasses import replace
from math import comb

import pytest

from tdq import engine, leonard
from tdq.battery import verify_battery
from tdq.linalg import Matrix
from tdq.qcalc import q_fact
from tdq.scalars import rational_field

from conftest import assert_split_identities, make_params

QF = rational_field()


def _doubled(m: Matrix, S: Matrix, Sinv: Matrix) -> Matrix:
    """S (m + m) S^-1, the direct sum of m with itself in another basis."""
    n = m.rows
    block = Matrix.from_rows(QF, [[m[i % n, j % n] if i // n == j // n else 0
                                   for j in range(2 * n)] for i in range(2 * n)])
    return S * block * Sinv


def _unipotent(n: int) -> tuple[Matrix, Matrix]:
    S = Matrix.from_rows(QF, [[1 if i == j else ((i + 2 * j) % 3 - 1 if j > i else 0)
                               for j in range(n)] for i in range(n)])
    return S, S.inverse()


def _counts(suite):
    counts = verify_battery(suite).counts
    return counts["pass"], counts["fail"], counts["skipped-needs-Astar"]


@pytest.mark.parametrize("with_params", [False, True], ids=["detected", "given"])
@pytest.mark.parametrize("frame", leonard.BASES)
def test_doubled_d2_suite(frame, with_params):
    p = make_params(QF, d=2, b=None)
    ls = leonard.leonard_suite(p, frame)
    S, Sinv = _unipotent(6)
    suite = engine.derive_suite(_doubled(ls.A, S, Sinv), K=_doubled(ls.K, S, Sinv),
                                params=p if with_params else None)
    assert tuple(s.dim for s in suite.U) == (2, 2, 2)
    assert suite.U.blocks == (range(0, 2), range(2, 4), range(4, 6))
    assert suite.U.coordinates * suite.U.basis == suite.I
    assert_split_identities(suite)
    assert _counts(suite) == (43, 0, 5)


def _doubled_d1(S, Sinv):
    p = make_params(QF, d=1)
    A = Matrix.from_rows(QF, [[p.theta(0), 0], [1, p.theta(1)]])
    Astar = Matrix.from_rows(QF, [[p.theta_star(0), 1], [0, p.theta_star(1)]])
    K = leonard.leonard_suite(p, "u").K
    return (_doubled(A, S, Sinv), _doubled(K, S, Sinv), _doubled(Astar, S, Sinv))


@pytest.mark.parametrize("with_k", [False, True], ids=["A-Astar", "A-K-Astar"])
def test_doubled_d1_suite_with_dual(with_k):
    A, K, Astar = _doubled_d1(*_unipotent(4))
    suite = engine.derive_suite(A, K=K if with_k else None, Astar=Astar)
    assert tuple(s.dim for s in suite.U) == (2, 2)
    assert_split_identities(suite)
    assert _counts(suite) == (48, 0, 0)


def test_doubled_suite_catches_one_wrong_entry():
    p = make_params(QF, d=2, b=None)
    ls = leonard.leonard_suite(p, "u")
    S, Sinv = _unipotent(6)
    A, K = _doubled(ls.A, S, Sinv), _doubled(ls.K, S, Sinv)
    M = engine.derive_suite(A, K=K).M
    entries = list(M.entries)
    entries[1] = entries[1] + 1
    suite = replace(engine.derive_suite(A, K=K), M=Matrix(QF, 6, 6, entries))
    assert _counts(suite)[1] > 0


def test_claimed_psi_past_index_d_plus_1():
    # on n = 6 with d = 2 a claimed psi can have nilpotency index up to 6:
    # the shift matrix has index 6, and each q-exponential sums its powers
    # up to psi^5, past psi^(d+1)
    p = make_params(QF, d=2, b=None)
    ls = leonard.leonard_suite(p, "u")
    S, Sinv = _unipotent(6)
    shift = Matrix.from_rows(QF, [[1 if j == i + 1 else 0 for j in range(6)] for i in range(6)])
    suite = replace(engine.derive_suite(_doubled(ls.A, S, Sinv), K=_doubled(ls.K, S, Sinv)),
                    psi=shift)
    c = p.q - p.q ** -1
    plus, minus = p.a / c, p.a ** -1 / c
    for exp, x, base in zip(suite.psi_series.exps, (plus, minus, -plus, -minus),
                            (p.q, p.q, p.q ** -1, p.q ** -1)):
        expected, power = Matrix.zero(QF, 6), suite.I
        for n in range(6):
            expected = expected + (x ** n * base ** comb(n, 2) / q_fact(n, base)) * power
            power = power * shift
        assert power.is_zero()
        assert exp == expected
    assert _counts(suite) == (23, 20, 5)
