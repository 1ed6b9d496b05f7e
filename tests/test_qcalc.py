from fractions import Fraction

import pytest

from tdq.leonard import psi_hat
from tdq.linalg import Matrix, matrix_powers, nilpotency_index
from tdq.qcalc import q_exp, q_fact, q_int
from tdq.scalars import rational_field, ratfunc_field

QF = rational_field()
RF = ratfunc_field(("q", "a", "b"))
TWO = QF.coerce(2)


def reference_q_int(n, q):
    """[n] by its definition: the sum of q^(n-1-2k) for k < n, one power each."""
    total = q.field.zero
    for k in range(n):
        total = total + q ** (n - 1 - 2 * k)
    return total


def reference_q_fact(n, q):
    """[n]! by its definition: the product of [1], ..., [n]."""
    result = q.field.one
    for i in range(1, n + 1):
        result = result * reference_q_int(i, q)
    return result


REFERENCE_BASES = [QF.coerce(v) for v in (2, -2, Fraction(5, 2), Fraction(1, 5))]
REFERENCE_BASES += [q ** -1 for q in REFERENCE_BASES] + [RF.generator("q"), RF.generator("q") ** -1]


@pytest.mark.parametrize("q", REFERENCE_BASES, ids=str)
def test_recurrences_match_definitions(q):
    # q_int's running term and q_fact's recurrence [i+1] = q [i] + q^-i give
    # the values of the sum of powers and the product of q-integers
    for n in range(13):
        assert q_int(n, q) == reference_q_int(n, q), n
        assert q_fact(n, q) == reference_q_fact(n, q), n


class TestQIntegers:
    def test_zero_factorial(self):
        assert q_fact(0, TWO) == QF.one

    def test_q_int_at_two(self):
        # [2]_2 = (4 - 1/4)/(2 - 1/2)
        assert q_int(2, TWO) == Fraction(5, 2)

    def test_geometric_sum_identity(self):
        q = RF.generator("q")
        for n in range(1, 6):
            expected = RF.zero
            for k in range(n):
                expected = expected + q ** (n - 1 - 2 * k)
            assert q_int(n, q) == expected

    def test_negative_and_zero(self):
        q = RF.generator("q")
        assert q_int(0, q).is_zero()
        assert q_int(-3, q) == -q_int(3, q)

    def test_binom_pure_q_power_denominator(self):
        # symmetric q-binomials are Laurent polynomials in q: the canonical
        # denominator is the single monomial q^(k(n-k))
        q = RF.generator("q")
        for n in range(1, 7):
            for k in range(n + 1):
                value = q_fact(n, q) / (q_fact(k, q) * q_fact(n - k, q))
                terms = list(value.raw.denom.terms())
                assert len(terms) == 1
                assert terms[0][0] == (k * (n - k), 0, 0)
                cleared = value * q ** (k * (n - k))
                assert list(cleared.raw.denom.terms())[0][0] == (0, 0, 0)

    def test_negative_factorial_rejected(self):
        with pytest.raises(ValueError):
            q_fact(-1, TWO)


class TestQExp:
    def test_zero_matrix(self):
        assert q_exp(TWO, matrix_powers(Matrix.zero(QF, 3), 3), TWO) == Matrix.identity(QF, 3)

    def test_worked_d1_example(self):
        # coefficient a/(q - q^-1) = 2, psi-hat entry 9/4
        hat = psi_hat(1, TWO)
        result = q_exp(QF.coerce(2), matrix_powers(hat, 2), TWO)
        assert result == Matrix.from_rows(QF, [[1, Fraction(9, 2)], [0, 1]])

    def test_not_nilpotent_rejected(self):
        with pytest.raises(ValueError, match="^q_exp needs a nilpotent matrix$"):
            q_exp(TWO, matrix_powers(Matrix.identity(QF, 2), 2), TWO)

    def test_powers_short_of_zero_rejected(self):
        # the sum stops at the first zero power, so a list that has none is
        # rejected even when the matrix is nilpotent
        powers = matrix_powers(psi_hat(2, TWO), 3)
        with pytest.raises(ValueError, match="nilpotent"):
            q_exp(TWO, powers[:3], TWO)

    def test_inverse_pairing(self):
        # exp_(q^-1) is q_exp at base q^-1
        for d in (1, 2, 3):
            powers = matrix_powers(psi_hat(d, TWO), d + 1)
            x = QF.coerce(Fraction(2, 3))
            product = q_exp(x, powers, TWO) * q_exp(-x, powers, TWO ** -1)
            assert product == Matrix.identity(QF, d + 1)

    def test_factorial_same_at_inverse_base(self):
        q = RF.generator("q")
        for n in range(7):
            assert q_fact(n, q ** -1) == q_fact(n, q)

    def test_truncation_safety(self):
        # summing past the nilpotency index adds exactly nothing
        from math import comb

        hat = psi_hat(2, TWO)
        index = nilpotency_index(hat)
        total = Matrix.zero(QF, 3)
        power = Matrix.identity(QF, 3)
        for n in range(index + 3):
            total = total + (TWO ** comb(n, 2) / q_fact(n, TWO)) * power
            power = power * hat
        assert total == q_exp(QF.one, matrix_powers(hat, index + 2), TWO)
        assert total == q_exp(QF.one, matrix_powers(hat, index), TWO)
