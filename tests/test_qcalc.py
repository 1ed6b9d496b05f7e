from fractions import Fraction

import pytest

from tdq.leonard import psi_hat
from tdq.linalg import Matrix, nilpotency_index
from tdq.qcalc import q_binom, q_exp, q_fact, q_int
from tdq.scalars import rational_field, ratfunc_field

QF = rational_field()
RF = ratfunc_field(("q", "a", "b"))
TWO = QF.coerce(2)


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

    def test_binom_symmetric(self):
        q = RF.generator("q")
        for n in range(6):
            for k in range(n + 1):
                assert q_binom(n, k, q) == q_binom(n, n - k, q)

    def test_binom_out_of_range(self):
        assert q_binom(3, -1, TWO).is_zero()
        assert q_binom(3, 4, TWO).is_zero()

    def test_binom_pure_q_power_denominator(self):
        # symmetric q-binomials are Laurent polynomials in q: the canonical
        # denominator is the single monomial q^(k(n-k))
        q = RF.generator("q")
        for n in range(1, 7):
            for k in range(n + 1):
                value = q_binom(n, k, q)
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
        assert q_exp(Matrix.zero(QF, 3), TWO) == Matrix.identity(QF, 3)

    def test_worked_d1_example(self):
        # coefficient a/(q - q^-1) = 2, psi-hat entry 9/4
        hat = psi_hat(1, TWO)
        result = q_exp(QF.coerce(2) * hat, TWO)
        assert result == Matrix.from_rows(QF, [[1, Fraction(9, 2)], [0, 1]])

    def test_not_nilpotent_rejected(self):
        with pytest.raises(ValueError, match="nilpotent"):
            q_exp(Matrix.identity(QF, 2), TWO)

    def test_inverse_pairing(self):
        for d in (1, 2, 3):
            hat = psi_hat(d, TWO)
            t = QF.coerce(Fraction(2, 3)) * hat
            product = q_exp(t, TWO) * q_exp(-t, TWO, "q_inverse")
            assert product == Matrix.identity(QF, d + 1)

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
        assert total == q_exp(hat, TWO)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            q_exp(Matrix.zero(QF, 2), TWO, "bogus")
