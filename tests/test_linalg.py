from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tdq.linalg import (
    Decomposition,
    Matrix,
    Subspace,
    eigenspace,
    generated_algebra_dim,
    is_direct_decomposition,
    nilpotency_index,
    subspace_intersect,
    subspace_sum,
)
from tdq.scalars import rational_field

QF = rational_field()


def mat(rows):
    return Matrix.from_rows(QF, rows)


def sub(ambient, *vectors):
    return Subspace.from_vectors(QF, ambient, vectors)


class TestEigenspace:
    def test_diagonal(self):
        m = Matrix.diagonal(QF, [QF.coerce(2), QF.coerce(Fraction(1, 2))])
        assert eigenspace(m, QF.coerce(2)) == sub(2, [1, 0])

    def test_identity_full_space(self):
        m = Matrix.identity(QF, 3)
        assert eigenspace(m, QF.one) == Subspace.full(QF, 3)

    def test_hand_solved_kernel(self):
        # (M - 1/2 I) x = 0 for M = [[2, 3/4], [0, 1/2]]: x = t(-1/2, 1)
        m = mat([[2, Fraction(3, 4)], [0, Fraction(1, 2)]])
        space = eigenspace(m, QF.coerce(Fraction(1, 2)))
        assert space.basis == ((QF.one, QF.coerce(-2)),)

    def test_empty_eigenspace(self):
        m = Matrix.identity(QF, 2)
        assert eigenspace(m, QF.coerce(7)).is_zero()

    def test_distinct_eigenvalues_disjoint(self):
        m = mat([[1, 1], [0, 2]])
        x = eigenspace(m, QF.one)
        y = eigenspace(m, QF.coerce(2))
        assert subspace_intersect(x, y).is_zero()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigenspace(Matrix.zero(QF, 2, 3), QF.one)


class TestSubspaces:
    def test_sum_spans(self):
        assert subspace_sum([sub(2, [1, 0]), sub(2, [0, 1])]) == Subspace.full(QF, 2)

    def test_sum_with_zero(self):
        x = sub(3, [1, 2, 3])
        assert subspace_sum([x, Subspace.zero(QF, 3)]) == x

    def test_sum_of_skew_lines(self):
        assert subspace_sum([sub(2, [1, 1]), sub(2, [1, -1])]) == Subspace.full(QF, 2)

    def test_intersection_idempotent(self):
        x = sub(3, [1, 0, 1], [0, 1, 0])
        assert subspace_intersect(x, x) == x

    def test_intersection_of_axes_is_zero(self):
        assert subspace_intersect(sub(2, [1, 0]), sub(2, [0, 1])).is_zero()

    def test_plane_intersection(self):
        x = sub(3, [1, 0, 0], [0, 1, 0])
        y = sub(3, [0, 1, 0], [0, 0, 1])
        assert subspace_intersect(x, y) == sub(3, [0, 1, 0])

    def test_canonical_equality(self):
        assert sub(2, [2, 4]) == sub(2, [1, 2]) == sub(2, [-3, -6])

    def test_contains(self):
        plane = sub(3, [1, 0, 0], [0, 1, 0])
        assert plane.contains(sub(3, [1, 1, 0]))
        assert not plane.contains(sub(3, [0, 0, 1]))

    def test_direct_decomposition(self):
        assert is_direct_decomposition([sub(2, [1, 0]), sub(2, [0, 1])])
        assert not is_direct_decomposition([sub(2, [1, 0]), sub(2, [1, 0])])
        assert not is_direct_decomposition([sub(2, [1, 0]), Subspace.zero(QF, 2)])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=1, max_size=3),
           st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=1, max_size=3))
    def test_modular_law_dimensions(self, xs, ys):
        x = sub(3, *xs)
        y = sub(3, *ys)
        total = subspace_sum([x, y])
        meet = subspace_intersect(x, y)
        assert x.dim + y.dim == total.dim + meet.dim


class TestDecomposition:
    def _axes(self):
        return Decomposition([sub(3, [1, 0, 0]), sub(3, [0, 1, 0]), sub(3, [0, 0, 1])])

    def test_flags_and_tails_are_running_sums(self):
        dec = self._axes()
        for i in range(3):
            assert dec.flags[i] == subspace_sum(dec[: i + 1])
            assert dec.tails[i] == subspace_sum(dec[i:])

    def test_zero_outside_the_range(self):
        dec = self._axes()
        zero = Subspace.zero(QF, 3)
        assert dec.at(-1) == dec.at(3) == dec.flag(-1) == zero
        assert dec.at(1) == dec[1] and dec.flag(2) == Subspace.full(QF, 3)

    def test_flags_built_once(self):
        dec = self._axes()
        assert dec.flags is dec.flags and dec.tails is dec.tails

    def test_equal_to_the_plain_tuple(self):
        spaces = (sub(2, [1, 0]), sub(2, [0, 1]))
        assert Decomposition(spaces) == spaces


class TestNilpotency:
    def test_zero_matrix(self):
        assert nilpotency_index(Matrix.zero(QF, 3)) == 1

    def test_shift(self):
        m = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert nilpotency_index(m) == 3

    def test_identity_not_nilpotent(self):
        assert nilpotency_index(Matrix.identity(QF, 2)) is None


class TestGeneratedAlgebra:
    def test_identity_alone(self):
        assert generated_algebra_dim([Matrix.identity(QF, 2)]) == 1

    def test_diagonalizable_with_two_eigenvalues(self):
        assert generated_algebra_dim([Matrix.diagonal(QF, [QF.one, QF.coerce(2)])]) == 2

    def test_full_matrix_algebra(self):
        # the d=1 fixture pair generates all of 2x2
        theta = [Fraction(37, 6), Fraction(13, 6)]
        theta_star = [Fraction(101, 10), Fraction(29, 10)]
        A = mat([[theta[0], 0], [1, theta[1]]])
        Astar = mat([[theta_star[0], 1], [0, theta_star[1]]])
        assert generated_algebra_dim([A, Astar]) == 4


class TestMatrixBasics:
    def test_inverse_round_trip(self):
        # the second needs a row swap
        for m in (mat([[2, 1], [1, 1]]), mat([[0, 1], [1, 0]])):
            assert m * m.inverse() == Matrix.identity(QF, 2)
            assert m.inverse() * m == Matrix.identity(QF, 2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            mat([[1, 2], [2, 4]]).inverse()

    def test_pow(self):
        m = mat([[1, 1], [0, 1]])
        assert (m ** 3)[0, 1] == QF.coerce(3)
        assert m ** 0 == Matrix.identity(QF, 2)
        assert m ** -1 == m.inverse()

    def test_minimal_polynomial(self):
        cases = [
            # (x - 2)(x - 1/2) = x^2 - 5/2 x + 1
            (mat([[2, Fraction(3, 4)], [0, Fraction(1, 2)]]), ["1", "-5/2", "1"]),
            # (x - 1)(x - 2): degree below n
            (Matrix.diagonal(QF, [QF.one, QF.one, QF.coerce(2)]), ["2", "-3", "1"]),
        ]
        for m, expected in cases:
            assert [str(c) for c in m.minimal_polynomial()] == expected

    def test_minimal_polynomial_of_projector(self):
        m = mat([[1, 0], [0, 0]])
        assert [str(c) for c in m.minimal_polynomial()] == ["0", "-1", "1"]

    def test_image_of_subspace(self):
        m = mat([[0, 1], [0, 0]])
        line = sub(2, [0, 1])
        assert line.image(m) == sub(2, [1, 0])
        assert sub(2, [1, 0]).image(m).is_zero()
