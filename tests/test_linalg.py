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
from tdq.scalars import Scalar, rational_field, ratfunc_field

QF = rational_field()
RF = ratfunc_field(("q", "a"))


def mat(rows):
    return Matrix.from_rows(QF, rows)


def sub(ambient, *vectors):
    return Subspace.from_vectors(QF, ambient, vectors)


def full(ambient):
    """The whole space, spanned by the rows of the identity."""
    eye = Matrix.identity(QF, ambient)
    return Subspace.from_vectors(QF, ambient, [eye.row(i) for i in range(ambient)])


class TestEigenspace:
    def test_diagonal(self):
        m = Matrix.diagonal(QF, [QF.coerce(2), QF.coerce(Fraction(1, 2))])
        assert eigenspace(m, QF.coerce(2)) == sub(2, [1, 0])

    def test_identity_full_space(self):
        m = Matrix.identity(QF, 3)
        assert eigenspace(m, QF.one) == full(3)

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
        assert subspace_sum([sub(2, [1, 0]), sub(2, [0, 1])]) == full(2)

    def test_sum_with_zero(self):
        x = sub(3, [1, 2, 3])
        assert subspace_sum([x, Subspace.zero(QF, 3)]) == x

    def test_sum_of_skew_lines(self):
        assert subspace_sum([sub(2, [1, 1]), sub(2, [1, -1])]) == full(2)

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
        assert dec.at(1) == dec[1] and dec.flag(2) == full(3)

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


# -- the kernels against plain references ---------------------------------------
#
# Matrix.__mul__ and _rref_rows skip every product with a zero factor.  The
# references below multiply every pair and eliminate every entry.


def ref_product(x, y):
    """Triple loop over every (i, j, t)."""
    zero = x.field.zero
    return [[sum((x[i, t] * y[t, j] for t in range(x.cols)), zero) for j in range(y.cols)]
            for i in range(x.rows)]


def ref_rref(rows, field):
    """Gauss-Jordan on a copy: scale the whole pivot row, subtract from every
    other row.  Returns the reduced rows (zero rows kept) and the pivots."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, tuple(pivots)


def ref_kernel_basis(m):
    """RREF row basis of {v : m v = 0}, from the reference elimination."""
    reduced, pivots = ref_rref([m.row(i) for i in range(m.rows)], m.field)
    vectors = []
    for free in (j for j in range(m.cols) if j not in pivots):
        v = [m.field.zero] * m.cols
        v[free] = m.field.one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][free]
        vectors.append(v)
    if not vectors:
        return ()
    basis, pivots = ref_rref(vectors, m.field)
    return tuple(tuple(row) for row in basis[: len(pivots)])


def ref_contains(x, y):
    """Y <= X when the RREF of X's rows plus Y's rows equals X's basis."""
    rows, pivots = ref_rref(list(x.basis) + list(y.basis), x.field)
    return tuple(tuple(row) for row in rows[: len(pivots)]) == x.basis


@st.composite
def nonzero_scalars(draw, field):
    num = draw(st.integers(-5, 5).filter(bool))
    den = draw(st.integers(1, 4))
    value = field.coerce(Fraction(num, den))
    if field is RF:
        q, a = RF.generator("q"), RF.generator("a")
        value = value * q ** draw(st.integers(-1, 2)) * a ** draw(st.integers(-1, 1))
        if draw(st.booleans()):
            value = value + RF.coerce(draw(st.integers(-3, 3)))
        if draw(st.booleans()):
            value = value / (q - RF.coerce(draw(st.integers(1, 3))))
    return value


@st.composite
def sparse_matrices(draw, field, rows, cols):
    """At least half of the entries are zero."""
    size = rows * cols
    nonzero = draw(st.sets(st.integers(0, size - 1), max_size=size // 2))
    return Matrix(field, rows, cols, [draw(nonzero_scalars(field)) if k in nonzero
                                      else field.zero for k in range(size)])


@st.composite
def sparse_products(draw):
    field = draw(st.sampled_from([QF, RF]))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(sparse_matrices(field, n, k)), draw(sparse_matrices(field, k, m))


@st.composite
def sparse_shapes(draw):
    field = draw(st.sampled_from([QF, RF]))
    n = draw(st.integers(1, 4))
    return draw(sparse_matrices(field, n, draw(st.integers(1, 5)) if draw(st.booleans()) else n))


@st.composite
def subspace_pairs(draw):
    """(X, Y) with Y spanned by combinations of X's rows in half of the draws,
    so that Y <= X holds by construction, and by sparse rows otherwise."""
    field = draw(st.sampled_from([QF, RF]))
    n = draw(st.integers(1, 4))
    xs = draw(sparse_matrices(field, draw(st.integers(1, 3)), n))
    if draw(st.booleans()):
        ys = draw(sparse_matrices(field, draw(st.integers(1, 2)), xs.rows)) * xs
    else:
        ys = draw(sparse_matrices(field, draw(st.integers(1, 2)), n))
    return tuple(Subspace.from_vectors(field, n, [m.row(i) for i in range(m.rows)])
                 for m in (xs, ys))


class TestSparseKernels:
    @settings(max_examples=60, deadline=None)
    @given(sparse_products())
    def test_product(self, pair):
        x, y = pair
        assert [list((x * y).row(i)) for i in range(x.rows)] == ref_product(x, y)

    @settings(max_examples=60, deadline=None)
    @given(sparse_products())
    def test_mul_vector(self, pair):
        x, y = pair
        column = [y[t, 0] for t in range(y.rows)]
        assert list(x.mul_vector(column)) == [row[0] for row in ref_product(x, y)]

    @settings(max_examples=100, deadline=None)
    @given(subspace_pairs())
    def test_contains(self, pair):
        x, y = pair
        assert x.contains(y) == ref_contains(x, y)

    @settings(max_examples=60, deadline=None)
    @given(sparse_shapes())
    def test_rref_inverse_kernel(self, m):
        reduced, pivots = m.rref()
        ref_rows, ref_pivots = ref_rref([m.row(i) for i in range(m.rows)], m.field)
        assert pivots == ref_pivots
        assert [list(reduced.row(i)) for i in range(m.rows)] == ref_rows
        assert m.kernel().basis == ref_kernel_basis(m)
        if m.is_square:
            eye = [[m.field.one if i == j else m.field.zero for j in range(m.rows)]
                   for i in range(m.rows)]
            aug, aug_pivots = ref_rref([list(m.row(i)) + eye[i] for i in range(m.rows)],
                                       m.field)
            if aug_pivots[: m.rows] == tuple(range(m.rows)):
                assert [list(m.inverse().row(i)) for i in range(m.rows)] == \
                    [row[m.rows:] for row in aug]
            else:
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()


def _closed(op, counts=False):
    """op with its result kept a CountedFraction; a product counts itself."""
    def method(self, other):
        if counts:
            CountedFraction.products += 1
        return CountedFraction(op(self, other))
    return method


class CountedFraction(Fraction):
    """A Fraction that counts the products it forms.  Its arithmetic returns
    CountedFraction again, so every product the raw-value kernels form from
    these entries, or from values computed from them, is counted."""

    products = 0
    __mul__ = _closed(Fraction.__mul__, counts=True)
    __rmul__ = _closed(Fraction.__rmul__, counts=True)
    __add__ = _closed(Fraction.__add__)
    __radd__ = _closed(Fraction.__radd__)
    __sub__ = _closed(Fraction.__sub__)
    __rsub__ = _closed(Fraction.__rsub__)
    __truediv__ = _closed(Fraction.__truediv__)
    __rtruediv__ = _closed(Fraction.__rtruediv__)


def counted(rows):
    return Matrix.from_rows(QF, [[Scalar(QF, CountedFraction(x)) for x in row] for row in rows])


class TestZeroProductsSkipped:
    """Counts of products formed on raw field values: a product with a zero
    factor is never formed, in the product, the elimination or the membership
    reduction."""

    @pytest.fixture(autouse=True)
    def reset(self):
        CountedFraction.products = 0

    N = 4

    def dense_and_identity(self):
        n = self.N
        return (counted([[i * n + j + 1 for j in range(n)] for i in range(n)]),
                counted([[int(i == j) for j in range(n)] for i in range(n)]))

    def test_dense_times_identity(self):
        dense, eye = self.dense_and_identity()
        assert dense * eye == dense
        assert CountedFraction.products == self.N ** 2

    def test_identity_times_dense(self):
        dense, eye = self.dense_and_identity()
        assert eye * dense == dense
        assert CountedFraction.products == self.N ** 2

    def ones_down_column_0(self, value):
        """value times (the identity plus ones down column 0), reduced: each
        of the n - 1 eliminations has one nonzero entry to subtract, and each
        pivot row one to scale, unless its pivot is already 1."""
        n = self.N
        m = counted([[value if j == 0 or i == j else 0 for j in range(n)] for i in range(n)])
        reduced, pivots = m.rref()
        assert reduced == Matrix.identity(QF, n) and pivots == tuple(range(n))

    def test_rref_scales_and_eliminates_nonzero_entries_only(self):
        self.ones_down_column_0(2)
        assert CountedFraction.products == self.N + (self.N - 1)

    def test_rref_leaves_unit_pivots_unscaled(self):
        self.ones_down_column_0(1)
        assert CountedFraction.products == self.N - 1

    def test_membership_reduces_nonzero_entries_only(self):
        # 5 times basis row 1: row 0 is skipped (the vector is 0 at its
        # pivot), and row 1 has two nonzero entries to subtract
        basis = counted([[1, 0, 2, 0], [0, 1, 3, 0]])
        plane = Subspace.from_vectors(QF, 4, [basis.row(0), basis.row(1)])
        vector = counted([[0, 5, 15, 0]]).row(0)
        CountedFraction.products = 0
        assert plane.spans([vector])
        assert CountedFraction.products == 2