from fractions import Fraction
from math import gcd

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
    power_series,
    subspace_intersect,
    subspace_sum,
)
from tdq.scalars import RationalField, Scalar, rational_field, ratfunc_field

QF = rational_field()
RF = ratfunc_field(("q", "a"))


class RawRationalField(RationalField):
    """Rationals under another backend name, so that the kernels take the
    raw-value path that ratfunc takes, on Fraction values."""

    backend = "raw-rational"


RAW = RawRationalField()


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

    @pytest.mark.parametrize("field", [QF, RF, RAW], ids=["rational", "ratfunc", "raw"])
    def test_maps_into(self, field):
        # m S = T for S = span(e0, e1) and T = span((2, 0, 1), (1, 3, 0));
        # a 1 at m[2, 1] sends e1 to (1, 3, 1), outside T
        rows = [[2, 1, 0], [0, 3, 0], [1, 0, 5]]
        m = Matrix.from_rows(field, rows)
        source = Subspace.from_vectors(field, 3, [[1, 0, 0], [0, 1, 0]])
        target = Subspace.from_vectors(field, 3, [[2, 0, 1], [1, 3, 0]])
        zero = Subspace.zero(field, 3)
        assert source.maps_into(m, target) and ref_maps_into(m, source, target)
        assert zero.maps_into(m, zero) and source.maps_into(Matrix.zero(field, 3), zero)
        assert not source.maps_into(m, zero)
        rows[2][1] = 1
        perturbed = Matrix.from_rows(field, rows)
        assert not source.maps_into(perturbed, target)
        assert not ref_maps_into(perturbed, source, target)

    def test_image_of_subspace(self):
        m = mat([[0, 1], [0, 0]])
        line = sub(2, [0, 1])
        assert line.image(m) == sub(2, [1, 0])
        assert sub(2, [1, 0]).image(m).is_zero()


# -- the kernels against plain references ---------------------------------------
#
# The kernels skip every product with a zero factor, and on rationals compute
# on integers over common denominators.  The references below use Scalar
# arithmetic, multiply every pair and eliminate every entry.


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


def ref_basis(vectors, field):
    """The RREF row basis of the vectors, from the reference elimination."""
    if not vectors:
        return ()
    rows, pivots = ref_rref(vectors, field)
    return tuple(tuple(row) for row in rows[: len(pivots)])


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
    return ref_basis(vectors, m.field)


def ref_spans(x, vectors):
    """The vectors lie in X when the RREF of X's rows plus them equals X's
    basis."""
    return ref_basis(list(x.basis) + list(vectors), x.field) == x.basis


def ref_contains(x, y):
    return ref_spans(x, y.basis)


def ref_images(m, source):
    """m v for each basis vector v of the subspace, by the triple loop."""
    return [[row[0] for row in ref_product(m, Matrix(m.field, m.cols, 1, v))]
            for v in source.basis]


def ref_maps_into(m, source, target):
    return ref_spans(target, ref_images(m, source))


def ref_intersect(x, y):
    """X n Y from the reference elimination of the Zassenhaus rows
    [X | X; Y | 0]: the right halves of the rows whose left half is zero."""
    zero = x.field.zero
    rows = [list(r) + list(r) for r in x.basis] + [list(r) + [zero] * x.ambient
                                                   for r in y.basis]
    if not rows:
        return ()
    reduced, _ = ref_rref(rows, x.field)
    return ref_basis([row[x.ambient:] for row in reduced
                      if all(v.is_zero() for v in row[: x.ambient])
                      and not all(v.is_zero() for v in row[x.ambient:])], x.field)


def ref_power_series(coeffs, powers):
    """sum_n coeffs[n] powers[n], entry by entry."""
    p = powers[0]
    return [[sum((c * m[i, j] for c, m in zip(coeffs, powers)), p.field.zero)
             for j in range(p.cols)] for i in range(p.rows)]


def rows_of(m):
    return [list(m.row(i)) for i in range(m.rows)]


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
    """At least one nonzero entry, and at most half of the entries nonzero
    (one, for a 1 x 1 matrix)."""
    size = rows * cols
    nonzero = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=max(1, size // 2)))
    return Matrix(field, rows, cols, [draw(nonzero_scalars(field)) if k in nonzero
                                      else field.zero for k in range(size)])


BIG = 2 ** 300


@st.composite
def large_rationals(draw):
    """A rational with numerator and denominator up to about 300 bits, of
    either sign; zero and small values too."""
    num = draw(st.one_of(st.integers(-BIG, BIG), st.integers(-9, 9)))
    den = draw(st.one_of(st.integers(1, BIG), st.integers(1, 9)))
    return QF.coerce(Fraction(num, den))


@st.composite
def dense_matrices(draw, field, rows, cols):
    """Rational and mostly nonzero, with large entries; in half of the draws
    a product through a narrower middle, so its rank is below min(rows, cols)."""
    assert field is QF
    def entries(r, c):
        return Matrix(QF, r, c, [draw(large_rationals()) for _ in range(r * c)])

    if min(rows, cols) > 1 and draw(st.booleans()):
        middle = draw(st.integers(1, min(rows, cols) - 1))
        return entries(rows, middle) * entries(middle, cols)
    return entries(rows, cols)


@st.composite
def products(draw, matrices, fields, size):
    field = draw(st.sampled_from(fields))
    n, k, m = (draw(st.integers(1, size)) for _ in range(3))
    return draw(matrices(field, n, k)), draw(matrices(field, k, m))


@st.composite
def shapes(draw, matrices, fields, size):
    """A square or wide matrix, zero in some draws."""
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, size))
    m = draw(matrices(field, n, draw(st.integers(1, size + 1)) if draw(st.booleans()) else n))
    return Matrix.zero(field, m.rows, m.cols) if draw(st.integers(0, 7)) == 0 else m


@st.composite
def subspace_pairs(draw, matrices, fields, size):
    """(X, Y) with Y spanned by combinations of X's rows in half of the draws,
    so that Y <= X holds by construction, and by other rows otherwise; X is
    zero in some draws, and Y in others."""
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, size))
    xs = draw(matrices(field, draw(st.integers(1, max(1, size - 1))), n))
    if draw(st.booleans()):
        ys = draw(matrices(field, draw(st.integers(1, max(1, size // 2))), xs.rows)) * xs
    else:
        ys = draw(matrices(field, draw(st.integers(1, max(1, size // 2))), n))
    zero = draw(st.integers(0, 7))
    return tuple(Subspace.zero(field, n) if zero == k else span_of_rows(m)
                 for k, m in enumerate((xs, ys)))


def span_of_rows(m):
    return Subspace.from_vectors(m.field, m.cols, [m.row(i) for i in range(m.rows)])


@st.composite
def inclusions(draw, matrices, fields, size):
    """(m, S, T): a nonzero n x k matrix (k >= 2, so that a sparse one can
    be), a subspace S of k-space and a subspace T of n-space.  S is zero in
    some draws, and T in others; in half the draws T is spanned by the images
    m S and other rows, so that m S <= T holds by construction."""
    field = draw(st.sampled_from(fields))
    n, k = draw(st.integers(1, size)), draw(st.integers(2, size))
    m = draw(matrices(field, n, k).filter(lambda x: not x.is_zero()))
    source = (Subspace.zero(field, k) if draw(st.integers(0, 4)) == 0 else span_of_rows(
        draw(matrices(field, draw(st.integers(1, size)), k).filter(lambda x: not x.is_zero()))))
    kind = draw(st.sampled_from(["zero", "image", "image", "other", "other"]))
    if kind == "zero":
        return m, source, Subspace.zero(field, n)
    rows = draw(matrices(field, draw(st.integers(1, max(1, size // 2))), n))
    vectors = [rows.row(i) for i in range(rows.rows)]
    if kind == "image":
        vectors += ref_images(m, source)
    return m, source, Subspace.from_vectors(field, n, vectors)


@st.composite
def series(draw, matrices, fields, size):
    """Coefficients, some zero, and as many matrices of one shape."""
    field = draw(st.sampled_from(fields))
    n, m, k = draw(st.integers(1, size)), draw(st.integers(1, size)), draw(st.integers(1, 4))
    coeffs = [field.zero if j and draw(st.booleans()) else
              draw(large_rationals() if field is QF else nonzero_scalars(field))
              for j in range(k)]
    return coeffs, [draw(matrices(field, n, m)) for _ in range(k)]


def check_rref_inverse_kernel(m):
    reduced, pivots = m.rref()
    ref_rows, ref_pivots = ref_rref([m.row(i) for i in range(m.rows)], m.field)
    assert pivots == ref_pivots
    assert rows_of(reduced) == ref_rows
    assert m.kernel().basis == ref_kernel_basis(m)
    if m.is_square:
        eye = [[m.field.one if i == j else m.field.zero for j in range(m.rows)]
               for i in range(m.rows)]
        aug, aug_pivots = ref_rref([list(m.row(i)) + eye[i] for i in range(m.rows)], m.field)
        if aug_pivots[: m.rows] == tuple(range(m.rows)):
            assert rows_of(m.inverse()) == [row[m.rows:] for row in aug]
        else:
            with pytest.raises(ValueError, match="singular"):
                m.inverse()


def fractions_of(m):
    """m's entries as Fractions, row by row."""
    return [[x.raw for x in m.row(i)] for i in range(m.rows)]


def fraction_product(x, y):
    return [[sum((x[i][t] * y[t][j] for t in range(len(y))), Fraction(0))
             for j in range(len(y[0]))] for i in range(len(x))]


def check_form(m, ref):
    """m equals, and hashes as, the matrix built from the reference's
    entries, in the canonical form, and its entries are the reference's."""
    built = Matrix.from_rows(QF, [[QF.coerce(x) for x in row] for row in ref])
    assert m == built and hash(m) == hash(built)
    assert m.den > 0 and gcd(m.den, *m.nums) == 1
    assert fractions_of(m) == ref


@st.composite
def form_matrices(draw, field, rows, cols):
    """Rational entries of up to about 300 bits, of both signs, with some
    rows zero."""
    assert field is QF
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    return Matrix(QF, rows, cols, [QF.zero if i in zero_rows else draw(large_rationals())
                                   for i in range(rows) for _ in range(cols)])


@st.composite
def same_shape(draw, size):
    n, m = draw(st.integers(1, size)), draw(st.integers(1, size))
    return draw(form_matrices(QF, n, m)), draw(form_matrices(QF, n, m))


SPARSE_FIELDS = [QF, RF]


class TestSparseKernels:
    @settings(max_examples=60, deadline=None)
    @given(products(sparse_matrices, SPARSE_FIELDS, 4))
    def test_product(self, pair):
        x, y = pair
        assert rows_of(x * y) == ref_product(x, y)

    @settings(max_examples=60, deadline=None)
    @given(inclusions(sparse_matrices, SPARSE_FIELDS, 4))
    def test_maps_into(self, case):
        m, source, target = case
        assert source.maps_into(m, target) == ref_maps_into(m, source, target)

    @settings(max_examples=100, deadline=None)
    @given(subspace_pairs(sparse_matrices, SPARSE_FIELDS, 4))
    def test_contains(self, pair):
        x, y = pair
        assert x.contains(y) == ref_contains(x, y)

    @settings(max_examples=60, deadline=None)
    @given(shapes(sparse_matrices, SPARSE_FIELDS, 4))
    def test_rref_inverse_kernel(self, m):
        check_rref_inverse_kernel(m)

    @settings(max_examples=60, deadline=None)
    @given(subspace_pairs(sparse_matrices, SPARSE_FIELDS, 4))
    def test_intersect(self, pair):
        x, y = pair
        assert subspace_intersect(x, y).basis == ref_intersect(x, y)

    @settings(max_examples=60, deadline=None)
    @given(series(sparse_matrices, SPARSE_FIELDS, 4))
    def test_power_series(self, pair):
        coeffs, powers = pair
        assert rows_of(power_series(coeffs, powers)) == ref_power_series(coeffs, powers)


class TestDenseKernels:
    """The kernels against the references on dense rationals with entries of
    up to about 300 bits, up to 8 x 8, rank-deficient and non-square; and
    every operation on the integer form against entrywise Fractions, with
    zero rows, equality and hashing against matrices built from entries."""

    @settings(max_examples=60, deadline=None)
    @given(products(dense_matrices, [QF], 8))
    def test_product(self, pair):
        x, y = pair
        assert rows_of(x * y) == ref_product(x, y)

    @settings(max_examples=60, deadline=None)
    @given(inclusions(dense_matrices, [QF], 8))
    def test_maps_into(self, case):
        m, source, target = case
        assert source.maps_into(m, target) == ref_maps_into(m, source, target)

    @settings(max_examples=60, deadline=None)
    @given(shapes(dense_matrices, [QF], 8))
    def test_rref_inverse_kernel(self, m):
        check_rref_inverse_kernel(m)

    @settings(max_examples=60, deadline=None)
    @given(subspace_pairs(dense_matrices, [QF], 8))
    def test_contains_and_intersect(self, pair):
        x, y = pair
        assert x.contains(y) == ref_contains(x, y)
        assert y.contains(x) == ref_contains(y, x)
        assert subspace_intersect(x, y).basis == ref_intersect(x, y)

    @settings(max_examples=60, deadline=None)
    @given(series(dense_matrices, [QF], 8))
    def test_power_series(self, pair):
        coeffs, powers = pair
        assert rows_of(power_series(coeffs, powers)) == ref_power_series(coeffs, powers)


    # -- the integer form: every operation against entrywise Fractions --------

    @settings(max_examples=50, deadline=None)
    @given(same_shape(4), large_rationals())
    def test_entrywise_operations(self, pair, c):
        x, y = pair
        fx, fy, fc = fractions_of(x), fractions_of(y), c.raw
        check_form(x + y, [[s + t for s, t in zip(r, u)] for r, u in zip(fx, fy)])
        check_form(x - y, [[s - t for s, t in zip(r, u)] for r, u in zip(fx, fy)])
        check_form(-x, [[-s for s in r] for r in fx])
        check_form(c * x, [[fc * s for s in r] for r in fx])
        check_form(x * c, [[fc * s for s in r] for r in fx])
        assert x.is_zero() == (not any(map(any, fx)))
        assert (x == y) == (fx == fy)
        check_form(x - x, [[Fraction(0)] * x.cols for _ in range(x.rows)])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: form_matrices(QF, n, n)), large_rationals())
    def test_shift(self, m, lam):
        ref = fractions_of(m)
        for i in range(m.rows):
            ref[i][i] -= lam.raw
        check_form(m.shift(lam), ref)

    @settings(max_examples=50, deadline=None)
    @given(products(form_matrices, [QF], 5))
    def test_product_form(self, pair):
        x, y = pair
        check_form(x * y, fraction_product(fractions_of(x), fractions_of(y)))

    @settings(max_examples=50, deadline=None)
    @given(shapes(form_matrices, [QF], 5))
    def test_rref_inverse_kernel_form(self, m):
        ref_rows, ref_pivots = ref_rref([m.row(i) for i in range(m.rows)], m.field)
        reduced, pivots = m.rref()
        assert pivots == ref_pivots
        check_form(reduced, [[x.raw for x in row] for row in ref_rows])
        kernel = Subspace.from_vectors(QF, m.cols, ref_kernel_basis(m))
        assert m.kernel() == kernel and hash(m.kernel()) == hash(kernel)
        assert m.kernel().basis == kernel.basis
        if m.is_square and len(pivots) == m.rows:
            eye = Matrix.identity(QF, m.rows)
            aug, _ = ref_rref([list(m.row(i)) + list(eye.row(i)) for i in range(m.rows)], QF)
            check_form(m.inverse(), [[x.raw for x in row[m.rows:]] for row in aug])
            assert m.inverse() * m == eye

    @settings(max_examples=50, deadline=None)
    @given(series(form_matrices, [QF], 5))
    def test_power_series_form(self, pair):
        coeffs, powers = pair
        check_form(power_series(coeffs, powers),
                   [[x.raw for x in row] for row in ref_power_series(coeffs, powers)])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(form_matrices(QF, n, n),
                                                         form_matrices(QF, n, n))),
           large_rationals(), large_rationals())
    def test_unread_chain(self, pair, c, t):
        # the chain's intermediate results are never read; only the end is
        x, y = pair
        fx, fy = fractions_of(x), fractions_of(y)
        shifted = [[s - t.raw if i == j else s for j, s in enumerate(r)] for i, r in enumerate(fx)]
        scaled = [[c.raw * s for s in r] for r in fy]
        ref = [[s - u for s, u in zip(r, w)] for r, w in
               zip(fraction_product(fx, fy), fraction_product(scaled, shifted))]
        chain = x * y - c * y * x.shift(t)
        assert chain._entries is None
        check_form(chain, ref)


class Products:
    """The number of products formed by the counting values below."""

    count = 0


def _closed(op, counts=False):
    """op with its result converted back to the operand's class; a product
    counts itself."""
    def method(self, other):
        if counts:
            Products.count += 1
        return type(self)(op(self, other))
    return method


class CountedFraction(Fraction):
    """A Fraction that counts the products it forms.  Its arithmetic returns
    CountedFraction again, so every product the raw-value kernels form from
    these entries, or from values computed from them, is counted."""

    __mul__ = _closed(Fraction.__mul__, counts=True)
    __rmul__ = _closed(Fraction.__rmul__, counts=True)
    __add__ = _closed(Fraction.__add__)
    __radd__ = _closed(Fraction.__radd__)
    __sub__ = _closed(Fraction.__sub__)
    __rsub__ = _closed(Fraction.__rsub__)
    __truediv__ = _closed(Fraction.__truediv__)
    __rtruediv__ = _closed(Fraction.__rtruediv__)


class CountedInt(int):
    """An int that counts the products it forms; its arithmetic returns
    CountedInt again."""

    __mul__ = _closed(int.__mul__, counts=True)
    __rmul__ = _closed(int.__rmul__, counts=True)
    __add__ = _closed(int.__add__)
    __radd__ = _closed(int.__radd__)
    __sub__ = _closed(int.__sub__)
    __rsub__ = _closed(int.__rsub__)
    __floordiv__ = _closed(int.__floordiv__)
    __rfloordiv__ = _closed(int.__rfloordiv__)


class LiftedFraction(Fraction):
    """A Fraction whose numerator and denominator are CountedInts, so every
    product the integer kernels form from its lifted value is counted."""

    @property
    def numerator(self):
        return CountedInt(super().numerator)

    @property
    def denominator(self):
        return CountedInt(super().denominator)


class TestZeroProductsSkipped:
    """Counts of the integer products the rational kernels form: a product
    with a zero factor is never formed, in the product, the elimination or the
    membership reduction.  An integer row is eliminated by cross-multiplying,
    p x - f y, so each entry with both x and y nonzero costs two products,
    and a row is never scaled: its content is divided out and each pivot row
    is divided by its pivot once, at the end."""

    field = QF
    counting = LiftedFraction
    N = 4
    # A product costs one per output entry.  Lifted, (the identity plus ones
    # down column 0) times 2 or times 1 has the same primitive rows, and each
    # of the N - 1 eliminations costs p x - f y in column 0 and p x on the
    # diagonal.  Membership costs p x - f y at the two nonzero entries.  A
    # power series costs one product per nonzero entry of each term.
    expected = {"dense_eye": N ** 2, "eye_dense": N ** 2, "rref_2": 3 * (N - 1),
                "rref_1": 3 * (N - 1), "membership": 4, "power_series": 2 * N}

    @pytest.fixture(autouse=True)
    def reset(self):
        Products.count = 0

    def counted(self, rows):
        return Matrix.from_rows(self.field, [[Scalar(self.field, self.counting(x)) for x in row]
                                             for row in rows])

    def dense_and_identity(self):
        n = self.N
        return (self.counted([[i * n + j + 1 for j in range(n)] for i in range(n)]),
                self.counted([[int(i == j) for j in range(n)] for i in range(n)]))

    def test_dense_times_identity(self):
        dense, eye = self.dense_and_identity()
        assert dense * eye == dense
        assert Products.count == self.expected["dense_eye"]

    def test_identity_times_dense(self):
        dense, eye = self.dense_and_identity()
        assert eye * dense == dense
        assert Products.count == self.expected["eye_dense"]

    def ones_down_column_0(self, value):
        """value times (the identity plus ones down column 0), reduced: each
        of the n - 1 eliminations has one nonzero entry to subtract."""
        n = self.N
        m = self.counted([[value if j == 0 or i == j else 0 for j in range(n)]
                          for i in range(n)])
        reduced, pivots = m.rref()
        assert reduced == Matrix.identity(self.field, n) and pivots == tuple(range(n))

    def test_rref_scales_and_eliminates_nonzero_entries_only(self):
        self.ones_down_column_0(2)
        assert Products.count == self.expected["rref_2"]

    def test_rref_leaves_unit_pivots_unscaled(self):
        self.ones_down_column_0(1)
        assert Products.count == self.expected["rref_1"]

    def test_membership_reduces_nonzero_entries_only(self):
        # the line of basis row 1: row 0 is skipped (the line is 0 at its
        # pivot), and row 1 has two nonzero entries to subtract
        basis = self.counted([[1, 0, 2, 0], [0, 1, 3, 0]])
        plane = Subspace.from_vectors(self.field, 4, [basis.row(0), basis.row(1)])
        line = Subspace.from_vectors(self.field, 4, [self.counted([[0, 5, 15, 0]]).row(0)])
        Products.count = 0
        assert plane.contains(line)
        assert Products.count == self.expected["membership"]

    def test_power_series_sums_nonzero_terms_only(self):
        # (2, 0, 3) times three identities: the zero coefficient's term and
        # the zero entries of the other two are skipped
        n = self.N
        eye = self.counted([[int(i == j) for j in range(n)] for i in range(n)])
        coeffs = self.counted([[2, 0, 3]]).row(0)
        expected = Matrix.diagonal(self.field, [5] * n)
        Products.count = 0
        assert power_series(coeffs, [eye] * 3) == expected
        assert Products.count == self.expected["power_series"]


class TestZeroProductsSkippedRaw(TestZeroProductsSkipped):
    """The same counts on the raw-value path that ratfunc takes, where each
    product of two nonzero entries is one Fraction product and a pivot row is
    scaled by 1 / pivot unless the pivot is 1."""

    field = RAW
    counting = CountedFraction
    N = TestZeroProductsSkipped.N
    expected = {"dense_eye": N ** 2, "eye_dense": N ** 2, "rref_2": N + (N - 1),
                "rref_1": N - 1, "membership": 2, "power_series": 2 * N}
