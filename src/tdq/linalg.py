"""Dense exact matrices and canonical subspaces.

Matrices act on column vectors.  A subspace is stored as the reduced
row-echelon basis of its row span (pivots 1, zero rows dropped), which makes
subspace equality a plain data comparison.  Everything is immutable and
backend-agnostic: entries are :class:`~tdq.scalars.Scalar` values from one
field.

``_products`` is the one product kernel, ``_rref_rows`` the one elimination,
``power_series`` the one linear combination of matrices, and
``Subspace.spans`` reduces vectors against the basis; that relies on the RREF
invariant, which holds as only ``Subspace.from_vectors`` and
``Subspace.zero`` build a subspace.  Each kernel asks ``_on_integers``, the
one reader of the field's backend, once per call.  Rational kernels compute
on integers: ``_lift`` puts each row or vector over the lcm of its
denominators, elimination is fraction-free (cross-multiplied, each changed
row divided by the gcd of its entries), and each output entry becomes one
``Fraction``, so one gcd normalises it.  Ratfunc kernels compute on raw
values, with the cross-cancelling arithmetic of :mod:`tdq.scalars`, and the
same elimination loop scales each pivot row to 1 and subtracts it.  No
kernel forms a product with a zero factor.

A :class:`Decomposition` owns its adapted coordinates, built once on first
use; every change to adapted coordinates reads them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

from .scalars import Scalar

__all__ = [
    "Matrix",
    "Subspace",
    "eigenspace",
    "subspace_sum",
    "subspace_intersect",
    "Decomposition",
    "is_direct_decomposition",
    "nilpotency_index",
    "matrix_powers",
    "power_series",
    "generated_algebra_dim",
]

Vector = tuple[Scalar, ...]


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows: int, cols: int, entries: Sequence[Scalar]):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(field.coerce(x) for x in row)
        return cls(field, nrows, ncols, flat)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        zero, one = field.zero, field.one
        return cls(field, n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, field, rows: int, cols: Optional[int] = None) -> "Matrix":
        cols = rows if cols is None else cols
        z = field.zero
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def diagonal(cls, field, values: Sequence[Scalar]) -> "Matrix":
        n = len(values)
        z = field.zero
        entries = [z] * (n * n)
        for i, v in enumerate(values):
            entries[i * n + i] = field.coerce(v)
        return cls(field, n, n, entries)

    # -- access --------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def render(self) -> list[list[str]]:
        return [[x.render() for x in self.row(i)] for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _require_square(self):
        if not self.is_square:
            raise ValueError("operation requires a square matrix")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(self.field, self.rows, self.cols,
                      [x + y for x, y in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(self.field, self.rows, self.cols,
                      [x - y for x, y in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, [-x for x in self.entries])

    def shift(self, lam) -> "Matrix":
        """self - lam I."""
        self._require_square()
        lam = self.field.coerce(lam)
        step = self.cols + 1
        entries = list(self.entries)
        entries[::step] = [x - lam for x in entries[::step]]
        return Matrix(self.field, self.rows, self.cols, entries)

    def _check_shape(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if (self.rows, self.cols) != (other.rows, other.cols) or self.field != other.field:
            raise ValueError("matrix shape or backend mismatch")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows or self.field != other.field:
                raise ValueError("matrix shape or backend mismatch")
            m = other.cols
            columns = _products(self, [other.entries[j::m] for j in range(m)])
            return Matrix(self.field, self.rows, m, [x for row in zip(*columns) for x in row])
        scalar = self.field.coerce(other)
        return Matrix(self.field, self.rows, self.cols, [scalar * x for x in self.entries])

    __rmul__ = __mul__  # only reached with a scalar on the left

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      [self.entries[j * self.cols + i]
                       for i in range(self.cols) for j in range(self.rows)])

    def is_zero(self) -> bool:
        return all(not x for x in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.render()!r})"

    # -- elimination -----------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and the pivot columns."""
        rows = [list(self.row(i)) for i in range(self.rows)]
        reduced, pivots = _rref_rows(rows, self.field)
        flat = [x for row in reduced for x in row]
        return Matrix(self.field, self.rows, self.cols, flat), pivots

    def inverse(self) -> "Matrix":
        """The inverse, read off the reduced form of [self | I]."""
        self._require_square()
        n = self.rows
        zero, one = self.field.zero, self.field.one
        aug = [list(self.row(i)) + [one if i == j else zero for j in range(n)] for i in range(n)]
        reduced, pivots = _rref_rows(aug, self.field)
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(self.field, n, n, [x for row in reduced for x in row[n:]])

    def kernel(self) -> "Subspace":
        """Canonical basis of the right null space {v : Mv = 0}."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free_cols = [j for j in range(self.cols) if j not in pivot_set]
        zero, one = self.field.zero, self.field.one
        vectors = []
        for free in free_cols:
            v = [zero] * self.cols
            v[free] = one
            for r, pc in enumerate(pivots):
                v[pc] = -reduced[r, free]
            vectors.append(tuple(v))
        return Subspace.from_vectors(self.field, self.cols, vectors)

    def minimal_polynomial(self) -> list[Scalar]:
        """Monic minimal polynomial coefficients, constant term first.

        The columns vec(I), vec(M), ..., vec(M^n) are dependent; the first
        non-pivot column k of their reduced form holds the coefficients of
        M^k in the lower powers.
        """
        self._require_square()
        n = self.rows
        powers = matrix_powers(self, n)
        stacked = Matrix(self.field, n * n, n + 1,
                         [p.entries[i] for i in range(n * n) for p in powers])
        reduced, pivots = stacked.rref()
        k = next(c for c in range(n + 1) if c not in pivots)
        return [-reduced[r, k] for r in range(k)] + [self.field.one]


def _on_integers(field) -> bool:
    """True when the kernels compute on the field's values lifted to integers
    by ``_lift`` (rationals); otherwise they compute on raw values."""
    return field.backend == "rational"


def _lift(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(integer numerators, lcm of the denominators) of the Fractions."""
    den = lcm(*(x.denominator for x in values))
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) if x else 0 for x in values], den


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _cross(row: list[int], pivot_row: list[int], c: int) -> list[int]:
    """The primitive integer row with row's entry at c eliminated by
    pivot_row, cross-multiplied by the two entries at c over their gcd; row[c]
    is nonzero."""
    p, f = pivot_row[c], row[c]
    g = gcd(p, f)
    p, f = p // g, f // g
    return _primitive([p * x - f * y if y else p * x if x else x
                       for x, y in zip(row, pivot_row)])


def _unit(row: list, c: int) -> list:
    """row over its entry at c, unless that entry is 1."""
    if row[c] == 1:
        return row
    inv = 1 / row[c]
    return [x * inv if x else x for x in row]


def _subtract(row: list, pivot_row: list, c: int) -> list:
    """row minus row[c] times pivot_row, whose entry at c is 1."""
    f = row[c]
    return [x - f * y if y else x for x, y in zip(row, pivot_row)]


def _products(m: Matrix, columns: Iterable[Sequence[Scalar]]) -> Iterator[Vector]:
    """m v for each column v.  m is unwrapped once, each v is kept as its
    nonzero (index, value) pairs and zero entries of m are skipped, so no
    product with a zero factor is formed; each output entry is wrapped once.
    Rational rows and columns are lifted, and an entry is one Fraction of an
    integer dot product over the two denominators."""
    field = m.field
    if _on_integers(field):
        rows = [_lift([x.raw for x in m.row(i)]) for i in range(m.rows)]
        for v in columns:
            nums, den = _lift([x.raw for x in v])
            pairs = [(t, y) for t, y in enumerate(nums) if y]
            yield tuple(Scalar(field, Fraction(sum(row[t] * y for t, y in pairs if row[t]),
                                               row_den * den))
                        for row, row_den in rows)
        return
    rows = [[x.raw for x in m.row(i)] for i in range(m.rows)]
    zero = field.zero.raw
    for v in columns:
        pairs = [(t, y) for t, y in enumerate(x.raw for x in v) if y]
        yield tuple(Scalar(field, sum((row[t] * y for t, y in pairs if row[t]), zero))
                    for row in rows)


def _rref_rows(rows: list[list[Scalar]], field) -> tuple[list[list[Scalar]], tuple[int, ...]]:
    """The reduced row-echelon form of the rows (zero rows kept; the rows
    given are not changed) and its pivot columns.  Each pivot is the first
    nonzero entry at or below the current row; zero entries are never
    multiplied.  Rational rows are lifted to primitive integer rows,
    eliminated by ``_cross`` and divided by their pivots once, at the end (the
    reduced form is unique, so Fraction arithmetic gives the same); other rows
    are eliminated on raw values by ``_subtract`` after ``_unit``."""
    if _on_integers(field):
        rows = [_primitive(_lift([x.raw for x in row])[0]) for row in rows]
        scale, eliminate, read = None, _cross, Fraction
    else:
        rows = [[x.raw for x in row] for row in rows]
        scale, eliminate, read = _unit, _subtract, (lambda x, pivot: x)
    nrows = len(rows)
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if scale:
            rows[r] = scale(rows[r], c)
        for i in range(nrows):
            if i != r and rows[i][c]:
                rows[i] = eliminate(rows[i], rows[r], c)
        pivots.append(c)
    zero = field.zero
    reduced = [[Scalar(field, read(x, row[c])) if x else zero for x in row]
               for row, c in zip(rows, pivots)]
    return reduced + [[zero] * len(row) for row in rows[len(pivots):]], tuple(pivots)


class Subspace:
    """A subspace of column vectors, stored as an RREF row basis."""

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field, ambient: int, basis: tuple[Vector, ...]):
        self.field = field
        self.ambient = ambient
        self.basis = basis

    @classmethod
    def from_vectors(cls, field, ambient: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        rows = [list(field.coerce(x) for x in v) for v in vectors]
        for row in rows:
            if len(row) != ambient:
                raise ValueError("vector length does not match the ambient dimension")
        reduced, pivots = _rref_rows(rows, field)
        basis = tuple(tuple(reduced[i]) for i in range(len(pivots)))
        return cls(field, ambient, basis)

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def render(self) -> list[list[str]]:
        return [[x.render() for x in row] for row in self.basis]

    def spans(self, vectors: Iterable[Sequence[Scalar]]) -> bool:
        """True when every vector reduces to zero against the RREF basis, row
        by row at each row's pivot: by ``_cross`` once rationals are lifted,
        otherwise by ``_subtract``, since each pivot is 1."""
        if _on_integers(self.field):
            unwrap, reduce = (lambda raws: _lift(raws)[0]), _cross
        else:
            unwrap, reduce = list, _subtract
        basis = [unwrap([x.raw for x in row]) for row in self.basis]
        pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
        for v in vectors:
            if len(v) != self.ambient or any(x.field != self.field for x in v):
                raise ValueError("vector length or backend mismatch")
            v = unwrap([x.raw for x in v])
            for p, row in zip(pivots, basis):
                if v[p]:
                    v = reduce(v, row, p)
            if any(v):
                return False
        return True

    def contains(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient or other.field != self.field:
            raise ValueError("ambient dimension or backend mismatch")
        return self.spans(other.basis)

    def image(self, m: Matrix) -> "Subspace":
        """The subspace {m v : v in self}."""
        if m.cols != self.ambient or m.field != self.field:
            raise ValueError("shape or backend mismatch")
        return Subspace.from_vectors(self.field, m.rows, _products(m, self.basis))


def subspace_sum(spaces: Sequence[Subspace]) -> Subspace:
    spaces = list(spaces)
    if not spaces:
        raise ValueError("need at least one subspace")
    ambient = spaces[0].ambient
    field = spaces[0].field
    vectors = []
    for s in spaces:
        if s.ambient != ambient or s.field != field:
            raise ValueError("ambient dimension or backend mismatch")
        vectors.extend(s.basis)
    return Subspace.from_vectors(field, ambient, vectors)


def _running_sums(spaces: Sequence[Subspace]) -> tuple[Subspace, ...]:
    """Sum i is spaces[0] + ... + spaces[i], built as sum i-1 plus spaces[i]."""
    out: list[Subspace] = []
    for space in spaces:
        out.append(subspace_sum(out[-1:] + [space]))
    return tuple(out)


class Decomposition(tuple):
    """An ordered sequence of subspaces V_0, ..., V_d of one space.

    Its flags (V_0 + ... + V_i) and tails (V_i + ... + V_d) are built once,
    incrementally, on first use, and kept on the instance; so are its adapted
    coordinates (``basis``, ``coordinates`` and ``blocks``).  Decomposition(d)
    is d itself when d is a Decomposition, so what d has built is kept.
    """

    def __new__(cls, spaces: Iterable[Subspace] = ()):
        return spaces if isinstance(spaces, cls) else super().__new__(cls, spaces)

    @cached_property
    def flags(self) -> tuple[Subspace, ...]:
        return _running_sums(self)

    @cached_property
    def tails(self) -> tuple[Subspace, ...]:
        return _running_sums(self[::-1])[::-1]

    @cached_property
    def basis(self) -> Matrix:
        """The matrix whose columns are the bases of V_0, ..., V_d, in order."""
        return Matrix.from_rows(self[0].field, [v for s in self for v in s.basis]).transpose()

    @cached_property
    def coordinates(self) -> Matrix:
        """The inverse of ``basis``: a vector's coordinates along the V_i.
        ValueError when the decomposition is not direct."""
        return self.basis.inverse()

    @cached_property
    def blocks(self) -> tuple[range, ...]:
        """The index range of each V_i in the adapted coordinates."""
        ends = list(accumulate((s.dim for s in self), initial=0))
        return tuple(map(range, ends, ends[1:]))

    def at(self, i: int) -> Subspace:
        """V_i, and the zero subspace outside 0..d."""
        return self[i] if 0 <= i < len(self) else Subspace.zero(self[0].field, self[0].ambient)

    def flag(self, i: int) -> Subspace:
        """V_0 + ... + V_i, and the zero subspace for i < 0."""
        return self.flags[i] if i >= 0 else self.at(i)


def subspace_intersect(x: Subspace, y: Subspace) -> Subspace:
    """Intersection via the Zassenhaus trick: row-reduce [X|X; Y|0] and read
    the right half of the rows whose left half became zero."""
    if x.ambient != y.ambient or x.field != y.field:
        raise ValueError("ambient dimension or backend mismatch")
    n = x.ambient
    field = x.field
    zero = field.zero
    rows = [list(r) + list(r) for r in x.basis]
    rows += [list(r) + [zero] * n for r in y.basis]
    if not rows:
        return Subspace.zero(field, n)
    reduced, _ = _rref_rows(rows, field)
    vectors = []
    for row in reduced:
        if all(not v for v in row[:n]):
            right = row[n:]
            if any(right):
                vectors.append(tuple(right))
    return Subspace.from_vectors(field, n, vectors)


def eigenspace(m: Matrix, value: Scalar) -> Subspace:
    """Canonical basis of ker(m - value*I); may be zero-dimensional."""
    return m.shift(value).kernel()


def is_direct_decomposition(spaces: Sequence[Subspace]) -> bool:
    """True when the subspaces are all nonzero, their dimensions sum to the
    ambient dimension, and their sum, the last flag of their
    :class:`Decomposition`, is the full space."""
    if not spaces:
        return False
    ambient = spaces[0].ambient
    if any(s.is_zero() for s in spaces):
        return False
    if sum(s.dim for s in spaces) != ambient:
        return False
    return Decomposition(spaces).flags[-1].dim == ambient


def nilpotency_index(m: Matrix) -> Optional[int]:
    """Least k <= n with m^k = 0, or None when m is not nilpotent."""
    m._require_square()
    return next((k for k, p in enumerate(matrix_powers(m, m.rows)) if p.is_zero()), None)


def matrix_powers(m: Matrix, count: int) -> tuple[Matrix, ...]:
    """I, m, m^2, ..., m^count."""
    powers = [Matrix.identity(m.field, m.rows), m][:count + 1]
    while len(powers) <= count:
        powers.append(powers[-1] * m)
    return tuple(powers)


def power_series(coeffs: Sequence[Scalar], powers: Sequence[Matrix]) -> Matrix:
    """sum_n coeffs[n] powers[n], over the shorter of the two sequences.  Each
    power with a nonzero coefficient is lifted (raw values lift over 1), its
    coefficient over its denominator is lifted with the others over one lcm,
    and each entry sums the nonzero entries' products only."""
    pairs = list(zip(coeffs, powers))
    first = pairs[0][1]
    field = first.field
    if any((p.rows, p.cols, p.field) != (first.rows, first.cols, field) for _, p in pairs):
        raise ValueError("matrix shape or backend mismatch")
    if _on_integers(field):
        lift, start, read = _lift, 0, Fraction
    else:
        lift, start, read = (lambda values: (values, 1)), field.zero.raw, (lambda t, den: t)
    lifted = [(c.raw, *lift([x.raw for x in p.entries])) for c, p in pairs if c]
    scales, den = lift([c / power_den if power_den != 1 else c for c, _, power_den in lifted])
    terms = [(s, nums) for s, (_, nums, _) in zip(scales, lifted)]
    sums = (sum((s * nums[k] for s, nums in terms if nums[k]), start)
            for k in range(len(first.entries)))
    zero = field.zero
    return Matrix(field, first.rows, first.cols,
                  [Scalar(field, read(t, den)) if t else zero for t in sums])


def generated_algebra_dim(mats: Sequence[Matrix]) -> int:
    """Dimension of the unital algebra generated by the matrices.

    The span of I is grown by right-multiplying each of its basis elements by
    each generator until it stops growing.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].rows
    field = mats[0].field
    for m in mats:
        m._require_square()
        if m.rows != n or m.field != field:
            raise ValueError("size or backend mismatch")
    span = Subspace.from_vectors(field, n * n, [Matrix.identity(field, n).entries])
    while True:
        words = [Matrix(field, n, n, v) for v in span.basis]
        grown = Subspace.from_vectors(
            field, n * n, list(span.basis) + [(w * g).entries for w in words for g in mats])
        if grown.dim == span.dim:
            return span.dim
        span = grown
