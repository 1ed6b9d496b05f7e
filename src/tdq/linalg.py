"""Dense exact matrices and canonical subspaces.

Matrices act on column vectors.  A subspace is stored as the reduced
row-echelon form of its row span (zero rows dropped), which makes subspace
equality a plain data comparison.  Everything is immutable and
backend-agnostic: entries are :class:`~tdq.scalars.Scalar` values from one
field.

A matrix or subspace keeps one of two forms, picked by ``_on_integers``, the
one reader of the field's backend.  On the rational backend a matrix is
canonical and integer: row-major integer numerators over one positive
denominator, with no common factor, so equal matrices have equal forms, and a
subspace keeps primitive integer rows with positive pivots.  On other
backends both keep raw values (sympy fractions for ratfunc), and a subspace's
pivots are 1.  Arithmetic, comparison, hashing and elimination run on the
form; the Scalar entries of a matrix and the Scalar basis of a subspace are
built on first read, one ``Fraction`` per entry on the rational backend.

``_apply`` is the one product kernel, ``_rref_rows`` the one elimination,
``power_series`` the one linear combination of matrices, and
``Subspace._holds``, which reduces value rows against the stored rows, the
one membership test; that relies on the RREF invariant, which holds as only
``_rref_rows`` builds a subspace's rows.
Integer elimination is fraction-free (cross-multiplied, each changed row
divided by the gcd of its entries), and an integer result is divided by one
gcd of its denominator and numerators.  Raw elimination, with the
cross-cancelling arithmetic of :mod:`tdq.scalars`, scales each pivot row to 1
and subtracts it.  No kernel forms a product with a zero factor.

A :class:`Decomposition` owns its adapted coordinates, built once on first
use; every change to adapted coordinates reads them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

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
    """A rows x cols matrix over one field, in one of two forms.

    On the rational backend ``nums`` holds the row-major integer numerators
    over one denominator ``den`` > 0, with gcd(den, *nums) = 1; the lcm of
    the entries' reduced denominators gives that, so equal matrices have
    equal forms.  On other backends ``nums`` holds the row-major raw values
    and ``den`` is None; ``den`` is the one backend test a method makes.
    Every operation computes on the form and returns a matrix in it.
    ``entries``, the row-major tuple of Scalars, is built on first read
    (``render``, ``row``, ``[i, j]``).
    """

    __slots__ = ("field", "rows", "cols", "nums", "den", "_entries")

    def __init__(self, field, rows: int, cols: int, entries: Sequence[Scalar]):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the shape")
        raws = [x.raw for x in entries]
        self.field, self.rows, self.cols, self._entries = field, rows, cols, entries
        self.nums, self.den = _lift(raws) if _on_integers(field) else (raws, None)

    def _built(self, rows: int, cols: int, nums: list, den: Optional[int]) -> "Matrix":
        """A rows x cols matrix over self's field with the given form, which
        must be canonical."""
        m = Matrix.__new__(Matrix)
        m.field, m.rows, m.cols, m.nums, m.den, m._entries = self.field, rows, cols, nums, den, None
        return m

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

    @property
    def entries(self) -> Vector:
        if self._entries is None:
            field, den, zero = self.field, self.den, self.field.zero
            if den is None:
                self._entries = tuple(Scalar(field, x) for x in self.nums)
            else:
                self._entries = tuple(Scalar(field, Fraction(x, den)) if x else zero
                                      for x in self.nums)
        return self._entries

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def render(self) -> list[list[str]]:
        return [[x.render() for x in self.row(i)] for i in range(self.rows)]

    def _value_rows(self) -> list[list]:
        """The rows of ``nums``, as new lists."""
        c = self.cols
        return [self.nums[i * c : (i + 1) * c] for i in range(self.rows)]

    def _one_zero(self) -> tuple:
        """1 and 0 in self's form: den and 0 over den, raw values otherwise."""
        if self.den is None:
            return self.field.one.raw, self.field.zero.raw
        return self.den, 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _require_square(self):
        if not self.is_square:
            raise ValueError("operation requires a square matrix")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        x, y, den = self._aligned(other)
        return self._built(self.rows, self.cols, *_canonical([s + t for s, t in zip(x, y)], den))

    def __sub__(self, other: "Matrix") -> "Matrix":
        x, y, den = self._aligned(other)
        return self._built(self.rows, self.cols, *_canonical([s - t for s, t in zip(x, y)], den))

    def __neg__(self) -> "Matrix":
        return self._built(self.rows, self.cols, [-x for x in self.nums], self.den)

    def _aligned(self, other: "Matrix") -> tuple[list, list, Optional[int]]:
        """self's and other's values over one denominator, the lcm of theirs,
        and that denominator; raw values and None off the integer form."""
        self._check_shape(other)
        if self.den is None:
            return self.nums, other.nums, None
        den = lcm(self.den, other.den)
        return _scaled(self.nums, den // self.den), _scaled(other.nums, den // other.den), den

    def shift(self, lam) -> "Matrix":
        """self - lam I."""
        self._require_square()
        lam, den = self.field.coerce(lam).raw, self.den
        if den is None:
            nums = list(self.nums)
        else:
            den = lcm(den, lam.denominator)
            nums = _scaled(self.nums, den // self.den)
            lam = lam.numerator * (den // lam.denominator)
        step = self.cols + 1
        nums[::step] = [x - lam for x in nums[::step]]
        return self._built(self.rows, self.cols, *_canonical(nums, den))

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
            columns = _apply(self, [other.nums[j::m] for j in range(m)])
            nums = [x for row in zip(*columns) for x in row]
            den = None if self.den is None else self.den * other.den
            return self._built(self.rows, m, *_canonical(nums, den))
        c = self.field.coerce(other).raw
        if self.den is None:
            return self._built(self.rows, self.cols, [c * x if x else x for x in self.nums], None)
        # with c = p/q in lowest terms, gcd(p, den) and gcd(q, *nums) are all
        # that cancels, as gcd(den, *nums) = 1
        g, h = gcd(c.numerator, self.den), gcd(c.denominator, *self.nums)
        nums = [x // h for x in self.nums] if h > 1 else self.nums
        return self._built(self.rows, self.cols, _scaled(nums, c.numerator // g),
                           self.den // g * (c.denominator // h))

    __rmul__ = __mul__  # only reached with a scalar on the left

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.den, tuple(self.nums)))

    def __repr__(self):
        return f"Matrix({self.render()!r})"

    # -- elimination -----------------------------------------------------------

    def _over_leads(self, rows: list[list], leads: Sequence) -> "Matrix":
        """The matrix of eliminated rows in self's form: the first len(leads)
        rows each over its lead, the pivot value ``_rref_rows`` left in it, and
        zero rows after them.  Integer rows are put over the lcm of the leads;
        each is primitive, so that form is canonical.  Raw leads are 1."""
        den = None if self.den is None else lcm(*leads)
        if den is not None:
            rows = [_scaled(row, den // lead) for row, lead in zip(rows, leads)] + rows[len(leads):]
        return self._built(len(rows), len(rows[0]), [x for row in rows for x in row], den)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and the pivot columns."""
        reduced, pivots = _rref_rows(self._value_rows(), self.field)
        return self._over_leads(reduced, [row[c] for row, c in zip(reduced, pivots)]), pivots

    def inverse(self) -> "Matrix":
        """The inverse, read off the reduced form of [self | I], which is
        [nums | den I] on the integer form."""
        self._require_square()
        n = self.rows
        one, zero = self._one_zero()
        aug = [row + [one if i == j else zero for j in range(n)]
               for i, row in enumerate(self._value_rows())]
        reduced, pivots = _rref_rows(aug, self.field)
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return self._over_leads([row[n:] for row in reduced],
                                [row[i] for i, row in enumerate(reduced)])

    def kernel(self) -> "Subspace":
        """Canonical basis of the right null space {v : Mv = 0}."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free_cols = [j for j in range(self.cols) if j not in pivot_set]
        one, zero = reduced._one_zero()
        vectors = []
        for free in free_cols:
            v = [zero] * self.cols
            v[free] = one
            for r, pc in enumerate(pivots):
                v[pc] = -reduced.nums[r * self.cols + free]
            vectors.append(v)
        return Subspace._from_rows(self.field, self.cols, vectors)

    def minimal_polynomial(self) -> list[Scalar]:
        """Monic minimal polynomial coefficients, constant term first.

        The columns vec(I), vec(M), ..., vec(M^n) are dependent; the first
        non-pivot column k of their reduced form holds the coefficients of
        M^k in the lower powers.
        """
        self._require_square()
        n = self.rows
        powers = matrix_powers(self, n)
        if self.den is None:
            den, columns = None, [p.nums for p in powers]
        else:
            den = lcm(*(p.den for p in powers))
            columns = [_scaled(p.nums, den // p.den) for p in powers]
        stacked = self._built(n * n, n + 1, *_canonical(
            [c[i] for i in range(n * n) for c in columns], den))
        reduced, pivots = stacked.rref()
        k = next(c for c in range(n + 1) if c not in pivots)
        return [-reduced[r, k] for r in range(k)] + [self.field.one]


def _on_integers(field) -> bool:
    """True when matrices and subspaces over the field keep integer values
    lifted by ``_lift`` (rationals); otherwise they keep raw values."""
    return field.backend == "rational"


def _lift(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(integer numerators, lcm of the denominators) of the Fractions."""
    den = lcm(*(x.denominator for x in values))
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) if x else 0 for x in values], den


def _canonical(nums: list, den: Optional[int]) -> tuple[list, Optional[int]]:
    """nums over den divided by gcd(den, *nums); raw values (den None) as
    they are."""
    if den is None:
        return nums, den
    g = gcd(den, *nums)
    return ([x // g for x in nums], den // g) if g > 1 else (nums, den)


def _scaled(values: Sequence[int], factor: int) -> list[int]:
    """A new list of the values times factor, no zero multiplied and nothing
    multiplied by 1."""
    if factor == 1:
        return list(values)
    return [x * factor if x else x for x in values]


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


def _apply(m: Matrix, vectors: Iterable[Sequence]) -> list[list]:
    """m's values times each value vector v.  Each v is kept as its nonzero
    (index, value) pairs and zero entries of m are skipped, so no product with
    a zero factor is formed.  On the integer form each result is m v times
    m.den."""
    rows = m._value_rows()
    zero = m._one_zero()[1]
    out = []
    for v in vectors:
        pairs = [(t, y) for t, y in enumerate(v) if y]
        out.append([sum((row[t] * y for t, y in pairs if row[t]), zero) for row in rows])
    return out


def _rref_rows(rows: list[list], field) -> tuple[list[list], tuple[int, ...]]:
    """The reduced row-echelon form of value rows (zero rows kept; the rows
    given are not changed) and its pivot columns.  Each pivot is the first
    nonzero entry at or below the current row; zero entries are never
    multiplied.  Integer rows (the rational backend) are made primitive,
    eliminated by ``_cross`` and not divided by their pivots; each pivot is
    made positive, so the rows are unique to the row span.  Raw rows are
    eliminated by ``_subtract`` after ``_unit`` scales each pivot row to 1."""
    integers = _on_integers(field)
    if integers:
        rows, scale, eliminate = [_primitive(row) for row in rows], None, _cross
    else:
        rows, scale, eliminate = list(rows), _unit, _subtract
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
    if integers:
        for r, c in enumerate(pivots):
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
    return rows, tuple(pivots)


class Subspace:
    """A subspace of column vectors, stored as the nonzero rows of a reduced
    row-echelon form of a spanning set: ``rows``, as ``_rref_rows`` leaves
    them, and their ``pivots``.  Those rows are unique to the subspace, so
    equality compares them, and ``_holds``, the one membership test, reduces
    against them as they are.  ``basis``, the rows over their pivots as
    Scalar vectors, is built on first read."""

    __slots__ = ("field", "ambient", "rows", "pivots", "_basis")

    def __init__(self, field, ambient: int, rows: tuple[list, ...], pivots: tuple[int, ...]):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self._basis = None

    @classmethod
    def _from_rows(cls, field, ambient: int, rows: list[list]) -> "Subspace":
        """The span of value rows: integer rows on the rational backend, raw
        rows otherwise."""
        reduced, pivots = _rref_rows(rows, field)
        return cls(field, ambient, tuple(reduced[: len(pivots)]), pivots)

    @classmethod
    def from_vectors(cls, field, ambient: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        """The span of vectors of field values, each as a value row: its
        numerators over the lcm of its denominators on integers, else raws."""
        rows = []
        for v in vectors:
            raws = [field.coerce(x).raw for x in v]
            if len(raws) != ambient:
                raise ValueError("vector length does not match the ambient dimension")
            rows.append(_lift(raws)[0] if _on_integers(field) else raws)
        return cls._from_rows(field, ambient, rows)

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient, (), ())

    @property
    def basis(self) -> tuple[Vector, ...]:
        if self._basis is None:
            field, zero = self.field, self.field.zero
            read = Fraction if _on_integers(field) else (lambda x, pivot: x)
            self._basis = tuple(tuple(Scalar(field, read(x, row[c])) if x else zero for x in row)
                                for row, c in zip(self.rows, self.pivots))
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ambient, tuple(map(tuple, self.rows))))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def render(self) -> list[list[str]]:
        return [[x.render() for x in row] for row in self.basis]

    def _holds(self, rows: Iterable[list]) -> bool:
        """True when every value row in self's form, or a multiple of it,
        reduces to zero against the rows at each row's pivot: by ``_cross``
        on integers, otherwise by ``_subtract``, since each pivot is 1."""
        reduce = _cross if _on_integers(self.field) else _subtract
        for v in rows:
            for p, row in zip(self.pivots, self.rows):
                if v[p]:
                    v = reduce(v, row, p)
            if any(v):
                return False
        return True

    def contains(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient or other.field != self.field:
            raise ValueError("ambient dimension or backend mismatch")
        return self._holds(other.rows)

    def maps_into(self, m: Matrix, target: "Subspace") -> bool:
        """True when m maps self into target: m times each of self's rows,
        by ``_apply`` (times m.den on the integer form), lies in target."""
        if (m.cols, m.rows) != (self.ambient, target.ambient) or not (
                m.field == self.field == target.field):
            raise ValueError("shape or backend mismatch")
        return target._holds(_apply(m, self.rows))

    def image(self, m: Matrix) -> "Subspace":
        """The subspace {m v : v in self}."""
        if m.cols != self.ambient or m.field != self.field:
            raise ValueError("shape or backend mismatch")
        return Subspace._from_rows(self.field, m.rows, _apply(m, self.rows))


def subspace_sum(spaces: Sequence[Subspace]) -> Subspace:
    spaces = list(spaces)
    if not spaces:
        raise ValueError("need at least one subspace")
    ambient = spaces[0].ambient
    field = spaces[0].field
    for s in spaces:
        if s.ambient != ambient or s.field != field:
            raise ValueError("ambient dimension or backend mismatch")
    return Subspace._from_rows(field, ambient, [row for s in spaces for row in s.rows])


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
        """The matrix whose columns are the stored rows of V_0, ..., V_d, in
        order: each V_i's basis vectors times their pivots."""
        rows = [row for s in self for row in s.rows]
        n, unit = self[0].ambient, Matrix.identity(self[0].field, 1)
        return unit._built(n, len(rows), [row[j] for j in range(n) for row in rows], unit.den)

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
    zero = 0 if _on_integers(field) else field.zero.raw
    rows = [row + row for row in x.rows] + [row + [zero] * n for row in y.rows]
    if not rows:
        return Subspace.zero(field, n)
    reduced, _ = _rref_rows(rows, field)
    return Subspace._from_rows(field, n, [row[n:] for row in reduced
                                          if not any(row[:n]) and any(row[n:])])


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
    """sum_n coeffs[n] powers[n], over the shorter of the two sequences.  On
    the integer form each nonzero coefficient over its power's denominator is
    lifted with the others over one lcm; each entry sums the nonzero entries'
    products only."""
    pairs = list(zip(coeffs, powers))
    first = pairs[0][1]
    if any((p.rows, p.cols, p.field) != (first.rows, first.cols, first.field) for _, p in pairs):
        raise ValueError("matrix shape or backend mismatch")
    terms = [(c.raw, p) for c, p in pairs if c]
    if first.den is None:
        scales, den = [c for c, _ in terms], None
    else:
        scales, den = _lift([c / p.den if p.den != 1 else c for c, p in terms])
    zero = first._one_zero()[1]
    terms = [(s, p.nums) for s, (_, p) in zip(scales, terms)]
    sums = [sum((s * nums[k] for s, nums in terms if nums[k]), zero)
            for k in range(len(first.nums))]
    return first._built(first.rows, first.cols, *_canonical(sums, den))


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
    one = Matrix.identity(field, n)
    span = Subspace._from_rows(field, n * n, [one.nums])
    while True:
        words = [one._built(n, n, row, one.den) for row in span.rows]
        grown = Subspace._from_rows(
            field, n * n, list(span.rows) + [(w * g).nums for w in words for g in mats])
        if grown.dim == span.dim:
            return span.dim
        span = grown
