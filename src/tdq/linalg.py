"""Dense exact matrices and canonical subspaces.

Matrices act on column vectors.  A subspace is stored as the reduced
row-echelon basis of its row span (pivots 1, zero rows dropped), which makes
subspace equality a plain data comparison.  Everything is immutable and
backend-agnostic: entries are :class:`~tdq.scalars.Scalar` values from one
field.
"""

from __future__ import annotations

from functools import cached_property
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
            n, m, k = self.rows, other.cols, self.cols
            a, b = self.entries, other.entries
            zero = self.field.zero
            out = []
            for i in range(n):
                arow = a[i * k : (i + 1) * k]
                for j in range(m):
                    acc = zero
                    for t in range(k):
                        x = arow[t]
                        if x:
                            acc = acc + x * b[t * m + j]
                    out.append(acc)
            return Matrix(self.field, n, m, out)
        scalar = self.field.coerce(other)
        return Matrix(self.field, self.rows, self.cols, [scalar * x for x in self.entries])

    __rmul__ = __mul__  # only reached with a scalar on the left

    def __pow__(self, exponent: int) -> "Matrix":
        self._require_square()
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Matrix.identity(self.field, self.rows)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def mul_vector(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        zero = self.field.zero
        out = []
        for i in range(self.rows):
            acc = zero
            row = self.row(i)
            for x, y in zip(row, v):
                if x and y:
                    acc = acc + x * y
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      [self.entries[j * self.cols + i]
                       for i in range(self.cols) for j in range(self.rows)])

    def trace(self) -> Scalar:
        self._require_square()
        acc = self.field.zero
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

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

    def det(self) -> Scalar:
        self._require_square()
        n = self.rows
        rows = [list(self.row(i)) for i in range(n)]
        det = self.field.one
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if rows[r][col]:
                    pivot_row = r
                    break
            if pivot_row is None:
                return self.field.zero
            if pivot_row != col:
                rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
                det = -det
            pivot = rows[col][col]
            det = det * pivot
            inv = pivot ** -1
            for r in range(col + 1, n):
                factor = rows[r][col]
                if factor:
                    factor = factor * inv
                    rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
        return det

    def inverse(self) -> "Matrix":
        self._require_square()
        n = self.rows
        zero, one = self.field.zero, self.field.one
        aug = [list(self.row(i)) + [one if i == j else zero for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if aug[r][col]:
                    pivot_row = r
                    break
            if pivot_row is None:
                raise ValueError("matrix is singular")
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            inv = aug[col][col] ** -1
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    factor = aug[r][col]
                    aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
        return Matrix(self.field, n, n, [x for row in aug for x in row[n:]])

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
        """Monic minimal polynomial coefficients, constant term first."""
        self._require_square()
        n = self.rows
        acc = _RowAccumulator(self.field, n * n, track=True)
        power = Matrix.identity(self.field, n)
        k = 0
        while True:
            combo = acc.add(power.entries)
            if combo is not None:
                # vec(A^k) = sum_j combo[j] vec(A^j): monic coefficients
                coeffs = [-c for c in combo] + [self.field.one]
                return coeffs
            power = power * self
            k += 1
            if k > n:
                raise RuntimeError("minimal polynomial search exceeded the dimension")


def _rref_rows(rows: list[list[Scalar]], field) -> tuple[list[list[Scalar]], tuple[int, ...]]:
    if not rows:
        return rows, ()
    ncols = len(rows[0])
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c] ** -1
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, tuple(pivots)


class _RowAccumulator:
    """Incrementally reduced row span, optionally tracking combinations.

    With track=True, add() returns the coefficients expressing a dependent
    vector in terms of the previously added ones (in insertion order), or
    None when the vector was independent and got added.
    """

    def __init__(self, field, width: int, track: bool = False):
        self.field = field
        self.width = width
        self.track = track
        self.rows: list[list[Scalar]] = []   # reduced, pivot-normalized
        self.tails: list[list[Scalar]] = []  # combination bookkeeping
        self.pivots: list[int] = []
        self.count = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vector: Sequence[Scalar]):
        row = list(vector)
        tail = []
        if self.track:
            zero, one = self.field.zero, self.field.one
            tail = [zero] * self.count + [one]
            for t in self.tails:
                t.append(zero)
        self.count += 1
        for i, p in enumerate(self.pivots):
            if row[p]:
                factor = row[p]
                row = [x - factor * y for x, y in zip(row, self.rows[i])]
                if self.track:
                    tail = [x - factor * y for x, y in zip(tail, self.tails[i])]
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is None:
            if self.track:
                # vector = -sum(tail[j] * original_j) for j < count-1
                return [-c for c in tail[:-1]]
            return ()
        inv = row[pivot] ** -1
        row = [x * inv for x in row]
        if self.track:
            tail = [x * inv for x in tail]
        for i in range(len(self.rows)):
            if self.rows[i][pivot]:
                factor = self.rows[i][pivot]
                self.rows[i] = [x - factor * y for x, y in zip(self.rows[i], row)]
                if self.track:
                    self.tails[i] = [x - factor * y for x, y in zip(self.tails[i], tail)]
        self.rows.append(row)
        self.tails.append(tail)
        self.pivots.append(pivot)
        return None


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

    @classmethod
    def full(cls, field, ambient: int) -> "Subspace":
        eye = Matrix.identity(field, ambient)
        return cls(field, ambient, tuple(eye.row(i) for i in range(ambient)))

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

    def contains(self, other: "Subspace") -> bool:
        return subspace_sum([self, other]) == self

    def image(self, m: Matrix) -> "Subspace":
        """The subspace {m v : v in self}."""
        if m.cols != self.ambient:
            raise ValueError("shape mismatch")
        return Subspace.from_vectors(self.field, m.rows,
                                     [m.mul_vector(row) for row in self.basis])


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
    incrementally, on first use, and kept on the instance.
    """

    @cached_property
    def flags(self) -> tuple[Subspace, ...]:
        return _running_sums(self)

    @cached_property
    def tails(self) -> tuple[Subspace, ...]:
        return _running_sums(self[::-1])[::-1]

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
    ambient dimension, and their sum is the full space."""
    if not spaces:
        return False
    ambient = spaces[0].ambient
    if any(s.is_zero() for s in spaces):
        return False
    if sum(s.dim for s in spaces) != ambient:
        return False
    return subspace_sum(spaces).dim == ambient


def nilpotency_index(m: Matrix) -> Optional[int]:
    """Least k <= n with m^k = 0, or None when m is not nilpotent."""
    m._require_square()
    power = m
    for k in range(1, m.rows + 1):
        if power.is_zero():
            return k
        power = power * m
    return None


def matrix_powers(m: Matrix, count: int) -> tuple[Matrix, ...]:
    """I, m, m^2, ..., m^count."""
    powers = [Matrix.identity(m.field, m.rows)]
    for _ in range(count):
        powers.append(powers[-1] * m)
    return tuple(powers)


def power_series(coeffs: Sequence[Scalar], powers: Sequence[Matrix]) -> Matrix:
    """sum_n coeffs[n] powers[n], over the shorter of the two sequences."""
    terms = [c * p for c, p in zip(coeffs, powers)]
    return sum(terms[1:], terms[0])


def generated_algebra_dim(mats: Sequence[Matrix]) -> int:
    """Dimension of the unital algebra generated by the matrices.

    Words are added by increasing length until the span stabilizes.
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
    acc = _RowAccumulator(field, n * n)
    identity = Matrix.identity(field, n)
    acc.add(identity.entries)
    frontier = [identity]
    while frontier:
        next_frontier = []
        for word in frontier:
            for gen in mats:
                candidate = word * gen
                if acc.add(candidate.entries) is None:
                    next_frontier.append(candidate)
        frontier = next_frontier
    return acc.rank
