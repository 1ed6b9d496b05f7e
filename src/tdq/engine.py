"""Reconstruction of the operator suite from raw matrices.

Starting from (A, K) or (A, A*), this module recovers the split
decompositions, the lowering operator psi, the averaged operator M with its
eigenspace decomposition {W_i}, and the transition operator Delta computed
along three independent routes that must agree exactly.  Everything downstream
of the input matrices follows the defining formulas, not closed forms, so the
derived suite is fit material for the identity battery.

The suite keeps what was derived on the way, for the battery to read: the
flags of its decompositions and the power series and q-exponentials of psi
(see :class:`OperatorSuite`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .linalg import (
    Decomposition,
    Matrix,
    Subspace,
    eigenspace,
    generated_algebra_dim,
    is_direct_decomposition,
    matrix_powers,
    power_series,
    subspace_intersect,
    subspace_sum,  # noqa: F401  (perfbench/tracer.py wraps this binding by name)
)
from .params import QRacahParams, theta_sequence
from .qcalc import QExpVariant, q_exp
from .scalars import Scalar

__all__ = [
    "EngineError",
    "NotQRacahError",
    "CrossRouteError",
    "DetectionResult",
    "detect_qracah",
    "SplitData",
    "split_from_pair",
    "split_from_AK",
    "build_KB",
    "psi_from_KB",
    "delta_series_coefficients",
    "delta_from_characterization",
    "PsiSeries",
    "OperatorSuite",
    "derive_suite",
    "downarrow",
    "validate_axioms",
    "AxiomReport",
]


class EngineError(ValueError):
    """A mathematical failure of the reconstruction pipeline."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class NotQRacahError(EngineError):
    """The eigenvalue data does not fit the two-parameter exponential form."""


class CrossRouteError(EngineError):
    """Two independent computations of the same object disagree."""

    def __init__(self, message: str, lhs: Matrix, rhs: Matrix):
        super().__init__("cross-route-mismatch", message)
        self.lhs = lhs
        self.rhs = rhs


# ---------------------------------------------------------------------------
# parameter detection from an eigenvalue sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectionResult:
    """All (q, a) solutions in the working field, sorted canonically.

    The solution set is closed under (q, a) -> (1/q, 1/a); the first entry is
    the deterministic representative (lexicographically smallest rendering).
    """

    solutions: tuple[tuple[Scalar, Scalar], ...]

    @property
    def representative(self) -> tuple[Scalar, Scalar]:
        return self.solutions[0]

    def contains(self, q: Scalar, a: Scalar) -> bool:
        return any(sq == q and sa == a for sq, sa in self.solutions)


def detect_qracah(thetas: Sequence[Scalar]) -> DetectionResult:
    """Find every (q, a) with theta_i = a q^(d-2i) + a^-1 q^(2i-d).

    Raises NotQRacahError when the sequence cannot be matched: the three-term
    recurrence theta_(i-1) + theta_(i+1) = (q^2 + q^-2) theta_i is
    inconsistent, the quadratic for q^2 has no root in the field, or q^4 = 1
    is forced.
    """
    thetas = [t for t in thetas]
    if len(thetas) < 2:
        raise ValueError("need at least two eigenvalues")
    field = thetas[0].field
    if len(set(thetas)) != len(thetas):
        raise ValueError("eigenvalues must be mutually distinct")
    d = len(thetas) - 1

    if d == 1:
        candidates = _detect_diameter_one(thetas, field)
    else:
        candidates = _detect_recurrence(thetas, field, d)

    verified: dict[tuple[str, str], tuple[Scalar, Scalar]] = {}
    one = field.one
    for q, a in candidates:
        if q.is_zero() or a.is_zero():
            continue
        if (q ** 4 - one).is_zero():
            continue
        if tuple(thetas) == theta_sequence(a, q, d):
            verified[(q.render(), a.render())] = (q, a)
    if not verified:
        raise NotQRacahError(
            "a-system-inconsistent",
            "no (q, a) pair in the working field reproduces the eigenvalue sequence",
        )
    ordered = tuple(verified[key] for key in sorted(verified))
    return DetectionResult(ordered)


def _quadratic_roots_unit_product(s: Scalar, field) -> Optional[tuple[Scalar, Scalar]]:
    """Roots of x^2 - s x + 1 in the field, or None."""
    disc = s * s - 4
    root = field.sqrt(disc)
    if root is None:
        return None
    half = field.one / 2
    return ((s + root) * half, (s - root) * half)


def _detect_diameter_one(thetas, field):
    """d = 1: theta_0 = aq + (aq)^-1 and theta_1 = a/q + q/a, so the product
    p = aq and the ratio r = a/q each solve their own unit-product quadratic."""
    p_roots = _quadratic_roots_unit_product(thetas[0], field)
    r_roots = _quadratic_roots_unit_product(thetas[1], field)
    if p_roots is None or r_roots is None:
        raise NotQRacahError(
            "no-field-root", "the quadratic for aq or a/q has no root in the working field"
        )
    candidates = []
    for p in p_roots:
        for r in r_roots:
            if r.is_zero():
                continue
            qsq = p / r
            qroot = field.sqrt(qsq)
            if qroot is None:
                continue
            for q in (qroot, -qroot):
                if q.is_zero():
                    continue
                candidates.append((q, p / q))
    return candidates


def _detect_recurrence(thetas, field, d):
    """d >= 2: recover s = q^2 + q^-2 from the three-term recurrence, check
    consistency, solve for q^2, then for (a, a^-1) linearly."""
    s = None
    for i in range(1, d):
        if not thetas[i].is_zero():
            s = (thetas[i - 1] + thetas[i + 1]) / thetas[i]
            break
    if s is None:
        raise NotQRacahError(
            "middle-zero",
            "a vanishing interior eigenvalue forces a^2 = -1, "
            "which has no solution in the working field",
        )
    for i in range(1, d):
        if not (thetas[i - 1] + thetas[i + 1] - s * thetas[i]).is_zero():
            raise NotQRacahError(
                "recurrence-inconsistent",
                "the three-term recurrence theta_(i-1) + theta_(i+1) = "
                "(q^2 + q^-2) theta_i has no consistent solution",
            )
    if (s - 2).is_zero() or (s + 2).is_zero():
        raise NotQRacahError("q4-forced", "q^4 = 1 forced (q^2 + q^-2 = +/-2)")
    roots = _quadratic_roots_unit_product(s, field)
    if roots is None:
        raise NotQRacahError(
            "no-field-root", "the quadratic for q^2 has no root in the working field"
        )
    candidates = []
    for qsq in roots:
        qroot = field.sqrt(qsq)
        if qroot is None:
            continue
        for q in (qroot, -qroot):
            pair = _solve_a_linear(thetas, q, d, field)
            if pair is not None:
                candidates.append((q, pair))
    if not candidates:
        raise NotQRacahError(
            "no-field-root", "q^2 lies in the working field but q itself does not"
        )
    return candidates


def _solve_a_linear(thetas, q, d, field):
    """Solve the 2x2 linear system for (a, a^-1) from theta_0, theta_1 and
    check the unit-product consistency condition."""
    m00, m01 = q ** d, q ** -d
    m10, m11 = q ** (d - 2), q ** (2 - d)
    det = m00 * m11 - m01 * m10  # q^2 - q^-2, nonzero since q^4 != 1
    if det.is_zero():
        return None
    alpha = (thetas[0] * m11 - thetas[1] * m01) / det
    beta = (thetas[1] * m00 - thetas[0] * m10) / det
    if alpha.is_zero() or not (alpha * beta - 1).is_zero():
        return None
    return alpha


# ---------------------------------------------------------------------------
# split decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitData:
    params: QRacahParams
    theta: tuple[Scalar, ...]
    theta_star: Optional[tuple[Scalar, ...]]
    U: Decomposition
    Udd: Decomposition
    EV: Decomposition
    EstarV: Optional[Decomposition]
    rho: tuple[int, ...]


def _eigendata(m: Matrix) -> tuple[list[Scalar], list[Subspace]]:
    """Distinct field eigenvalues and eigenspaces; errors when the minimal
    polynomial does not split into linear factors over the field."""
    coeffs = m.minimal_polynomial()
    roots, splits = m.field.poly_roots(coeffs)
    if not splits:
        raise EngineError(
            "not-diagonalizable",
            "minimal polynomial does not split over the working field",
        )
    distinct: list[Scalar] = []
    for r in roots:
        if all(r != seen for seen in distinct):
            distinct.append(r)
    spaces = [eigenspace(m, lam) for lam in distinct]
    if sum(s.dim for s in spaces) != m.rows:
        raise EngineError(
            "not-diagonalizable", "eigenspaces do not span the whole space"
        )
    return distinct, spaces


def _concat_basis(spaces: Sequence[Subspace]) -> Matrix:
    """Matrix whose columns run through the subspace bases in order."""
    field = spaces[0].field
    cols = [vec for s in spaces for vec in s.basis]
    return Matrix.from_rows(field, cols).transpose()


def _adapted(m: Matrix, spaces: Sequence[Subspace]) -> tuple[Matrix, list[range]]:
    """m in the coordinates adapted to the ordered subspaces, and the index
    range of each subspace's block."""
    P = _concat_basis(spaces)
    starts = [sum(s.dim for s in spaces[:i]) for i in range(len(spaces))]
    return P.inverse() * m * P, [range(st, st + s.dim) for st, s in zip(starts, spaces)]


def _block_eigenvalues(A: Matrix, spaces: Sequence[Subspace]) -> Optional[list[Scalar]]:
    """If A is block lower bidiagonal with scalar diagonal blocks in the
    coordinates adapted to the ordered subspaces, return those scalars."""
    T, blocks = _adapted(A, spaces)
    values: list[Scalar] = []
    for block in blocks:
        lam = T[block.start, block.start]
        if any(T[r, c] != (lam if r == c else A.field.zero) for r in block for c in block):
            return None
        values.append(lam)
    for bc, cols in enumerate(blocks):
        for br, rows in enumerate(blocks):
            if br not in (bc, bc + 1) and any(T[r, c] for r in rows for c in cols):
                return None
    return values


def _path_ordering(spaces: Sequence[Subspace], cross: Matrix) -> Optional[list[int]]:
    """Order the eigenspaces so the cross operator acts tridiagonally.

    The block-adjacency graph must be a simple path (isolated pairs are fine
    when there are only two eigenspaces, where tridiagonality is vacuous).
    """
    k = len(spaces)
    if k == 1:
        return [0]
    T, blocks = _adapted(cross, spaces)
    adj = {i: set() for i in range(k)}
    for bi, rows in enumerate(blocks):
        for bj, cols in enumerate(blocks):
            if bi != bj and any(T[r, c] for r in rows for c in cols):
                adj[bi].add(bj)
                adj[bj].add(bi)
    if k == 2:
        return [0, 1]
    degrees = {i: len(adj[i]) for i in range(k)}
    ends = [i for i in range(k) if degrees[i] == 1]
    if len(ends) != 2 or any(degrees[i] > 2 for i in range(k)):
        return None
    order = [min(ends)]
    seen = {order[0]}
    while len(order) < k:
        nxt = [j for j in adj[order[-1]] if j not in seen]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
        seen.add(nxt[0])
    return order


def split_from_pair(A: Matrix, Astar: Matrix,
                    params: Optional[QRacahParams] = None) -> SplitData:
    """Both split decompositions from a raw (A, A*) pair, by the defining
    intersections of the eigenspace flags."""
    if A.rows != Astar.rows or not A.is_square or not Astar.is_square:
        raise ValueError("A and A* must be square of the same size")
    field = A.field

    avals, aspaces = _eigendata(A)
    svals, sspaces = _eigendata(Astar)
    d = len(avals) - 1
    delta = len(svals) - 1
    if d != delta:
        raise EngineError("diameter-mismatch",
                          f"eigenspace counts differ: {d + 1} vs {delta + 1}")
    if d < 1:
        raise EngineError("diameter-zero", "need at least two distinct eigenvalues")

    order = _path_ordering(aspaces, Astar)
    if order is None:
        raise EngineError("no-standard-ordering",
                          "the dual operator does not act tridiagonally on any "
                          "ordering of the eigenspaces")
    theta = [avals[i] for i in order]

    if params is not None:
        # orient the path so it matches the supplied parameters
        q, a = params.q, params.a
        expected = [params.theta(i) for i in range(d + 1)]
        if theta == expected:
            pass
        elif theta[::-1] == expected:
            order = order[::-1]
            theta = theta[::-1]
        else:
            raise NotQRacahError("parameter-mismatch",
                                 "supplied parameters do not match the eigenvalues")
    else:
        # the representative solves the sequence in this exact order
        q, a = detect_qracah(theta).representative
    EV = Decomposition(aspaces[i] for i in order)

    sorder = _path_ordering(sspaces, A)
    if sorder is None:
        raise EngineError("no-standard-ordering",
                          "the first operator does not act tridiagonally on any "
                          "ordering of the dual eigenspaces")
    theta_star = [svals[i] for i in sorder]
    b = params.b if params is not None else None
    oriented = _orient_dual(theta_star, q, d, field, b)
    if oriented is None:
        raise NotQRacahError("dual-parameter-failure",
                             "no b in the working field matches the dual eigenvalues")
    theta_star, sorder_flip, b = oriented
    if sorder_flip:
        sorder = sorder[::-1]
    EstarV = Decomposition(sspaces[i] for i in sorder)

    new_params = QRacahParams(d, q, a, b)
    # the defining flag intersections of the two split decompositions
    U = Decomposition(subspace_intersect(EstarV.flags[i], EV.tails[i]) for i in range(d + 1))
    Udd = Decomposition(subspace_intersect(EstarV.flags[i], EV.flags[d - i])
                        for i in range(d + 1))
    _check_split_consistency(U, Udd, EV, EstarV, d)
    rho = tuple(s.dim for s in U)
    return SplitData(new_params, tuple(theta), tuple(theta_star), U, Udd, EV, EstarV, rho)


def _orient_dual(theta_star, q, d, field, b=None):
    """Pick the orientation of the dual eigenvalue sequence compatible with q
    (reversal swaps b and 1/b), preferring the given b when supplied."""
    options = []
    for flip in (False, True):
        seq = theta_star[::-1] if flip else theta_star
        bval = _solve_a_linear(seq, q, d, field)
        if bval is not None and tuple(seq) == theta_sequence(bval, q, d):
            options.append((tuple(seq), flip, bval))
    if not options:
        return None
    if b is not None:
        for seq, flip, bval in options:
            if bval == b:
                return seq, flip, bval
        return None
    options.sort(key=lambda item: item[2].render())
    return options[0]


def _check_split_consistency(U: Decomposition, Udd: Decomposition, EV: Decomposition,
                             EstarV: Optional[Decomposition], d: int):
    """Directness, common multiplicities and the flag sum identities."""
    if not is_direct_decomposition(U):
        raise EngineError("split-failure", "the first split sequence is not a decomposition")
    if not is_direct_decomposition(Udd):
        raise EngineError("split-failure", "the second split sequence is not a decomposition")
    for i in range(d + 1):
        dims = {U[i].dim, Udd[i].dim, EV[i].dim}
        if EstarV is not None:
            dims.add(EstarV[i].dim)
        if len(dims) != 1:
            raise EngineError("split-failure",
                              f"multiplicities disagree at index {i}")
    for i in range(d + 1):
        if EV.tails[i] != U.tails[i]:
            raise EngineError("split-failure", f"eigenflag/tail mismatch at index {i}")
        if EV.flags[i] != Udd.tails[d - i]:
            raise EngineError("split-failure", f"eigenflag/head mismatch at index {i}")
        if U.flags[i] != Udd.flags[i]:
            raise EngineError("split-failure", f"flag mismatch at index {i}")
        if EstarV is not None and EstarV.flags[i] != U.flags[i]:
            raise EngineError("split-failure", f"dual flag mismatch at index {i}")


def split_from_AK(A: Matrix, K: Matrix,
                  params: Optional[QRacahParams] = None) -> SplitData:
    """Both split decompositions from (A, K), without the dual operator.

    U_i is the K-eigenspace for q^(d-2i); the second split decomposition is
    recovered from the flag identity U_0 + ... + U_i = E*-flag, giving
    U_i-dd = (U_0 + ... + U_i) n (E_0 V + ... + E_(d-i) V).
    """
    if A.rows != K.rows or not A.is_square or not K.is_square:
        raise ValueError("A and K must be square of the same size")
    n = A.rows

    if params is not None:
        candidates = [(params.q, params.d)]
    else:
        candidates = _k_spectrum_candidates(K)

    failure: Optional[EngineError] = None
    for q, d in candidates:
        U = Decomposition(eigenspace(K, q ** (d - 2 * i)) for i in range(d + 1))
        if any(s.is_zero() for s in U) or sum(s.dim for s in U) != n:
            failure = EngineError("spectrum-mismatch",
                                  "K is not diagonalizable with eigenvalues q^(d-2i)")
            continue
        theta = _block_eigenvalues(A, U)
        if theta is None:
            failure = EngineError("split-action",
                                  "A does not act as a block lower bidiagonal raising "
                                  "operator on the K-eigenspace ordering")
            continue
        if params is not None:
            expected = [params.theta(i) for i in range(d + 1)]
            if theta != expected:
                failure = NotQRacahError("parameter-mismatch",
                                         "extracted eigenvalues do not match the "
                                         "supplied parameters")
                continue
            a = params.a
            b = params.b
        else:
            try:
                detection = detect_qracah(theta)
            except NotQRacahError as exc:
                failure = exc
                continue
            match = [(sq, sa) for sq, sa in detection.solutions if sq == q]
            if not match:
                failure = NotQRacahError("parameter-detection",
                                         "no detected (q, a) shares the q recovered "
                                         "from the K spectrum")
                continue
            a = match[0][1]
            b = None

        new_params = QRacahParams(d, q, a, b)
        EV = Decomposition(eigenspace(A, t) for t in theta)
        if sum(s.dim for s in EV) != n:
            failure = EngineError("not-diagonalizable",
                                  "A is not diagonalizable over the working field")
            continue
        Udd = Decomposition(subspace_intersect(U.flags[i], EV.flags[d - i])
                            for i in range(d + 1))
        _check_split_consistency(U, Udd, EV, None, d)
        rho = tuple(s.dim for s in U)
        return SplitData(new_params, tuple(theta), None, U, Udd, EV, None, rho)
    raise failure if failure is not None else EngineError(
        "spectrum-mismatch", "no admissible (q, d) fits the K spectrum")


def _k_spectrum_candidates(K: Matrix) -> list[tuple[Scalar, int]]:
    """Candidate q values such that the K spectrum is {q^(d-2i)}."""
    values, _ = _eigendata(K)
    d = len(values) - 1
    if d < 1:
        raise EngineError("diameter-zero", "K must have at least two eigenvalues")
    field = K.field
    found: dict[str, Scalar] = {}
    value_set = set(values)
    for top in values:
        for second in values:
            if second == top:
                continue
            ratio = second / top
            chain = [top]
            for _ in range(d):
                chain.append(chain[-1] * ratio)
            if set(chain) != value_set or len(set(chain)) != d + 1:
                continue
            qsq = ratio ** -1
            if d % 2:
                qc = chain[(d - 1) // 2]
                if (qc * qc - qsq).is_zero():
                    found.setdefault(qc.render(), qc)
            else:
                root = field.sqrt(qsq)
                if root is not None:
                    for q in (root, -root):
                        found.setdefault(q.render(), q)
    if not found:
        raise EngineError("spectrum-mismatch",
                          "the K spectrum is not a geometric chain q^d, ..., q^-d")
    # shortest rendering first, so an even diameter prefers q over -q or 1/q
    return [(found[key], d) for key in sorted(found, key=lambda k: (len(k), k))]


# ---------------------------------------------------------------------------
# operators from the splits
# ---------------------------------------------------------------------------


def build_KB(U: Sequence[Subspace], Udd: Sequence[Subspace],
             q: Scalar, d: int) -> tuple[Matrix, Matrix]:
    """The unique operators with eigenvalue q^(d-2i) on U_i (resp. U_i-dd)."""
    return _semisimple_from_decomposition(U, q, d), _semisimple_from_decomposition(Udd, q, d)


def _semisimple_from_decomposition(spaces: Sequence[Subspace], q: Scalar, d: int) -> Matrix:
    """The operator acting as q^(d-2i) on spaces[i]."""
    P = _concat_basis(spaces)
    diag = [q ** (d - 2 * i) for i, space in enumerate(spaces) for _ in range(space.dim)]
    return P * Matrix.diagonal(q.field, diag) * P.inverse()


def psi_from_KB(K: Matrix, B: Matrix, q: Scalar, a: Scalar) -> Matrix:
    """The double lowering operator as the common value of the four rational
    expressions in K and B; all four are computed and must agree exactly."""
    field = K.field
    n = K.rows
    I = Matrix.identity(field, n)
    ainv = a ** -1
    try:
        Kinv = K.inverse()
        Binv = B.inverse()
    except ValueError:
        raise EngineError("singular-operator", "K and B must be invertible") from None
    BKinv, KBinv = B * Kinv, K * Binv
    KinvB, BinvK = Kinv * B, Binv * K

    def quotient(numer: Matrix, denom: Matrix, label: str) -> Matrix:
        try:
            return numer * denom.inverse()
        except ValueError:
            raise EngineError("singular-denominator",
                              f"denominator of the {label} expression is singular") from None

    exprs = [
        quotient(I - BKinv, q * (a * I - ainv * BKinv), "first"),
        quotient(I - KBinv, q * (ainv * I - a * KBinv), "second"),
        quotient(q * (I - KinvB), a * I - ainv * KinvB, "third"),
        quotient(q * (I - BinvK), ainv * I - a * BinvK, "fourth"),
    ]
    for other in exprs[1:]:
        if other != exprs[0]:
            raise CrossRouteError(
                "the four expressions for the lowering operator disagree",
                exprs[0], other)
    return exprs[0]


def delta_series_coefficients(d: int, q: Scalar, a: Scalar) -> list[Scalar]:
    """Coefficients of Delta = sum_i c_i psi^i:
    c_i = prod_(j=1..i) (a q^(j-1) - a^-1 q^(1-j)) / (q^j - q^-j)."""
    field = q.field
    coeffs = [field.one]
    ainv = a ** -1
    for j in range(1, d + 1):
        factor = (a * q ** (j - 1) - ainv * q ** (1 - j)) / (q ** j - q ** -j)
        coeffs.append(coeffs[-1] * factor)
    return coeffs


class PsiSeries:
    """Series in one lowering operator psi, each built on first use, once:
    the powers I, ..., psi^(d+1), the geometric series sum x^n psi^n, the
    Delta (or Delta^-1) power series, the q-exponential of x psi, and the
    product exp_q(a/(q-q^-1) psi) exp_(q^-1)(-a^-1/(q-q^-1) psi) (a and a^-1
    exchanged for the inverse)."""

    def __init__(self, psi: Matrix, q: Scalar, a: Scalar, d: int):
        self.psi, self.q, self.a, self.d = psi, q, a, d
        self._memo: dict = {}

    def _cached(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @cached_property
    def powers(self) -> tuple[Matrix, ...]:
        return matrix_powers(self.psi, self.d + 1)

    def geometric(self, x: Scalar) -> Matrix:
        return self._cached(("geometric", x), lambda: power_series(
            [x ** n for n in range(self.d + 1)], self.powers))

    def delta(self, inverse: bool = False) -> Matrix:
        return self._cached(("delta", inverse), lambda: power_series(
            delta_series_coefficients(self.d, self.q, self.a ** -1 if inverse else self.a),
            self.powers))

    def exp(self, x: Scalar, variant: QExpVariant = "q") -> Matrix:
        return self._cached(("exp", x, variant), lambda: q_exp(x * self.psi, self.q, variant))

    def exp_product(self, inverse: bool = False) -> Matrix:
        def build():
            c = self.q - self.q ** -1
            s, t = (self.a ** -1, self.a) if inverse else (self.a, self.a ** -1)
            return self.exp(s / c) * self.exp(-(t / c), "q_inverse")
        return self._cached(("exp_product", inverse), build)


def _solve_affine(columns: list[tuple[Scalar, ...]], rhs: tuple[Scalar, ...],
                  field) -> Optional[list[Scalar]]:
    """One solution x of (columns as a matrix) x = rhs, or None."""
    if not columns:
        return [] if all(not v for v in rhs) else None
    mat = Matrix.from_rows(field, list(zip(*columns)) )
    n_unknowns = len(columns)
    aug = Matrix.from_rows(field, [list(mat.row(i)) + [rhs[i]] for i in range(mat.rows)])
    reduced, pivots = aug.rref()
    if n_unknowns in pivots:
        return None
    solution = [field.zero] * n_unknowns
    for r, pc in enumerate(pivots):
        solution[pc] = reduced[r, n_unknowns]
    return solution


def delta_from_characterization(U: Sequence[Subspace], Udd: Sequence[Subspace],
                                 field) -> Matrix:
    """Solve for the unique operator with Delta U_i <= U_i-dd and
    (Delta - I) U_i <= U_0 + ... + U_(i-1)."""
    n = U[0].ambient
    domain_cols: list[tuple[Scalar, ...]] = []
    image_cols: list[tuple[Scalar, ...]] = []
    flag_vectors: list[tuple[Scalar, ...]] = []
    for i, space in enumerate(U):
        target_basis = list(Udd[i].basis)
        columns = [tuple(v) for v in target_basis]
        columns += [tuple(-x for x in v) for v in flag_vectors]
        for u in space.basis:
            sol = _solve_affine(columns, tuple(u), field)
            if sol is None:
                raise EngineError("delta-characterization",
                                  "the triangular system for Delta is inconsistent")
            image = [field.zero] * n
            for coeff, vec in zip(sol[: len(target_basis)], target_basis):
                image = [x + coeff * y for x, y in zip(image, vec)]
            domain_cols.append(tuple(u))
            image_cols.append(tuple(image))
        flag_vectors.extend(space.basis)
    P = Matrix.from_rows(field, domain_cols).transpose()
    X = Matrix.from_rows(field, image_cols).transpose()
    return X * P.inverse()


# ---------------------------------------------------------------------------
# the full suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSuite:
    """A coherent bundle of operators and decompositions on one space.

    Decompositions are :class:`~tdq.linalg.Decomposition`s (plain tuples are
    converted).  ``psi_series`` is replaced by a fresh one unless it was built
    for a psi, q, a and d equal to this suite's, so a claimed psi never sees
    a stale series.  The identity, K^-1 and B^-1 are built on first use, per
    instance.
    """

    params: QRacahParams
    n: int
    A: Matrix
    K: Matrix
    B: Matrix
    psi: Matrix
    M: Matrix
    Minv: Matrix
    Delta: Matrix
    Deltainv: Matrix
    theta: tuple[Scalar, ...]
    U: Decomposition
    Udd: Decomposition
    W: Decomposition
    EV: Decomposition
    rho: tuple[int, ...]
    Astar: Optional[Matrix] = None
    theta_star: Optional[tuple[Scalar, ...]] = None
    EstarV: Optional[Decomposition] = None
    psi_series: Optional[PsiSeries] = dataclass_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name in ("U", "Udd", "W", "EV", "EstarV"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, Decomposition):
                object.__setattr__(self, name, Decomposition(value))
        series = self.psi_series
        if series is None or (series.psi, series.q, series.a, series.d) != (
                self.psi, self.q, self.a, self.d):
            object.__setattr__(self, "psi_series", PsiSeries(self.psi, self.q, self.a, self.d))

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def q(self) -> Scalar:
        return self.params.q

    @property
    def a(self) -> Scalar:
        return self.params.a

    @property
    def field(self):
        return self.params.field

    @property
    def has_astar(self) -> bool:
        return self.Astar is not None

    @cached_property
    def I(self) -> Matrix:
        return Matrix.identity(self.field, self.n)

    @cached_property
    def Kinv(self) -> Matrix:
        return self.K.inverse()

    @cached_property
    def Binv(self) -> Matrix:
        return self.B.inverse()


def derive_suite(A: Matrix, K: Optional[Matrix] = None,
                 Astar: Optional[Matrix] = None,
                 params: Optional[QRacahParams] = None,
                 overrides: Optional[Mapping[str, Matrix]] = None) -> OperatorSuite:
    """Reconstruct the full operator suite from (A, K) or (A, A*).

    Every derived object follows its defining formula; Delta is computed
    three independent ways (power series, q-exponential product, triangular
    characterization) which must coincide exactly.  ``overrides`` replaces
    named operator matrices in the returned suite, so a downstream battery
    run can vet externally supplied data.
    """
    if K is None and Astar is None:
        raise ValueError("need K or Astar alongside A")

    if K is not None:
        sd = split_from_AK(A, K, params)
        if Astar is not None:
            sd = _attach_astar(sd, Astar)
        K_op = K
        B_op = _semisimple_from_decomposition(sd.Udd, sd.params.q, sd.params.d)
    else:
        sd = split_from_pair(A, Astar, params)
        K_op, B_op = build_KB(sd.U, sd.Udd, sd.params.q, sd.params.d)

    prms = sd.params
    q, a, d = prms.q, prms.a, prms.d
    field = q.field
    n = A.rows

    psi = psi_from_KB(K_op, B_op, q, a)
    series = PsiSeries(psi, q, a, d)

    denom = a - a ** -1
    M = (a * K_op - (a ** -1) * B_op) * denom.inv()
    Minv = M.inverse()

    Delta_series = series.delta()
    Delta_exp = series.exp_product()
    Delta_tri = delta_from_characterization(sd.U, sd.Udd, field)
    if Delta_series != Delta_exp:
        raise CrossRouteError("power series and exponential product for Delta disagree",
                              Delta_series, Delta_exp)
    if Delta_series != Delta_tri:
        raise CrossRouteError("power series and triangular characterization for "
                              "Delta disagree", Delta_series, Delta_tri)

    Deltainv = series.delta(inverse=True)
    if Delta_series * Deltainv != Matrix.identity(field, n):
        raise CrossRouteError("the two Delta power series are not inverse to "
                              "each other", Delta_series, Deltainv)

    W = Decomposition(eigenspace(M, q ** (d - 2 * i)) for i in range(d + 1))
    if any(s.is_zero() for s in W) or sum(s.dim for s in W) != n:
        raise EngineError("halfway-spectrum",
                          "M is not diagonalizable with eigenvalues q^(d-2i)")

    suite = OperatorSuite(
        params=prms, n=n, A=A, K=K_op, B=B_op, psi=psi, M=M, Minv=Minv,
        Delta=Delta_series, Deltainv=Deltainv, theta=sd.theta,
        U=sd.U, Udd=sd.Udd, W=W, EV=sd.EV, rho=sd.rho,
        Astar=Astar, theta_star=sd.theta_star, EstarV=sd.EstarV, psi_series=series,
    )
    if overrides:
        allowed = {"A", "Astar", "K", "B", "psi", "M", "Minv", "Delta", "Deltainv"}
        unknown = set(overrides) - allowed
        if unknown:
            raise ValueError(f"cannot override {sorted(unknown)}")
        suite = replace(suite, **dict(overrides))
    return suite


def _attach_astar(sd: SplitData, Astar: Matrix) -> SplitData:
    """Add dual eigenspace data to a split computed from (A, K).

    The flag identity E*-flag_i = U-flag_i pins the dual ordering completely
    (no orientation freedom remains once U is fixed), so b is solved for that
    one ordering and checked against a supplied value if any.
    """
    field = Astar.field
    d = sd.params.d
    q = sd.params.q
    svals, sspaces = _eigendata(Astar)
    if len(svals) != d + 1:
        raise EngineError("diameter-mismatch",
                          "the dual operator has the wrong number of eigenspaces")
    remaining = list(range(d + 1))
    order: list[int] = []
    for i in range(d + 1):
        inside = [j for j in remaining if sd.U.flags[i].contains(sspaces[j])]
        if len(inside) != 1:
            raise EngineError("split-failure",
                              "the dual eigenspaces do not refine the split flags")
        order.append(inside[0])
        remaining.remove(inside[0])
    theta_star = [svals[i] for i in order]
    b = _solve_a_linear(theta_star, q, d, field)
    if b is None or tuple(theta_star) != theta_sequence(b, q, d):
        raise NotQRacahError("dual-parameter-failure",
                             "no b in the working field matches the dual eigenvalues")
    if sd.params.b is not None and b != sd.params.b:
        raise NotQRacahError("dual-parameter-failure",
                             "supplied b does not match the dual eigenvalues")
    EstarV = Decomposition(sspaces[i] for i in order)
    return replace(sd, params=sd.params.with_b(b), theta_star=tuple(theta_star),
                   EstarV=EstarV)


def downarrow(suite: OperatorSuite) -> OperatorSuite:
    """The suite of the second inversion (reversed eigenspace ordering of A).

    Asserts the expected exchanges: K and B swap, M and psi and every W_i are
    unchanged, Delta inverts, and the split decompositions swap.
    """
    prms = suite.params.downarrow()
    flipped = derive_suite(suite.A, K=suite.B, Astar=suite.Astar, params=prms)

    def ensure(cond: bool, message: str, lhs: Matrix, rhs: Matrix):
        if not cond:
            raise CrossRouteError(f"second inversion failed: {message}", lhs, rhs)

    ensure(flipped.K == suite.B, "K-down != B", flipped.K, suite.B)
    ensure(flipped.B == suite.K, "B-down != K", flipped.B, suite.K)
    ensure(flipped.M == suite.M, "M-down != M", flipped.M, suite.M)
    ensure(flipped.psi == suite.psi, "psi-down != psi", flipped.psi, suite.psi)
    ensure(flipped.Delta == suite.Deltainv, "Delta-down != Delta^-1",
           flipped.Delta, suite.Deltainv)
    if flipped.W != suite.W:
        raise EngineError("downarrow-mismatch", "the halfway decomposition moved")
    if flipped.U != suite.Udd or flipped.Udd != suite.U:
        raise EngineError("downarrow-mismatch", "the split decompositions did not swap")
    if flipped.theta != tuple(reversed(suite.theta)):
        raise EngineError("downarrow-mismatch", "eigenvalue sequence did not reverse")
    return flipped


# ---------------------------------------------------------------------------
# axiom validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str  # pass | fail | inconclusive
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    n: int
    d: Optional[int]
    delta: Optional[int]
    conclusive: bool
    passed: bool
    checks: tuple[CheckRecord, ...]
    theta: Optional[tuple[Scalar, ...]] = None
    theta_star: Optional[tuple[Scalar, ...]] = None
    algebra_dim: Optional[int] = None
    ordering_note: str = ""


def validate_axioms(A: Matrix, Astar: Matrix) -> AxiomReport:
    """Check the defining conditions for a tridiagonal pair over the working
    field: diagonalizability of both operators, existence of standard
    orderings (with the reversal as the only alternative), equality of the
    two diameters, and irreducibility certified by the generated algebra
    having full dimension n^2."""
    if A.rows != Astar.rows or not A.is_square or not Astar.is_square:
        raise ValueError("A and A* must be square of the same size")
    n = A.rows
    checks: list[CheckRecord] = []

    try:
        avals, aspaces = _eigendata(A)
        checks.append(CheckRecord("diagonalizable-A", "pass",
                                  f"{len(avals)} eigenspaces spanning the space"))
    except EngineError as exc:
        checks.append(CheckRecord("diagonalizable-A", "inconclusive", str(exc)))
        return AxiomReport(n, None, None, False, False, tuple(checks))
    try:
        svals, sspaces = _eigendata(Astar)
        checks.append(CheckRecord("diagonalizable-Astar", "pass",
                                  f"{len(svals)} eigenspaces spanning the space"))
    except EngineError as exc:
        checks.append(CheckRecord("diagonalizable-Astar", "inconclusive", str(exc)))
        return AxiomReport(n, len(avals) - 1, None, False, False, tuple(checks))

    d = len(avals) - 1
    delta = len(svals) - 1
    if d == delta:
        checks.append(CheckRecord("diameters-equal", "pass", f"d = delta = {d}"))
    else:
        checks.append(CheckRecord("diameters-equal", "fail", f"d = {d}, delta = {delta}"))

    order = _path_ordering(aspaces, Astar)
    theta = None
    if order is None:
        checks.append(CheckRecord("standard-ordering-A", "fail",
                                  "no ordering makes the dual action tridiagonal"))
    else:
        theta = [avals[i] for i in order]
        try:
            detection = detect_qracah(theta)
            expected_q, expected_a = detection.representative
            expected = list(theta_sequence(expected_a, expected_q, d))
            if theta != expected and theta[::-1] == expected:
                theta = theta[::-1]
        except (NotQRacahError, ValueError):
            pass
        checks.append(CheckRecord("standard-ordering-A", "pass",
                                  "ordering found; its reversal is the only other "
                                  "standard ordering"))

    sorder = _path_ordering(sspaces, A)
    theta_star = None
    if sorder is None:
        checks.append(CheckRecord("standard-ordering-Astar", "fail",
                                  "no ordering makes the action tridiagonal"))
    else:
        theta_star = [svals[i] for i in sorder]
        checks.append(CheckRecord("standard-ordering-Astar", "pass",
                                  "ordering found; its reversal is the only other "
                                  "standard ordering"))

    algebra_dim = generated_algebra_dim([A, Astar])
    if algebra_dim == n * n:
        checks.append(CheckRecord("irreducible", "pass",
                                  f"generated algebra has full dimension {n * n}"))
    else:
        checks.append(CheckRecord("irreducible", "fail",
                                  f"generated algebra has dimension {algebra_dim} "
                                  f"< {n * n}: a common invariant subspace exists "
                                  "over the algebraic closure"))

    passed = all(c.status == "pass" for c in checks)
    return AxiomReport(
        n=n, d=d, delta=delta, conclusive=True, passed=passed, checks=tuple(checks),
        theta=tuple(theta) if theta else None,
        theta_star=tuple(theta_star) if theta_star else None,
        algebra_dim=algebra_dim,
        ordering_note="the reversed ordering is the only other standard ordering",
    )
