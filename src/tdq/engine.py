"""Reconstruction of the operator suite from raw matrices.

Starting from (A, K), (A, A*) or (A, K, A*), this module recovers the split
decompositions, the lowering operator psi, the averaged operator M with its
eigenspace decomposition {W_i}, and the transition operator Delta computed
along three independent routes that must agree exactly.  Everything downstream
of the input matrices follows the defining formulas, not closed forms, so the
derived suite is fit material for the identity battery.

Each input finds {U_i} its own way (the K-eigenspaces, or the dual eigenflags
cut by the tails of the eigenspace decomposition of A); from there one tail,
``_split``, builds U_i-dd = F_i n (E_0 V + ... + E_(d-i) V) from the flag F_i
(U_0 + ... + U_i, or the dual eigenflag that must equal it) and runs the
split checks: both split sequences are direct; the multiplicities and the
flag sum identities follow (see ``_split``).  B is built from {U_i-dd}, and
K from {U_i} unless it was given.

Unless supplied, each parameter comes from the operator that fixes it.  On
(A, K) input the K spectrum q^d, ..., q^-d fixes q, and ``_fit`` then fixes
a from the eigenvalues theta_i = a q^(d-2i) + a^-1 q^(2i-d) of A.  On (A, A*)
input ``detect_qracah`` finds (q, a) from those eigenvalues alone.  Given A*,
``_fit`` fixes b from its eigenvalues for that q.

Every change to coordinates adapted to a decomposition reads the basis and
its inverse from the :class:`~tdq.linalg.Decomposition`, so each is inverted
once.  The suite keeps what was derived on the way, for the battery to read:
the flags of its decompositions and the power series and q-exponentials of
psi (see :class:`OperatorSuite`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from functools import cached_property
from typing import Optional, Sequence

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
from .qcalc import q_exp
from .scalars import Scalar

__all__ = [
    "EngineError",
    "NotQRacahError",
    "CrossRouteError",
    "detect_qracah",
    "SplitData",
    "split_from_pair",
    "split_from_AK",
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

# the suite's operators: the matrices a fixture may carry and a suite checks
OPERATOR_NAMES = ("A", "Astar", "K", "B", "psi", "M", "Minv", "Delta", "Deltainv")


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


def detect_qracah(thetas: Sequence[Scalar]) -> tuple[tuple[Scalar, Scalar], ...]:
    """Every (q, a) with theta_i = a q^(d-2i) + a^-1 q^(2i-d), from the
    eigenvalues alone: for (A, A*) input without parameters, and ``tdq
    detect``.  (On (A, K) input K fixes q, and ``_fit`` alone finds a.)

    The pairs are sorted by rendering, so the first is the deterministic
    representative; the set is closed under (q, a) -> (1/q, 1/a).

    Raises NotQRacahError when the sequence cannot be matched: the three-term
    recurrence theta_(i-1) + theta_(i+1) = (q^2 + q^-2) theta_i is
    inconsistent, the quadratic for q^2 has no root in the field, or q^4 = 1
    is forced.
    """
    thetas = [t for t in thetas]
    if len(thetas) < 2:
        raise ValueError("need at least two eigenvalues")
    if len(set(thetas)) != len(thetas):
        raise ValueError("eigenvalues must be mutually distinct")
    d = len(thetas) - 1

    if d == 1:
        candidates = _detect_diameter_one(thetas)
    else:
        candidates = _detect_recurrence(thetas, d)
    verified = {(q.render(), a.render()): (q, a) for q, a in candidates}
    if not verified:
        raise NotQRacahError(
            "a-system-inconsistent",
            "no (q, a) pair in the working field reproduces the eigenvalue sequence",
        )
    return tuple(verified[key] for key in sorted(verified))


def _fit(seq: Sequence[Scalar], q: Scalar, d: int) -> Optional[Scalar]:
    """The x with seq = theta_sequence(x, q, d), or None.

    x and x^-1 solve the 2x2 linear system of seq[0] and seq[1]; the whole
    sequence is then compared.  q must be nonzero.
    """
    det = q ** 2 - q ** -2  # of the system's matrix [[q^d, q^-d], [q^(d-2), q^(2-d)]]
    if det.is_zero():
        return None
    x = (seq[0] * q ** (2 - d) - seq[1] * q ** -d) / det
    if x.is_zero() or tuple(seq) != theta_sequence(x, q, d):
        return None
    return x


def _fits(thetas, qsq: Scalar, d: int) -> list[tuple[Scalar, Scalar]]:
    """Each (q, a) with q^2 = qsq, q in the field, and thetas =
    theta_sequence(a, q, d); qsq must be nonzero."""
    root = qsq.field.sqrt(qsq)
    if root is None:
        return []
    return [(q, a) for q in (root, -root) if (a := _fit(thetas, q, d)) is not None]


def _detect_diameter_one(thetas):
    """d = 1: theta_0 = aq + (aq)^-1 and theta_1 = a/q + q/a, so the product
    p = aq and the ratio r = a/q each solve their own unit-product quadratic
    (so neither is zero), and q^2 = p/r."""
    field = thetas[0].field
    p_roots, _ = field.poly_roots([field.one, -thetas[0], field.one])
    r_roots, _ = field.poly_roots([field.one, -thetas[1], field.one])
    if not p_roots or not r_roots:
        raise NotQRacahError(
            "no-field-root", "the quadratic for aq or a/q has no root in the working field"
        )
    return [pair for p in p_roots for r in r_roots for pair in _fits(thetas, p / r, 1)]


def _detect_recurrence(thetas, d):
    """d >= 2: recover s = q^2 + q^-2 from the three-term recurrence, check
    consistency, solve for q^2 (a unit-product root, so nonzero), then fit a
    to each square root q."""
    field = thetas[0].field
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
    roots, _ = field.poly_roots([field.one, -s, field.one])
    if not roots:
        raise NotQRacahError(
            "no-field-root", "the quadratic for q^2 has no root in the working field"
        )
    candidates = [pair for qsq in roots for pair in _fits(thetas, qsq, d)]
    if not candidates:
        raise NotQRacahError(
            "no-field-root", "q^2 lies in the working field but q itself does not"
        )
    return candidates


# ---------------------------------------------------------------------------
# split decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitData:
    """The split decompositions with the parameters that fix theta_i (and
    theta*_i when b is known); rho_i is dim U_i."""

    params: QRacahParams
    U: Decomposition
    Udd: Decomposition
    EV: Decomposition
    EstarV: Optional[Decomposition] = None


def _eigenvalues(m: Matrix) -> list[Scalar]:
    """The distinct eigenvalues of m, which must be diagonalizable over the
    field: its minimal polynomial splits into distinct linear factors."""
    roots, splits = m.field.poly_roots(m.minimal_polynomial())
    if not splits:
        raise EngineError(
            "not-diagonalizable",
            "minimal polynomial does not split over the working field",
        )
    if len(set(roots)) != len(roots):
        raise EngineError(
            "not-diagonalizable", "eigenspaces do not span the whole space"
        )
    return list(roots)


def _eigendata(m: Matrix) -> tuple[list[Scalar], Decomposition]:
    """The distinct eigenvalues of a diagonalizable m and their eigenspaces."""
    values = _eigenvalues(m)
    return values, Decomposition(eigenspace(m, lam) for lam in values)


def _block_eigenvalues(A: Matrix, spaces: Decomposition) -> Optional[tuple[Scalar, ...]]:
    """If A is block lower bidiagonal with scalar diagonal blocks in the
    coordinates adapted to the ordered subspaces, return those scalars."""
    T, blocks = spaces.coordinates * A * spaces.basis, spaces.blocks
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
    return tuple(values)


def _path_ordering(spaces: Decomposition, cross: Matrix) -> Optional[list[int]]:
    """Order the eigenspaces so the cross operator acts tridiagonally.

    The block-adjacency graph must be a simple path (isolated pairs are fine
    when there are only two eigenspaces, where tridiagonality is vacuous).
    """
    k = len(spaces)
    if k <= 2:
        return list(range(k))
    T, blocks = spaces.coordinates * cross * spaces.basis, spaces.blocks
    adj = {i: set() for i in range(k)}
    for bi, rows in enumerate(blocks):
        for bj, cols in enumerate(blocks):
            if bi != bj and any(T[r, c] for r in rows for c in cols):
                adj[bi].add(bj)
                adj[bj].add(bi)
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
        q, oriented = params.q, _orient(theta, params.q, params.d, params.a)
        if oriented is None:
            raise NotQRacahError("parameter-mismatch",
                                 "supplied parameters do not match the eigenvalues")
        flip, a = oriented
    else:
        # the representative solves the sequence in this exact order
        (q, a), flip = detect_qracah(theta)[0], False
    EV = Decomposition(aspaces[i] for i in (order[::-1] if flip else order))

    sorder = _path_ordering(sspaces, A)
    if sorder is None:
        raise EngineError("no-standard-ordering",
                          "the first operator does not act tridiagonally on any "
                          "ordering of the dual eigenspaces")
    oriented = _orient([svals[i] for i in sorder], q, d,
                       params.b if params is not None else None)
    if oriented is None:
        raise NotQRacahError("dual-parameter-failure",
                             "no b in the working field matches the dual eigenvalues")
    flip, b = oriented
    EstarV = Decomposition(sspaces[i] for i in (sorder[::-1] if flip else sorder))
    U = Decomposition(subspace_intersect(EstarV.flags[i], EV.tails[i]) for i in range(d + 1))
    return _split(QRacahParams(d, q, a, b), U, EV, EstarV.flags, EstarV)


def _orient(seq, q, d, x=None):
    """(flip, x) for the orientation of seq, as given or reversed, that is
    theta_sequence(x, q, d), reversal inverting x: the one that fits the
    given x, or else the one whose x renders first; None if none fits.

    Validated parameters have q^4 != 1, so ``_fit`` recovers x from seq[0]
    and seq[1] alone, and distinct values fit a given x in one orientation
    at most.
    """
    options = [(flip, fit) for flip in (False, True)
               if (fit := _fit(seq[::-1] if flip else seq, q, d)) is not None
               and (x is None or fit == x)]
    return min(options, key=lambda item: item[1].render(), default=None)


def _split(params: QRacahParams, U: Decomposition, EV: Decomposition,
           flags: Sequence[Subspace], EstarV: Optional[Decomposition] = None) -> SplitData:
    """The split data once U is known: U_i-dd = F_i n E-flag_(d-i), where
    F_i = flags[i], E-flag_i = E_0 V + ... + E_i V and E-tail_i = E_i V +
    ... + E_d V.  Two checks run: (A) U is direct and (B) U-dd is direct.

    The multiplicities and the flag sum identities follow, so they are not
    checked.  Let n = dim V, rho_i = dim U_i, P_i = rho_0 + ... + rho_i and
    Q_i = dim E-flag_i (P_(-1) = Q_(-1) = 0).  F_i is U-flag_i on (A, K)
    input and E*-flag_i on (A, A*) input; by construction U_j <= F_j and
    U_j-dd = F_j n E-flag_(d-j).  The cut: if V = X_0 + ... + X_d is direct
    and X_j lies in Y for j <= k and in Z for j > k, then n <= dim Y + dim Z.

    1. dim F_i = Q_i = P_i.  On (A, K), F_i = U-flag_i, and
       ``_block_eigenvalues`` made A block lower bidiagonal with distinct
       scalar blocks theta_j on U_j, so (A - theta_0) ... (A - theta_d) = 0
       and dim E_i V = rho_i.  On (A, A*), with Q*_i = dim E*-flag_i,
       Grassmann bounds rho_i = dim (E*-flag_i n E-tail_i) >= Q*_i - Q_(i-1);
       the bounds sum to n + sum_(k<d) (Q*_k - Q_k), and by (A) the cut at k
       (E*-flag_k, E-tail_(k+1)) makes each term >= 0.  The rho_i sum to n,
       so every bound is tight and every term 0: rho_i = dim E_i V =
       dim E*_i V.
    2. Likewise dim U_i-dd >= P_i + P_(d-i) - n; the bounds sum to n +
       sum_(k<d) (P_k + P_(d-1-k) - n), and by (B) the cut at k (F_k,
       E-flag_(d-1-k)) makes each term >= 0, so P_(d-i) = n - P_(i-1) and
       dim U_i-dd = rho_i.  U_i-dd + ... + U_d-dd lies in E-flag_(d-i) and
       has its dimension n - P_(i-1), so they are equal (the head identity).
    3. U-flag_i and U-dd-flag_i lie in F_i and have its dimension P_i, so
       U-flag_i = U-dd-flag_i, and on (A, A*) both are E*-flag_i (the flag
       and dual flag identities).
    4. U-tail_i and E-tail_i have dimension n - P_(i-1), and U-tail_i <=
       E-tail_i: by construction on (A, A*); on (A, K) U-tail_i is
       A-invariant, A has eigenvalues theta_i, ..., theta_d on it and is
       diagonalizable.  So U-tail_i = E-tail_i (the tail identity).
    """
    d = params.d
    Udd = Decomposition(subspace_intersect(flags[i], EV.flags[d - i]) for i in range(d + 1))
    if not is_direct_decomposition(U):
        raise EngineError("split-failure", "the first split sequence is not a decomposition")
    if not is_direct_decomposition(Udd):
        raise EngineError("split-failure", "the second split sequence is not a decomposition")
    return SplitData(params, U, Udd, EV, EstarV)


def split_from_AK(A: Matrix, K: Matrix,
                  params: Optional[QRacahParams] = None) -> SplitData:
    """Both split decompositions from (A, K), without the dual operator.

    K fixes q and d: U_i is the K-eigenspace for q^(d-2i), for the supplied
    q, or else for the first candidate of ``_k_spectrum_candidates`` whose
    eigenspaces make A block lower bidiagonal.  A acts on U_i as theta_i
    plus a raising part, and ``_fit`` fixes a from theta for that q; b is
    left as supplied, since only A* can fix it.  The second split
    decomposition is recovered from the flag identity U_0 + ... + U_i =
    E*-flag, giving U_i-dd = (U_0 + ... + U_i) n (E_0 V + ... + E_(d-i) V).
    """
    if A.rows != K.rows or not A.is_square or not K.is_square:
        raise ValueError("A and K must be square of the same size")
    n = A.rows

    candidates = [(params.q, params.d)] if params is not None else _k_spectrum_candidates(K)
    # The first candidate to pass the block test fixes the split; no other
    # would read otherwise.  They are +/-q^(+/-1) for one q: -q at even d has
    # the same eigenspaces and fit, and 1/q reverses them, passing only when
    # A is block diagonal, where the reversed theta fits the same a.  The
    # spectrum check fails only on supplied parameters: one candidate.
    for q, d in candidates:
        U = Decomposition(eigenspace(K, q ** (d - 2 * i)) for i in range(d + 1))
        if any(s.is_zero() for s in U) or sum(s.dim for s in U) != n:
            raise EngineError("spectrum-mismatch",
                              "K is not diagonalizable with eigenvalues q^(d-2i)")
        theta = _block_eigenvalues(A, U)
        if theta is not None:
            break
    else:
        raise EngineError("split-action", "A does not act as a block lower bidiagonal "
                                          "raising operator on the K-eigenspace ordering")
    a = _fit(theta, q, d)
    if params is not None and a != params.a:
        raise NotQRacahError("parameter-mismatch",
                             "extracted eigenvalues do not match the supplied parameters")
    if len(set(theta)) != len(theta):
        raise NotQRacahError("eigenvalues-not-distinct",
                             "A has a repeated eigenvalue on the K-eigenspaces")
    if a is None:
        raise NotQRacahError("parameter-detection", "no a in the working field fits the "
                                                    "eigenvalues of A for the q of the K spectrum")
    EV = Decomposition(eigenspace(A, t) for t in theta)
    return _split(QRacahParams(d, q, a, params.b if params is not None else None),
                  U, EV, U.flags)


def _k_spectrum_candidates(K: Matrix) -> list[tuple[Scalar, int]]:
    """Each (x, d) whose powers x^d, x^(d-2), ..., x^-d are the K spectrum.

    For odd d, q itself is an eigenvalue, so x ranges over the eigenvalues;
    for even d, q^2 is one, so x ranges over the square roots of each.
    """
    values = _eigenvalues(K)
    d = len(values) - 1
    if d < 1:
        raise EngineError("diameter-zero", "K must have at least two eigenvalues")
    if d % 2:
        xs = values
    else:
        roots = (K.field.sqrt(v) for v in values)
        xs = [x for root in roots if root is not None for x in (root, -root)]
    spectrum = set(values)
    found = {x.render(): x for x in xs
             if x and {x ** (d - 2 * i) for i in range(d + 1)} == spectrum}
    if not found:
        raise EngineError("spectrum-mismatch",
                          "the K spectrum is not a geometric chain q^d, ..., q^-d")
    # shortest rendering first, so an even diameter prefers q over -q or 1/q
    return [(found[key], d) for key in sorted(found, key=lambda k: (len(k), k))]


# ---------------------------------------------------------------------------
# operators from the splits
# ---------------------------------------------------------------------------


def _semisimple_from_decomposition(spaces: Decomposition, q: Scalar, d: int) -> Matrix:
    """The operator acting as q^(d-2i) on spaces[i]."""
    diag = [q ** (d - 2 * i) for i, block in enumerate(spaces.blocks) for _ in block]
    return spaces.basis * Matrix.diagonal(q.field, diag) * spaces.coordinates


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
    """Series in one lowering operator psi, each built on first use, once,
    over one tuple of powers I, psi, ..., psi^n (psi is n x n): the geometric
    series sum x^n psi^n, the Delta (or Delta^-1) power series, exp_base(x psi)
    for base q or q^-1, the four q-exponentials the identities name, and the
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
        # up to psi^n, past any nilpotency index an n x n psi can have
        return matrix_powers(self.psi, self.psi.rows)

    def geometric(self, x: Scalar) -> Matrix:
        return self._cached(("geometric", x), lambda: power_series(
            [x ** n for n in range(self.d + 1)], self.powers))

    def delta(self, inverse: bool = False) -> Matrix:
        return self._cached(("delta", inverse), lambda: power_series(
            delta_series_coefficients(self.d, self.q, self.a ** -1 if inverse else self.a),
            self.powers))

    def exp(self, x: Scalar, base: Scalar) -> Matrix:
        return self._cached(("exp", x, base), lambda: q_exp(x, self.powers, base))

    @cached_property
    def exp_args(self) -> tuple[tuple[Scalar, Scalar], ...]:
        """The (x, base) of E+ = exp_q(a/c psi), E- = exp_q(a^-1/c psi) and of
        E+', E-', their exp_(q^-1) at minus the same arguments; c = q - q^-1."""
        q, qinv = self.q, self.q ** -1
        c = q - qinv
        plus, minus = self.a / c, self.a ** -1 / c
        return ((plus, q), (minus, q), (-plus, qinv), (-minus, qinv))

    @cached_property
    def exps(self) -> tuple[Matrix, Matrix, Matrix, Matrix]:
        """(E+, E-, E+', E-'), one exp per pair of ``exp_args``."""
        return tuple(self.exp(x, base) for x, base in self.exp_args)

    def exp_product(self, inverse: bool = False) -> Matrix:
        # E+ E-' (E- E+' for the inverse), built alone: derive_suite needs
        # only these two of the four exps
        i, j = (1, 2) if inverse else (0, 3)
        return self._cached(("exp_product", inverse),
                            lambda: self.exp(*self.exp_args[i]) * self.exp(*self.exp_args[j]))


def delta_from_characterization(U: Sequence[Subspace], Udd: Sequence[Subspace]) -> Matrix:
    """The unique operator with Delta U_i <= U_i-dd and
    (Delta - I) U_i <= U_0 + ... + U_(i-1).

    Delta is the transition from {U_i} to {U_i-dd}: C = Udd.coordinates *
    U.basis holds the U-basis in Udd coordinates, Delta keeps the U_i-dd
    component of each vector of U_i, so Delta = Udd.basis * C' *
    U.coordinates, where C' is C with everything outside its diagonal blocks
    zeroed.  U and Udd must be direct decompositions with equal flags.
    """
    U, Udd = Decomposition(U), Decomposition(Udd)
    if not (is_direct_decomposition(U) and is_direct_decomposition(Udd)
            and U.flags == Udd.flags):
        raise EngineError("delta-characterization",
                          "the split sequences are not direct decompositions with equal flags")
    field, n = U[0].field, U[0].ambient
    C = Udd.coordinates * U.basis
    block = [i for i, rows in enumerate(U.blocks) for _ in rows]
    C = Matrix(field, n, n, [C[r, c] if block[r] == block[c] else field.zero
                             for r in range(n) for c in range(n)])
    return Udd.basis * C * U.coordinates


# ---------------------------------------------------------------------------
# the full suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSuite:
    """A coherent bundle of operators and decompositions on one space.

    Every construction, ``dataclasses.replace`` included, checks two things
    and raises ``ValueError`` otherwise: each operator of ``OPERATOR_NAMES``
    that is present is an n x n :class:`~tdq.linalg.Matrix` over
    ``params.field`` (the error names it), and ``Astar`` comes with
    ``EstarV`` (both present or both absent).

    Decompositions are :class:`~tdq.linalg.Decomposition`s (plain tuples are
    converted).  ``psi_series`` is replaced by a fresh one unless it was built
    for a psi, q, a and d equal to this suite's, so a claimed psi never sees
    a stale series.  ``psi_route`` is ((K, B, q, a), psi), psi being the
    common value of the four expressions of :func:`psi_from_KB` as
    :func:`derive_suite` computed it.  It is dropped unless its K, B, q and
    a equal this suite's, so a claimed psi is still checked against it and a
    claimed K, B or parameter set has the four expressions computed anew.
    The identity, K^-1 and B^-1 are built on first use, per instance.
    theta_i and theta*_i are read from ``params``, rho_i is ``U[i].dim``.
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
    U: Decomposition
    Udd: Decomposition
    W: Decomposition
    EV: Decomposition
    Astar: Optional[Matrix] = None
    EstarV: Optional[Decomposition] = None
    psi_series: Optional[PsiSeries] = dataclass_field(default=None, compare=False, repr=False)
    psi_route: Optional[tuple] = dataclass_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name in OPERATOR_NAMES:
            m = getattr(self, name)
            if m is not None and not (isinstance(m, Matrix) and m.is_square
                                      and m.rows == self.n and m.field == self.field):
                raise ValueError(f"operator {name!r} must be a {self.n}x{self.n} matrix "
                                 "over the field of the parameters")
        if (self.Astar is None) != (self.EstarV is None):
            raise ValueError("Astar and EstarV must be both present or both absent")
        for name in ("U", "Udd", "W", "EV", "EstarV"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, Decomposition(value))
        series = self.psi_series
        if series is None or (series.psi, series.q, series.a, series.d) != (
                self.psi, self.q, self.a, self.d):
            object.__setattr__(self, "psi_series", PsiSeries(self.psi, self.q, self.a, self.d))
        if self.psi_route is not None and self.psi_route[0] != (self.K, self.B, self.q, self.a):
            object.__setattr__(self, "psi_route", None)

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
                 params: Optional[QRacahParams] = None) -> OperatorSuite:
    """Reconstruct the full operator suite from (A, K) or (A, A*).

    Every derived object follows its defining formula; Delta is computed
    three independent ways (power series, q-exponential product, triangular
    characterization) which must coincide exactly.  To vet externally
    supplied operators, put them into the returned suite with
    ``dataclasses.replace``, which checks them, and run the battery on it.
    """
    if K is None and Astar is None:
        raise ValueError("need K or Astar alongside A")

    if K is not None:
        sd = split_from_AK(A, K, params)
        if Astar is not None:
            sd = _attach_astar(sd, Astar)
    else:
        sd = split_from_pair(A, Astar, params)

    prms = sd.params
    q, a, d = prms.q, prms.a, prms.d
    field = q.field
    n = A.rows
    K_op = K if K is not None else _semisimple_from_decomposition(sd.U, q, d)
    B_op = _semisimple_from_decomposition(sd.Udd, q, d)

    psi = psi_from_KB(K_op, B_op, q, a)
    series = PsiSeries(psi, q, a, d)

    denom = a - a ** -1
    M = (a * K_op - (a ** -1) * B_op) * denom.inv()
    Minv = M.inverse()

    Delta_series = series.delta()
    Delta_exp = series.exp_product()
    Delta_tri = delta_from_characterization(sd.U, sd.Udd)
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

    # psi's first and third expressions agree only if K psi = q^2 psi K, so
    # psi lowers the K-eigenspaces (q^2 != 1, and +/-1 are the only roots of
    # unity in these fields), and M = (I - q a^-1 psi)^-1 K is block triangular
    # on them with distinct scalar blocks q^(d-2i): the W_i are nonzero, sum to V
    W = Decomposition(eigenspace(M, q ** (d - 2 * i)) for i in range(d + 1))

    return OperatorSuite(
        params=prms, n=n, A=A, K=K_op, B=B_op, psi=psi, M=M, Minv=Minv,
        Delta=Delta_series, Deltainv=Deltainv, U=sd.U, Udd=sd.Udd, W=W, EV=sd.EV,
        Astar=Astar, EstarV=sd.EstarV, psi_series=series,
        psi_route=((K_op, B_op, q, a), psi),
    )


def _attach_astar(sd: SplitData, Astar: Matrix) -> SplitData:
    """Add dual eigenspace data to a split computed from (A, K).

    The flag identity E*-flag_i = U-flag_i pins the dual ordering completely
    (no orientation freedom remains once U is fixed): each eigenspace of A*
    takes the place of the first U-flag that holds it, and the flags of that
    ordering must be the U-flags, so E*_i V has dimension rho_i.  b is then
    solved for that one ordering and checked against a supplied value if any.
    """
    d, q = sd.params.d, sd.params.q
    svals, sspaces = _eigendata(Astar)
    if len(svals) != d + 1:
        raise EngineError("diameter-mismatch",
                          "the dual operator has the wrong number of eigenspaces")
    flags = sd.U.flags
    place = [next(i for i, flag in enumerate(flags) if flag.contains(space))
             for space in sspaces]
    order = sorted(range(d + 1), key=place.__getitem__)
    EstarV = Decomposition(sspaces[j] for j in order)
    if EstarV.flags != flags:
        raise EngineError("split-failure", "the dual eigenspaces do not refine the split flags")
    b = _fit([svals[j] for j in order], q, d)
    if b is None:
        raise NotQRacahError("dual-parameter-failure",
                             "no b in the working field matches the dual eigenvalues")
    if sd.params.b is not None and b != sd.params.b:
        raise NotQRacahError("dual-parameter-failure",
                             "supplied b does not match the dual eigenvalues")
    return replace(sd, params=sd.params.with_b(b), EstarV=EstarV)


def downarrow(suite: OperatorSuite) -> OperatorSuite:
    """The suite of the second inversion (reversed eigenspace ordering of A).

    Asserts the expected exchanges: K and B swap, M and psi and every W_i are
    unchanged, Delta inverts, and the split decompositions swap.  The new K
    is the old B by construction, since ``derive_suite`` keeps the K it is
    given, so of the swap only B-down = K is checked.
    """
    prms = suite.params.downarrow()
    flipped = derive_suite(suite.A, K=suite.B, Astar=suite.Astar, params=prms)

    def ensure(cond: bool, message: str, lhs: Matrix, rhs: Matrix):
        if not cond:
            raise CrossRouteError(f"second inversion failed: {message}", lhs, rhs)

    ensure(flipped.B == suite.K, "B-down != K", flipped.B, suite.K)
    ensure(flipped.M == suite.M, "M-down != M", flipped.M, suite.M)
    ensure(flipped.psi == suite.psi, "psi-down != psi", flipped.psi, suite.psi)
    ensure(flipped.Delta == suite.Deltainv, "Delta-down != Delta^-1",
           flipped.Delta, suite.Deltainv)
    if flipped.W != suite.W:
        raise EngineError("downarrow-mismatch", "the halfway decomposition moved")
    if flipped.U != suite.Udd or flipped.Udd != suite.U:
        raise EngineError("downarrow-mismatch", "the split decompositions did not swap")
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
    algebra_dim: Optional[int] = None


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

    spaces: list[Decomposition] = []  # the eigenspaces of A, then of A*
    for name, m in (("A", A), ("Astar", Astar)):
        try:
            spaces.append(_eigendata(m)[1])
        except EngineError as exc:
            checks.append(CheckRecord(f"diagonalizable-{name}", "inconclusive", str(exc)))
            d = len(spaces[0]) - 1 if spaces else None
            return AxiomReport(n, d, None, False, False, tuple(checks))
        checks.append(CheckRecord(f"diagonalizable-{name}", "pass",
                                  f"{len(spaces[-1])} eigenspaces spanning the space"))

    d, delta = (len(s) - 1 for s in spaces)
    if d == delta:
        checks.append(CheckRecord("diameters-equal", "pass", f"d = delta = {d}"))
    else:
        checks.append(CheckRecord("diameters-equal", "fail", f"d = {d}, delta = {delta}"))

    for name, own, cross, action in (("A", spaces[0], Astar, "the dual action"),
                                     ("Astar", spaces[1], A, "the action")):
        if _path_ordering(own, cross) is None:
            checks.append(CheckRecord(f"standard-ordering-{name}", "fail",
                                      f"no ordering makes {action} tridiagonal"))
        else:
            checks.append(CheckRecord(f"standard-ordering-{name}", "pass",
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
    return AxiomReport(n=n, d=d, delta=delta, conclusive=True, passed=passed,
                       checks=tuple(checks), algebra_dim=algebra_dim)
