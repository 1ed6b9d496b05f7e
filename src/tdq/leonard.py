"""Closed-form model for the multiplicity-free case.

For validated parameters this module produces every operator matrix in each
of the three distinguished coordinate frames (the two split bases and the
halfway eigenbasis), along with the transition matrices between the frames.
Every matrix is computed twice: once from its closed-form entries and once
constructively from the lowering matrix and the frame's defining diagonal.
The two must agree exactly, which turns each closed form into a mechanically
checked statement.  The q-exponentials of psi-hat are likewise checked
against their series, and Delta and Delta^-1 against the product of two
q-exponentials.

Everything derived from a parameter tuple (psi-hat and its power series, the
q-factorial table, the diagonal D = diag(q^(d-2i)) and its inverse, the four
q-exponentials, Delta and Delta^-1, and each checked operator matrix) is
kept in the private memo of that :class:`~tdq.params.QRacahParams` instance.
So each cross-check runs once per instance and distinct matrix, however many
frames, transitions and basis changes reuse the result, and the memo goes
away with the instance.  There is no process-wide cache: a new instance with
equal parameters computes and checks everything again.  The public closed
forms :func:`psi_hat`, :func:`exp_psi_matrix` and :func:`delta_matrix` take
plain scalars and compute only their entries; the checks belong to the
parameter-bound routes that call them.

Transition convention: ``transition_matrix(frm, to)`` has the frm-basis
coordinates of the j-th to-basis vector in column j, so it converts to-basis
coordinates into frm-basis coordinates, and representation matrices move by
``mat_to = T(to, frm) * mat_frm * T(frm, to)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .engine import CrossRouteError, PsiSeries, psi_from_KB
from .linalg import Matrix
from .params import QRacahParams
from .qcalc import q_exp, q_fact
from .scalars import Scalar

__all__ = [
    "KINDS",
    "BASES",
    "EigenvalueSeq",
    "eigenvalue_seq",
    "psi_hat",
    "exp_psi_matrix",
    "delta_matrix",
    "operator_matrix",
    "transition_matrix",
    "change_basis",
    "LeonardSuite",
    "leonard_suite",
]

KINDS = ("A", "K", "B", "M", "Minv", "Delta", "Deltainv", "psi")
BASES = ("u", "udd", "w")


@dataclass(frozen=True)
class EigenvalueSeq:
    theta: tuple[Scalar, ...]
    theta_star: Optional[tuple[Scalar, ...]]


def eigenvalue_seq(params: QRacahParams) -> EigenvalueSeq:
    """Both eigenvalue sequences; mutual distinctness is rechecked."""
    theta = tuple(params.theta(i) for i in range(params.d + 1))
    if len(set(theta)) != len(theta):
        raise ValueError("eigenvalues are not mutually distinct")
    theta_star = None
    if params.b is not None:
        theta_star = tuple(params.theta_star(i) for i in range(params.d + 1))
        if len(set(theta_star)) != len(theta_star):
            raise ValueError("dual eigenvalues are not mutually distinct")
    return EigenvalueSeq(theta, theta_star)


def psi_hat(d: int, q: Scalar) -> Matrix:
    """The lowering matrix: entry (i-1, i) is
    (q^i - q^-i)(q^(d-i+1) - q^(i-d-1)), all other entries zero."""
    return _banded(d, q.field, sup=lambda i: _super_entry(d, i, q))


def _super_entry(d: int, i: int, q: Scalar) -> Scalar:
    return (q ** i - q ** -i) * (q ** (d - i + 1) - q ** (i - d - 1))


def _fact_ratio(d: int, i: int, j: int, fact) -> Scalar:
    """[j]![d-i]!/([i]![j-i]![d-j]!)."""
    return fact[j] * fact[d - i] / (fact[i] * fact[j - i] * fact[d - j])


def _banded(d: int, field, diag=None, sub=None, sup=None) -> Matrix:
    """diag(i) at (i, i), sub(i) at (i, i-1), sup(i) at (i-1, i); zero elsewhere
    and wherever a function is not given."""
    rows = [[field.zero] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        if diag:
            rows[i][i] = diag(i)
        if i and sub:
            rows[i][i - 1] = sub(i)
        if i and sup:
            rows[i - 1][i] = sup(i)
    return Matrix.from_rows(field, rows)


def _upper_triangular(d: int, field, entry) -> Matrix:
    rows = [[field.zero] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(i, d + 1):
            rows[i][j] = entry(i, j)
    return Matrix.from_rows(field, rows)


def exp_psi_matrix(d: int, x: Scalar, q: Scalar, variant: str = "q") -> Matrix:
    """Closed form of the q-exponential of x times the lowering matrix:
    entry (i,j) is x^(j-i) q^(+-C(j-i,2)) (q-q^-1)^(2(j-i)) [j]![d-i]!/([i]![j-i]![d-j]!).

    The parameter-bound routes (:func:`transition_matrix`, the Delta kinds of
    :func:`operator_matrix`) check it against the truncated series.
    """
    if variant not in ("q", "q_inverse"):
        raise ValueError(f"unknown variant {variant!r}")
    sign = 1 if variant == "q" else -1
    fact = [q_fact(n, q) for n in range(d + 1)]
    return _upper_triangular(d, q.field, lambda i, j: (
        x ** (j - i) * q ** (sign * comb(j - i, 2)) * (q - q ** -1) ** (2 * (j - i))
        * _fact_ratio(d, i, j, fact)))


def delta_matrix(d: int, q: Scalar, a: Scalar, inverse: bool = False) -> Matrix:
    """Closed form of the transition operator, the same in all three frames:
    entry (i,j) is
    (q-q^-1)^(j-i) [j]![d-i]!/([i]![j-i]![d-j]!) prod_(n=1..j-i)(a q^(n-1) - a^-1 q^(1-n)),
    with a and a^-1 exchanged for the inverse.  :func:`operator_matrix`
    checks it against the product of the two q-exponentials.
    """
    field = q.field
    if inverse:
        a = a ** -1
    ainv = a ** -1
    fact = [q_fact(n, q) for n in range(d + 1)]

    def entry(i, j):
        prod = field.one
        for n in range(1, j - i + 1):
            prod = prod * (a * q ** (n - 1) - ainv * q ** (1 - n))
        return (q - q ** -1) ** (j - i) * _fact_ratio(d, i, j, fact) * prod

    return _upper_triangular(d, field, entry)


# ---------------------------------------------------------------------------
# per-parameter ingredients, each computed once and kept in the params memo
# ---------------------------------------------------------------------------


def _hat(params: QRacahParams) -> Matrix:
    return params._cached("psi_hat", lambda: psi_hat(params.d, params.q))


def _shift_diag(params: QRacahParams, sign: int = 1) -> Matrix:
    """diag(q^(d-2i)), or its inverse for sign -1."""
    d, q = params.d, params.q
    return params._cached(("D", sign), lambda: Matrix.diagonal(
        params.field, [q ** (sign * (d - 2 * i)) for i in range(d + 1)]))


def _hat_series(params: QRacahParams) -> PsiSeries:
    return params._cached("psi_hat_series", lambda: PsiSeries(
        _hat(params), params.q, params.a, params.d))


def _exp(params: QRacahParams, inverse_a: bool, variant: str) -> Matrix:
    """exp_q(s/(q-q^-1) psihat) for the q variant and
    exp_(q^-1)(-s/(q-q^-1) psihat) for q_inverse, where s is a, or a^-1 when
    ``inverse_a``; the closed form is checked against the series once."""
    def build():
        q, a = params.q, params.a
        x = (a ** -1 if inverse_a else a) / (q - q ** -1)
        if variant != "q":
            x = -x
        formula = exp_psi_matrix(params.d, x, q, variant)
        series = q_exp(x * _hat(params), q, variant)  # type: ignore[arg-type]
        if formula != series:
            raise CrossRouteError("closed-form q-exponential entries disagree with "
                                  "the series", formula, series)
        return formula
    return params._cached(("exp", inverse_a, variant), build)


def _exp_product(params: QRacahParams, inverse: bool) -> Matrix:
    """Delta (Delta^-1 when ``inverse``) as a product of two q-exponentials."""
    return params._cached(("exp_product", inverse), lambda: (
        _exp(params, inverse, "q") * _exp(params, not inverse, "q_inverse")))


def operator_matrix(kind: str, basis: str, params: QRacahParams) -> Matrix:
    """The matrix of the requested operator in the requested frame.

    The closed-form entries and an independent constructive computation must
    agree exactly; CrossRouteError is raised otherwise.  The check runs once
    per parameter instance and distinct matrix: Delta and Delta^-1 are the
    same in every frame.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")

    def build():
        formula = _formula_matrix(kind, basis, params)
        constructive = _constructive_matrix(kind, basis, params)
        if formula != constructive:
            raise CrossRouteError(
                f"entry formula and constructive route for {kind}@{basis} disagree",
                formula, constructive)
        return formula
    frame = None if kind in ("Delta", "Deltainv") else basis
    return params._cached(("operator", kind, frame), build)


def _formula_matrix(kind: str, basis: str, params: QRacahParams) -> Matrix:
    return params._cached(("formula", kind, basis),
                          lambda: _build_formula(kind, basis, params))


def _build_formula(kind: str, basis: str, params: QRacahParams) -> Matrix:
    d, q, a = params.d, params.q, params.a
    field = params.field
    fact = params._cached("q_fact", lambda: [q_fact(n, q) for n in range(d + 1)])
    ainv = a ** -1

    def triangular(amount):
        return _upper_triangular(d, field, lambda i, j: (
            amount(i, j) * q ** (d - j - i) * (q - q ** -1) ** (2 * (j - i))
            * fact[j] * fact[d - i] / (fact[i] * fact[d - j])))

    def bidiagonal(diag, superdiag):
        return _banded(d, field, diag, sup=superdiag)

    def one(i):
        return field.one

    if kind == "psi":
        return _hat(params)
    if kind == "Delta":
        return delta_matrix(d, q, a)
    if kind == "Deltainv":
        return delta_matrix(d, q, a, inverse=True)

    if kind == "A":
        if basis == "u":
            return _banded(d, field, params.theta, sub=one)
        if basis == "udd":
            return _banded(d, field, lambda i: params.theta(d - i), sub=one)
        # tridiagonal halfway frame: subdiagonal all ones
        return _banded(d, field, lambda i: (a + ainv) * q ** (d - 2 * i), sub=one,
                       sup=lambda i: -q ** (d - 2 * i + 1) * _super_entry(d, i, q))

    if kind == "K":
        if basis == "u":
            return _shift_diag(params)
        if basis == "udd":
            return triangular(lambda i, j: (1 - ainv * ainv) * a ** (j - i)
                              if i < j else field.one)
        return bidiagonal(lambda i: q ** (d - 2 * i),
                          lambda i: -ainv * q ** (d - 2 * i + 1) * _super_entry(d, i, q))

    if kind == "B":
        if basis == "udd":
            return _shift_diag(params)
        if basis == "u":
            return triangular(lambda i, j: (1 - a * a) * a ** (i - j)
                              if i < j else field.one)
        return bidiagonal(lambda i: q ** (d - 2 * i),
                          lambda i: -a * q ** (d - 2 * i + 1) * _super_entry(d, i, q))

    if kind == "M":
        if basis == "u":
            return triangular(lambda i, j: a ** (i - j))
        if basis == "udd":
            return triangular(lambda i, j: a ** (j - i))
        return _shift_diag(params)

    if kind == "Minv":
        if basis == "u":
            return bidiagonal(lambda i: q ** (2 * i - d),
                              lambda i: -ainv * q ** (2 * i - d - 1) * _super_entry(d, i, q))
        if basis == "udd":
            return bidiagonal(lambda i: q ** (2 * i - d),
                              lambda i: -a * q ** (2 * i - d - 1) * _super_entry(d, i, q))
        return _shift_diag(params, sign=-1)

    raise AssertionError(kind)


def _constructive_matrix(kind: str, basis: str, params: QRacahParams) -> Matrix:
    d, q, a = params.d, params.q, params.a
    ainv = a ** -1
    hat = _hat(params)
    D = _shift_diag(params)
    I = Matrix.identity(params.field, d + 1)

    if kind == "psi":
        K = _formula_matrix("K", basis, params)
        B = _formula_matrix("B", basis, params)
        return psi_from_KB(K, B, q, a)

    if kind == "A":
        if basis == "w":
            return change_basis(_formula_matrix("A", "u", params), "u", "w", params)
        if basis == "udd":
            return change_basis(_formula_matrix("A", "u", params), "u", "udd", params)
        return change_basis(_formula_matrix("A", "w", params), "w", "u", params)

    if kind == "K":
        if basis == "w":
            return (I - ainv * q * hat) * D
        factor = ainv * ainv * I + (1 - ainv * ainv) * _hat_series(params).geometric(a * q)
        return factor * (_formula_matrix("B", "u", params) if basis == "u" else D)

    if kind == "B":
        if basis == "w":
            return (I - a * q * hat) * D
        factor = a * a * I + (1 - a * a) * _hat_series(params).geometric(ainv * q)
        return factor * (_formula_matrix("K", "udd", params) if basis == "udd" else D)

    if kind == "M":
        if basis == "u":
            return D * _hat_series(params).geometric(ainv * q ** -1)
        if basis == "udd":
            return D * _hat_series(params).geometric(a * q ** -1)
        num = a * _formula_matrix("K", "w", params) - ainv * _formula_matrix("B", "w", params)
        return num * (a - ainv).inv()

    if kind == "Minv":
        Dinv = _shift_diag(params, sign=-1)
        if basis == "u":
            return (I - ainv * q ** -1 * hat) * Dinv
        if basis == "udd":
            return (I - a * q ** -1 * hat) * Dinv
        return _constructive_matrix("M", "w", params).inverse()

    if kind == "Delta":
        return _exp_product(params, inverse=False)
    if kind == "Deltainv":
        return _exp_product(params, inverse=True)

    raise AssertionError(kind)


def transition_matrix(frm: str, to: str, params: QRacahParams) -> Matrix:
    """Coordinate-conversion matrix between two frames (see module docstring
    for the orientation convention)."""
    if frm not in BASES or to not in BASES:
        raise ValueError("bases must be among " + ", ".join(BASES))
    if frm == to:
        return Matrix.identity(params.field, params.d + 1)
    table = {
        ("u", "w"): lambda: _exp(params, True, "q_inverse"),
        ("w", "u"): lambda: _exp(params, True, "q"),
        ("udd", "w"): lambda: _exp(params, False, "q_inverse"),
        ("w", "udd"): lambda: _exp(params, False, "q"),
        ("u", "udd"): lambda: operator_matrix("Delta", "u", params),
        ("udd", "u"): lambda: operator_matrix("Deltainv", "u", params),
    }
    return table[(frm, to)]()


def change_basis(mat: Matrix, frm: str, to: str, params: QRacahParams) -> Matrix:
    """Rewrite a representation matrix from one frame to another."""
    if frm == to:
        return mat
    P = transition_matrix(to, frm, params)
    Pinv = transition_matrix(frm, to, params)
    return P * mat * Pinv


@dataclass(frozen=True)
class LeonardSuite:
    """All operator matrices in one frame, plus the transition table.

    ``A_udd`` carries the second-split representation of A for reference; the
    parameter b only enters through the dual eigenvalue sequence.
    """

    params: QRacahParams
    basis: str
    A: Matrix
    K: Matrix
    B: Matrix
    psi: Matrix
    M: Matrix
    Minv: Matrix
    Delta: Matrix
    Deltainv: Matrix
    A_udd: Matrix
    eigenvalues: EigenvalueSeq
    transitions: dict[tuple[str, str], Matrix]

    def matrix(self, kind: str) -> Matrix:
        return getattr(self, kind)


def leonard_suite(params: QRacahParams, basis: str = "u") -> LeonardSuite:
    """Generate the coherent closed-form bundle in the given frame."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    matrices = {kind: operator_matrix(kind, basis, params) for kind in KINDS}
    transitions = {
        (f, t): transition_matrix(f, t, params) for f in BASES for t in BASES
    }
    return LeonardSuite(
        params=params,
        basis=basis,
        A_udd=operator_matrix("A", "udd", params),
        eigenvalues=eigenvalue_seq(params),
        transitions=transitions,
        **matrices,
    )
