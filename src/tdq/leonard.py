"""Closed-form model for the multiplicity-free case.

For validated parameters this module produces every operator matrix in each
of the three distinguished coordinate frames (the two split bases and the
halfway eigenbasis), along with the transition matrices between the frames.
Every matrix is computed twice: once from its closed-form entries and once
constructively from the lowering matrix and the frame's defining diagonal.
The two must agree exactly, which turns each closed form into a mechanically
checked statement.  Each form is written once, in x = a or a^-1: the second
split decomposition is the first one of the inverted system (a to a^-1, K and
B swapped, psi and M the same), so the udd frame and B in the halfway frame
read derived forms (:func:`_inverted`), still checked in every frame.  The
q-exponentials of psi-hat and the two products of them that give Delta and
Delta^-1 come from psi-hat's :class:`~tdq.engine.PsiSeries`, the same series
code the engine uses; each closed-form q-exponential is checked against its
series, and the closed forms of Delta and Delta^-1 against the products.

Everything derived from a parameter tuple (psi-hat's series, the
q-factorial table, the diagonal D = diag(q^(d-2i)) and its inverse, the four
checked q-exponentials, and each checked operator matrix) is
kept in the private memo of that :class:`~tdq.params.QRacahParams` instance.
So each cross-check runs once per instance and distinct matrix, however many
frames, transitions and basis changes reuse the result, and the memo goes
away with the instance.  There is no process-wide cache: a new instance with
equal parameters computes and checks everything again.  The public closed
forms :func:`psi_hat`, :func:`exp_psi_matrix` and :func:`delta_matrix` compute
only their entries (the last two read the q-factorial table from the memo);
the checks belong to the routes that call them.

Transition convention: ``transition_matrix(frm, to)`` has the frm-basis
coordinates of the j-th to-basis vector in column j, so it converts to-basis
coordinates into frm-basis coordinates, and representation matrices move by
``mat_to = T(to, frm) * mat_frm * T(frm, to)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .engine import OPERATOR_NAMES, CrossRouteError, PsiSeries, psi_from_KB
from .linalg import Matrix
from .params import QRacahParams
from .qcalc import q_exp, q_fact  # noqa: F401  (perfbench/tracer.py wraps q_exp by name)
from .scalars import Scalar

__all__ = [
    "KINDS",
    "BASES",
    "psi_hat",
    "exp_psi_matrix",
    "delta_matrix",
    "operator_matrix",
    "transition_matrix",
    "change_basis",
    "LeonardSuite",
    "leonard_suite",
]

KINDS = tuple(name for name in OPERATOR_NAMES if name != "Astar")
BASES = ("u", "udd", "w")


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


def exp_psi_matrix(params: QRacahParams, x: Scalar, base: Scalar) -> Matrix:
    """Closed form of exp_base(x psi-hat), for base q or q^-1 (``ValueError``
    otherwise): entry (i,j) is
    x^(j-i) base^C(j-i,2) (q-q^-1)^(2(j-i)) [j]![d-i]!/([i]![j-i]![d-j]!).

    The routes that call it (:func:`transition_matrix`, the Delta kinds of
    :func:`operator_matrix`) check it against the truncated series.
    """
    d, q, fact = params.d, params.q, _fact(params)
    if base not in (q, q ** -1):
        raise ValueError("exp_psi_matrix needs base q or q^-1")
    return _upper_triangular(d, q.field, lambda i, j: (
        x ** (j - i) * base ** comb(j - i, 2) * (q - q ** -1) ** (2 * (j - i))
        * _fact_ratio(d, i, j, fact)))


def delta_matrix(params: QRacahParams, inverse: bool = False) -> Matrix:
    """Closed form of the transition operator, the same in all three frames:
    entry (i,j) is
    (q-q^-1)^(j-i) [j]![d-i]!/([i]![j-i]![d-j]!) prod_(n=1..j-i)(a q^(n-1) - a^-1 q^(1-n)),
    with a and a^-1 exchanged for the inverse.  :func:`operator_matrix`
    checks it against the product of the two q-exponentials.
    """
    d, q, fact = params.d, params.q, _fact(params)
    field = q.field
    a = params.a ** -1 if inverse else params.a
    ainv = a ** -1

    def entry(i, j):
        prod = field.one
        for n in range(1, j - i + 1):
            prod = prod * (a * q ** (n - 1) - ainv * q ** (1 - n))
        return (q - q ** -1) ** (j - i) * _fact_ratio(d, i, j, fact) * prod

    return _upper_triangular(d, field, entry)


# ---------------------------------------------------------------------------
# per-parameter ingredients, each computed once and kept in the params memo
# ---------------------------------------------------------------------------


def _fact(params: QRacahParams) -> list[Scalar]:
    """[0]!, ..., [d]!."""
    return params._cached("q_fact", lambda: [q_fact(n, params.q) for n in range(params.d + 1)])


def _shift_diag(params: QRacahParams, sign: int = 1) -> Matrix:
    """diag(q^(d-2i)), or its inverse for sign -1."""
    d, q = params.d, params.q
    return params._cached(("D", sign), lambda: Matrix.diagonal(
        params.field, [q ** (sign * (d - 2 * i)) for i in range(d + 1)]))


def _hat_series(params: QRacahParams) -> PsiSeries:
    """psi-hat (``.psi``) with its power series and q-exponentials."""
    return params._cached("psi_hat_series", lambda: PsiSeries(
        psi_hat(params.d, params.q), params.q, params.a, params.d))


def _exps(params: QRacahParams) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """psi-hat's (E+, E-, E+', E-') of :attr:`PsiSeries.exps`, each checked
    once against its closed form."""
    def build():
        series = _hat_series(params)
        for exp, (x, base) in zip(series.exps, series.exp_args):
            formula = exp_psi_matrix(params, x, base)
            if formula != exp:
                raise CrossRouteError("closed-form q-exponential entries disagree with "
                                      "the series", formula, exp)
        return series.exps
    return params._cached("exps", build)


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


_SWAP = {"K": "B", "B": "K"}


def _inverted(kind: str, basis: str, a: Scalar) -> tuple[str, str, Scalar]:
    """(kind, frame, x): the form, written in x, that gives ``kind`` in ``basis``.

    The second split decomposition is the first one of the inverted system,
    which takes a to a^-1 and swaps K and B (psi and M stay).  So the udd frame
    reads the u form of the swapped kind at x = a^-1, and B in the w frame
    reads K's form at x = a^-1; every other matrix reads its own form at x = a.
    """
    if basis == "udd":
        return _SWAP.get(kind, kind), "u", a ** -1
    if (kind, basis) == ("B", "w"):
        return "K", "w", a ** -1
    return kind, basis, a


def _build_formula(kind: str, basis: str, params: QRacahParams) -> Matrix:
    if kind == "psi":
        return _hat_series(params).psi
    if kind in ("Delta", "Deltainv"):
        return delta_matrix(params, inverse=kind == "Deltainv")
    d, q, field = params.d, params.q, params.field
    form, frame, x = _inverted(kind, basis, params.a)
    xinv = x ** -1

    def one(i):
        return field.one

    if frame == "w":
        if form == "A":  # tridiagonal halfway frame: subdiagonal all ones
            return _banded(d, field, lambda i: (x + xinv) * q ** (d - 2 * i), sub=one,
                           sup=lambda i: -q ** (d - 2 * i + 1) * _super_entry(d, i, q))
        if form == "K":
            return _banded(d, field, lambda i: q ** (d - 2 * i),
                           sup=lambda i: -xinv * q ** (d - 2 * i + 1) * _super_entry(d, i, q))
        return _shift_diag(params, sign=1 if form == "M" else -1)

    if form == "A":  # theta_i at a^-1 is theta_(d-i) at a
        return _banded(d, field, params.theta if x == params.a
                       else lambda i: params.theta(d - i), sub=one)
    if form == "K":
        return _shift_diag(params)
    if form == "Minv":
        return _banded(d, field, lambda i: q ** (2 * i - d),
                       sup=lambda i: -xinv * q ** (2 * i - d - 1) * _super_entry(d, i, q))
    fact = _fact(params)

    def entry(i, j):  # B and M are upper triangular
        if form == "M":
            amount = x ** (i - j)
        else:
            amount = (1 - x * x) * x ** (i - j) if i < j else field.one
        return (amount * q ** (d - j - i) * (q - q ** -1) ** (2 * (j - i))
                * fact[j] * fact[d - i] / (fact[i] * fact[d - j]))
    return _upper_triangular(d, field, entry)


def _constructive_matrix(kind: str, basis: str, params: QRacahParams) -> Matrix:
    q = params.q
    series = _hat_series(params)
    if kind == "psi":
        return psi_from_KB(_formula_matrix("K", basis, params),
                           _formula_matrix("B", basis, params), q, params.a)
    if kind in ("Delta", "Deltainv"):
        return series.exp_product(inverse=kind == "Deltainv")
    if kind == "A":
        frm = "u" if basis == "w" else "w"
        return change_basis(_formula_matrix("A", frm, params), frm, basis, params)

    form, frame, x = _inverted(kind, basis, params.a)
    xinv = x ** -1
    I = Matrix.identity(params.field, params.d + 1)
    if frame == "w":
        if form == "K":
            return (I - xinv * q * series.psi) * _shift_diag(params)
        if form == "M":
            num = x * _formula_matrix("K", "w", params) - xinv * _formula_matrix("B", "w", params)
            return num * (x - xinv).inv()
        return operator_matrix("M", "w", params).inverse()

    if form == "M":
        return _shift_diag(params) * series.geometric(xinv * q ** -1)
    if form == "Minv":
        return (I - xinv * q ** -1 * series.psi) * _shift_diag(params, sign=-1)
    # K = (x^-2 + (1 - x^-2) sum (x q psi)^n) B and B = (x^2 + (1 - x^2)
    # sum (x^-1 q psi)^n) D; the B at the same x is kind's swap in this basis
    if form == "K":
        factor = xinv * xinv * I + (1 - xinv * xinv) * series.geometric(x * q)
        return factor * _formula_matrix(_SWAP[kind], basis, params)
    return (x * x * I + (1 - x * x) * series.geometric(xinv * q)) * _shift_diag(params)


def transition_matrix(frm: str, to: str, params: QRacahParams) -> Matrix:
    """Coordinate-conversion matrix between two frames (see module docstring
    for the orientation convention)."""
    if frm not in BASES or to not in BASES:
        raise ValueError("bases must be among " + ", ".join(BASES))
    if frm == to:
        return Matrix.identity(params.field, params.d + 1)
    table = {  # _exps is (E+, E-, E+', E-')
        ("u", "w"): lambda: _exps(params)[3],
        ("w", "u"): lambda: _exps(params)[1],
        ("udd", "w"): lambda: _exps(params)[2],
        ("w", "udd"): lambda: _exps(params)[0],
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
    transitions: dict[tuple[str, str], Matrix]


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
        transitions=transitions,
        **matrices,
    )
