"""The identity battery: every operator identity checked on a derived suite.

Each battery item states one identity (or family indexed by the eigenspace
position) and checks it by exact matrix or subspace computation.  Failures
carry a witness; items that need the dual operator are marked
``skipped-needs-Astar`` when it is absent.  Anchors are the identity's own
formula text, so a report is readable without external references.

Items take the :class:`~tdq.engine.OperatorSuite` and read the flags, psi
series, identity and inverses it carries; each is built once per suite, on
first use, so a psi that is not nilpotent fails only the items that need its
q-exponentials.  A family over the indices 0 <= i <= d runs through
``_each``, which returns one ``{"identity", "i"}`` witness per failed check.

Subspace equalities go certificate first, with the computation as the
witness path.  Where the suite already holds the spaces, a membership test
and a dimension count prove what a new kernel, image or sum would show:
``kb_eigenspaces``, ``m_spectrum``, ``delta_flag_reversal``,
``eigenflag_tails`` and ``minv_action_ev`` each try that first, and each
docstring gives the proof.  When a step fails, the item computes, so every
verdict and witness is what the computation alone gives.

:func:`verify_battery` is a function of the suite and the requested ids
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .engine import EngineError, OperatorSuite, psi_from_KB
from .linalg import (
    Decomposition,
    Matrix,
    Subspace,
    eigenspace,
    is_direct_decomposition,
    nilpotency_index,
    subspace_sum,
)
from .qcalc import q_exp  # noqa: F401  (perfbench/tracer.py wraps this binding by name)

__all__ = [
    "BatteryEntry",
    "VerificationReport",
    "battery_ids",
    "verify_battery",
]


@dataclass(frozen=True)
class BatteryEntry:
    id: str
    anchor: str
    status: str  # pass | fail | skipped-needs-Astar
    witness: Optional[dict] = None


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple[BatteryEntry, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped-needs-Astar": 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    @property
    def passed(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def failures(self) -> list[BatteryEntry]:
        return [e for e in self.entries if e.status == "fail"]

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"id": e.id, "anchor": e.anchor, "status": e.status, "witness": e.witness}
                for e in self.entries
            ],
            "summary": self.counts,
        }


def _check_mats(pairs: Iterable[tuple[str, Matrix, Matrix]]) -> list[dict]:
    """A witness ``{"identity", "lhs", "rhs"}`` for every (label, lhs, rhs)
    with lhs != rhs: the one place a matrix equality is checked and shown."""
    return [{"identity": label, "lhs": lhs.render(), "rhs": rhs.render()}
            for label, lhs, rhs in pairs if lhs != rhs]


def _each(s: OperatorSuite, checks: Callable[[int], Iterable[tuple[str, bool]]]) -> list[dict]:
    """A witness ``{"identity": label, "i": i}`` for every failed check, index
    by index; ``checks(i)`` gives the (label, holds) pairs of index i."""
    return [{"identity": label, "i": i}
            for i in range(s.d + 1) for label, holds in checks(i) if not holds]


def _proved(certificate: Callable[[], bool]) -> bool:
    """True when every step of the certificate holds.  A step that raises
    ``ValueError``, on spaces of another ambient dimension or field, proves
    nothing, so the item then runs the computation that gives its witnesses."""
    try:
        return certificate()
    except ValueError:
        return False


def _eigen_certificate(m: Matrix, spaces: Sequence[Subspace], values: Sequence) -> bool:
    """True when spaces[i] = ker(m - values[i] I) for each i, proved with no
    kernel: the spaces form a direct decomposition (of the ambient space, so
    their dimensions sum to n), the values are distinct and m - values[i] I
    kills spaces[i].  Eigenspaces of distinct eigenvalues are independent, so
    their dimensions sum to at most n; each holds its spaces[i], whose
    dimensions already sum to n, so each is equal to it."""
    zero = Subspace.zero(m.field, m.rows)
    return (len(spaces) == len(values) == len(set(values))
            and is_direct_decomposition(spaces)
            and all(space.maps_into(m.shift(lam), zero) for space, lam in zip(spaces, values)))


def _tails_certificate(spaces: Decomposition, tails: Sequence[Subspace], d: int) -> bool:
    """True when tails[i] = spaces[i] + ... + spaces[d] for each i, given that
    tails[i] holds tails[i + 1]: the spaces are direct, tails[j] holds
    spaces[j] and dim tails[i] is the sum of the dims of spaces[i:]."""
    dims = [space.dim for space in spaces]
    return (len(spaces) == len(tails) == d + 1 and is_direct_decomposition(spaces)
            and all(tail.contains(space) for tail, space in zip(tails, spaces))
            and all(tail.dim == sum(dims[i:]) for i, tail in enumerate(tails)))


def _eigenvalues(s: OperatorSuite) -> list:
    """q^d, q^(d-2), ..., q^-d: the K, B and M eigenvalue of index i."""
    return [s.q ** (s.d - 2 * i) for i in range(s.d + 1)]


def _action_witnesses(label: str, mat: Matrix, sources: Sequence[Subspace],
                      target_of) -> list[dict]:
    out = []
    for i, src in enumerate(sources):
        target = target_of(i)
        if not src.maps_into(mat, target):
            out.append({
                "identity": label,
                "i": i,
                "image": src.image(mat).render(),
                "target": target.render(),
            })
    return out


# ---------------------------------------------------------------------------
# battery items
# ---------------------------------------------------------------------------

_REGISTRY: list[tuple[str, str, bool, Callable[[OperatorSuite], list[dict]]]] = []


def _item(item_id: str, anchor: str, needs_astar: bool = False):
    def wrap(fn):
        _REGISTRY.append((item_id, anchor, needs_astar, fn))
        return fn
    return wrap


@_item("splits_direct", "V = U_0 (+) ... (+) U_d and V = U_0^dd (+) ... (+) U_d^dd, dim U_i = dim U_i^dd = rho_i")
def _splits_direct(s):
    out = []
    if not is_direct_decomposition(s.U):
        out.append({"identity": "U direct", "dims": [x.dim for x in s.U]})
    if not is_direct_decomposition(s.Udd):
        out.append({"identity": "Udd direct", "dims": [x.dim for x in s.Udd]})
    for i in range(s.d + 1):
        if s.U[i].dim != s.Udd[i].dim:
            out.append({"identity": "common multiplicity", "i": i,
                        "dims": [s.U[i].dim, s.Udd[i].dim]})
    return out


@_item("eigenflag_tails", "E_iV + ... + E_dV = U_i + ... + U_d and E_0V + ... + E_iV = U_(d-i)^dd + ... + U_d^dd")
def _eigenflag_tails(s):
    """Certificate first, on EV's flags and tails alone.  With U direct, U_j in
    E-tail_j for each j and dim E-tail_i = dim U_i + ... + dim U_d, U-tail_i
    lies in E-tail_i (the E-tails are nested) and has its dimension, so the
    two are equal; likewise E-flag_i = U-dd-tail_(d-i) from U-dd direct,
    U_j^dd in E-flag_(d-j) and the dimensions.  A part whose certificate
    fails compares the tails of U or U-dd, built for that."""
    EV, d = s.EV, s.d
    tails_proved = _proved(lambda: _tails_certificate(s.U, EV.tails, d))
    heads_proved = _proved(lambda: _tails_certificate(s.Udd, EV.flags[::-1], d))
    return _each(s, lambda i: [
        ("E-tail = U-tail", tails_proved or EV.tails[i] == s.U.tails[i]),
        ("E-head = Udd-tail", heads_proved or EV.flags[i] == s.Udd.tails[d - i])])


@_item("split_flags_match", "U_0 + ... + U_i = U_0^dd + ... + U_i^dd")
def _split_flags_match(s):
    return _each(s, lambda i: [("U-flag = Udd-flag", s.U.flags[i] == s.Udd.flags[i])])


@_item("dual_eigenflags", "E*_0V + ... + E*_iV = U_0 + ... + U_i", needs_astar=True)
def _dual_eigenflags(s):
    return _each(s, lambda i: [("E*-flag = U-flag", s.EstarV.flags[i] == s.U.flags[i])])


@_item("a_action_splits", "(A - theta_i I)U_i <= U_(i+1) and (A - theta_(d-i) I)U_i^dd <= U_(i+1)^dd")
def _a_action_splits(s):
    def checks(i):
        yield ("(A - theta_i)U_i <= U_(i+1)",
               s.U[i].maps_into(s.A.shift(s.params.theta(i)), s.U.at(i + 1)))
        yield ("(A - theta_(d-i))U_i^dd <= U_(i+1)^dd",
               s.Udd[i].maps_into(s.A.shift(s.params.theta(s.d - i)), s.Udd.at(i + 1)))
    return _each(s, checks)


@_item("astar_action_splits", "(A* - theta*_i I)U_i <= U_(i-1) and (A* - theta*_i I)U_i^dd <= U_(i-1)^dd", needs_astar=True)
def _astar_action_splits(s):
    def checks(i):
        shift = s.Astar.shift(s.params.theta_star(i))
        yield "(A* - theta*_i)U_i <= U_(i-1)", s.U[i].maps_into(shift, s.U.at(i - 1))
        yield "(A* - theta*_i)U_i^dd <= U_(i-1)^dd", s.Udd[i].maps_into(shift, s.Udd.at(i - 1))
    return _each(s, checks)


@_item("kb_eigenspaces", "U_i is the K-eigenspace and U_i^dd the B-eigenspace for q^(d-2i)")
def _kb_eigenspaces(s):
    """Certificate first: when ``_eigen_certificate`` proves U_i = ker(K -
    q^(d-2i) I) for every i, each K check holds, and likewise B on U-dd; an
    operator whose certificate fails has each of its eigenspaces computed."""
    lams = _eigenvalues(s)
    k_proved = _proved(lambda: _eigen_certificate(s.K, s.U, lams))
    b_proved = _proved(lambda: _eigen_certificate(s.B, s.Udd, lams))

    def checks(i):
        yield "eigenspace(K, q^(d-2i)) = U_i", k_proved or eigenspace(s.K, lams[i]) == s.U[i]
        yield ("eigenspace(B, q^(d-2i)) = U_i^dd",
               b_proved or eigenspace(s.B, lams[i]) == s.Udd[i])
    return _each(s, checks)


@_item("k_weyl_a", "(qKA - q^-1 AK)/(q - q^-1) = aK^2 + a^-1 I and (qBA - q^-1 AB)/(q - q^-1) = a^-1 B^2 + aI")
def _k_weyl_a(s):
    a, q = s.a, s.q
    c = q - q ** -1
    return _check_mats([
        ("qKA - q^-1 AK = (q - q^-1)(aK^2 + a^-1 I)",
         q * (s.K * s.A) - q ** -1 * (s.A * s.K),
         c * (a * (s.K * s.K) + (a ** -1) * s.I)),
        ("qBA - q^-1 AB = (q - q^-1)(a^-1 B^2 + aI)",
         q * (s.B * s.A) - q ** -1 * (s.A * s.B),
         c * ((a ** -1) * (s.B * s.B) + a * s.I)),
    ])


@_item("kb_quadratic", "aK^2 - (a^-1 q - a q^-1)/(q - q^-1) KB - (aq - a^-1 q^-1)/(q - q^-1) BK + a^-1 B^2 = 0")
def _kb_quadratic(s):
    a, q = s.a, s.q
    c = q - q ** -1
    lhs = (a * (s.K * s.K)
           - ((a ** -1 * q - a * q ** -1) / c) * (s.K * s.B)
           - ((a * q - a ** -1 * q ** -1) / c) * (s.B * s.K)
           + (a ** -1) * (s.B * s.B))
    return _check_mats([("quadratic K-B relation", lhs, Matrix.zero(s.field, s.n))])


@_item("kb_triangular_on_splits", "(B - q^(d-2i)I)U_i <= U_0 + ... + U_(i-1) and (K - q^(d-2i)I)U_i^dd <= U_0^dd + ... + U_(i-1)^dd")
def _kb_triangular(s):
    def checks(i):
        lam = s.q ** (s.d - 2 * i)
        yield "(B - q^(d-2i))U_i <= U-flag", s.U[i].maps_into(s.B.shift(lam), s.U.flag(i - 1))
        yield ("(K - q^(d-2i))U_i^dd <= Udd-flag",
               s.Udd[i].maps_into(s.K.shift(lam), s.Udd.flag(i - 1)))
    return _each(s, checks)


@_item("psi_four_expressions", "psi = (I - BK^-1)/(q(aI - a^-1 BK^-1)) = ... (all four rational expressions)")
def _psi_four(s):
    if s.psi_route is not None:  # derive_suite's route on this K, B, q and a
        recomputed = s.psi_route[1]
    else:
        try:
            recomputed = psi_from_KB(s.K, s.B, s.q, s.a)
        except EngineError as exc:
            return [{"identity": "four expressions", "error": str(exc)}]
    return _check_mats([("common value vs stored psi", recomputed, s.psi)])


@_item("psi_commutation", "K psi = q^2 psi K and B psi = q^2 psi B")
def _psi_commutation(s):
    qq = s.q * s.q
    return _check_mats([
        ("K psi = q^2 psi K", s.K * s.psi, qq * (s.psi * s.K)),
        ("B psi = q^2 psi B", s.B * s.psi, qq * (s.psi * s.B)),
    ])


@_item("psi_nilpotent", "psi^(d+1) = 0")
def _psi_nilpotent(s):
    return _check_mats([("psi^(d+1)", s.psi_series.powers[s.d + 1], Matrix.zero(s.field, s.n))])


@_item("psi_lowers_splits", "psi U_i <= U_(i-1) and psi U_i^dd <= U_(i-1)^dd")
def _psi_lowers_splits(s):
    out = _action_witnesses("psi U_i <= U_(i-1)", s.psi, s.U,
                            lambda i: s.U.at(i - 1))
    out += _action_witnesses("psi U_i^dd <= U_(i-1)^dd", s.psi, s.Udd,
                             lambda i: s.Udd.at(i - 1))
    return out


@_item("psi_geometric_inverses", "(I - a^(+-1) q^(+-1) psi)^-1 = sum_i a^(+-i) q^(+-i) psi^i")
def _psi_geometric(s):
    a, q = s.a, s.q
    return _check_mats(
        (f"(I - {label} psi) * geometric sum", (s.I - x * s.psi) * s.psi_series.geometric(x), s.I)
        for label, x in [("aq", a * q), ("a^-1 q", a ** -1 * q),
                         ("a q^-1", a * q ** -1), ("a^-1 q^-1", a ** -1 * q ** -1)])


@_item("bk_rational_in_psi", "BK^-1 = (I - aq psi)(I - a^-1 q psi)^-1 and companions")
def _bk_rational(s):
    a, q = s.a, s.q
    I = s.I
    Kinv, Binv = s.Kinv, s.Binv
    return _check_mats([
        ("BK^-1 = (I - aq psi)(I - a^-1 q psi)^-1",
         s.B * Kinv, (I - a * q * s.psi) * s.psi_series.geometric(a ** -1 * q)),
        ("KB^-1 = (I - a^-1 q psi)(I - aq psi)^-1",
         s.K * Binv, (I - a ** -1 * q * s.psi) * s.psi_series.geometric(a * q)),
        ("K^-1 B = (I - a q^-1 psi)(I - a^-1 q^-1 psi)^-1",
         Kinv * s.B, (I - a * q ** -1 * s.psi) * s.psi_series.geometric(a ** -1 * q ** -1)),
        ("B^-1 K = (I - a^-1 q^-1 psi)(I - a q^-1 psi)^-1",
         Binv * s.K, (I - a ** -1 * q ** -1 * s.psi) * s.psi_series.geometric(a * q ** -1)),
    ])


@_item("psi_a_relation", "(psi A - A psi)/(q - q^-1) = (I - aq psi)K - (I - a^-1 q^-1 psi)K^-1")
def _psi_a_relation(s):
    a, q = s.a, s.q
    c = q - q ** -1
    Kinv = s.Kinv
    lhs = s.psi * s.A - s.A * s.psi
    rhs = c * ((s.I - a * q * s.psi) * s.K - (s.I - a ** -1 * q ** -1 * s.psi) * Kinv)
    return _check_mats([("psi A - A psi = (q - q^-1)[(I - aq psi)K - (I - a^-1 q^-1 psi)K^-1]",
                         lhs, rhs)])


@_item("delta_triangular", "Delta U_i <= U_i^dd and (Delta - I)U_i <= U_0 + ... + U_(i-1)")
def _delta_triangular(s):
    out = _action_witnesses("Delta U_i <= U_i^dd", s.Delta, s.U, lambda i: s.Udd[i])
    out += _action_witnesses("(Delta - I)U_i <= U-flag", s.Delta - s.I, s.U,
                             lambda i: s.U.flag(i - 1))
    return out


@_item("delta_inverse_properties", "Delta Delta^-1 = I, (Delta^-1 - I)U_i <= U_0 + ... + U_(i-1), Delta - I nilpotent, Delta K = B Delta")
def _delta_inverse_props(s):
    out = _check_mats([
        ("Delta Delta^-1 = I", s.Delta * s.Deltainv, s.I),
        ("Delta K = B Delta", s.Delta * s.K, s.B * s.Delta),
    ])
    if nilpotency_index(s.Delta - s.I) is None:
        out.append({"identity": "Delta - I nilpotent", "matrix": (s.Delta - s.I).render()})
    out += _action_witnesses("(Delta^-1 - I)U_i <= U-flag", s.Deltainv - s.I, s.U,
                             lambda i: s.U.flag(i - 1))
    return out


@_item("delta_dual_triangular", "(Delta - I)E*_iV <= E*_0V + ... + E*_(i-1)V", needs_astar=True)
def _delta_dual_triangular(s):
    return _action_witnesses("(Delta - I)E*_iV <= E*-flag", s.Delta - s.I, s.EstarV,
                             lambda i: s.EstarV.flag(i - 1))


@_item("delta_flag_reversal", "Delta(E_iV + ... + E_dV) = E_0V + ... + E_(d-i)V")
def _delta_flag_reversal(s):
    """Certificate first, unless every row of every E-tail is a coordinate
    vector (as in the u frame, where the images are cheap to compute).  Three
    steps prove Delta(E-tail_i) = E-flag_(d-i) for every i.  Delta maps each
    E_jV into E-flag_(d-j), so it maps E-tail_i, the sum of the E_jV with j >=
    i, into E-flag_(d-i), as the flags are nested; Delta Delta^-1 = I makes
    Delta injective, so that image has the dimension of E-tail_i, which is
    that of E-flag_(d-i); so the two are equal.  When a step fails, each
    image is computed."""
    EV, d = s.EV, s.d
    tails, flags = EV.tails, EV.flags
    coordinate = all(sum(1 for x in row if x) == 1 for tail in tails for row in tail.rows)
    if not coordinate and _proved(lambda: (
            len(EV) == d + 1 and all(tails[i].dim == flags[d - i].dim for i in range(d + 1))
            and all(EV[j].maps_into(s.Delta, flags[d - j]) for j in range(d + 1))
            and s.Delta * s.Deltainv == s.I)):
        return []
    out = []
    for i in range(d + 1):
        image = tails[i].image(s.Delta)
        target = flags[d - i]
        if image != target:
            out.append({"identity": "Delta(E-tail) = E-head", "i": i,
                        "image": image.render(), "target": target.render()})
    return out


@_item("delta_power_series", "Delta = sum_i prod_j (aq^(j-1) - a^-1 q^(1-j))/(q^j - q^-j) psi^i, and the inverse series")
def _delta_power_series(s):
    return _check_mats([
        ("Delta = power series in psi", s.Delta, s.psi_series.delta()),
        ("Delta^-1 = power series in psi", s.Deltainv, s.psi_series.delta(inverse=True)),
    ])


@_item("m_definition", "M = (aK - a^-1 B)/(a - a^-1) and M M^-1 = I")
def _m_definition(s):
    a = s.a
    return _check_mats([
        ("(a - a^-1) M = aK - a^-1 B", (a - a ** -1) * s.M, a * s.K - (a ** -1) * s.B),
        ("M M^-1 = I", s.M * s.Minv, s.I),
    ])


@_item("m_rational_forms", "M = (I - a^-1 q psi)^-1 K = K(I - a^-1 q^-1 psi)^-1 = (I - aq psi)^-1 B = B(I - a q^-1 psi)^-1")
def _m_rational_forms(s):
    a, q = s.a, s.q
    I = s.I
    return _check_mats([
        ("M = (I - a^-1 q psi)^-1 K", s.M, (I - a ** -1 * q * s.psi).inverse() * s.K),
        ("M = K (I - a^-1 q^-1 psi)^-1", s.M, s.K * (I - a ** -1 * q ** -1 * s.psi).inverse()),
        ("M = (I - a q psi)^-1 B", s.M, (I - a * q * s.psi).inverse() * s.B),
        ("M = B (I - a q^-1 psi)^-1", s.M, s.B * (I - a * q ** -1 * s.psi).inverse()),
    ])


@_item("km_products", "K = (I - a^-1 q psi)M = M(I - a^-1 q^-1 psi) and B = (I - aq psi)M = M(I - a q^-1 psi)")
def _km_products(s):
    a, q = s.a, s.q
    I = s.I
    return _check_mats([
        ("K = (I - a^-1 q psi)M", s.K, (I - a ** -1 * q * s.psi) * s.M),
        ("K = M(I - a^-1 q^-1 psi)", s.K, s.M * (I - a ** -1 * q ** -1 * s.psi)),
        ("B = (I - aq psi)M", s.B, (I - a * q * s.psi) * s.M),
        ("B = M(I - a q^-1 psi)", s.B, s.M * (I - a * q ** -1 * s.psi)),
    ])


@_item("minv_products", "M^-1 = K^-1(I - a^-1 q psi) = (I - a^-1 q^-1 psi)K^-1 = B^-1(I - aq psi) = (I - a q^-1 psi)B^-1")
def _minv_products(s):
    a, q = s.a, s.q
    I = s.I
    Kinv, Binv = s.Kinv, s.Binv
    return _check_mats([
        ("M^-1 = K^-1(I - a^-1 q psi)", s.Minv, Kinv * (I - a ** -1 * q * s.psi)),
        ("M^-1 = (I - a^-1 q^-1 psi)K^-1", s.Minv, (I - a ** -1 * q ** -1 * s.psi) * Kinv),
        ("M^-1 = B^-1(I - aq psi)", s.Minv, Binv * (I - a * q * s.psi)),
        ("M^-1 = (I - a q^-1 psi)B^-1", s.Minv, (I - a * q ** -1 * s.psi) * Binv),
    ])


@_item("m_series_forms", "M = K sum a^-n q^-n psi^n = sum a^-n q^n psi^n K = B sum a^n q^-n psi^n = sum a^n q^n psi^n B")
def _m_series_forms(s):
    a, q = s.a, s.q
    return _check_mats([
        ("M = K sum a^-n q^-n psi^n", s.M, s.K * s.psi_series.geometric(a ** -1 * q ** -1)),
        ("M = sum a^-n q^n psi^n K", s.M, s.psi_series.geometric(a ** -1 * q) * s.K),
        ("M = B sum a^n q^-n psi^n", s.M, s.B * s.psi_series.geometric(a * q ** -1)),
        ("M = sum a^n q^n psi^n B", s.M, s.psi_series.geometric(a * q) * s.B),
    ])


@_item("m_psi_commutation", "M psi = q^2 psi M")
def _m_psi_commutation(s):
    return _check_mats([("M psi = q^2 psi M", s.M * s.psi, (s.q * s.q) * (s.psi * s.M))])


@_item("minv_weyl", "(q M^-1 K - q^-1 K M^-1)/(q - q^-1) = I and (q M^-1 B - q^-1 B M^-1)/(q - q^-1) = I")
def _minv_weyl(s):
    q = s.q
    c = q - q ** -1
    return _check_mats([
        ("q M^-1 K - q^-1 K M^-1 = (q - q^-1) I",
         q * (s.Minv * s.K) - q ** -1 * (s.K * s.Minv), c * s.I),
        ("q M^-1 B - q^-1 B M^-1 = (q - q^-1) I",
         q * (s.Minv * s.B) - q ** -1 * (s.B * s.Minv), c * s.I),
    ])


@_item("a_minv_relation", "(q A M^-1 - q^-1 M^-1 A)/(q - q^-1) = (a + a^-1)I - (q + q^-1) psi")
def _a_minv_relation(s):
    a, q = s.a, s.q
    c = q - q ** -1
    lhs = q * (s.A * s.Minv) - q ** -1 * (s.Minv * s.A)
    rhs = c * ((a + a ** -1) * s.I - (q + q ** -1) * s.psi)
    return _check_mats([("q A M^-1 - q^-1 M^-1 A = (q - q^-1)[(a + a^-1)I - (q + q^-1)psi]",
                         lhs, rhs)])


@_item("m_a_quadratic", "M^-2 A - (q^2 + q^-2) M^-1 A M^-1 + A M^-2 = -(q - q^-1)^2 (a + a^-1) M^-1")
def _m_a_quadratic(s):
    a, q = s.a, s.q
    c = q - q ** -1
    Minv2 = s.Minv * s.Minv
    lhs = Minv2 * s.A - (q ** 2 + q ** -2) * (s.Minv * s.A * s.Minv) + s.A * Minv2
    rhs = -(c * c * (a + a ** -1)) * s.Minv
    return _check_mats([("second-order M^-1 relation with A", lhs, rhs)])


@_item("exp_intertwine", "K exp_q(a^-1/(q - q^-1) psi) = exp_q(a^-1/(q - q^-1) psi) M and B exp_q(a/(q - q^-1) psi) = exp_q(a/(q - q^-1) psi) M")
def _exp_intertwine(s):
    E_plus, E_minus, _, _ = s.psi_series.exps
    return _check_mats([
        ("K E- = E- M", s.K * E_minus, E_minus * s.M),
        ("B E+ = E+ M", s.B * E_plus, E_plus * s.M),
    ])


@_item("delta_exp_factorization", "Delta = exp_q(a/(q-q^-1) psi) exp_(q^-1)(-a^-1/(q-q^-1) psi) and Delta^-1 = exp_q(a^-1/(q-q^-1) psi) exp_(q^-1)(-a/(q-q^-1) psi)")
def _delta_exp_factorization(s):
    return _check_mats([
        ("Delta = E+ E-^(-1 variant)", s.Delta, s.psi_series.exp_product()),
        ("Delta^-1 = E- E+^(-1 variant)", s.Deltainv, s.psi_series.exp_product(inverse=True)),
    ])


@_item("exp_product_series", "the exponential product expands to the power series (q-binomial identity)")
def _exp_product_series(s):
    series = s.psi_series
    return _check_mats([
        ("exp product = series", series.exp_product(), series.delta()),
        ("swapped exp product = inverse series", series.exp_product(inverse=True),
         series.delta(inverse=True)),
    ])


@_item("exp_shift_relations", "S exp_q(T) = exp_q(q^2 T)S and (I - (q^2 - 1)T) exp_q(q^2 T) = exp_q(T) for S in {M, K}, T a psi multiple")
def _exp_shift_relations(s):
    qq, (x, _) = s.q * s.q, s.psi_series.exp_args[1]  # E-'s x = a^-1/(q - q^-1)
    t = x * s.psi
    out = []
    for label, mat in (("M", s.M), ("K", s.K)):
        witness = {"identity": f"shift relations with S = {label}"}
        if mat * t != qq * (t * mat):
            witness["error"] = "precondition failed: S T != q^2 T S"
        elif not any(p.is_zero() for p in s.psi_series.powers):
            witness["error"] = "precondition failed: T is not nilpotent"
        else:
            exp_t, exp_q2t = s.psi_series.exp(x, s.q), s.psi_series.exp(qq * x, s.q)
            if mat * exp_t == exp_q2t * mat and (s.I - (qq - 1) * t) * exp_q2t == exp_t:
                continue
        out.append(witness)
    return out


@_item("m_spectrum", "M is diagonalizable with eigenvalues q^d, q^(d-2), ..., q^-d and eigenspaces W_i")
def _m_spectrum(s):
    """Certificate first: when ``_eigen_certificate`` proves W_i = ker(M -
    q^(d-2i) I) for every i, every check holds, since the direct W has
    nonzero W_i with dimensions summing to n.  Otherwise each eigenspace is
    computed."""
    if _proved(lambda: _eigen_certificate(s.M, s.W, _eigenvalues(s))):
        return []
    out = []
    total = 0
    for i in range(s.d + 1):
        space = eigenspace(s.M, s.q ** (s.d - 2 * i))
        total += space.dim
        if space != s.W[i]:
            out.append({"identity": "eigenspace(M, q^(d-2i)) = W_i", "i": i})
        if space.is_zero():
            out.append({"identity": "W_i nonzero", "i": i})
    if total != s.n:
        out.append({"identity": "sum of W dims = n", "total": total, "n": s.n})
    return out


@_item("w_dims", "dim W_i = rho_i")
def _w_dims(s):
    return [{"identity": "dim W_i = rho_i", "i": i, "dim": s.W[i].dim, "rho": s.U[i].dim}
            for i in range(s.d + 1) if s.W[i].dim != s.U[i].dim]


@_item("u_w_exp_maps", "U_i = exp_q(a^-1/(q-q^-1) psi) W_i, U_i^dd = exp_q(a/(q-q^-1) psi) W_i, and the inverse maps")
def _u_w_exp_maps(s):
    E_plus, E_minus, Einv_plus, Einv_minus = s.psi_series.exps
    return _each(s, lambda i: [
        ("E- W_i = U_i", s.W[i].image(E_minus) == s.U[i]),
        ("E+ W_i = U_i^dd", s.W[i].image(E_plus) == s.Udd[i]),
        ("E-^(-1 variant) U_i = W_i", s.U[i].image(Einv_minus) == s.W[i]),
        ("E+^(-1 variant) U_i^dd = W_i", s.Udd[i].image(Einv_plus) == s.W[i]),
    ])


@_item("w_flag_sums", "W_0 + ... + W_i = U_0 + ... + U_i = U_0^dd + ... + U_i^dd")
def _w_flag_sums(s):
    return _each(s, lambda i: [("W-flag = U-flag", s.W.flags[i] == s.U.flags[i])])


@_item("psi_lowers_w", "psi W_i <= W_(i-1)")
def _psi_lowers_w(s):
    return _action_witnesses("psi W_i <= W_(i-1)", s.psi, s.W,
                             lambda i: s.W.at(i - 1))


@_item("kb_action_w", "(K - q^(d-2i)I)W_i <= W_(i-1) and (B - q^(d-2i)I)W_i <= W_(i-1)")
def _kb_action_w(s):
    def checks(i):
        lam = s.q ** (s.d - 2 * i)
        target = s.W.at(i - 1)
        yield "(K - q^(d-2i))W_i <= W_(i-1)", s.W[i].maps_into(s.K.shift(lam), target)
        yield "(B - q^(d-2i))W_i <= W_(i-1)", s.W[i].maps_into(s.B.shift(lam), target)
    return _each(s, checks)


@_item("delta_action_w", "(Delta - I)W_i and (Delta^-1 - I)W_i lie in W_0 + ... + W_(i-1)")
def _delta_action_w(s):
    out = _action_witnesses("(Delta - I)W_i <= W-flag", s.Delta - s.I, s.W,
                            lambda i: s.W.flag(i - 1))
    out += _action_witnesses("(Delta^-1 - I)W_i <= W-flag", s.Deltainv - s.I, s.W,
                             lambda i: s.W.flag(i - 1))
    return out


@_item("a_action_w", "(A - (a + a^-1) q^(d-2i) I)W_i <= W_(i-1) + W_(i+1)")
def _a_action_w(s):
    def checks(i):
        shift = s.A.shift((s.a + s.a ** -1) * s.q ** (s.d - 2 * i))
        target = subspace_sum([s.W.at(i - 1), s.W.at(i + 1)])
        yield "(A - (a+a^-1)q^(d-2i))W_i <= W_(i-1)+W_(i+1)", s.W[i].maps_into(shift, target)
    return _each(s, checks)


@_item("astar_action_w", "(A* - theta*_i I)W_i <= W_0 + ... + W_(i-1)", needs_astar=True)
def _astar_action_w(s):
    return _each(s, lambda i: [("(A* - theta*_i)W_i <= W-flag", s.W[i].maps_into(
        s.Astar.shift(s.params.theta_star(i)), s.W.flag(i - 1)))])


@_item("m_action_splits", "(M - q^(d-2i)I)U_i <= U_0 + ... + U_(i-1), and the same on the second split")
def _m_action_splits(s):
    def checks(i):
        shift = s.M.shift(s.q ** (s.d - 2 * i))
        yield "(M - q^(d-2i))U_i <= U-flag", s.U[i].maps_into(shift, s.U.flag(i - 1))
        yield "(M - q^(d-2i))U_i^dd <= Udd-flag", s.Udd[i].maps_into(shift, s.Udd.flag(i - 1))
    return _each(s, checks)


@_item("minv_action_splits", "(M^-1 - q^(2i-d)I)U_i <= U_(i-1) and (M^-1 - q^(2i-d)I)U_i^dd <= U_(i-1)^dd")
def _minv_action_splits(s):
    def checks(i):
        shift = s.Minv.shift(s.q ** (2 * i - s.d))
        yield "(M^-1 - q^(2i-d))U_i <= U_(i-1)", s.U[i].maps_into(shift, s.U.at(i - 1))
        yield ("(M^-1 - q^(2i-d))U_i^dd <= U_(i-1)^dd",
               s.Udd[i].maps_into(shift, s.Udd.at(i - 1)))
    return _each(s, checks)


@_item("minv_action_ev", "M^-1 E_iV <= E_(i-1)V + E_iV + E_(i+1)V")
def _minv_action_ev(s):
    """When EV is a direct decomposition with d + 1 spaces, E_(i-1)V + E_iV +
    E_(i+1)V is the intersection of E-flag_(i+1) and E-tail_(i-1) (the
    whole space past either end), both already built: so each index tests
    membership in those two and forms no sum.  Otherwise it forms the sum."""
    EV, d = s.EV, s.d
    if _proved(lambda: len(EV) == d + 1 and is_direct_decomposition(EV)):
        def holds(i):
            return EV[i].maps_into(s.Minv, EV.flags[min(i + 1, d)], EV.tails[max(i - 1, 0)])
    else:
        def holds(i):
            return EV[i].maps_into(s.Minv, subspace_sum([EV.at(i - 1), EV[i], EV.at(i + 1)]))
    return _each(s, lambda i: [("M^-1 E_iV <= E_(i-1)V + E_iV + E_(i+1)V", holds(i))])


@_item("m_action_dual_ev", "(M - q^(d-2i)I)E*_iV and (M^-1 - q^(2i-d)I)E*_iV lie in E*_0V + ... + E*_(i-1)V", needs_astar=True)
def _m_action_dual_ev(s):
    def checks(i):
        flag = s.EstarV.flag(i - 1)
        yield ("(M - q^(d-2i))E*_iV <= E*-flag",
               s.EstarV[i].maps_into(s.M.shift(s.q ** (s.d - 2 * i)), flag))
        yield ("(M^-1 - q^(2i-d))E*_iV <= E*-flag",
               s.EstarV[i].maps_into(s.Minv.shift(s.q ** (2 * i - s.d)), flag))
    return _each(s, checks)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def battery_ids() -> list[str]:
    return [item_id for item_id, _, _, _ in _REGISTRY]


def verify_battery(suite: OperatorSuite,
                   only: Optional[Iterable[str]] = None) -> VerificationReport:
    """Run the identity battery on a suite.

    ``only`` restricts the run to the named identities (``ValueError`` for an
    unknown id); the result depends on nothing else, not even the process
    environment.  Failures never raise: they are entries in the returned
    report.
    """
    selected = None if only is None else set(only)
    if selected is not None:
        unknown = selected - set(battery_ids())
        if unknown:
            raise ValueError(f"unknown battery ids: {sorted(unknown)}")

    entries = []
    for item_id, anchor, needs_astar, fn in _REGISTRY:
        if selected is not None and item_id not in selected:
            continue
        if needs_astar and suite.Astar is None:
            entries.append(BatteryEntry(item_id, anchor, "skipped-needs-Astar"))
            continue
        try:
            witnesses = fn(suite)
        except Exception as exc:  # a crash is a failure with the error as witness
            entries.append(BatteryEntry(item_id, anchor, "fail",
                                        {"error": f"{type(exc).__name__}: {exc}"}))
            continue
        if witnesses:
            entries.append(BatteryEntry(item_id, anchor, "fail",
                                        {"violations": witnesses[:3],
                                         "violation_count": len(witnesses)}))
        else:
            entries.append(BatteryEntry(item_id, anchor, "pass"))
    return VerificationReport(tuple(entries))
