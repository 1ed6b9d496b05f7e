from fractions import Fraction
from itertools import product
from math import comb

import pytest

from tdq import engine, leonard
from tdq.linalg import Matrix
from tdq.params import QRacahParams
from tdq.scalars import Scalar, rational_field, ratfunc_field

from conftest import make_params
from test_acceptance import GRID_POINTS
from test_qcalc import reference_q_fact

QF = rational_field()


def frac_rows(m):
    return m.render()


class TestEigenvalues:
    def test_d1_values(self, QF):
        p = make_params(QF, d=1)
        assert [str(p.theta(i)) for i in range(2)] == ["37/6", "13/6"]
        assert [str(p.theta_star(i)) for i in range(2)] == ["101/10", "29/10"]

    def test_d2_values(self, QF):
        p = make_params(QF, d=2)
        assert [str(p.theta(i)) for i in range(3)] == ["145/12", "10/3", "25/12"]

    def test_inversion_symmetry(self, QF):
        # theta_i(q, a) = theta_i(1/q, 1/a)
        p = make_params(QF, d=3)
        flipped = QRacahParams(3, p.q ** -1, p.a ** -1, p.b)
        assert [p.theta(i) for i in range(4)] == [flipped.theta(i) for i in range(4)]

    def test_missing_b(self, QF):
        p = QRacahParams(2, QF.coerce(2), QF.coerce(3))
        with pytest.raises(ValueError, match="need the parameter b"):
            p.theta_star(0)


class TestPsiHat:
    def test_d1_entry(self, QF):
        assert frac_rows(leonard.psi_hat(1, QF.coerce(2))) == [["0", "9/4"], ["0", "0"]]

    def test_d2_entries(self, QF):
        hat = leonard.psi_hat(2, QF.coerce(2))
        assert str(hat[0, 1]) == "45/8"
        assert str(hat[1, 2]) == "45/8"

    def test_nilpotency_index(self, QF):
        from tdq.linalg import nilpotency_index

        for d in (1, 2, 3, 4):
            assert nilpotency_index(leonard.psi_hat(d, QF.coerce(2))) == d + 1


class TestOperatorMatrices:
    def test_spot_values_d1(self, QF):
        p = make_params(QF, d=1)
        expected = {
            ("M", "u"): [["2", "3/4"], ["0", "1/2"]],
            ("Minv", "u"): [["1/2", "-3/4"], ["0", "2"]],
            ("B", "u"): [["2", "-6"], ["0", "1/2"]],
            ("A", "w"): [["20/3", "-9/4"], ["1", "5/3"]],
            ("Delta", "u"): [["1", "4"], ["0", "1"]],
            ("K", "w"): [["2", "-3/4"], ["0", "1/2"]],
        }
        for (kind, basis), rows in expected.items():
            assert frac_rows(leonard.operator_matrix(kind, basis, p)) == rows

    def test_every_pair_cross_checks(self, QF):
        # formula and constructive computation agree for all 24 pairs
        for d in (1, 2, 3):
            p = make_params(QF, d=d)
            for kind, basis in product(leonard.KINDS, leonard.BASES):
                leonard.operator_matrix(kind, basis, p)

    def test_a_w_subdiagonal_ones(self, QF):
        for d in (1, 2, 3, 4):
            p = make_params(QF, d=d)
            aw = leonard.operator_matrix("A", "w", p)
            for i in range(1, d + 1):
                assert aw[i, i - 1] == QF.one

    def test_trace_minpoly_basis_independent(self, QF):
        p = make_params(QF, d=3)
        mats = [leonard.operator_matrix("A", basis, p) for basis in leonard.BASES]
        traces = {sum((m[i, i] for i in range(m.rows)), QF.zero) for m in mats}
        minpolys = {tuple(m.minimal_polynomial()) for m in mats}
        assert len(traces) == 1 and len(minpolys) == 1

    def test_b_never_enters_matrices(self, QF):
        with_b = make_params(QF, d=2, b=5)
        without_b = QRacahParams(2, with_b.q, with_b.a)
        for kind, basis in product(leonard.KINDS, leonard.BASES):
            assert leonard.operator_matrix(kind, basis, with_b) == \
                leonard.operator_matrix(kind, basis, without_b)

    def test_unknown_kind_or_basis(self, QF):
        p = make_params(QF)
        with pytest.raises(ValueError):
            leonard.operator_matrix("X", "u", p)
        with pytest.raises(ValueError):
            leonard.operator_matrix("A", "v", p)


class TestTransitions:
    def test_identity_on_diagonal(self, QF):
        p = make_params(QF, d=2)
        for basis in leonard.BASES:
            assert leonard.transition_matrix(basis, basis, p) == Matrix.identity(QF, 3)

    def test_w_to_u_value(self, QF):
        p = make_params(QF, d=1)
        t = leonard.transition_matrix("w", "u", p)
        assert frac_rows(t) == [["1", "1/2"], ["0", "1"]]

    def test_inverse_pairs(self, QF):
        p = make_params(QF, d=2)
        eye = Matrix.identity(QF, 3)
        for f, t in product(leonard.BASES, leonard.BASES):
            assert leonard.transition_matrix(f, t, p) * \
                leonard.transition_matrix(t, f, p) == eye

    def test_u_to_udd_is_delta(self, QF):
        p = make_params(QF, d=2)
        assert leonard.transition_matrix("u", "udd", p) == \
            leonard.operator_matrix("Delta", "u", p)

    def test_change_basis_round_trip(self, QF):
        p = make_params(QF, d=2)
        m = leonard.operator_matrix("M", "u", p)
        moved = leonard.change_basis(m, "u", "w", p)
        assert moved == leonard.operator_matrix("M", "w", p)
        assert leonard.change_basis(moved, "w", "u", p) == m


# the second split decomposition is the first one of the inverted system
# (params.downarrow(): a to a^-1), which swaps K and B and Delta and Delta^-1
INVERTED_KIND = {"K": "B", "B": "K", "Delta": "Deltainv", "Deltainv": "Delta"}
INVERSION_CASES = ([("rational", d, point) for d in (1, 2, 3, 4) for point in GRID_POINTS]
                   + [("ratfunc", d, None) for d in (1, 2, 3)])


def _inversion_pair(backend, d, point):
    """(params, params.downarrow()): two instances, each with its own memo."""
    if backend == "ratfunc":
        RF = ratfunc_field(("q", "a"))
        p = QRacahParams(d, RF.generator("q"), RF.generator("a"))
    else:
        p = make_params(QF, d, *point)
    down = p.downarrow()
    assert down.a == p.a ** -1 and down._memo is not p._memo
    return p, down


@pytest.mark.parametrize("backend,d,point", INVERSION_CASES,
                         ids=[f"{b}-d{d}-{p and ','.join(map(str, p))}"
                              for b, d, p in INVERSION_CASES])
class TestSecondInversion:
    def test_udd_frame_is_u_frame_of_inverted(self, backend, d, point):
        p, down = _inversion_pair(backend, d, point)
        for kind in leonard.KINDS:
            assert leonard.operator_matrix(kind, "udd", p) == \
                leonard.operator_matrix(INVERTED_KIND.get(kind, kind), "u", down), kind

    def test_w_frame_b_and_delta_of_inverted(self, backend, d, point):
        p, down = _inversion_pair(backend, d, point)
        for kind in ("B", "Delta", "Deltainv"):
            assert leonard.operator_matrix(kind, "w", p) == \
                leonard.operator_matrix(INVERTED_KIND[kind], "w", down), kind

    def test_udd_transitions_are_u_transitions_of_inverted(self, backend, d, point):
        p, down = _inversion_pair(backend, d, point)
        assert leonard.transition_matrix("w", "udd", p) == \
            leonard.transition_matrix("w", "u", down)
        assert leonard.transition_matrix("udd", "w", p) == \
            leonard.transition_matrix("u", "w", down)


FORM_CASES = ([("rational", d, point) for d in range(1, 9) for point in GRID_POINTS]
              + [("ratfunc", d, None) for d in (1, 2, 3)])


def _form_params(backend, d, point):
    if backend == "ratfunc":
        RF = ratfunc_field(("q", "a"))
        return QRacahParams(d, RF.generator("q"), RF.generator("a"))
    return make_params(QF, d, *point)


def _per_entry(params, entry):
    """The upper-triangular matrix with entry(i, j, R) at (i, j) for j >= i,
    R = [j]![d-i]!/([i]![j-i]![d-j]!) from the defining q-factorials."""
    d, q, field = params.d, params.q, params.field
    fact = [reference_q_fact(n, q) for n in range(d + 1)]
    return Matrix.from_rows(field, [[
        entry(i, j, fact[j] * fact[d - i] / (fact[i] * fact[j - i] * fact[d - j]))
        if j >= i else field.zero for j in range(d + 1)] for i in range(d + 1)])


@pytest.mark.parametrize("backend,d,point", FORM_CASES,
                         ids=[f"{b}-d{d}-{p and ','.join(map(str, p))}"
                              for b, d, p in FORM_CASES])
class TestClosedFormsPerEntry:
    """The running coefficients and the memo's ratio table give each
    upper-triangular closed form the value of its per-entry formula."""

    def test_exp_psi_matrix(self, backend, d, point):
        p = _form_params(backend, d, point)
        q = p.q
        e = q - q ** -1
        for x in (p.a / e, -p.a ** -1 / e):
            for base in (q, q ** -1):
                expected = _per_entry(p, lambda i, j, ratio: (
                    x ** (j - i) * base ** comb(j - i, 2) * e ** (2 * (j - i))
                    * ratio))
                assert leonard.exp_psi_matrix(p, x, base) == expected

    def test_delta_matrix(self, backend, d, point):
        p = _form_params(backend, d, point)
        q = p.q
        for inverse in (False, True):
            a = p.a ** -1 if inverse else p.a

            def entry(i, j, ratio):
                value = (q - q ** -1) ** (j - i) * ratio
                for n in range(1, j - i + 1):
                    value = value * (a * q ** (n - 1) - a ** -1 * q ** (1 - n))
                return value
            assert leonard.delta_matrix(p, inverse) == _per_entry(p, entry)

    def test_b_and_m_forms(self, backend, d, point):
        # u-frame B and M are the forms at x = a; K and M in the udd frame are
        # the B and M forms at x = a^-1
        p = _form_params(backend, d, point)
        q = p.q
        for (kind, basis), form, x in ((("B", "u"), "B", p.a), (("M", "u"), "M", p.a),
                                       (("K", "udd"), "B", p.a ** -1),
                                       (("M", "udd"), "M", p.a ** -1)):
            def entry(i, j, ratio):
                amount = 1 - x * x if form == "B" and i < j else 1
                return (amount * x ** (i - j) * q ** (d - j - i) * (q - q ** -1) ** (2 * (j - i))
                        * ratio * reference_q_fact(j - i, q))
            assert leonard._formula_matrix(kind, basis, p) == _per_entry(p, entry), kind


class TestSuite:
    def test_suite_is_coherent(self, QF):
        p = make_params(QF, d=2)
        suite = leonard.leonard_suite(p, "u")
        assert suite.Delta * suite.Deltainv == Matrix.identity(QF, 3)
        assert suite.M * suite.Minv == Matrix.identity(QF, 3)
        assert suite.A_udd == leonard.operator_matrix("A", "udd", p)

    def test_k_diagonal_in_u(self, QF):
        p = make_params(QF, d=2)
        suite = leonard.leonard_suite(p, "u")
        expected = Matrix.diagonal(QF, [p.q ** (2 - 2 * i) for i in range(3)])
        assert suite.K == expected

    def test_symbolic_suite(self, RF_qa):
        p = QRacahParams(2, RF_qa.generator("q"), RF_qa.generator("a"))
        suite = leonard.leonard_suite(p, "u")
        assert suite.psi == leonard.psi_hat(2, p.q)

    def test_exp_entry_lemma(self, QF):
        # closed-form entries of exp_q(x psi-hat) against the series, at
        # base q and q^-1, for a spread of scalars x
        from tdq.linalg import matrix_powers
        from tdq.qcalc import q_exp

        p = make_params(QF, d=3)
        powers = matrix_powers(leonard.psi_hat(3, p.q), 4)
        for x in (QF.coerce(2), QF.coerce(Fraction(-2, 3)), QF.one):
            for base in (p.q, p.q ** -1):
                assert leonard.exp_psi_matrix(p, x, base) == q_exp(x, powers, base)
        with pytest.raises(ValueError, match="base q or q\\^-1"):
            leonard.exp_psi_matrix(p, QF.one, p.q * p.q)

    def test_backend_agreement(self, QF, RF_qa):
        # specializing the symbolic matrices at rational (q, a) reproduces the
        # rational-backend computation entry by entry
        sym = QRacahParams(2, RF_qa.generator("q"), RF_qa.generator("a"))
        rat = QRacahParams(2, QF.coerce(2), QF.coerce(3))
        point = {"q": QF.coerce(2), "a": QF.coerce(3)}
        for kind in leonard.KINDS:
            symbolic = leonard.operator_matrix(kind, "u", sym)
            rational = leonard.operator_matrix(kind, "u", rat)
            specialized = [RF_qa.specialize(x, point) for x in symbolic.entries]
            assert specialized == list(rational.entries), kind


def _perturbed(m):
    """m with one more in its top-right entry."""
    entries = list(m.entries)
    entries[m.cols - 1] = entries[m.cols - 1] + 1
    return Matrix(m.field, m.rows, m.cols, entries)


def _perturb_result(owner, name, kind=None, basis=None):
    """A replacement for owner.<name> whose result has one perturbed entry.

    With ``kind`` given, only the result for that operator kind in ``basis``
    is perturbed (in any basis for the frame-free Delta kinds), so exactly one
    side of one cross-route changes.
    """
    original = getattr(owner, name)

    def hit(args):
        if kind is None:
            return True
        return args[0] == kind and (kind in ("Delta", "Deltainv") or args[1] == basis)

    def replacement(*args, **kwargs):
        out = original(*args, **kwargs)
        return _perturbed(out) if hit(args) else out
    return replacement


# (side of a cross-route, owner and attribute perturbed, operator kind or
# None); psi-hat's q-exponentials and their products are computed by its
# PsiSeries, whose q_exp is the engine's binding
CROSS_ROUTE_SIDES = [
    ("exp formula", leonard, "exp_psi_matrix", None),
    ("exp series", engine, "q_exp", None),
    ("Delta formula", leonard, "delta_matrix", None),
    ("Delta exp product", engine.PsiSeries, "exp_product", None),
] + [(f"{kind} {side}", leonard, f"_{side}_matrix", kind)
     for kind in leonard.KINDS for side in ("formula", "constructive")]


class TestCrossRouteMutation:
    """One perturbed entry on either side of any cross-route is caught, even
    though each route now runs once per parameter instance."""

    @pytest.mark.parametrize("basis", leonard.BASES)
    @pytest.mark.parametrize("label,owner,name,kind", CROSS_ROUTE_SIDES,
                             ids=[c[0] for c in CROSS_ROUTE_SIDES])
    def test_perturbed_side_raises(self, QF, monkeypatch, label, owner, name, kind, basis):
        monkeypatch.setattr(owner, name, _perturb_result(owner, name, kind, basis))
        with pytest.raises(engine.CrossRouteError):
            leonard.leonard_suite(make_params(QF, d=2), basis)

    def test_unperturbed_suite_builds(self, QF):
        leonard.leonard_suite(make_params(QF, d=2), "u")

    def test_call_counts_once_per_params(self, QF, monkeypatch):
        # psi-hat once; four q-exponentials, each with one series (psi-hat's
        # PsiSeries calls q_exp through the engine's binding); Delta and
        # Delta^-1 once each; one q-factorial table, [0]! to [6]!
        p = make_params(QF, d=6, b=None)
        calls = {}
        for owner, name in ((leonard, "psi_hat"), (leonard, "exp_psi_matrix"),
                            (leonard, "delta_matrix"), (engine, "q_exp"),
                            (leonard, "q_fact")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        leonard.leonard_suite(p, "u")
        assert calls == {"psi_hat": 1, "exp_psi_matrix": 4, "delta_matrix": 2, "q_exp": 4,
                         "q_fact": 7}


class TestScalarWork:
    """Host-independent work: every scalar that the parameters fix is
    computed once per instance, and no closed-form entry takes a power or an
    inner loop.  Written entry by entry, one rational d = 10 u-frame
    ``leonard_suite`` takes 4,773 products, 4,208 powers and 574 divisions."""

    def test_scalar_ops_per_suite(self, QF, monkeypatch):
        counts = {"mul": 0, "pow": 0, "div": 0}
        for name, op in (("__mul__", "mul"), ("__rmul__", "mul"), ("__pow__", "pow"),
                         ("__truediv__", "div"), ("__rtruediv__", "div")):
            original = getattr(Scalar, name)

            def counted(self, other, _op=op, _original=original):
                counts[_op] += 1
                return _original(self, other)
            monkeypatch.setattr(Scalar, name, counted)
        leonard.leonard_suite(make_params(QF, d=10), "u")
        assert counts["mul"] <= 1836, counts
        assert counts["pow"] <= 246, counts
        assert counts["div"] <= 112, counts
