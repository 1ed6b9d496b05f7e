import json
import random
from dataclasses import fields as dataclass_fields, replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tdq import engine, leonard
from tdq.engine import EngineError, NotQRacahError
from tdq.linalg import Decomposition, Matrix, Subspace
from tdq.params import QRacahParams, validate_params
from tdq.scalars import rational_field, ratfunc_field

from conftest import assert_split_identities, conjugator, make_params
from test_cli import run_cli
from test_reasons import inventoried

QF = rational_field()


def scal(v):
    return QF.coerce(Fraction(v))


def transposed(m):
    """m's transpose, read off its row-major entries."""
    return Matrix(m.field, m.cols, m.rows,
                  [m.entries[i * m.cols + j] for j in range(m.cols) for i in range(m.rows)])


def raises_reason(call, reason, message):
    """call() raises an EngineError with this reason code and message."""
    with pytest.raises(EngineError) as err:
        call()
    assert (err.value.reason, str(err.value)) == (reason, message)


def d1_full_fixture():
    """A lower-bidiagonal A and upper-bidiagonal A* with x = 1: irreducible
    as long as x avoids 0 and (theta*_1 - theta*_0)(theta_0 - theta_1)."""
    p = make_params(QF, d=1)
    A = Matrix.from_rows(QF, [[p.theta(0), 0], [1, p.theta(1)]])
    Astar = Matrix.from_rows(QF, [[p.theta_star(0), 1], [0, p.theta_star(1)]])
    return p, A, Astar


class TestDetect:
    def test_d2_forward_inverse_pair(self):
        thetas = [scal(Fraction(145, 12)), scal(Fraction(10, 3)), scal(Fraction(25, 12))]
        pairs = {(str(q), str(a)) for q, a in engine.detect_qracah(thetas)}
        assert ("2", "3") in pairs and ("1/2", "1/3") in pairs
        # consistency value of the recurrence
        assert (thetas[0] + thetas[2]) / thetas[1] == Fraction(17, 4)

    def test_d1_admits_a_q_swap(self):
        thetas = [scal(Fraction(37, 6)), scal(Fraction(13, 6))]
        pairs = {(str(q), str(a)) for q, a in engine.detect_qracah(thetas)}
        assert ("2", "3") in pairs and ("3", "2") in pairs

    def test_d1_odd_negation_closure(self):
        thetas = [scal(Fraction(37, 6)), scal(Fraction(13, 6))]
        pairs = {(str(q), str(a)) for q, a in engine.detect_qracah(thetas)}
        assert ("-2", "-3") in pairs

    def test_inverse_closure(self):
        thetas = [make_params(QF, d=3).theta(i) for i in range(4)]
        result = engine.detect_qracah(thetas)
        pairs = {(str(q), str(a)) for q, a in result}
        assert all((str(q ** -1), str(a ** -1)) in pairs for q, a in result)

    def test_arithmetic_progression_rejected(self):
        with pytest.raises(NotQRacahError) as err:
            engine.detect_qracah([scal(1), scal(2), scal(3)])
        assert err.value.reason == "q4-forced"
        assert "q^4 = 1" in str(err.value)

    def test_inconsistent_recurrence_rejected(self):
        thetas = [make_params(QF, d=3).theta(i) for i in range(4)]
        thetas[3] = thetas[3] + 1
        with pytest.raises(NotQRacahError) as err:
            engine.detect_qracah(thetas)
        assert err.value.reason in ("recurrence-inconsistent", "a-system-inconsistent")

    def test_irrational_q_rejected(self):
        # q^2 + q^-2 = 3 has no rational q
        thetas = [scal(3), scal(1), scal(0), scal(-1)]
        raises_reason(lambda: engine.detect_qracah(thetas), "no-field-root",
                      "the quadratic for q^2 has no root in the working field")

    def test_q_outside_the_field_rejected(self):
        # q^2 + q^-2 = 5/2, so q^2 is 2 or 1/2, and neither has a rational root
        raises_reason(lambda: engine.detect_qracah([scal(2), scal(1), scal(Fraction(1, 2))]),
                      "no-field-root", "q^2 lies in the working field but q itself does not")

    def test_vanishing_interior_eigenvalue_rejected(self):
        raises_reason(lambda: engine.detect_qracah([scal(1), scal(0), scal(2)]), "middle-zero",
                      "a vanishing interior eigenvalue forces a^2 = -1, "
                      "which has no solution in the working field")

    def test_d1_without_roots_rejected(self):
        # aq + (aq)^-1 = 1 has no rational root
        raises_reason(lambda: engine.detect_qracah([scal(1), scal(Fraction(5, 2))]),
                      "no-field-root",
                      "the quadratic for aq or a/q has no root in the working field")

    def test_d1_roots_without_a_square_ratio_rejected(self):
        # aq is 2 or 1/2 and a/q is 3 or 1/3: no ratio aq / (a/q) is a square
        raises_reason(lambda: engine.detect_qracah([scal(Fraction(5, 2)), scal(Fraction(10, 3))]),
                      "a-system-inconsistent",
                      "no (q, a) pair in the working field reproduces the eigenvalue sequence")

    def test_duplicate_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            engine.detect_qracah([scal(1), scal(1)])

    def test_representative_deterministic(self):
        thetas = [make_params(QF, d=2).theta(i) for i in range(3)]
        r1 = engine.detect_qracah(thetas)
        r2 = engine.detect_qracah(list(thetas))
        assert [(str(q), str(a)) for q, a in r1] == [(str(q), str(a)) for q, a in r2]


class TestSplits:
    def test_d1_split_from_AK(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        sd = engine.split_from_AK(ls.A, ls.K)
        assert sd.U[0] == Subspace.from_vectors(QF, 2, [[1, 0]])
        assert sd.U[1] == Subspace.from_vectors(QF, 2, [[0, 1]])
        # U_1-dd = (U_0 + U_1) n E_0V = span{(theta_0 - theta_1, 1)} = span{(4, 1)}
        assert sd.Udd[1] == Subspace.from_vectors(QF, 2, [[4, 1]])
        assert sd.Udd[0] == sd.U[0]

    def test_rho_sums_to_n(self):
        for d in (1, 2, 3):
            p = make_params(QF, d=d)
            ls = leonard.leonard_suite(p, "u")
            sd = engine.split_from_AK(ls.A, ls.K)
            assert sum(s.dim for s in sd.U) == d + 1

    def test_split_from_pair_degenerate_ends(self):
        p, A, Astar = d1_full_fixture()
        sd = engine.split_from_pair(A, Astar)
        assert sd.U[0] == sd.EstarV[0]
        assert sd.U[1] == sd.EV[1]

    def test_scrambled_input_recovers_conjugated_splits(self):
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        S = Matrix.from_rows(QF, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
        Sinv = S.inverse()
        sd = engine.split_from_AK(S * ls.A * Sinv, S * ls.K * Sinv)
        plain = engine.split_from_AK(ls.A, ls.K)
        assert tuple(x.image(S) for x in plain.U) == sd.U
        assert tuple(x.image(S) for x in plain.Udd) == sd.Udd

    def test_pair_route_conjugation(self):
        p, A, Astar = d1_full_fixture()
        S = Matrix.from_rows(QF, [[1, 1], [1, 2]])
        Sinv = S.inverse()
        plain = engine.split_from_pair(A, Astar)
        conj = engine.split_from_pair(S * A * Sinv, S * Astar * Sinv)
        assert conj.U == tuple(x.image(S) for x in plain.U)
        assert conj.Udd == tuple(x.image(S) for x in plain.Udd)
        assert conj.EstarV == tuple(x.image(S) for x in plain.EstarV)

    def test_wrong_spectrum_rejected(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        K_bad = Matrix.diagonal(QF, [scal(2), scal(3)])  # not q, q^-1 shaped
        raises_reason(lambda: engine.split_from_AK(ls.A, K_bad, params=p), "spectrum-mismatch",
                      "K is not diagonalizable with eigenvalues q^(d-2i)")

    def test_split_action_violation_rejected(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        A_bad = transposed(ls.A)  # raises along the wrong direction for this K
        raises_reason(lambda: engine.split_from_AK(A_bad, ls.K, params=p), "split-action",
                      "A does not act as a block lower bidiagonal raising operator "
                      "on the K-eigenspace ordering")


@st.composite
def conjugators(draw, n):
    """S = L U for unit triangular L and U with entries in [-2, 2]."""
    entry = st.integers(-2, 2)
    L = Matrix.from_rows(QF, [[draw(entry) if c < r else int(c == r) for c in range(n)]
                              for r in range(n)])
    U = Matrix.from_rows(QF, [[draw(entry) if c > r else int(c == r) for c in range(n)]
                              for r in range(n)])
    return L * U


@st.composite
def conjugated_ak(draw):
    """(S A S^-1, S K S^-1) for a q-Racah (A, K) at a grid point, in any frame,
    with S = L U for unit triangular L and U of small integer entries."""
    d = draw(st.integers(1, 4))
    q = scal(draw(st.sampled_from([2, -2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)])))
    a = scal(draw(st.sampled_from([3, -3, 5, Fraction(1, 3), Fraction(-7, 2), Fraction(2, 5)])))
    assume(not validate_params(d, q, a))
    ls = leonard.leonard_suite(QRacahParams(d, q, a), draw(st.sampled_from(leonard.BASES)))
    S = draw(conjugators(d + 1))
    Sinv = S.inverse()
    return S * ls.A * Sinv, S * ls.K * Sinv


class TestParametersFromK:
    """On (A, K) input K fixes q and one fit of theta fixes a; detection from
    theta alone, which the (A, K) route does not run, must list that pair."""

    @settings(max_examples=40, deadline=None)
    @given(conjugated_ak())
    def test_fitted_pair_is_a_detected_solution(self, case):
        sd = engine.split_from_AK(*case)
        assert (sd.params.q, sd.params.a) in engine.detect_qracah(sd.params.thetas)


def _chain_search(K):
    """Reference for ``engine._k_spectrum_candidates``: each ordered pair of
    eigenvalues starts a geometric chain, which must cover the spectrum; q
    is the middle link (odd d) or a root of the inverse ratio (even d).
    Returns [] where the engine raises."""
    values = engine._eigenvalues(K)
    d = len(values) - 1
    found = {}
    for top in values:
        for second in values:
            if second == top or not top or not second:
                continue
            ratio = second / top
            chain = [top]
            for _ in range(d):
                chain.append(chain[-1] * ratio)
            if set(chain) != set(values) or len(set(chain)) != d + 1:
                continue
            qsq = ratio ** -1
            if d % 2:
                qc = chain[(d - 1) // 2]
                if (qc * qc - qsq).is_zero():
                    found.setdefault(qc.render(), qc)
            else:
                root = K.field.sqrt(qsq)
                if root is not None:
                    for q in (root, -root):
                        found.setdefault(q.render(), q)
    return [(found[key].render(), d) for key in sorted(found, key=lambda k: (len(k), k))]


def _spectra(rng, field, count):
    """(kind, d, spectrum) for centred chains q^(d-2i), uncentred chains
    c q^(d-2i), squared chains q^(2(d-2i)) and random sets, d = 1..5."""
    small = [Fraction(n, m) for n in range(-5, 6) for m in (1, 2, 3) if n]
    for _ in range(count):
        d = rng.randint(1, 5)
        q = field.coerce(rng.choice([x for x in small if abs(x) != 1]))
        chain = [q ** (d - 2 * i) for i in range(d + 1)]
        kind = rng.choice(["centred", "uncentred", "squared", "random"])
        if kind == "uncentred":
            c = field.coerce(rng.choice([x for x in small if x != 1]))
            chain = [c * x for x in chain]
        elif kind == "squared":
            chain = [x * x for x in chain]
        elif kind == "random":
            chain = [field.coerce(rng.choice(small + [0])) for _ in range(d + 1)]
        yield kind, d, chain


class TestKSpectrumCandidates:
    """The powers test of ``_k_spectrum_candidates`` against the chain search it
    replaced: equal lists, except that an uncentred chain at even d, which the
    search accepted and ``split_from_AK`` then rejected, is rejected at once."""

    @staticmethod
    def _compare(kind, d, spectrum):
        K = Matrix.diagonal(spectrum[0].field, spectrum)
        expected = _chain_search(K)
        try:
            got = [(q.render(), e) for q, e in engine._k_spectrum_candidates(K)]
        except EngineError as exc:
            if exc.reason == "diameter-zero":
                assert len(set(spectrum)) == 1
                return "diameter-zero"
            assert exc.reason == "spectrum-mismatch"
            assert expected == [] or (kind == "uncentred" and d % 2 == 0), (kind, spectrum)
            return "rejected" if expected == [] else "uncentred-even"
        assert got == expected, (kind, spectrum)
        return "equal"

    def test_rational_spectra(self):
        rng = random.Random(16)
        outcomes = [self._compare(*case) for case in _spectra(rng, QF, 300)]
        assert {"equal", "rejected", "uncentred-even"} <= set(outcomes)

    @pytest.mark.parametrize("d", [3, 4])
    def test_ratfunc_chains(self, d):
        RF = ratfunc_field(("q", "a"))
        q, a = RF.generator("q"), RF.generator("a")
        chain = [q ** (d - 2 * i) for i in range(d + 1)]
        cases = [("centred", chain), ("uncentred", [a * x for x in chain]),
                 ("squared", [x * x for x in chain]), ("random", [q, a, q + a, q * a, a - 1][:d + 1])]
        outcomes = {kind: self._compare(kind, d, spectrum) for kind, spectrum in cases}
        assert outcomes["centred"] == "equal"
        assert outcomes["uncentred"] == ("uncentred-even" if d % 2 == 0 else "rejected")


class TestBuildKB:
    def test_b_matches_closed_form(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        suite = engine.derive_suite(ls.A, K=ls.K)
        assert suite.B == Matrix.from_rows(QF, [[2, -6], [0, Fraction(1, 2)]])


class TestPsiFromKB:
    def test_leonard_value(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        psi = engine.psi_from_KB(ls.K, ls.B, p.q, p.a)
        assert psi == leonard.psi_hat(1, p.q)

    def test_detects_incoherent_pair(self):
        # a lower-triangular perturbation breaks the coincidence (an upper
        # one keeps BK^-1 unipotent-compatible and slides through)
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        B_bad = ls.B + Matrix.from_rows(QF, [[0, 0], [1, 0]])
        with pytest.raises(EngineError):
            engine.psi_from_KB(ls.K, B_bad, p.q, p.a)


class TestDeriveSuite:
    def test_d1_closed_form_agreement(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        s = engine.derive_suite(ls.A, K=ls.K)
        assert s.M.render() == [["2", "3/4"], ["0", "1/2"]]
        assert s.Delta.render() == [["1", "4"], ["0", "1"]]
        assert s.W[0] == Subspace.from_vectors(QF, 2, [[1, 0]])
        assert s.W[1] == Subspace.from_vectors(QF, 2, [[1, -2]])

    def test_full_agreement_with_leonard(self):
        for d in (1, 2, 3):
            p = make_params(QF, d=d)
            ls = leonard.leonard_suite(p, "u")
            s = engine.derive_suite(ls.A, K=ls.K)
            for name in ("K", "B", "psi", "M", "Minv", "Delta", "Deltainv"):
                assert getattr(s, name) == getattr(ls, name), (d, name)

    def test_u_equals_exp_image_of_w(self):
        from tdq.qcalc import q_exp

        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        s = engine.derive_suite(ls.A, K=ls.K)
        c = p.q - p.q ** -1
        E_minus = q_exp(p.a ** -1 / c, s.psi_series.powers, p.q)
        E_plus = q_exp(p.a / c, s.psi_series.powers, p.q)
        for i in range(3):
            assert s.W[i].image(E_minus) == s.U[i]
            assert s.W[i].image(E_plus) == s.Udd[i]

    def test_params_shortcut(self):
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        s = engine.derive_suite(ls.A, K=ls.K, params=p)
        assert s.q == p.q and s.a == p.a and s.params.b == p.b

    def test_pair_route_matches_AK_route(self):
        p, A, Astar = d1_full_fixture()
        s_pair = engine.derive_suite(A, Astar=Astar)
        s_ak = engine.derive_suite(A, K=s_pair.K, Astar=Astar, params=s_pair.params)
        assert s_pair.psi == s_ak.psi
        assert s_pair.Delta == s_ak.Delta
        assert s_pair.U == s_ak.U and s_pair.Udd == s_ak.Udd

    def test_requires_k_or_astar(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        with pytest.raises(ValueError):
            engine.derive_suite(ls.A)

    def test_override_unknown_name_rejected(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        suite = engine.derive_suite(ls.A, K=ls.K)
        with pytest.raises(TypeError):
            replace(suite, Zeta=ls.M)

    # the suite checks its operators however it is built: by derive_suite, by
    # dataclasses.replace, or by hand
    WRONG_OPERATORS = [
        ("Delta", Matrix.identity(QF, 2)),
        ("psi", Matrix.zero(QF, 3, 2)),
        ("M", Matrix.identity(ratfunc_field(("q",)), 3)),
        ("Astar", Matrix.identity(QF, 4)),
    ]

    @staticmethod
    def _d2_suite():
        ls = leonard.leonard_suite(make_params(QF, d=2), "u")
        return engine.derive_suite(ls.A, K=ls.K)

    @pytest.mark.parametrize("name, matrix", WRONG_OPERATORS)
    def test_override_of_wrong_shape_or_field_rejected(self, name, matrix):
        with pytest.raises(ValueError, match=f"'{name}'"):
            replace(self._d2_suite(), **{name: matrix})

    @pytest.mark.parametrize("name, matrix", WRONG_OPERATORS)
    def test_construction_of_wrong_shape_or_field_rejected(self, name, matrix):
        s = self._d2_suite()
        fields = {f.name: getattr(s, f.name) for f in dataclass_fields(s)}
        with pytest.raises(ValueError, match=f"'{name}'"):
            engine.OperatorSuite(**{**fields, name: matrix})

    def test_astar_without_dual_eigenspaces_rejected(self):
        # a well-formed A* on a suite derived without one has no E*V to go with it
        s = self._d2_suite()
        fields = {f.name: getattr(s, f.name) for f in dataclass_fields(s)}
        for build in (lambda: replace(s, Astar=transposed(s.A)),
                      lambda: replace(s, EstarV=s.EV),
                      lambda: engine.OperatorSuite(**{**fields, "Astar": transposed(s.A)})):
            with pytest.raises(ValueError, match="Astar and EstarV"):
                build()


class TestDeltaCharacterization:
    def test_plain_sequences_give_the_suite_delta(self):
        ls = leonard.leonard_suite(make_params(QF, d=3), "u")
        suite = engine.derive_suite(ls.A, K=ls.K)
        delta = engine.delta_from_characterization(tuple(suite.U), tuple(suite.Udd))
        assert delta == suite.Delta

    def test_swapped_udd_spaces_rejected(self):
        ls = leonard.leonard_suite(make_params(QF, d=2), "u")
        suite = engine.derive_suite(ls.A, K=ls.K)
        Udd = list(suite.Udd)
        Udd[0], Udd[1] = Udd[1], Udd[0]
        with pytest.raises(EngineError) as exc:
            engine.delta_from_characterization(suite.U, Udd)
        assert exc.value.reason == "delta-characterization"


class TestSuiteDerivedData:
    def test_replaced_psi_gets_its_own_series(self):
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        s = engine.derive_suite(ls.A, K=ls.K)
        assert s.psi_series.psi is s.psi
        other = replace(s, psi=2 * s.psi)
        assert other.psi_series is not s.psi_series
        assert other.psi_series.powers[1] == 2 * s.psi
        # a replace that leaves psi alone, or claims an equal one, keeps it
        assert replace(s, M=s.M).psi_series is s.psi_series
        equal = Matrix(QF, 3, 3, list(s.psi.entries))
        assert replace(s, psi=equal).psi_series is s.psi_series

    def test_hand_built_suite(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        s = engine.derive_suite(ls.A, K=ls.K)
        fields = {name: getattr(s, name) for name in (
            "params", "n", "A", "K", "B", "psi", "M", "Minv", "Delta", "Deltainv")}
        fields.update({name: tuple(getattr(s, name)) for name in ("U", "Udd", "W", "EV")})
        built = engine.OperatorSuite(**fields)
        assert isinstance(built.U, Decomposition) and built.U == s.U
        assert built.psi_series.delta() == s.Delta
        assert built.Kinv * built.K == built.I


class TestDownarrow:
    def test_exchanges(self):
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        s = engine.derive_suite(ls.A, K=ls.K, params=p)
        dd = engine.downarrow(s)
        assert dd.K == s.B and dd.B == s.K
        assert dd.M == s.M and dd.psi == s.psi
        assert dd.Delta == s.Deltainv
        assert dd.W == s.W
        assert dd.params.thetas == tuple(reversed(s.params.thetas))

    def test_involution(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        s = engine.derive_suite(ls.A, K=ls.K, params=p)
        again = engine.downarrow(engine.downarrow(s))
        assert again.K == s.K and again.Delta == s.Delta and again.U == s.U

    def test_with_astar(self):
        p, A, Astar = d1_full_fixture()
        s = engine.derive_suite(A, Astar=Astar)
        dd = engine.downarrow(s)
        assert dd.EstarV == s.EstarV
        assert dd.params.b == s.params.b


class TestValidateAxioms:
    def test_full_fixture_passes(self):
        p, A, Astar = d1_full_fixture()
        report = engine.validate_axioms(A, Astar)
        assert report.passed and report.conclusive
        assert report.d == report.delta == 1
        assert report.algebra_dim == 4

    def test_identity_pair_fails_irreducibility(self):
        eye = Matrix.identity(QF, 2)
        report = engine.validate_axioms(eye, eye)
        assert not report.passed
        failing = [c for c in report.checks if c.status == "fail"]
        assert any(c.name == "irreducible" for c in failing)

    def test_diagonal_dual_with_common_eigenvector_fails(self):
        p, A, _ = d1_full_fixture()
        Astar0 = Matrix.diagonal(QF, [p.theta_star(0), p.theta_star(1)])
        report = engine.validate_axioms(A, Astar0)
        assert not report.passed
        assert report.algebra_dim < 4

    def test_non_split_spectrum_inconclusive(self):
        # rotation by 90 degrees: minimal polynomial x^2 + 1
        A = Matrix.from_rows(QF, [[0, -1], [1, 0]])
        report = engine.validate_axioms(A, Matrix.identity(QF, 2))
        assert not report.conclusive
        assert any(c.status == "inconclusive" for c in report.checks)

    def test_naive_bidiagonal_dual_rejected_at_d2(self):
        # at d >= 2 the superdiagonal of a genuine dual operator is
        # constrained; unit entries break tridiagonality and must be caught
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        ths = [p.theta_star(i) for i in range(3)]
        Astar = Matrix.from_rows(QF, [
            [ths[0], 1, 0],
            [0, ths[1], 1],
            [0, 0, ths[2]],
        ])
        report = engine.validate_axioms(ls.A, Astar)
        assert not report.passed
        failing = {c.name for c in report.checks if c.status == "fail"}
        assert "standard-ordering-A" in failing


class TestEquivariance:
    def test_random_conjugations(self):
        rng = random.Random(77)
        for d in (1, 2):
            p = make_params(QF, d=d)
            ls = leonard.leonard_suite(p, "u")
            base = engine.derive_suite(ls.A, K=ls.K)
            for _ in range(2):
                while True:
                    S = Matrix.from_rows(
                        QF, [[rng.randint(-3, 3) for _ in range(d + 1)]
                             for _ in range(d + 1)])
                    try:
                        Sinv = S.inverse()
                        break
                    except ValueError:
                        continue
                conj = engine.derive_suite(S * ls.A * Sinv, K=S * ls.K * Sinv)
                for name in ("K", "B", "psi", "M", "Minv", "Delta", "Deltainv"):
                    assert getattr(conj, name) == S * getattr(base, name) * Sinv
                for name in ("U", "Udd", "W", "EV"):
                    assert getattr(conj, name) == tuple(
                        x.image(S) for x in getattr(base, name))


def _fixture(tmp_path, matrices, params=None):
    """A rational fixture file of these rendered matrices and parameters."""
    doc = {"format": "tdq-fixture/1", "field": {"backend": "rational"},
           "matrices": {name: m.render() for name, m in matrices.items()}}
    if params is not None:
        doc["params"] = params.render()
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return path


class TestSplitChecks:
    """Both directness checks of ``_split``, and the flag check of
    ``_attach_astar``, fail on some input, in process and through ``tdq
    engine`` (exit 1, one line, no traceback).  The multiplicities follow
    from the directness checks; see ``engine._split``."""

    @staticmethod
    def _fails(tmp_path, matrices, params, message):
        raises_reason(lambda: engine.derive_suite(**matrices, params=params),
                      "split-failure", message)
        proc = run_cli("engine", str(_fixture(tmp_path, matrices, params)),
                       "--out", str(tmp_path / "out.json"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"mathematical failure: {message}\n")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("with_params", [False, True], ids=["detected", "given"])
    def test_second_sequence_not_direct(self, tmp_path, with_params):
        # the d = 1 u frame at (q, a) = (2, 3) with A's subdiagonal 1 set to
        # 0: U_1-dd = (U_0 + U_1) n E_0 V = E_0 V = U_0-dd
        p = make_params(QF, d=1, b=None)
        ls = leonard.leonard_suite(p, "u")
        A = Matrix.from_rows(QF, [[ls.A[0, 0], 0], [0, ls.A[1, 1]]])
        self._fails(tmp_path, {"A": A, "K": ls.K}, p if with_params else None,
                    "the second split sequence is not a decomposition")

    @pytest.mark.parametrize("with_params", [False, True], ids=["detected", "given"])
    def test_first_sequence_not_direct(self, tmp_path, with_params):
        # diagonal A and A* with E*_0 V = E_1 V: U_0 = E*_0 V = E_1 V = U_1
        p = make_params(QF, d=1)
        A = Matrix.diagonal(QF, [p.theta(0), p.theta(1)])
        Astar = Matrix.diagonal(QF, [p.theta_star(1), p.theta_star(0)])
        self._fails(tmp_path, {"A": A, "Astar": Astar}, p if with_params else None,
                    "the first split sequence is not a decomposition")

    @pytest.mark.parametrize("with_params", [False, True], ids=["detected", "given"])
    def test_dual_eigenspaces_off_the_split_dimensions(self, tmp_path, with_params):
        # U = (span(e0, e1), span(e2, e3)) at d = 1, and theta*_0, theta*_1
        # fit b = 5, but E*_0 V = span(e0) is one dimension of rho_0 = 2:
        # E*-flag_0 is not U-flag_0, though E*_0 V is the one eigenspace of A*
        # in U_0
        p = make_params(QF, d=1)
        (t0, t1), (s0, s1) = p.thetas, (p.theta_star(0), p.theta_star(1))
        A = Matrix.from_rows(QF, [[t0, 0, 0, 0], [0, t0, 0, 0], [1, 0, t1, 0], [0, 1, 0, t1]])
        K = Matrix.diagonal(QF, [p.q, p.q, p.q ** -1, p.q ** -1])
        Astar = Matrix.diagonal(QF, [s0, s1, s1, s1])
        self._fails(tmp_path, {"A": A, "K": K, "Astar": Astar}, p if with_params else None,
                    "the dual eigenspaces do not refine the split flags")


Q_VALUES = (2, -2, 3, Fraction(1, 2), Fraction(5, 3))
A_VALUES = (3, -3, 5, Fraction(1, 3), Fraction(2, 5))
FLAWS = (None, "reversed K", "no fit", "repeated theta", "above", "another q", "another a")


@st.composite
def block_bidiagonal_ak(draw):
    """(A, K, params or None) at d <= 3: K = q^(d-2i) on the i-th block of
    rho_i in {1, 2} coordinates, A block lower bidiagonal with theta_i on the
    diagonal blocks and integers in [-2, 2] below them, both conjugated by
    S = L U in half of the draws; the parameters are given in half.  Six
    draws in seven carry one flaw: K's blocks in reversed order, one theta_i
    moved by 1 (no a fits), one theta_i repeated, integers above the
    diagonal blocks as well, or the parameters given with another q or
    another a."""
    d = draw(st.integers(1, 3))
    q, a = (scal(draw(st.sampled_from(values))) for values in (Q_VALUES, A_VALUES))
    assume(not validate_params(d, q, a))
    p = QRacahParams(d, q, a)
    flaw = draw(st.sampled_from(FLAWS))
    theta = list(p.thetas)
    if flaw == "no fit":
        theta[draw(st.integers(0, d))] += 1
    elif flaw == "repeated theta":
        i, j = draw(st.lists(st.integers(0, d), min_size=2, max_size=2, unique=True))
        theta[j] = theta[i]
    block = [i for i in range(d + 1) for _ in range(draw(st.integers(1, 2)))]
    n = len(block)
    A = Matrix.from_rows(QF, [
        [theta[block[r]] if r == c else draw(st.integers(-2, 2))
         if block[r] == block[c] + 1 or (flaw == "above" and block[r] < block[c]) else 0
         for c in range(n)] for r in range(n)])
    sign = -1 if flaw == "reversed K" else 1
    K = Matrix.diagonal(QF, [q ** (sign * (d - 2 * block[r])) for r in range(n)])
    if draw(st.booleans()):
        S = draw(conjugators(n))
        Sinv = S.inverse()
        A, K = S * A * Sinv, S * K * Sinv
    if flaw in ("another q", "another a"):
        other = scal(draw(st.sampled_from(Q_VALUES if flaw == "another q" else A_VALUES)))
        q, a = (other, a) if flaw == "another q" else (q, other)
        assume((q, a) != (p.q, p.a) and not validate_params(d, q, a))
        return A, K, QRacahParams(d, q, a)
    return A, K, p if draw(st.booleans()) else None


class TestSplitIdentities:
    """The flag sum identities hold on every split the engine returns."""

    @pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("frame", leonard.BASES)
    def test_frames(self, frame, d, conjugated):
        ls = leonard.leonard_suite(make_params(QF, d=d, b=None), frame)
        S = conjugator(d + 1) if conjugated else Matrix.identity(QF, d + 1)
        Sinv = S.inverse()
        assert_split_identities(engine.split_from_AK(S * ls.A * Sinv, S * ls.K * Sinv))

    def test_a_swapped_space_is_caught(self):
        ls = leonard.leonard_suite(make_params(QF, d=2, b=None), "u")
        sd = engine.split_from_AK(ls.A, ls.K)
        for name in ("U", "Udd", "EV"):
            spaces = list(getattr(sd, name))
            spaces[0], spaces[1] = spaces[1], spaces[0]
            with pytest.raises(AssertionError):
                assert_split_identities(replace(sd, **{name: Decomposition(spaces)}))

    @settings(max_examples=150, deadline=None)
    @given(block_bidiagonal_ak())
    def test_random_block_bidiagonal_inputs(self, case):
        # a split that the checks pass satisfies the identities, and any
        # failure is one the inventory lists
        A, K, p = case
        try:
            sd = engine.split_from_AK(A, K, p)
        except EngineError as exc:
            assert inventoried(exc), (exc.reason, str(exc))
        else:
            assert_split_identities(sd)


class TestFailureReasons:
    """Inputs that reach the engine's other failures, one each."""

    P1 = make_params(QF, d=1)

    @staticmethod
    def _pair():
        """(A, K, A*) of ``d1_full_fixture``, K of the u frame."""
        p, A, Astar = d1_full_fixture()
        return A, leonard.leonard_suite(p, "u").K, Astar

    def test_jordan_block_not_diagonalizable(self):
        J = Matrix.from_rows(QF, [[1, 1], [0, 1]])
        raises_reason(lambda: engine.derive_suite(J, Astar=Matrix.identity(QF, 2)),
                      "not-diagonalizable", "eigenspaces do not span the whole space")

    def test_eigenspace_counts_differ(self):
        raises_reason(lambda: engine.derive_suite(
            Matrix.diagonal(QF, [scal(1), scal(1), scal(2)]),
            Astar=Matrix.diagonal(QF, [scal(1), scal(2), scal(3)])),
            "diameter-mismatch", "eigenspace counts differ: 2 vs 3")

    def test_one_eigenvalue_each(self):
        eye = Matrix.identity(QF, 2)
        raises_reason(lambda: engine.derive_suite(eye, Astar=eye),
                      "diameter-zero", "need at least two distinct eigenvalues")

    def test_first_operator_not_tridiagonal_on_the_dual_eigenspaces(self):
        # A* is tridiagonal on the eigenbasis of the diagonal A, but A acts on
        # the eigenvectors of A* with a block graph that is no path
        p = make_params(QF, d=2, b=None)
        A = Matrix.diagonal(QF, [p.theta(i) for i in range(3)])
        Astar = Matrix.from_rows(QF, [[0, -2, 0], [-1, 1, -2], [0, 0, 3]])
        raises_reason(lambda: engine.derive_suite(A, Astar=Astar), "no-standard-ordering",
                      "the first operator does not act tridiagonally on any "
                      "ordering of the dual eigenspaces")

    def test_pair_with_another_a(self):
        A, _, Astar = self._pair()
        raises_reason(lambda: engine.derive_suite(A, Astar=Astar,
                                                  params=make_params(QF, d=1, a=7)),
                      "parameter-mismatch", "supplied parameters do not match the eigenvalues")

    def test_pair_with_another_b(self):
        A, _, Astar = self._pair()
        raises_reason(lambda: engine.derive_suite(A, Astar=Astar,
                                                  params=make_params(QF, d=1, b=7)),
                      "dual-parameter-failure",
                      "no b in the working field matches the dual eigenvalues")

    def test_ak_with_another_a(self):
        A, K, _ = self._pair()
        raises_reason(lambda: engine.derive_suite(A, K=K, params=make_params(QF, d=1, a=7)),
                      "parameter-mismatch",
                      "extracted eigenvalues do not match the supplied parameters")

    def test_k_with_one_eigenvalue(self):
        A, _, _ = self._pair()
        raises_reason(lambda: engine.derive_suite(A, K=Matrix.identity(QF, 2)),
                      "diameter-zero", "K must have at least two eigenvalues")

    def test_dual_with_one_eigenvalue(self):
        A, K, _ = self._pair()
        raises_reason(lambda: engine.derive_suite(A, K=K, Astar=Matrix.identity(QF, 2)),
                      "diameter-mismatch", "the dual operator has the wrong number of eigenspaces")

    def test_dual_eigenspaces_off_the_split_flags(self):
        # neither eigenvector (0, 1), (1, -1) of this A* lies in U_0 = span (1, 0)
        A, K, _ = self._pair()
        raises_reason(lambda: engine.derive_suite(
            A, K=K, Astar=Matrix.from_rows(QF, [[1, 0], [1, 2]])),
            "split-failure", "the dual eigenspaces do not refine the split flags")

    def test_dual_eigenvalues_fit_no_b(self):
        A, K, _ = self._pair()
        raises_reason(lambda: engine.derive_suite(
            A, K=K, Astar=Matrix.diagonal(QF, [scal(1), scal(2)])),
            "dual-parameter-failure", "no b in the working field matches the dual eigenvalues")

    def test_dual_with_another_b(self):
        A, K, Astar = self._pair()
        raises_reason(lambda: engine.derive_suite(A, K=K, Astar=Astar,
                                                  params=make_params(QF, d=1, b=7)),
                      "dual-parameter-failure", "supplied b does not match the dual eigenvalues")

    def test_singular_k(self):
        raises_reason(lambda: engine.psi_from_KB(Matrix.zero(QF, 2), Matrix.identity(QF, 2),
                                                 scal(2), scal(3)),
                      "singular-operator", "K and B must be invertible")

    def test_singular_denominator(self):
        # B K^-1 = a^2 I makes a I - a^-1 B K^-1 zero
        eye = Matrix.identity(QF, 2)
        raises_reason(lambda: engine.psi_from_KB(eye, 9 * eye, scal(2), scal(3)),
                      "singular-denominator", "denominator of the first expression is singular")

    def test_downarrow_of_a_claimed_halfway_decomposition(self):
        A, K, _ = self._pair()
        s = engine.derive_suite(A, K=K, params=self.P1)
        raises_reason(lambda: engine.downarrow(replace(s, W=s.W[::-1])),
                      "downarrow-mismatch", "the halfway decomposition moved")

    def test_downarrow_of_a_claimed_split(self):
        A, K, _ = self._pair()
        s = engine.derive_suite(A, K=K, params=self.P1)
        raises_reason(lambda: engine.downarrow(replace(s, U=s.U[::-1])),
                      "downarrow-mismatch", "the split decompositions did not swap")
