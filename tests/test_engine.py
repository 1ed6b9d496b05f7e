import random
from fractions import Fraction

import pytest

from tdq import engine, leonard
from tdq.engine import EngineError, NotQRacahError
from tdq.linalg import Matrix, Subspace
from tdq.scalars import rational_field

from conftest import make_params

QF = rational_field()


def scal(v):
    return QF.coerce(Fraction(v))


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
        result = engine.detect_qracah(thetas)
        pairs = {(str(q), str(a)) for q, a in result.solutions}
        assert ("2", "3") in pairs and ("1/2", "1/3") in pairs
        # consistency value of the recurrence
        assert (thetas[0] + thetas[2]) / thetas[1] == Fraction(17, 4)

    def test_d1_admits_a_q_swap(self):
        thetas = [scal(Fraction(37, 6)), scal(Fraction(13, 6))]
        pairs = {(str(q), str(a)) for q, a in engine.detect_qracah(thetas).solutions}
        assert ("2", "3") in pairs and ("3", "2") in pairs

    def test_d1_odd_negation_closure(self):
        thetas = [scal(Fraction(37, 6)), scal(Fraction(13, 6))]
        pairs = {(str(q), str(a)) for q, a in engine.detect_qracah(thetas).solutions}
        assert ("-2", "-3") in pairs

    def test_inverse_closure(self):
        thetas = [make_params(QF, d=3).theta(i) for i in range(4)]
        result = engine.detect_qracah(thetas)
        pairs = {(str(q), str(a)) for q, a in result.solutions}
        assert all((str(q ** -1), str(a ** -1)) in pairs for q, a in result.solutions)

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
        with pytest.raises(NotQRacahError):
            engine.detect_qracah(thetas)

    def test_duplicate_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            engine.detect_qracah([scal(1), scal(1)])

    def test_representative_deterministic(self):
        thetas = [make_params(QF, d=2).theta(i) for i in range(3)]
        r1 = engine.detect_qracah(thetas)
        r2 = engine.detect_qracah(list(thetas))
        assert [(str(q), str(a)) for q, a in r1.solutions] == \
            [(str(q), str(a)) for q, a in r2.solutions]


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
            assert sum(sd.rho) == d + 1

    def test_split_from_pair_degenerate_ends(self):
        p, A, Astar = d1_full_fixture()
        sd = engine.split_from_pair(A, Astar)
        assert sd.U[0] == sd.EstarV[0]
        assert sd.U[1] == sd.EV[1]

    def test_scrambled_input_recovers_conjugated_splits(self):
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        S = Matrix.from_rows(QF, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
        assert not S.det().is_zero()
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
        with pytest.raises(EngineError):
            engine.split_from_AK(ls.A, K_bad, params=p)

    def test_split_action_violation_rejected(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        A_bad = ls.A.transpose()  # raises along the wrong direction for this K
        with pytest.raises(EngineError):
            engine.split_from_AK(A_bad, ls.K, params=p)


class TestBuildKB:
    def test_b_matches_closed_form(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        sd = engine.split_from_AK(ls.A, ls.K)
        K, B = engine.build_KB(sd.U, sd.Udd, p.q, p.d)
        assert K == ls.K
        assert B == Matrix.from_rows(QF, [[2, -6], [0, Fraction(1, 2)]])


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
        E_minus = q_exp((p.a ** -1 / c) * s.psi, p.q)
        E_plus = q_exp((p.a / c) * s.psi, p.q)
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
        with pytest.raises(ValueError):
            engine.derive_suite(ls.A, K=ls.K, overrides={"Zeta": ls.M})


class TestSuiteDerivedData:
    def test_replaced_psi_gets_its_own_series(self):
        from dataclasses import replace

        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        s = engine.derive_suite(ls.A, K=ls.K)
        assert s.psi_series.psi is s.psi
        other = replace(s, psi=2 * s.psi)
        assert other.psi_series is not s.psi_series
        assert other.psi_series.powers[1] == 2 * s.psi
        # an override that leaves psi alone, or claims an equal one, keeps it
        assert replace(s, M=s.M).psi_series is s.psi_series
        equal = Matrix(QF, 3, 3, list(s.psi.entries))
        assert replace(s, psi=equal).psi_series is s.psi_series

    def test_hand_built_suite(self):
        from tdq.linalg import Decomposition

        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        s = engine.derive_suite(ls.A, K=ls.K)
        fields = {name: getattr(s, name) for name in (
            "params", "n", "A", "K", "B", "psi", "M", "Minv", "Delta", "Deltainv",
            "theta", "rho")}
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
        assert dd.theta == tuple(reversed(s.theta))

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
        assert dd.theta_star == s.theta_star


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
                    if not S.det().is_zero():
                        break
                Sinv = S.inverse()
                conj = engine.derive_suite(S * ls.A * Sinv, K=S * ls.K * Sinv)
                for name in ("K", "B", "psi", "M", "Minv", "Delta", "Deltainv"):
                    assert getattr(conj, name) == S * getattr(base, name) * Sinv
                for name in ("U", "Udd", "W", "EV"):
                    assert getattr(conj, name) == tuple(
                        x.image(S) for x in getattr(base, name))
