import hashlib
import json
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest

from tdq import battery, engine, leonard, linalg, qcalc
from tdq.battery import battery_ids, verify_battery
from tdq.linalg import Matrix
from tdq.params import QRacahParams
from tdq.scalars import Scalar, rational_field, ratfunc_field

from conftest import make_params

QF = rational_field()


def rational_suite(d=1, q=2, a=3, b=5):
    p = make_params(QF, d=d, q=q, a=a, b=b)
    ls = leonard.leonard_suite(p, "u")
    return engine.derive_suite(ls.A, K=ls.K, params=p), ls


class TestFullBattery:
    def test_rational_instances_pass(self):
        for d in (1, 2, 3):
            suite, _ = rational_suite(d=d)
            report = verify_battery(suite)
            assert report.passed, report.failures()
            counts = report.counts
            assert counts["fail"] == 0 and counts["skipped-needs-Astar"] == 5

    def test_symbolic_instance_passes(self):
        RF = ratfunc_field(("q", "a"))
        p = QRacahParams(2, RF.generator("q"), RF.generator("a"))
        ls = leonard.leonard_suite(p, "u")
        suite = engine.derive_suite(ls.A, K=ls.K, params=p)
        report = verify_battery(suite)
        assert report.passed, report.failures()

    def test_astar_items_run_on_full_fixture(self):
        p = make_params(QF, d=1)
        A = Matrix.from_rows(QF, [[p.theta(0), 0], [1, p.theta(1)]])
        Astar = Matrix.from_rows(QF, [[p.theta_star(0), 1], [0, p.theta_star(1)]])
        suite = engine.derive_suite(A, Astar=Astar)
        report = verify_battery(suite)
        assert report.passed
        assert report.counts["skipped-needs-Astar"] == 0

    def test_every_identity_reported_once(self):
        suite, _ = rational_suite()
        report = verify_battery(suite)
        ids = [e.id for e in report.entries]
        assert ids == battery_ids()
        assert len(ids) == len(set(ids))


class TestMutationSensitivity:
    @pytest.mark.parametrize("name", ["M", "Delta", "psi"])
    def test_single_entry_perturbation_caught(self, name):
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        original = getattr(ls, name)
        entries = list(original.entries)
        entries[1] = entries[1] + 1
        mutated = Matrix(QF, original.rows, original.cols, entries)
        suite = replace(engine.derive_suite(ls.A, K=ls.K), **{name: mutated})
        report = verify_battery(suite)
        assert not report.passed
        assert all(e.witness for e in report.failures())

    def test_perturbed_delta_names_power_series_item(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        entries = list(ls.Delta.entries)
        entries[1] = entries[1] + 1
        mutated = Matrix(QF, 2, 2, entries)
        suite = replace(engine.derive_suite(ls.A, K=ls.K), Delta=mutated)
        failing = {e.id for e in verify_battery(suite).failures()}
        assert "delta_power_series" in failing


class TestFilters:
    def test_only_subset_runs(self):
        suite, _ = rational_suite()
        report = verify_battery(suite, only=["m_definition", "psi_nilpotent"])
        # entries keep registry order regardless of the filter order
        assert [e.id for e in report.entries] == ["psi_nilpotent", "m_definition"]

    def test_unknown_id_rejected(self):
        suite, _ = rational_suite()
        with pytest.raises(ValueError):
            verify_battery(suite, only=["nope"])

    def test_report_document_counts_match(self):
        suite, _ = rational_suite()
        report = verify_battery(suite)
        doc = report.to_dict()
        assert doc["summary"] == report.counts
        assert len(doc["entries"]) == len(report.entries)


def _statuses(suite, only=None):
    return {e.id: e for e in verify_battery(suite, only=only).entries}


class TestSeriesFollowsClaimedPsi:
    def test_doubled_psi(self):
        # the series is rebuilt for the claimed psi: Delta no longer matches
        # it, while the identities that involve only psi still hold
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        suite = replace(engine.derive_suite(ls.A, K=ls.K), psi=2 * ls.psi)
        assert suite.psi_series.psi is suite.psi
        status = _statuses(suite)
        for item in ("delta_power_series", "delta_exp_factorization"):
            assert status[item].status == "fail", item
        for item in ("psi_nilpotent", "exp_product_series"):
            assert status[item].status == "pass", item


class TestPsiRouteRecord:
    """derive_suite records psi's four-expression route on the suite; the
    battery reads it while K, B, q and a are the suite's and otherwise runs
    the route anew."""

    @pytest.fixture
    def routes(self, monkeypatch):
        calls = []
        original = engine.psi_from_KB

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(battery, "psi_from_KB", counted)
        return calls

    @pytest.fixture(scope="class")
    def derived(self):
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        return engine.derive_suite(ls.A, K=ls.K, params=p)

    def test_derived_suite_runs_no_route(self, derived, routes):
        assert derived.psi_route[1] is derived.psi
        assert verify_battery(derived).passed
        assert routes == []

    def test_equal_claimed_b_keeps_the_record(self, derived, routes):
        B = derived.B
        claimed = replace(derived, B=Matrix(QF, B.rows, B.cols, list(B.entries)))
        assert claimed.B is not B and claimed.psi_route is derived.psi_route
        assert _statuses(claimed)["psi_four_expressions"].status == "pass"
        assert routes == []

    def test_changed_b_runs_the_route_once(self, derived, routes):
        claimed = replace(derived, B=_bumped(derived.B, 2, 2))
        assert claimed.psi_route is None
        entry = _statuses(claimed)["psi_four_expressions"]
        assert len(routes) == 1 and routes[0][1] is claimed.B
        assert (entry.status, entry.witness) == ("fail", {
            "violation_count": 1,
            "violations": [{"identity": "four expressions",
                            "error": "the four expressions for the lowering operator disagree"}],
        })

    @pytest.mark.parametrize("change", [
        lambda s: {"K": _bumped(s.K, 0, 0)},
        lambda s: {"params": make_params(QF, d=2, a=5)},
    ], ids=["K", "params"])
    def test_changed_k_or_params_drops_the_record(self, derived, change):
        assert replace(derived, **change(derived)).psi_route is None

    def test_claimed_psi_is_checked_against_the_record(self, derived, routes):
        claimed = replace(derived, psi=2 * derived.psi)
        assert claimed.psi_route is derived.psi_route
        assert _statuses(claimed)["psi_four_expressions"].status == "fail"
        assert routes == []


class TestExpShiftRelations:
    ITEM = ["exp_shift_relations"]

    def test_valid_suite_passes(self):
        suite, _ = rational_suite(d=2)
        assert _statuses(suite, self.ITEM)["exp_shift_relations"].status == "pass"

    def test_broken_commutation_gives_precondition_witness(self):
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        entries = list(ls.M.entries)
        entries[1] = entries[1] + 1
        M_bad = Matrix(QF, 3, 3, entries)
        suite = replace(engine.derive_suite(ls.A, K=ls.K), M=M_bad)
        entry = _statuses(suite, self.ITEM)["exp_shift_relations"]
        assert entry.status == "fail"
        assert entry.witness == {
            "violations": [{"identity": "shift relations with S = M",
                            "error": "precondition failed: S T != q^2 T S"}],
            "violation_count": 1,
        }

    def test_psi_not_nilpotent_gives_precondition_witness(self):
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        suite = replace(engine.derive_suite(ls.A, K=ls.K), psi=Matrix.identity(QF, 3),
                        M=Matrix.zero(QF, 3))
        entry = _statuses(suite, self.ITEM)["exp_shift_relations"]
        assert entry.status == "fail"
        assert entry.witness == {
            "violations": [{"identity": "shift relations with S = M",
                            "error": "precondition failed: T is not nilpotent"},
                           {"identity": "shift relations with S = K",
                            "error": "precondition failed: S T != q^2 T S"}],
            "violation_count": 2,
        }

    def test_zero_psi_passes(self):
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        suite = replace(engine.derive_suite(ls.A, K=ls.K), psi=Matrix.zero(QF, 3))
        assert _statuses(suite, self.ITEM)["exp_shift_relations"].status == "pass"


class TestCallCounts:
    def test_derived_data_built_once(self, monkeypatch):
        # one derive_suite(A, K) + verify_battery at rational d=3 builds each
        # flag sequence once and each q-exponential of psi once; derive
        # inverts each split basis once and builds each eigenspace of K once.
        # The passing battery certifies its eigenspaces and E-tails: it
        # computes no eigenspace, no tails of U or U-dd and, as no
        # certificate reads EV.coordinates, no inverse beyond its six
        ls = leonard.leonard_suite(make_params(QF, d=3), "u")
        calls = {}
        for owner, name in ((qcalc, "q_exp"), (linalg, "_running_sums"),
                            (linalg, "subspace_sum"), (linalg, "power_series"),
                            (linalg, "eigenspace"), (Matrix, "inverse")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)
            if owner is Matrix:
                monkeypatch.setattr(Matrix, name, counted)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "tdq" or mod_name.startswith("tdq."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, attr, counted)
        suite = engine.derive_suite(ls.A, K=ls.K)
        assert (calls["inverse"], calls["eigenspace"]) == (9, 12)
        assert verify_battery(suite).passed
        # the battery inverts K, B and M's four (I - x psi); psi's route is derive's
        assert calls["inverse"] == 15
        assert calls["eigenspace"] == 12
        assert calls["q_exp"] == 5
        assert calls["_running_sums"] == 5
        assert calls["subspace_sum"] <= 99
        assert calls["power_series"] <= 11

    @pytest.mark.parametrize("d,bound", [(6, 131), (10, 143)])
    def test_matrix_products_per_pass(self, monkeypatch, d, bound):
        # leonard_suite + derive_suite(A, K, params) + verify_battery at
        # rational (2, 3) in the u frame: every q-exponential of psi is summed
        # over psi's one power list, so no powers of a multiple of psi are
        # formed, and the battery reads psi's four-expression route from derive
        original = Matrix.__mul__
        products = [0]

        def counted(self, other):
            products[0] += isinstance(other, Matrix)
            return original(self, other)
        monkeypatch.setattr(Matrix, "__mul__", counted)
        p = make_params(QF, d=d)
        ls = leonard.leonard_suite(p, "u")
        assert verify_battery(engine.derive_suite(ls.A, K=ls.K, params=p)).passed
        assert products[0] <= bound

    def test_scalars_built_per_pass(self, monkeypatch):
        # the same pass at d=10 builds a Scalar for each entry that is read
        # and each scalar computed outside the matrices; matrix operations and
        # subspace inclusions compute on integers and build none
        built = [0]
        original = Scalar.__init__

        def counted(self, field, raw):
            built[0] += 1
            original(self, field, raw)
        p = make_params(QF, d=10)
        monkeypatch.setattr(Scalar, "__init__", counted)
        ls = leonard.leonard_suite(p, "u")
        assert verify_battery(engine.derive_suite(ls.A, K=ls.K, params=p)).passed
        assert built[0] <= 14_504

    def test_rational_chain_builds_no_scalar_until_rendered(self, monkeypatch):
        # rational matrices compute on their integer form: a chain of
        # products, differences, scalar multiples and shifts, and its
        # comparison, build no Scalar; reading the result builds one per
        # nonzero entry
        ls = leonard.leonard_suite(make_params(QF, d=4), "u")
        X, Y, c, t = ls.A, ls.K, QF.coerce(Fraction(-7, 3)), QF.coerce(Fraction(5, 2))
        Z = Matrix(QF, X.rows, X.cols, (X * Y - c * Y * X.shift(t)).entries)
        nonzero = sum(1 for x in Z.entries if x)
        built = [0]
        original = Scalar.__init__

        def counted(self, field, raw):
            built[0] += 1
            original(self, field, raw)
        monkeypatch.setattr(Scalar, "__init__", counted)
        chain = X * Y - c * Y * X.shift(t)
        assert chain == Z and hash(chain) == hash(Z)
        assert built[0] == 0
        assert chain.render() == Z.render()
        assert built[0] == nonzero


# ---------------------------------------------------------------------------
# pinned reports: one failing suite for each item with a per-index check loop
# ---------------------------------------------------------------------------


def _bumped(m, r, c):
    """m with 7/11 added at entry (r, c)."""
    entries = list(m.entries)
    entries[r * m.cols + c] = entries[r * m.cols + c] + QF.coerce(Fraction(7, 11))
    return Matrix(QF, m.rows, m.cols, entries)


def _swapped(spaces, i, j):
    out = list(spaces)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _d2_suite(**claims):
    p = make_params(QF, d=2)
    ls = leonard.leonard_suite(p, "u")
    claimed = {name: _bumped(getattr(ls, name), *at) for name, at in claims.items()}
    return replace(engine.derive_suite(ls.A, K=ls.K, params=p), **claimed)


def _d1_dual_suite(**claims):
    p = make_params(QF, d=1)
    A = Matrix.from_rows(QF, [[p.theta(0), 0], [1, p.theta(1)]])
    Astar = Matrix.from_rows(QF, [[p.theta_star(0), 1], [0, p.theta_star(1)]])
    suite = engine.derive_suite(A, Astar=Astar)
    claimed = {name: _bumped(getattr(suite, name), *at) for name, at in claims.items()}
    return replace(suite, **claimed)


def _swapped_splits():
    s = _d2_suite()
    return replace(s, U=_swapped(s.U, 0, 1), Udd=_swapped(s.Udd, 0, 1))


def _swapped_udd():
    s = _d2_suite()
    return replace(s, Udd=_swapped(s.Udd, 0, 1))


def _swapped_w():
    s = _d2_suite()
    return replace(s, W=_swapped(s.W, 0, 1))


def _swapped_dual_eigenspaces():
    s = _d1_dual_suite()
    return replace(s, EstarV=_swapped(s.EstarV, 0, 1))


# Each two-check item fails both checks at one index among its first three
# witnesses, so the order of the checks is pinned too.
_PINNED_SUITES = {
    "swapped U and Udd": _swapped_splits,
    "swapped Udd": _swapped_udd,
    "swapped W": _swapped_w,
    "claimed A": lambda: _d2_suite(A=(2, 0)),
    "claimed M": lambda: _d2_suite(M=(1, 1)),
    "claimed Minv": lambda: _d2_suite(Minv=(1, 1)),
    "claimed Astar": lambda: _d1_dual_suite(Astar=(1, 0)),
    "swapped E*V": _swapped_dual_eigenspaces,
}

_PINNED_ITEMS = {
    "eigenflag_tails": "swapped U and Udd",
    "split_flags_match": "swapped Udd",
    "dual_eigenflags": "swapped E*V",
    "a_action_splits": "claimed A",
    "astar_action_splits": "claimed Astar",
    "kb_eigenspaces": "swapped U and Udd",
    "kb_triangular_on_splits": "swapped U and Udd",
    "w_flag_sums": "swapped W",
    "kb_action_w": "swapped W",
    "a_action_w": "claimed A",
    "astar_action_w": "claimed Astar",
    "m_action_splits": "claimed M",
    "minv_action_splits": "claimed Minv",
    "minv_action_ev": "claimed Minv",
    "m_action_dual_ev": "swapped E*V",
    "u_w_exp_maps": "swapped W",
}

# SHA-256 of json.dumps(report.to_dict(), sort_keys=True)
_PINNED_DIGESTS = {
    "swapped U and Udd": "0092a359409815f144e45f8b2f6bdf9dc1b87fe1be9ffe2c6236f8de79058c64",
    "swapped Udd": "9ba3e188c548d18c247d5260b562370e8a8b6d0047038b0a069de3dd56652f1b",
    "swapped W": "6a46042d18affdaded5fc66287d2b927cf3cc9b1b4b32b543b305ec9b5622a59",
    "claimed A": "1fa77d1b4e81be7743384af184f965d2d12d262004b2b8cb208c706058e2ade1",
    "claimed M": "26c5279eb1e56d9c4a9ca5a58843e6b78997b1b63c801ac453f541f00ab4228b",
    "claimed Minv": "184662ff050f67271125ffd7c3034a5d65902bef1cb136cd2459db197a22030f",
    "claimed Astar": "b9247d1700953b8927520817a5e9da340f703f80f10efa84b74a5221d82ea3a4",
    "swapped E*V": "4771674603d3850d33a269641de4c4bd1616c6b304e958327e3929172b35e734",
}


@lru_cache(maxsize=None)
def _pinned_report(name):
    return verify_battery(_PINNED_SUITES[name]()).to_dict()


class TestPinnedReports:
    @pytest.mark.parametrize("item", sorted(_PINNED_ITEMS))
    def test_item_fails_with_pinned_report(self, item):
        name = _PINNED_ITEMS[item]
        doc = _pinned_report(name)
        status = {e["id"]: e["status"] for e in doc["entries"]}
        assert status[item] == "fail"
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == _PINNED_DIGESTS[name]
