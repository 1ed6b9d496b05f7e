import sys

import pytest

from tdq import engine, leonard, linalg, qcalc
from tdq.battery import BATTERY_FILTER_ENV, battery_ids, verify_battery
from tdq.linalg import Matrix
from tdq.params import QRacahParams
from tdq.scalars import rational_field, ratfunc_field

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
        suite = engine.derive_suite(ls.A, K=ls.K, overrides={name: mutated})
        report = verify_battery(suite)
        assert not report.passed
        assert all(e.witness for e in report.failures())

    def test_perturbed_delta_names_power_series_item(self):
        p = make_params(QF, d=1)
        ls = leonard.leonard_suite(p, "u")
        entries = list(ls.Delta.entries)
        entries[1] = entries[1] + 1
        mutated = Matrix(QF, 2, 2, entries)
        suite = engine.derive_suite(ls.A, K=ls.K, overrides={"Delta": mutated})
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

    def test_env_filter_overrides(self, monkeypatch):
        suite, _ = rational_suite()
        monkeypatch.setenv(BATTERY_FILTER_ENV, "kb_quadratic , m_psi_commutation")
        report = verify_battery(suite, only=["m_definition"])
        assert [e.id for e in report.entries] == ["kb_quadratic", "m_psi_commutation"]

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
        suite = engine.derive_suite(ls.A, K=ls.K, overrides={"psi": 2 * ls.psi})
        assert suite.psi_series.psi is suite.psi
        status = _statuses(suite)
        for item in ("delta_power_series", "delta_exp_factorization"):
            assert status[item].status == "fail", item
        for item in ("psi_nilpotent", "exp_product_series"):
            assert status[item].status == "pass", item


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
        suite = engine.derive_suite(ls.A, K=ls.K, overrides={"M": M_bad})
        entry = _statuses(suite, self.ITEM)["exp_shift_relations"]
        assert entry.status == "fail"
        assert entry.witness == {
            "violations": [{"identity": "shift relations with S = M",
                            "error": "precondition failed: S T != q^2 T S"}],
            "violation_count": 1,
        }

    def test_zero_psi_passes(self):
        p = make_params(QF, d=2)
        ls = leonard.leonard_suite(p, "u")
        suite = engine.derive_suite(ls.A, K=ls.K, overrides={"psi": Matrix.zero(QF, 3)})
        assert _statuses(suite, self.ITEM)["exp_shift_relations"].status == "pass"


class TestCallCounts:
    def test_derived_data_built_once(self, monkeypatch):
        # one derive_suite(A, K) + verify_battery at rational d=3 builds each
        # flag sequence once and each q-exponential of psi once
        ls = leonard.leonard_suite(make_params(QF, d=3), "u")
        calls = {}
        for owner, name in ((qcalc, "q_exp"), (linalg, "_running_sums"),
                            (linalg, "subspace_sum"), (linalg, "power_series")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "tdq" or mod_name.startswith("tdq."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, attr, counted)
        suite = engine.derive_suite(ls.A, K=ls.K)
        assert verify_battery(suite).passed
        assert calls["q_exp"] == 5
        assert calls["_running_sums"] == 7
        assert calls["subspace_sum"] <= 103
        assert calls["power_series"] <= 11
