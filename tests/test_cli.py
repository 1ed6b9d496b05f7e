import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env=None):
    # the child finds the package under src/ whether or not it is installed
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tdq.cli", *args],
                          capture_output=True, text=True, check=False, env=env)


def test_generate_and_verify_round_trip(tmp_path):
    fix = tmp_path / "fix.json"
    proc = run_cli("generate", "--d", "1", "--q", "2", "--a", "3", "--b", "5",
                   "--basis", "u", "--out", str(fix))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(fix.read_text())
    assert doc["format"] == "tdq-fixture/1"
    assert doc["matrices"]["Delta"] == [["1", "4"], ["0", "1"]]

    report = tmp_path / "rep.json"
    proc = run_cli("verify", str(fix), "--report", str(report))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rep = json.loads(report.read_text())
    assert rep["summary"]["fail"] == 0
    assert rep["exit_code"] == 0
    assert "skipped-needs-Astar" in {e["status"] for e in rep["entries"]}


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "one.json", tmp_path / "two.json"
    for out in (a, b):
        proc = run_cli("generate", "--d", "2", "--q", "2", "--a", "3", "--b", "5",
                       "--out", str(out))
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_invalid_params_exit_2(tmp_path):
    proc = run_cli("generate", "--d", "2", "--q", "1", "--a", "3", "--b", "5",
                   "--out", str(tmp_path / "x.json"))
    assert proc.returncode == 2
    assert "q^4 = 1" in proc.stderr


def test_verify_mutated_fixture_exit_1(tmp_path):
    fix = tmp_path / "fix.json"
    run_cli("generate", "--d", "1", "--q", "2", "--a", "3", "--b", "5",
            "--out", str(fix))
    doc = json.loads(fix.read_text())
    doc["matrices"]["Delta"][0][1] = "5"
    fix.write_text(json.dumps(doc))
    proc = run_cli("verify", str(fix))
    assert proc.returncode == 1
    assert "delta_power_series" in proc.stdout
    assert "FAIL" in proc.stdout


def test_verify_non_nilpotent_psi_reports_failures(tmp_path):
    # the q-exponentials of a psi that is not nilpotent cannot be built; only
    # the items that use them fail, and the run ends with a report, not a crash
    fix = tmp_path / "fix.json"
    run_cli("generate", "--d", "2", "--q", "2", "--a", "3", "--b", "5",
            "--out", str(fix))
    doc = json.loads(fix.read_text())
    doc["matrices"]["psi"][2][0] = "1"
    fix.write_text(json.dumps(doc))
    report = tmp_path / "rep.json"
    proc = run_cli("verify", str(fix), "--report", str(report))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    status = {e["id"]: e for e in json.loads(report.read_text())["entries"]}
    assert status["psi_nilpotent"]["status"] == "fail"
    for item in ("exp_intertwine", "delta_exp_factorization", "exp_product_series",
                 "u_w_exp_maps"):
        assert status[item]["status"] == "fail"
        assert "nilpotent" in status[item]["witness"]["error"]


def test_verify_malformed_fixture_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("verify", str(bad)).returncode == 2
    bad.write_text(json.dumps({"format": "nope"}))
    assert run_cli("verify", str(bad)).returncode == 2


def test_verify_battery_filter_flag_and_env(tmp_path):
    fix = tmp_path / "fix.json"
    run_cli("generate", "--d", "1", "--q", "2", "--a", "3", "--b", "5",
            "--out", str(fix))
    proc = run_cli("verify", str(fix), "--battery", "m_definition,psi_nilpotent")
    assert proc.returncode == 0
    assert "total: 2" in proc.stdout

    env = dict(os.environ, TDQ_BATTERY_FILTER="kb_quadratic")
    proc = run_cli("verify", str(fix), "--battery", "m_definition", env=env)
    assert proc.returncode == 0
    assert "total: 1" in proc.stdout and "kb_quadratic" in proc.stdout

    proc = run_cli("verify", str(fix), "--battery", "bogus_id")
    assert proc.returncode == 2


def test_verify_unknown_env_filter_exit_2(tmp_path):
    # the environment filter overrides --battery, so it is the one validated
    fix = tmp_path / "fix.json"
    run_cli("generate", "--d", "1", "--q", "2", "--a", "3", "--b", "5",
            "--out", str(fix))
    env = dict(os.environ, TDQ_BATTERY_FILTER="nope")
    proc = run_cli("verify", str(fix), env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "nope" in proc.stderr


def _d2_fixture_doc(tmp_path):
    fix = tmp_path / "fix.json"
    run_cli("generate", "--d", "2", "--q", "2", "--a", "3", "--b", "5",
            "--out", str(fix))
    return json.loads(fix.read_text())


BAD_SHAPES = {
    "empty A": ("A", [[]]),
    "2x3 psi": ("psi", [["0", "1", "0"], ["0", "0", "1"]]),
    "2x2 Delta": ("Delta", [["1", "1"], ["0", "1"]]),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
@pytest.mark.parametrize("command", ["verify", "engine"])
def test_bad_operator_shape_exit_2(tmp_path, command, case):
    doc = _d2_fixture_doc(tmp_path)
    name, rows = BAD_SHAPES[case]
    doc["matrices"][name] = rows
    fix = tmp_path / "bad.json"
    fix.write_text(json.dumps(doc))
    args = [command, str(fix)]
    if command == "engine":
        args += ["--out", str(tmp_path / "out.json")]
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert name in proc.stderr


def test_engine_emits_derived_suite(tmp_path):
    fix = tmp_path / "fix.json"
    run_cli("generate", "--d", "1", "--q", "2", "--a", "3", "--b", "5",
            "--out", str(fix))
    out = tmp_path / "derived.json"
    proc = run_cli("engine", str(fix), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["basis"] == "abstract"
    assert doc["matrices"]["M"] == [["2", "3/4"], ["0", "1/2"]]
    assert set(doc["subspaces"]) == {"U0", "U1", "Udd0", "Udd1", "W0", "W1"}
    # emitted fixture verifies clean
    proc = run_cli("verify", str(out))
    assert proc.returncode == 0


def test_engine_on_conjugated_fixture(tmp_path):
    from tdq import engine as eng, leonard
    from tdq.fixtures import read_fixture
    from tdq.linalg import Matrix
    from tdq.params import QRacahParams
    from tdq.scalars import rational_field

    QF = rational_field()
    p = QRacahParams(1, QF.coerce(2), QF.coerce(3), QF.coerce(5))
    ls = leonard.leonard_suite(p, "u")
    S = Matrix.from_rows(QF, [[2, 1], [1, 1]])
    Sinv = S.inverse()
    doc = {
        "format": "tdq-fixture/1",
        "field": {"backend": "rational"},
        "basis": "abstract",
        "matrices": {
            "A": (S * ls.A * Sinv).render(),
            "K": (S * ls.K * Sinv).render(),
        },
    }
    fix = tmp_path / "conj.json"
    fix.write_text(json.dumps(doc))
    out = tmp_path / "derived.json"
    proc = run_cli("engine", str(fix), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    derived = read_fixture(str(out))
    ground = eng.derive_suite(ls.A, K=ls.K)
    for name in ("B", "psi", "M", "Delta"):
        assert derived.matrices[name] == S * getattr(ground, name) * Sinv


def test_engine_non_qracah_exit_1(tmp_path):
    fix = tmp_path / "fix.json"
    doc = {
        "format": "tdq-fixture/1",
        "field": {"backend": "rational"},
        "basis": "abstract",
        "matrices": {
            "A": [["1", "0"], ["1", "2"]],
            "K": [["2", "0"], ["0", "3"]],
        },
    }
    fix.write_text(json.dumps(doc))
    proc = run_cli("engine", str(fix), "--out", str(tmp_path / "o.json"))
    assert proc.returncode == 1
    assert "mathematical failure" in proc.stderr


def test_verify_with_dual_operator(tmp_path):
    doc = {
        "format": "tdq-fixture/1",
        "field": {"backend": "rational"},
        "basis": "abstract",
        "matrices": {
            "A": [["37/6", "0"], ["1", "13/6"]],
            "Astar": [["101/10", "1"], ["0", "29/10"]],
        },
    }
    fix = tmp_path / "pair.json"
    fix.write_text(json.dumps(doc))
    proc = run_cli("verify", str(fix))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "skipped: 0" in proc.stdout.splitlines()[-1].replace("  ", " ")


def test_detect_solutions():
    proc = run_cli("detect", "--theta", "145/12,10/3,25/12")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert ["2", "3"] in doc["solutions"]
    assert ["1/2", "1/3"] in doc["solutions"]


def test_detect_rejects_arithmetic_progression():
    proc = run_cli("detect", "--theta", "1,2,3")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["reason"] == "q4-forced"
    assert "q^4 = 1" in doc["message"]


def test_detect_bad_input_exit_2():
    assert run_cli("detect", "--theta", "1,,oops").returncode == 2
    assert run_cli("detect", "--theta", "5").returncode == 2


def test_fixture_round_trip(tmp_path):
    from tdq.fixtures import parse_fixture, read_fixture

    fix = tmp_path / "fix.json"
    run_cli("generate", "--d", "2", "--q", "5/2", "--a", "4/3", "--b", "7/5",
            "--out", str(fix))
    first = read_fixture(str(fix))
    again = parse_fixture(first.to_dict())
    assert again.matrices == first.matrices
    assert again.params == first.params
    assert again.basis == first.basis


def test_ratfunc_fixture_round_trip(tmp_path):
    fix = tmp_path / "sym.json"
    proc = run_cli("generate", "--d", "1", "--q", "q", "--a", "a", "--b", "b",
                   "--backend", "ratfunc", "--out", str(fix))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("verify", str(fix))
    assert proc.returncode == 0, proc.stdout + proc.stderr
