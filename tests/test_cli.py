import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env=None):
    """Run the CLI in a child process and check the README contract that
    holds for every input: exit code 0, 1 or 2 and no traceback."""
    # the child finds the package under src/ whether or not it is installed
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "tdq.cli", *args], capture_output=True,
                          text=True, check=False, env=env, timeout=120)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


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


@pytest.mark.parametrize("name", ["q", "a", "b"])
def test_generate_zero_parameter_exit_2(tmp_path, name):
    values = {"q": "2", "a": "3", "b": "5", name: "0"}
    out = tmp_path / "x.json"
    proc = run_cli("generate", "--d", "2", *(f"--{k}={v}" for k, v in values.items()),
                   "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"error: parameter {name} must be nonzero\n"
    assert not out.exists()


def test_generate_ratfunc_zero_to_the_zero_exit_2(tmp_path):
    # (a-a)^0 reads 1, as on the rational backend, and a = 1 is refused
    out = tmp_path / "x.json"
    proc = run_cli("generate", "--backend", "ratfunc", "--d", "1", "--q", "q",
                   "--a", "(a-a)^0", "--out", str(out))
    assert proc.returncode == 2
    assert "parameter violation" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "verify", "engine"])
def test_unwritable_output_exit_2(tmp_path, command):
    fix = tmp_path / "fix.json"
    run_cli("generate", "--d", "1", "--q", "2", "--a", "3", "--out", str(fix))
    target = tmp_path / "missing" / "out.json"
    args = {"generate": ["generate", "--d", "1", "--q", "2", "--a", "3", "--out"],
            "verify": ["verify", str(fix), "--report"],
            "engine": ["engine", str(fix), "--out"]}[command]
    proc = run_cli(*args, str(target))
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {target}: No such file or directory\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["fix.json"]


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
    status = {e["id"]: e for e in json.loads(report.read_text())["entries"]}
    assert status["psi_nilpotent"]["status"] == "fail"
    for item in ("exp_intertwine", "delta_exp_factorization", "exp_product_series",
                 "u_w_exp_maps"):
        assert status[item]["status"] == "fail"
        assert status[item]["witness"]["error"] == "ValueError: q_exp needs a nilpotent matrix"


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

    # ids are stripped of the spaces around them
    proc = run_cli("verify", str(fix), "--battery", " kb_quadratic , m_psi_commutation")
    assert proc.returncode == 0
    assert "total: 2" in proc.stdout
    assert "kb_quadratic" in proc.stdout and "m_psi_commutation" in proc.stdout
    assert "m_definition" not in proc.stdout

    proc = run_cli("verify", str(fix), "--battery", "bogus_id")
    assert proc.returncode == 2
    assert "bogus_id" in proc.stderr


@pytest.mark.parametrize("battery", [",", "", " , "])
def test_verify_empty_battery_selection_is_usage_error(tmp_path, battery):
    # a selection of no id would run nothing and report a pass
    fix = tmp_path / "fix.json"
    run_cli("generate", "--d", "1", "--q", "2", "--a", "3", "--out", str(fix))
    proc = run_cli("verify", str(fix), "--battery", battery)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --battery names no battery id\n"


def test_verify_reads_no_filter_variable(tmp_path):
    # only --battery selects items; the environment does not
    fix = tmp_path / "fix.json"
    run_cli("generate", "--d", "1", "--q", "2", "--a", "3", "--b", "5",
            "--out", str(fix))
    report = tmp_path / "rep.json"
    proc = run_cli("verify", str(fix), "--report", str(report),
                   env=dict(os.environ, TDQ_BATTERY_FILTER="kb_quadratic"))
    assert proc.returncode == 0
    assert len(json.loads(report.read_text())["entries"]) == 48


@pytest.mark.parametrize("matrices, message", [
    ({"K": [["2", "0"], ["0", "1/2"]]}, "fixture must provide the matrix A"),
    ({"A": [["1", "0"], ["1", "2"]]}, "fixture must provide K or Astar alongside A"),
], ids=["no-A", "A-alone"])
@pytest.mark.parametrize("command", ["verify", "engine"])
def test_missing_input_operator_exit_2(tmp_path, command, matrices, message):
    fix = tmp_path / "fix.json"
    fix.write_text(json.dumps({"format": "tdq-fixture/1", "field": {"backend": "rational"},
                               "matrices": matrices}))
    args = [command, str(fix)] + (["--out", str(tmp_path / "o.json")] if command == "engine" else [])
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"


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
    assert name in proc.stderr


NESTED = "(" * 200 + "1" + ")" * 200
LONG = "9" * 5000


@pytest.mark.parametrize("literal", [NESTED, LONG], ids=["nested", "long"])
def test_oversized_scalar_exit_2(tmp_path, literal):
    proc = run_cli("generate", "--d", "1", "--q", literal, "--a", "3",
                   "--out", str(tmp_path / "x.json"))
    assert proc.returncode == 2
    doc = _d2_fixture_doc(tmp_path)
    doc["matrices"]["A"][0][0] = literal
    fix = tmp_path / "bad.json"
    fix.write_text(json.dumps(doc))
    proc = run_cli("verify", str(fix))
    assert proc.returncode == 2
    assert "bad scalar" in proc.stderr


# "2^1000" fifteen times over: each factor parses, the product has 4,516 digits
TOO_LONG_TO_WRITE = "*".join(["2^1000"] * 15)


@pytest.mark.parametrize("args,message", [
    (["--q", "2^99999999", "--a", "3"], "exponent larger than 1000"),
    (["--q", "2^20000", "--a", "3"], "exponent larger than 1000"),
    (["--q", f"({'9' * 4300})^1000", "--a", "3"], "power with a number of more than 4300 digits"),
    (["--q", TOO_LONG_TO_WRITE, "--a", "3"], "more than 4300 digits"),
    (["--backend", "ratfunc", "--q", "(q + 10^50)^1000", "--a", "a"],
     "power with a number of more than 4300 digits"),
    # refused before it is computed; expanding it runs for minutes
    (["--backend", "ratfunc", "--q", "((q+1)^120)^120", "--a", "a"],
     "power of degree more than 1000"),
], ids=["huge-exponent", "long-power", "huge-power", "long-product", "huge-least-term-power",
        "nested-power-degree"])
def test_oversized_generate_exit_2(tmp_path, args, message):
    out = tmp_path / "x.json"
    started = time.perf_counter()
    proc = run_cli("generate", "--d", "1", *args, "--out", str(out))
    assert time.perf_counter() - started < 30
    assert proc.returncode == 2
    assert message in proc.stderr and len(proc.stderr.strip().splitlines()) == 1
    assert not out.exists()


def test_generate_diameter_above_bound_exit_2(tmp_path):
    out = tmp_path / "x.json"
    started = time.perf_counter()
    proc = run_cli("generate", "--d", "100000", "--q", "2", "--a", "3", "--out", str(out))
    assert time.perf_counter() - started < 30
    assert proc.returncode == 2
    assert proc.stderr == "error: --d must be <= 64\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "engine"])
def test_diameter_above_size_exit_2(tmp_path, command):
    doc = {
        "format": "tdq-fixture/1",
        "field": {"backend": "rational"},
        "params": {"d": 100000, "q": "2", "a": "3"},
        "matrices": {"A": [["1", "0"], ["1", "2"]], "K": [["2", "0"], ["0", "1/2"]]},
    }
    fix = tmp_path / "fix.json"
    fix.write_text(json.dumps(doc))
    args = [command, str(fix)] + (["--out", str(tmp_path / "o.json")] if command == "engine" else [])
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "d = 100000" in proc.stderr and len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["verify", "engine"])
def test_repeated_block_eigenvalue_exit_1(tmp_path, command):
    # A acts on the K-eigenspaces with the eigenvalue 1 three times
    doc = {
        "format": "tdq-fixture/1",
        "field": {"backend": "rational"},
        "matrices": {"A": [["1", "0", "0"], ["1", "1", "0"], ["0", "1", "1"]],
                     "K": [["4", "0", "0"], ["0", "1", "0"], ["0", "0", "1/4"]]},
    }
    fix = tmp_path / "fix.json"
    fix.write_text(json.dumps(doc))
    args = [command, str(fix)] + (["--out", str(tmp_path / "o.json")] if command == "engine" else [])
    proc = run_cli(*args)
    assert proc.returncode == 1
    # q = 2 and -2 stop at the repeated eigenvalue, further than the split
    # action that stops q = 1/2 and -1/2; the furthest failure is reported
    assert proc.stderr.startswith("mathematical failure:")
    assert "A has a repeated eigenvalue" in proc.stderr


@pytest.mark.parametrize("command", ["verify", "engine"])
def test_no_a_for_the_k_spectrum_exit_1(tmp_path, command):
    # K fixes q = 2 or -2, and no a fits A's eigenvalues 1, 2, 3 for either
    doc = {
        "format": "tdq-fixture/1",
        "field": {"backend": "rational"},
        "matrices": {"A": [["1", "0", "0"], ["1", "2", "0"], ["0", "1", "3"]],
                     "K": [["4", "0", "0"], ["0", "1", "0"], ["0", "0", "1/4"]]},
    }
    fix = tmp_path / "fix.json"
    fix.write_text(json.dumps(doc))
    args = [command, str(fix)] + (["--out", str(tmp_path / "o.json")] if command == "engine" else [])
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr == ("mathematical failure: no a in the working field fits the "
                           "eigenvalues of A for the q of the K spectrum\n")


@pytest.mark.parametrize("command", ["verify", "engine"])
def test_uncentred_k_spectrum_exit_1(tmp_path, command):
    # 2, 1/2, 1/8 is geometric with ratio 1/4, but its middle value is not
    # q^0 = 1, so no q has the powers q^2, 1, q^-2
    doc = {
        "format": "tdq-fixture/1",
        "field": {"backend": "rational"},
        "matrices": {"A": [["1", "0", "0"], ["1", "2", "0"], ["0", "1", "3"]],
                     "K": [["2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1/8"]]},
    }
    fix = tmp_path / "fix.json"
    fix.write_text(json.dumps(doc))
    args = [command, str(fix)] + (["--out", str(tmp_path / "o.json")] if command == "engine" else [])
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("mathematical failure: the K spectrum is not a geometric chain "
                           "q^d, ..., q^-d\n")


@pytest.mark.parametrize("command", ["verify", "engine"])
@pytest.mark.parametrize("field, A, K", [
    ({"backend": "rational"}, [["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]]),
    ({"backend": "rational"}, [["1", "0"], ["1", "2"]], [["0", "0"], ["0", "1"]]),
    ({"backend": "ratfunc", "variables": ["q", "a"]},
     [["q", "0"], ["1", "a"]], [["0", "0"], ["0", "q"]]),
], ids=["zero-A", "rational", "ratfunc"])
def test_zero_k_eigenvalue_exit_1(tmp_path, command, field, A, K):
    # no q^(d-2i) is 0, whether 0 comes first or second in the K spectrum
    fix = tmp_path / "fix.json"
    fix.write_text(json.dumps({"format": "tdq-fixture/1", "field": field,
                               "matrices": {"A": A, "K": K}}))
    args = [command, str(fix)] + (["--out", str(tmp_path / "o.json")] if command == "engine" else [])
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr == ("mathematical failure: the K spectrum is not a geometric chain "
                           "q^d, ..., q^-d\n")


def test_deeply_nested_json_exit_2(tmp_path):
    fix = tmp_path / "deep.json"
    fix.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli("verify", str(fix))
    assert proc.returncode == 2
    assert "nested too deeply" in proc.stderr


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
