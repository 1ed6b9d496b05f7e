"""The paper's pair (A, A*) at d >= 2: A* from the q-Racah split sequence,
run through every engine route and the full battery."""

import json

import pytest

from conftest import assert_split_identities, conjugator, dual_operator, make_params
from test_cli import run_cli
from tdq import engine, leonard
from tdq.battery import verify_battery
from tdq.linalg import Matrix
from tdq.params import QRacahParams
from tdq.scalars import rational_field, ratfunc_field

QF = rational_field()
C = 7
FULL = {"pass": 48, "fail": 0, "skipped-needs-Astar": 0}


def pair(d, conjugated):
    """(params, A, K, A*) at (q, a, b, c) = (2, 3, 5, 7), in the u frame or
    conjugated by a small-integer S."""
    p = make_params(QF, d=d)
    ls = leonard.leonard_suite(p, "u")
    ops = (ls.A, ls.K, dual_operator(p, QF.coerce(C)))
    if conjugated:
        S = conjugator(d + 1)
        Sinv = S.inverse()
        ops = tuple(S * m * Sinv for m in ops)
    return (p, *ops)


def orientations(p):
    """The parameters of every standard ordering of the pair: reversing the
    ordering of A inverts a, reversing that of A* inverts b."""
    return [QRacahParams(p.d, p.q, a, b) for a in (p.a, p.a ** -1) for b in (p.b, p.b ** -1)]


CASES = [(d, conjugated) for d in (2, 3, 4) for conjugated in (False, True)]
IDS = [f"d{d}-{'conjugated' if conjugated else 'u'}" for d, conjugated in CASES]


@pytest.mark.parametrize("d, conjugated", CASES, ids=IDS)
def test_every_route_passes_the_full_battery(d, conjugated):
    p, A, K, Astar = pair(d, conjugated)
    routes = [{"K": K, "Astar": Astar}, {"Astar": Astar}]
    routes += [{"Astar": Astar, "params": oriented} for oriented in orientations(p)]
    for kwargs in routes:
        suite = engine.derive_suite(A, **kwargs)
        assert_split_identities(suite)
        report = verify_battery(suite)
        assert report.counts == FULL, (sorted(kwargs), [e.id for e in report.failures()])


@pytest.mark.parametrize("d, conjugated", CASES, ids=IDS)
def test_axioms_hold(d, conjugated):
    _, A, _, Astar = pair(d, conjugated)
    report = engine.validate_axioms(A, Astar)
    assert report.passed, report.checks
    assert (report.d, report.delta, report.algebra_dim) == (d, d, (d + 1) ** 2)


@pytest.mark.parametrize("d", [2, 3])
def test_perturbed_split_sequence_fails(d):
    p, A, K, Astar = pair(d, conjugated=False)
    rows = [[Astar[r, c] for c in range(d + 1)] for r in range(d + 1)]
    rows[0][1] = rows[0][1] + 1
    mutated = Matrix.from_rows(QF, rows)
    assert not engine.validate_axioms(A, mutated).passed
    failures = verify_battery(engine.derive_suite(A, K=K, Astar=mutated)).failures()
    assert [e.id for e in failures] == ["astar_action_splits"]
    with pytest.raises(engine.EngineError, match="tridiagonally"):
        engine.derive_suite(A, Astar=mutated, params=p)


def test_symbolic_pair_with_params():
    RF = ratfunc_field(("q", "a", "b", "c"))
    q, a, b, c = (RF.generator(name) for name in ("q", "a", "b", "c"))
    p = QRacahParams(2, q, a, b)
    ls = leonard.leonard_suite(p, "u")
    suite = engine.derive_suite(ls.A, Astar=dual_operator(p, c), params=p)
    assert verify_battery(suite).counts == FULL


def test_cli_engine_then_verify_on_a_conjugated_pair(tmp_path):
    _, A, _, Astar = pair(3, conjugated=True)
    fix = tmp_path / "pair.json"
    fix.write_text(json.dumps({"format": "tdq-fixture/1", "field": {"backend": "rational"},
                               "matrices": {"A": A.render(), "Astar": Astar.render()}}))
    derived = tmp_path / "derived.json"
    proc = run_cli("engine", str(fix), "--out", str(derived))
    assert proc.returncode == 0, proc.stderr
    report = tmp_path / "report.json"
    proc = run_cli("verify", str(derived), "--report", str(report))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(report.read_text())["summary"] == FULL
