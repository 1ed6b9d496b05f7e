"""Isolated layer timings on operands taken from a workload's own suite.

Each timing runs with the tracer uninstalled and reports the median over
repetitions.  The suite is derived from the fixture that the workload's
largest instance verifies, so the operands have the entry sizes and sparsity
that the workload itself produces.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

REPS = 5


def _median_time(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def suite_from_fixture(path: str):
    from tdq import engine, fixtures

    fixture = fixtures.read_fixture(path)
    m = fixture.matrices
    return engine.derive_suite(m["A"], K=m["K"], params=fixture.params)


def scalar_operands(suite, limit: int = 64) -> list:
    """Nonzero entries of the derived matrices, evenly sampled."""
    entries = [x for mat in (suite.M, suite.Minv, suite.Delta, suite.Deltainv, suite.psi)
               for x in mat.entries if x]
    step = max(1, len(entries) // limit)
    return entries[::step][:limit]


def scalar_timings(suite) -> dict[str, float]:
    xs = scalar_operands(suite)
    pairs = list(zip(xs, xs[1:] + xs[:1]))

    def per_op_us(op):
        def batch():
            for x, y in pairs:
                op(x, y)
        return _median_time(batch) / len(pairs) * 1e6

    return {
        "scalars.mul_us": per_op_us(lambda x, y: x * y),
        "scalars.add_us": per_op_us(lambda x, y: x + y),
        "scalars.inv_us": per_op_us(lambda x, y: x.inv()),
    }


def linalg_timings(suite) -> dict[str, float]:
    from tdq import linalg

    d, q = suite.d, suite.q
    h = d // 2
    shifted = suite.M - linalg.Matrix.diagonal(suite.field, [q ** d] * suite.n)
    head = linalg.subspace_sum(suite.U[: h + 1])
    tail = linalg.subspace_sum(suite.EV[: d - h + 1])
    return {
        "linalg.iso.matmul_s": _median_time(lambda: suite.Delta * suite.M),
        "linalg.iso.inverse_s": _median_time(lambda: suite.M.inverse()),
        "linalg.iso.kernel_s": _median_time(lambda: shifted.kernel()),
        "linalg.iso.subspace_sum_s": _median_time(lambda: linalg.subspace_sum(suite.EV)),
        "linalg.iso.subspace_intersect_s": _median_time(
            lambda: linalg.subspace_intersect(head, tail)),
    }


def battery_timings(suite) -> dict[str, float]:
    """``battery.context_s`` is ``verify_battery(suite, only=[])``; each item
    is ``only=[id]`` minus a context run made just before it, so that slow
    drifts of the machine cancel in the difference."""
    from tdq import battery

    def timed(only):
        start = time.perf_counter()
        battery.verify_battery(suite, only=only)
        return time.perf_counter() - start

    contexts = []
    out = {}
    for item in battery.battery_ids():
        contexts.append(timed([]))
        out[f"battery.item.{item}_s"] = timed([item]) - contexts[-1]
    return {"battery.context_s": statistics.median(contexts), **out}


IMPORT_PROBE = ("import time; t = time.perf_counter(); import tdq.cli; "
                "print(time.perf_counter() - t)")


def cli_import_time(env: dict, reps: int = 3) -> float:
    """Median fresh-interpreter import time of ``tdq.cli``."""
    times = []
    for _ in range(reps):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)
