"""Byte identity of the benchmark's outputs, checked in the ordinary suite.

Every ``cli-cold`` catalogue entry (rational d <= 3, all five grid points in
all three frames), the symbolic d = 2 and d = 3 entries (all three frames)
and the raw-dense d = 6 entries
(``engine`` then ``verify`` for each of the four conjugators) run in-process
through ``perfbench/workloads.py``; each fixture, derived suite and report
must match its SHA-256 in ``perfbench/digests.json``.  The files under
``perfbench/`` are only read.
"""

import pytest

from conftest import load_perfbench

workloads = load_perfbench("workloads")
DIGESTS = workloads.load_digests()

ENTRIES = [("cli-cold", entry) for entry in workloads.catalogue("cli-cold")]
ENTRIES += [("symbolic", entry) for entry in workloads.catalogue("symbolic") if entry[0] <= 3]
RAW_DENSE = [entry for entry in workloads.catalogue("raw-dense") if entry[0] == 6]


def _id(workload, entry):
    return f"{workload}-{'-'.join(map(str, entry))}"


def _check_commands(workload, entry, work):
    for cmd in workloads.instance(workload, entry, work).commands:
        code, output = workloads.run_in_process(cmd)
        assert workloads.check(cmd, code, DIGESTS) is None, (cmd.key, output)


@pytest.mark.parametrize("workload,entry", ENTRIES,
                         ids=[_id(w, e) for w, e in ENTRIES])
def test_outputs_match_stored_digests(workload, entry, tmp_path):
    _check_commands(workload, entry, str(tmp_path))


@pytest.fixture(scope="module")
def raw_dense_work(tmp_path_factory):
    """The benchmark's parameter-free (A, K) inputs, written once."""
    work = str(tmp_path_factory.mktemp("raw-dense"))
    workloads.prepare("raw-dense", work)
    return work


@pytest.mark.parametrize("entry", RAW_DENSE, ids=[_id("raw-dense", e) for e in RAW_DENSE])
def test_engine_outputs_match_stored_digests(entry, raw_dense_work):
    _check_commands("raw-dense", entry, raw_dense_work)
