"""Byte identity of the benchmark's outputs, checked in the ordinary suite.

Every ``cli-cold`` catalogue entry (rational d <= 3, all five grid points in
all three frames) and the symbolic d = 2 entries run in-process through
``perfbench/workloads.py``; each fixture and report must match its SHA-256 in
``perfbench/digests.json``.  The files under ``perfbench/`` are only read.
"""

import pytest

from conftest import load_perfbench

workloads = load_perfbench("workloads")
DIGESTS = workloads.load_digests()

ENTRIES = [("cli-cold", entry) for entry in workloads.catalogue("cli-cold")]
ENTRIES += [("symbolic", entry) for entry in workloads.catalogue("symbolic") if entry[0] == 2]


@pytest.mark.parametrize("workload,entry", ENTRIES,
                         ids=[f"{w}-{'-'.join(map(str, e))}" for w, e in ENTRIES])
def test_outputs_match_stored_digests(workload, entry, tmp_path, monkeypatch):
    monkeypatch.delenv("TDQ_BATTERY_FILTER", raising=False)
    for cmd in workloads.instance(workload, entry, str(tmp_path)).commands:
        code, output = workloads.run_in_process(cmd)
        assert workloads.check(cmd, code, DIGESTS) is None, (cmd.key, output)
