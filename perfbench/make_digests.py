"""Regenerate digests.json: the SHA-256 of every output the benchmark checks.

Usage (from the repository root): python3 perfbench/make_digests.py

Runs every catalogue entry of every workload once, in this interpreter, and
records the digest of each output.  Run it only when a change is meant to
alter output bytes, and say so in the change.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    os.environ.pop("TDQ_BATTERY_FILTER", None)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="digests-", dir=os.path.join(HERE, ".work"))
    table = {}
    try:
        for workload in workloads.WORKLOADS:
            entries = workloads.catalogue(workload)
            workloads.prepare(workload, work)
            for inst in (workloads.instance(workload, e, work) for e in entries):
                for cmd in inst.commands:
                    code, output = workloads.run_in_process(cmd)
                    if code != 0:
                        print(f"{cmd.key}: exit {code}\n{output}", file=sys.stderr)
                        return 1
                    table[cmd.key] = workloads.digest(cmd)
                print(workload, inst.label, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
