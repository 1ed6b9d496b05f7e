"""The benchmark's own test: its output check must catch a wrong output.

Usage (from the repository root): python3 perfbench/selftest.py

Shows that one changed byte in a generated fixture, a perturbed claimed
matrix, or one failed battery entry in a report counts as a failed operation
in a benchmark pass, and that unchanged outputs count as none.  Exits 0 when
every case behaves so.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

ENTRY = (2, 0, "u")  # rational d=2 at the first grid point, u frame


def flip_one_byte(path: str) -> None:
    """Change the first digit inside the first matrix entry."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    start = data.index(b'"matrices"')
    pos = next(i for i in range(start, len(data)) if chr(data[i]).isdigit())
    data[pos] = ord("7") if data[pos] != ord("7") else ord("8")
    with open(path, "wb") as handle:
        handle.write(data)


def perturb_delta(path: str) -> None:
    """Add 1 to entry (0, 1) of the claimed Delta, so verify fails."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["matrices"]["Delta"][0][1] = f"({doc['matrices']['Delta'][0][1]})+1"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)


def fail_one_entry(path: str) -> None:
    """Turn one passing battery entry of a report into a failure."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    entry = next(e for e in doc["entries"] if e["status"] == "pass")
    entry["status"] = "fail"
    doc["summary"]["pass"] -= 1
    doc["summary"]["fail"] += 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)


def one_pass_with(mutate, after: str, work: str) -> "bench.Run":
    """A benchmark pass over ENTRY where ``mutate`` edits the output of the
    ``after`` command (generate or verify) right after it ran."""
    run = bench.Run("rational", 0, work)
    run.pass_instances = lambda k: [workloads.instance("rational", ENTRY, work)]
    plain_run = run._run

    def run_and_mutate(cmd, tracer):
        code = plain_run(cmd, tracer)
        if cmd.kind == after and mutate is not None:
            mutate(cmd.out)
        return code

    run._run = run_and_mutate
    run.one_pass()
    return run


def main() -> int:
    os.environ.pop("TDQ_BATTERY_FILTER", None)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, ".work"))
    ok = True
    try:
        for name, mutate, after, expect_failed in (
            ("unchanged outputs", None, "", 0),
            ("one changed byte in the fixture", flip_one_byte, "generate", 1),
            ("one failed battery entry in the report", fail_one_entry, "verify", 1),
            ("a perturbed claimed Delta", perturb_delta, "generate", 1),
        ):
            run = one_pass_with(mutate, after, work)
            failed = len(run.failures)
            good = failed >= 1 if expect_failed else failed == 0
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name}: {failed} of {run.attempted} failed")
            for line in run.failures:
                print(f"       {line[:160]}")
        # the report of a perturbed claim must itself show a failed battery entry
        with open(run.pass_instances(0)[0].commands[1].out, "r", encoding="utf-8") as handle:
            summary = json.load(handle)["summary"]
        good = summary["fail"] >= 1
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} perturbed claim fails in the report: {summary}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
