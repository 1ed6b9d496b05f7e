"""Workload inputs, command lists and the output check.

Every input comes from a small catalogue, so each command's output has a
stored SHA-256 digest in ``digests.json``; the seed only picks catalogue
entries.  A command counts as failed when it exits non-zero, when a report
does not summarise as 43 pass / 0 fail / 5 skipped, or when an output's
digest differs from the stored one.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

WORKLOADS = ("symbolic", "rational", "raw-dense", "cli-cold")

# the five admissible (q, a, b) points of the acceptance grid
GRID_POINTS = (
    ("2", "3", "5"),
    ("3", "2", "7"),
    ("-2", "3", "5"),
    ("5/2", "4/3", "7/5"),
    ("2", "1/5", "3"),
)
FRAMES = ("u", "udd", "w")
DS = {
    "symbolic": (2, 3, 4),
    "rational": (2, 6, 10),
    "raw-dense": (6, 9),
    "cli-cold": (1, 2, 3),
}
# isolated layer timings use the largest instance up to this d; on raw-dense
# d=9 one battery context takes most of a second, too long for 96 battery runs
ISOLATED_MAX_D = {"symbolic": 4, "rational": 10, "raw-dense": 6, "cli-cold": 3}
RAW_POINT = 0        # raw-dense conjugates the u-frame pair at this grid point
S_POOL = 4           # number of conjugating matrices per d in raw-dense
EXPECTED_SUMMARY = {"pass": 43, "fail": 0, "skipped-needs-Astar": 5}

CHILD_PRELUDE = "import sys; from tdq.cli import main; sys.argv[0] = 'tdq'; sys.exit(main())"


@dataclass(frozen=True)
class Command:
    kind: str              # generate | verify | engine
    args: tuple            # tdq arguments; empty for the library generate
    out: str               # output file whose digest is checked
    key: str               # digest table key
    symbolic: tuple = ()   # (d, frame) for the library generate


@dataclass(frozen=True)
class Instance:
    d: int
    label: str
    commands: tuple


def choices(workload: str, seed: int, k: int = 0) -> list[tuple]:
    """The catalogue entries of pass ``k``, one per instance.

    The seed draws a starting option (frame, grid point, d or conjugator) for
    each instance; pass k takes the option k places further on, cyclically.
    A run thus walks through the catalogue, and the median over its passes
    depends little on which options the seed happened to draw first.
    """
    rng = random.Random(f"{workload}:{seed}")

    def pick(options):
        return options[(rng.randrange(len(options)) + k) % len(options)]

    points = range(len(GRID_POINTS))
    if workload == "symbolic":
        return [(d, pick(FRAMES)) for d in DS[workload]]
    if workload == "rational":
        return [(d, pick(points), pick(FRAMES)) for d in DS[workload]]
    if workload == "raw-dense":
        return [(d, pick(range(S_POOL))) for d in DS[workload]]
    if workload == "cli-cold":
        return [(pick(DS[workload]), p, pick(FRAMES)) for p in points]
    raise ValueError(f"unknown workload {workload!r}")


def catalogue(workload: str) -> list[tuple]:
    """Every entry ``choices`` can return for the workload."""
    if workload == "symbolic":
        return [(d, f) for d in DS[workload] for f in FRAMES]
    if workload == "raw-dense":
        return [(d, k) for d in DS[workload] for k in range(S_POOL)]
    return [(d, p, f) for d in DS[workload] for p in range(len(GRID_POINTS)) for f in FRAMES]


def instance(workload: str, entry: tuple, work: str) -> Instance:
    """The command list for one catalogue entry, writing under ``work``."""
    def path(name):
        return os.path.join(work, name)

    if workload == "symbolic":
        d, frame = entry
        tag = f"d{d}-{frame}"
        fixture, report = path(f"sym-{tag}.json"), path(f"sym-{tag}-report.json")
        cmds = (
            Command("generate", (), fixture, f"fixture/ratfunc-qa/d{d}/{frame}", (d, frame)),
            Command("verify", ("verify", fixture, "--report", report), report,
                    f"report/ratfunc-qa/d{d}/{frame}"),
        )
        return Instance(d, tag, cmds)
    if workload == "raw-dense":
        d, k = entry
        tag = f"d{d}-S{k}"
        raw, derived, report = (path(f"raw-{tag}.json"), path(f"raw-{tag}-derived.json"),
                                path(f"raw-{tag}-report.json"))
        cmds = (
            Command("engine", ("engine", raw, "--out", derived), derived,
                    f"engine/rational/d{d}/p{RAW_POINT}/S{k}"),
            Command("verify", ("verify", derived, "--report", report), report,
                    f"report/raw/d{d}/p{RAW_POINT}/S{k}"),
        )
        return Instance(d, tag, cmds)
    d, p, frame = entry
    tag = f"d{d}-p{p}-{frame}"
    fixture, report = path(f"rat-{tag}.json"), path(f"rat-{tag}-report.json")
    q, a, b = GRID_POINTS[p]
    cmds = (
        Command("generate", ("generate", "--d", str(d), "--q", q, "--a", a, "--b", b,
                             "--basis", frame, "--out", fixture), fixture,
                f"fixture/rational/d{d}/p{p}/{frame}"),
        Command("verify", ("verify", fixture, "--report", report), report,
                f"report/rational/d{d}/p{p}/{frame}"),
    )
    return Instance(d, tag, cmds)


# -- set-up ---------------------------------------------------------------------


def conjugator(d: int, k: int):
    """The k-th nonsingular small-integer matrix of size d+1: a permutation
    matrix (the k-th for this d) times a fixed product of unit lower and unit
    upper triangular matrices with entries in {-1, 0, 1}.  Only the
    permutation changes with k, so every k gives entries of the same size."""
    from tdq.linalg import Matrix
    from tdq.scalars import rational_field

    field = rational_field()
    n = d + 1
    rng = random.Random(f"raw-dense:LU:{d}")
    lower = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(n)]
             for i in range(n)]
    perm = list(range(n))
    random.Random(f"raw-dense:P:{d}:{k}").shuffle(perm)
    perm_rows = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]

    def mat(rows):
        return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows])

    return mat(perm_rows) * mat(lower) * mat(upper)


def write_raw_inputs(work: str) -> None:
    """(A, K) of the u frame at RAW_POINT, conjugated by each ``conjugator``,
    as fixtures without parameters: the engine has to detect (q, a)."""
    from tdq import fixtures, leonard
    from tdq.params import QRacahParams
    from tdq.parser import parse_scalar
    from tdq.scalars import rational_field

    field = rational_field()
    q, a, _ = (parse_scalar(x, field) for x in GRID_POINTS[RAW_POINT])
    for d in DS["raw-dense"]:
        model = leonard.leonard_suite(QRacahParams(d, q, a), "u")
        for k in range(S_POOL):
            S = conjugator(d, k)
            S_inv = S.inverse()
            matrices = {"A": S * model.A * S_inv, "K": S * model.K * S_inv}
            out = instance("raw-dense", (d, k), work).commands[0].args[1]
            fixtures.write_fixture(out, fixtures.Fixture(field, "abstract", None, matrices))


def prepare(workload: str, work: str) -> None:
    """Field construction and input generation."""
    import tdq.cli  # noqa: F401  (every layer the commands use)
    from tdq.scalars import ratfunc_field

    if workload == "symbolic":
        ratfunc_field(("q", "a"))
    if workload == "raw-dense":
        write_raw_inputs(work)


# -- running commands -----------------------------------------------------------


def generate_symbolic(d: int, frame: str, out: str) -> None:
    """The library route of ``tdq generate`` for ratfunc(q, a), which the
    CLI cannot select (its ratfunc field always carries b)."""
    from tdq import fixtures, leonard
    from tdq.params import QRacahParams
    from tdq.scalars import ratfunc_field

    field = ratfunc_field(("q", "a"))
    params = QRacahParams(d, field.generator("q"), field.generator("a"))
    fixtures.write_fixture(out, fixtures.fixture_from_leonard(leonard.leonard_suite(params, frame)))


def run_in_process(cmd: Command, tracer=None) -> tuple[int, str]:
    """Run one command in this interpreter; returns (exit code, output)."""
    from tdq import cli

    if cmd.symbolic:
        name, call, args, kwargs = "lib.generate", generate_symbolic, (*cmd.symbolic, cmd.out), {}
    else:
        name, call, args = f"cli.{cmd.kind}", cli.main.main, ()
        kwargs = {"args": list(cmd.args), "prog_name": "tdq", "standalone_mode": False}
    captured = io.StringIO()
    with redirect_stdout(captured), redirect_stderr(captured):
        try:
            if tracer is None:
                code = call(*args, **kwargs)
            else:
                code = tracer.call(name, call, *args, **kwargs)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed command
            return 1, f"{type(exc).__name__}: {exc}"
    return (0 if code is None else code), captured.getvalue()


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("TDQ_BATTERY_FILTER", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, env: dict, log: str) -> tuple[int, float]:
    """Run a child to completion; returns (exit code, its peak RSS in MiB)."""
    with open(log, "wb") as handle:
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def cli_argv(cmd: Command, spans_out: str | None = None) -> list:
    here = os.path.dirname(os.path.abspath(__file__))
    if spans_out is None:
        return [sys.executable, "-c", CHILD_PRELUDE, *cmd.args]
    return [sys.executable, os.path.join(here, "child.py"), spans_out, *cmd.args]


# -- checking outputs -------------------------------------------------------------


def digest(cmd: Command) -> str:
    """SHA-256 of the command's output; a report's fixture path is normalised."""
    with open(cmd.out, "rb") as handle:
        data = handle.read()
    if cmd.kind == "verify":
        data = data.replace(json.dumps(cmd.args[1]).encode(), b'"<fixture>"')
    return hashlib.sha256(data).hexdigest()


def check(cmd: Command, code: int, digests: dict) -> str | None:
    """None when the command's result is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if not os.path.exists(cmd.out):
        return "no output file"
    if cmd.kind == "verify":
        try:
            with open(cmd.out, "r", encoding="utf-8") as handle:
                summary = json.load(handle)["summary"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"
        if summary != EXPECTED_SUMMARY:
            return f"report summary {summary}"
    expected = digests.get(cmd.key)
    if expected is None:
        return f"no stored digest for {cmd.key}"
    actual = digest(cmd)
    if actual != expected:
        return f"digest {actual[:12]} != stored {expected[:12]}"
    return None


def load_digests() -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "digests.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)
