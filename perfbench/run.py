"""Benchmark of the tdq generate -> verify pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

One run sets up the workload's inputs from the seed, then repeats passes over
its command list until ``--seconds`` are used, checking every output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it adds a
traced pass and isolated layer timings and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and the metric-to-layer map.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# gated end-to-end metrics (BENCHMARK.json) and the ones only printed
END_TO_END = {"setup_s": "s", "pass_cal_s": "s", "verify_cal_s": "s", "peak_rss_mb": "MiB"}
PRINTED = {"setup_s": "s", "setup_wall_s": "s", "pass_s": "s", "pass_cal_s": "s", "generate_s": "s",
           "verify_s": "s", "verify_cal_s": "s", "engine_s": "s", "host_slowdown": "ratio",
           "peak_rss_mb": "MiB", "fail_ratio": "ratio"}
INSTANCE_DS = (1, 2, 3, 4, 6, 9, 10)
SETUP_REPS = 3  # fresh processes whose set-up is timed

# Calibration: a fixed pure-Python workload that never touches tdq, timed
# before and after every command.  The host this benchmark was built on is a
# shared VM whose speed swings by 30% or more for tens of seconds at a time;
# the calibration time swings with it.  A command's calibrated time is its
# wall time times CAL_REF over the mean of the two calibration times around
# it, i.e. its wall time at the host speed where the calibration takes
# CAL_REF seconds (about the fastest that host ran).
CAL_REF = 0.020
_CAL_MATRIX = [[Fraction(7 * i + j + 1, j + 2) for j in range(8)] for i in range(8)]


def calibrate() -> float:
    """Seconds the calibration workload takes now.  The collector is off
    while it runs, so a large heap left by tdq cannot slow it down."""
    m = _CAL_MATRIX
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            [[sum(m[i][k] * m[k][j] for k in range(8)) for j in range(8)] for i in range(8)]
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return time.perf_counter() - start
    finally:
        gc.enable()


def _source_or_exit() -> None:
    """Put the checkout's ``src`` first on the import path, or stop."""
    if not os.path.isfile(os.path.join(SRC, "tdq", "__init__.py")):
        print(f"error: no tdq sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    os.environ.pop("TDQ_BATTERY_FILTER", None)


def environment() -> dict:
    import importlib.metadata
    import importlib.util
    import platform

    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


class Run:
    """One workload run: inputs, passes, checks and metrics."""

    def __init__(self, workload: str, seed: int, work: str):
        import workloads

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.work = work
        self.in_process = workload != "cli-cold"
        workloads.prepare(workload, work)
        self.instances = self.pass_instances(0)
        self.digests = workloads.load_digests()
        self.env = workloads.child_env(ROOT)
        self.child_rss = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: dict[str, str] = {}  # output of in-process commands that failed
        if not self.in_process:  # compile the bytecode the children will load
            subprocess.run([sys.executable, "-c", "import tdq.cli"], env=self.env,
                           check=True, timeout=120)

    def pass_instances(self, k: int) -> list:
        return [self.w.instance(self.workload, e, self.work)
                for e in self.w.choices(self.workload, self.seed, k)]

    def _run(self, cmd, tracer) -> int:
        if self.in_process:
            code, output = self.w.run_in_process(cmd, tracer)
            if code != 0:
                self.errors[cmd.key] = " ".join(output.split())[-300:]
            return code
        log = os.path.join(self.work, "child.log")
        if tracer is None:
            code, rss = self.w.run_child(self.w.cli_argv(cmd), self.env, log)
        else:
            spans_out = os.path.join(self.work, "child-spans.json")
            idx = tracer.open("bench.child")
            try:
                code, rss = self.w.run_child(self.w.cli_argv(cmd, spans_out), self.env, log)
            finally:
                tracer.close(idx)
            with open(spans_out, "r", encoding="utf-8") as handle:
                recorded = json.load(handle)
            tracer.adopt(recorded["spans"], recorded["counts"])
        self.child_rss = max(self.child_rss, rss)
        return code

    def one_pass(self, k: int = 0, tracer=None) -> dict:
        """Run every command of pass k once, timing each and calibrating the
        host speed around each; check every output afterwards."""
        self.instances = self.pass_instances(k)
        gc.collect()
        raw = {"generate": 0.0, "verify": 0.0, "engine": 0.0}
        cal = dict.fromkeys(raw, 0.0)
        per_d: dict[int, list] = {}
        calibrations = [calibrate()]
        results = []
        for n, inst in enumerate(self.instances):
            if tracer is not None:
                tracer.instance = n
                span = tracer.open("bench.instance")
            t_inst = 0.0
            for cmd in inst.commands:
                if os.path.exists(cmd.out):  # a stale output must not pass the check
                    os.remove(cmd.out)
                t = time.perf_counter()
                code = self._run(cmd, tracer)
                elapsed = time.perf_counter() - t
                calibrations.append(calibrate())
                raw[cmd.kind] += elapsed
                cal[cmd.kind] += elapsed * 2 * CAL_REF / (calibrations[-2] + calibrations[-1])
                t_inst += elapsed
                results.append((cmd, code))
            per_d.setdefault(inst.d, []).append(t_inst)
            if tracer is not None:
                tracer.close(span)
        for cmd, code in results:
            self.attempted += 1
            problem = self.w.check(cmd, code, self.digests)
            if problem is not None:
                detail = self.errors.get(cmd.key, "")
                self.failures.append(f"{cmd.key}: {problem} {detail}".rstrip())
        return {"pass_s": sum(raw.values()), "pass_cal_s": sum(cal.values()),
                **{f"{kind}_s": v for kind, v in raw.items()},
                "verify_cal_s": cal["verify"],
                "host_slowdown": statistics.median(calibrations) / CAL_REF,
                "per_d": per_d}

    def passes(self, seconds: float) -> list[dict]:
        """Passes until ``seconds`` are used: another pass starts when it is
        expected to end at most half a pass after the budget, so that runs
        last ``seconds`` on average."""
        out, walls = [], []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            out.append(self.one_pass(len(out)))
            walls.append(time.perf_counter() - t)
            if time.perf_counter() - start + statistics.median(walls) / 2 > seconds:
                return out

    def peak_rss_mb(self) -> float:
        if self.in_process:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self.child_rss

    def isolation_fixture(self) -> str:
        """The verified fixture of the largest instance up to ISOLATED_MAX_D."""
        limit = self.w.ISOLATED_MAX_D[self.workload]
        inst = max((i for i in self.instances if i.d <= limit), key=lambda i: i.d)
        return next(c for c in inst.commands if c.kind == "verify").args[1]


def setup_time(args) -> tuple[float, float]:
    """Median set-up time of SETUP_REPS fresh ``--setup-only`` processes, as
    (calibrated, wall).  Each process reports the time from its first line to
    the end of its set-up; the calibrations around it give the host speed."""
    calibrated, wall = [], []
    before = calibrate()
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=170)
        after = calibrate()
        wall.append(float(done.stdout.strip().splitlines()[-1]))
        calibrated.append(wall[-1] * 2 * CAL_REF / (before + after))
        before = after
    return statistics.median(calibrated), statistics.median(wall)


def traced_metrics(run: Run, untraced: list[dict]) -> tuple[dict, list[str]]:
    import layers
    import tracer as spans

    plain = run.one_pass(0)  # the traced pass's inputs, untraced, just before it
    tracer = spans.Tracer()
    if run.in_process:
        tracer.install()
    try:
        problems = tracer.unpatched() if run.in_process else []
        traced = run.one_pass(0, tracer)
    finally:
        tracer.uninstall()
    counts = tracer.snapshot_counts()
    generates = any(c.kind == "generate" for i in run.instances for c in i.commands)
    problems += spans.coverage_problems(tracer.spans, counts, generates)
    metrics = spans.layer_metrics(tracer.spans, counts)

    suite = layers.suite_from_fixture(run.isolation_fixture())
    metrics.update(layers.scalar_timings(suite))
    metrics.update(layers.linalg_timings(suite))
    metrics.update(layers.battery_timings(suite))
    metrics["cli.import_s"] = layers.cli_import_time(run.env)
    for d in INSTANCE_DS:
        values = [statistics.mean(p["per_d"].get(d, [0.0])) for p in untraced]
        metrics[f"cli.instance_s.d{d}"] = statistics.median(values)
    metrics["trace.overhead_s"] = traced["pass_cal_s"] - plain["pass_cal_s"]
    os.makedirs(os.path.join(HERE, ".traces"), exist_ok=True)
    spans.dump(os.path.join(HERE, ".traces", f"{run.workload}.json"), tracer.spans, counts)
    return metrics, problems


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def run_workload(args) -> int:
    _source_or_exit()
    sys.path.insert(0, HERE)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, ".work"))
    try:
        run = Run(args.workload, args.seed, work)
        if args.setup_only:
            print(time.perf_counter() - STARTED)
            return 0
        untraced = run.passes(args.seconds)
        print(f"workload {args.workload} seed {args.seed}: pass 0 runs "
              f"{[i.label for i in run.pass_instances(0)]}; {len(untraced)} passes of "
              f"{[round(p['pass_s'], 3) for p in untraced]} s")
        problems: list[str] = []
        if args.trace:
            metrics, problems = traced_metrics(run, untraced)
            report = {k: (v, unit_of(k)) for k, v in metrics.items()}
            for name, (value, unit) in report.items():
                print(f"  {name:<40} {value:.6g} {unit}")
            print(f"  tracing overhead: {metrics['trace.overhead_s']:.3f} s "
                  f"(calibrated time of the traced pass minus the same pass untraced)")
        else:
            setup_s, setup_wall_s = setup_time(args)
            values = {
                "setup_s": setup_s,
                "setup_wall_s": setup_wall_s,
                **{k: statistics.median(p[k] for p in untraced)
                   for k in ("pass_s", "pass_cal_s", "generate_s", "verify_s",
                             "verify_cal_s", "engine_s", "host_slowdown")},
                "peak_rss_mb": run.peak_rss_mb(),
                "fail_ratio": len(run.failures) / run.attempted,
            }
            kinds = {c.kind + "_s" for i in run.instances for c in i.commands}
            for name, unit in PRINTED.items():
                if name in ("generate_s", "engine_s") and name not in kinds:
                    continue
                extra = (f"  ({len(run.failures)} of {run.attempted} failed)"
                         if name == "fail_ratio" else "")
                print(f"  {name:<14} {values[name]:.6g} {unit}{extra}")
            report = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in run.failures + problems:
        print(f"  FAILED {line}")
    print("env " + json.dumps(environment(), sort_keys=True))
    correct = not run.failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    import workloads

    _source_or_exit()
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            status = 1
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return status


def main() -> int:
    sys.path.insert(0, HERE)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
