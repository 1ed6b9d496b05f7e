"""Command-line front end.

Exit codes: 0 all checks passed (skips allowed), 1 mathematical failure
(identity failure, non-matching eigenvalue data, axiom failure), 2 input or
usage error.
"""

from __future__ import annotations

import json
from dataclasses import replace

import click

from .battery import VerificationReport, battery_ids, verify_battery
from .engine import OPERATOR_NAMES, EngineError, NotQRacahError, derive_suite, detect_qracah
from .fixtures import (
    Fixture,
    FixtureFormatError,
    fixture_from_leonard,
    fixture_from_suite,
    read_fixture,
    write_fixture,
    write_json,
)
from .leonard import BASES, leonard_suite
from .params import ParamValidationError, QRacahParams
from .parser import MAX_DIAMETER, ParseError, parse_scalar
from .scalars import RenderError, get_field

MATH_FAILURE = 1
USAGE_ERROR = 2


class _BadInput(ValueError):
    """A command-line value the command cannot use."""


class _Commands(click.Group):
    """Runs a command; the one place where errors become exit codes.  Bad
    input (a bad option value, a malformed fixture, a path that cannot be
    read or written, a value too long to render) exits 2, a failed
    reconstruction exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParamValidationError as exc:
            for v in exc.violations:
                click.echo(f"parameter violation: {v}", err=True)
        except (_BadInput, FixtureFormatError, RenderError) as exc:
            click.echo(f"error: {exc}", err=True)
        except EngineError as exc:
            click.echo(f"mathematical failure: {exc}", err=True)
            ctx.exit(MATH_FAILURE)
        ctx.exit(USAGE_ERROR)


@click.group(cls=_Commands)
def main():
    """Exact q-Racah tridiagonal suites: generate, verify, derive, detect."""


def _parse_scalar_flag(text: str, field, flag: str):
    try:
        return parse_scalar(text, field)
    except (ParseError, ZeroDivisionError) as exc:
        raise _BadInput(f"bad value for {flag}: {exc}") from None


@main.command()
@click.option("--d", "d", type=int, required=True, help=f"diameter (1 to {MAX_DIAMETER})")
@click.option("--q", "q_text", required=True, help="scalar literal for q")
@click.option("--a", "a_text", required=True, help="scalar literal for a")
@click.option("--b", "b_text", default=None, help="scalar literal for b (optional)")
@click.option("--basis", type=click.Choice(BASES), default="u", show_default=True)
@click.option("--backend", type=click.Choice(["rational", "ratfunc"]),
              default="rational", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def generate(d, q_text, a_text, b_text, basis, backend, out_path):
    """Emit a closed-form fixture for validated parameters."""
    field = get_field(backend)
    if d < 1:
        raise _BadInput("--d must be >= 1")
    if d > MAX_DIAMETER:
        raise _BadInput(f"--d must be <= {MAX_DIAMETER}")
    q = _parse_scalar_flag(q_text, field, "--q")
    a = _parse_scalar_flag(a_text, field, "--a")
    b = _parse_scalar_flag(b_text, field, "--b") if b_text is not None else None
    try:
        params = QRacahParams(d, q, a, b)
    except ParamValidationError:
        raise
    except ValueError as exc:  # a zero parameter
        raise _BadInput(exc) from None
    suite = leonard_suite(params, basis)
    write_fixture(out_path, fixture_from_leonard(suite))
    click.echo(f"wrote {out_path}")


def _battery_filter(battery: str):
    """The ids ``--battery`` names, or None for all of them; no id, or an
    unknown one, is a usage error."""
    if battery == "all":
        return None
    ids = [x.strip() for x in battery.split(",") if x.strip()]
    if not ids:
        raise _BadInput("--battery names no battery id")
    unknown = set(ids) - set(battery_ids())
    if unknown:
        raise _BadInput(f"unknown battery ids: {sorted(unknown)}")
    return ids


def _suite_from_fixture(fixture: Fixture):
    """The suite derived from the fixture's A with its K or A*."""
    matrices = fixture.matrices
    if "A" not in matrices:
        raise FixtureFormatError("fixture must provide the matrix A")
    if "K" not in matrices and "Astar" not in matrices:
        raise FixtureFormatError("fixture must provide K or Astar alongside A")
    return derive_suite(matrices["A"], K=matrices.get("K"), Astar=matrices.get("Astar"),
                        params=fixture.params)


def _text_table(report: VerificationReport) -> str:
    """What ``verify`` prints; the JSON report is the contract."""
    width = max((len(e.id) for e in report.entries), default=2) + 2
    lines = []
    for e in report.entries:
        marker = {"pass": "ok", "fail": "FAIL", "skipped-needs-Astar": "skip"}[e.status]
        lines.append(f"{e.id:<{width}} {marker:<5} {e.anchor}")
        if e.status == "fail" and e.witness:
            count = e.witness.get("violation_count")
            if count:
                lines.append(f"{'':<{width}} {'':<5} {count} violation(s); first witness kept in the JSON report")
            if "error" in e.witness:
                lines.append(f"{'':<{width}} {'':<5} error: {e.witness['error']}")
    counts = report.counts
    lines.append(
        f"total: {len(report.entries)}  pass: {counts['pass']}  "
        f"fail: {counts['fail']}  skipped: {counts['skipped-needs-Astar']}"
    )
    return "\n".join(lines)


@main.command()
@click.argument("fixture_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--battery", default="all", show_default=True,
              help="'all' or a comma-separated list of identity ids")
@click.option("--report", "report_path", default=None, type=click.Path(dir_okay=False),
              help="write the JSON report document here")
@click.pass_context
def verify(ctx, fixture_path, battery, report_path):
    """Derive a suite from a fixture and run the identity battery."""
    only = _battery_filter(battery)
    fixture = read_fixture(fixture_path)
    # the fixture's other operators are claims for the battery to check
    suite = replace(_suite_from_fixture(fixture), **{
        name: m for name, m in fixture.matrices.items()
        if name in OPERATOR_NAMES and name not in ("A", "K", "Astar")})
    report = verify_battery(suite, only=only)
    code = 0 if report.passed else MATH_FAILURE
    instance = {"source": fixture_path, "n": suite.n, "backend": suite.field.backend,
                **suite.params.render()}
    if report_path:
        write_json(report_path, {**report.to_dict(), "instance": instance, "exit_code": code})
    click.echo(_text_table(report))
    ctx.exit(code)


@main.command()
@click.argument("fixture_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def engine(fixture_path, out_path):
    """Derive the full suite from (A, K) or (A, A*) and emit it as a fixture."""
    suite = _suite_from_fixture(read_fixture(fixture_path))
    write_fixture(out_path, fixture_from_suite(suite))
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--theta", "theta_text", required=True,
              help="comma-separated eigenvalue literals, standard order")
@click.option("--backend", type=click.Choice(["rational", "ratfunc"]),
              default="rational", show_default=True)
@click.pass_context
def detect(ctx, theta_text, backend):
    """Recover every (q, a) matching an eigenvalue sequence."""
    field = get_field(backend)
    try:
        thetas = [parse_scalar(piece.strip(), field)
                  for piece in theta_text.split(",") if piece.strip()]
    except (ParseError, ZeroDivisionError) as exc:
        raise _BadInput(f"bad --theta: {exc}") from None
    try:
        solutions = detect_qracah(thetas)
    except NotQRacahError as exc:
        click.echo(json.dumps({"status": "not-q-racah", "reason": exc.reason,
                               "message": str(exc)}, indent=2, sort_keys=True))
        ctx.exit(MATH_FAILURE)
    except ValueError as exc:
        raise _BadInput(exc) from None
    doc = {
        "status": "ok",
        "solutions": [[q.render(), a.render()] for q, a in solutions],
        "representative": [x.render() for x in solutions[0]],
        "note": "the solution set is closed under (q, a) -> (1/q, 1/a)",
    }
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
