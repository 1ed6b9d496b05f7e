"""Command-line front end.

Exit codes: 0 all checks passed (skips allowed), 1 mathematical failure
(identity failure, non-matching eigenvalue data, axiom failure), 2 input or
usage error.
"""

from __future__ import annotations

import json
import os

import click

from .battery import BATTERY_FILTER_ENV, battery_ids, verify_battery
from .engine import EngineError, NotQRacahError, derive_suite, detect_qracah
from .fixtures import (
    Fixture,
    FixtureFormatError,
    OPERATOR_NAMES,
    fixture_from_leonard,
    fixture_from_suite,
    read_fixture,
    write_fixture,
    write_json,
)
from .leonard import BASES, leonard_suite
from .params import QRacahParams, validate_params
from .parser import ParseError, parse_scalar
from .reports import build_report_document, exit_code_for, text_table
from .scalars import get_field

MATH_FAILURE = 1
USAGE_ERROR = 2


@click.group()
def main():
    """Exact q-Racah tridiagonal suites: generate, verify, derive, detect."""


def _parse_scalar_flag(ctx, text: str, field, flag: str):
    try:
        return parse_scalar(text, field)
    except (ParseError, ZeroDivisionError) as exc:
        click.echo(f"error: bad value for {flag}: {exc}", err=True)
        ctx.exit(USAGE_ERROR)


@main.command()
@click.option("--d", "d", type=int, required=True, help="diameter (>= 1)")
@click.option("--q", "q_text", required=True, help="scalar literal for q")
@click.option("--a", "a_text", required=True, help="scalar literal for a")
@click.option("--b", "b_text", default=None, help="scalar literal for b (optional)")
@click.option("--basis", type=click.Choice(BASES), default="u", show_default=True)
@click.option("--backend", type=click.Choice(["rational", "ratfunc"]),
              default="rational", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.pass_context
def generate(ctx, d, q_text, a_text, b_text, basis, backend, out_path):
    """Emit a closed-form fixture for validated parameters."""
    field = get_field(backend)
    if d < 1:
        click.echo("error: --d must be >= 1", err=True)
        ctx.exit(USAGE_ERROR)
    q = _parse_scalar_flag(ctx, q_text, field, "--q")
    a = _parse_scalar_flag(ctx, a_text, field, "--a")
    b = _parse_scalar_flag(ctx, b_text, field, "--b") if b_text is not None else None
    violations = validate_params(d, q, a, b)
    if violations:
        for v in violations:
            click.echo(f"parameter violation: {v}", err=True)
        ctx.exit(USAGE_ERROR)
    params = QRacahParams(d, q, a, b)
    suite = leonard_suite(params, basis)
    write_fixture(out_path, fixture_from_leonard(suite))
    click.echo(f"wrote {out_path}")


def _battery_filter(ctx, battery: str):
    """The ids to run; the environment filter overrides the flag, as in
    :func:`~tdq.battery.verify_battery`, so it is the one checked here."""
    env_filter = os.environ.get(BATTERY_FILTER_ENV)
    if not env_filter and battery == "all":
        return None
    ids = [x.strip() for x in (env_filter or battery).split(",") if x.strip()]
    unknown = set(ids) - set(battery_ids())
    if unknown:
        click.echo(f"error: unknown battery ids: {sorted(unknown)}", err=True)
        ctx.exit(USAGE_ERROR)
    return ids


def _suite_from_fixture(fixture: Fixture):
    matrices = fixture.matrices
    if "A" not in matrices:
        raise FixtureFormatError("fixture must provide the matrix A")
    if "K" not in matrices and "Astar" not in matrices:
        raise FixtureFormatError("fixture must provide K or Astar alongside A")
    overrides = {
        name: matrices[name]
        for name in OPERATOR_NAMES
        if name in matrices and name not in ("A", "K", "Astar")
    }
    return derive_suite(
        matrices["A"],
        K=matrices.get("K"),
        Astar=matrices.get("Astar"),
        params=fixture.params,
        overrides=overrides,
    )


@main.command()
@click.argument("fixture_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--battery", default="all", show_default=True,
              help="'all' or a comma-separated list of identity ids")
@click.option("--report", "report_path", default=None, type=click.Path(dir_okay=False),
              help="write the JSON report document here")
@click.pass_context
def verify(ctx, fixture_path, battery, report_path):
    """Derive a suite from a fixture and run the identity battery."""
    only = _battery_filter(ctx, battery)
    try:
        fixture = read_fixture(fixture_path)
        suite = _suite_from_fixture(fixture)
    except FixtureFormatError as exc:
        click.echo(f"error: {exc}", err=True)
        ctx.exit(USAGE_ERROR)
    except EngineError as exc:
        click.echo(f"mathematical failure: {exc}", err=True)
        ctx.exit(MATH_FAILURE)
    report = verify_battery(suite, only=only)
    instance = {
        "source": fixture_path,
        "n": suite.n,
        "d": suite.d,
        "backend": suite.field.backend,
        "q": suite.q.render(),
        "a": suite.a.render(),
    }
    if suite.params.b is not None:
        instance["b"] = suite.params.b.render()
    doc = build_report_document(report, instance)
    if report_path:
        write_json(report_path, doc)
    click.echo(text_table(report))
    ctx.exit(exit_code_for(report))


@main.command()
@click.argument("fixture_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.pass_context
def engine(ctx, fixture_path, out_path):
    """Derive the full suite from (A, K) or (A, A*) and emit it as a fixture."""
    try:
        fixture = read_fixture(fixture_path)
        matrices = fixture.matrices
        if "A" not in matrices or ("K" not in matrices and "Astar" not in matrices):
            raise FixtureFormatError("fixture must provide A plus K or Astar")
        suite = derive_suite(matrices["A"], K=matrices.get("K"),
                             Astar=matrices.get("Astar"), params=fixture.params)
    except FixtureFormatError as exc:
        click.echo(f"error: {exc}", err=True)
        ctx.exit(USAGE_ERROR)
    except EngineError as exc:
        click.echo(f"mathematical failure: {exc}", err=True)
        ctx.exit(MATH_FAILURE)
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
        click.echo(f"error: bad --theta: {exc}", err=True)
        ctx.exit(USAGE_ERROR)
    if len(thetas) < 2:
        click.echo("error: need at least two eigenvalues", err=True)
        ctx.exit(USAGE_ERROR)
    try:
        result = detect_qracah(thetas)
    except NotQRacahError as exc:
        click.echo(json.dumps({"status": "not-q-racah", "reason": exc.reason,
                               "message": str(exc)}, indent=2, sort_keys=True))
        ctx.exit(MATH_FAILURE)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        ctx.exit(USAGE_ERROR)
    doc = {
        "status": "ok",
        "solutions": [[q.render(), a.render()] for q, a in result.solutions],
        "representative": [result.representative[0].render(),
                           result.representative[1].render()],
        "note": "the solution set is closed under (q, a) -> (1/q, 1/a)",
    }
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
