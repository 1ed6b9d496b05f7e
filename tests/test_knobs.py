"""The inventory of what a user can set: the options of each ``tdq`` command,
the parameters of the library entry points and of the q-exponentials
(exp_(q^-1) is a base, not a variant flag), and no environment variable.  A
change that adds a knob edits this inventory in the same diff."""

import ast
import inspect
from pathlib import Path

import click

from test_cli import SRC
from tdq import derive_suite, leonard_suite, verify_battery
from tdq.cli import main
from tdq.engine import PsiSeries
from tdq.leonard import change_basis, exp_psi_matrix, operator_matrix, transition_matrix
from tdq.qcalc import q_exp

OPTIONS = {
    "detect": ["--backend", "--theta"],
    "engine": ["--out"],
    "generate": ["--a", "--b", "--backend", "--basis", "--d", "--out", "--q"],
    "verify": ["--battery", "--report"],
}
PARAMETERS = {
    derive_suite: ["A", "K", "Astar", "params"],
    verify_battery: ["suite", "only"],
    leonard_suite: ["params", "basis"],
    q_exp: ["x", "powers", "q"],
    PsiSeries.exp: ["self", "x", "base"],
    exp_psi_matrix: ["params", "x", "base"],
    operator_matrix: ["kind", "basis", "params"],
    transition_matrix: ["frm", "to", "params"],
    change_basis: ["mat", "frm", "to", "params"],
}
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_command_options():
    assert not main.params
    found = {name: sorted(opt for p in command.params if isinstance(p, click.Option)
                          for opt in p.opts + p.secondary_opts)
             for name, command in main.commands.items()}
    assert found == OPTIONS
    assert all(p.envvar is None for command in main.commands.values() for p in command.params)


def test_library_parameters():
    found = {fn: list(inspect.signature(fn).parameters) for fn in PARAMETERS}
    assert found == PARAMETERS


def _environment_reads(package):
    """``module:line`` for each use of os.environ or getenv in the package."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in ENVIRONMENT_READS:
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_package_reads_no_environment():
    assert _environment_reads(Path(SRC) / "tdq") == []


def test_an_environment_read_is_caught(tmp_path):
    (tmp_path / "battery.py").write_text("import os\n\nLIMIT = os.environ.get('LIMIT')\n")
    (tmp_path / "cli.py").write_text("from os import getenv\n")
    assert _environment_reads(tmp_path) == ["battery.py:3", "cli.py:1"]
