import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from test_cli import SRC

# Runs in a fresh interpreter: this test process has long since imported sympy.
CHILD = textwrap.dedent("""
    import json, os, sys
    import tdq, tdq.cli
    from tdq.cli import main

    def run(*args):
        assert main(list(args), standalone_mode=False) in (None, 0), args

    def path(name):
        return os.path.join(sys.argv[1], name)

    run("generate", "--d", "2", "--q", "2", "--a", "3", "--b", "5", "--out", path("fix.json"))
    run("verify", path("fix.json"))
    run("detect", "--theta", "145/12,10/3,25/12")
    with open(path("fix.json")) as handle:
        generated = json.load(handle)["matrices"]
    # fixtures without params, so the engine finds the eigenvalues itself
    raw = {"ak": {"A": generated["A"], "K": generated["K"]},
           "pair": {"A": [["37/6", "0"], ["1", "13/6"]],
                    "Astar": [["101/10", "1"], ["0", "29/10"]]}}
    for name, matrices in raw.items():
        with open(path(f"{name}.json"), "w") as handle:
            json.dump({"format": "tdq-fixture/1", "field": {"backend": "rational"},
                       "basis": "abstract", "matrices": matrices}, handle)
        run("engine", path(f"{name}.json"), "--out", path(f"{name}-derived.json"))
        run("verify", path(f"{name}-derived.json"))
    assert "sympy" not in sys.modules, "the rational path loaded sympy"

    tdq.ratfunc_field(("q", "a"))
    assert "sympy" in sys.modules, "building a ratfunc field did not load sympy"
""")


def test_rational_path_never_loads_sympy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                          capture_output=True, text=True, check=False, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


PACKAGE = Path(SRC) / "tdq"
TRACER_ALLOWANCE = "# noqa: F401"


def _unused_imports(path):
    """(unused bindings, excepted bindings) of a module's top-level imports.

    A binding counts as used when its name occurs anywhere in the module or
    in its ``__all__``; a line marked ``# noqa: F401`` that names
    perfbench/tracer.py excepts the bindings on it."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused, excepted = [], []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used:
                continue
            line = lines[alias.lineno - 1]
            if TRACER_ALLOWANCE in line and "perfbench/tracer.py" in line:
                excepted.append(name)
            else:
                unused.append(name)
    return unused, excepted


def test_no_unused_imports():
    from conftest import load_perfbench

    required = set(load_perfbench("tracer").REQUIRED_BINDINGS)
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        unused, excepted = _unused_imports(path)
        assert not unused, f"{path.name}: unused imports {unused}"
        module = f"tdq.{path.stem}"
        stale = [name for name in excepted if (module, name) not in required]
        assert not stale, f"{path.name}: {stale} are not bindings perfbench/tracer.py requires"


def _unnamed_private_definitions(package):
    """``module: name`` for each module-level private function or class of the
    package whose name occurs nowhere in it, as a name, an attribute or an
    import, and which no decorator registers."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and not node.decorator_list and node.name not in named]


def test_no_unnamed_private_definitions():
    assert not _unnamed_private_definitions(PACKAGE)


def test_an_unnamed_private_helper_is_caught(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "scalars.py", "a") as handle:
        handle.write("\n\ndef _leftover(value):\n    return value\n")
    assert _unnamed_private_definitions(tmp_path) == ["scalars.py: _leftover"]


def _bad_exports(module):
    """Names in the module's ``__all__`` that it does not bind, or lists twice."""
    names = list(getattr(module, "__all__", ()))
    missing = [name for name in names if not hasattr(module, name)]
    repeated = sorted({name for name in names if names.count(name) > 1})
    return missing + repeated


def test_all_lists_each_bound_name_once():
    import importlib

    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        name = "tdq" if path.name == "__init__.py" else f"tdq.{path.stem}"
        module = importlib.import_module(name)
        assert not _bad_exports(module), f"{name}: bad __all__ entries {_bad_exports(module)}"


def test_a_stale_export_is_caught():
    import types

    module = types.ModuleType("stale")
    module.present = object()
    module.__all__ = ["present", "DetectionResult", "present"]
    assert _bad_exports(module) == ["DetectionResult", "present"]


LINALG = PACKAGE / "linalg.py"


def _backend_readers(source):
    """The innermost function around each read of an attribute named
    ``backend`` in the source, or ``<module>`` for a read outside any."""
    readers = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "backend":
                readers.append(owner)
            visit(child, child.name if isinstance(child, functions) else owner)
    visit(ast.parse(source), "<module>")
    return readers


def test_linalg_reads_the_backend_once():
    # the kernels ask one helper which arithmetic they run on
    assert _backend_readers(LINALG.read_text()) == ["_on_integers"]


def test_a_second_backend_read_is_caught():
    source = LINALG.read_text()
    call = "_on_integers(self.field)"
    assert source.count(call) == 1
    mutated = source.replace(call, 'self.field.backend == "rational"')
    assert _backend_readers(mutated) == ["_on_integers", "_holds"]


def _private_imports(package):
    """``module: name`` for each ``_``-prefixed name a module of the package
    imports from another module of it, at any depth of the module."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "tdq"):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    return found


def test_no_private_name_crosses_modules():
    # a module's private helpers are its own; the kernels' callers go through
    # public methods such as Subspace.maps_into
    assert not _private_imports(PACKAGE)


def test_a_private_import_is_caught(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    battery = tmp_path / "battery.py"
    source = battery.read_text()
    anchor = "from .linalg import (\n"
    assert source.count(anchor) == 1
    battery.write_text(source.replace(anchor, anchor + "    _apply,\n"))
    assert _private_imports(tmp_path) == ["battery.py: _apply"]
