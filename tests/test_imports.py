import os
import subprocess
import sys
import textwrap

from test_cli import SRC

# Runs in a fresh interpreter: this test process has long since imported sympy.
CHILD = textwrap.dedent("""
    import sys
    import tdq, tdq.cli
    from tdq.cli import main

    out = sys.argv[1]
    assert main(["generate", "--d", "2", "--q", "2", "--a", "3", "--b", "5",
                 "--out", out], standalone_mode=False) in (None, 0)
    assert main(["verify", out], standalone_mode=False) == 0
    assert main(["detect", "--theta", "145/12,10/3,25/12"], standalone_mode=False) in (None, 0)
    assert "sympy" not in sys.modules, "the rational path loaded sympy"

    tdq.ratfunc_field(("q", "a"))
    assert "sympy" in sys.modules, "building a ratfunc field did not load sympy"
""")


def test_rational_path_never_loads_sympy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "fix.json")],
                          capture_output=True, text=True, check=False, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
