from fractions import Fraction

import pytest

from tdq.params import QRacahParams
from tdq.scalars import rational_field, ratfunc_field


@pytest.fixture(scope="session")
def QF():
    return rational_field()


@pytest.fixture(scope="session")
def RF():
    return ratfunc_field(("q", "a", "b"))


@pytest.fixture(scope="session")
def RF_qa():
    return ratfunc_field(("q", "a"))


def make_params(QF, d=1, q=2, a=3, b=5):
    coerce = lambda v: QF.coerce(Fraction(v) if not isinstance(v, Fraction) else v)
    return QRacahParams(d, coerce(q), coerce(a), coerce(b) if b is not None else None)


@pytest.fixture
def params_d1(QF):
    return make_params(QF, d=1)


@pytest.fixture
def params_d2(QF):
    return make_params(QF, d=2)


def load_perfbench(name):
    """Import perfbench/<name>.py by path; the benchmark is not a package."""
    import importlib.util
    import sys
    from pathlib import Path

    key = f"perfbench_{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[key]
