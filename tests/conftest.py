from fractions import Fraction

import pytest

from tdq.linalg import Matrix
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


def dual_operator(params, c):
    """A* of the q-Racah Leonard pair in the u frame, where A is lower
    bidiagonal: upper bidiagonal, with theta*_0, ..., theta*_d on the
    diagonal and the split sequence phi_1, ..., phi_d above it, where
    phi_i = ab q^(d+1) (q^i - q^-i)(q^(i-d-1) - q^(d-i+1))
            (q^-i - c q^(i-d-1)/(ab))(q^-i - q^(i-d-1)/(abc)).
    This is Terwilliger's q-Racah parameter array (Des. Codes Cryptogr. 34,
    2005) with a and b inverted, since theta_i here is his with a and a^-1
    exchanged."""
    d, q, a, b = params.d, params.q, params.a, params.b
    field = params.field

    def phi(i):
        return (a * b * q ** (d + 1) * (q ** i - q ** -i) * (q ** (i - d - 1) - q ** (d - i + 1))
                * (q ** -i - c * q ** (i - d - 1) / (a * b))
                * (q ** -i - q ** (i - d - 1) / (a * b * c)))

    return Matrix.from_rows(field, [
        [params.theta_star(r) if col == r else phi(col) if col == r + 1 else field.zero
         for col in range(d + 1)] for r in range(d + 1)])


def conjugator(n):
    """S = L U for unit triangular L and U with small integer entries."""
    field = rational_field()
    L = Matrix.from_rows(field, [[(r + 2 * c) % 3 - 1 if c < r else int(c == r)
                                  for c in range(n)] for r in range(n)])
    U = Matrix.from_rows(field, [[(2 * r + c) % 3 - 1 if c > r else int(c == r)
                                  for c in range(n)] for r in range(n)])
    return L * U


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


def assert_split_identities(split):
    """The flag sum identities that ``engine._split`` derives from its checks
    rather than checking: on a split (a ``SplitData`` or a suite) with
    E-flag_i = E_0 V + ... + E_i V, E-tail_i = E_i V + ... + E_d V and so on,
    E-tail_i = U-tail_i, E-flag_i = U-dd-tail_(d-i), U-flag_i = U-dd-flag_i,
    and E*-flag_i = U-flag_i when E*V is known."""
    U, Udd, EV, d = split.U, split.Udd, split.EV, split.params.d
    assert EV.tails == U.tails
    assert EV.flags == tuple(Udd.tails[d - i] for i in range(d + 1))
    assert U.flags == Udd.flags
    if split.EstarV is not None:
        assert split.EstarV.flags == U.flags
