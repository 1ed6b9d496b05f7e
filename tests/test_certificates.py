"""The battery's certificates against the computations they stand in for.

Five items first try a certificate that proves their subspace equalities
from spaces the suite already holds, and compute kernels, images, tails or
sums only when a step of it fails.  With ``battery._proved`` patched to
reject every certificate, each item runs that computation alone, as the
battery did before the certificates.  On derived suites with one operator
entry raised by 1, two spaces of a decomposition swapped, or an eigenspace
widened to the whole space, both routes must give the same witnesses, or
raise the same error.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from tdq import battery, engine, leonard
from tdq.linalg import Matrix, Subspace
from tdq.params import QRacahParams
from tdq.scalars import rational_field, ratfunc_field

from conftest import make_params

CERTIFIED = ("eigenflag_tails", "kb_eigenspaces", "delta_flag_reversal", "m_spectrum",
             "minv_action_ev")
ITEMS = {item_id: fn for item_id, _, _, fn in battery._REGISTRY}
BUMPED = ("K", "B", "M", "Minv", "Delta", "Deltainv")
SWAPPED = ("U", "Udd", "W", "EV")


@lru_cache(maxsize=None)
def derived(backend, d, frame):
    if backend == "rational":
        p = make_params(rational_field(), d=d, b=None)
    else:
        field = ratfunc_field(("q", "a"))
        p = QRacahParams(d, field.generator("q"), field.generator("a"))
    ls = leonard.leonard_suite(p, frame)
    return engine.derive_suite(ls.A, K=ls.K, params=p)


def _bumped(m, r, c):
    entries = list(m.entries)
    entries[r * m.cols + c] = entries[r * m.cols + c] + 1
    return Matrix(m.field, m.rows, m.cols, entries)


def _swapped(spaces, i, j):
    out = list(spaces)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _variants(suite):
    """The suite, then one claim each: an operator entry (r, c), r and c in
    {0, 1, n - 1}, raised by 1, spaces i and j of a decomposition swapped,
    Delta = 0 (which maps every space into every other), E_0V or E_dV
    widened to the whole space (E-tails or E-flags that hold the U-spaces
    but are larger, and for E_0V, dim E-tail_i != dim E-flag_(d-i) with
    Delta E_jV inside E-flag_(d-j)), and each widening with an M^-1 entry
    raised, where EV is not direct."""
    n, d = suite.n, suite.d
    yield "as derived", suite
    yield "Delta = 0", replace(suite, Delta=Matrix.zero(suite.field, n))
    whole = Subspace.from_vectors(suite.field, n, [suite.I.row(i) for i in range(n)])
    widened = {"E_0V = V": (whole,) + tuple(suite.EV[1:]),
               "E_dV = V": tuple(suite.EV[:d]) + (whole,)}
    for label, ev in widened.items():
        yield label, replace(suite, EV=ev)
        # EV no longer direct, and M^-1 sends E_2V out of E_1V + E_2V + E_3V
        # (d = 4, in u or udd) but into the flag or tail EV still carries
        yield f"{label}, Minv[1,{n - 1}] + 1", replace(
            suite, EV=ev, Minv=_bumped(suite.Minv, 1, n - 1))
    for name in BUMPED:
        for r, c in sorted({(r, c) for r in (0, 1, n - 1) for c in (0, 1, n - 1)}):
            yield f"{name}[{r},{c}] + 1", replace(suite, **{name: _bumped(getattr(suite, name), r, c)})
    for name in SWAPPED:
        for i, j in sorted({(0, 1), (0, d), (d - 1, d)}):
            yield f"{name} {i}<->{j}", replace(suite, **{name: _swapped(getattr(suite, name), i, j)})


def _outcome(fn, suite, certify):
    """The item's witnesses, or the error it raises; with ``certify`` false,
    every certificate is rejected, so the item runs its computation alone."""
    with pytest.MonkeyPatch.context() as mp:
        if not certify:
            mp.setattr(battery, "_proved", lambda _: False)
        try:
            return fn(suite)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"


CASES = [("rational", d, frame) for d in (2, 3, 4) for frame in leonard.BASES]
CASES += [("ratfunc", 2, frame) for frame in leonard.BASES]


@pytest.mark.parametrize("backend,d,frame", CASES, ids=["-".join(map(str, c)) for c in CASES])
def test_certificate_first_equals_the_computation(backend, d, frame):
    failing = set()
    for label, suite in _variants(derived(backend, d, frame)):
        for item in CERTIFIED:
            first = _outcome(ITEMS[item], suite, certify=True)
            assert first == _outcome(ITEMS[item], suite, certify=False), (label, item)
            if first:
                failing.add(item)
    # every item fails on some claim, so both routes are compared on failures
    assert failing == set(CERTIFIED)


@pytest.mark.parametrize("frame", leonard.BASES)
def test_derived_suites_are_certified(frame, monkeypatch):
    # the certificates hold on a derived suite: no eigenspace, image or
    # three-space sum is computed, and no tail of U or U-dd is built
    suite = derived.__wrapped__("rational", 3, frame)
    calls = []
    for owner, name in ((battery, "eigenspace"), (battery, "subspace_sum"), (Subspace, "image")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    report = battery.verify_battery(suite, only=CERTIFIED)
    assert report.passed
    coordinate_tails = frame == "u"  # delta_flag_reversal computes its images there
    assert calls == ["image"] * (suite.d + 1 if coordinate_tails else 0)
    assert "tails" not in vars(suite.U) and "tails" not in vars(suite.Udd)
