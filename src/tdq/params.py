"""Parameter tuples (d, q, a, b) and their non-degeneracy constraints.

A parameter tuple is admissible when q^4 != 1, q^(2i) != 1 for 1 <= i <= d,
and neither a^2 nor b^2 equals q^(2k) for any k with |k| <= d-1.  Violations
are returned as data rather than raised, so callers can report the complete
list.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional, Sequence

from .scalars import Scalar

__all__ = ["QRacahParams", "ParamViolation", "ParamValidationError", "validate_params",
           "theta_sequence"]


@dataclass(frozen=True)
class ParamViolation:
    code: str
    message: str

    def __str__(self):
        return self.message


class ParamValidationError(ValueError):
    def __init__(self, violations: Sequence[ParamViolation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = tuple(violations)


def theta_sequence(x: Scalar, q: Scalar, d: int) -> tuple[Scalar, ...]:
    """x q^(d-2i) + x^-1 q^(2i-d) for i = 0..d: the eigenvalue sequence of
    parameter x (a for the first operator, b for the dual one)."""
    return tuple(x * q ** (d - 2 * i) + x ** -1 * q ** (2 * i - d) for i in range(d + 1))


@dataclass(frozen=True)
class QRacahParams:
    """Validated parameters; b may be absent when no dual operator is used.

    Values derived from the parameters (the eigenvalue sequences and the
    closed forms of :mod:`tdq.leonard`) are kept in a private per-instance
    memo, so they are computed once and released with the instance.
    """

    d: int
    q: Scalar
    a: Scalar
    b: Optional[Scalar] = None
    _memo: dict = dataclass_field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        violations = validate_params(self.d, self.q, self.a, self.b)
        if violations:
            raise ParamValidationError(violations)

    def _cached(self, key, build: Callable[[], object]):
        """build(), computed once for this instance under ``key``."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def field(self):
        return self.q.field

    @property
    def thetas(self) -> tuple[Scalar, ...]:
        """theta_0, ..., theta_d."""
        return self._sequence("theta", self.a)

    def theta(self, i: int) -> Scalar:
        return self._eigenvalue("theta", self.a, i)

    def theta_star(self, i: int) -> Scalar:
        if self.b is None:
            raise ValueError("dual eigenvalues need the parameter b")
        return self._eigenvalue("theta_star", self.b, i)

    def _eigenvalue(self, key: str, x: Scalar, i: int) -> Scalar:
        if not 0 <= i <= self.d:
            raise IndexError(f"eigenvalue index {i} is outside 0..{self.d}")
        return self._sequence(key, x)[i]

    def _sequence(self, key: str, x: Scalar) -> tuple[Scalar, ...]:
        return self._cached(key, lambda: theta_sequence(x, self.q, self.d))

    def render(self) -> dict:
        """{"d", "q", "a"} and "b" when known, scalars rendered: the params
        block of a fixture and the parameter fields of a report."""
        out = {"d": self.d, "q": self.q.render(), "a": self.a.render()}
        if self.b is not None:
            out["b"] = self.b.render()
        return out

    def with_b(self, b: Scalar) -> "QRacahParams":
        return QRacahParams(self.d, self.q, self.a, b)

    def downarrow(self) -> "QRacahParams":
        """Parameters of the system with the eigenspace ordering of the first
        operator reversed: a maps to its inverse, q and b are unchanged."""
        return QRacahParams(self.d, self.q, self.a ** -1, self.b)


def validate_params(d: int, q: Scalar, a: Scalar, b: Optional[Scalar] = None) -> list[ParamViolation]:
    """Check the admissibility constraints, returning every violation found."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("the diameter d must be an integer >= 1")
    for name, value in (("q", q), ("a", a)) + ((("b", b),) if b is not None else ()):
        if value.is_zero():
            raise ValueError(f"parameter {name} must be nonzero")

    violations: list[ParamViolation] = []
    one = q.field.one

    if d < 2 and (q ** 4 - one).is_zero():
        violations.append(ParamViolation("q4", "q^4 = 1"))
    for i in range(1, d + 1):
        if (q ** (2 * i) - one).is_zero():
            code = "q4" if i == 2 else "q2i"
            violations.append(ParamViolation(code, f"q^{2 * i} = 1"))

    forbidden = [q ** (2 * k) for k in range(1 - d, d)]
    for name, value in (("a", a),) + ((("b", b),) if b is not None else ()):
        square = value * value
        for k, power in zip(range(1 - d, d), forbidden):
            if (square - power).is_zero():
                violations.append(
                    ParamViolation(
                        f"{name}2",
                        f"{name}^2 = q^{2 * k} is in the forbidden list "
                        f"q^{2 * d - 2}, ..., q^{2 - 2 * d}",
                    )
                )
    return violations
