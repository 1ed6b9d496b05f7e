"""q-integers, q-factorials and q-exponentials of nilpotent matrices.

The symmetric q-integer [n] = (q^n - q^-n)/(q - q^-1) is computed as the
geometric sum q^(n-1) + q^(n-3) + ... + q^(1-n), which needs no division and
is valid for every nonzero q.  It is the same at q and at q^-1, so
exp_(q^-1) is :func:`q_exp` at base q^-1.  :func:`q_exp` sums over powers
the caller already holds, so one list of a matrix's powers serves every
multiple of it and both bases.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .linalg import Matrix, power_series
from .scalars import Scalar

__all__ = ["q_int", "q_fact", "q_exp"]


def q_int(n: int, q: Scalar) -> Scalar:
    if n == 0:
        return q.field.zero
    if n < 0:
        return -q_int(-n, q)
    total = q.field.zero
    for k in range(n):
        total = total + q ** (n - 1 - 2 * k)
    return total


def q_fact(n: int, q: Scalar) -> Scalar:
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    result = q.field.one
    for i in range(1, n + 1):
        result = result * q_int(i, q)
    return result


def q_exp(x: Scalar, powers: Sequence[Matrix], q: Scalar) -> Matrix:
    """exp_q(x T) = sum_n x^n q^C(n,2)/[n]! T^n, from powers = (I, T, T^2, ...)
    up to the first zero one; ``ValueError`` when none is zero."""
    index = next((k for k, p in enumerate(powers) if p.is_zero()), None)
    if index is None:
        raise ValueError("q_exp needs a nilpotent matrix")
    coeffs = [x ** n * q ** comb(n, 2) / q_fact(n, q) for n in range(index)]
    return power_series(coeffs, powers)
