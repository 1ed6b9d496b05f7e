"""q-integers, q-factorials and q-exponentials of nilpotent matrices.

The symmetric q-integer [n] = (q^n - q^-n)/(q - q^-1) is computed as the
geometric sum q^(n-1) + q^(n-3) + ... + q^(1-n), one running term that starts
at q^(n-1) and is multiplied by q^-2 at each step; it needs no division and
is valid for every nonzero q.  The q-factorial [n]! multiplies [1], ..., [n]
built by the recurrence [i+1] = q [i] + q^-i from [2] = q + q^-1, so it
takes O(n) field operations.  Both are the same at q and at q^-1, so
exp_(q^-1) is :func:`q_exp` at base q^-1.  :func:`q_exp` builds each
x^n q^C(n,2) from the last by one running product and sums over powers the
caller already holds, so one list of a matrix's powers serves every multiple
of it and both bases.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import Matrix, power_series
from .scalars import Scalar

__all__ = ["q_int", "q_fact", "q_exp"]


def q_int(n: int, q: Scalar) -> Scalar:
    if n == 0:
        return q.field.zero
    if n < 0:
        return -q_int(-n, q)
    term = total = q ** (n - 1)
    step = q ** -2
    for _ in range(n - 1):
        term = term * step
        total = total + term
    return total


def q_fact(n: int, q: Scalar) -> Scalar:
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    if n < 2:
        return q.field.one
    qinv = q ** -1
    result = current = q + qinv  # [i]! and [i] at i = 2
    low = qinv  # q^(1-i)
    for _ in range(n - 2):  # [i+1] = q [i] + q^-i
        low = low * qinv
        current = q * current + low
        result = result * current
    return result


def q_exp(x: Scalar, powers: Sequence[Matrix], q: Scalar) -> Matrix:
    """exp_q(x T) = sum_n x^n q^C(n,2)/[n]! T^n, from powers = (I, T, T^2, ...)
    up to the first zero one; ``ValueError`` when none is zero."""
    index = next((k for k, p in enumerate(powers) if p.is_zero()), None)
    if index is None:
        raise ValueError("q_exp needs a nilpotent matrix")
    coeffs, term, step = [], q.field.one, x  # x^n q^C(n,2) and x q^n at n = 0
    for n in range(index):
        coeffs.append(term / q_fact(n, q))
        if n + 1 < index:
            term, step = term * step, step * q
    return power_series(coeffs, powers)
