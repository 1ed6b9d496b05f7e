"""q-integers, q-factorials, q-binomials, and q-exponentials of nilpotent
matrices.

The symmetric q-integer [n] = (q^n - q^-n)/(q - q^-1) is computed as the
geometric sum q^(n-1) + q^(n-3) + ... + q^(1-n), which needs no division and
is valid for every nonzero q.
"""

from __future__ import annotations

from math import comb
from typing import Literal

from .linalg import Matrix, matrix_powers, nilpotency_index, power_series
from .scalars import Scalar

__all__ = ["q_int", "q_fact", "q_binom", "q_exp"]

QExpVariant = Literal["q", "q_inverse"]


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


def q_binom(n: int, k: int, q: Scalar) -> Scalar:
    """[n]! / ([k]! [n-k]!); zero outside 0 <= k <= n.

    Raises ZeroDivisionError when a required q-integer vanishes (q a root of
    unity of low order), which cannot happen under validated parameters.
    """
    if k < 0 or k > n:
        return q.field.zero
    return q_fact(n, q) / (q_fact(k, q) * q_fact(n - k, q))


def q_exp(t: Matrix, q: Scalar, variant: QExpVariant = "q") -> Matrix:
    """exp_q(T) = sum_n q^C(n,2)/[n]! T^n for nilpotent T.

    The ``q_inverse`` variant uses q^-C(n,2) instead; applied to -T it gives
    the exact inverse of the ``q`` variant.  The scalar prefactor is expected
    to be folded into T by the caller.
    """
    if variant not in ("q", "q_inverse"):
        raise ValueError(f"unknown variant {variant!r}")
    index = nilpotency_index(t)
    if index is None:
        raise ValueError("q_exp needs a nilpotent matrix")
    sign = 1 if variant == "q" else -1
    coeffs = [q ** (sign * comb(n, 2)) / q_fact(n, q) for n in range(index)]
    return power_series(coeffs, matrix_powers(t, index - 1))
