"""Exact Bernoulli numbers, Bernoulli polynomials, and their twists by
Dirichlet characters (generalized Bernoulli numbers).

Convention: B_1 = -1/2 throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import _scaled_ints
from .characters import DirichletCharacter
from .cyclotomic import CycElem
from .memo import memo, recurrence

_bernoulli_row = recurrence(
    lambda: Fraction(1),
    lambda B: -sum(math.comb(len(B) + 1, i) * b for i, b in enumerate(B)) / (len(B) + 1),
)


def bernoulli_number(m: int) -> Fraction:
    """B_m, exact, with B_1 = -1/2.

    Computed from the recurrence sum_{k=0}^{m} C(m+1, k) B_k = 0 and
    memoized.
    """
    if m < 0:
        raise ValueError("bernoulli_number needs m >= 0")
    return _bernoulli_row(m)


@memo
def bernoulli_polynomial(r: int) -> tuple[Fraction, ...]:
    """B_r(x) = sum_k C(r, k) B_k x^(r-k), by its ascending coefficients."""
    if r < 0:
        raise ValueError("bernoulli_polynomial needs r >= 0")
    coeffs = [Fraction(0)] * (r + 1)
    for k in range(r + 1):
        coeffs[r - k] = math.comb(r, k) * bernoulli_number(k)
    return tuple(coeffs)


def generalized_bernoulli(r: int, chi: DirichletCharacter) -> CycElem:
    """B_{r,chi} = f^(r-1) * sum_{k=1}^{f} B_r(k/f) chi(k), chi primitive mod f.

    The value lies in Q(zeta_m) for m the order of chi and is rational for
    real characters.  Imprimitive characters are rejected; coordinate
    formulas route through primitive_part plus Euler factors instead.
    The sum runs in integers over the one denominator f * D, with
    D * f^r * B_r(k/f) evaluated as an integer polynomial in k.
    """
    if r < 1:
        raise ValueError("generalized_bernoulli needs r >= 1")
    f = chi.modulus
    if chi.conductor() != f:
        raise ValueError("generalized_bernoulli needs a primitive character")
    m = chi.order
    ints, D = _scaled_ints(bernoulli_polynomial(r))
    # D * f^r * B_r(x/f) has integer coefficients; Horner wants the highest first
    h = [c * f ** (r - i) for i, c in enumerate(ints)][::-1]
    acc = [0] * m
    for k, e in chi.unit_values():
        v = 0
        for c in h:
            v = v * k + c
        acc[e] += v
    return CycElem._from_ints(m, acc, f * D)
