"""Exact cotangent powers and cotangent numbers at pi/n.

Everything runs inside Q(zeta_n); no floating trigonometry appears on the
exact path.  i*cot(pi*k/n) = (1 + zeta_n^k) / (1 - zeta_n^k) = -1 + 2/(1 - x)
with x = zeta_n^k, and for x^n = 1, x != 1, the classical identity
(1 - x) * sum_{j<n} j*x^j = -n gives 2/(1 - x) = -(2/n) * sum_{j<n} j*x^j.
So i*cot is the integer vector -n - 2 * sum_j j*zeta_n^(jk) over the
denominator n, reduced modulo Phi_n, with no field division.

The ``cotangent number`` of index j is i^j * cot_(j-1)(pi/n), where cot_l
is the l-th derivative of cot; it is rewritten as a rational combination
of powers of i*cot before evaluation, so the result is an exact cyclotomic
number (real for even j, purely imaginary for odd j).

n = 2 is admitted everywhere: i*cot(pi/2) = 0 and all values degenerate
gracefully.
"""

from __future__ import annotations

import math

from .arith import _schoolbook_mul
from .cyclotomic import CycElem, _combination
from .memo import memo, recurrence

# p_0(y) = y, p_(l+1) = -(1 + y^2) * p_l', ascending coefficients
_cot_poly = recurrence(
    lambda: (0, 1),
    lambda p: tuple(_schoolbook_mul((-1, 0, -1), [i * c for i, c in enumerate(p[-1])][1:])),
)


def cot_derivative_poly(l: int) -> tuple[int, ...]:
    """The l-th derivative of cot as a polynomial p_l in y = cot, by its
    ascending integer coefficients.

    p_0 = y and p_(l+1) = -(1 + y^2) * dp_l/dy, so p_l has degree l + 1
    and only terms of degree congruent to l + 1 mod 2.
    """
    if l < 0:
        raise ValueError("cot_derivative_poly needs l >= 0")
    return _cot_poly(l)


@memo
def icot_value(n: int, k: int = 1) -> CycElem:
    """i*cot(pi*k/n) = (1 + zeta_n^k)/(1 - zeta_n^k), exact in Q(zeta_n),
    built as -1 - (2/n) * sum_j j*zeta_n^(jk) over the denominator n."""
    if n < 2:
        raise ValueError("icot_value needs n >= 2")
    if math.gcd(k, n) != 1:
        raise ValueError("k = %d is not coprime to n = %d" % (k, n))
    v = [0] * n
    v[0] = -n
    for j in range(1, n):
        v[j * k % n] -= 2 * j
    return CycElem._from_ints(n, v, n)


@memo
def icot_power(r: int, n: int) -> CycElem:
    """(i*cot(pi/n))^r, exact, by the square-and-multiply loop of
    CycElem.__pow__: O(log r) products and no recursion."""
    if r < 1:
        raise ValueError("icot_power needs r >= 1")
    if n < 2:
        raise ValueError("icot_power needs n >= 2")
    return icot_value(n) ** r


def cotangent_number(j: int, n: int) -> CycElem:
    """i^j * cot_(j-1)(pi/n) as an exact element of Q(zeta_n).

    Writing cot_(j-1) = sum_m a_m y^m with m = j mod 2, the value is
    sum_m a_m * (-1)^((j-m)/2) * (i*cot(pi/n))^m.
    """
    if j < 1:
        raise ValueError("cotangent_number needs j >= 1")
    if n < 2:
        raise ValueError("cotangent_number needs n >= 2")
    pairs = []
    for m, c in enumerate(cot_derivative_poly(j - 1)):
        if c:
            if (j - m) % 2:
                raise ArithmeticError("parity violation in cotangent polynomial")
            y = CycElem.one(n) if m == 0 else icot_power(m, n)
            pairs.append((y, c * (-1) ** ((j - m) // 2)))
    return _combination(n, pairs)
