"""Unsigned Stirling numbers of the first kind and the two exact coefficient
families that expand powers of i*cot:

* ``cot_power_coeff(r, j)``: the coefficient of the (j-1)-th cotangent
  derivative in the expansion of (i*cot)^r, built from Stirling numbers;
* ``bernoulli_conv_coeff(r, j)``: the coefficient arising from an r-fold
  convolution of even Bernoulli numbers divided by factorials;
* ``coeff_bridge(r, j)``: the closed-form conversion sending the second
  family to the first, which the verification suites check exactly.

Everything here is exact rational arithmetic; no floating point.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .arith import _scaled_ints, _schoolbook_mul
from .bernoulli import bernoulli_number
from .memo import memo

_STIRLING_ROWS: list[list[int]] = [[1], [0, 1]]  # row k: S(k, j) for j = 0..k
_STIRLING_LOCK = threading.Lock()


def stirling_first_unsigned(k: int, j: int) -> int:
    """Number of permutations of k objects with exactly j cycles.

    Recurrence S(k+1, j) = k*S(k, j) + S(k, j-1) with S(1, 1) = 1; zero
    outside 1 <= j <= k.
    """
    if k < 1:
        raise ValueError("stirling_first_unsigned needs k >= 1")
    if j < 1 or j > k:
        return 0
    if len(_STIRLING_ROWS) <= k:
        with _STIRLING_LOCK:
            while len(_STIRLING_ROWS) <= k:
                prev = _STIRLING_ROWS[-1]
                kk = len(_STIRLING_ROWS) - 1
                row = [0] * (kk + 2)
                for jj in range(1, kk + 2):
                    row[jj] = kk * (prev[jj] if jj <= kk else 0) + prev[jj - 1]
                _STIRLING_ROWS.append(row)
    return _STIRLING_ROWS[k][j]


def cot_power_coeff(r: int, j: int) -> Fraction:
    """Coefficient of i^j cot_(j-1) in the expansion of (i cot)^r.

    Equals (-1)^(r-1) * sum_{k=j}^{r} (-2)^(k-j)/(k-1)! * C(r, k) * S(k, j);
    zero for j outside [1, r] and whenever j and r have opposite parity.
    Out-of-range arguments return exact zero to match the summation
    conventions used downstream.
    """
    if r < 1:
        raise ValueError("cot_power_coeff needs r >= 1")
    if j < 1 or j > r:
        return Fraction(0)
    total = Fraction(0)
    for k in range(j, r + 1):
        total += (
            Fraction((-2) ** (k - j), math.factorial(k - 1))
            * math.comb(r, k)
            * stirling_first_unsigned(k, j)
        )
    return (-1) ** (r - 1) * total


@memo
def _conv_power(r: int) -> tuple[Fraction, ...]:
    """The r-th power of sum_m B_{2m} z^m/(2m)!, through z^(r//2): the base
    as integers over one denominator den, r truncated integer products,
    and one division by den^r at the end."""
    terms = r // 2 + 1
    base = [bernoulli_number(2 * m) / math.factorial(2 * m) for m in range(terms)]
    base, den = _scaled_ints(base)
    power = [1]
    for _ in range(r):
        power = _schoolbook_mul(power, base)[:terms]
    return tuple(Fraction(c, den**r) for c in power)


def bernoulli_conv_coeff(r: int, j: int) -> Fraction:
    """Coefficient of z^((r-j)/2) in the r-th power of sum_m B_{2m} z^m/(2m)!.

    Zero when r - j is odd or j lies outside [1, r].
    """
    if r < 1:
        raise ValueError("bernoulli_conv_coeff needs r >= 1")
    if j < 1 or j > r or (r - j) % 2:
        return Fraction(0)
    return _conv_power(r)[(r - j) // 2]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


BRUTEFORCE_LIMIT = 12


def bernoulli_conv_coeff_bruteforce(r: int, j: int) -> Fraction:
    """Same value as bernoulli_conv_coeff by literal enumeration of the
    nonnegative tuples (j_1, ..., j_r) with j + 2*sum(j_t) = r.

    Exponential in r; kept as an independent oracle, limited to
    r <= BRUTEFORCE_LIMIT.
    """
    if r < 1:
        raise ValueError("bernoulli_conv_coeff_bruteforce needs r >= 1")
    if r > BRUTEFORCE_LIMIT:
        raise ValueError("bruteforce oracle limited to r <= %d" % BRUTEFORCE_LIMIT)
    if j < 1 or j > r or (r - j) % 2:
        return Fraction(0)
    w = (r - j) // 2
    total = Fraction(0)
    for tup in _compositions(w, r):
        prod = Fraction(1)
        for jt in tup:
            prod *= bernoulli_number(2 * jt) / math.factorial(2 * jt)
        total += prod
    return total


def coeff_bridge(r: int, j: int) -> Fraction:
    """(-1)^(r+1) * 2^(r-j) / (j-1)! times bernoulli_conv_coeff(r, j).

    This converts the Bernoulli-convolution coefficient into the cotangent
    power expansion coefficient; the two families agreeing exactly is one
    of the identities the verification suites establish.
    """
    if not 1 <= j <= r:
        raise ValueError("need 1 <= j <= r")
    if (r - j) % 2:
        raise ValueError("j and r must have equal parity")
    return (
        Fraction((-1) ** (r + 1) * 2 ** (r - j), math.factorial(j - 1))
        * bernoulli_conv_coeff(r, j)
    )


@dataclass(frozen=True)
class CoeffTable:
    """One row family of coefficients: kind 'c' (cotangent-power expansion)
    or 'd' (Bernoulli convolution), for a fixed r."""

    r: int
    kind: str
    values: dict

    def nonzero_items(self):
        return sorted((j, v) for j, v in self.values.items() if v)


def coeff_table(r: int, kind: str) -> CoeffTable:
    if r < 1:
        raise ValueError("coefficient tables need r >= 1")
    if kind == "c":
        fn = cot_power_coeff
    elif kind == "d":
        fn = bernoulli_conv_coeff
    else:
        raise ValueError("kind must be 'c' or 'd'")
    return CoeffTable(r, kind, {j: fn(r, j) for j in range(1, r + 1)})
