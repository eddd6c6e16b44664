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

import itertools
import math
from fractions import Fraction

from .arith import _schoolbook_mul
from .bernoulli import bernoulli_number
from .memo import memo, recurrence

# row k: S(k, j) for j = 0..k, the coefficients of x(x+1)...(x+k-1)
_stirling_row = recurrence(lambda: [1], lambda S: _schoolbook_mul(S[-1], (len(S) - 1, 1)))


def stirling_first_unsigned(k: int, j: int) -> int:
    """Number of permutations of k objects with exactly j cycles.

    Recurrence S(k+1, j) = k*S(k, j) + S(k, j-1) with S(1, 1) = 1; zero
    outside 1 <= j <= k.
    """
    if k < 1:
        raise ValueError("stirling_first_unsigned needs k >= 1")
    if j < 1 or j > k:
        return 0
    return _stirling_row(k)[j]


def cot_power_coeff(r: int, j: int) -> Fraction:
    """Coefficient of i^j cot_(j-1) in the expansion of (i cot)^r.

    Equals (-1)^(r-1) * sum_{k=j}^{r} (-2)^(k-j)/(k-1)! * C(r, k) * S(k, j),
    summed in integers over the one denominator (r-1)!; zero for j outside
    [1, r] and whenever j and r have opposite parity.
    Out-of-range arguments return exact zero to match the summation
    conventions used downstream.
    """
    if r < 1:
        raise ValueError("cot_power_coeff needs r >= 1")
    if j < 1 or j > r:
        return Fraction(0)
    return _cot_power_row(r)[j]


@memo
def _cot_power_row(r: int) -> tuple[Fraction, ...]:
    """cot_power_coeff(r, j) for j = 0..r, in one pass over k for all j:
    with q_k = (-2)^k (r-1)!/(k-1)! C(r, k), row k of the Stirling table
    times q_k is added to the j-sums at once, and sum_k q_k S(k, j) is
    (-2)^j times the integer sum of cot_power_coeff (an exact division)."""
    acc = [0] * (r + 1)
    for k in range(1, r + 1):
        q = (-2) ** k * math.perm(r - 1, r - k) * math.comb(r, k)
        acc[:k + 1] = [a + q * s for a, s in zip(acc, _stirling_row(k))]
    den = math.factorial(r - 1)
    sign = (-1) ** (r - 1)
    return tuple(Fraction(sign * (a // (-2) ** j), den) for j, a in enumerate(acc))


# row i: f_i = B_2i/(2i)!, the coefficients of the series _conv_power raises
_bernoulli_factor = recurrence(
    lambda: Fraction(1), lambda f: bernoulli_number(2 * len(f)) / math.factorial(2 * len(f))
)


def _conv_step(rows: list[Fraction], r: int) -> Fraction:
    """Coefficient p_w, w = len(rows), of f^r for f = sum_m B_{2m} z^m/(2m)!
    by Miller's power recurrence p_w = (1/w) sum_{i=1..w} ((r+1)i - w) f_i
    p_{w-i}, from f (f^r)' = r f' f^r (Knuth, TAOCP vol. 2, 4.7).

    The w terms are summed as integer numerators over the lcm of their
    denominators, so the row costs one reduced Fraction, not one per term.
    """
    w = len(rows)
    terms = []
    for i in range(1, w + 1):
        f, p = _bernoulli_factor(i), rows[w - i]
        terms.append((((r + 1) * i - w) * f.numerator * p.numerator, f.denominator * p.denominator))
    den = math.lcm(*(d for _, d in terms))
    return Fraction(sum(n * (den // d) for n, d in terms), den * w)


_conv_power = recurrence(lambda r: Fraction(1), _conv_step)


def bernoulli_conv_coeff(r: int, j: int) -> Fraction:
    """Coefficient of z^((r-j)/2) in the r-th power of sum_m B_{2m} z^m/(2m)!.

    Zero when r - j is odd or j lies outside [1, r].
    """
    if r < 1:
        raise ValueError("bernoulli_conv_coeff needs r >= 1")
    if j < 1 or j > r or (r - j) % 2:
        return Fraction(0)
    return _conv_power((r - j) // 2, r)


def _compositions(total: int, parts: int):
    """Every tuple of parts >= 1 nonnegative ints summing to total, once,
    in lexicographic order: stars and bars, the parts - 1 bars placed
    among total + parts - 1 slots, each part the stars between two bars."""
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


BRUTEFORCE_LIMIT = 12


def bernoulli_conv_coeff_bruteforce(r: int, j: int) -> Fraction:
    """Same value as bernoulli_conv_coeff by literal enumeration of the
    nonnegative tuples (j_1, ..., j_r) with j + 2*sum(j_t) = r, each
    contributing the product of B_(2 j_t)/(2 j_t)! over its parts.

    The factors B_2i/(2i)!, i <= w = (r-j)/2, are tabulated once per call
    as integers over D, the lcm of their denominators; every composition is
    enumerated and its product formed in integers over D^w: a tuple with
    c nonzero parts (c <= w, as the parts sum to w) is the product of their
    integer factors times D^(w-c).  The total over D^w is the one Fraction.
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
    factor = [bernoulli_number(2 * i) / math.factorial(2 * i) for i in range(w + 1)]
    D = math.lcm(*(f.denominator for f in factor))
    scaled = [f.numerator * (D // f.denominator) for f in factor]
    pad = [D ** (w - c) for c in range(w + 1)]
    total = 0
    for tup in _compositions(w, r):
        prod = 1
        c = 0
        for jt in tup:
            if jt:  # a part jt = 0 contributes B_0/0! = 1
                prod *= scaled[jt]
                c += 1
        total += prod * pad[c]
    return Fraction(total, D**w)


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
