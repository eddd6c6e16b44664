"""Truncated formal Laurent series over exact rationals, and series-level
verification of the identities behind the cotangent-power expansion.

The series here act as an oracle that is independent of all cyclotomic
arithmetic: the expansion coefficients produced by
:mod:`charcoords.combinatorics` are checked against truncated-series
identities in the variable t, with every i-power carried as an explicit
rational sign.  Nothing here imports :mod:`charcoords.cyclotomic` or the
convolution recurrence.  A series is a tuple of integer numerators over one
denominator, a value of :class:`charcoords.arith._Scaled` (lowest terms,
equality of fields, immutability, and the zero test, negation and
subtraction), so a product is one integer product of the numerator lists
and a sum one integer sum over the lcm of the two denominators.  Only the
inverse runs in Fractions, one _inverse_step per coefficient; the
coefficients of 1/(1 - e^t), which every identity here reads, are such
steps grown once per process as one memo.recurrence, so a series of any
horizon is read off its rows rather than inverted afresh.

A :class:`LaurentSeries` knows its coefficients for exponents
``low .. prec-1`` and refuses to answer beyond ``prec`` (raising
:class:`TruncationError`), so truncation is never exceeded silently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .arith import TruncationError, _Scaled, _power, _scaled_ints, _schoolbook_mul
from .combinatorics import cot_power_coeff, stirling_first_unsigned
from .memo import recurrence


class LaurentSeries(_Scaled):
    """sum(nums[i] * t^(low+i)) / den, known for exponents low..prec-1 and
    unknown from prec onward.

    A value of _Scaled, canonical when len(nums) == prec - low and
    nums[0] != 0; the zero series is low = prec, nums = (), den = 1.
    """

    __slots__ = ("low", "nums", "den", "prec")

    def __init__(self, low: int, coeffs, prec: int):
        coeffs = [Fraction(c) for c in coeffs]
        if low + len(coeffs) != prec:
            raise ValueError("inconsistent truncation bookkeeping")
        self._set(low, *_scaled_ints(coeffs), prec)

    def _set(self, low: int, nums: Sequence[int], den: int, prec: int) -> None:
        """Store nums/den, for den > 0 and low + len(nums) == prec, without
        its leading zero terms."""
        lead = next((i for i, c in enumerate(nums) if c), len(nums))
        self._store(nums[lead:], den, low + lead, prec)

    @classmethod
    def from_terms(cls, low: int, coeffs) -> "LaurentSeries":
        coeffs = tuple(coeffs)
        return cls(low, coeffs, low + len(coeffs))

    @property
    def known_through(self) -> int:
        return self.prec - 1

    def coefficient(self, e: int) -> Fraction:
        if e >= self.prec:
            raise TruncationError(
                "coefficient of t^%d requested, series known through t^%d"
                % (e, self.prec - 1)
            )
        if e < self.low:
            return Fraction(0)
        return Fraction(self.nums[e - self.low], self.den)

    def shift(self, d: int) -> "LaurentSeries":
        """Multiply by t^d."""
        return LaurentSeries._from_ints(self.low + d, self.nums, self.den, self.prec + d)

    def _cast(self, other):
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, (int, Fraction)):
            # constants are exact, but inherit this series' horizon
            return LaurentSeries(0, (Fraction(other),) + (Fraction(0),) * max(self.prec - 1, 0), max(self.prec, 1))
        return None

    def __add__(self, other):
        o = self._cast(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        low = min(self.low, o.low, prec)
        den = math.lcm(self.den, o.den)
        out = [0] * (prec - low)
        for s in (self, o):
            scale = den // s.den
            for i, c in enumerate(s.nums[:max(prec - s.low, 0)], s.low - low):
                out[i] += c * scale
        return LaurentSeries._from_ints(low, out, den, prec)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentSeries._from_ints(self.low, [c * other.numerator for c in self.nums],
                                            self.den * other.denominator, self.prec)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        prec = min(self.low + other.prec, other.low + self.prec)
        if self.is_zero or other.is_zero:
            return LaurentSeries._from_ints(prec, (), 1, prec)
        low = self.low + other.low
        out = _schoolbook_mul(self.nums, other.nums, prec - low)
        return LaurentSeries._from_ints(low, out, self.den * other.den, prec)

    __rmul__ = __mul__

    def power(self, e: int) -> "LaurentSeries":
        """self^e by square and multiply; a product adds the lows of its
        factors and keeps their smaller prec - low, so any order agrees."""
        if e < 1:
            raise ValueError("power needs e >= 1")
        return _power(self, e)

    def derivative(self) -> "LaurentSeries":
        out = [(self.low + i) * c for i, c in enumerate(self.nums)]
        return LaurentSeries._from_ints(self.low - 1, out, self.den, self.prec - 1)

    def inverse(self) -> "LaurentSeries":
        """Inverse of a series whose lowest known coefficient is nonzero:
        from inv_0 = den / a_0, each coefficient is one _inverse_step on
        the integer numerators a_i."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of a series with no known terms")
        a = self.nums
        inv = [Fraction(self.den, a[0])]
        while len(inv) < len(a):
            inv.append(_inverse_step(inv, lambda i: (a[i], 1)))
        return LaurentSeries(-self.low, inv, -self.low + len(a))

    def agrees_through(self, other: "LaurentSeries", e_max: int) -> bool:
        """Exact coefficient agreement for all exponents <= e_max."""
        return self._first_difference(other, e_max) is None

    def _first_difference(self, other: "LaurentSeries", e_max: int):
        """(e, self's coefficient of t^e, other's) for the first exponent
        e <= e_max at which the two differ, or None if they agree."""
        if e_max >= self.prec or e_max >= other.prec:
            raise TruncationError("comparison window exceeds known precision")
        for e in range(min(self.low, other.low), e_max + 1):
            a, b = self.coefficient(e), other.coefficient(e)
            if a != b:
                return e, a, b
        return None

    def __repr__(self):
        inner = ", ".join(
            "t^%d: %s" % (self.low + i, c) for i, c in enumerate(self.coeffs)
        )
        return "LaurentSeries({%s}, O(t^%d))" % (inner, self.prec)


def _inverse_step(inv: list[Fraction], a) -> Fraction:
    """inv_k, k = len(inv) >= 1, of the inverse of sum a_i t^i from
    inv_0..inv_(k-1): -(sum_{i=1..k} a_i inv_(k-i)) / a_0, for a(i) the
    integer pair (numerator, denominator) of a_i and a_0 != 0.

    Every inv_k stays a reduced Fraction: only the sum inside the step is
    taken over the lcm of its denominators, and only the result is put
    over one denominator.  Carried over one common denominator, inv_k
    would hold a_0^(k+1), and a_0 of w = (e^t - 1)/t through t^(M+1) as a
    LaurentSeries (integer numerators over one denominator) is (M+2)!, so
    the integers would blow up.
    """
    k = len(inv)
    terms = []
    for i in range(1, k + 1):
        n, d = a(i)
        if n:
            p = inv[k - i]
            terms.append((n * p.numerator, d * p.denominator))
    den = math.lcm(*(d for _, d in terms))
    n0, d0 = a(0)
    return Fraction(-d0 * sum(n * (den // d) for n, d in terms), den * n0)


# row k: the coefficient of t^k in 1/w, w = (e^t - 1)/t = sum t^i/(i+1)!,
# each row one step of the inverse, grown once per process
_exp_quotient_inverse = recurrence(
    lambda: Fraction(1), lambda inv: _inverse_step(inv, lambda i: (1, math.factorial(i + 1)))
)


def series_one_minus_exp_inv(M: int) -> LaurentSeries:
    """Laurent expansion of 1/(1 - e^t) around t = 0, known through t^M.

    1 - e^t = -t * w for w = (e^t - 1)/t, so 1/(1 - e^t) = -t^(-1) / w,
    read off the M + 2 rows of 1/w that _exp_quotient_inverse grows once:
    the function has a simple pole with residue -1, constant term 1/2 and
    t-coefficient -1/12 (matching -B_2/2!).
    """
    if M < 2:
        raise ValueError("need M >= 2")
    nums, den = _scaled_ints([_exp_quotient_inverse(k) for k in range(M + 2)])
    return LaurentSeries._from_ints(-1, [-c for c in nums], den, M + 1)


def series_icot_half(M: int) -> LaurentSeries:
    """i*cot(-i*t/2) = 2/(1 - e^t) - 1, an odd series with leading term -2/t."""
    if M < 2:
        raise ValueError("need M >= 2")
    return series_one_minus_exp_inv(M) * 2 - 1


def _cot_derivative_series(j: int, base: LaurentSeries) -> LaurentSeries:
    """i^j cot_(j-1)(-i*t/2) written rationally from derivatives of ``base``
    = 1/(1 - e^t); for j = 1 the constant 1/2 must be removed by hand."""
    if j == 1:
        return base * 2 - 1
    d = base
    for _ in range(j - 1):
        d = d.derivative()
    return d * Fraction((-1) ** (j - 1) * 2**j)


def verify_stirling_identity(k: int, M: int) -> bool:
    """Check 1/(1-e^t)^k = (1/(k-1)!) sum_j S(k, j) d^(j-1)/dt^(j-1) 1/(1-e^t)
    as Laurent series, exactly through t^M."""
    return LaurentSeries.agrees_through(*_stirling_sides(k, M), M)


def _stirling_sides(k: int, M: int) -> tuple[LaurentSeries, LaurentSeries]:
    """The two sides of the identity of verify_stirling_identity."""
    if k < 1:
        raise ValueError("need k >= 1")
    if M < k + 2:
        raise TruncationError("truncation order too small; need M >= k + 2")
    g = series_one_minus_exp_inv(M + k + 2)
    rhs = LaurentSeries(M + 1, (), M + 1)  # zero with a generous horizon
    d = g
    for j in range(1, k + 1):
        s = stirling_first_unsigned(k, j)
        if s:
            rhs = rhs + d * Fraction(s, math.factorial(k - 1))
        if j < k:
            d = d.derivative()
    return g.power(k), rhs


def verify_power_decomposition(r: int, M: int) -> bool:
    """Check (i cot)^r = ((-1)^r + 1)/2 + sum_j c_{r,j} i^j cot_(j-1) as
    Laurent series in t (evaluated along cot(-i*t/2)), exactly through t^M.

    The coefficients c_{r,j} are taken from
    :func:`charcoords.combinatorics.cot_power_coeff`, so this is an oracle
    for that module that never touches cyclotomic arithmetic.
    """
    return LaurentSeries.agrees_through(*_decomposition_sides(r, M), M)


def _decomposition_sides(r: int, M: int) -> tuple[LaurentSeries, LaurentSeries]:
    """The two sides of the identity of verify_power_decomposition."""
    if r < 1:
        raise ValueError("need r >= 1")
    if M < r + 3:
        raise TruncationError("truncation order too small; need M >= r + 3")
    g = series_one_minus_exp_inv(M + r + 3)
    rhs = LaurentSeries(M + 1, (), M + 1) + Fraction((-1) ** r + 1, 2)
    for j in range(1, r + 1):
        c = cot_power_coeff(r, j)
        if c:
            rhs = rhs + _cot_derivative_series(j, g) * c
    return (g * 2 - 1).power(r), rhs


def bernoulli_conv_coeff_from_series(r: int, j: int) -> Fraction:
    """Recover the Bernoulli-convolution coefficient from the t^(-j)
    coefficient of the r-th power of the i*cot(-i*t/2) series.

    Uses sum_m B_{2m} t^(2m)/(2m)! = -(t/2) * i*cot(-i*t/2), so the value
    equals (-1/2)^r [t^(-j)] (i*cot(-i*t/2))^r.  Cross-oracle for
    :func:`charcoords.combinatorics.bernoulli_conv_coeff`.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if j < 1 or j > r or (r - j) % 2:
        return Fraction(0)
    ic = series_icot_half(r + 4)
    return Fraction(-1, 2) ** r * ic.power(r).coefficient(-j)
