"""Small integer helpers: factorization, totients, divisors, unit lists,
the package's one polynomial product, of integer coefficient lists
(_schoolbook_mul) cleared of denominators onto one (_scaled_ints), and its
one square-and-multiply loop (_power), and the package's two internal-error
types, which the CLI reports as internal errors (exit code 3).  _Scaled is
the one base of the exact values, CycElem and LaurentSeries: their fields,
equality, hash, pickling, immutability, zero test, negation and subtraction."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .memo import memo


class InternalError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


class TruncationError(ValueError):
    """A coefficient beyond the known truncation order was requested.

    Raised by :mod:`charcoords.series`, which re-exports it; defined here so
    that the CLI can catch it without importing that module."""


class _Scaled:
    """Base of the exact values CycElem and LaurentSeries: integer
    numerators ``nums`` over one positive denominator ``den``, in lowest
    terms, and the subclass's other fields, every field named in its
    __slots__.  Its _set(*fields), in slot order, is its canonical step and
    ends in _store.  Equal values then have equal fields: equality, the
    hash and a pickle or copy go over the field tuple in slot order.
    Assigning or deleting an attribute raises AttributeError.  The zero
    test, negation and subtraction go through the subclass's + and *.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = operator.attrgetter(*cls.__slots__)
        # _store calls the slots' own setters: object.__setattr__ takes twice as long
        setter = {name: cls.__dict__[name].__set__ for name in cls.__slots__}
        cls._setters = setter.pop("nums"), setter.pop("den"), tuple(setter.values())

    @classmethod
    def _from_ints(cls, *fields):
        """The value of the given fields, in slot order, through _set."""
        self = object.__new__(cls)
        self._set(*fields)
        return self

    def _store(self, nums: Sequence[int], den: int, *rest) -> None:
        """Store nums/den, for den > 0, in lowest terms, and rest, the other
        fields in slot order."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        set_nums, set_den, set_rest = self._setters
        set_nums(self, tuple(nums))
        set_den(self, den)
        for i, set_field in enumerate(set_rest):
            set_field(self, rest[i])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients nums[i] / den."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, (type(self), int, Fraction)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return self._from_ints, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable: cannot set %r" % (type(self).__name__, name))

    def __delattr__(self, name):
        raise AttributeError("%s is immutable: cannot delete %r" % (type(self).__name__, name))


def prime_factors(n: int) -> dict[int, int]:
    """Factor n >= 1 by trial division; returns {prime: exponent}."""
    if n < 1:
        raise ValueError("prime_factors needs n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@memo
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = 1
    for p, a in prime_factors(n).items():
        result *= (p - 1) * p ** (a - 1)
    return result


@memo
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, a in prime_factors(n).items():
        out = [d * p**e for d in out for e in range(a + 1)]
    return tuple(sorted(out))


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == {n: 1}


def units(n: int) -> tuple[int, ...]:
    """Residues coprime to n, ascending.  For n = 1 this is (1,)."""
    if n < 1:
        raise ValueError("units needs n >= 1")
    if n == 1:
        return (1,)
    return tuple(k for k in range(1, n) if math.gcd(k, n) == 1)


def _schoolbook_mul(a: Sequence[int], b: Sequence[int], size: int | None = None) -> list[int]:
    """The product of two integer coefficient lists, term by term: all of
    it, or only its first size terms, the others never computed."""
    if size is None:
        size = len(a) + len(b) - 1
    prod = [0] * size
    for i, ai in enumerate(a[:size]):
        if ai:
            for j, bj in enumerate(b[:size - i]):
                if bj:
                    prod[i + j] += ai * bj
    return prod


def _scaled_ints(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Clear denominators: returns (integer vector, common denominator)."""
    den = 1
    for c in coeffs:
        den = math.lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _power(x, e: int):
    """x^e for e >= 1 by square and multiply, for any x with a product;
    the result starts as the first power taken, so no unit is needed."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if not e:
            return result
        x = x * x
