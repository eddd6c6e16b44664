"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as the canonical residue of a polynomial in zeta_N
modulo the N-th cyclotomic polynomial Phi_N: phi(N) integer numerators of
1, zeta_N, ..., zeta_N^(phi(N)-1) over one denominator, a value of
:class:`charcoords.arith._Scaled`.  The residue is unique, so equal fields
are equal field elements.  Every operation is a pure function.  A sum or
a rational multiple is one _combination call, as in the closed forms.

Every element is made canonical by one step, CycElem._set, which reads
one memo per order, _residue_plan: phi(N), the nonzero terms of Phi_N and
the input length from which the packed kernel reduces.  An input of at
most phi(N) ints is padded and never enters a reduction loop.  The zero of
each order is one memoized instance (CycElem.zero), and galois returns a
zero unchanged, as it returns any element for k = 1.

Orders are never coerced silently: combining two CycElem values of
different orders raises; use :func:`to_common_order` (which embeds both
into Q(zeta_lcm)) first.  Plain ``int``/``Fraction`` scalars are the one
exception, since the rationals sit inside every cyclotomic field.

Products and reductions of long vectors run through one big-integer
kernel (Kronecker substitution): a coefficient vector is packed into the
single integer v(2^(8*nb)), so a polynomial product is one multiplication
of Python ints, which CPython does with Karatsuba in C.  The digit width
nb is derived from a proven bound on every coefficient the packed value
will hold, plus a sign bit, so unpacking is exact for coefficients of any
size.  Reduction modulo Phi_N folds modulo x^N - 1 and reads the quotient
off the product with Psi_N = (x^N - 1) / Phi_N (see _cofactor): two
products, no division loop.  CycElem multiplication and the reduction
behind every construction use it.

Below _KRONECKER_MIN coefficients in the shorter factor (for a reduction:
the quotient, or the nonzero terms of Phi_N) packing costs more than it
saves, so the schoolbook loops stay for small fields and for sparse Phi_N
such as those of prime-power orders; they are also the reference the
tests compare the kernel against.  _cyclic_sum, the one product in the
group ring Z[x]/(x^N - 1), is such a loop: a sum of products of two
(exponent, coefficient) term lists, as the coordinate paths multiply by a
Gauss sum or an Euler product, over their nonzero terms only.

Projection to a subfield (:func:`project_to_subfield`, and the coordinate
paths, which hand over their raw vectors in Z[x]/(x^L - 1)) never reduces
modulo Phi_L.  It works in the tensor power basis of
Q(zeta_L) = (x)_q Q(zeta_q), q running over the prime powers exactly
dividing L.  With a_q = (L/q)^-1 mod q, zeta_L^i = prod_q zeta_q^(a_q i mod q);
each axis is reduced modulo Phi_q(x) = sum_{j<p} x^(j q/p) by subtracting
its top digit classes from the lower ones, a few list-slice operations per
axis.  The coordinates left are those of the integral basis
prod zeta_q^(d_q), d_q < phi(q).  In it, as in the Zumbroich basis (Bosma,
AAECC 1990; Breuer, AAECC 1997), subfield membership is a support check:
Q(zeta_m) is spanned by the elements whose every d_q is a multiple of
q/gcd(q, m), those on the exponents i*L/m, which are zeta_m^i.  So the
projection checks that all other coordinates are zero and reads the kept
ones off.

Memoized results here, as everywhere in the package, go through the one
bounded, thread-safe memo of :mod:`charcoords.memo`, which clear_memos()
empties in one call.  That holds for the Bernoulli numbers, Stirling rows and
cotangent derivatives too: memo.recurrence keeps each such sequence as one
memo entry, grown row by row in a loop under the one lock of that module.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from array import array
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .arith import InternalError, _Scaled, _power, _scaled_ints, _schoolbook_mul, divisors, euler_phi, prime_factors, units
from .memo import memo

Scalar = Union[int, Fraction]


class FieldMembershipError(InternalError):
    """A value expected to lie in a subfield Q(zeta_m) does not.

    Raised by the subfield projection used in coordinate computations;
    it signals an internal inconsistency, not bad user input.
    """


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists, ascending powers)

def _binomial_ratio(ups: Sequence[int], downs: Sequence[int]) -> list[int]:
    """prod of (x^d - 1) over d in ups divided by the prod over d in downs,
    asserting that the division is exact."""
    p = [1]
    for d in ups:
        q = [0] * d + p
        for i, c in enumerate(p):
            q[i] -= c
        p = q
    for d in downs:
        # p = q * (x^d - 1) gives q[k] = q[k - d] - p[k]
        n = len(p) - d
        q = [0] * n
        for k in range(n):
            q[k] = (q[k - d] if k >= d else 0) - p[k]
        if p[n:] != ([0] * d + q)[n:]:
            raise ArithmeticError("division was not exact")
        p = q
    return p


def _mobius_divisors(N: int) -> tuple[list[int], list[int]]:
    """The divisors d of N with mu(N/d) = 1 and those with mu(N/d) = -1."""
    ups, downs = [], []
    for d in divisors(N):
        exps = prime_factors(N // d).values()
        if all(e == 1 for e in exps):
            (downs if len(exps) % 2 else ups).append(d)
    return ups, downs


@memo
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients of Phi_N, ascending powers, monic of degree phi(N).

    Computed as the product of (x^d - 1)^mu(N/d) over the divisors d of N,
    one multiplication or exact division by a binomial per divisor, and
    memoized per process.
    """
    if N < 1:
        raise ValueError("cyclotomic_polynomial needs N >= 1")
    return tuple(_binomial_ratio(*_mobius_divisors(N)))


@memo
def _cofactor(N: int) -> tuple[tuple[int, ...], int]:
    """Psi_N = (x^N - 1) / Phi_N, the product of Phi_d over the proper
    divisors d of N, and the growth factor of a reduction through it.

    For v with deg v < N, write v = q Phi_N + r.  Then
    v Psi_N = q x^N + (r Psi_N - q) with deg(r Psi_N - q) < N, so the
    coefficients of v Psi_N at degrees >= N are exactly q.  If |v| <= c
    coefficientwise, those of v Psi_N are at most c * |Psi_N|_1 (the sum
    of the absolute values of the coefficients), and those of
    r = v - q Phi_N at most c * (1 + |Psi_N|_1 * |Phi_N|_1): the returned
    factor.
    """
    ups, downs = _mobius_divisors(N)
    psi = tuple(_binomial_ratio(downs, ups[:-1]))  # ups ends with N itself
    return psi, 1 + sum(map(abs, psi)) * sum(map(abs, cyclotomic_polynomial(N)))


@memo
def _residue_plan(N: int) -> tuple[int, tuple[tuple[int, int], ...], float]:
    """What a reduction modulo Phi_N reads, once per build: (phi(N), the
    nonzero (exponent, coefficient) pairs of Phi_N below its leading term,
    the input length from which _reduce_mod_phi takes the packed kernel)."""
    d = euler_phi(N)
    nz = tuple((i, q) for i, q in enumerate(cyclotomic_polynomial(N)[:-1]) if q)
    return d, nz, d + _KRONECKER_MIN if len(nz) >= _KRONECKER_MIN else math.inf


def _schoolbook_reduce(coeffs: Sequence[int], N: int) -> list[int]:
    """Reduce an integer coefficient list modulo Phi_N, one eliminated
    coefficient at a time; any length in, exactly phi(N) ints out."""
    d, nz, _ = _residue_plan(N)
    v = list(coeffs)
    if len(v) > d:
        for e in range(len(v) - 1, d - 1, -1):
            c = v[e]
            if c:
                v[e] = 0
                base = e - d
                for i, q in nz:
                    v[base + i] -= c * q
        del v[d:]
    if len(v) < d:
        v.extend([0] * (d - len(v)))
    return v


# ---------------------------------------------------------------------------
# Kronecker substitution (see the module docstring)

# Length of the shorter factor from which the packed kernels beat the
# schoolbook loops, measured: for CycElem products the schoolbook loops are
# a little faster at phi(N) = 8 and the kernel is 1.5x faster at 12.  The
# reductions modulo Phi_N take the same cutoff.
_KRONECKER_MIN = 12

# array typecodes by item size, for packing at C speed when nb <= 8
_ARRAY_CODES = {array(c).itemsize: c for c in "bhiq"}


def _width(bound: int) -> int:
    """Bytes per packed coefficient for coefficients of absolute value at
    most bound (rounded up to an array item size when one fits)."""
    nb = bound.bit_length() // 8 + 1
    return min((s for s in _ARRAY_CODES if s >= nb), default=nb)


def _sign_bits(n: int, nb: int) -> int:
    """The top bit of each of n packed nb-byte coefficients."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _pack(v: Sequence[int], nb: int) -> int:
    """v(2^(8*nb)) for ints |v[i]| < 2^(8*nb - 1).  A value too wide for
    nb bytes, or nb < 1, breaks the bound nb was derived from: InternalError."""
    code = _ARRAY_CODES.get(nb)
    try:
        if code:
            arr = array(code, v)
            if sys.byteorder == "big":
                arr.byteswap()
            raw = arr.tobytes()
        else:
            raw = b"".join([c.to_bytes(nb, "little", signed=True) for c in v])
        # a two's-complement digit c with its top bit flipped is c + 2^(8*nb-1)
        s = _sign_bits(len(v), nb)
    except (OverflowError, ValueError) as exc:
        raise InternalError("a coefficient does not fit in %d packed bytes" % nb) from exc
    return (int.from_bytes(raw, "little") ^ s) - s


def _unpack(x: int, n: int, nb: int) -> list[int]:
    """The n coefficients of x = v(2^(8*nb)), for |v[i]| < 2^(8*nb - 1).  An
    x too wide for n coefficients of nb bytes, or nb < 1: InternalError."""
    try:
        s = _sign_bits(n, nb)
        raw = ((x + s) ^ s).to_bytes(n * nb, "little")
    except (OverflowError, ValueError) as exc:
        raise InternalError("%d coefficients do not fit in %d packed bytes each" % (n, nb)) from exc
    code = _ARRAY_CODES.get(nb)
    if code:
        arr = array(code, raw)
        if sys.byteorder == "big":
            arr.byteswap()
        return arr.tolist()
    return [int.from_bytes(raw[i:i + nb], "little", signed=True) for i in range(0, n * nb, nb)]


def _packed_product(a: Sequence[int], b: Sequence[int], N: int, gain: int) -> tuple[int, int]:
    """(x, nb): the product a * b modulo x^N - 1, packed with nb bytes per
    coefficient, where nb leaves room for every coefficient to grow by the
    factor gain afterwards.  With b = (1,) it is a alone, at the width
    max|a| gives."""
    ma, mb, sb = max(map(abs, a), default=0), max(map(abs, b), default=0), sum(map(abs, b))
    # |(a*b)_k| <= max|a| * sum|b| and sum|a| * max|b|, the first the smaller
    # when sum|b| = max|b| (b = (1,) among them), so sum|a| is then not read;
    # the factors themselves must fit too when the other one is zero
    prod = ma * sb if sb == mb else min(ma * sb, sum(map(abs, a)) * mb)
    bound = max(prod, ma, mb)
    folds = -(-(len(a) + len(b) - 1) // N)
    nb = _width(max(bound * folds, 1) * gain)
    return _fold(_pack(a, nb) * _pack(b, nb), folds, N, nb), nb


def _fold(x: int, folds: int, N: int, nb: int) -> int:
    """x, packed with nb bytes per coefficient and holding folds blocks of
    N coefficients, modulo x^N - 1: each block is added onto the one below
    it.  The low block, taken as a signed value, is below half of
    2^(8*nb*N) in size."""
    shift = 8 * nb * N
    half = 1 << (shift - 1)
    out = 0
    for _ in range(folds - 1):
        hi = (x + half) >> shift
        out += x - (hi << shift)
        x = hi
    return out + x


def _cyclic_sum(products: Iterable[tuple[Iterable[tuple[int, int]], Sequence[tuple[int, int]]]],
                N: int) -> list[int]:
    """The sum of a * b over the (a, b) in products, in Z[x]/(x^N - 1), as
    N ints: a and b are lists of (exponent, coefficient) terms, every
    exponent in 0..N-1 (exponents may repeat), and terms with coefficient
    zero are skipped.  Term by term, as one list is short (a Gauss sum has
    phi(f) terms, an Euler product one per squarefree divisor); a is read
    once, b once per nonzero term of a."""
    out = [0] * N
    for a, b in products:
        b = [(t, c) for t, c in b if c]
        for i, x in a:
            if x:
                for t, c in b:
                    q = i + t
                    if q >= N:
                        q -= N
                    out[q] += x * c
    return out


def _kronecker_reduce(a: Sequence[int], b: Sequence[int], N: int) -> list[int]:
    """a * b modulo Phi_N, as phi(N) ints (a alone for b = (1,)): fold
    modulo x^N - 1, which Phi_N divides, then take the quotient from the
    top of the product with Psi_N (see _cofactor)."""
    x, nb = _packed_product(a, b, N, _cofactor(N)[1])
    d = euler_phi(N)
    if N == d:  # N = 1: Phi_1 = x - 1, and the fold already reduced
        return _unpack(x, d, nb)
    # the terms of degree < d do not reach the quotient, so only the top
    # N - d coefficients of x are multiplied by Psi_N; each split rounds, as
    # the part below it is a signed value under half its unit in size
    low, top = 8 * nb * d, 8 * nb * (N - d)
    hi = (x + (1 << (low - 1))) >> low
    packed_psi, packed_phi = _packed_moduli(N, nb)
    q = (hi * packed_psi + (1 << (top - 1))) >> top
    return _unpack(x - q * packed_phi, d, nb)


@memo
def _packed_moduli(N: int, nb: int) -> tuple[int, int]:
    """Psi_N and Phi_N packed with nb bytes per coefficient, for
    _kronecker_reduce: each (N, nb) is packed once."""
    return _pack(_cofactor(N)[0], nb), _pack(cyclotomic_polynomial(N), nb)


def _reduce_mod_phi(coeffs: Sequence[int], N: int) -> Sequence[int]:
    """Reduce an integer coefficient list modulo Phi_N (monic, integral).

    Accepts any length; returns exactly phi(N) ints: coeffs itself at that
    length, and a shorter input padded with zeros, neither of which enters
    a reduction loop.
    """
    d, _, packed_from = _residue_plan(N)
    n = len(coeffs)
    if n <= d:
        return coeffs if n == d else [*coeffs, *[0] * (d - n)]
    if n >= packed_from:
        return _kronecker_reduce(coeffs, (1,), N)
    return _schoolbook_reduce(coeffs, N)


# ---------------------------------------------------------------------------


class CycElem(_Scaled):
    """An element of Q(zeta_N) in canonical residue form: sum(nums[i] *
    zeta_N^i) / den with exactly phi(N) ints ``nums``, a value of _Scaled.
    A sum or a rational multiple is one _combination.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs: Iterable[Scalar]):
        if order < 1:
            raise ValueError("order must be >= 1")
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(coeffs) != euler_phi(order):
            raise ValueError(
                "need exactly phi(%d) = %d coefficients, got %d"
                % (order, euler_phi(order), len(coeffs))
            )
        self._set(order, *_scaled_ints(coeffs))

    def _set(self, order: int, ints: Sequence[int], den: int = 1) -> None:
        """Store sum(ints[i] * zeta_N^i) / den, for any length of ints and
        den > 0, as a reduced residue."""
        self._store(_reduce_mod_phi(ints, order), den, order)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_polynomial(cls, order: int, coeffs: Iterable[Scalar]) -> "CycElem":
        """Element given by an arbitrary polynomial in zeta_N (any length)."""
        return cls._from_ints(order, *_scaled_ints([Fraction(c) for c in coeffs]))

    @classmethod
    def from_rational(cls, value: Scalar, order: int = 1) -> "CycElem":
        q = Fraction(value)
        return cls._from_ints(order, [q.numerator], q.denominator)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CycElem":
        """zeta_N^power."""
        if order < 1:
            raise ValueError("zeta needs order >= 1, got %d" % order)
        power %= order
        return cls._from_ints(order, [0] * power + [1])

    @staticmethod
    def zero(order: int = 1) -> "CycElem":
        """The zero of Q(zeta_N): one memoized instance per order."""
        return _zero(order)

    @classmethod
    def one(cls, order: int = 1) -> "CycElem":
        return cls.from_rational(1, order)

    # -- views and predicates ------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycElem):
            if other.order != self.order:
                raise ValueError(
                    "order mismatch (%d vs %d): embed into a common field first,"
                    " e.g. via to_common_order" % (self.order, other.order)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycElem.from_rational(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combination(self.order, [(self, 1), (o, 1)])

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _combination(self.order, [(self, other)])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.nums, o.nums
        if len(a) < _KRONECKER_MIN:
            prod = _schoolbook_mul(a, b)
        else:
            prod = _kronecker_reduce(a, b, self.order)
        return CycElem._from_ints(self.order, prod, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent) if exponent else CycElem.one(self.order)

    def inverse(self) -> "CycElem":
        """Multiplicative inverse through the Galois norm: with c the
        product of the conjugates galois(k) over the units k != 1 mod N,
        self * c is the norm, a nonzero rational, and the inverse is c
        divided by it.  It takes phi(N) - 1 integer products."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        c = CycElem.one(self.order)
        for k in units(self.order)[1:]:
            c = c * self.galois(k)
        return c / (self * c).rational_value()

    # -- field maps --------------------------------------------------------

    def galois(self, k: int) -> "CycElem":
        """Image under the automorphism zeta_N -> zeta_N^k, gcd(k, N) = 1."""
        N = self.order
        k %= N
        if math.gcd(k, N) != 1:
            raise ValueError("galois exponent %d is not coprime to %d" % (k, N))
        if k == 1 or N == 1 or self.is_zero:
            return self
        v = [0] * N
        for i, c in enumerate(self.nums):
            if c:
                v[(i * k) % N] += c
        return CycElem._from_ints(N, v, self.den)

    def conjugate(self) -> "CycElem":
        """Complex conjugation: galois(N-1), which is the identity for N <= 2."""
        return self.galois(self.order - 1)

    def embed(self, M: int) -> "CycElem":
        """Image in Q(zeta_M) under zeta_N -> zeta_M^(M/N); needs M >= 1, N | M."""
        N = self.order
        if M < 1 or M % N:
            raise ValueError("cannot embed order %d into order %d" % (N, M))
        if M == N:
            return self
        stride = M // N
        v = [0] * ((len(self.nums) - 1) * stride + 1)
        v[::stride] = self.nums
        return CycElem._from_ints(M, v, self.den)

    # -- numeric evaluation -------------------------------------------------

    def complex_eval(self) -> complex:
        """Evaluate the residue polynomial at exp(2*pi*i/N) in doubles.

        The error is at most 4 * phi(N) * sum(|coeffs|) * 2**-52.
        """
        root = cmath.exp(2j * math.pi / self.order)
        acc = 0j
        for c in reversed(self.nums):
            acc = acc * root + c / self.den  # int/int rounds exactly once
        return acc

    # -- serialization -------------------------------------------------------

    def coeff_strings(self) -> list[str]:
        """str(c) for c in coeffs, from the integers with one gcd each:
        "p" when the reduced denominator is 1, else "p/q" in lowest terms."""
        den = self.den
        return [str(c // g) if (g := math.gcd(c, den)) == den else "%d/%d" % (c // g, den // g)
                for c in self.nums]

    def to_json_dict(self) -> dict:
        """Canonical JSON form: {"order": N, "coeffs": ["p/q", ...]}."""
        return {"order": self.order, "coeffs": self.coeff_strings()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CycElem":
        return cls(int(data["order"]), tuple(Fraction(s) for s in data["coeffs"]))

    def __repr__(self):
        return "CycElem(order=%d, coeffs=(%s))" % (self.order, ", ".join(self.coeff_strings()))


@memo
def _zero(order: int) -> CycElem:
    return CycElem._from_ints(order, (), 1)


def _combination(m: int, pairs: list[tuple[CycElem, int | Fraction]]) -> CycElem:
    """sum of q * y over the (y, q) in pairs, y in Q(zeta_m) and q rational,
    as integer numerators over the lcm of the denominators: one _from_ints."""
    dens = [y.den * q.denominator for y, q in pairs]
    den = math.lcm(*dens)
    acc = [0] * euler_phi(m)
    for (y, q), d in zip(pairs, dens):
        s = q.numerator * (den // d)
        acc = [a + s * c for a, c in zip(acc, y.nums)]
    return CycElem._from_ints(m, acc, den)


def to_common_order(a: CycElem, b: CycElem) -> tuple[CycElem, CycElem]:
    """Embed both elements into Q(zeta_lcm(orders))."""
    L = math.lcm(a.order, b.order)
    return a.embed(L), b.embed(L)


# ---------------------------------------------------------------------------
# subfield projection in the tensor basis (see the module docstring)

@memo
def _tensor_axes(L: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Per prime power q = p^e exactly dividing L, smallest p first: (q, p,
    the residues mod q of the exponents that carry a top digit of the axis).

    Exponent i carries the digit a_q*i mod q, a_q = (L/q)^-1 mod q, so digit
    d sits on the residue class (L/q)*d mod q.  The top digits are those
    d >= phi(q), which Phi_q(x) = sum_{j<p} x^(j*q/p) rewrites as minus the
    digits d - j*q/p, j = 1..p-1: exponent i goes to i - j*L/p.
    """
    axes = []
    for p, e in sorted(prime_factors(L).items()):
        q = p**e
        axes.append((q, p, tuple(L // q * d % q for d in range(euler_phi(q), q))))
    return tuple(axes)


def _project_cyclic(ints: Sequence[int], den: int, L: int, m: int) -> CycElem:
    """sum(ints[i] * zeta_L^i) / den as an element of Q(zeta_m), for L ints,
    m | L and den > 0, or FieldMembershipError if it does not lie there.

    The coordinates stay at their exponents: once every axis is reduced,
    the nonzero entries are the coordinates in the basis prod zeta_q^(d_q),
    d_q < phi(q).  Q(zeta_m) is spanned by the basis elements on the
    exponents i*L/m, which are zeta_m^i; every other entry must be zero.
    """
    v = list(ints)
    for q, p, tops in _tensor_axes(L):
        M = L // q
        zeros = [0] * M
        for r in tops:
            top = v[r::q]
            if any(top):
                v[r::q] = zeros
                top += top
                for j in range(1, p):
                    # term t of the top class lands on term t + k of class rho
                    k, rho = divmod((r - j * (L // p)) % L, q)
                    v[rho::q] = map(operator.sub, v[rho::q], top[M - k:2 * M - k])
    w = v[::L // m]
    if v.count(0) - w.count(0) != L - m:
        raise FieldMembershipError("value does not lie in Q(zeta_%d)" % m)
    return CycElem._from_ints(m, w, den)


def project_to_subfield(a: CycElem, m: int) -> CycElem:
    """Write a as an element of Q(zeta_m) for m >= 1 dividing the order, or raise
    FieldMembershipError if a does not lie in that subfield."""
    L = a.order
    if m < 1 or L % m:
        raise ValueError("%d is not a positive divisor of the order %d" % (m, L))
    if m == L:
        return a
    return _project_cyclic(a.nums + (0,) * (L - len(a.nums)), a.den, L, m)
