import math
from fractions import Fraction as F

import mpmath
import pytest

from charcoords.arith import units
from charcoords.combinatorics import cot_power_coeff
from charcoords.cotangent import (
    cot_derivative_poly,
    cotangent_number,
    icot_power,
    icot_value,
)
from charcoords.cyclotomic import CycElem


def test_icot_examples():
    assert icot_value(2) == CycElem.zero(2)
    assert icot_value(4) == CycElem.zeta(4)
    three = icot_value(3)
    assert three == CycElem(3, (F(1, 3), F(2, 3)))
    assert three.complex_eval() == pytest.approx(1j / math.sqrt(3), abs=1e-14)
    with pytest.raises(ValueError):
        icot_value(4, 2)
    with pytest.raises(ValueError):
        icot_value(1)


def test_icot_sum_is_field_quotient():
    # the integer sum -1 - (2/n) sum_j j zeta^(jk) against the field
    # division (1 + zeta^k)/(1 - zeta^k), which runs CycElem.inverse
    for n in range(2, 61):
        for k in units(n):
            z = CycElem.zeta(n, k)
            assert icot_value(n, k) == (1 + z) / (1 - z)


def test_icot_numeric():
    for n in range(2, 20):
        for k in units(n):
            assert icot_value(n, k).complex_eval() == pytest.approx(
                1j / math.tan(math.pi * k / n), abs=1e-10
            )


def test_icot_galois_orbit():
    # sigma_k(i cot(pi/n)) = i cot(pi k/n)
    for n in range(2, 31):
        base = icot_value(n)
        for k in units(n):
            assert base.galois(k) == icot_value(n, k)


def test_icot_purely_imaginary():
    for n in range(2, 25):
        a = icot_value(n)
        assert a.conjugate() == -a


def test_icot_power():
    assert icot_power(2, 4) == CycElem.from_rational(-1, 4)
    assert icot_power(1, 4) == CycElem.zeta(4)
    for r in range(1, 5):
        assert icot_power(r, 2).is_zero
        assert icot_power(r, 5) == icot_value(5) ** r
    with pytest.raises(ValueError):
        icot_power(0, 4)


def test_icot_power_deep_exponent():
    # (i cot(pi/3))^2 = -1/3; a cold memo builds the 1200th power by
    # squaring, far inside the recursion limit
    icot_power.cache_clear()
    assert icot_power(1200, 3) == CycElem.from_rational(F(1, 3**600), 3)


def test_cot_derivative_polys():
    assert cot_derivative_poly(0) == (0, 1)
    assert cot_derivative_poly(1) == (-1, 0, -1)
    assert cot_derivative_poly(2) == (0, 2, 0, 2)
    for l in range(0, 21):
        poly = cot_derivative_poly(l)
        assert len(poly) == l + 2  # degree l + 1
        assert all(
            c == 0 for m, c in enumerate(poly) if (m - (l + 1)) % 2
        )


def test_cot_derivative_polys_against_mpmath():
    # independent oracle: high-precision numerical differentiation of cot
    with mpmath.workdps(40):
        x = mpmath.mpf("0.8")
        for l in range(0, 9):
            poly = cot_derivative_poly(l)
            via_poly = sum(
                c * mpmath.cot(x) ** m for m, c in enumerate(poly) if c
            )
            assert abs(via_poly - mpmath.diff(mpmath.cot, x, l)) < mpmath.mpf("1e-25")


def test_cotangent_number_examples():
    assert cotangent_number(1, 2).is_zero
    assert cotangent_number(2, 4) == CycElem.from_rational(2, 4)
    assert cotangent_number(3, 4) == CycElem.from_polynomial(4, [0, -4])
    assert cotangent_number(1, 4) == CycElem.zeta(4)


def test_cotangent_number_parity():
    # real for even j, purely imaginary for odd j
    for n in range(2, 25):
        for j in range(1, 7):
            a = cotangent_number(j, n)
            assert a.conjugate() == (a if j % 2 == 0 else -a)


def test_cotangent_number_numeric():
    with mpmath.workdps(30):
        for n in (3, 4, 5, 7, 12):
            for j in range(1, 6):
                exact = cotangent_number(j, n).complex_eval()
                x = mpmath.pi / n
                numeric = mpmath.mpc(1j) ** j * mpmath.diff(mpmath.cot, x, j - 1)
                assert abs(exact - complex(numeric)) < 1e-8


def test_power_decomposition_at_values():
    # (i cot)^r = ((-1)^r + 1)/2 + sum_j c_(r,j) i^j cot_(j-1), at pi/n
    for n in range(2, 31):
        for r in range(1, 9):
            rhs = CycElem.from_rational(F((-1) ** r + 1, 2), n)
            for j in range(1, r + 1):
                c = cot_power_coeff(r, j)
                if c:
                    rhs = rhs + cotangent_number(j, n) * c
            assert rhs == icot_power(r, n), (n, r)


def test_icot_powers_linearly_independent_for_primes():
    # the minimal polynomial of i cot(pi/p) has degree p - 1, so the powers
    # 0..r are independent over Q whenever r <= p - 2
    for p in (3, 5, 7, 11, 13):
        r = p - 2
        rows = [CycElem.one(p).coeffs]
        rows += [icot_power(j, p).coeffs for j in range(1, r + 1)]
        matrix = [list(row) for row in rows]
        rank = 0
        for col in range(len(matrix[0])):
            piv = next(
                (i for i in range(rank, len(matrix)) if matrix[i][col]), None
            )
            if piv is None:
                continue
            matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
            inv = F(1) / matrix[rank][col]
            matrix[rank] = [c * inv for c in matrix[rank]]
            for i in range(len(matrix)):
                if i != rank and matrix[i][col]:
                    f = matrix[i][col]
                    matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[rank])]
            rank += 1
        assert rank == r + 1, p
