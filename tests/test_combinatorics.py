import itertools
import math
from fractions import Fraction as F

import pytest

from charcoords.combinatorics import (
    BRUTEFORCE_LIMIT,
    _compositions,
    bernoulli_conv_coeff,
    bernoulli_conv_coeff_bruteforce,
    coeff_bridge,
    cot_power_coeff,
    stirling_first_unsigned,
)
from charcoords.cotangent import cot_derivative_poly


def test_stirling_values():
    assert stirling_first_unsigned(3, 2) == 3
    assert stirling_first_unsigned(3, 1) == 2
    for k in range(1, 13):
        assert stirling_first_unsigned(k, k) == 1
        assert stirling_first_unsigned(k, 0) == 0
        assert stirling_first_unsigned(k, k + 1) == 0
        assert sum(stirling_first_unsigned(k, j) for j in range(1, k + 1)) == math.factorial(k)
    with pytest.raises(ValueError):
        stirling_first_unsigned(0, 0)


def test_cot_power_coeff_values():
    assert cot_power_coeff(1, 1) == 1
    assert cot_power_coeff(2, 2) == -1
    assert cot_power_coeff(3, 1) == 1
    assert cot_power_coeff(3, 3) == F(1, 2)
    assert cot_power_coeff(4, 2) == F(-4, 3)
    assert cot_power_coeff(5, 0) == 0
    assert cot_power_coeff(5, 6) == 0


def test_cot_power_coeff_rows_match_the_termwise_sum():
    """Each row, built in one pass over k for all j, equals the literal sum
    (-1)^(r-1) sum_(k=j..r) (-2)^(k-j)/(k-1)! C(r, k) S(k, j) for every
    1 <= j <= r <= 40."""
    for r in range(1, 41):
        for j in range(1, r + 1):
            literal = (-1) ** (r - 1) * sum(
                F((-2) ** (k - j) * math.comb(r, k) * stirling_first_unsigned(k, j),
                  math.factorial(k - 1))
                for k in range(j, r + 1)
            )
            assert cot_power_coeff(r, j) == literal, (r, j)


def test_cot_power_coeff_parity_vanishing():
    for r in range(1, 16):
        for j in range(1, r + 1):
            if (r - j) % 2:
                assert cot_power_coeff(r, j) == 0, (r, j)


def _coeffs_by_triangular_solve(r):
    """Independent oracle: expand y^r in the polynomials giving the
    cotangent derivatives.

    Writing i^r cot^r = C + sum_j c_j i^j cot_(j-1) and substituting the
    derivative polynomials p_(j-1)(y) for cot_(j-1), the powers of i cancel
    into rational signs because all degrees share the parity of r.  The
    p_(j-1) have degree j, so matching coefficients from degree r downward
    determines every c_j (and the constant) by back substitution.
    """
    target = {r: F(1)}  # y^r, tracked sparsely as degree -> coefficient
    coeffs = {}
    for j in range(r, 0, -1):
        if (r - j) % 2:
            continue
        poly = cot_derivative_poly(j - 1)
        # i^j p_(j-1)(cot) = sum_m a_m (-1)^((j-m)/2) (i cot)^m, and dividing
        # by i^r turns (i cot)^m into (-1)^((r-m)/2) y^m; combined sign:
        sign_for = lambda m: (-1) ** ((j - m) // 2) * (-1) ** ((r - m) // 2)
        cj = target.get(j, F(0)) / (poly[j] * sign_for(j))
        coeffs[j] = cj
        for m, am in enumerate(poly):
            if am:
                target[m] = target.get(m, F(0)) - cj * am * sign_for(m)
    constant = target.get(0, F(0))
    assert all(v == 0 for d, v in target.items() if d > 0)
    return coeffs, constant


def test_cot_power_coeff_against_derivative_polynomials():
    for r in range(1, 13):
        coeffs, constant = _coeffs_by_triangular_solve(r)
        # i^(-r) * ((-1)^r + 1)/2: zero for odd r, (-1)^(r/2) for even r
        expected_const = F(0) if r % 2 else F((-1) ** (r // 2))
        assert constant == expected_const, r
        for j, cj in coeffs.items():
            assert cot_power_coeff(r, j) == cj, (r, j)


def test_conv_coeff_values():
    for r in range(1, 13):
        assert bernoulli_conv_coeff(r, r) == 1
    assert bernoulli_conv_coeff(3, 1) == F(1, 4)
    assert bernoulli_conv_coeff(2, 2) == 1
    assert bernoulli_conv_coeff(4, 2) == F(1, 3)
    assert bernoulli_conv_coeff(4, 1) == 0
    assert bernoulli_conv_coeff(4, 5) == 0


def test_conv_coeff_against_bruteforce():
    for r in range(1, BRUTEFORCE_LIMIT + 1):
        for j in range(1, r + 1):
            assert bernoulli_conv_coeff(r, j) == bernoulli_conv_coeff_bruteforce(r, j)
    with pytest.raises(ValueError):
        bernoulli_conv_coeff_bruteforce(BRUTEFORCE_LIMIT + 1, 1)


def test_compositions_are_each_tuple_once():
    """For total and parts up to 6, _compositions yields exactly the
    itertools.product tuples whose parts sum to total, none twice."""
    for total in range(7):
        for parts in range(1, 7):
            got = list(_compositions(total, parts))
            assert len(got) == len(set(got))
            expected = [t for t in itertools.product(range(total + 1), repeat=parts) if sum(t) == total]
            assert sorted(got) == expected, (total, parts)


def test_bridge_examples():
    assert coeff_bridge(3, 3) == F(1, 2)
    assert coeff_bridge(3, 1) == 1
    assert coeff_bridge(2, 2) == -1
    with pytest.raises(ValueError):
        coeff_bridge(3, 2)
    with pytest.raises(ValueError):
        coeff_bridge(2, 3)


def test_bridge_matches_cot_power_coeff():
    for r in range(1, 61):
        for j in range(1, r + 1):
            if (r - j) % 2 == 0:
                assert cot_power_coeff(r, j) == coeff_bridge(r, j), (r, j)


def test_leading_coefficient_normalization():
    # from conv(r, r) = 1 and the bridge: c(r, r) * (r-1)! * (-1)^(r+1) = 1
    for r in range(1, 21):
        assert cot_power_coeff(r, r) * math.factorial(r - 1) * (-1) ** (r + 1) == 1

