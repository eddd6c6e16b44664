from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcoords.bernoulli import bernoulli_number
from charcoords.combinatorics import bernoulli_conv_coeff
from charcoords.series import (
    LaurentSeries,
    TruncationError,
    bernoulli_conv_coeff_from_series,
    series_icot_half,
    series_one_minus_exp_inv,
    verify_power_decomposition,
    verify_stirling_identity,
)


def test_one_minus_exp_inv_coefficients():
    g = series_one_minus_exp_inv(10)
    assert g.coefficient(-1) == -1
    assert g.coefficient(0) == F(1, 2)
    assert g.coefficient(1) == F(-1, 12)
    assert g.coefficient(2) == 0
    # the whole expansion is -B_(m+1)/(m+1)! against the Bernoulli numbers
    import math

    for e in range(-1, 10):
        assert g.coefficient(e) == -bernoulli_number(e + 1) / math.factorial(e + 1)
    with pytest.raises(ValueError):
        series_one_minus_exp_inv(1)


def test_icot_half_series():
    s = series_icot_half(12)
    assert s.coefficient(-1) == -2
    assert s.coefficient(0) == 0
    assert s.coefficient(1) == F(-1, 6)
    for e in range(0, 12, 2):
        assert s.coefficient(e) == 0  # odd function


def test_truncation_is_loud():
    g = series_one_minus_exp_inv(5)
    assert g.known_through == 5
    with pytest.raises(TruncationError):
        g.coefficient(6)
    with pytest.raises(TruncationError):
        g.agrees_through(g, 99)
    with pytest.raises(TruncationError):
        verify_stirling_identity(5, 5)
    with pytest.raises(TruncationError):
        verify_power_decomposition(4, 5)


def test_arithmetic_basics():
    a = LaurentSeries.from_terms(-1, [F(1), F(2), F(3)])
    b = LaurentSeries.from_terms(0, [F(1), F(-1)])
    prod = a * b
    assert prod.coefficient(-1) == 1
    assert prod.coefficient(0) == 1  # 2 - 1
    s = a + b
    assert s.coefficient(0) == 3
    assert (a - a).is_zero
    d = a.derivative()
    assert d.coefficient(-2) == -1
    assert d.coefficient(0) == 3
    inv = b.inverse()
    assert inv.coefficient(0) == 1
    assert inv.coefficient(1) == 1  # 1/(1-t) = 1 + t + ...
    with pytest.raises(ZeroDivisionError):
        LaurentSeries(3, (), 3).inverse()


def test_inverse_round_trip():
    a = LaurentSeries.from_terms(-2, [F(3), F(1), F(0), F(5), F(2), F(1)])
    prod = a * a.inverse()
    for e in range(0, prod.prec):
        assert prod.coefficient(e) == (1 if e == 0 else 0)


def test_stirling_identity():
    for k in range(1, 11):
        assert verify_stirling_identity(k, 2 * k + 4)


def test_power_decomposition():
    for r in range(1, 13):
        assert verify_power_decomposition(r, 2 * r + 4)


def test_conv_coeff_from_series():
    assert bernoulli_conv_coeff_from_series(1, 1) == 1
    assert bernoulli_conv_coeff_from_series(3, 1) == F(1, 4)
    # the power recurrence against repeated truncated series products
    for r in range(1, 25):
        for j in range(1, r + 1):
            assert bernoulli_conv_coeff_from_series(r, j) == bernoulli_conv_coeff(r, j), (r, j)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=3, max_size=6),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=3, max_size=6),
    st.integers(min_value=-2, max_value=2),
)
def test_mul_commutes_and_add_associates(xs, ys, low):
    a = LaurentSeries.from_terms(low, xs)
    b = LaurentSeries.from_terms(0, ys)
    ab, ba = a * b, b * a
    e_max = min(ab.known_through, ba.known_through)
    if e_max >= min(ab.low, ba.low):
        assert ab.agrees_through(ba, e_max)
    s1, s2 = a + b, b + a
    assert s1.agrees_through(s2, min(s1.known_through, s2.known_through))


_coeff_lists = st.lists(
    st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=7)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(_coeff_lists, _coeff_lists, st.integers(-3, 3), st.integers(-3, 3))
def test_mul_is_the_truncated_cauchy_product(xs, ys, la, lb):
    a = LaurentSeries.from_terms(la, xs)
    b = LaurentSeries.from_terms(lb, ys)
    zero = LaurentSeries.from_terms(la, [F(0)] * len(xs))
    for x, y in ((a, b), (zero, b), (b, zero)):
        xy = x * y
        assert xy.prec == min(x.low + y.prec, y.low + x.prec)
        with pytest.raises(TruncationError):
            xy.coefficient(xy.prec)
    ab = a * b
    for e in range(la + lb - 2, ab.prec):
        cauchy = sum(
            (xs[i] * ys[j] for i in range(len(xs)) for j in range(len(ys))
             if la + i + lb + j == e),
            F(0),
        )
        assert ab.coefficient(e) == cauchy
    assert (zero * b).is_zero and (b * zero).is_zero
