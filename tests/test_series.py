import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcoords.bernoulli import bernoulli_number
from charcoords.combinatorics import bernoulli_conv_coeff
from charcoords.memo import clear_memos
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
    for e in range(-1, 10):
        assert g.coefficient(e) == -bernoulli_number(e + 1) / math.factorial(e + 1)
    with pytest.raises(ValueError):
        series_one_minus_exp_inv(1)


def test_grown_one_minus_exp_inv_is_a_fresh_inverse():
    """1/(1 - e^t) read off the rows grown once equals -t^-1 times a fresh
    LaurentSeries.inverse of w = (e^t - 1)/t at every M, whether the rows
    grow at once (M descending) or one at a time (M ascending after the
    memos are emptied)."""
    def fresh(M):
        w = LaurentSeries.from_terms(0, (F(1, math.factorial(k + 1)) for k in range(M + 2)))
        return -(w.inverse().shift(-1))

    expected = {M: fresh(M) for M in range(2, 61)}
    clear_memos()
    for M in [*range(60, 1, -1), *range(2, 61)]:
        assert series_one_minus_exp_inv(M) == expected[M], M
    clear_memos()
    for M in range(2, 61):
        assert series_one_minus_exp_inv(M) == expected[M], M


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


@settings(max_examples=100, deadline=None)
@given(_coeff_lists, st.one_of(st.integers(-3, -1), st.just(0), st.integers(1, 3)), st.integers(1, 12))
def test_power_matches_repeated_products(xs, low, e):
    """power(e), by square and multiply, has the fields of s * s * ... * s."""
    s = LaurentSeries.from_terms(low, xs)
    product = s
    for _ in range(e - 1):
        product = product * s
    p = s.power(e)
    assert (p.low, p.nums, p.den, p.prec) == (product.low, product.nums, product.den, product.prec)


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


# -- the integer form against a plain Fraction-list reference -----------------
# A reference series is (low, coeffs, prec) with coeffs a tuple of Fractions
# for the exponents low..prec-1, leading zeros stripped.


def _ref(low, coeffs, prec):
    coeffs = list(coeffs)
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
        low += 1
    return (low if coeffs else prec), tuple(coeffs), prec


def _ref_add(a, b):
    prec = min(a[2], b[2])
    low = min(a[0], b[0], prec)
    out = [F(0)] * (prec - low)
    for s_low, cs, _ in (a, b):
        for i, c in enumerate(cs):
            if s_low + i < prec:
                out[s_low + i - low] += c
    return _ref(low, out, prec)


def _ref_scale(a, q):
    return _ref(a[0], [c * q for c in a[1]], a[2])


def _ref_mul(a, b):
    low, prec = a[0] + b[0], min(a[0] + b[2], b[0] + a[2])
    out = [F(0)] * (prec - low)
    for i, x in enumerate(a[1]):
        for j, y in enumerate(b[1]):
            if i + j < prec - low:
                out[i + j] += x * y
    return _ref(low, out, prec)


def _ref_inverse(a):
    low, cs, _ = a
    inv = [1 / cs[0]]
    for k in range(1, len(cs)):
        inv.append(-sum((cs[i] * inv[k - i] for i in range(1, k + 1)), F(0)) / cs[0])
    return _ref(-low, inv, -low + len(cs))


def _fields(s):
    assert s.den > 0
    assert math.gcd(s.den, *s.nums) == 1
    assert len(s.nums) == s.prec - s.low
    assert s.nums[0] != 0 if s.nums else (s.low, s.den) == (s.prec, 1)
    return s.low, s.coeffs, s.prec


_terms = st.lists(
    st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=9)),
    max_size=8,
)
_scalars = st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=5))


@settings(max_examples=300, deadline=None)
@given(_terms, _terms, st.integers(-3, 3), st.integers(-3, 3), _scalars, st.integers(-3, 3))
def test_integer_form_matches_the_fraction_reference(xs, ys, la, lb, q, d):
    a, b = LaurentSeries.from_terms(la, xs), LaurentSeries.from_terms(lb, ys)
    ra, rb = _ref(la, xs, la + len(xs)), _ref(lb, ys, lb + len(ys))
    assert _fields(a) == ra and _fields(b) == rb
    assert _fields(a + b) == _fields(b + a) == _ref_add(ra, rb)
    assert _fields(a - b) == _ref_add(ra, _ref_scale(rb, -1))
    assert _fields(-a) == _ref_scale(ra, -1)
    assert _fields(a * q) == _fields(q * a) == _ref_scale(ra, F(q))
    const = _ref(0, [F(q)] + [F(0)] * (max(ra[2], 1) - 1), max(ra[2], 1))
    assert _fields(a + q) == _fields(q + a) == _ref_add(ra, const)
    assert _fields(a * b) == _fields(b * a) == _ref_mul(ra, rb)
    assert _fields(a.derivative()) == _ref(ra[0] - 1, [(ra[0] + i) * c for i, c in enumerate(ra[1])], ra[2] - 1)
    assert _fields(a.shift(d)) == (ra[0] + d, ra[1], ra[2] + d)
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert _fields(a.inverse()) == _ref_inverse(ra)
    # canonical form: equal series have equal fields
    assert a + b - b == LaurentSeries(*_ref_add(_ref_add(ra, rb), _ref_scale(rb, -1)))
