import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcoords import cyclotomic
from charcoords.arith import divisors, euler_phi, units
from charcoords.characters import enumerate_characters, gauss_sum
from charcoords.coordinates import coords_definitional_many
from charcoords.cotangent import icot_power, icot_value
from charcoords.cyclotomic import (
    CycElem,
    FieldMembershipError,
    cyclotomic_polynomial,
    project_to_subfield,
    to_common_order,
)
from charcoords.series import LaurentSeries


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # oracle: divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 by hand
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_degree_and_product():
    for N in range(1, 41):
        poly = cyclotomic_polynomial(N)
        assert len(poly) - 1 == euler_phi(N)
        assert poly[-1] == 1
    # independent check: the product of Phi_d over d | N is x^N - 1
    for N in (12, 30, 36):
        prod = [1]
        for d in range(1, N + 1):
            if N % d == 0:
                phi_d = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi_d) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_d):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (N - 1) + [1]


def test_cyclotomic_polynomial_rejects_bad_input():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_ring_basics():
    z4 = CycElem.zeta(4)
    assert (z4 * z4) == CycElem.from_rational(-1, 4)
    a = CycElem.from_polynomial(4, [F(1, 3), F(2, 5)])
    assert a + 0 == a
    assert (1 - z4) * (1 + z4) == CycElem.from_rational(2, 4)
    assert (a - a).is_zero
    assert -(-a) == a


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        CycElem.zeta(4) + CycElem.zeta(3)
    a, b = to_common_order(CycElem.zeta(4), CycElem.zeta(3))
    assert a.order == b.order == 12
    assert (a * b).complex_eval() == pytest.approx(
        CycElem.zeta(12, 7).complex_eval(), abs=1e-12
    )


def test_inverse_examples():
    z4 = CycElem.zeta(4)
    inv = (1 - z4).inverse()
    assert inv == CycElem(4, (F(1, 2), F(1, 2)))
    assert inv * (1 - z4) == CycElem.one(4)
    assert CycElem.one(4).inverse() == CycElem.one(4)
    assert (z4 * 2).inverse() == z4 * F(-1, 2)
    with pytest.raises(ZeroDivisionError):
        CycElem.zero(4).inverse()


def test_galois_examples():
    z4 = CycElem.zeta(4)
    assert z4.galois(3) == -z4
    a = CycElem.from_polynomial(4, [F(1, 2), F(3, 7)])
    assert a.galois(1) == a
    # sigma_2 of the quotient q = (1+z5)/(1-z5), the q with (1-z5) q = 1+z5,
    # is the quotient (1+z5^2)/(1-z5^2): checked as a product
    z5 = CycElem.zeta(5)
    q = icot_value(5)
    assert (1 - z5) * q == 1 + z5
    z52 = CycElem.zeta(5, 2)
    assert (1 - z52) * q.galois(2) == 1 + z52
    with pytest.raises(ValueError):
        z4.galois(2)


def test_zero_is_one_instance_per_order():
    for N in range(1, 61):
        zero = CycElem.zero(N)
        assert zero is CycElem.zero(N)
        assert zero == CycElem.from_rational(0, N) and zero.is_zero and zero.order == N
    with pytest.raises(ValueError):
        CycElem.zero(0)


def test_galois_of_zero_is_zero():
    for N in range(1, 61):
        for k in units(N):
            assert CycElem.zero(N).galois(k) is CycElem.zero(N)
            assert CycElem.from_rational(0, N).galois(k) == CycElem.zero(N)
        if N > 2:
            with pytest.raises(ValueError):
                CycElem.zero(N).galois(N)


def test_galois_composition():
    a = CycElem.from_polynomial(15, [1, 2, F(1, 3), 0, 5, 1, 0, 7])
    for k in (2, 4, 7):
        for l in (2, 8):
            assert a.galois(k).galois(l) == a.galois((k * l) % 15)
        kinv = pow(k, -1, 15)
        assert a.galois(k).galois(kinv) == a


def test_embed_examples():
    assert CycElem.zeta(2).embed(4) == CycElem.from_rational(-1, 4)
    c = CycElem.from_rational(F(7, 3), 5)
    assert c.embed(10).coeffs[0] == F(7, 3)
    e = CycElem.zeta(3).embed(12)
    assert e == CycElem.from_polynomial(12, [0, 0, 0, 0, 1])  # zeta_12^4 reduced
    assert e.complex_eval() == pytest.approx(
        complex(-0.5, math.sqrt(3) / 2), abs=1e-14
    )
    assert e.embed(12) == e
    with pytest.raises(ValueError):
        CycElem.zeta(4).embed(6)


def test_conjugate_examples():
    z4 = CycElem.zeta(4)
    assert z4.conjugate() == -z4
    r = CycElem.from_rational(F(3, 4), 7)
    assert r.conjugate() == r
    a = icot_value(5)  # (1 + zeta_5)/(1 - zeta_5)
    assert a.conjugate() == a.galois(4)
    assert a.conjugate().conjugate() == a
    assert CycElem.zeta(2).conjugate() == CycElem.zeta(2)
    assert CycElem.from_rational(F(-5, 3)).conjugate() == CycElem.from_rational(F(-5, 3))


def test_complex_eval():
    assert CycElem.zeta(4).complex_eval() == pytest.approx(1j, abs=1e-15)
    assert CycElem.from_rational(2, 1).complex_eval() == pytest.approx(2.0, abs=0)
    icot8 = icot_value(8)  # (1 + zeta_8)/(1 - zeta_8)
    assert icot8.complex_eval() == pytest.approx(
        complex(0, 1 + math.sqrt(2)), abs=1e-12
    )


def _horner_mp(x):
    """x evaluated at exp(2 pi i/N) in mpmath at its working precision."""
    root = mpmath.expjpi(mpmath.mpf(2) / x.order)
    acc = mpmath.mpc(0)
    for c in reversed(x.coeffs):
        acc = acc * root + mpmath.mpf(c.numerator) / c.denominator
    return acc


def test_complex_eval_error_bound():
    # the docstring bound 4 * phi(N) * sum|coeffs| * 2**-52 holds on every
    # coordinate of (i cot(pi/n))^r, r <= 10, n <= 30, and on every Gauss sum
    # of a primitive character of conductor <= 50 (J up to 2,162)
    values = []
    for n in range(2, 31):
        powers = [icot_power(r, n) for r in range(1, 11)]
        for ys in coords_definitional_many(n, powers):
            values.extend(ys.values())
    assert len(values) == 2770
    primitive = {chi.primitive_part() for n in range(2, 51) for chi in enumerate_characters(n)}
    taus = [gauss_sum(psi) for psi in primitive]
    assert len(taus) == 471
    assert max(tau.order for tau in taus) == 2162
    with mpmath.workprec(120):
        for x in values + taus:
            bound = 4 * euler_phi(x.order) * float(sum(abs(c) for c in x.coeffs)) * 2.0 ** -52
            error = abs(mpmath.mpc(x.complex_eval()) - _horner_mp(x))
            assert error <= bound, (x.order, float(error), bound)


def test_pow_matches_repeated_mul():
    z = CycElem.zeta(7)
    a = 1 + z * F(2, 3)
    acc = CycElem.one(7)
    for e in range(20):
        assert a**e == acc
        acc = acc * a


def test_division_only_by_a_rational():
    # no path divides by a cyclotomic number: / takes an int or a Fraction,
    # and a negative power raises at once instead of inverting
    a = 1 + CycElem.zeta(7) * F(2, 3)
    assert a / F(2, 3) == a * F(3, 2)
    with pytest.raises(TypeError):
        a / CycElem.zeta(7)
    with pytest.raises(ZeroDivisionError):
        a / 0
    for e in (-1, -2):
        with pytest.raises(ValueError):
            a**e


def test_json_round_trip():
    a = CycElem.from_polynomial(12, [F(1, 2), 0, F(-7, 3), 5])
    data = a.to_json_dict()
    assert data["order"] == 12
    assert all(isinstance(s, str) for s in data["coeffs"])
    assert CycElem.from_json_dict(data) == a


def test_project_to_subfield():
    y = CycElem.from_polynomial(5, [F(1, 2), 3, 0, F(-2, 7)])
    assert project_to_subfield(y.embed(30), 5) == y
    with pytest.raises(FieldMembershipError):
        project_to_subfield(CycElem.zeta(30), 5)
    with pytest.raises(ValueError):
        project_to_subfield(CycElem.zeta(30), 7)


@pytest.mark.parametrize("order", [0, -1, -12])
def test_orders_below_one_are_refused_as_bad_input(order):
    """zeta, embed and project_to_subfield refuse an order below 1 with a
    ValueError naming it, before any arithmetic: not a ZeroDivisionError,
    a slicing error or the internal FieldMembershipError."""
    a = CycElem.from_polynomial(12, [1, 2, 0, F(-1, 3)])  # -12 is minus its order
    with pytest.raises(ValueError, match=r"^zeta needs order >= 1, got %d$" % order):
        CycElem.zeta(order)
    with pytest.raises(ValueError, match=r"^zeta needs order >= 1, got %d$" % order):
        CycElem.zeta(order, 5)
    with pytest.raises(ValueError, match=r"^cannot embed order 12 into order %d$" % order):
        a.embed(order)
    with pytest.raises(ValueError, match=r"^%d is not a positive divisor of the order 12$" % order):
        project_to_subfield(a, order)


small_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12])
small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def elements(draw, order=None):
    n = order if order is not None else draw(small_orders)
    coeffs = draw(
        st.lists(small_fraction, min_size=euler_phi(n), max_size=euler_phi(n))
    )
    return CycElem(n, tuple(coeffs))


@st.composite
def element_pairs(draw):
    n = draw(small_orders)
    return draw(elements(order=n)), draw(elements(order=n))


@st.composite
def element_triples(draw):
    n = draw(small_orders)
    return tuple(draw(elements(order=n)) for _ in range(3))


@settings(max_examples=200, deadline=None)
@given(
    elements(),
    st.sampled_from([1, 2, 3, 4, 12]),
    st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=12),
    st.integers(1, 2**40),
)
def test_coeff_strings_are_the_fraction_strings(a, order, nums, den):
    """The integer-derived coefficient strings of to_json_dict, repr and
    the CLI are str(Fraction) of each coefficient: negative and zero
    numerators, denominators above 1 that a coefficient may or may not
    share, order 1."""
    b = CycElem._from_ints(order, [c * 6 for c in nums], den * 6)
    for x in (a, b, CycElem.zero(), CycElem.from_rational(F(-7, 3))):
        strings = [str(c) for c in x.coeffs]
        assert x.coeff_strings() == strings
        assert x.to_json_dict()["coeffs"] == strings
        assert repr(x) == "CycElem(order=%d, coeffs=(%s))" % (x.order, ", ".join(strings))


@settings(max_examples=60, deadline=None)
@given(element_triples())
def test_ring_axioms(abc):
    a, b, c = abc
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(elements())
def test_inverse_of_mul_is_identity(a):
    if not a.is_zero:
        assert a * a.inverse() == CycElem.one(a.order)


@pytest.mark.parametrize("N", [1, 2, 47, 105, 211])
def test_inverse_of_dense_elements(N):
    # dense coefficients in [-9, 9]; at N = 1 and 2 there is no conjugate
    # to multiply, and the inverse is that of a rational
    rng = random.Random(N)
    a = CycElem(N, [rng.randint(-9, 9) for _ in range(euler_phi(N) - 1)] + [rng.randint(1, 9)])
    inv = a.inverse()
    assert a * inv == CycElem.one(N)
    assert inv.inverse() == a


@settings(max_examples=40, deadline=None)
@given(element_pairs())
def test_embed_is_ring_homomorphism(pair):
    a, b = pair
    M = a.order * 4
    assert (a * b).embed(M) == a.embed(M) * b.embed(M)
    assert (a + b).embed(M) == a.embed(M) + b.embed(M)


@settings(max_examples=40, deadline=None)
@given(element_pairs())
def test_complex_eval_is_multiplicative(pair):
    a, b = pair
    bound = 1e-9 * (1 + sum(abs(c) for c in a.coeffs) * sum(abs(c) for c in b.coeffs))
    assert abs(
        (a * b).complex_eval() - a.complex_eval() * b.complex_eval()
    ) < bound


@settings(max_examples=40, deadline=None)
@given(elements())
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(5, 30), (7, 42), (4, 12), (3, 15)]), st.data())
def test_projection_round_trip(orders, data):
    m, L = orders
    y = data.draw(elements(order=m))
    assert project_to_subfield(y.embed(L), m) == y


def _assert_lowest_terms(x):
    assert len(x.nums) == euler_phi(x.order)
    assert all(type(c) is int for c in x.nums)
    assert type(x.den) is int and x.den > 0
    assert math.gcd(x.den, *x.nums) == 1


def test_storage_examples():
    a = CycElem(4, ("2/4", "6/8"))
    assert (a.nums, a.den) == ((2, 3), 4)
    assert a.coeffs == (F(1, 2), F(3, 4))
    even = CycElem._from_ints(4, [2, 4], 6)
    assert (even.nums, even.den) == ((1, 2), 3)
    zero = CycElem._from_ints(5, [0, 0, 0, 0, 0, 0], 7)
    assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)
    assert zero == CycElem.zero(5)
    # both exact types share one value base: lowest terms from unreduced
    # ints, equal hashes, slots only; equal nums/den in the two types differ
    series = LaurentSeries._from_ints(0, [2, 4], 6, 2)
    for x, y in ((even, CycElem._from_ints(4, [1, 2], 3)),
                 (series, LaurentSeries._from_ints(0, [1, 2], 3, 2))):
        assert (x.nums, x.den) == (y.nums, y.den) == ((1, 2), 3)
        assert x == y and hash(x) == hash(y)
        assert not hasattr(x, "__dict__")
    assert even != series and series != even
    assert not even == series and not series == even


def test_shared_ring_operations_on_both_types():
    # the zero test, negation and subtraction of the exact values, on an
    # element with a denominator and on a series with a pole
    cyc = CycElem(12, (F(1, 3), F(-2, 5), 0, F(7, 2)))
    cyc_other = CycElem(12, (2, F(1, 6), F(-3, 4), 1))
    ser = LaurentSeries.from_terms(-2, [F(1, 3), 0, F(-5, 2), 4])
    ser_other = LaurentSeries(-1, [F(2, 7), 1, F(1, 2), 0, 3], 4)
    for x, y, zero in ((cyc, cyc_other, CycElem.zero(12)),
                       (ser, ser_other, LaurentSeries(2, (), 2))):
        assert x - y == x + (-y)
        for q in (3, F(-5, 6)):
            assert q - x == -(x - q)
        assert -x == x * -1 and -(-x) == x
        assert (x - x).is_zero and zero.is_zero and not x.is_zero
        for foreign in ("a", None):
            with pytest.raises(TypeError):
                x - foreign
            with pytest.raises(TypeError):
                foreign - x
    with pytest.raises(TypeError):
        cyc - ser
    with pytest.raises(ValueError, match="to_common_order"):
        cyc - CycElem.one(5)


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_storage_is_canonical(pair):
    a, b = pair
    n = a.order
    phi_n = cyclotomic_polynomial(n)
    # a + (x^2 + 3) * Phi_n, a polynomial longer than phi(n)
    longer = list(a.coeffs) + [0] * 3
    for i, q in enumerate(phi_n):
        longer[i] += 3 * q
        longer[i + 2] += q
    ways = [
        CycElem(n, ["%d/%d" % (2 * c.numerator, 2 * c.denominator) for c in a.coeffs]),
        CycElem._from_ints(n, [6 * c for c in a.nums], 6 * a.den),
        CycElem.from_polynomial(n, longer),
        CycElem.from_json_dict(a.to_json_dict()),
    ]
    ways.append(a * b + a * (1 - b))
    _assert_lowest_terms(a)
    for x in ways:
        _assert_lowest_terms(x)
        assert (x.order, x.nums, x.den) == (a.order, a.nums, a.den)
        assert x == a and hash(x) == hash(a)


# -- big-integer (Kronecker) kernels against the schoolbook loops -------------

# Phi_105 has the coefficient -2; 2162 = lcm(47, 46) is the largest common
# field of the default float sweep
KERNEL_ORDERS = (1, 2, 12, 105, 506, 2162)
LENGTHS = ("below_phi", "phi", "up_to_n", "above_n", "at_least_2n")


@st.composite
def int_vectors(draw, length):
    """A reproducible int vector: zero, sparse or dense, with entries of up
    to 200 bits, of mixed signs or all at the largest size with one sign
    (which meets the coefficient bounds of a product with equality)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    bits = draw(st.sampled_from((1, 8, 63, 64, 65, 200)))
    density = draw(st.sampled_from((0.0, 0.1, 1.0)))
    sign = draw(st.sampled_from((0, 1, -1)))
    return [
        (sign * 2**bits if sign else rng.randint(-(2**bits), 2**bits))
        if rng.random() < density
        else 0
        for _ in range(length)
    ]


@st.composite
def reduction_inputs(draw):
    N = draw(st.sampled_from(KERNEL_ORDERS))
    d = euler_phi(N)
    kind = draw(st.sampled_from(LENGTHS))
    lo, hi = {
        "below_phi": (0, d - 1),
        "phi": (d, d),
        "up_to_n": (d, N),
        "above_n": (N + 1, 2 * N),
        "at_least_2n": (2 * N, 3 * N),
    }[kind]
    return N, draw(int_vectors(draw(st.integers(lo, hi))))


@settings(max_examples=80, deadline=None)
@given(reduction_inputs())
def test_kronecker_reduce_matches_schoolbook(case):
    N, v = case
    expected = cyclotomic._schoolbook_reduce(v, N)
    assert len(expected) == euler_phi(N)
    assert cyclotomic._kronecker_reduce(v, (1,), N) == expected
    assert cyclotomic._reduce_mod_phi(v, N) == expected


def test_reduce_mod_phi_matches_schoolbook_at_every_length():
    """Every order up to 40 and every input length from 0 to 2N: padded
    below phi(N), unchanged at it, and through the schoolbook loop or the
    packed kernel above it."""
    kernels = set()
    for N in range(1, 41):
        d, _, packed_from = cyclotomic._residue_plan(N)
        assert d == euler_phi(N)
        rng = random.Random(N)
        for n in range(2 * N + 1):
            v = [rng.choice((0, rng.randint(-9, 9), rng.randint(-(2**70), 2**70))) for _ in range(n)]
            expected = cyclotomic._schoolbook_reduce(v, N)
            assert len(expected) == d
            assert list(cyclotomic._reduce_mod_phi(v, N)) == expected, (N, n)
            kernels.add("pad" if n < d else "none" if n == d else
                        "packed" if n >= packed_from else "schoolbook")
    assert kernels == {"pad", "none", "schoolbook", "packed"}


@st.composite
def product_inputs(draw):
    N = draw(st.sampled_from(KERNEL_ORDERS))
    d = euler_phi(N)
    return N, draw(int_vectors(d)), draw(int_vectors(d))


@settings(max_examples=30, deadline=None)
@given(product_inputs())
def test_kronecker_mul_matches_schoolbook(case):
    # phi(N) < _KRONECKER_MIN for N = 1, 2, 12: CycElem.__mul__ stays on
    # the schoolbook side there and takes the kernel for the others
    N, a, b = case
    expected = cyclotomic._schoolbook_reduce(cyclotomic._schoolbook_mul(a, b), N)
    assert cyclotomic._kronecker_reduce(a, b, N) == expected
    x, y = CycElem._from_ints(N, a, 3), CycElem._from_ints(N, b, 5)
    assert x * y == CycElem._from_ints(N, expected, 15)


K = cyclotomic._KRONECKER_MIN
CUTOFF_SIZES = st.one_of(st.integers(0, 30), st.sampled_from((K - 1, K, K + 1)))


def _terms(draw, N, n, spread):
    """n (exponent, coefficient) terms, exponents from all of 0..N-1 or,
    repeated, from the first one or three, and about one coefficient in
    four zero."""
    cs = draw(int_vectors(n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return [(rng.randrange(min(spread or N, N)), c if rng.random() > 0.25 else 0) for c in cs]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((1, 2, 12, 105, 506)),
    st.integers(0, 4),
    st.data(),
)
def test_cyclic_products_match_schoolbook(N, count, data):
    """_cyclic_sum of up to four products of two term lists, each list with
    up to 30 terms or one of _KRONECKER_MIN - 1, _KRONECKER_MIN and
    _KRONECKER_MIN + 1, with repeated exponents and zero coefficients on
    either side, is the literal double sum over every pair of terms."""
    products = []
    for _ in range(count):
        spreads = [data.draw(st.sampled_from((None, 1, 3))) for _ in range(2)]
        products.append(tuple(_terms(data.draw, N, data.draw(CUTOFF_SIZES), spread) for spread in spreads))
    expected = [0] * N
    for a, b in products:
        for i, c in a:
            for j, e in b:
                expected[(i + j) % N] += c * e
    # the first factor may be an iterator, read once
    assert cyclotomic._cyclic_sum([(iter(a), b) for a, b in products], N) == expected


def test_cofactor_times_phi_is_x_to_the_n_minus_1():
    for N in KERNEL_ORDERS + (30, 64, 210):
        psi, gain = cyclotomic._cofactor(N)
        assert psi[-1] == 1 and gain >= 1
        prod = cyclotomic._schoolbook_mul(psi, cyclotomic_polynomial(N))
        assert prod == [-1] + [0] * (N - 1) + [1]


# -- tensor-basis projection against a Galois-invariance oracle ---------------

PROJECTION_ORDERS = (1, 2, 4, 8, 9, 12, 30, 105, 294, 506, 1640, 2162)


def _in_subfield(a, m):
    """Whether a lies in Q(zeta_m): whether every sigma_j with j = 1 mod m
    fixes it."""
    L = a.order
    return all(a.galois(j) == a for j in range(1, L, m) if math.gcd(j, L) == 1)


def _cyclic_representative(a, rng):
    """L ints for a in Z[x]/(x^L - 1): its numerators plus random multiples
    of x^s * Phi_L, taken modulo x^L - 1."""
    L = a.order
    v = list(a.nums) + [0] * (L - len(a.nums))
    for _ in range(3):
        s, c = rng.randrange(L), rng.randint(-(10**6), 10**6)
        for i, t in enumerate(cyclotomic_polynomial(L)):
            v[(s + i) % L] += c * t
    return v


@pytest.mark.parametrize("L", PROJECTION_ORDERS)
def test_project_cyclic_against_galois_oracle(L):
    rng = random.Random(L)
    raised = 0
    for m in divisors(L):
        nums = [rng.randint(-(10**9), 10**9) for _ in range(euler_phi(m))]
        y = CycElem._from_ints(m, nums, rng.randint(1, 99))
        a = y.embed(L)
        assert _in_subfield(a, m)
        v = _cyclic_representative(a, rng)
        assert cyclotomic._project_cyclic(v, a.den, L, m) == y
        assert cyclotomic._project_cyclic([3 * c for c in v], 3 * a.den, L, m) == y
        # off the subfield: add a root of unity, or take a dense element
        dense = CycElem._from_ints(L, [rng.randint(-99, 99) for _ in range(L)], 7)
        for b in (a + CycElem.zeta(L, 1), a + CycElem.zeta(L, rng.randrange(L)), dense):
            v = _cyclic_representative(b, rng)
            if _in_subfield(b, m):
                assert cyclotomic._project_cyclic(v, b.den, L, m).embed(L) == b
            else:
                raised += 1
                with pytest.raises(FieldMembershipError):
                    cyclotomic._project_cyclic(v, b.den, L, m)
    # Q(zeta_2) = Q, so only L > 2 has proper subfields
    assert raised or L <= 2
