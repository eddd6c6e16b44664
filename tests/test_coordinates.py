import cmath
import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcoords.arith import euler_phi, prime_factors, units
from charcoords.characters import enumerate_characters, gauss_sum
from charcoords import coordinates
from charcoords.coordinates import (
    _euler_divisors,
    _traces,
    coord_cotangent_closed,
    coord_definitional,
    coord_one,
    coord_power_closed,
    coord_power_primitive,
    coords_definitional_many,
    direct_sum_float,
    reconstruct,
)
from charcoords.cotangent import cotangent_number, icot_power, icot_value
from charcoords.cyclotomic import CycElem, project_to_subfield, to_common_order


def test_definitional_of_one_is_phi_for_principal():
    for n in (3, 4, 6, 10, 12):
        chi0 = enumerate_characters(n)[0]
        assert coord_definitional(chi0, CycElem.one(n)) == CycElem.from_rational(
            euler_phi(n), 1
        )


def test_definitional_mod4_icot():
    chi = enumerate_characters(4)[1]
    assert coord_definitional(chi, icot_value(4)) == CycElem.one(2)


def test_definitional_vanishes_for_odd_chi_on_reals():
    for n in (4, 5, 8, 12):
        for chi in enumerate_characters(n):
            if chi.parity() == -1:
                assert coord_definitional(chi, CycElem.one(n)).is_zero


def test_definitional_complex_character_regression():
    # order-4 character mod 5 with chi(2) = zeta_4; the coordinate of
    # i*cot(pi/5) is (6 + 2*zeta_4)/5, fixed by an independent hand
    # computation of the defining sum and of tau
    chi = enumerate_characters(5)[1]
    assert chi.eval(2) == CycElem.zeta(4)
    y = coord_definitional(chi, icot_value(5))
    assert y == CycElem(4, (F(6, 5), F(2, 5)))
    ybar = coord_definitional(chi.conjugate(), icot_value(5))
    assert ybar == CycElem(4, (F(6, 5), F(-2, 5)))


def test_definitional_rejects_order_mismatch():
    chi = enumerate_characters(4)[1]
    with pytest.raises(ValueError):
        coord_definitional(chi, CycElem.one(8))


def test_gauss_inverse_shortcut_matches_euclid():
    # the trace form of the defining sum rests on tau(chi_f) tau(conj(chi)_f)
    # = chi(-1) f, i.e. inverse(embed(tau(conj(chi)_f), L)) = chi(-1)/f *
    # tau(chi_f); pin that against the field inverse of the embedded Gauss sum
    for n, idx in ((4, 1), (5, 1), (5, 2), (7, 3), (12, 2)):
        chi = enumerate_characters(n)[idx]
        chif = chi.primitive_part()
        f = chif.modulus
        taubar = gauss_sum(chif.conjugate())
        tau = gauss_sum(chif)
        L = math.lcm(n, chi.order, taubar.order)
        assert taubar.embed(L).inverse() == tau.embed(L) * F(chi.parity(), f)


def test_definitional_is_linear():
    chi = enumerate_characters(5)[1]
    a = icot_value(5)
    b = icot_power(3, 5)
    lhs = coord_definitional(chi, a + b * F(2, 3))
    assert lhs == coord_definitional(chi, a) + coord_definitional(chi, b) * F(2, 3)


def test_definitional_galois_equivariance():
    # y(chi | sigma_k(a)) = chi(k) y(chi | a)
    for n in range(2, 21):
        a = icot_value(n)
        for chi in enumerate_characters(n):
            base = coord_definitional(chi, a)
            for k in units(n):
                assert coord_definitional(chi, a.galois(k)) == chi.eval(k) * base


def test_coord_one():
    assert coord_one(enumerate_characters(6)[0]) == CycElem.from_rational(2, 1)
    assert coord_one(enumerate_characters(4)[0]) == CycElem.from_rational(2, 1)
    for chi in enumerate_characters(12)[1:]:
        assert coord_one(chi).is_zero


def test_cotangent_closed_examples():
    chi = enumerate_characters(4)[1]
    # parity mismatch: even chi with odd j and vice versa give exact zero
    chi0 = enumerate_characters(4)[0]
    assert coord_cotangent_closed(chi0, 1).is_zero
    assert coord_cotangent_closed(chi, 2).is_zero
    # chi nontrivial mod 4, j = 1: chi(-1) (2n)/f * B_{1,chi} = (-1)*2*(-1/2) = 1
    assert coord_cotangent_closed(chi, 1) == CycElem.one(2)
    # quadratic character mod 5, j = 2: matches the definitional path
    quad = enumerate_characters(5)[2]
    assert coord_cotangent_closed(quad, 2) == coord_definitional(
        quad, cotangent_number(2, 5)
    )


def test_power_closed_examples():
    chi = enumerate_characters(4)[1]
    assert coord_power_closed(chi, 1) == coord_definitional(chi, icot_power(1, 4))
    assert coord_power_closed(chi, 1) == CycElem.one(2)
    chi0 = enumerate_characters(4)[0]
    # i^2 cot^2(pi/4) = -1, so the definitional value is -phi(4) = -2
    assert coord_definitional(chi0, icot_power(2, 4)) == CycElem.from_rational(-2, 1)
    assert coord_power_closed(chi0, 2) == CycElem.from_rational(-2, 1)
    assert coord_power_closed(chi0, 3).is_zero  # parity mismatch


def test_power_primitive_examples():
    chi = enumerate_characters(4)[1]
    assert coord_power_primitive(chi, 1) == CycElem.one(2)
    assert coord_power_primitive(chi, 3) == coord_definitional(chi, icot_power(3, 4))
    assert coord_power_primitive(chi, 2).is_zero  # parity mismatch
    chi0 = enumerate_characters(4)[0]
    with pytest.raises(ValueError):
        coord_power_primitive(chi0, 2)  # imprimitive


def test_imprimitive_euler_factors():
    # conductor-4 characters mod 12 exercise the Euler product over 2 and 3
    for chi in enumerate_characters(12):
        if chi.conductor() == 4:
            for j in (1, 3):
                closed = coord_cotangent_closed(chi, j)
                assert closed == coord_definitional(chi, cotangent_number(j, 12))
                if j == 1:
                    # chi(-1)*(24/4)*(1 - chibar_f(3)/3)*(-1/2) with chi(3)=-1
                    assert closed == CycElem.from_rational(4, 2)


def test_euler_terms_match_the_literal_product():
    """The expanded Euler terms of coord_cotangent_closed, sum over d | R of
    mu(d) (R/d)^j zeta_m^e(d) over R^j, equal the literal product over the
    primes p | n of the CycElem factors (1 - conj(chi_f)(p) p^-j), for
    every character mod n <= 60 and every j <= 8."""
    for n in range(2, 61):
        primes = sorted(prime_factors(n))
        for chi in enumerate_characters(n):
            chif = chi.primitive_part()
            m = chif.order
            R, divs = _euler_divisors(chif, n)
            for j in range(1, 9):
                literal = CycElem.one(m)
                for p in primes:
                    literal = literal * (1 - chif.conjugate().eval(p) * F(1, p**j))
                buckets = [0] * m
                for d, mu, e in divs:
                    buckets[e] += mu * (R // d) ** j
                assert CycElem._from_ints(m, buckets, R**j) == literal, (n, chi.index, j)


def test_closed_forms_are_galois_equivariant():
    """The fact the all-character orbit walk rests on, for the closed forms:
    y(chi^s | .) = galois_s(y(chi | .)) for every member chi^s of every
    Galois orbit mod n <= 60, (i cot)^d and the cotangent number for d <= 8,
    each member's closed form computed on its own."""
    for n in range(2, 61):
        for chi, members in coordinates._galois_orbits(n):
            for d in range(1, 9):
                power = coord_power_closed(chi, d)
                cotnum = coord_cotangent_closed.__wrapped__(chi, d)
                for s, psi in members:
                    assert coord_power_closed(psi, d) == power.galois(s), (n, psi.index, d)
                    assert coord_cotangent_closed.__wrapped__(psi, d) == cotnum.galois(s), (
                        n, psi.index, d)


def test_reconstruct_round_trip():
    for n in (4, 5, 12):
        chars = enumerate_characters(n)
        for a in (CycElem.one(n), icot_value(n), icot_power(2, n)):
            coords = {chi: coord_definitional(chi, a) for chi in chars}
            assert reconstruct(coords, n) == a
            # coordinates handed over in a larger field than Q(zeta_m)
            wide = {chi: y.embed(6 * y.order) for chi, y in coords.items()}
            assert reconstruct(wide, n) == a


def test_reconstruct_is_the_literal_inversion_formula():
    """reconstruct equals (1/phi(n)) sum over chi of
    y(chi|a).embed(L) * gauss_sum(conj(chi)_f).embed(L), computed with public
    operations and brought into Q(zeta_n) by project_to_subfield, for n <= 12
    on (i cot)^r, r <= 4, and the cotangent numbers, j <= 4, with the
    coordinates given in Q(zeta_m) and in Q(zeta_2m)."""
    for n in range(2, 13):
        chars = enumerate_characters(n)
        for a in [icot_power(r, n) for r in range(1, 5)] + [cotangent_number(j, n) for j in range(1, 5)]:
            coords = {chi: coord_definitional(chi, a) for chi in chars}
            for ys in (coords, {chi: y.embed(2 * y.order) for chi, y in coords.items()}):
                L = math.lcm(n, *(y.order for y in ys.values()))
                total = CycElem.zero(L)
                for chi, y in ys.items():
                    total = total + y.embed(L) * gauss_sum(chi.conjugate().primitive_part()).embed(L)
                literal = project_to_subfield(total * F(1, euler_phi(n)), n)
                assert reconstruct(ys, n) == literal == a, (n, a)


def test_parity_mismatch_is_the_one_zero():
    """Every parity-mismatched (chi, a) of acceptance criterion 8, n <= 30:
    the defining sum's buckets sum to zero and give the memoized zero of
    Q(zeta_m) itself, with no reduction."""
    cases = 0
    for n in range(2, 31):
        elements = [(0, CycElem.one(n))]
        elements += [(r % 2, icot_power(r, n)) for r in range(1, 5)]
        elements += [(j % 2, cotangent_number(j, n)) for j in range(1, 5)]
        for oddness, a in elements:
            for chi in enumerate_characters(n):
                if chi.parity() == (-1) ** (oddness + 1):
                    assert coord_definitional.__wrapped__(chi, a) is CycElem.zero(chi.order), (n, chi.index)
                    cases += 1
    assert cases == 1246


def test_orbit_coordinates_match_definitional():
    """coords_definitional_many, one defining sum per Galois orbit and
    galois_s for the other members, equals the per-character defining sum
    for every character mod n <= 64, on (i cot)^3, a cotangent number and
    a seeded dense element with denominators."""
    rng = random.Random(20250411)
    for n in range(2, 65):
        chars = enumerate_characters(n)
        dense = CycElem(n, [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(euler_phi(n))])
        for a in (icot_power(3, n), cotangent_number(4, n), dense):
            ys = coords_definitional_many(n, [a])[0]
            assert set(ys) == set(chars)
            for chi in chars:
                assert ys[chi] == coord_definitional.__wrapped__(chi, a), (n, chi.index)


def _batch(rng, n, size):
    """size elements of Q(zeta_n) in turn (i cot)^r, cotangent numbers and
    seeded dense elements with denominators, whose numerators take both
    signs and reach the largest numerator of the batch's other elements."""
    structured = [icot_power(1 + t // 3, n) if t % 3 == 0 else cotangent_number(1 + t // 3, n)
                  for t in range(size) if t % 3 != 2]
    top = max([max(map(abs, a.nums)) for a in structured] + [1])
    batch = []
    for t in range(size):
        if t % 3 == 2:
            nums = [rng.randint(-top, top) for _ in range(euler_phi(n))]
            nums[rng.randrange(len(nums))] = rng.choice((top, -top))
            batch.append(CycElem._from_ints(n, nums, rng.randint(1, 60)))
        else:
            batch.append(structured.pop(0))
    return batch


def test_batched_defining_sums_match_the_one_element_sum():
    """For every n <= 64, on batches of 1 to 13 elements: coords_definitional_many,
    each element's traces once and one bucket sum per Galois orbit, gives
    every element's coordinate at every character as the one-element
    defining sum does."""
    rng = random.Random(20251019)
    for n in range(2, 65):
        batch = _batch(rng, n, 1 + n % 13)
        coords = coords_definitional_many(n, batch)
        assert len(coords) == len(batch)
        for ys, a in zip(coords, batch):
            assert set(ys) == set(enumerate_characters(n))
            for chi, y in ys.items():
                assert y == coord_definitional.__wrapped__(chi, a), (n, chi.index)
    assert coords_definitional_many(7, []) == []


def test_ramanujan_sums_are_the_traces_of_the_roots():
    """The traces of 1 are the Ramanujan sums: _traces(1)[j], from the
    divisor form, is the exact sum of zeta_n^(jk) over the units k mod n,
    at every j < n, for every n <= 60."""
    for n in range(1, 61):
        table = _traces.__wrapped__(CycElem.one(n))
        assert len(table) == n
        for j, c in enumerate(table):
            trace = sum((CycElem.zeta(n, j * k) for k in units(n)), CycElem.zero(n))
            assert trace == CycElem.from_rational(c, n), (n, j)


def test_traces_are_den_times_the_traces_of_the_shifted_element():
    """_traces(a)[t] is den(a) times the exact rational sum of the
    conjugates galois(k) of zeta_n^t a over the units k mod n, for every
    t < n at n <= 40, on (i cot)^3, the cotangent number j = 4 and a seeded
    dense element with denominators."""
    rng = random.Random(20261021)
    for n in range(2, 41):
        dense = CycElem(n, [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(euler_phi(n))])
        for a in (icot_power(3, n), cotangent_number(4, n), dense):
            T = _traces.__wrapped__(a)
            assert len(T) == n
            for t in range(n):
                shifted = CycElem.zeta(n, t) * a
                trace = sum((shifted.galois(k) for k in units(n)), CycElem.zero(n))
                assert trace * a.den == CycElem.from_rational(T[t], n), (n, t)


def test_definitional_times_gauss_sum_is_the_literal_defining_sum():
    """y(chi|a) tau(conj(chi)_f) in Q(zeta_L), L = lcm(n, m), equals the sum
    of conj(chi)(k) sigma_k(a) over the units k, built term by term with
    galois and embed and no inverse, for every character mod n <= 30 and
    a = (i cot)^2, the cotangent number j = 3 and a seeded dense element
    with denominators."""
    rng = random.Random(20261020)
    for n in range(2, 31):
        dense = CycElem(n, [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(euler_phi(n))])
        for a in (icot_power(2, n), cotangent_number(3, n), dense):
            for chi in enumerate_characters(n):
                chibar = chi.conjugate()
                L = math.lcm(n, chi.order)
                literal = CycElem.zero(L)
                for k in units(n):
                    literal = literal + chibar.eval(k).embed(L) * a.galois(k).embed(L)
                tau = gauss_sum(chibar.primitive_part()).embed(L)
                assert coord_definitional(chi, a).embed(L) * tau == literal, (n, chi.index)


def test_reconstruct_rejects_missing():
    chars = enumerate_characters(5)
    coords = {chi: CycElem.zero(chi.order) for chi in chars[:-1]}
    with pytest.raises(ValueError):
        reconstruct(coords, 5)


def test_direct_sum_float():
    # matches complex_eval(y(conj chi | .) * tau(chi_f)) in double precision
    for n in (2, 4, 5, 7, 12):
        for r in (1, 2, 3):
            a = icot_power(r, n)
            for chi in enumerate_characters(n):
                left = direct_sum_float(chi, r)
                y = coord_definitional(chi.conjugate(), a)
                tau = gauss_sum(chi.primitive_part())
                yl, tl = to_common_order(y, tau)
                right = (yl * tl).complex_eval()
                assert abs(left - right) < 1e-8
    # even chi, odd power: the sum itself is (numerically) zero
    quad = enumerate_characters(5)[2]
    assert abs(direct_sum_float(quad, 1)) < 1e-9
    principal2 = enumerate_characters(2)[0]
    assert abs(direct_sum_float(principal2, 1)) < 1e-12


def test_direct_sum_float_is_the_literal_double_sum():
    # the tabled doubles must give the per-term sum bit for bit: same doubles,
    # same ** r, same k-ascending order of additions
    def bits(z):
        return z.real.hex(), z.imag.hex()

    for n in range(2, 31):
        for chi in enumerate_characters(n):
            m = chi.order
            for r in range(1, 11):
                total = 0j
                for k, e in chi.unit_values():
                    total += cmath.exp(2j * math.pi * e / m) * (1j / math.tan(math.pi * k / n)) ** r
                assert bits(direct_sum_float(chi, r)) == bits(total), (n, chi.index, r)


def test_direct_sum_float_high_precision():
    # the double sum against the same sum in mpmath at 110 bits
    chi = enumerate_characters(5)[1]
    n, m = chi.modulus, chi.order
    with mpmath.workprec(110):
        hi = mpmath.mpc(0)
        for k, e in chi.unit_values():
            z = mpmath.expjpi(mpmath.mpf(2 * e) / m)
            hi += z * (1j * mpmath.cot(mpmath.pi * k / n)) ** 2
    assert abs(direct_sum_float(chi, 2) - complex(hi)) < 1e-12


# moduli with imprimitive characters (8, 12, 15) and complex ones (5, 8, 15)
dense_moduli = st.sampled_from([5, 8, 12, 15])
mixed_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def dense_elements(draw, n):
    return CycElem(n, draw(st.lists(mixed_fraction, min_size=euler_phi(n), max_size=euler_phi(n))))


@settings(max_examples=25, deadline=None)
@given(dense_moduli.flatmap(dense_elements))
def test_reconstruct_round_trip_dense(a):
    coords = {chi: coord_definitional(chi, a) for chi in enumerate_characters(a.order)}
    assert reconstruct(coords, a.order) == a


@settings(max_examples=25, deadline=None)
@given(
    dense_moduli.flatmap(lambda n: st.tuples(dense_elements(n), dense_elements(n))),
    mixed_fraction,
)
def test_definitional_is_linear_dense(pair, q):
    a, b = pair
    for chi in enumerate_characters(a.order):
        lhs = coord_definitional(chi, a + b * q)
        assert lhs == coord_definitional(chi, a) + coord_definitional(chi, b) * q


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([5, 8, 9, 12, 15, 16]).flatmap(dense_elements))
def test_definitional_matches_literal_sum(a):
    # coord_definitional scatters a.nums without forming any sigma_k(a);
    # here every term conj(chi)(k) * sigma_k(a) is built in Q(zeta_L)
    n = a.order
    for chi in enumerate_characters(n):
        chibar = chi.conjugate()
        L = math.lcm(n, chi.order)
        total = CycElem.zero(L)
        for k in units(n):
            total = total + chibar.eval(k).embed(L) * a.galois(k).embed(L)
        tau = gauss_sum(chibar.primitive_part()).embed(L)
        expected = project_to_subfield(total * tau.inverse(), chi.order)
        assert coord_definitional.__wrapped__(chi, a) == expected, (n, chi.index)
