from fractions import Fraction as F

import pytest

from charcoords import coordinates
from charcoords.arith import units
from charcoords.bernoulli import (
    bernoulli_number,
    bernoulli_polynomial,
    generalized_bernoulli,
)
from charcoords.characters import enumerate_characters
from charcoords.cyclotomic import CycElem


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == F(-1, 2)
    assert bernoulli_number(2) == F(1, 6)
    assert bernoulli_number(12) == F(-691, 2730)
    for m in range(3, 25, 2):
        assert bernoulli_number(m) == 0
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def _horner(coeffs, x):
    """The polynomial with ascending coefficients coeffs at x, in Fractions."""
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_bernoulli_polynomials():
    assert bernoulli_polynomial(0) == (F(1),)
    assert bernoulli_polynomial(1) == (F(-1, 2), F(1))
    assert bernoulli_polynomial(2) == (F(1, 6), F(-1), F(1))


def test_bernoulli_polynomial_identities():
    for r in range(0, 21):
        poly = bernoulli_polynomial(r)
        assert _horner(poly, F(0)) == bernoulli_number(r)
        if r >= 2:
            assert _horner(poly, F(1)) == _horner(poly, F(0))
        if r >= 1:
            # d/dx B_r = r * B_(r-1), as a coefficient identity
            assert tuple(i * c for i, c in enumerate(poly) if i) == tuple(
                r * c for c in bernoulli_polynomial(r - 1)
            )


def test_generalized_bernoulli_examples():
    chi4 = enumerate_characters(4)[1]
    assert generalized_bernoulli(1, chi4) == CycElem.from_rational(F(-1, 2), 2)
    triv = enumerate_characters(4)[0].primitive_part()
    assert generalized_bernoulli(1, triv) == CycElem.from_rational(F(1, 2))
    assert generalized_bernoulli(2, triv) == CycElem.from_rational(F(1, 6))
    quad5 = enumerate_characters(5)[2]
    assert generalized_bernoulli(2, quad5) == CycElem.from_rational(F(4, 5), 2)


def test_generalized_bernoulli_parity_vanishing():
    # B_{r, chi} = 0 when chi(-1) != (-1)^r, for primitive chi
    for f in range(3, 21):
        if f % 4 == 2:
            continue
        for chi in enumerate_characters(f):
            if chi.conductor() != f:
                continue
            for r in range(1, 7):
                value = generalized_bernoulli(r, chi)
                if chi.parity() != (-1) ** r:
                    assert value.is_zero, (f, chi.index, r)


def test_generalized_bernoulli_conjugation():
    for f in (5, 7, 12, 13):
        for chi in enumerate_characters(f):
            if chi.conductor() != f:
                continue
            for r in (1, 2, 3):
                assert generalized_bernoulli(r, chi).conjugate() == generalized_bernoulli(
                    r, chi.conjugate()
                )


def test_generalized_bernoulli_rejects_imprimitive():
    imprim = enumerate_characters(8)[2]  # conductor 4
    assert imprim.conductor() == 4
    with pytest.raises(ValueError):
        generalized_bernoulli(1, imprim)


def _primitive_characters(f_max):
    yield enumerate_characters(2)[0].primitive_part()  # conductor 1
    for f in range(3, f_max + 1):
        for chi in enumerate_characters(f):
            if chi.conductor() == f:
                yield chi


def test_generalized_bernoulli_matches_fraction_definition():
    """The integer kernel against f^(r-1) * sum_k B_r(k/f) chi(k), summed in
    Fractions, for every primitive character of conductor <= 40."""
    for chi in _primitive_characters(40):
        f, m = chi.modulus, chi.order
        for r in range(1, 11):
            poly = bernoulli_polynomial(r)
            acc = [F(0)] * m
            for k in units(f):
                acc[chi.value_exponent(k)] += _horner(poly, F(k, f))
            expected = CycElem.from_polynomial(m, acc) * F(f) ** (r - 1)
            assert generalized_bernoulli(r, chi) == expected, (f, chi.index, r)


def test_memoized_and_cold_closed_forms_agree():
    cached = coordinates._bernoulli_cached
    for n in (5, 8, 12, 15, 16):
        for chi in enumerate_characters(n):
            chif = chi.primitive_part()
            for r in range(1, 7):
                warm = cached(r, chif)
                assert warm is cached(r, chif)
                assert warm == cached.__wrapped__(r, chif) == generalized_bernoulli(r, chif)
            warm_closed = [coordinates.coord_power_closed(chi, r) for r in range(1, 7)]
            cached.cache_clear()
            assert warm_closed == [coordinates.coord_power_closed(chi, r) for r in range(1, 7)]
