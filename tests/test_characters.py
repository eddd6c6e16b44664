import math

import pytest

from charcoords.arith import divisors, euler_phi, units
from charcoords.characters import (
    _gauss_terms,
    character_group,
    enumerate_characters,
    gauss_sum,
    gauss_sum_float,
)
from charcoords.cyclotomic import CycElem, _combination, to_common_order
from charcoords.memo import clear_memos


def test_enumeration_counts():
    assert len(enumerate_characters(4)) == 2
    assert len(enumerate_characters(2)) == 1
    assert sorted(chi.order for chi in enumerate_characters(5)) == [1, 2, 4, 4]
    for n in range(2, 31):
        chars = enumerate_characters(n)
        assert len(chars) == len(set(chars)) == len(units(n))
        assert chars[0].is_principal
        assert [chi.index for chi in chars] == list(range(len(chars)))
    with pytest.raises(ValueError):
        enumerate_characters(1)


def test_eval_basics():
    for n in (4, 5, 12):
        for chi in enumerate_characters(n):
            assert chi.eval(1) == CycElem.one(chi.order)
    chi = enumerate_characters(4)[1]
    assert chi.eval(3) == CycElem.from_rational(-1, 2)
    assert chi.eval(2).is_zero
    assert chi.eval(7) == chi.eval(3)  # periodic mod n


def test_multiplicativity():
    for n in range(2, 31):
        for chi in enumerate_characters(n):
            for k in units(n):
                for l in units(n):
                    lhs = chi.eval(k) * chi.eval(l)
                    assert lhs == chi.eval((k * l) % n)


def test_value_order():
    for n in (5, 7, 8, 12):
        for chi in enumerate_characters(n):
            m = chi.order
            assert chi.order == m
            for k in units(n):
                assert chi.eval(k) ** m == CycElem.one(m)


def test_orthogonality():
    # sum over all chi of chi(k) is phi(n) at k = 1 mod n, else 0
    for n in range(2, 21):
        chars = enumerate_characters(n)
        L = math.lcm(*[chi.order for chi in chars])
        for k in units(n):
            total = CycElem.zero(L)
            for chi in chars:
                total = total + chi.eval(k).embed(L)
            if k % n == 1 % n:
                assert total == CycElem.from_rational(len(chars), L)
            else:
                assert total.is_zero


def test_parity():
    for n in range(2, 25):
        assert enumerate_characters(n)[0].parity() == 1
    assert enumerate_characters(4)[1].parity() == -1
    quad = enumerate_characters(5)[2]
    assert quad.order == 2 and quad.parity() == 1


def test_hash_and_parity_are_fixed_at_construction():
    """The stored hash and parity are the values the character's data give:
    hash((n, exponents)) and chi(-1) read off the log table; a character
    built directly, not interned, hashes equal and finds the same memo
    entry."""
    from charcoords.characters import DirichletCharacter
    from charcoords.coordinates import coord_cotangent_closed

    for n in range(2, 61):
        for chi in enumerate_characters(n):
            assert hash(chi) == hash((n, chi.exponents))
            e = chi.value_exponent(n - 1)
            assert chi.parity() == (1 if e == 0 else -1)
            assert e == 0 or 2 * e == chi.order
            twin = DirichletCharacter(chi.group, chi.exponents)
            assert twin is not chi and twin == chi and hash(twin) == hash(chi)
            assert twin.parity() == chi.parity()
    chi = enumerate_characters(35)[7]
    j = 1 if chi.parity() == -1 else 2
    value = coord_cotangent_closed(chi, j)
    hits = coord_cotangent_closed.cache_info().hits
    twin = DirichletCharacter(chi.group, chi.exponents)
    assert coord_cotangent_closed(twin, j) is value
    assert coord_cotangent_closed.cache_info().hits == hits + 1


def test_conductor():
    for n in (4, 6, 9, 12, 30):
        assert enumerate_characters(n)[0].conductor() == 1
    assert enumerate_characters(4)[1].conductor() == 4
    # mod 8 character with chi(5) = 1, chi(7) = -1 factors through mod 4
    for chi in enumerate_characters(8):
        values = (chi.eval(5), chi.eval(7))
        if values == (CycElem.one(chi.order), CycElem.from_rational(-1, chi.order)):
            assert chi.conductor() == 4


def test_conductor_matches_definition():
    # the smallest f | n such that chi(k) = 1 for every unit k = 1 mod f
    for n in range(2, 65):
        for chi in enumerate_characters(n):
            expected = min(
                f for f in divisors(n)
                if all(chi.eval(k) == CycElem.one(chi.order) for k in units(n) if k % f == 1 % f)
            )
            assert chi.conductor() == expected, (n, chi.exponents)


def test_primitive_part():
    triv = enumerate_characters(6)[0].primitive_part()
    assert triv.modulus == 1 and triv.order == 1
    assert triv.eval(17) == CycElem.one(1)
    chi4 = enumerate_characters(4)[1]
    assert chi4.primitive_part() == chi4
    for n in (8, 12, 15, 24):
        for chi in enumerate_characters(n):
            part = chi.primitive_part()
            f = chi.conductor()
            assert part.modulus == f
            assert part.conductor() == f  # primitive
            assert part.order == chi.order
            # values agree on residues coprime to n
            for k in units(n):
                assert part.eval(k) == chi.eval(k)


def test_conjugate_character():
    for n in (5, 7, 12):
        for chi in enumerate_characters(n):
            bar = chi.conjugate()
            for k in units(n):
                assert bar.eval(k) == chi.eval(k).conjugate()


def test_power_character():
    """chi^s(k) = chi(k)^s on every unit k, for -m <= s < 2m and n <= 40:
    for s a unit mod m, chi^s has order m and exponent s * e mod m where
    chi has e; otherwise its order m' divides m and its exponent is read
    in Q(zeta_m').  power(-1) is the shared conjugate."""
    for n in range(2, 41):
        for chi in enumerate_characters(n):
            m = chi.order
            assert chi.power(-1) is chi.conjugate()
            assert chi.power(1) is chi and chi.power(m + 1) is chi
            for s in range(-m, 2 * m):
                psi = chi.power(s)
                assert psi.modulus == n
                assert (psi.order == m) == (math.gcd(s, m) == 1)
                scale = m // psi.order
                for k, e in chi.unit_values():
                    assert psi.value_exponent(k) * scale == s * e % m, (n, chi.index, s, k)


def test_value_exponent_matches_log_table():
    """value_exponent against chi(g_i) = zeta_(d_i)^(e_i) on the CRT
    generators, for every residue -n..2n-1, n <= 64, and the conjugate;
    unit_values against value_exponent."""
    for n in range(2, 65):
        group_units = set(units(n))
        for chi in enumerate_characters(n):
            m = chi.order
            weights = [
                e * m // comp.order
                for comp, e in zip(chi.group.components, chi.exponents)
            ]
            bar = chi.conjugate()
            assert bar is chi.conjugate()
            assert bar.conjugate() == chi
            for k in range(-n, 2 * n):
                e = chi.value_exponent(k)
                if k % n not in group_units:
                    assert e is None and bar.value_exponent(k) is None, (n, k)
                    continue
                t = chi.group.log_table[k % n]
                assert e == sum(w * ti for w, ti in zip(weights, t)) % m, (n, chi.index, k)
                assert bar.value_exponent(k) == (-e) % m
            assert chi.unit_values() == [(k, chi.value_exponent(k)) for k in units(n)]


def test_characters_are_shared_per_group():
    """Enumeration, conjugate() and primitive_part() hand out one instance
    per character, so what it memoizes is computed once."""
    first, second = enumerate_characters(21), enumerate_characters(21)
    assert all(a is b for a, b in zip(first, second))
    for chi in first:
        assert chi.conjugate().conjugate() is chi
        chif = chi.primitive_part()
        assert chif is character_group(chif.modulus).character(chif.exponents)
    chi = first[5]
    shifted = tuple(e + c.order for e, c in zip(chi.exponents, chi.group.components))
    assert chi.group.character(shifted) is chi


def test_a_group_never_changes_after_construction():
    """Every table and character is built by the constructor: nothing the
    characters do afterwards adds, replaces or fills in a field of a group."""
    clear_memos()  # fresh groups: a field filled on first use would still be unset
    groups = [character_group(n) for n in range(1, 61)]
    snapshot = [{key: id(value) for key, value in vars(g).items()} for g in groups]
    tables = [dict(g.log_table) for g in groups]
    for n in range(2, 61):
        for chi in enumerate_characters(n):
            for s in (-1, 0, 2, 3, chi.order + 1):
                chi.power(s)
            chi.conjugate()
            chi.primitive_part()
            chi.conductor()
            for k in range(n):
                chi.value_exponent(k)
            chi.unit_values()
    assert [character_group(n) for n in range(1, 61)] == groups
    assert [{key: id(value) for key, value in vars(g).items()} for g in groups] == snapshot
    assert [g.log_table for g in groups] == tables


def test_character_refuses_exponents_of_the_wrong_length():
    for n, count in ((5, 1), (8, 2), (24, 3)):
        g = character_group(n)
        assert len(g.components) == count
        for exponents in ((), (0,) * (count - 1), (1,) * (count + 1)):
            with pytest.raises(ValueError, match="one exponent per generator"):
                g.character(exponents)


def test_enumeration_returns_a_new_list_of_the_same_characters():
    """Each call returns its own list, so a caller may change it, holding
    the characters every earlier call held, by identity."""
    first = enumerate_characters(47)
    snapshot = list(first)
    first.append(first[0])
    first.reverse()
    second = enumerate_characters(47)
    assert second is not first
    assert len(second) == 46
    assert all(a is b for a, b in zip(second, snapshot))
    assert enumerate_characters(47) is not second
    g = character_group(47)
    assert second == [g.character((e,)) for e in range(46)]
    assert all(chi is g.character(chi.exponents) for chi in second)


def test_gauss_sum_examples():
    triv = enumerate_characters(4)[0].primitive_part()
    assert gauss_sum(triv) == CycElem.one(1)
    chi4 = enumerate_characters(4)[1]
    assert gauss_sum(chi4) == CycElem.from_polynomial(4, [0, 2])  # 2i
    quad5 = enumerate_characters(5)[2]
    tau = gauss_sum(quad5)
    # zeta_5 - zeta_5^2 - zeta_5^3 + zeta_5^4, embedded into the field of tau
    expected = CycElem.from_polynomial(5, [0, 1, -1, -1, 1])
    a, b = to_common_order(tau, expected)
    assert a == b
    assert tau.complex_eval() == pytest.approx(math.sqrt(5), abs=1e-12)


def test_gauss_sum_rejects_imprimitive():
    with pytest.raises(ValueError):
        gauss_sum(enumerate_characters(4)[0])


def test_gauss_sum_conjugate_product():
    # tau(chi) tau(conj chi) = chi(-1) f for primitive chi, here f <= 15
    for f in range(1, 16):
        if f > 2 and f % 4 == 2:
            continue
        chars = enumerate_characters(f) if f >= 2 else []
        prims = [chi for chi in chars if chi.conductor() == f]
        for chi in prims:
            prod = gauss_sum(chi) * gauss_sum(chi.conjugate())
            assert prod == CycElem.from_rational(chi.parity() * f, prod.order)


def test_gauss_sum_matches_defining_sum():
    # tau(chi) = sum over k of chi(k) zeta_f^k, summed in Q(zeta_lcm(f, m)),
    # for every primitive character of conductor f <= 30
    for f in range(3, 31):
        for chi in enumerate_characters(f):
            if chi.conductor() != f:
                continue
            J = math.lcm(f, chi.order)
            total = CycElem.zero(J)
            for k in units(f):
                total = total + chi.eval(k).embed(J) * CycElem.zeta(f, k).embed(J)
            assert gauss_sum(chi) == total


def test_gauss_sum_float_is_the_double_of_the_exact_residue():
    """On every primitive character of conductor <= 50, the float suite's
    range, the double summed from the phi(f) terms and the double of the
    exact residue in Q(zeta_J) agree within the sum of their bounds:
    4 phi(J) sum|coeffs| 2^-52 (complex_eval's) and 4 phi(f) 2^-52.  The
    float suite no longer evaluates the residue, so this ties it to a
    double."""
    primitive = {chi.primitive_part() for n in range(2, 51) for chi in enumerate_characters(n)}
    assert len(primitive) == 471
    for chi in primitive:
        tau = gauss_sum(chi)
        bound = (4 * euler_phi(tau.order) * sum(map(abs, tau.nums)) / tau.den
                 + 4 * euler_phi(chi.modulus)) * 2.0 ** -52
        assert abs(tau.complex_eval() - gauss_sum_float(chi)) <= bound, chi


def test_gauss_terms_are_the_nonzero_part_of_the_dense_sum():
    """A cold _gauss_terms, read off the units, gives J = lcm(f, m) and a
    list of distinct ascending exponents below J with positive unit counts
    summing to phi(f); its terms c * zeta_J^i add up to the literal sum of
    chi(k) zeta_f^k over the units k, each term a product of CycElem.zeta
    values; and gauss_sum is that element.  For every primitive character
    of conductor f <= 40."""
    for f in range(3, 41):
        for chi in enumerate_characters(f):
            if chi.conductor() != f:
                continue
            J, terms = _gauss_terms.__wrapped__(chi)
            assert J == math.lcm(f, chi.order)
            exponents = [i for i, _ in terms]
            assert exponents == sorted(set(exponents)) and 0 <= exponents[0] and exponents[-1] < J
            assert all(c > 0 for _, c in terms) and sum(c for _, c in terms) == len(units(f))
            literal = _combination(J, [(CycElem.zeta(chi.order, chi.value_exponent(k)).embed(J)
                                        * CycElem.zeta(f, k).embed(J), 1) for k in units(f)])
            assert _combination(J, [(CycElem.zeta(J, i), c) for i, c in terms]) == literal, (f, chi.index)
            assert gauss_sum(chi) == literal
            assert _gauss_terms(chi) == (J, terms)


def test_mod8_group_convention():
    g = character_group(8)
    assert [c.prime_power for c in g.components] == [8, 8]
    assert g.components[0].generator == 7  # -1 first
    assert g.components[1].generator == 5
    g9 = character_group(9)
    assert g9.components[0].generator == 2  # smallest primitive root mod 9


def test_principal_mod_2():
    chi = enumerate_characters(2)[0]
    assert chi.order == 1
    assert chi.eval(1) == CycElem.one(1)
    assert chi.eval(2).is_zero
    assert chi.parity() == 1
    assert chi.conductor() == 1
