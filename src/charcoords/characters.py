"""Dirichlet characters mod n: enumeration, evaluation, conductors, Gauss sums.

A character is represented by its exponent vector on a fixed list of CRT
generators of the unit group (Z/n)*.  The generator convention, which also
fixes the character indexing used by the CLI, is:

* components are ordered by prime, the 2-part first;
* for an odd prime power p^a the generator is the smallest primitive root
  mod p^a;
* for modulus 4 the generator is 3; for 2^a with a >= 3 the two generators
  are -1 (order 2) and 5 (order 2^(a-2)), in that order;
* modulus 2 contributes no generators (its unit group is trivial).

The index of a character is the lexicographic rank of its exponent vector,
so the principal character always has index 0.  The group mod n builds its
tables and every character in its constructor and never changes afterwards;
:func:`character_group` hands out that one complete group per modulus.

Character values are exact roots of unity in Q(zeta_m), where m is the
multiplicative order of the character.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import NamedTuple

from .arith import divisors, euler_phi, prime_factors, units
from .cyclotomic import CycElem
from .memo import memo


class CrtComponent(NamedTuple):
    prime_power: int
    generator: int        # residue mod prime_power
    order: int
    generator_mod_n: int  # CRT lift: generator mod prime_power, 1 elsewhere


def _smallest_primitive_root(q: int) -> int:
    """Smallest primitive root modulo an odd prime power q."""
    phi = euler_phi(q)
    targets = prime_factors(phi)
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi // p, q) != 1 for p in targets):
            return g
    raise ArithmeticError("no primitive root mod %d" % q)


def _crt_lift(g: int, q: int, n: int) -> int:
    rest = n // q
    if rest == 1:
        return g % n
    return (g * rest * pow(rest, -1, q) + q * pow(q, -1, rest)) % n


def _rank(components: tuple[CrtComponent, ...], exponents) -> int:
    """Lexicographic rank of the exponents, each taken mod its component's order."""
    rank = 0
    for comp, e in zip(components, exponents):
        rank = rank * comp.order + e % comp.order
    return rank


class CharacterGroup:
    """The group of Dirichlet characters mod n, with its CRT generators.

    The constructor builds all of it, and nothing changes it afterwards:
    the components, log_table (unit residue -> exponent tuple on the
    generators, in lexicographic exponent order), unit_columns (units(n)
    ascending, and per generator its exponents in those units) and
    characters (all of them, in lexicographic exponent order).
    """

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.modulus = modulus
        self.phi = euler_phi(modulus)
        comps: list[CrtComponent] = []
        for p, a in sorted(prime_factors(modulus).items()):
            q = p**a
            if p == 2:
                if a == 1:
                    continue
                if a == 2:
                    comps.append(CrtComponent(q, 3, 2, _crt_lift(3, q, modulus)))
                else:
                    comps.append(CrtComponent(q, q - 1, 2, _crt_lift(q - 1, q, modulus)))
                    comps.append(CrtComponent(q, 5, 2 ** (a - 2), _crt_lift(5, q, modulus)))
            else:
                g = _smallest_primitive_root(q)
                comps.append(CrtComponent(q, g, euler_phi(q), _crt_lift(g, q, modulus)))
        self.components = tuple(comps)
        table: dict[int, tuple[int, ...]] = {}
        for exps in itertools.product(*(range(c.order) for c in self.components)):
            u = 1 % modulus
            for comp, e in zip(self.components, exps):
                u = (u * pow(comp.generator_mod_n, e, modulus)) % modulus
            table[u] = exps
        if len(table) != self.phi:
            raise ArithmeticError("generators do not generate (Z/%d)*" % modulus)
        self.log_table = table
        ks = units(modulus)
        self.unit_columns = (ks, tuple(zip(*(table[k % modulus] for k in ks))))
        self.characters = tuple(DirichletCharacter(self, exps) for exps in table.values())

    def character(self, exponents: tuple[int, ...]) -> "DirichletCharacter":
        """The group's character with these exponents, each taken mod its
        generator's order: the one instance, so a memo keyed on a character
        finds it by identity."""
        if len(exponents) != len(self.components):
            raise ValueError("need one exponent per generator")
        return self.characters[_rank(self.components, exponents)]

    def __repr__(self):
        return "CharacterGroup(%d)" % self.modulus


@memo
def character_group(n: int) -> CharacterGroup:
    return CharacterGroup(n)


class DirichletCharacter:
    """A Dirichlet character mod n, given by exponents on the CRT generators.

    chi(generator_i) = zeta_{d_i}^{exponents_i} where d_i is the component
    order.  Values lie in Q(zeta_m) with m the order of the character.
    """

    def __init__(self, group: CharacterGroup, exponents):
        self.group = group
        self.modulus = group.modulus
        exponents = tuple(exponents)
        if len(exponents) != len(group.components):
            raise ValueError("need one exponent per generator")
        self.exponents = tuple(e % c.order for e, c in zip(exponents, group.components))
        m = 1
        for comp, e in zip(group.components, self.exponents):
            if e:
                m = math.lcm(m, comp.order // math.gcd(comp.order, e))
        self.order = m
        # chi(generator_i) = zeta_m ** _weights[i]
        self._weights = tuple(e * m // comp.order
                              for comp, e in zip(group.components, self.exponents))
        # every memo and dict lookup hashes the character, and every closed
        # form and defining sum asks its parity: both are fixed at construction
        self._hash = hash((group.modulus, self.exponents))
        e = self.value_exponent(group.modulus - 1)
        if e and 2 * e != m:
            raise ArithmeticError("chi(-1) is not +-1")
        self._parity = -1 if e else 1

    @property
    def is_principal(self) -> bool:
        return not any(self.exponents)

    @property
    def index(self) -> int:
        """Lexicographic rank of the exponent vector: group.characters[index] == chi."""
        return _rank(self.group.components, self.exponents)

    def value_exponent(self, k: int):
        """e with chi(k) = zeta_m^e, or None when gcd(k, n) > 1."""
        t = self.group.log_table.get(k % self.modulus)
        if t is None:
            return None
        return sum(w * ti for w, ti in zip(self._weights, t)) % self.order

    def unit_values(self) -> list[tuple[int, int]]:
        """(k, value_exponent(k)) for every unit k mod n, k ascending.

        For loops that visit every unit: one pass per generator over the
        group's unit_columns, and nothing is kept on the character.
        """
        ks, columns = self.group.unit_columns
        es = [0] * len(ks)
        for w, col in zip(self._weights, columns):
            if w:
                es = [e + w * t for e, t in zip(es, col)]
        m = self.order
        return list(zip(ks, [e % m for e in es]))

    def eval(self, k: int) -> CycElem:
        """chi(k) as an exact element of Q(zeta_m); zero off the units."""
        e = self.value_exponent(k)
        if e is None:
            return CycElem.zero(self.order)
        return CycElem.zeta(self.order, e)

    def parity(self) -> int:
        """chi(-1), i.e. +1 for even characters and -1 for odd ones."""
        return self._parity

    def power(self, s: int) -> "DirichletCharacter":
        """chi^s, k -> chi(k)^s (exponent vector times s), the group's one instance."""
        return self.group.character(tuple(s * e for e in self.exponents))

    def conjugate(self) -> "DirichletCharacter":
        """The complex-conjugate character chi^-1."""
        return self.power(-1)

    @memo
    def conductor(self) -> int:
        """Smallest f | n with chi trivial on units congruent to 1 mod f."""
        n = self.modulus
        return next(
            f for f in divisors(n)
            if all(
                self.value_exponent(k) == 0
                for k in range(1, n, f)
                if math.gcd(k, n) == 1
            )
        )

    @memo
    def primitive_part(self) -> "DirichletCharacter":
        """The primitive character mod conductor(chi) inducing chi."""
        f = self.conductor()
        gf = character_group(f)
        exps = []
        for comp in gf.components:
            g = comp.generator_mod_n
            k = next(
                k for k in range(g, g + self.modulus + 1, f)
                if math.gcd(k, self.modulus) == 1
            )
            e = self.value_exponent(k)
            if (e * comp.order) % self.order:
                raise ArithmeticError("incompatible component order")
            exps.append((e * comp.order // self.order) % comp.order)
        return gf.character(tuple(exps))

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and other.modulus == self.modulus
            and other.exponents == self.exponents
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "DirichletCharacter(modulus=%d, exponents=%s)" % (
            self.modulus,
            self.exponents,
        )


def enumerate_characters(n: int) -> list[DirichletCharacter]:
    """All phi(n) characters mod n, in lexicographic exponent order.

    Index 0 is the principal character.
    """
    if n < 2:
        raise ValueError("character enumeration needs n >= 2")
    return list(character_group(n).characters)  # a new list: callers may change it


@memo
def _gauss_terms(chi: DirichletCharacter) -> tuple[int, tuple[tuple[int, int], ...]]:
    """J = lcm(f, m) and the nonzero (exponent, coefficient) pairs of tau(chi)
    in Z[x]/(x^J - 1), ascending, for chi primitive mod f; a non-primitive
    chi is rejected.  chi(k) zeta_f^k sits at (J/m)*e + (J/f)*k mod J, so
    the list takes phi(f) steps, not J.  The one term list of a Gauss sum:
    gauss_sum's vector, the terms gauss_sum_float adds up, and, at stride
    L/J, the factor reconstruction hands to cyclotomic._cyclic_sum."""
    f = chi.modulus
    if chi.conductor() != f:
        raise ValueError("a Gauss sum needs a primitive character")
    J = math.lcm(f, chi.order)
    stride_f = J // f
    stride_m = J // chi.order
    terms: dict[int, int] = {}
    for k, e in chi.unit_values():
        i = (stride_m * e + stride_f * k) % J
        terms[i] = terms.get(i, 0) + 1
    return J, tuple(sorted(terms.items()))


@memo
def gauss_sum(chi: DirichletCharacter) -> CycElem:
    """tau(chi) = sum_{k=1}^{f} chi(k) zeta_f^k for chi primitive mod f.

    The result lives in Q(zeta_lcm(f, m)).  Non-primitive characters are
    rejected; pass primitive_part() first.  The float suite does not
    evaluate this residue: it takes tau from gauss_sum_float, which sums
    the same term list in doubles.
    """
    J, terms = _gauss_terms(chi)
    vec = [0] * J
    for i, c in terms:
        vec[i] = c
    return CycElem._from_ints(J, vec)


def gauss_sum_float(chi: DirichletCharacter) -> complex:
    """tau(chi) in doubles, for chi primitive mod f: c exp(2 pi i j/J)
    summed over the (j, c) of gauss_sum's term list, j ascending.

    Its phi(f) terms give an error of about phi(f) ulps, far below the
    4 phi(J) sum|coeffs| 2^-52 bound of gauss_sum(chi).complex_eval(),
    and no residue mod Phi_J is built.
    """
    J, terms = _gauss_terms(chi)
    return sum(c * cmath.exp(2j * math.pi * i / J) for i, c in terms)
