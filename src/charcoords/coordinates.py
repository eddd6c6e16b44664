"""Character coordinates of cyclotomic numbers.

For a in Q(zeta_n) and a Dirichlet character chi mod n, the coordinate
y(chi|a) is defined by

    y(chi|a) * tau(conj(chi)_f) = sum over units k mod n of conj(chi)(k) * sigma_k(a),

where f is the conductor of chi, chi_f its primitive part, tau the Gauss
sum and sigma_k the automorphism zeta_n -> zeta_n^k.  The coordinate lies
in the field of values Q(zeta_m), m = order of chi.

This module computes y(chi|a) three independent ways:

* :func:`coord_definitional` evaluates the defining sum exactly, as a
  trace of Q(zeta_n)/Q (below), and :func:`coords_definitional_many`
  every character's coordinate of many elements, one bucket sum per
  Galois orbit;
* :func:`coord_cotangent_closed` and :func:`coord_power_closed` use the
  closed forms through generalized Bernoulli numbers and Euler factors,
  summed in integer buckets (below);
* :func:`coord_power_primitive` uses the Bernoulli-convolution form that
  is valid for primitive characters,

each one entry of :data:`METHODS` (Method.coords: every character, one
value per Galois orbit), plus :func:`reconstruct` (recover a from all its
coordinates) and :func:`direct_sum_float`, a floating-point evaluation of
the raw character sum used only to cross-check ``complex_eval``, never to
adjudicate exact results.

Only :func:`reconstruct` works in a common Q(zeta_L), L = lcm(n, every
order), in Z[x]/(x^L - 1): one cyclotomic._cyclic_sum of one pair of term
lists per character, the coordinate's numerators at stride L/order and
the Gauss sum's terms at stride L/J, builds the one vector it hands
unreduced to the tensor-basis projection, which builds no element of
Q(zeta_L) and verifies membership of the result in Q(zeta_n) instead of
assuming it, raising FieldMembershipError on any violation (an
internal-consistency signal).  The defining sum builds no vector of length L: its buckets are
an element of Q(zeta_m) by construction, so no membership check guards
it.  A wrong definitional value is caught by the verify suites, which
compare it with the closed forms, and by the tests, which compare it with
the literal defining sum in Q(zeta_L).

Galois orbits.  Let chi have order m and let s be a unit mod m.  Take t
mod L = lcm(n, m) prime to L with t = s mod m (by the Chinese remainder
theorem: s on the primes of m, 1 on the others), and u = t mod n, a unit
mod n.  The automorphism sigma_t: zeta_L -> zeta_L^t raises every
character value, a power of zeta_m, to the power s, and sends zeta_n to
zeta_n^u and zeta_f to zeta_f^u (f | n).  Applied to the right side of
the defining identity it gives

    sum_k conj(chi^s)(k) sigma_(uk)(a) = chi^s(u) * sum_k conj(chi^s)(k) sigma_k(a),

and applied to the Gauss sum, with chi^s of the same conductor f and
primitive part (chi_f)^s, it gives chi^s(u) * tau(conj(chi^s)_f).  The
factor chi^s(u) cancels, so

    y(chi^s | a) = galois_s(y(chi | a)),

galois_s being zeta_m -> zeta_m^s on Q(zeta_m).  This uses only the
definitions.  The chi^s, s a unit mod m, are the generators of the cyclic
group chi generates, so these orbits partition the characters mod n and
one defining sum per orbit gives every coordinate.

The closed forms obey the same law term by term: chi^s keeps the parity
and conductor, (chi^s)_f = (chi_f)^s, and galois_s fixes the rationals and
sends conj(chi_f)(p) and B_(j, chi_f) to their values at chi_f^s.  So
_orbit_walk serves every method; the verify suites, being the check,
still compute each member's closed form on its own.

The defining sum as a trace.  Multiply the defining identity by
tau(chi_f).  For psi primitive mod f, tau(psi) tau(conj(psi)) = psi(-1) f
(an identity the tests check over every conductor in range), and
chi_f(-1) = chi(-1), so the left side becomes chi(-1) f y(chi|a).  On the
right, tau(chi_f) is the sum over units l mod f of chi_f(l) zeta_f^l;
for each unit k mod n substitute l = k l' mod f.  Then chi_f(k l') =
chi(k) chi_f(l'), conj(chi)(k) chi(k) = 1 and zeta_f^(k l') sigma_k(a) =
sigma_k(zeta_f^l' a), so the sum over k is a trace:

    chi(-1) f y(chi|a) = sum over units l mod f of chi_f(l) Tr(zeta_f^l a),

Tr = sum over units k of sigma_k, the trace of Q(zeta_n)/Q.  Tr(zeta_n^j)
is Ramanujan's sum c_n(j), the sum over d | gcd(j, n) of mu(n/d) d
(write the test gcd(k, n) = 1 as the sum of mu(e) over e | gcd(k, n);
the k mod n that e divides then add up to d = n/e when d | j, else 0).
With a = sum_i a_i zeta_n^i / den, zeta_f^l = zeta_n^(l n/f) and
chi_f(l) = zeta_m^e(l) this is

    f den chi(-1) y(chi|a) = sum over units l mod f of zeta_m^e(l) T(l n/f),
    T(t) = sum_i a_i c_n(i + t) = den Tr(zeta_n^t a)
         = sum over d | n of mu(n/d) d S_d(-t mod d),

S_d(r) the sum of the a_i with i = r mod d, one term per d with n/d
squarefree (the (d, mu(n/d)) list that builds Phi_n): m integer buckets
over one denominator f den, as the closed forms are built.  A
conductor-1 character gives y = Tr(a).  The T(t), t < n, depend on a
alone, so _traces takes all n of them once per element, and every
character's bucket sum then reads the phi(f) it needs; one Galois orbit
costs one bucket sum.

Closed forms in integer buckets.  Each closed form is built as m integers,
one per power of zeta_m, over one denominator, and becomes a CycElem once.
For the cotangent numbers the Euler factors are expanded first.  A prime
p | f has conj(chi_f)(p) = 0 and factor 1; let R be the product of the
other primes dividing n.  conj(chi_f) is completely multiplicative, so
with conj(chi_f)(p) = zeta_m^e(p) it is zeta_m^e(d) on d | R, e(d) the
sum of the e(p) over p | d, and

    prod_(p | R) (1 - conj(chi_f)(p) p^-j) = sum_(d | R) mu(d) conj(chi_f)(d) d^-j
                                          = R^-j * sum_(d | R) mu(d) (R/d)^j zeta_m^e(d):

one term (e(d), mu(d) (R/d)^j) per squarefree d | R, over R^j.  The
numerators of B_(j, chi_f) times these terms in Z[x]/(x^m - 1), one
cyclotomic._cyclic_sum at length m, are the buckets, over j f^j R^j
times the denominator of B.  The power forms are rational combinations
of those values (or of Bernoulli numbers): their numerators are summed
over the lcm of the denominators.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .arith import euler_phi, prime_factors, units
from .bernoulli import generalized_bernoulli
from .characters import DirichletCharacter, _gauss_terms, enumerate_characters
from .combinatorics import bernoulli_conv_coeff, cot_power_coeff
from .cotangent import cotangent_number, icot_power
from .cyclotomic import CycElem, _combination, _cyclic_sum, _mobius_divisors, _project_cyclic
from .memo import memo


@memo
def _bernoulli_cached(r: int, chi: DirichletCharacter) -> CycElem:
    return generalized_bernoulli(r, chi)


@memo
def _traces(a: CycElem) -> tuple[int, ...]:
    """T(t) = den * Tr(zeta_n^t a) for t = 0 .. n - 1, with
    a = sum_i a_i zeta_n^i / den: the sum over d | n, n/d squarefree, of
    mu(n/d) d S_d(-t mod d), S_d(r) the sum of the a_i with i = r mod d
    (module docstring).  Every d adds its d values, one per residue class
    of t, n/d times over."""
    n, nums = a.order, a.nums
    ups, downs = _mobius_divisors(n)
    T = [0] * n
    for d, c in [(d, d) for d in ups] + [(d, -d) for d in downs]:
        S = [sum(nums[r::d]) for r in range(d)]
        T = list(map(operator.add, T, [c * S[-t % d] for t in range(d)] * (n // d)))
    return tuple(T)


def _check_elements(n: int, elements: Sequence[CycElem]) -> None:
    if n < 2:
        raise ValueError("coordinates need modulus >= 2")
    for a in elements:
        if a.order != n:
            raise ValueError(
                "element of order %d cannot be paired with a character mod %d"
                % (a.order, n)
            )


def _definitional_buckets(chi: DirichletCharacter, elements: Sequence[CycElem],
                          traces: Sequence[Sequence[int]]) -> list[CycElem]:
    """y(chi|a) for each a in elements, from its traces T(t), t < n
    (traces[i] = _traces(elements[i])): the defining sum as a trace (module
    docstring), the phi(f) traces at t = l n/f, l a unit mod f, summed into
    m integer buckets over f * den(a).  For even m, zeta_m^(m/2) = -1 folds
    bucket e + m/2 onto bucket e; as chi_f(-l) = chi(-1) chi_f(l) and
    T(-t) = +-T(t) for a real or imaginary a, a parity mismatch then sums to
    all-zero buckets, which give the one zero of Q(zeta_m), unreduced."""
    chif = chi.primitive_part()
    n, f, m = chi.modulus, chif.modulus, chi.order
    terms = [(e, l * (n // f) % n) for l, e in chif.unit_values()]
    sign = chi.parity()
    out = []
    for a, T in zip(elements, traces):
        buckets = [0] * m
        for e, t in terms:
            buckets[e] += T[t]
        if m % 2 == 0:
            buckets = list(map(operator.sub, buckets[:m // 2], buckets[m // 2:]))
        out.append(CycElem._from_ints(m, buckets if sign > 0 else [-b for b in buckets], f * a.den)
                   if any(buckets) else CycElem.zero(m))
    return out


@memo
def coord_definitional(chi: DirichletCharacter, a: CycElem) -> CycElem:
    """y(chi|a) by the defining sum, computed exactly as a trace from the
    element's memoized traces (see _definitional_buckets), which every
    character mod n shares."""
    _check_elements(chi.modulus, (a,))
    return _definitional_buckets(chi, (a,), (_traces(a),))[0]


@memo
def _galois_orbits(n: int) -> tuple[tuple[DirichletCharacter, tuple], ...]:
    """The Galois orbits of the characters mod n, in enumeration order of
    their first members: (chi, ((s, chi^s) for s a unit mod m)), m the
    order of chi."""
    orbits, seen = [], set()
    for chi in enumerate_characters(n):
        if chi not in seen:
            members = tuple((s, chi.power(s)) for s in units(chi.order))
            seen.update(psi for _, psi in members)
            orbits.append((chi, members))
    return tuple(orbits)


def _orbit_walk(n: int, values: Callable) -> list[dict[DirichletCharacter, CycElem]]:
    """One dict per value t over every character mod n: values(chi)[t] at each
    Galois orbit's first character chi, its galois_s at chi^s (module docstring)."""
    walk = [(members, values(chi)) for chi, members in _galois_orbits(n)]
    return [{psi: ys[t].galois(s) for members, ys in walk for s, psi in members}
            for t in range(len(walk[0][1]))]


def coords_definitional_many(
    n: int, elements: Sequence[CycElem]
) -> list[dict[DirichletCharacter, CycElem]]:
    """For each a in elements, y(chi|a) for every character chi mod n: the
    traces T(t), t < n, once per element, then one bucket sum per Galois
    orbit (module docstring)."""
    elements = tuple(elements)
    if not elements:
        return []
    _check_elements(n, elements)
    traces = [_traces(a) for a in elements]
    return _orbit_walk(n, lambda chi: _definitional_buckets(chi, elements, traces))


def coord_one(chi: DirichletCharacter) -> CycElem:
    """y(chi|1): phi(n) for the principal character, else exact zero."""
    if chi.is_principal:
        return CycElem.from_rational(euler_phi(chi.modulus), chi.order)
    return CycElem.zero(chi.order)


@memo
def _euler_divisors(
    chi_f: DirichletCharacter, n: int
) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """R and the (d, mu(d), e(d)) for d | R, where R is the product of the
    primes p | n that do not divide the conductor and conj(chi_f)(d) =
    zeta_m^e(d), m the order of chi_f: the Euler factors of every power
    at once, expanded as in the module docstring.

    Built one prime at a time: p is dropped when conj(chi_f)(p) is zero
    (p divides the conductor: no exponent, factor 1); otherwise every d so
    far gives d and d*p, with mu negated and e(p) added.
    """
    m = chi_f.order
    chibar_f = chi_f.conjugate()
    R, divs = 1, [(1, 1, 0)]
    for p in sorted(prime_factors(n)):
        e = chibar_f.value_exponent(p)
        if e is None:
            continue
        divs += [(d * p, -mu, (t + e) % m) for d, mu, t in divs]
        R *= p
    return R, tuple(divs)


@memo
def coord_cotangent_closed(chi: DirichletCharacter, j: int) -> CycElem:
    """Closed form for y(chi | i^j cot_(j-1)(pi/n)).

    Returns exact zero when the parity of chi differs from the parity of
    the cotangent number (even j: real, odd j: purely imaginary).
    Otherwise the value is

        chi(-1) * (2n)^j / (j f^j) * EulerFactors(j) * B_{j, chi_f},

    with f the conductor and B the generalized Bernoulli number of the
    primitive part chi_f itself (not its conjugate; the definitional path
    pins this convention, and the suites re-check it for every complex
    character in range), summed in integer buckets (module docstring).
    """
    if j < 1:
        raise ValueError("need j >= 1")
    m = chi.order
    if chi.parity() != (-1) ** j:
        return CycElem.zero(m)
    n = chi.modulus
    chif = chi.primitive_part()
    f = chif.modulus
    R, divs = _euler_divisors(chif, n)
    b = _bernoulli_cached(j, chif)
    scale = chi.parity() * (2 * n) ** j
    terms = [(e, scale * mu * (R // d) ** j) for d, mu, e in divs]
    prod = _cyclic_sum([(enumerate(b.nums), terms)], m)
    return CycElem._from_ints(m, prod, j * f**j * R**j * b.den)


def coord_power_closed(chi: DirichletCharacter, r: int) -> CycElem:
    """Closed form for y(chi | (i cot(pi/n))^r).

    Assembled by linearity from the cotangent-power expansion: the
    coefficient table cot_power_coeff(r, .), the closed form for cotangent
    numbers, and y(chi|1) for even r, as one integer sum.  Parity-mismatched
    characters give exact zero.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    m = chi.order
    if chi.parity() != (-1) ** r:
        return CycElem.zero(m)
    pairs = [(coord_one(chi), 1)] if r % 2 == 0 else []
    for j in range(2 - r % 2, r + 1, 2):
        c = cot_power_coeff(r, j)
        if c:
            pairs.append((coord_cotangent_closed(chi, j), c))
    return _combination(m, pairs)


def coord_power_primitive(chi: DirichletCharacter, r: int) -> CycElem:
    """y(chi | (i cot(pi/n))^r) for a primitive character mod n:

        -2^r * sum over j = r mod 2 of conv(r, j) * B_{j, chi} / j!

    with conv the Bernoulli-convolution coefficients, as one integer sum.
    Raises for non-primitive characters (the formula is only asserted for
    primitive ones); parity-mismatched requests return exact zero.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if chi.conductor() != chi.modulus:
        raise ValueError("coord_power_primitive needs a primitive character")
    m = chi.order
    if chi.parity() != (-1) ** r:
        return CycElem.zero(m)
    pairs = []
    for j in range(2 - r % 2, r + 1, 2):
        d = bernoulli_conv_coeff(r, j)
        if d:
            pairs.append((_bernoulli_cached(j, chi), -(2**r) * d / math.factorial(j)))
    return _combination(m, pairs)


class Method(NamedTuple):
    """A way to compute y(chi | element(d, n)): the name coord rows report,
    its coord -h summary, the degree ("r": (i cot(pi/n))^r, "j": the cotangent
    number), one(chi, d), and whether only primitive characters count."""

    name: str
    summary: str
    degree: str
    one: Callable
    primitive: bool = False

    def element(self, d: int, n: int) -> CycElem:
        return (icot_power if self.degree == "r" else cotangent_number)(d, n)

    def coords(self, n: int, d: int) -> dict[DirichletCharacter, CycElem]:
        """y(chi | element(d, n)) for every chi mod n, from one call of
        self.one per Galois orbit (module docstring)."""
        return _orbit_walk(n, lambda chi: (self.one(chi, d),))[0]


# The methods by their CLI names.  The lambdas look their callees up here at
# call time, so rebinding coordinates.<name> reaches every call.
METHODS: dict[str, Method] = {
    "def": Method("definitional", "definitional sum", "r",
                  lambda chi, r: coord_definitional(chi, icot_power(r, chi.modulus))),
    "closed": Method("power_closed", "general closed form", "r",
                     lambda chi, r: coord_power_closed(chi, r)),
    "prim": Method("primitive_closed", "primitive-character closed form", "r",
                   lambda chi, r: coord_power_primitive(chi, r), primitive=True),
    "cotnum": Method("cotnum_closed", "cotangent-number closed form", "j",
                     lambda chi, j: coord_cotangent_closed(chi, j)),
}


def reconstruct(coords: Mapping[DirichletCharacter, CycElem], n: int) -> CycElem:
    """Recover a from all its coordinates:

        a = (1/phi(n)) * sum over chi of y(chi|a) * tau(conj(chi)_f).

    ``coords`` must contain every character mod n.  The sum is accumulated
    in Q(zeta_L) for L = lcm(n, all value orders) and projected back to
    Q(zeta_n), raising FieldMembershipError if the result escapes it.
    """
    chars = enumerate_characters(n)
    missing = [chi for chi in chars if chi not in coords]
    if missing:
        raise ValueError("coordinates missing for %d characters" % len(missing))
    L = n
    for chi in chars:
        L = math.lcm(L, coords[chi].order, chi.order)
    den = math.lcm(*(coords[chi].den for chi in chars))
    pairs = []
    for chi in chars:
        y = coords[chi]
        J, terms = _gauss_terms(chi.conjugate().primitive_part())
        # y's nums at stride L/order and tau's terms at stride L/J represent
        # y and tau in Z[x]/(x^L - 1)
        pairs.append((zip(range(0, L, L // y.order), y.nums),
                      [(L // J * i, den // y.den * c) for i, c in terms]))
    return _project_cyclic(_cyclic_sum(pairs, L), euler_phi(n) * den, L, n)


@memo
def _icot_doubles(n: int) -> dict[int, complex]:
    """1j / tan(pi k/n) as a double, for every unit k mod n."""
    return {k: 1j / math.tan(math.pi * k / n) for k in units(n)}


@memo
def _root_doubles(m: int) -> tuple[complex, ...]:
    """exp(2 pi i e/m) as a double, for e = 0 .. m - 1."""
    return tuple(cmath.exp(2j * math.pi * e / m) for e in range(m))


def direct_sum_float(chi: DirichletCharacter, r: int,
                     values: Optional[list[tuple[int, int]]] = None) -> complex:
    """Double-precision evaluation of sum over units k of chi(k) * (i cot(pi k/n))^r.

    This is the floating side of the cross-check suite; it never feeds the
    exact paths.  It reads i cot(pi k/n) and zeta_m^e from per-n and per-m
    tables of the same doubles it would compute term by term, so no value
    changes.  values is chi.unit_values(), for a caller that already holds
    it.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if values is None:
        values = chi.unit_values()
    icot = _icot_doubles(chi.modulus)
    roots = _root_doubles(chi.order)
    # chi(k) = zeta_m^e on the units, the only k summed; it is zero elsewhere
    total = 0j
    for k, e in values:
        total += roots[e] * icot[k] ** r
    return total
