"""Identity-verification suites binding all modules together.

Each suite sweeps a configurable range of moduli, characters and exponents
and yields a stream of cases (inputs, lhs, rhs, ok): two independently
computed values, and ok None when the check is lhs == rhs.  One recording
loop counts the cases, times the suite and records every mismatch
(failure-fast is off so convention bugs surface in full).  A suite with no
case checks nothing, so before the first suite runs, run_suites draws the
first case of each selected suite and refuses one that has none.  The
three closed-form suites share one sweep against the definitional
coordinate, each driven by its entry of coordinates.METHODS.  The five
suites that compare coordinates (not coeff_bridge or series_oracle) build
the elements of a modulus first and take all their definitional
coordinates from one coords_definitional_many call: each element's traces
once, then one bucket sum per Galois orbit of characters, the other
members by CycElem.galois.  Exact suites never consult floating
point; the float suite checks only complex_eval, never the exact paths: it
compares a direct double-precision sum with the product of two doubles,
the coordinate evaluated in its field and the Gauss sum summed from its
phi(f) terms.  It sums tau(chi_f) once per primitive character in a run,
not once per character, modulus or exponent, and each direct sum is one
product of a character's root vector, built once per modulus, with a
cached row of cotangent powers, which changes no value.  charcoords.series
is imported by the series_oracle suite when it runs, not with this module,
so a run without that suite never loads it.

Suites are deterministic for a given config, and every failure record
carries the inputs needed to reproduce it from the CLI.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .arith import is_prime
from .characters import enumerate_characters, gauss_sum_float
from .combinatorics import (
    BRUTEFORCE_LIMIT,
    bernoulli_conv_coeff,
    bernoulli_conv_coeff_bruteforce,
    coeff_bridge,
    cot_power_coeff,
)
from .coordinates import (
    METHODS,
    _unit_root_doubles,
    coords_definitional_many,
    direct_sum_float,
    reconstruct,
)
from .cotangent import cotangent_number, icot_power
from .cyclotomic import CycElem

SUITE_NAMES = (
    "power_closed_form",
    "cotnum_closed_form",
    "coeff_bridge",
    "primitive_closed_form",
    "float_crosscheck",
    "reconstruction",
    "series_oracle",
)


class SuiteConfig(NamedTuple):
    """Ranges and tolerances for the verification suites.

    Defaults reproduce the full published sweep; every field can be
    overridden from the CLI, and the JSON report of verify echoes them all.
    """

    n_max: int = 30
    r_max: int = 6
    j_max: int = 6
    float_tolerance: float = 1e-8
    suites: tuple[str, ...] = SUITE_NAMES
    bridge_r_max: int = 20
    eq_primitive_n_max: int = 23
    eq_primitive_r_max: int = 5
    float_n_max: int = 50
    float_r_max: int = 4
    recon_n_max: int = 20
    decomposition_r_max: int = 12
    stirling_k_max: int = 10
    d_oracle_r_max: int = 10
    d_series_r_max: int = 8


class CaseFailure(NamedTuple):
    suite: str
    inputs: dict
    lhs: str
    rhs: str

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "inputs": self.inputs, "lhs": self.lhs, "rhs": self.rhs}


class SuiteResult(NamedTuple):
    name: str
    cases: int
    failures: tuple[CaseFailure, ...] = ()
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": [f.to_json_dict() for f in self.failures],
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
        }


def _value_str(v) -> str:
    if isinstance(v, CycElem):
        return "CycElem[%d]%s" % (v.order, v.coeff_strings())
    return v if isinstance(v, str) else repr(v)


SUITES: dict[str, Callable[[SuiteConfig], SuiteResult]] = {}
_CASES: dict[str, Callable[[SuiteConfig], Iterable[tuple]]] = {}


def _recorded(cases_of: Callable[[SuiteConfig], Iterable[tuple]]):
    """Turn a generator of cases into a suite, registered in SUITES under
    the function's name without its "suite_" prefix: the one recording loop.
    The generator itself is registered in _CASES under the same name.

    Each case is (inputs, lhs, rhs, ok), with ok None when the check is
    lhs == rhs.
    """
    name = cases_of.__name__.removeprefix("suite_")

    @functools.wraps(cases_of)
    def run(config: SuiteConfig) -> SuiteResult:
        t0 = time.perf_counter()
        cases = 0
        failures: list[CaseFailure] = []
        for inputs, lhs, rhs, ok in cases_of(config):
            cases += 1
            if not (lhs == rhs if ok is None else ok):
                lhs, rhs = _value_str(lhs), _value_str(rhs)
                failures.append(CaseFailure(name, inputs, lhs, rhs))
        return SuiteResult(name, cases, tuple(failures), time.perf_counter() - t0)

    SUITES[name] = run
    _CASES[name] = cases_of
    return run


def _closed_vs_definitional(moduli, degrees, name):
    """METHODS[name] vs the definitional coordinate of the method's element,
    for every modulus n, degree d (keyed "r" or "j" as the method's degree)
    and character mod n; each case carries methods "<name>/def".

    Each element's purity (real for even d, imaginary for odd d) is checked
    first, unless the method is primitive (only characters of conductor n).
    """
    method, key = METHODS[name], METHODS[name].degree
    for n in moduli:
        chars = enumerate_characters(n)
        elements = [method.element(d, n) for d in degrees]
        for d, a, ys in zip(degrees, elements, coords_definitional_many(n, elements)):
            if not method.primitive:
                mirror = a if d % 2 == 0 else -a
                yield {"n": n, key: d, "purity": "conjugate"}, a.conjugate(), mirror, None
            for idx, chi in enumerate(chars):
                if not method.primitive or chi.conductor() == n:
                    yield ({"n": n, "char_index": idx, key: d, "methods": name + "/def"},
                           method.one(chi, d), ys[chi], None)


@_recorded
def suite_power_closed_form(config: SuiteConfig):
    """Closed form vs definitional coordinate for (i cot(pi/n))^r, all
    characters mod n <= n_max, r <= r_max.

    Parity-mismatched rows must come out exactly zero on both sides; the
    test elements' purity (real for even r, imaginary for odd) is asserted
    along the way.
    """
    yield from _closed_vs_definitional(
        range(2, config.n_max + 1), range(1, config.r_max + 1), "closed")


@_recorded
def suite_cotnum_closed_form(config: SuiteConfig):
    """Closed form vs definitional coordinate for cotangent numbers
    i^j cot_(j-1)(pi/n), all characters mod n <= n_max, j <= j_max."""
    yield from _closed_vs_definitional(
        range(2, config.n_max + 1), range(1, config.j_max + 1), "cotnum")


@_recorded
def suite_coeff_bridge(config: SuiteConfig):
    """cot_power_coeff(r, j) == coeff_bridge(r, j) exactly, for
    1 <= j <= r <= bridge_r_max of equal parity."""
    for r in range(1, config.bridge_r_max + 1):
        for j in range(1, r + 1):
            if (r - j) % 2 == 0:
                yield {"r": r, "j": j}, cot_power_coeff(r, j), coeff_bridge(r, j), None


# the prime moduli give no even conductor; 4 adds the odd primitive character mod 4
_PRIMITIVE_EXTRA_MODULUS = 4


@_recorded
def suite_primitive_closed_form(config: SuiteConfig):
    """Bernoulli-convolution closed form vs definitional coordinate for
    primitive characters: prime moduli <= eq_primitive_n_max and the
    modulus 4, r <= eq_primitive_r_max."""
    primes = {n for n in range(2, config.eq_primitive_n_max + 1) if is_prime(n)}
    yield from _closed_vs_definitional(
        sorted(primes | {_PRIMITIVE_EXTRA_MODULUS}),
        range(1, config.eq_primitive_r_max + 1), "prim")


@_recorded
def suite_float_crosscheck(config: SuiteConfig):
    """|direct float character sum - complex_eval(y) * gauss_sum_float(chi_f)| < tolerance.

    The right side multiplies two doubles: the coordinate
    y(conj(chi) | (i cot)^r) evaluated in Q(zeta_m) and tau(chi_f) summed
    from the phi(f) terms of gauss_sum's term list, never their exact
    product.  The match binds complex_eval and that term list (and the
    defining identities) to an independent double-precision computation;
    it never adjudicates the exact paths.  tau(chi_f) is summed once per
    primitive character in a run, kept in a dict local to the run and
    shared by every modulus and r.  Each character's values chi(k) as
    doubles are built once per modulus and handed to direct_sum_float for
    every r, which multiplies them by the cached row of (i cot(pi k/n))^r
    and adds the terms in the order of the per-case loop, so every value
    is the one the per-case computation gives.  A case past the double
    range raises ValueError.
    """
    tol = config.float_tolerance
    tau_of = {}  # chi_f -> tau(chi_f) as a double
    for n in range(2, config.float_n_max + 1):
        chars = enumerate_characters(n)
        conjugates = [chi.conjugate() for chi in chars]
        parts = [chi.primitive_part() for chi in chars]
        for chif in parts:
            if chif not in tau_of:
                tau_of[chif] = gauss_sum_float(chif)
        roots = [_unit_root_doubles(chi) for chi in chars]
        powers = range(1, config.float_r_max + 1)
        coords = coords_definitional_many(n, [icot_power(r, n) for r in powers])
        for r, ys in zip(powers, coords):
            for idx, chi in enumerate(chars):
                try:
                    left = direct_sum_float(chi, r, roots[idx])
                    right = ys[conjugates[idx]].complex_eval() * tau_of[parts[idx]]
                    err = abs(left - right)
                except OverflowError:
                    err = math.nan
                if not math.isfinite(err):  # inf or nan: a double overflowed
                    raise ValueError("float_crosscheck at n = %d, r = %d leaves the double range;"
                                     " lower float_r_max or float_n_max" % (n, r))
                inputs = {"n": n, "char_index": idx, "r": r, "abs_error": err}
                yield inputs, left, right, err < tol


@_recorded
def suite_reconstruction(config: SuiteConfig):
    """Round trip a -> coordinates -> a for 1, i*cot, (i*cot)^r for
    2 <= r <= 4 and the cotangent numbers for j <= 4, over n <= recon_n_max.
    1 enters as the image of the rational 1 under Q -> Q(zeta_n), and i*cot
    as -1 - (2/n) sum_{j<n} j zeta_n^j built from that 1 by negation and
    subtraction, not as icot_value's memoized vector, so the sweep also runs
    CycElem.embed and the field difference.  No path divides by a
    cyclotomic number."""
    for n in range(2, config.recon_n_max + 1):
        one = CycElem.one().embed(n)
        icot = -one - CycElem.from_polynomial(n, range(n)) * Fraction(2, n)
        elements = [("one", one), ("icot", icot)]
        elements += [("icot_power_%d" % r, icot_power(r, n)) for r in range(2, 5)]
        elements += [("cotangent_number_%d" % j, cotangent_number(j, n)) for j in range(1, 5)]
        coords = coords_definitional_many(n, [a for _, a in elements])
        for (label, a), ys in zip(elements, coords):
            yield {"n": n, "element": label}, reconstruct(ys, n), a, None


def _series_case(inputs: dict, lhs, rhs, M: int) -> tuple:
    """The case of a series identity whose two sides are the Laurent series
    lhs and rhs, checked through t^M.  A failure carries "[t^e] value" of
    each side for the first exponent e at which they differ."""
    difference = lhs._first_difference(rhs, M)
    if difference is None:
        return inputs, True, True, None
    e, a, b = difference
    return inputs, "[t^%d] %s" % (e, a), "[t^%d] %s" % (e, b), False


@_recorded
def suite_series_oracle(config: SuiteConfig):
    """Series-level checks: the Stirling derivative identity, the
    cotangent-power decomposition, and both independent oracles for the
    Bernoulli-convolution coefficients.  The two sides of each identity
    are built once, and charcoords.series is imported here, when the suite
    runs."""
    from . import series

    for k in range(1, config.stirling_k_max + 1):
        M = 2 * k + 4
        yield _series_case({"identity": "stirling", "k": k, "order": M},
                           *series._stirling_sides(k, M), M)
    for r in range(1, config.decomposition_r_max + 1):
        M = 2 * r + 4
        yield _series_case({"identity": "power_decomposition", "r": r, "order": M},
                           *series._decomposition_sides(r, M), M)
    for r in range(1, config.d_oracle_r_max + 1):
        for j in range(1, r + 1):
            yield ({"identity": "conv_vs_bruteforce", "r": r, "j": j},
                   bernoulli_conv_coeff(r, j), bernoulli_conv_coeff_bruteforce(r, j), None)
    for r in range(1, config.d_series_r_max + 1):
        for j in range(1, r + 1):
            if (r - j) % 2 == 0:
                yield ({"identity": "conv_vs_series", "r": r, "j": j},
                       bernoulli_conv_coeff(r, j), series.bernoulli_conv_coeff_from_series(r, j),
                       None)


def run_suites(config: SuiteConfig) -> list[SuiteResult]:
    """Run the suites named in the config, in canonical order.

    A selected suite whose ranges leave it no case is refused before any
    suite runs: each one's first case is drawn, and only that one.
    """
    unknown = [s for s in config.suites if s not in SUITES]
    if unknown:
        raise ValueError(
            "unknown suite(s) %s; available: %s" % (unknown, ", ".join(SUITE_NAMES))
        )
    names = [name for name in SUITE_NAMES if name in config.suites]
    for name in names:
        if next(iter(_CASES[name](config)), None) is None:
            raise ValueError("suite %s has no case in its configured ranges" % name)
    return [SUITES[name](config) for name in names]


def config_with_overrides(base: SuiteConfig | None = None, **overrides) -> SuiteConfig:
    """A SuiteConfig with the given fields replaced, values coerced from
    strings where necessary (used by the CLI's flags and --set)."""
    coerced = {}
    defaults = SuiteConfig._field_defaults
    for key, value in overrides.items():
        if key not in defaults:
            raise ValueError("unknown config key %r" % key)
        if key == "suites" and isinstance(value, str):
            # the one tuple field: comma-separated suite names
            value = tuple(p.strip() for p in value.split(",") if p.strip())
        elif isinstance(value, str):
            # by the type of the default: int or float
            try:
                value = type(defaults[key])(value)
            except ValueError as exc:
                raise ValueError("%s: %s" % (key, exc)) from None
        coerced[key] = value
    cfg = (base or SuiteConfig())._replace(**coerced)
    # a tolerance of inf, nan or <= 0 makes every float case pass or fail,
    # and a negative range or an empty suite list checks nothing, whatever
    # the code computes
    tol = cfg.float_tolerance
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("float_tolerance must be finite and positive, got %r" % tol)
    if not cfg.suites:
        raise ValueError("suites must name at least one suite")
    for name, value in zip(SuiteConfig._fields, cfg):
        if type(value) is int and value < 0:
            raise ValueError("%s must not be negative, got %d" % (name, value))
    if cfg.d_oracle_r_max > BRUTEFORCE_LIMIT:
        raise ValueError("d_oracle_r_max must be at most %d (the bruteforce oracle's"
                         " limit), got %d" % (BRUTEFORCE_LIMIT, cfg.d_oracle_r_max))
    return cfg
