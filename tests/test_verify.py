import copy
import json
import os
import pickle
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from charcoords import bernoulli, characters, combinatorics, coordinates, cotangent
from charcoords import cli, cyclotomic, series, verify
from charcoords.cyclotomic import CycElem
from charcoords.memo import clear_memos
from charcoords.series import LaurentSeries
from charcoords.verify import (
    CaseFailure,
    SuiteConfig,
    SuiteResult,
    config_with_overrides,
    run_suites,
)

MINI = SuiteConfig(
    n_max=8,
    r_max=3,
    j_max=3,
    float_n_max=8,
    float_r_max=2,
    recon_n_max=6,
    eq_primitive_n_max=7,
    eq_primitive_r_max=3,
    bridge_r_max=8,
    decomposition_r_max=4,
    stirling_k_max=4,
    d_oracle_r_max=5,
    d_series_r_max=4,
)


def test_mini_sweep_passes():
    for result in run_suites(MINI):
        assert result.passed, result.failures[:3]
        assert result.cases > 0


def test_suites_deterministic():
    first = run_suites(MINI)
    second = run_suites(MINI)
    for a, b in zip(first, second):
        assert a.name == b.name
        assert a.cases == b.cases
        assert [f.to_json_dict() for f in a.failures] == [
            f.to_json_dict() for f in b.failures
        ]


def test_selected_suites_only():
    cfg = config_with_overrides(MINI, suites=("coeff_bridge",))
    results = run_suites(cfg)
    assert [r.name for r in results] == ["coeff_bridge"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(config_with_overrides(MINI, suites=("nope",)))


def test_config_overrides_coerce_strings():
    cfg = config_with_overrides(n_max="12", float_tolerance="1e-6", suites="coeff_bridge,series_oracle")
    assert cfg.n_max == 12
    assert cfg.float_tolerance == 1e-6
    assert cfg.suites == ("coeff_bridge", "series_oracle")
    assert config_with_overrides(suites=" coeff_bridge , ,reconstruction ").suites == (
        "coeff_bridge", "reconstruction")
    with pytest.raises(ValueError, match="n_max: invalid literal for int"):
        config_with_overrides(n_max="1.5")
    with pytest.raises(ValueError):
        config_with_overrides(bogus_key="1")
    # a string is read by the type of the field's default: every field has
    # one, and each default, written as a --set value, reads back as itself
    assert SuiteConfig._field_defaults.keys() == set(SuiteConfig._fields)
    for name, default in SuiteConfig._field_defaults.items():
        text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
        assert getattr(config_with_overrides(**{name: text}), name) == default


@pytest.mark.parametrize(
    "override",
    [
        {"float_tolerance": float("inf")},
        {"float_tolerance": float("nan")},
        {"float_tolerance": 0.0},
        {"float_tolerance": "-1"},
        {"n_max": -1},
        {"recon_n_max": "-1"},
        {"eq_primitive_n_max": -2},
        {"suites": ""},
        {"suites": ()},
        {"suites": " , "},
        {"recon_r_max": "4"},  # no longer a field
        {"eq_primitive_extra_moduli": "4"},
    ],
)
def test_config_rejects_checks_that_cannot_fail(override):
    with pytest.raises(ValueError):
        config_with_overrides(MINI, **override)


@pytest.mark.parametrize("fault", ["conjugate_gauss_sum", "gauss_terms_shifted", "conjugate_root"])
def test_float_crosscheck_catches_a_planted_fault(monkeypatch, fault):
    """A wrong factor, a wrong term of it or a wrong evaluation shows as a
    failure far above the tolerance: each case's right side multiplies two
    evaluated factors."""
    if fault == "conjugate_gauss_sum":
        # tau(conj(chi_f)) in place of tau(chi_f)
        monkeypatch.setattr(verify, "gauss_sum_float",
                            lambda chi: characters.gauss_sum_float(chi.conjugate()))
    elif fault == "gauss_terms_shifted":
        # chi(k) zeta_f^(k + 1) in place of chi(k) zeta_f^k in the term list
        gauss_terms = characters._gauss_terms

        def shifted(chi):
            J, terms = gauss_terms(chi)
            return J, tuple(sorted(((i + J // chi.modulus) % J, c) for i, c in terms))

        monkeypatch.setattr(characters, "_gauss_terms", shifted)
    else:
        # every element evaluated at the conjugate root exp(-2 pi i/N)
        evaluate = CycElem.complex_eval
        monkeypatch.setattr(CycElem, "complex_eval",
                            lambda self: evaluate(self).conjugate())
    cfg = config_with_overrides(MINI, suites=("float_crosscheck",))
    (result,) = run_suites(cfg)
    assert result.failures
    errors = [f.inputs["abs_error"] for f in result.failures]
    assert min(errors) > cfg.float_tolerance
    assert max(errors) > 1.0


def test_float_crosscheck_evaluates_each_gauss_sum_once(monkeypatch):
    """tau(chi_f) is evaluated once per primitive part, not per character:
    the 45 characters mod n <= 12 have 27 distinct primitive parts."""
    calls = []
    original = verify.gauss_sum_float
    monkeypatch.setattr(verify, "gauss_sum_float", lambda chi: calls.append(chi) or original(chi))
    result = verify.SUITES["float_crosscheck"](config_with_overrides(MINI, float_n_max=12))
    assert result.passed
    chars = [chi for n in range(2, 13) for chi in characters.enumerate_characters(n)]
    assert len(chars) == 45
    assert len(calls) == len(set(calls)) == 27
    assert set(calls) == {chi.primitive_part() for chi in chars}


@pytest.mark.parametrize(
    "module, name, at, delta, expected",
    [
        (series, "stirling_first_unsigned", (3, 2), 1,
         [{"identity": "stirling", "k": 3, "order": 10}]),
        (series, "cot_power_coeff", (3, 1), Fraction(1, 10**30),
         [{"identity": "power_decomposition", "r": 3, "order": 10}]),
        (verify, "bernoulli_conv_coeff", (3, 1), Fraction(1, 10**30),
         [{"identity": "conv_vs_bruteforce", "r": 3, "j": 1},
          {"identity": "conv_vs_series", "r": 3, "j": 1}]),
    ],
)
def test_series_oracle_catches_a_planted_fault(monkeypatch, module, name, at, delta, expected):
    """One coefficient off at one (k, j) or (r, j) fails exactly the cases
    that read it, and a failed identity records the first exponent e at
    which its two sides differ, with both coefficients of t^e."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda a, b: original(a, b) + (delta if (a, b) == at else 0))
    (result,) = run_suites(config_with_overrides(MINI, suites=("series_oracle",)))
    assert [f.inputs for f in result.failures] == expected
    first_difference = {"stirling": ("[t^-2] 3/2", "[t^-2] 2"),
                        "power_decomposition": ("[t^-1] -2", "[t^-1] %s" % (-2 - 2 * delta))}
    for f in result.failures:
        if "order" in f.inputs:
            assert (f.lhs, f.rhs) == first_difference[f.inputs["identity"]]
        else:
            assert f.lhs != f.rhs


def test_series_oracle_builds_the_sides_of_each_identity_once(monkeypatch):
    """With row 4 of 1/w, w = (e^t - 1)/t, flipped, every identity of the
    suite but k = 1 and r = 1 fails; each case builds its two sides once,
    failed or not, and records the first coefficient at which they differ.
    Each build of the sides grows 1/(1 - e^t) once: through t^(M + k + 2)
    for the Stirling identity, through t^(M + r + 3) for the decomposition."""
    row = series._exp_quotient_inverse
    monkeypatch.setattr(series, "_exp_quotient_inverse", lambda k: -row(k) if k == 4 else row(k))
    grown = []
    one_minus_exp_inv = series.series_one_minus_exp_inv
    monkeypatch.setattr(series, "series_one_minus_exp_inv",
                        lambda M: grown.append(M) or one_minus_exp_inv(M))
    cfg = config_with_overrides(suites=("series_oracle",), stirling_k_max=4,
                                decomposition_r_max=4, d_oracle_r_max=0, d_series_r_max=0)
    (result,) = run_suites(cfg)
    assert result.cases == 8
    stirling = [(2 * k + 4) + k + 2 for k in range(1, 5)]
    decomposition = [(2 * r + 4) + r + 3 for r in range(1, 5)]
    # run_suites draws the suite's first case, k = 1, once before the run
    assert sorted(grown) == sorted([stirling[0]] + stirling + decomposition)
    assert [(f.inputs, f.lhs, f.rhs) for f in result.failures] == [
        ({"identity": "stirling", "k": 2, "order": 8}, "[t^2] 7/720", "[t^2] -1/240"),
        ({"identity": "stirling", "k": 3, "order": 10}, "[t^2] 7/480", "[t^2] -1/160"),
        ({"identity": "stirling", "k": 4, "order": 12}, "[t^0] 259/720", "[t^0] 83/240"),
        ({"identity": "power_decomposition", "r": 2, "order": 8}, "[t^2] 7/180", "[t^2] -1/60"),
        ({"identity": "power_decomposition", "r": 3, "order": 10},
         "[t^3] -83/7560", "[t^3] -41/7560"),
        ({"identity": "power_decomposition", "r": 4, "order": 12}, "[t^0] 34/45", "[t^0] 8/15"),
    ]


def test_closed_forms_catch_a_flipped_euler_term(monkeypatch):
    """The factor (1 - conj(chi_f)(3) 3^-j) turned into (1 + ...): every
    expanded Euler term with 3 | d changes sign.  Closed-form cases fail in
    both suites, and only for characters mod n with 3 | n and 3 not
    dividing the conductor, the only ones whose Euler product has that
    factor."""
    euler_divisors = coordinates._euler_divisors

    def flipped(chi_f, n):
        R, divs = euler_divisors(chi_f, n)
        return R, tuple((d, -mu if d % 3 == 0 else mu, e) for d, mu, e in divs)

    clear_memos()
    monkeypatch.setattr(coordinates, "_euler_divisors", flipped)
    cfg = config_with_overrides(MINI, suites=("power_closed_form", "cotnum_closed_form"),
                                n_max=15)
    try:
        results = run_suites(cfg)
    finally:
        clear_memos()
    methods = {"power_closed_form": "closed/def", "cotnum_closed_form": "cotnum/def"}
    for result in results:
        assert result.failures, result.name
        for f in result.failures:
            n = f.inputs["n"]
            chi = characters.enumerate_characters(n)[f.inputs["char_index"]]
            assert n % 3 == 0 and chi.conductor() % 3 != 0, f.inputs
            assert f.inputs["methods"] == methods[result.name], f.inputs


# faults planted in the trace form of the defining sum (the coordinates
# docstring): (old text, new text) of coordinates.py.  No membership check
# guards that path, so the suites themselves must catch each one.
_DEFINING_SUM_FAULTS = {
    "parity_sign_dropped": ("buckets if sign > 0 else [-b for b in buckets]", "buckets"),
    "conj_chi_f_for_chi_f": ("chif = chi.primitive_part()\n    n, f, m = chi.modulus",
                             "chif = chi.conjugate().primitive_part()\n    n, f, m = chi.modulus"),
    "shift_l_for_l_n_over_f": ("(e, l * (n // f) % n)", "(e, l % n)"),
    "mobius_sign_dropped": ("(d, -d)", "(d, d)"),
    "residue_class_off_by_one": ("S[-t % d]", "S[(1 - t) % d]"),
    # c_n(1) one too large: T(t) gains the coefficient a_i at i = 1 - t mod n
    # (zero when i >= phi(n))
    "ramanujan_sum_c_n_1_off_by_one": (
        "T = [0] * n",
        "T = [nums[(1 - t) % n] if (1 - t) % n < len(nums) else 0 for t in range(n)]"),
}


@pytest.mark.parametrize("fault", sorted(_DEFINING_SUM_FAULTS))
def test_default_verify_catches_a_planted_defining_sum_fault(tmp_path, fault):
    """Each fault, planted in a copy of the package, makes default verify
    exit 1 with failures in both closed-form sweeps, not a crash."""
    old, new = _DEFINING_SUM_FAULTS[fault]
    package = tmp_path / "charcoords"
    shutil.copytree(Path(coordinates.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = package / "coordinates.py"
    text = source.read_text(encoding="utf-8")
    assert text.count(old) == 1
    source.write_text(text.replace(old, new), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "charcoords.cli", "verify", "--format", "json"],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(tmp_path)))
    assert proc.returncode == 1, proc.stderr
    failed = {suite["name"] for suite in json.loads(proc.stdout)["suites"] if suite["failures"]}
    assert {"power_closed_form", "cotnum_closed_form"} <= failed


def test_a_planted_closed_form_fault_reaches_the_suite_and_the_cli(monkeypatch, capsys):
    """coord_power_closed off at one (chi, r) fails exactly that
    power_closed_form case and changes that coord --method closed output:
    both read the function through coordinates.METHODS."""
    n, idx, r = 7, 3, 3
    target = characters.enumerate_characters(n)[idx]
    original = coordinates.coord_power_closed

    def planted(chi, d):
        y = original(chi, d)
        return y + CycElem.one(y.order) if (chi, d) == (target, r) else y

    argv = ["coord", str(n), str(idx), str(r), "--method", "closed", "--format", "json"]
    assert cli.main(argv) == 0
    before = capsys.readouterr().out
    monkeypatch.setattr(coordinates, "coord_power_closed", planted)
    (result,) = run_suites(config_with_overrides(MINI, suites=("power_closed_form",)))
    assert [f.inputs for f in result.failures] == [
        {"n": n, "char_index": idx, "r": r, "methods": "closed/def"}]
    assert cli.main(argv) == 0
    after = capsys.readouterr().out
    assert after != before
    (row,) = json.loads(after)["results"]
    assert CycElem.from_json_dict(row["value"]) == planted(target, r)


def test_primitive_closed_form_sweeps_the_primes_and_the_modulus_4():
    """The odd primes up to eq_primitive_n_max give cases (2 has no
    primitive character), and the modulus 4 adds its odd primitive
    character at every range."""
    def moduli(n_max):
        cfg = config_with_overrides(suites=("primitive_closed_form",), eq_primitive_n_max=n_max)
        return sorted({inputs["n"] for inputs, *_ in verify._CASES["primitive_closed_form"](cfg)})

    assert moduli(0) == moduli(2) == [4]
    assert moduli(4) == [3, 4]
    assert moduli(23) == [3, 4, 5, 7, 11, 13, 17, 19, 23]
    (default,) = run_suites(config_with_overrides(suites=("primitive_closed_form",)))
    assert default.cases == 415


def test_float_crosscheck_records_the_literal_two_factor_errors():
    """At a tolerance below every rounding error, each nonzero error is a
    record, and each record's error is the literal |direct sum - y * tau|."""
    def literal_error(chi, r):
        y = coordinates.coord_definitional(chi.conjugate(), cotangent.icot_power(r, chi.modulus))
        tau = characters.gauss_sum_float(chi.primitive_part())
        return abs(coordinates.direct_sum_float(chi, r) - y.complex_eval() * tau)

    cfg = config_with_overrides(MINI, suites=("float_crosscheck",), float_tolerance=1e-300,
                                float_n_max=12, float_r_max=3)
    (result,) = run_suites(cfg)
    for f in result.failures:
        chi = characters.enumerate_characters(f.inputs["n"])[f.inputs["char_index"]]
        assert f.inputs["abs_error"] == literal_error(chi, f.inputs["r"]), f.inputs
    nonzero = sum(
        literal_error(chi, r) != 0
        for n in range(2, 13)
        for chi in characters.enumerate_characters(n)
        for r in range(1, 4)
    )
    assert len(result.failures) == nonzero > 0


_DEFAULT_CONFIG_REPR = (
    "SuiteConfig(n_max=30, r_max=6, j_max=6, float_tolerance=1e-08, suites=("
    "'power_closed_form', 'cotnum_closed_form', 'coeff_bridge', 'primitive_closed_form', "
    "'float_crosscheck', 'reconstruction', 'series_oracle'), bridge_r_max=20, "
    "eq_primitive_n_max=23, eq_primitive_r_max=5, float_n_max=50, float_r_max=4, recon_n_max=20, "
    "decomposition_r_max=12, stirling_k_max=10, d_oracle_r_max=10, d_series_r_max=8)"
)


@pytest.mark.parametrize("make_a, make_b, other, text, hashable", [
    (lambda: CycElem(5, [1, Fraction(1, 2), 0, -3]),
     lambda: CycElem.from_polynomial(5, [1, Fraction(1, 2), 0, -3, 0]),
     CycElem.zeta(5), "CycElem(order=5, coeffs=(1, 1/2, 0, -3))", True),
    (lambda: LaurentSeries.from_terms(-1, [1, Fraction(1, 2)]),
     lambda: LaurentSeries(-2, ["0", "2/2", "1/2"], 1),
     LaurentSeries.from_terms(-1, [1, 0]), "LaurentSeries({t^-1: 1, t^0: 1/2}, O(t^1))", True),
    (SuiteConfig, lambda: config_with_overrides(n_max="30"), SuiteConfig(n_max=5),
     _DEFAULT_CONFIG_REPR, True),
    (lambda: SuiteResult("s", 4), lambda: SuiteResult("s", 4, (), 0.0), SuiteResult("s", 5),
     "SuiteResult(name='s', cases=4, failures=(), seconds=0.0)", True),
    (lambda: CaseFailure("s", {"n": 3}, "1", "2"), lambda: CaseFailure("s", {"n": 3}, "1", "2"),
     CaseFailure("s", {"n": 3}, "1", "3"), "CaseFailure(suite='s', inputs={'n': 3}, lhs='1', rhs='2')",
     False),  # its inputs are a dict
], ids=["CycElem", "LaurentSeries", "SuiteConfig", "SuiteResult", "CaseFailure"])
def test_value_types_are_immutable_values(make_a, make_b, other, text, hashable):
    a, b = make_a(), make_b()
    assert a == b and a is not b and not a != b
    assert a != other and not a == other
    assert repr(a) == repr(b) == text
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for name in (*getattr(type(a), "_fields", ()), *getattr(type(a), "__slots__", ()), "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text  # the refused changes left no trace
    round_trips = [copy.copy, copy.deepcopy] + [
        lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for round_trip in round_trips:
        c = round_trip(a)
        assert type(c) is type(a) and c == a and repr(c) == text


def test_suite_results_hold_their_failures_in_a_tuple():
    failure = CaseFailure("s", {"n": 3}, "1", "2")
    result = SuiteResult("s", 4, (failure,), 0.5)
    assert not result.passed and result.failures == (failure,)
    assert result.to_json_dict()["failures"] == [failure.to_json_dict()]
    assert type(run_suites(config_with_overrides(MINI, suites=("coeff_bridge",)))[0].failures) is tuple


def test_result_json_shape():
    cfg = config_with_overrides(MINI, suites=("coeff_bridge",))
    data = run_suites(cfg)[0].to_json_dict()
    assert data["name"] == "coeff_bridge"
    assert data["passed"] is True
    assert data["failures"] == []
    assert data["cases"] > 0


# every public operation of the computational modules, by defining code object;
# for the defining sum, the per-orbit bucket sum the suites run in coord_definitional's place,
# for a character value, the exponent the paths read in place of its CycElem (eval),
# and for a Gauss sum, the double the float suite sums from gauss_sum's term list in its place
_COVERED_OPS = [
    cyclotomic.cyclotomic_polynomial,
    CycElem.__add__,
    CycElem.__sub__,
    CycElem.__mul__,
    CycElem.__neg__,
    CycElem.galois,
    CycElem.embed,
    CycElem.conjugate,
    CycElem.complex_eval,
    characters.enumerate_characters,
    characters.DirichletCharacter.value_exponent,
    characters.DirichletCharacter.parity,
    characters.DirichletCharacter.conductor,
    characters.DirichletCharacter.primitive_part,
    characters.gauss_sum_float,
    bernoulli.bernoulli_number,
    bernoulli.bernoulli_polynomial,
    bernoulli.generalized_bernoulli,
    combinatorics.stirling_first_unsigned,
    combinatorics.cot_power_coeff,
    combinatorics.bernoulli_conv_coeff,
    combinatorics.bernoulli_conv_coeff_bruteforce,
    combinatorics.coeff_bridge,
    cotangent.icot_value,
    cotangent.icot_power,
    cotangent.cot_derivative_poly,
    cotangent.cotangent_number,
    coordinates._traces,
    coordinates._definitional_buckets,
    coordinates.coord_cotangent_closed,
    coordinates.coord_one,
    coordinates.coord_power_closed,
    coordinates.coord_power_primitive,
    coordinates.reconstruct,
    coordinates.direct_sum_float,
    series.series_one_minus_exp_inv,
    series.series_icot_half,
    series._stirling_sides,
    series._decomposition_sides,
]


def _unwrap(fn):
    return getattr(fn, "__wrapped__", fn)


def test_parallel_case_evaluation_is_consistent():
    """Values are immutable and operations pure, so fanning cases out over
    threads must give the single-threaded results (shared memo tables
    included)."""
    from concurrent.futures import ThreadPoolExecutor

    clear_memos()

    def one_case(work):
        n, idx, r = work
        chi = characters.enumerate_characters(n)[idx]
        lhs = coordinates.coord_power_closed(chi, r)
        rhs = coordinates.coord_definitional(chi, cotangent.icot_power(r, n))
        return work, lhs == rhs, lhs

    cases = [
        (n, idx, r)
        for n in range(2, 13)
        for idx in range(len(characters.enumerate_characters(n)))
        for r in range(1, 4)
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(one_case, cases))
    assert all(ok for _, ok, _ in parallel)
    serial = {work: one_case(work)[2] for work in cases}
    for work, _, value in parallel:
        assert serial[work] == value


def test_suite_union_touches_every_operation():
    """The suites together must exercise every computational operation."""
    seen = set()

    def tracer(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    # drop memoized results so cached operations run their bodies again
    clear_memos()

    targets = {_unwrap(fn).__code__: _unwrap(fn).__qualname__ for fn in _COVERED_OPS}
    sys.setprofile(tracer)
    try:
        results = run_suites(MINI)
    finally:
        sys.setprofile(None)
    assert all(r.passed for r in results)
    missing = [name for code, name in targets.items() if code not in seen]
    assert not missing, "operations never exercised: %s" % missing
