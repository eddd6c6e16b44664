import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcoords import cli, coordinates, series, verify
from charcoords.arith import InternalError, euler_phi
from charcoords.characters import enumerate_characters
from charcoords.cli import main
from charcoords.coordinates import METHODS, coord_cotangent_closed
from charcoords.cotangent import cotangent_number
from charcoords.cyclotomic import CycElem, FieldMembershipError
from charcoords.memo import clear_memos
from charcoords.series import TruncationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _masked(report: str) -> str:
    """The text report of the suite commands without its seconds column, the
    only part of it that changes from run to run."""
    return re.sub(r"cases +\d+\.\d+s", "cases", report)


def _run_masked(capsys, argv: str):
    code, out, err = run_cli(capsys, *argv.split())
    return code, _masked(out), err


def _report(out: str) -> list:
    """The masked text report, each line split into words."""
    return [line.split() for line in _masked(out).splitlines()]


def test_chars_text(capsys):
    code, out, _ = run_cli(capsys, "chars", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two characters


def test_chars_json(capsys):
    code, out, _ = run_cli(capsys, "chars", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "chars"
    assert len(data["results"]) == 4
    assert data["results"][0]["index"] == 0
    assert data["results"][0]["conductor"] == 1


def test_coord_definitional_example(capsys):
    code, out, _ = run_cli(
        capsys, "coord", "4", "1", "1", "--method", "def", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    value = data["results"][0]["value"]
    assert CycElem.from_json_dict(value) == CycElem.one(2)


def test_coord_methods_agree(capsys):
    values = {}
    for method in ("def", "closed", "prim"):
        code, out, _ = run_cli(
            capsys, "coord", "5", "1", "3", "--method", method, "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        values[method] = data["results"][0]["value"]
    assert values["def"] == values["closed"] == values["prim"]


def test_coord_cotnum_method(capsys):
    code, out, _ = run_cli(
        capsys, "coord", "4", "1", "--j", "1", "--method", "cotnum", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert CycElem.from_json_dict(data["results"][0]["value"]) == CycElem.one(2)


def test_coord_all_chars(capsys):
    code, out, _ = run_cli(
        capsys, "coord", "5", "2", "--all-chars", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["results"]) == 4


@pytest.mark.parametrize("n, r", [(12, 2), (47, 5), (60, 3)])
def test_coord_all_chars_runs_one_defining_sum_per_galois_orbit(capsys, monkeypatch, n, r):
    # the rows are those of the single-character requests, in enumeration
    # order, from one defining sum per Galois orbit of characters mod n and
    # one table of the element's traces; the walk goes through the
    # coord_definitional and _traces memos, so it starts cold
    clear_memos()
    sums = []

    def counted(chi, elements, traces):
        sums.append(chi)
        return kernel(chi, elements, traces)

    kernel = coordinates._definitional_buckets
    monkeypatch.setattr(coordinates, "_definitional_buckets", counted)
    code, out, _ = run_cli(capsys, "coord", str(n), str(r), "--all-chars", "--format", "json")
    assert code == 0
    assert len(sums) == len(coordinates._galois_orbits(n))
    assert coordinates._traces.cache_info().misses == 1  # the element's traces, taken once
    rows = json.loads(out)["results"]
    assert len(rows) == len(enumerate_characters(n)) == euler_phi(n)
    for idx, row in enumerate(rows):
        code, out, _ = run_cli(capsys, "coord", str(n), str(idx), str(r),
                               "--method", "def", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"] == [row]


@pytest.mark.parametrize("method, degree", [("closed", ["3"]), ("cotnum", ["--j", "3"])])
@pytest.mark.parametrize("n", [12, 47])
def test_coord_all_chars_rows_are_the_single_character_rows(capsys, method, degree, n):
    # the orbit walk's galois images are the values each character's own closed form gives
    code, out, _ = run_cli(capsys, "coord", str(n), *degree, "--all-chars", "--method", method,
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == euler_phi(n)
    for idx, row in enumerate(rows):
        code, out, _ = run_cli(capsys, "coord", str(n), str(idx), *degree, "--method", method,
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["results"] == [row]


@pytest.mark.parametrize("method, degree, closed", [
    ("closed", ["4"], "coord_power_closed"),
    ("cotnum", ["--j", "3"], "coord_cotangent_closed"),
])
@pytest.mark.parametrize("n", [12, 47, 60])
def test_coord_all_chars_makes_one_closed_form_call_per_galois_orbit(
        capsys, monkeypatch, method, degree, closed, n):
    calls = []

    def counted(chi, d):
        calls.append(chi)
        return kernel(chi, d)

    kernel = getattr(coordinates, closed)
    monkeypatch.setattr(coordinates, closed, counted)
    code, out, _ = run_cli(capsys, "coord", str(n), *degree, "--all-chars", "--method", method,
                           "--format", "json")
    assert code == 0
    assert len(json.loads(out)["results"]) == euler_phi(n)
    assert calls == [chi for chi, _ in coordinates._galois_orbits(n)]


def test_coord_method_choices_are_the_table():
    (action,) = [a for a in cli.build_parser().commands["coord"]._actions
                 if a.dest == "method"]
    assert list(action.choices) == list(coordinates.METHODS)


def test_coord_single_character_makes_one_definitional_call(capsys, monkeypatch):
    calls = []

    def counted(chi, a):
        calls.append((chi, a))
        return kernel(chi, a)

    kernel = coordinates.coord_definitional
    monkeypatch.setattr(coordinates, "coord_definitional", counted)
    code, _, _ = run_cli(capsys, "coord", "47", "5", "3", "--method", "def", "--format", "json")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        # options before, between and after the positionals parse alike
        ("coord 7 --method closed 1 3", "coord 7 1 3 --method closed"),
        ("coord 7 1 --method closed 3", "coord 7 1 3 --method closed"),
        ("coord --method closed 7 1 3", "coord 7 1 3 --method closed"),
        ("coord 47 --all-chars 5", "coord 47 5 --all-chars"),
        ("coord --all-chars 47 5", "coord 47 5 --all-chars"),
        ("coord 4 --j 1 1 --method cotnum", "coord 4 1 --j 1 --method cotnum"),
    ],
)
def test_coord_options_may_precede_positionals(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv.split(), "--format", "json")
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, *expected.split(), "--format", "json")


def _count_intermixed_parses(monkeypatch) -> list:
    """The argv of every parse_intermixed_args call from now on, in a list."""
    calls = []
    intermixed = argparse.ArgumentParser.parse_intermixed_args

    def counted(self, args=None, namespace=None):
        calls.append(args)
        return intermixed(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_intermixed_args", counted)
    return calls


def test_positionals_first_take_one_parse_pass(capsys, monkeypatch):
    calls = _count_intermixed_parses(monkeypatch)
    code, out, err = run_cli(capsys, *"coord 7 1 3 --method def --format json".split())
    assert (code, err) == (0, "")
    assert json.loads(out)["inputs"]["r"] == 3
    assert calls == []


def test_intermixed_parse_runs_for_what_one_pass_leaves_over(capsys, monkeypatch):
    argv = "coord 7 --method closed 1 3".split()
    leftover = cli.build_parser().commands["coord"].parse_known_args(argv[1:])[1]
    if sys.version_info < (3, 12):
        # the optional positionals take an empty match before the option; newer
        # argparse versions leave them for the strings after it
        assert leftover == ["1", "3"]
    calls = _count_intermixed_parses(monkeypatch)
    assert run_cli(capsys, *argv) == run_cli(capsys, *"coord 7 1 3 --method closed".split())
    assert len(calls) == (1 if leftover else 0)


def test_unknown_argument_is_reported_by_the_intermixed_parse(capsys, monkeypatch):
    calls = _count_intermixed_parses(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main("coord 7 1 3 --bogus".split())
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, len(calls)) == (2, "", 1)
    assert captured.err.endswith("error: unrecognized arguments: --bogus\n")


def _help(capsys, monkeypatch, argv: str):
    """Exit code and stdout of argv, which asks for help, at a width that wraps no line."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    return exc.value.code, capsys.readouterr().out


def test_coord_help_explains_the_positionals(capsys, monkeypatch):
    code, out = _help(capsys, monkeypatch, "coord -h")
    assert code == 0
    assert "with --all-chars, the power r" in out
    assert "--method cotnum takes --j and no r" in out


@pytest.mark.parametrize("command", sorted(cli.build_parser().commands))
def test_every_positional_has_help(capsys, monkeypatch, command):
    positionals = [a for a in cli.build_parser().commands[command]._actions
                   if not a.option_strings]
    assert positionals and all(a.help for a in positionals)
    code, out = _help(capsys, monkeypatch, command + " -h")
    assert code == 0 and all(a.help in out for a in positionals)


@pytest.mark.parametrize("argv, code", [("chars 5 --format json", 0), ("chars 1", 2)])
def test_console_script_entry_exits_with_main_code(capsys, monkeypatch, argv, code):
    assert main(argv.split()) == code
    printed = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["charcoords", *argv.split()])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
    assert capsys.readouterr() == printed


@pytest.mark.parametrize("argv", [
    "coord -h 7 1 3", "coord 7 -h 1 3", "coord 7 1 -h 3", "coord 7 1 3 -h",
    "coord 7 --method closed -h 1 3", "coord 47 5 --all-chars --help",
])
def test_help_anywhere_among_valid_positionals(capsys, monkeypatch, argv):
    assert _help(capsys, monkeypatch, argv) == _help(capsys, monkeypatch, "coord -h")


def test_coord_all_chars_refuses_a_character_index(capsys):
    # the index would be echoed in the inputs while every character is computed
    code, out, err = run_cli(capsys, "coord", "5", "1", "3", "--all-chars")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_coord_all_chars_refuses_the_primitive_method(capsys):
    # character 0 is principal, of conductor 1, so it is never primitive mod n >= 2
    code, out, err = run_cli(capsys, "coord", "5", "3", "--all-chars", "--method", "prim")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "--all-chars" in err and "--method prim" in err


@pytest.mark.parametrize(
    "argv",
    [
        # cotnum computes j and ignores r; def and closed compute r and ignore --j
        ("coord", "5", "1", "3", "--method", "cotnum", "--j", "2"),
        ("coord", "5", "1", "3", "--j", "2"),
        ("coord", "5", "1", "3", "--method", "closed", "--j", "2"),
        ("coord", "5", "3", "--all-chars", "--method", "cotnum", "--j", "2"),
    ],
)
def test_coord_refuses_an_argument_its_method_ignores(capsys, argv):
    # the ignored value would be echoed in the inputs next to the computed one
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_json_mode_renders_no_text(capsys, monkeypatch):
    def no_text(value):
        raise AssertionError("text rendered under --format json")

    monkeypatch.setattr(cli, "_cyc_text", no_text)
    for argv in (("coord", "5", "1", "3"), ("cot", "8", "--power", "2"),
                 ("bernoulli", "1", "--char", "4", "1")):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this charcoords."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_closed_stdout_exits_as_sigpipe():
    # a reader that stops early (``| head -c 20``) is not a usage error
    with subprocess.Popen(
        [sys.executable, "-m", "charcoords.cli", "chars", "3000", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    ) as proc:  # closes both pipes on exit
        assert proc.stdout.read(20).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_coord_bad_index(capsys):
    code, _, err = run_cli(capsys, "coord", "4", "9", "1")
    assert code == 2
    assert "error" in err


def test_json_output_reproducible(capsys):
    _, first, _ = run_cli(capsys, "coord", "12", "1", "2", "--format", "json")
    _, second, _ = run_cli(capsys, "coord", "12", "1", "2", "--format", "json")
    assert first == second


def test_json_values_reparse(capsys):
    _, out, _ = run_cli(capsys, "cot", "12", "--power", "3", "--format", "json")
    data = json.loads(out)
    value = CycElem.from_json_dict(data["results"]["value"])
    assert value.order == 12


def test_coeffs_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "c", "3")
    assert code == 0
    assert out.strip().splitlines() == ["3,1,1", "3,3,1/2"]
    code, out, _ = run_cli(capsys, "coeffs", "d", "4")
    assert code == 0
    assert out.strip().splitlines() == ["4,2,1/3", "4,4,1"]


def test_coeffs_check(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "check", "12")
    assert code == 0
    assert _report(out) == [["coeff_bridge", "42", "cases", "ok"], ["total", "failures:", "0"]]


def test_cot_commands(capsys):
    code, out, _ = run_cli(capsys, "cot", "4", "--power", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert CycElem.from_json_dict(data["results"]["value"]) == CycElem.from_rational(-1, 4)
    code, out, _ = run_cli(capsys, "cot", "4", "--j", "3", "--format", "json")
    data = json.loads(out)
    assert CycElem.from_json_dict(data["results"]["value"]) == CycElem.from_polynomial(
        4, [0, -4]
    )


def test_bernoulli_command(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "12")
    assert code == 0
    assert "-691/2730" in out
    code, out, _ = run_cli(
        capsys, "bernoulli", "1", "--char", "4", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["results"]["value"]["coeffs"] == ["-1/2"]


def test_series_verify(capsys):
    code, out, _ = run_cli(capsys, "series", "verify", "--rmax", "4", "--kmax", "4")
    assert code == 0
    assert _report(out) == [["series_oracle", "8", "cases", "ok"], ["total", "failures:", "0"]]


def test_series_verify_defaults_are_the_suite_defaults():
    # the parser keeps literals (it must not import verify), so pin them to SuiteConfig's
    args = cli.build_parser().parse_args(["series", "verify"])
    defaults = verify.SuiteConfig()
    assert (args.rmax, args.kmax) == (defaults.decomposition_r_max, defaults.stirling_k_max)


_SERIES_ORACLE = "verify series_oracle --set d_oracle_r_max=0 --set d_series_r_max=0"
_VERIFY_SPELLINGS = {
    "coeffs check 12": "verify coeff_bridge --set bridge_r_max=12",
    "series verify --rmax 4 --kmax 4":
        _SERIES_ORACLE + " --set stirling_k_max=4 --set decomposition_r_max=4",
    "series verify --decomposition --rmax 3":
        _SERIES_ORACLE + " --set stirling_k_max=0 --set decomposition_r_max=3",
    "series verify --stirling --kmax 1 --rmax 0":
        _SERIES_ORACLE + " --set stirling_k_max=1 --set decomposition_r_max=0",
}


@pytest.mark.parametrize("checker", list(_VERIFY_SPELLINGS))
def test_checkers_print_what_their_verify_spelling_prints(capsys, checker):
    result = _run_masked(capsys, checker)
    assert result[0] == 0 and result[2] == ""
    assert _run_masked(capsys, _VERIFY_SPELLINGS[checker]) == result


def test_series_verify_reports_a_planted_fault(capsys, monkeypatch):
    # a c_{2,j} off by one breaks the decomposition at r = 2 and nowhere else
    def planted(r, j):
        return coeff(r, j) + (r == 2)

    coeff = series.cot_power_coeff
    monkeypatch.setattr(series, "cot_power_coeff", planted)
    checker = "series verify --decomposition --rmax 3"
    code, out, err = _run_masked(capsys, checker)
    assert (code, err) == (1, "")
    summary, mismatch, total = out.splitlines()
    assert summary.split() == ["series_oracle", "3", "cases", "FAIL", "(1)"]
    # the first power of t at which the two sides differ, and both coefficients
    assert mismatch == (
        "  mismatch {'identity': 'power_decomposition', 'r': 2, 'order': 8}: [t^-2] 4 != [t^-2] 0")
    assert total == "total failures: 1"
    assert _run_masked(capsys, _VERIFY_SPELLINGS[checker]) == (code, out, err)


def test_series_oracle_exits_1_on_a_flipped_row_of_one_minus_exp_inv(capsys, monkeypatch):
    # row 4 of 1/w, w = (e^t - 1)/t, is B_4/4!; with its sign flipped the grown
    # 1/(1 - e^t) is wrong at t^3, and each identity that reads the series fails
    row = series._exp_quotient_inverse
    monkeypatch.setattr(series, "_exp_quotient_inverse", lambda k: -row(k) if k == 4 else row(k))
    code, out, err = run_cli(capsys, "verify", "series_oracle", "--format", "json")
    assert (code, err) == (1, "")
    failed = {f["inputs"]["identity"] for f in json.loads(out)["suites"][0]["failures"]}
    assert failed == {"stirling", "power_decomposition", "conv_vs_series"}


@pytest.mark.parametrize("name, fault, argv, record", [
    ("cot_power_coeff", lambda r, j: r == 2, "--set stirling_k_max=0 --set decomposition_r_max=3",
     {"suite": "series_oracle", "inputs": {"identity": "power_decomposition", "order": 8, "r": 2},
      "lhs": "[t^-2] 4", "rhs": "[t^-2] 0"}),
    ("stirling_first_unsigned", lambda k, j: (k, j) == (3, 2),
     "--set stirling_k_max=4 --set decomposition_r_max=0",
     {"suite": "series_oracle", "inputs": {"identity": "stirling", "k": 3, "order": 10},
      "lhs": "[t^-2] 3/2", "rhs": "[t^-2] 2"}),
], ids=["power_decomposition", "stirling"])
def test_series_json_failures_carry_the_first_differing_coefficient(capsys, monkeypatch,
                                                                    name, fault, argv, record):
    # c_{2,j} or S(3, 2) off by one breaks one identity case
    original = getattr(series, name)
    monkeypatch.setattr(series, name, lambda a, b: original(a, b) + fault(a, b))
    code, out, err = run_cli(capsys, *(_SERIES_ORACLE + " --format json " + argv).split())
    assert (code, err) == (1, "")
    (suite,) = json.loads(out)["suites"]
    assert suite["failures"] == [record]


def test_verify_command(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "coeff_bridge", "--set", "bridge_r_max=10"
    )
    assert code == 0
    assert "total failures: 0" in out


def test_verify_json_echoes_the_suites_that_ran(capsys):
    # each suite once, in run order, whatever order and repeats argv names them in
    code, out, _ = run_cli(capsys, "verify", "coeff_bridge", "float_crosscheck",
                           "power_closed_form", "coeff_bridge", "--n-max", "4", "--r-max", "1",
                           "--set", "float_n_max=4", "--set", "float_r_max=1",
                           "--set", "bridge_r_max=2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    ran = [suite["name"] for suite in data["suites"]]
    assert ran == ["power_closed_form", "coeff_bridge", "float_crosscheck"]
    assert data["config"]["suites"] == ran


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "power_closed_form",
        "--n-max",
        "6",
        "--r-max",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["suites"][0]["name"] == "power_closed_form"


def test_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus_suite")
    assert code == 2
    assert "error" in err


def test_out_of_range_parameters(capsys):
    code, _, err = run_cli(capsys, "chars", "1")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "cot", "4", "--power", "0")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "coord", "1", "0", "1")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "coeffs", "c", "0")
    assert code == 2 and "error" in err


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "q", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "exc",
    [TruncationError("truncation exceeded"), FieldMembershipError("not in the subfield"),
     InternalError("a coefficient does not fit")],
)
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def broken(chi, a):
        raise exc

    monkeypatch.setattr(coordinates, "coord_definitional", broken)
    code, out, err = run_cli(capsys, "coord", "5", "1", "3", "--method", "def")
    assert code == 3
    assert out == ""
    assert err == "internal error: %s\n" % exc
    assert "Traceback" not in err


def test_cli_imports_no_suite_module():
    # the commands that run no suite load neither verify nor series nor dataclasses,
    # and the package still resolves every public name
    code = """if True:
        import sys
        import charcoords.cli
        charcoords.cli.build_parser()
        print(sorted(m for m in ("charcoords.verify", "charcoords.series", "dataclasses")
                     if m in sys.modules))
        import charcoords as cc
        names = cc.__all__
        assert all(getattr(cc, name) is not None for name in names)
        assert set(names) <= set(dir(cc)), set(names) - set(dir(cc))
        assert cc.TruncationError is cc.series.TruncationError
        assert cc.SuiteConfig is cc.verify.SuiteConfig
        namespace = {}
        exec("from charcoords import *", namespace)
        assert set(names) <= set(namespace), set(names) - set(namespace)
        print(sorted(m for m in ("charcoords.verify", "charcoords.series") if m in sys.modules))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n['charcoords.series', 'charcoords.verify']\n"


@pytest.mark.parametrize("argv, suite, cases", [
    ("verify coeff_bridge --set bridge_r_max=4", "coeff_bridge", 6),
    ("coeffs check 4", "coeff_bridge", 6),
    ("series verify --kmax 2 --rmax 2", "series_oracle", 4),
])
def test_suite_commands_run_in_a_fresh_process(argv, suite, cases):
    # the commands that import verify on demand
    proc = subprocess.run([sys.executable, "-m", "charcoords.cli", *argv.split()],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert _report(proc.stdout) == [[suite, str(cases), "cases", "ok"],
                                    ["total", "failures:", "0"]]


def test_cot_deep_power(capsys):
    clear_memos()  # as in a fresh process
    code, out, err = run_cli(capsys, "cot", "3", "--power", "1200", "--format", "json")
    assert code == 0 and err == ""
    value = CycElem.from_json_dict(json.loads(out)["results"]["value"])
    assert value == CycElem.from_rational(Fraction(1, 3**600), 3)


@pytest.mark.parametrize(
    "argv",
    [
        "coord 3 1 --method cotnum --j 401 --format json",
        "coord 3 0 --method cotnum --j 400 --format json",
        "coord 3 0 --method cotnum --j 400",
        "cot 3 --j 200",
    ],
)
def test_values_past_the_double_range_print_exactly(capsys, argv):
    # these values overflow a double: the exact value is printed, the float left out
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    words = argv.split()
    if words[0] == "coord":
        chi = enumerate_characters(3)[int(words[2])]
        value = coord_cotangent_closed(chi, int(words[6]))
    else:
        value = cotangent_number(200, 3)
    if words[-1] == "json":
        (result,) = json.loads(out)["results"]
        assert result["value"] == value.to_json_dict() and "float" not in result
    else:
        assert "no finite double" in out and "~" not in out
        assert all(str(c) in out for c in value.coeffs)


def test_main_twice_in_one_process(capsys):
    argv = ("coord", "7", "1", "3", "--method", "def", "--format", "json")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == 0
    assert first == second


# the first four were generated by the CLI before the big-integer kernels
# went in (the character mod 46 has order 11, so the sum runs in
# Q(zeta_506)), the rest by the CLI that still encoded with json.dumps:
# chars 2 pins an empty list, the all-chars files a list of coord rows
GOLDEN = {
    "coord_47_5_3_def.json": ("coord", "47", "5", "3", "--method", "def"),
    "cot_47_power_3.json": ("cot", "47", "--power", "3"),
    "coord_46_2_4_def.json": ("coord", "46", "2", "4", "--method", "def"),
    "coord_49_1_3_def.json": ("coord", "49", "1", "3", "--method", "def"),
    "chars_2.json": ("chars", "2"),
    "chars_12.json": ("chars", "12"),
    "cot_4_j_3.json": ("cot", "4", "--j", "3"),
    "bernoulli_1_char_4_1.json": ("bernoulli", "1", "--char", "4", "1"),
    "coord_12_3_all_closed.json": ("coord", "12", "3", "--all-chars", "--method", "closed"),
    "coord_12_all_j_3_cotnum.json":
        ("coord", "12", "--all-chars", "--j", "3", "--method", "cotnum"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_json_output(capsys, name):
    code, out, _ = run_cli(capsys, *GOLDEN[name], "--format", "json")
    assert code == 0
    expected = (Path(__file__).parent / "golden" / name).read_text(encoding="utf-8")
    assert out == expected


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.floats()  # nan, +-inf, -0.0, subnormals and values up to 1e308
    | st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 1e16, 1e-7])
    | st.text()  # quotes, backslashes, control and non-ASCII characters
    | st.sampled_from(["", '"', "\\", "\n\t\x00\x1f\x7f", "\u00e9\u2028\U0001f600"]),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_layout_is_json_dumps(value):
    assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_rejects_unknown_types():
    for value in ({"a": [1, {2}]}, Fraction(1, 2), {"x": object()}):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._json(value)


@pytest.mark.parametrize(
    "flags",
    [
        ("coeff_bridge", "--tol", "inf"),
        ("coeff_bridge", "--tol", "nan"),
        ("coeff_bridge", "--tol", "0"),
        ("coeff_bridge", "--tol", "-1"),
        ("coeff_bridge", "--n-max", "-1"),
        ("--set", "suites="),
        ("primitive_closed_form", "--set", "eq_primitive_extra_moduli=-4"),
        ("primitive_closed_form", "--set", "eq_primitive_extra_moduli=x"),
        # ranges that leave a suite with no case at all
        ("power_closed_form", "--n-max", "1"),
        ("power_closed_form", "--r-max", "0"),
        ("float_crosscheck", "--set", "float_n_max=1"),
        ("reconstruction", "--set", "recon_n_max=0"),
        ("series_oracle", "--set", "stirling_k_max=0", "--set", "decomposition_r_max=0",
         "--set", "d_oracle_r_max=0", "--set", "d_series_r_max=0"),
    ],
)
def test_verify_rejects_checks_that_cannot_fail(capsys, flags):
    code, out, err = run_cli(capsys, "verify", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_max", "x"),
        ("float_tolerance", "abc"),
        ("eq_primitive_extra_moduli", "4,x"),
        ("eq_primitive_extra_moduli", "1"),
        ("d_oracle_r_max", "13"),
    ],
)
def test_verify_config_errors_name_the_key(capsys, key, value):
    # refused before any suite runs, whichever suites come first
    code, out, err = run_cli(capsys, "verify", "--set", "%s=%s" % (key, value))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert key in err


def test_float_crosscheck_past_the_double_range_is_a_usage_error(capsys):
    # (i cot(pi/6))^r passes the double range near r = 1291: the suite stops there with
    # one error line naming the ranges, and no case passes or fails
    code, out, err = run_cli(capsys, "verify", "float_crosscheck",
                             "--set", "float_n_max=6", "--set", "float_r_max=1300")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "float_r_max" in err and "float_n_max" in err


def _without_seconds(report: str) -> str:
    return re.sub(r',\n *"seconds": [^\n]*', "", report)


def _check_default_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    golden = Path(__file__).parent / "golden" / "verify_default.json"
    assert _without_seconds(out) == golden.read_text(encoding="utf-8")


def test_verify_default_report_matches_golden(capsys):
    # default ranges: pins the config echo and the seven case counts
    # (1836, 1836, 110, 415, 3092, 171, 97)
    _check_default_report(capsys)


def test_verify_report_ignores_the_environment(tmp_path, capsys, monkeypatch):
    # argv is the whole configuration: a config file named in the
    # environment, as older versions read it, changes nothing
    cfg = tmp_path / "ranges.cfg"
    cfg.write_text("n_max = 3\n")
    monkeypatch.setenv("CHARCOORDS_CONFIG", str(cfg))
    _check_default_report(capsys)


def test_empty_suite_is_refused_before_any_suite_runs(capsys, monkeypatch):
    # reconstruction, the sixth suite, has no case at recon_n_max=1: the
    # refusal draws at most the first case of each suite and runs none
    drawn, ran = {}, []

    def counted(name, cases_of):
        def cases(config):
            for case in cases_of(config):
                drawn[name] = drawn.get(name, 0) + 1
                yield case
        return cases

    for name in verify.SUITE_NAMES:
        monkeypatch.setitem(verify._CASES, name, counted(name, verify._CASES[name]))
        monkeypatch.setitem(verify.SUITES, name, lambda config, name=name: ran.append(name))
    code, out, err = run_cli(capsys, "verify", "--set", "recon_n_max=1")
    assert code == 2
    assert out == ""
    assert err == "error: suite reconstruction has no case in its configured ranges\n"
    assert ran == []
    assert drawn == dict.fromkeys(verify.SUITE_NAMES[:5], 1)


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "verify", "--stirling", "--kmax", "-1"),
        ("series", "verify", "--decomposition", "--rmax", "0"),
        ("series", "verify", "--kmax", "0"),
        ("coeffs", "check", "0"),
    ],
)
def test_checkers_reject_empty_ranges(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_coeffs_check_refuses_a_negative_range_as_verify_does(capsys):
    for argv in ("coeffs check -3", "verify coeff_bridge --set bridge_r_max=-3"):
        assert run_cli(capsys, *argv.split()) == (
            2, "", "error: bridge_r_max must not be negative, got -3\n")


def test_unselected_identity_range_is_not_checked(capsys):
    code, out, _ = run_cli(capsys, "series", "verify", "--stirling", "--kmax", "1", "--rmax", "0")
    assert code == 0
    assert _report(out) == [["series_oracle", "1", "cases", "ok"], ["total", "failures:", "0"]]


# -- malformed argv ----------------------------------------------------------
# Well-formed numbers come from small ranges only (n <= 60, r and j <= 8), so
# no drawn command can start a large computation before it is refused.

_N = st.integers(2, 60)
_R = st.integers(1, 8)
_UNKNOWN = st.sampled_from(["bogus", "DEF", "closedform", "7", ""])


def _bad(lowest):
    """A token that is not an integer >= lowest: not a number, or too small."""
    return st.one_of(st.sampled_from(["x", "1.5", "2e3", "", "0x10", "-x"]),
                     st.integers(-60, lowest - 1).map(str))


def _argv(*parts):
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p)
                       for p in parts)).map(lambda t: [str(x) for x in t])


def _index_out_of_range(n):
    return st.one_of(st.integers(-60, -1), st.integers(euler_phi(n), euler_phi(n) + 60))


MALFORMED_ARGV = st.one_of(
    # a bad number where an integer is required
    _argv("chars", _bad(2)),
    _argv("coord", _bad(2), 0, _R),
    _argv("coord", _N, 0, _bad(1), "--method", st.sampled_from(["def", "closed", "prim"])),
    _argv("coord", _N, 0, "--j", _bad(1), "--method", "cotnum"),
    _argv("coord", _N, _bad(1), "--all-chars"),
    _argv("cot", _bad(2), st.sampled_from(["--power", "--j"]), _R),
    _argv("cot", _N, st.sampled_from(["--power", "--j"]), _bad(1)),
    _argv("bernoulli", _bad(0)),
    _argv("bernoulli", _R, "--char", _bad(2), 0),
    _argv("coeffs", st.sampled_from(["c", "d", "check"]), _bad(1)),
    _argv("series", "verify", st.sampled_from(["--rmax", "--kmax"]), _bad(1)),
    _argv("verify", st.sampled_from(["--n-max", "--r-max"]), _bad(1)),
    _argv("verify", "cotnum_closed_form", "--j-max", _bad(1)),
    _argv("verify", "--tol", st.sampled_from(["x", "0", "-1", "nan", "inf"])),
    _argv("verify", "--set", st.sampled_from(["n_max=x", "bogus=1", "n_max"])),
    # unknown commands, methods, kinds, suites and formats
    _argv(_UNKNOWN),
    _argv("coord", _N, 0, _R, "--method", _UNKNOWN),
    _argv("coeffs", _UNKNOWN, _R),
    _argv("series", _UNKNOWN),
    _argv("verify", _UNKNOWN),
    _argv("chars", _N, "--format", _UNKNOWN),
    # unknown flags, among them the config file flag older versions read
    _argv("verify", st.sampled_from(["--config", "--bogus"]),
          st.sampled_from(["ranges.cfg", "n_max=3"])),
    # conflicting --j, r, --all-chars and --method prim
    _argv("coord", _N, 0, _R, "--j", _R,
          "--method", st.sampled_from(["def", "closed", "prim", "cotnum"])),
    _argv("coord", _N, 0, "--j", _R, "--method", st.sampled_from(["def", "closed", "prim"])),
    _argv("coord", _N, 0, "--method", "cotnum"),
    _argv("coord", _N, 0, _R, "--all-chars"),
    _argv("coord", _N, _R, "--all-chars", "--method", "prim"),
    _argv("cot", _N, "--j", _R, "--power", _R),
    _argv("cot", _N),
    # character index out of range
    _N.flatmap(lambda n: _argv("coord", n, _index_out_of_range(n), _R)),
    _N.flatmap(lambda n: _argv("bernoulli", _R, "--char", n, _index_out_of_range(n))),
)


@settings(max_examples=300, deadline=None)
@given(MALFORMED_ARGV)
def test_malformed_argv_is_a_usage_error(argv):
    # argparse's own refusals raise SystemExit(2); main returns 2 for the rest
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 2, (argv, err.getvalue())
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()


# -- one parse pass ------------------------------------------------------------
# Each subcommand's positionals, in order, and its options, each a list of
# tokens; a token is a string or a strategy, well-formed or not.

def _mostly(valid, lowest):
    """A well-formed token three times in four, else one that is not an integer >= lowest."""
    return st.one_of(valid, valid, valid, _bad(lowest))


_FORMAT = ["--format", st.sampled_from(["text", "json", "bogus"])]
_SUITE = st.sampled_from(["coeff_bridge", "series_oracle", "bogus"])
_ARGV_SHAPES = {
    "chars": ([_mostly(_N, 2)], [_FORMAT]),
    "coord": ([_mostly(_N, 2), _mostly(st.integers(0, 8), 0), _mostly(_R, 1)],
              [["--j", _mostly(_R, 1)], ["--method", st.sampled_from([*METHODS, "bogus"])],
               ["--all-chars"], _FORMAT]),
    "coeffs": ([st.sampled_from(["c", "d", "check", "bogus"]), _mostly(_R, 1)], []),
    "cot": ([_mostly(_N, 2)], [["--j", _R], ["--power", _R], _FORMAT]),
    "bernoulli": ([_mostly(_R, 0)], [["--char", _N, st.integers(0, 8)], _FORMAT]),
    "series": ([st.sampled_from(["verify", "bogus"])],
               [["--decomposition"], ["--stirling"], ["--rmax", _R], ["--kmax", _R]]),
    "verify": ([_SUITE, _SUITE],
               [["--n-max", _R], ["--r-max", _R], ["--j-max", _R],
                ["--tol", st.sampled_from(["1e-8", "x"])],
                ["--set", st.sampled_from(["n_max=3", "bogus"])], _FORMAT]),
}


@st.composite
def _interleaved_argv(draw):
    """A subcommand's positionals (mostly all, else one too few or one too many) and
    up to three of its options, one time in five with an unknown one, each option
    placed before, between or after the positionals."""
    command = draw(st.sampled_from(sorted(_ARGV_SHAPES)))
    positionals, options = _ARGV_SHAPES[command]
    count = max(draw(st.sampled_from([-1, 0, 0, 1])) + len(positionals), 0)
    tokens = [draw(p) for p in (positionals + positionals[-1:])[:count]]
    groups = draw(st.lists(st.sampled_from(options), max_size=3, unique_by=lambda g: g[0])
                  if options else st.just([]))
    groups += [["--bogus"]] if draw(st.sampled_from(range(5))) == 4 else []
    groups = [[draw(t) if isinstance(t, st.SearchStrategy) else t for t in g] for g in groups]
    places = [draw(st.integers(0, len(tokens))) for _ in groups]
    argv = [command]
    for i in range(len(tokens) + 1):
        argv += [t for g, at in zip(groups, places) if at == i for t in g]
        argv += tokens[i:i + 1]
    return [str(t) for t in argv]


@settings(max_examples=1000, deadline=None)
@given(_interleaved_argv())
def test_one_parse_pass_matches_the_intermixed_parse(argv):
    # main parses what parse_intermixed_args parses whenever either accepts argv, and
    # refuses the rest with exit code 2, nothing on stdout and no traceback
    command = cli.build_parser().commands[argv[0]]
    func, parsed = command.get_default("func"), []
    command.set_defaults(func=lambda args: parsed.append(args) or 0)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            try:
                intermixed = [command.parse_intermixed_args(argv[1:])]
            except SystemExit:
                intermixed = []
    finally:
        command.set_defaults(func=func)
    assert parsed == intermixed, argv
    assert code == (0 if parsed else 2), (argv, err.getvalue())
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
