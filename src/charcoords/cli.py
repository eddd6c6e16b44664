"""Command-line interface.

Subcommands: chars, coord, coeffs, cot, bernoulli, series, verify.
JSON output wraps results in a stable envelope {command, inputs, results,
version}; rationals always serialize as strings like "p/q", never floats.
Text output is for humans and carries no stability guarantee.  This
module alone builds the output rows (the coord row and the coeffs CSV
rows).  coord reads coordinates.METHODS, the one list of methods (a new
method is one entry; --all-chars computes one value per Galois orbit).
coeffs check and series verify are presets of verify: one suite, the same
config checks, the same report and exit code.

The verify subcommand takes its configuration from its argv alone: the
range flags and --set key=value, which reaches every SuiteConfig field.
No file or environment variable changes what it checks.

main parses a subcommand's argv in one parse_known_args pass.  Options may
come before, between or after the positionals: parse_intermixed_args, which
takes two passes, runs only when that pass leaves strings over, for a
positional after an option or an unknown argument, which it reports.

Importing this module and building its parser loads the package's
arith, memo, cyclotomic, characters, bernoulli, combinatorics, cotangent
and coordinates modules (charcoords/__init__.py imports them) and no
dataclasses.  charcoords.verify, and with it charcoords.series, which
only verify uses, load on first use: the three commands that run suites
(verify, coeffs check, series verify) import verify.  main reports
TruncationError and InternalError (FieldMembershipError is one) as
internal errors, exit code 3; both are defined in charcoords.arith, so
catching them loads neither module.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .arith import InternalError, TruncationError
from .bernoulli import bernoulli_number, generalized_bernoulli
from .characters import enumerate_characters
from .combinatorics import bernoulli_conv_coeff, cot_power_coeff
from .coordinates import METHODS
from .cotangent import cotangent_number, icot_power
from .cyclotomic import CycElem
from .memo import memo


def _json(obj, pad: str = "\n") -> str:
    """obj as json.dumps prints it with sorted keys and a two-space indent, byte
    for byte, without the pure-Python encoder that any indent selects: one
    str.join per container, and json's own rendering of each leaf, through
    json.dumps only for the rare one (nan, inf, subclasses).  Keys must be
    strings; an unknown type raises TypeError, as in json.dumps."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    if t is float and math.isfinite(obj):
        return float.__repr__(obj)
    if obj is None or t is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [_quote(k) + ": " + _json(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    return json.dumps(obj)


def _emit(args, command: str, inputs: dict, results, text_lines) -> None:
    if getattr(args, "format", "text") == "json":
        print(_json({"command": command, "inputs": inputs, "results": results,
                     "version": __version__}))
    else:
        for line in text_lines:
            print(line)


def _float_or_none(value: CycElem) -> complex | None:
    """The double value, or None when it does not fit in a finite double."""
    try:
        z = value.complex_eval()
    except OverflowError:
        return None
    return z if cmath.isfinite(z) else None


def _cyc_text(value: CycElem) -> str:
    z = _float_or_none(value)
    return "order %d, coeffs [%s], %s" % (
        value.order,
        ", ".join(value.coeff_strings()),
        "no finite double" if z is None else "~ %.12g%+.12gi" % (z.real, z.imag),
    )


def _character(chars, index: int):
    if not 0 <= index < len(chars):
        raise ValueError("character index out of range (0..%d)" % (len(chars) - 1))
    return chars[index]


# -- chars -------------------------------------------------------------------

def _cmd_chars(args) -> int:
    chars = enumerate_characters(args.n)
    rows = [
        {
            "index": chi.index,
            "exponents": list(chi.exponents),
            "order": chi.order,
            "conductor": chi.conductor(),
            "parity": chi.parity(),
        }
        for chi in chars
    ]
    header = "index  exponents        order  conductor  parity"
    lines = [header] + [
        "%5d  %-15s  %5d  %9d  %+d"
        % (r["index"], r["exponents"], r["order"], r["conductor"], r["parity"])
        for r in rows
    ]
    _emit(args, "chars", {"n": args.n}, rows, lines)
    return 0


# -- coord -------------------------------------------------------------------

def _coord_row(chi, degree: int, method: str, value: CycElem) -> dict:
    """The row of one coordinate: modulus, char_index, degree (r, or j for
    cotangent numbers), the method name it reports, the value, and float
    when the value fits in a finite double."""
    row = {"modulus": chi.modulus, "char_index": chi.index, "degree": degree,
           "method": method, "value": value.to_json_dict()}
    z = _float_or_none(value)
    if z is not None:
        row["float"] = {"re": z.real, "im": z.imag}
    return row


def _cmd_coord(args) -> int:
    method = METHODS[args.method]
    chars = enumerate_characters(args.n)
    if args.all_chars:
        # with --all-chars the single positional after n is the power r
        if args.r is not None:
            raise ValueError("--all-chars takes n and r, not a character index")
        args.r, args.char_index = args.char_index, None
        if method.primitive:
            # character 0 is principal, of conductor 1: never primitive mod n >= 2
            raise ValueError("--all-chars cannot be combined with --method %s,"
                             " which needs primitive characters" % args.method)
        targets = chars
    else:
        if args.char_index is None:
            raise ValueError("give a character index or --all-chars")
        targets = [_character(chars, args.char_index)]
    if method.degree == "r" and (args.r is None or args.j is not None):
        raise ValueError("method %r needs the positional r and no --j" % args.method)
    if method.degree == "j" and (args.j is None or args.r is not None):
        raise ValueError("--method %s needs --j and no r" % args.method)
    degree = args.r if method.degree == "r" else args.j
    ys = (method.coords(args.n, degree) if args.all_chars  # one value per Galois orbit
          else {chi: method.one(chi, degree) for chi in targets})
    rows = [_coord_row(chi, degree, method.name, ys[chi]) for chi in targets]
    inputs = {"n": args.n, "char_index": args.char_index, "r": args.r, "j": args.j,
              "method": args.method, "all_chars": args.all_chars}
    lines = ("chi index %d (mod %d), degree %d, method %s: %s"
             % (chi.index, args.n, degree, method.name, _cyc_text(ys[chi])) for chi in targets)
    _emit(args, "coord", inputs, rows, lines)
    return 0


# -- coeffs ------------------------------------------------------------------

def _cmd_coeffs(args) -> int:
    if args.kind == "check":
        return _verify(args, {"suites": ("coeff_bridge",), "bridge_r_max": args.r})
    if args.r < 1:
        raise ValueError("coefficient tables need r >= 1")
    coeff = cot_power_coeff if args.kind == "c" else bernoulli_conv_coeff
    for j in range(1, args.r + 1):
        v = coeff(args.r, j)
        if v:
            print("%d,%d,%s" % (args.r, j, v))
    return 0


# -- cot ---------------------------------------------------------------------

def _cmd_cot(args) -> int:
    if args.j is not None:
        value = cotangent_number(args.j, args.n)
        label = {"kind": "cotangent_number", "j": args.j}
    else:
        value = icot_power(args.power, args.n)
        label = {"kind": "icot_power", "r": args.power}
    inputs = {"n": args.n, **label}
    lines = (_cyc_text(v) for v in [value])
    _emit(args, "cot", inputs, {"value": value.to_json_dict()}, lines)
    return 0


# -- bernoulli ----------------------------------------------------------------

def _cmd_bernoulli(args) -> int:
    if args.char is None:
        value = CycElem.from_rational(bernoulli_number(args.r))
        inputs = {"r": args.r}
        lines = ["B_%d = %s" % (args.r, value.coeff_strings()[0])]
    else:
        n, index = args.char
        chi = _character(enumerate_characters(n), index).primitive_part()
        value = generalized_bernoulli(args.r, chi)
        inputs = {"r": args.r, "char": [n, index], "conductor": chi.modulus}
        lines = (
            "B_{%d, chi} for chi = primitive part of character %d mod %d: %s"
            % (args.r, index, n, _cyc_text(v)) for v in [value]
        )
    _emit(args, "bernoulli", inputs, {"value": value.to_json_dict()}, lines)
    return 0


# -- series --------------------------------------------------------------------

def _cmd_series(args) -> int:
    run_all = not (args.prop_decomposition or args.stirling)
    stirling = args.stirling or run_all
    decomposition = args.prop_decomposition or run_all
    # a selected identity with an empty range would check nothing
    if stirling and args.kmax < 1:
        raise ValueError("--kmax must be >= 1, got %d" % args.kmax)
    if decomposition and args.rmax < 1:
        raise ValueError("--rmax must be >= 1, got %d" % args.rmax)
    return _verify(args, {
        "suites": ("series_oracle",), "d_oracle_r_max": 0, "d_series_r_max": 0,
        "stirling_k_max": args.kmax if stirling else 0,
        "decomposition_r_max": args.rmax if decomposition else 0})


# -- verify ---------------------------------------------------------------------

def _cmd_verify(args) -> int:
    # each range flag's dest is the SuiteConfig field it sets
    flags = ("n_max", "r_max", "j_max", "float_tolerance")
    overrides = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError("--set expects key=value, got %r" % item)
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.suites:
        overrides["suites"] = tuple(args.suites)
    return _verify(args, overrides)


def _verify(args, overrides: dict) -> int:
    """Run the suites of config_with_overrides(**overrides) and print the
    one suite report, as text or as JSON; exit code 0 or 1.  The config echo
    names each suite that ran, once, in run order."""
    from .verify import config_with_overrides, run_suites

    cfg = config_with_overrides(**overrides)
    results = run_suites(cfg)
    total_failures = sum(len(r.failures) for r in results)
    if getattr(args, "format", "text") == "json":
        report = {
            "config": {"n_max": cfg.n_max, "r_max": cfg.r_max, "j_max": cfg.j_max,
                       "float_tolerance": cfg.float_tolerance,
                       "suites": [r.name for r in results]},
            "suites": [r.to_json_dict() for r in results],
            "passed": total_failures == 0,
            "version": __version__,
        }
        print(_json(report))
    else:
        for r in results:
            status = "ok" if r.passed else "FAIL (%d)" % len(r.failures)
            print(
                "%-22s %6d cases  %8.2fs  %s" % (r.name, r.cases, r.seconds, status)
            )
            for failure in r.failures[:20]:
                print("  mismatch %s: %s != %s" % (failure.inputs, failure.lhs, failure.rhs))
        print("total failures: %d" % total_failures)
    return 0 if total_failures == 0 else 1


# -- parser ----------------------------------------------------------------------

@memo
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the CLI.

    Built once per process and shared by every call of :func:`main`, so a
    long-lived caller does not rebuild it per request.  main is not for
    concurrent threads: they would share one sys.stdout.  main's one
    parse_known_args pass leaves the parser untouched; only its fallback,
    parse_intermixed_args, changes it while it parses, on some Python versions.
    """
    parser = argparse.ArgumentParser(
        prog="charcoords",
        description="Exact character coordinates of cotangent powers in cyclotomic fields",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chars", help="list the Dirichlet characters mod n")
    p.add_argument("n", type=int, help="the modulus, n >= 2")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_chars)

    p = sub.add_parser("coord", help="character coordinate of a cotangent power")
    p.add_argument("n", type=int, help="the modulus of the characters and of cot(pi/n)")
    p.add_argument("char_index", type=int, nargs="?",
                   help="the character's index in `chars n`; with --all-chars, the power r")
    p.add_argument("r", type=int, nargs="?",
                   help="the power r of i*cot(pi/n); --method cotnum takes --j and no r")
    p.add_argument("--j", type=int, help="cotangent-number index (with --method cotnum)")
    p.add_argument("--method", choices=list(METHODS), default="def",
                   help="; ".join("%s: %s" % (key, m.summary) for key, m in METHODS.items()))
    p.add_argument("--all-chars", action="store_true",
                   help="every character mod n; takes n and r, or n and --j")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_coord)

    p = sub.add_parser("coeffs", help="expansion coefficient tables (CSV)")
    p.add_argument("kind", choices=("c", "d", "check"),
                   help="c: cot-power coefficients; d: Bernoulli convolution; check: the bridge")
    p.add_argument("r", type=int, help="the row r of the table; with check, every r <= R")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("cot", help="exact cotangent powers / cotangent numbers")
    p.add_argument("n", type=int, help="the modulus of cot(pi/n)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--j", type=int, help="cotangent number index")
    group.add_argument("--power", type=int, help="power of i*cot(pi/n)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_cot)

    p = sub.add_parser("bernoulli", help="Bernoulli and generalized Bernoulli numbers")
    p.add_argument("r", type=int, help="the index r of B_r, or of B_{r, chi} with --char")
    p.add_argument(
        "--char",
        nargs=2,
        type=int,
        metavar=("N", "INDEX"),
        help="twist by the primitive part of character INDEX mod N",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_bernoulli)

    p = sub.add_parser("series", help="series-level identity checks")
    p.add_argument("action", choices=("verify",), help="verify: check the selected identities")
    p.add_argument("--decomposition", dest="prop_decomposition", action="store_true",
                   help="check the cotangent power decomposition")
    p.add_argument("--stirling", action="store_true",
                   help="check the Stirling derivative identity")
    p.add_argument("--rmax", type=int, default=12)
    p.add_argument("--kmax", type=int, default=10)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="*", help="suite names (default: all)")
    p.add_argument("--n-max", type=int)
    p.add_argument("--r-max", type=int)
    p.add_argument("--j-max", type=int)
    p.add_argument("--tol", type=float, dest="float_tolerance", metavar="TOL")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any SuiteConfig field")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    parser.commands = sub.choices  # each subcommand's parser, for main
    return parser


def main(argv=None) -> int:
    # one parse_known_args pass; parse_intermixed_args (two passes) only for argv that pass
    # leaves strings of: a positional after an option, or an unknown argument
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None  # None: -h, --version, no known command
    if command is None:
        args = parser.parse_args(argv)
    else:
        if command.usage is None:  # else parse_intermixed_args formats it per call
            command.usage = command.format_usage()[len("usage: "):]
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            args = command.parse_intermixed_args(argv[1:])
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: keep the final flush at exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process the pipe killed
    except (TruncationError, InternalError) as exc:
        # internal consistency failures; TruncationError is a ValueError
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
