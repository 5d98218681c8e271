"""Command-line frontend.

Each subcommand handler returns its results and prints nothing. `main`
joins them into one report with the command name, its `inputs` (the
arguments given other than --json and --timing, leaving out options not
given) and, with --timing, `timing_seconds`. With --json it prints the
report as canonical JSON; otherwise it renders the same report as text,
key by key in sorted order, so the text shows exactly what the JSON
holds. Reports are deterministic: identical inputs produce byte-identical
output (timing is only included when --timing is passed, since it would
break that guarantee).

A command loads only the modules it runs: this file imports the standard
library and `.errors` alone, and each handler imports what it calls as its
first statement. So `cusps` loads `curve` and `linalg`, and `class-group`,
`divisor` and `eta-check` never load mpmath. Patch a handler's callee on
its own module (say `cuspidal.verify.run_suite`), where it is looked up.

Exit codes: 0 on success, 2 on scope or usage errors (`ScopeError`,
`NotModularError`, `InputError`), 1 on internal failures (an assertion, or
any other `ValueError` or `ArithmeticError`).
"""

import argparse
import functools
import json
import os
import sys
import time

from .errors import InputError, NotModularError, ScopeError

UNIFORMIZER_NOTE = (
    "evaluation-lattice entries depend on the cusp uniformizers; this tool "
    "fixes the standard matrices (1 0; p^m 1) for m >= n/2 and "
    "(-p^(n-m) -1; p^n 0) for m < n/2"
)
PQ_TORSION_NOTE = "extension not resolved; cyclic of order (p-1)(q-1)/3 up to 2-torsion"


def _decimal(n: int) -> str:
    """Decimal digits of an int of any size, in pieces short enough for any
    int-to-str digit limit (640 or more; 4300 by default, and process-wide)."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 2048:  # at most 617 digits
        return str(n)
    low_digits = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10**low_digits)
    return _decimal(high) + _decimal(low).zfill(low_digits)


def _group_payload(group):
    return {"invariant_factors": list(group.invariant_factors), "order": _decimal(group.order)}


def _inline(value) -> str:
    """A JSON value on one line: strings bare, ints as str writes them (the
    text JSON gives them), lists in brackets, anything else as JSON."""
    if isinstance(value, str) or type(value) is int:
        return str(value)
    if isinstance(value, list):
        return "[" + ", ".join(_inline(x) for x in value) + "]"
    return json.dumps(value, sort_keys=True)


def _render(report: dict, indent: str = "") -> list:
    """Text lines of a JSON object, keys in sorted order: `key: value` for a
    scalar or a list of scalars, an indented block for a nested object, and
    one indented line per row of a matrix (columns right-aligned) or per
    record of a list of objects."""
    lines = []
    for key, value in sorted(report.items()):
        if isinstance(value, dict):
            lines += [f"{indent}{key}:", *_render(value, indent + "  ")]
        elif value and isinstance(value, list) and all(isinstance(x, (list, dict)) for x in value):
            lines.append(f"{indent}{key}:")
            width = max((len(_inline(y)) for x in value if isinstance(x, list) for y in x), default=0)
            for x in value:
                if isinstance(x, list):
                    lines.append(indent + "  " + "  ".join(_inline(y).rjust(width) for y in x))
                else:
                    lines.append(indent + "  " + "  ".join(f"{k}: {_inline(v)}" for k, v in sorted(x.items())))
        else:
            lines.append(f"{indent}{key}: {_inline(value)}")
    return lines


def _prime_power(args):
    """(p, n) of a p^n command, within its scope and its ceiling (`eta.CEILINGS`)."""
    from .eta import _require_ceiling
    _require_ceiling(args.command, args.p, args.n)
    return args.p, args.n


def cmd_cusps(args):
    from .curve import cusps
    return {
        "cusps": [
            {"level": c.level, "conductor": c.conductor, "degree": c.degree, "width": c.width}
            for c in cusps(args.N)
        ]
    }


def cmd_eta_check(args):
    from .eta import EtaQuotient, check_modular_function
    h = EtaQuotient.parse(args.expression, args.level)
    report = check_modular_function(h)
    return {
        "expression": str(h),
        "conditions": report._asdict(),
        "modular": report.ok,
    }


def cmd_divisor(args):
    from .curve import cusp_degrees
    from .eta import EtaQuotient, divisor
    h = EtaQuotient.parse(args.expression, args.level)
    div = divisor(h)
    return {
        "expression": str(h),
        "coefficients": {str(d): _decimal(div.coefficient(d)) for d in cusp_degrees(args.level)},
        "degree": _decimal(div.degree()),
    }


def cmd_class_group(args):
    from .classgroup import class_group, class_group_for_level
    if args.N is not None:
        if args.p is not None or args.n is not None:
            raise ScopeError("give either --N or --p/--n, not both")
        result = class_group_for_level(args.N)
    else:
        if args.p is None or args.n is None:
            raise ScopeError("class-group needs --p P --n K or --N N")
        result = class_group(*_prime_power(args))
    return {
        **_group_payload(result.group),
        "certified": result.certified,
        "generators": [str(d) for d in result.generator_divisors],
    }


def cmd_matrices(args):
    from .classgroup import order_matrices
    from .verify import determinant_claims
    mats = order_matrices(*_prime_power(args))
    claims = {
        name: {"value": _decimal(value), "expected": _decimal(expected), "ok": value == expected}
        for name, (value, expected) in determinant_claims(mats).items()
    }
    return {
        "m_times_24": [list(row) for row in mats.m24],
        "u": [list(row) for row in mats.u],
        "v": [list(row) for row in mats.v],
        "claims": claims,
    }


def cmd_leading_coeffs(args):
    from .eta import prime_power_generators
    from .transform import cusp_expansion, numeric_leading_coefficient, sigma_matrix
    p, n = _prime_power(args)
    gens = prime_power_generators(p, n)
    names = ["f"] + [f"g{k}" for k in range(n - 1)]
    rows = []
    etas = {}
    for name, h in zip(names, gens):
        symbolic = []
        residuals = []
        for m in range(n + 1):
            sigma = sigma_matrix(p, n, m)
            expansion = cusp_expansion(h, sigma)
            numeric = numeric_leading_coefficient(h, sigma, expansion, height=8, etas=etas)
            symbolic.append(str(expansion.leading))
            residuals.append(f"{abs(expansion.leading.as_complex() - numeric.value):.11e}")
        rows.append({"function": name, "symbolic": symbolic, "numeric_residual": residuals})
    return {"cusp_indices": list(range(n + 1)), "rows": rows}


def cmd_delta(args):
    from .jacobian import delta_cokernel, delta_matrix
    matrix = delta_matrix(*_prime_power(args))
    return {
        "matrix": [list(row) for row in matrix],
        "cokernel": _group_payload(delta_cokernel(matrix)),
        "uniformizers": UNIFORMIZER_NOTE,
    }


def cmd_torsion(args):
    from .jacobian import generalized_torsion, pq_delta_kernel
    if args.pq is not None:
        if args.p is not None or args.n is not None:
            raise ScopeError("give either --p/--n or --pq, not both")
        result = pq_delta_kernel(*args.pq)
        return {
            "order": _decimal(result.order),
            "group": None,
            "up_to_2_torsion": _group_payload(result.up_to_2_torsion),
            "kernel": _group_payload(result.kernel),
            "mu_part": _group_payload(result.mu_part),
            "conditional": result.conditional,
            "note": PQ_TORSION_NOTE,
        }
    if args.p is None or args.n is None:
        raise ScopeError("torsion needs --p P --n K or --pq P Q")
    result = generalized_torsion(*_prime_power(args))
    mu_part = _group_payload(result.mu_part)  # result.group is the same group, rendered once
    return {
        **mu_part,
        "conditional": result.conditional,
        "kernel": _group_payload(result.kernel),
        "mu_part": mu_part,
    }


def cmd_pq(args):
    from .classgroup import class_group_pq
    from .jacobian import pq_delta_kernel
    from .transform import LeadingCoeff, pq_leading_coefficients
    from .verify import pq_closed_forms
    p, q = args.p, args.q
    group_result = class_group_pq(p, q)
    table = pq_leading_coefficients(p, q)
    kernel_result = pq_delta_kernel(p, q, table, group_result.generator_divisors)
    a, b, c, order = pq_closed_forms(p, q)
    levels = (1, p, q, p * q)
    magnitudes = {
        name: [str(LeadingCoeff.make(0, table[name][level].leading.half_exponents)) for level in levels]
        for name in table
    }
    return {
        "a": _decimal(a),
        "b": _decimal(b),
        "c": _decimal(c),
        "class_group": _group_payload(group_result.group),
        "order_formula_4abc": _decimal(order),
        "kernel": _group_payload(kernel_result.kernel),
        "mu_part": _group_payload(kernel_result.mu_part),
        "torsion_order": _decimal(kernel_result.order),
        "up_to_2_torsion": _group_payload(kernel_result.up_to_2_torsion),
        "cusp_levels": list(levels),
        "leading_coefficient_magnitudes": magnitudes,
    }


def cmd_verify(args):
    from .verify import run_suite
    checks = run_suite(args.suite)
    return {
        "suite": args.suite,
        "results": [r._asdict() for r in checks],
        "all_passed": all(r.passed for r in checks),
    }


_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}
_P_N = (("--p", _REQUIRED_INT), ("--n", _REQUIRED_INT))
_EXPRESSION = (("expression", {}), ("--level", _REQUIRED_INT))
_SUITE_HELP = "a suite named in verify.CRITERIA, or all; an unknown name lists them"

# each subcommand's own arguments, as (name, `add_argument` keywords) in
# `--help` order. `main` runs `class-group` by calling `cmd_class_group`, and
# so on, looked up by name at each call, so that a wrapper bound to that name
# (as perfbench's tracer binds one) is the one that runs
COMMANDS = {
    "cusps": (("N", _INT),),
    "eta-check": _EXPRESSION,
    "divisor": _EXPRESSION,
    "class-group": (("--p", _INT), ("--n", _INT), ("--N", _INT)),
    "matrices": _P_N,
    "leading-coeffs": _P_N,
    "delta": _P_N,
    "torsion": (("--p", _INT), ("--n", _INT), ("--pq", {"type": int, "nargs": 2, "metavar": ("P", "Q")})),
    "pq": (("--p", _REQUIRED_INT), ("--q", _REQUIRED_INT)),
    "verify": (("--suite", {"default": "all", "help": _SUITE_HELP}),),
}


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cuspidal",
        description="exact cuspidal class groups, eta-unit leading coefficients, "
        "and generalized-Jacobian torsion on X0(N)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, arguments in COMMANDS.items():
        command = sub.add_parser(name)
        for flag, options in arguments:
            command.add_argument(flag, **options)
        command.add_argument("--json", action="store_true", help="machine-readable report")
        command.add_argument("--timing", action="store_true", help="include timing (non-deterministic)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    start = time.monotonic()
    try:
        results = handler(args)
    except (ScopeError, NotModularError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 1
    # the arguments given, bar the output flags; an option not given is left out
    inputs = {k: v for k, v in vars(args).items() if v is not None and k not in ("command", "json", "timing")}
    report = {"command": args.command, "inputs": inputs, **results}
    if args.timing:
        report["timing_seconds"] = time.monotonic() - start
    try:
        print(json.dumps(report, indent=2, sort_keys=True) if args.json else "\n".join(_render(report)), flush=True)
    except BrokenPipeError:  # the reader closed stdout: keep the exit flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.command == "verify" and not results["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
