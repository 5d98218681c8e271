"""Command-line frontend.

Every subcommand prints a plain-text table by default or a canonical JSON
report with --json. Reports are deterministic: identical inputs produce
byte-identical output (timing is only included when --timing is passed,
since it would break that guarantee).

Exit codes: 0 on success, 2 on scope or usage errors (`ScopeError`,
`NotModularError`, `InputError`), 1 on internal failures (an assertion, or
any other `ValueError` or `ArithmeticError`).
"""

import argparse
import functools
import json
import sys
import time

from .classgroup import class_group, class_group_for_level, class_group_pq, determinant_claims, order_matrices
from .curve import cusps
from .errors import InputError, NotModularError, ScopeError
from .eta import EtaQuotient, check_modular_function, divisor, prime_power_generators
from .jacobian import delta_cokernel, delta_matrix, generalized_torsion, pq_delta_kernel
from .linalg import divisors_of
from .transform import (
    LeadingCoeff,
    cusp_expansion,
    numeric_leading_coefficient,
    pq_leading_coefficients,
    sigma_matrix,
)
from .verify import CRITERIA, run_suite

UNIFORMIZER_NOTE = (
    "evaluation-lattice entries depend on the cusp uniformizers; this tool "
    "fixes the standard matrices (1 0; p^m 1) for m >= n/2 and "
    "(-p^(n-m) -1; p^n 0) for m < n/2"
)


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


def _matrix_payload(matrix):
    return [list(row) for row in matrix]


def _parse_quotient(expression, level):
    if level is None:
        raise ScopeError("--level N is required")
    return EtaQuotient.parse(expression, level)


def cmd_cusps(args):
    rows = cusps(args.N)
    results = {
        "cusps": [
            {"level": c.level, "conductor": c.conductor, "degree": c.degree, "width": c.width}
            for c in rows
        ]
    }
    lines = [f"cusps of X0({args.N})", "level  conductor  degree  width"]
    for c in rows:
        lines.append(f"{c.level:>5}  {c.conductor:>9}  {c.degree:>6}  {c.width:>5}")
    return {"N": args.N}, results, lines


def cmd_eta_check(args):
    h = _parse_quotient(args.expression, args.level)
    report = check_modular_function(h)
    results = {
        "expression": str(h),
        "conditions": {
            "weight_zero": report.weight_zero,
            "square_product": report.square_product,
            "sum_delta_mod_24": report.sum_delta_mod_24,
            "sum_complement_mod_24": report.sum_complement_mod_24,
        },
        "modular": report.ok,
    }
    lines = [f"eta quotient {h} on X0({args.level})"]
    for name, value in results["conditions"].items():
        lines.append(f"  {name:<22} {'pass' if value else 'FAIL'}")
    lines.append(f"modular function: {'yes' if report.ok else 'no'}")
    return {"expression": args.expression, "level": args.level}, results, lines


def cmd_divisor(args):
    h = _parse_quotient(args.expression, args.level)
    div = divisor(h)
    results = {
        "expression": str(h),
        "coefficients": {str(d): str(div.coefficient(d)) for d in divisors_of(args.level)},
        "degree": str(div.degree()),
    }
    lines = [f"div({h}) on X0({args.level})", f"  {div}", "level  coefficient"]
    for d in divisors_of(args.level):
        lines.append(f"{d:>5}  {div.coefficient(d)}")
    return {"expression": args.expression, "level": args.level}, results, lines


def cmd_class_group(args):
    if args.N is not None:
        if args.p is not None or args.n is not None:
            raise ScopeError("give either --N or --p/--n, not both")
        result = class_group_for_level(args.N)
    else:
        if args.p is None or args.n is None:
            raise ScopeError("class-group needs --p P --n K or --N N")
        result = class_group(args.p, args.n)
    results = {
        **_group_payload(result.group),
        "certified": result.certified,
        "generators": [str(d) for d in result.generator_divisors],
    }
    lines = [
        f"cuspidal class group of X0({result.N})",
        f"  structure: {result.group}",
        f"  order:     {_decimal(result.group.order)}",
        f"  certified: {'yes' if result.certified else 'no (upper-bound quotient)'}",
    ]
    inputs = {"N": args.N} if args.N is not None else {"p": args.p, "n": args.n}
    return inputs, results, lines


def cmd_matrices(args):
    mats = order_matrices(args.p, args.n)
    p, n = args.p, args.n
    claims = {
        name: {"value": str(value), "expected": str(expected), "ok": value == expected}
        for name, (value, expected) in determinant_claims(mats).items()
    }
    results = {
        "m_times_24": _matrix_payload(mats.m24),
        "u": _matrix_payload(mats.u),
        "v": _matrix_payload(mats.v),
        "claims": claims,
    }
    lines = [f"order matrices for X0({p}^{n})", "24*M:", str(mats.m24), "U:", str(mats.u), "V:", str(mats.v)]
    for name, claim in claims.items():
        lines.append(
            f"  {name:<18} {claim['value']} == {claim['expected']}  "
            f"{'pass' if claim['ok'] else 'FAIL'}"
        )
    return {"p": p, "n": n}, results, lines


def cmd_leading_coeffs(args):
    p, n = args.p, args.n
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
            numeric = numeric_leading_coefficient(h, sigma, expansion, height=8, terms=200, etas=etas)
            symbolic.append(str(expansion.leading))
            residuals.append(f"{abs(expansion.leading.as_complex() - numeric.value):.11e}")
        rows.append({"function": name, "symbolic": symbolic, "numeric_residual": residuals})
    results = {"cusp_indices": list(range(n + 1)), "rows": rows}
    lines = [f"leading coefficients on X0({p}^{n}) (columns: cusp index m = 0..{n})"]
    for row in rows:
        lines.append(f"{row['function']}:")
        for m, (sym, res) in enumerate(zip(row["symbolic"], row["numeric_residual"])):
            lines.append(f"  m={m}: {sym}   (numeric residual {res})")
    return {"p": p, "n": n}, results, lines


def cmd_delta(args):
    matrix = delta_matrix(args.p, args.n)
    cokernel = delta_cokernel(matrix)
    results = {
        "matrix": _matrix_payload(matrix),
        "cokernel": _group_payload(cokernel),
        "uniformizers": UNIFORMIZER_NOTE,
    }
    lines = [
        f"evaluation matrix for X0({args.p}^{args.n}) "
        "(rows: div f, div g_k; columns: p, sqrt(p*) coordinates)",
        str(matrix),
        f"cokernel: {cokernel} (order {_decimal(cokernel.order)})",
        f"note: {UNIFORMIZER_NOTE}",
    ]
    return {"p": args.p, "n": args.n}, results, lines


def cmd_torsion(args):
    if args.pq is not None:
        if args.p is not None or args.n is not None:
            raise ScopeError("give either --p/--n or --pq, not both")
        p, q = args.pq
        result = pq_delta_kernel(p, q)
        results = {
            "order": _decimal(result.order),
            "group": None,
            "up_to_2_torsion": _group_payload(result.up_to_2_torsion),
            "kernel": _group_payload(result.kernel),
            "mu_part": _group_payload(result.mu_part),
            "conditional": result.conditional,
            "note": result.note,
        }
        lines = [
            f"generalized-Jacobian torsion for X0({p}*{q})",
            f"  order:    {_decimal(result.order)}",
            f"  kernel:   {result.kernel}",
            f"  mu part:  {result.mu_part}",
            f"  up to 2-torsion: {result.up_to_2_torsion} (conditional)",
            f"  note: {result.note}",
        ]
        return {"pq": [p, q]}, results, lines
    if args.p is None or args.n is None:
        raise ScopeError("torsion needs --p P --n K or --pq P Q")
    result = generalized_torsion(args.p, args.n)
    results = {
        **_group_payload(result.group),
        "conditional": result.conditional,
        "kernel": _group_payload(result.kernel),
        "mu_part": _group_payload(result.mu_part),
    }
    flag = "conditional on the cuspidal-torsion conjecture" if result.conditional else "unconditional"
    lines = [
        f"generalized-Jacobian torsion for X0({args.p}^{args.n})",
        f"  group: {result.group} ({flag})",
        f"  order: {_decimal(result.order)}",
    ]
    return {"p": args.p, "n": args.n}, results, lines


def cmd_pq(args):
    p, q = args.p, args.q
    group_result = class_group_pq(p, q)
    table = pq_leading_coefficients(p, q)
    kernel_result = pq_delta_kernel(p, q, table, group_result.generator_divisors)
    a = (p - 1) * (q + 1) // 24
    b = (p + 1) * (q - 1) // 24
    c = (p - 1) * (q - 1) // 24
    levels = (1, p, q, p * q)
    magnitudes = {
        name: [str(_magnitude(table[name][level].leading)) for level in levels] for name in table
    }
    results = {
        "a": str(a),
        "b": str(b),
        "c": str(c),
        "class_group": _group_payload(group_result.group),
        "order_formula_4abc": str(4 * a * b * c),
        "kernel": _group_payload(kernel_result.kernel),
        "mu_part": _group_payload(kernel_result.mu_part),
        "torsion_order": _decimal(kernel_result.order),
        "up_to_2_torsion": _group_payload(kernel_result.up_to_2_torsion),
        "cusp_levels": list(levels),
        "leading_coefficient_magnitudes": magnitudes,
    }
    lines = [
        f"X0({p}*{q}): a = {a}, b = {b}, c = {c}",
        f"  class group: {group_result.group} (order {_decimal(group_result.group.order)} = 4abc = {4*a*b*c})",
        f"  connecting-map kernel: {kernel_result.kernel}",
        f"  torsion order: {_decimal(kernel_result.order)}; {kernel_result.note}",
        "  leading-coefficient magnitudes (up to sign), cusps "
        + ", ".join(str(level) for level in levels) + ":",
    ]
    for name in ("f1", "f2", "f3"):
        lines.append(f"    {name}: " + "  ".join(magnitudes[name]))
    return {"p": p, "q": q}, results, lines


def _magnitude(lc):
    return LeadingCoeff.make(0, dict(lc.half_exponents))


def cmd_verify(args):
    results = run_suite(args.suite)
    payload = {
        "suite": args.suite,
        "results": [
            {"criterion": r.criterion, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.criterion:<26} {r.detail}")
    lines.append("all criteria passed" if payload["all_passed"] else "FAILURES present")
    return {"suite": args.suite}, payload, lines


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cuspidal",
        description="exact cuspidal class groups, eta-unit leading coefficients, "
        "and generalized-Jacobian torsion on X0(N)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, configure):
        p = sub.add_parser(name)
        configure(p)
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--timing", action="store_true", help="include timing (non-deterministic)")
        p.set_defaults(handler=func)

    add("cusps", cmd_cusps, lambda p: p.add_argument("N", type=int))
    add(
        "eta-check",
        cmd_eta_check,
        lambda p: (p.add_argument("expression"), p.add_argument("--level", type=int, required=True)),
    )
    add(
        "divisor",
        cmd_divisor,
        lambda p: (p.add_argument("expression"), p.add_argument("--level", type=int, required=True)),
    )
    add(
        "class-group",
        cmd_class_group,
        lambda p: (
            p.add_argument("--p", type=int),
            p.add_argument("--n", type=int),
            p.add_argument("--N", type=int),
        ),
    )
    add(
        "matrices",
        cmd_matrices,
        lambda p: (
            p.add_argument("--p", type=int, required=True),
            p.add_argument("--n", type=int, required=True),
        ),
    )
    add(
        "leading-coeffs",
        cmd_leading_coeffs,
        lambda p: (
            p.add_argument("--p", type=int, required=True),
            p.add_argument("--n", type=int, required=True),
        ),
    )
    add(
        "delta",
        cmd_delta,
        lambda p: (
            p.add_argument("--p", type=int, required=True),
            p.add_argument("--n", type=int, required=True),
        ),
    )
    add(
        "torsion",
        cmd_torsion,
        lambda p: (
            p.add_argument("--p", type=int),
            p.add_argument("--n", type=int),
            p.add_argument("--pq", type=int, nargs=2, metavar=("P", "Q")),
        ),
    )
    add(
        "pq",
        cmd_pq,
        lambda p: (
            p.add_argument("--p", type=int, required=True),
            p.add_argument("--q", type=int, required=True),
        ),
    )
    add(
        "verify",
        cmd_verify,
        lambda p: p.add_argument(
            "--suite", default="all", choices=[name for name, _ in CRITERIA] + ["all"]
        ),
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.monotonic()
    try:
        inputs, results, lines = args.handler(args)
    except (ScopeError, NotModularError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - start
    if args.json:
        report = {"command": args.command, "inputs": inputs, **results}
        if args.timing:
            report["timing_seconds"] = elapsed
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
        if args.timing:
            print(f"elapsed: {elapsed:.3f}s")
    if args.command == "verify" and not results["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
