"""Acceptance suites: every headline identity of the library checked at its
stated tolerance, one result line per criterion, and the closed forms they
check against.

These are the same checks the test suite runs; the CLI exposes them through
the `verify` subcommand so the whole battery can be reproduced without
pytest.
"""

import random
import time
from collections import namedtuple
from fractions import Fraction
from math import gcd, prod
from operator import mul

import mpmath as mp

from .classgroup import OrderMatrices, class_group, class_group_pq, order_matrices
from .curve import cusp_degrees
from .errors import InputError
from .eta import (
    EtaQuotient,
    _require_prime_power,
    check_modular_function,
    divisor,
    order_at_cusp,
    pq_generators,
    prime_power_generators,
)
from .jacobian import delta_cokernel, delta_kernel_on_cuspidal, delta_matrix, generalized_torsion
from .linalg import AbelianGroup, IntMatrix, _egcd, smith_normal_form
from .transform import (
    LeadingCoeff,
    cusp_expansion,
    eta_multiplier,
    eta_numeric,
    numeric_leading_coefficient,
    pq_leading_coefficients,
    pq_sigma_matrix,
    sigma_matrix,
    suggested_height,
)


CheckResult = namedtuple("CheckResult", "criterion passed detail")


def _primes(lo, hi):
    return [p for p in range(lo, hi) if all(p % d for d in range(2, int(p**0.5) + 1))]


def check_class_group_structure() -> CheckResult:
    """Invariant factors of C(p^n) against the closed-form structure."""
    start = time.monotonic()
    cases = 0
    for p in (5, 7, 11, 13, 17, 19):
        for n in range(1, 6):
            if class_group(p, n).group != ling_structure(p, n):
                return CheckResult(
                    "class-group-structure", False, f"mismatch at (p, n) = ({p}, {n})"
                )
            cases += 1
    elapsed = time.monotonic() - start
    return CheckResult(
        "class-group-structure",
        elapsed < 5.0,
        f"{cases} cases match the closed form in {elapsed:.2f}s (< 5s required)",
    )


def check_mazur_orders() -> CheckResult:
    """C(p) cyclic of order (p-1)/gcd(p-1,12) for all primes 5 <= p < 200."""
    for p in _primes(5, 200):
        a = (p - 1) // gcd(p - 1, 12)
        expected = AbelianGroup.from_cyclic_orders([a])
        if class_group(p, 1).group != expected:
            return CheckResult("mazur-orders", False, f"mismatch at p = {p}")
    return CheckResult("mazur-orders", True, f"{len(_primes(5, 200))} primes match exactly")


def check_determinant_claims() -> CheckResult:
    """|det V|, det(24M), det U and the last-row sum of VMU in closed form."""
    labels = {"abs_det_v": "det V", "det_m_times_24": "det M", "det_u": "det U", "vmu_last_row_sum": "VMU row sum"}
    cases = 0
    for p in (5, 7, 13):
        for n in range(1, 7):
            for name, (value, expected) in determinant_claims(order_matrices(p, n)).items():
                if value != expected:
                    return CheckResult("determinant-claims", False, f"{labels[name]} fails at ({p}, {n})")
            cases += 1
    return CheckResult("determinant-claims", True, f"{cases} (p, n) cases, all four identities")


def agrees_with_oracle(exact, numeric) -> bool:
    """Does a numeric oracle value confirm an exact one? The residual must be
    below 1e-8 both absolutely and relative to |exact|: the absolute gate
    alone passes any pair of values below 1e-8, such as 23^-7 against 23^-6."""
    residual = abs(exact - numeric)
    return residual < 1e-8 and residual < 1e-8 * abs(exact)


def ling_structure(p: int, n: int) -> AbelianGroup:
    """Closed-form structure of C(p^n): (Z/a)^n x (Z/b)^(n-1) times an
    explicit product of p-power cyclic factors depending on the parity of n."""
    _require_prime_power(p, n)
    a = (p - 1) // gcd(p - 1, 12)
    b = (p + 1) // gcd(p + 1, 12)
    orders = [a] * n + [b] * (n - 1)
    if n % 2 == 0:
        orders += [p**i for i in range(n // 2, n - 1)]
        orders += [p**i for i in range(n // 2 + 1, n)]
    else:
        orders += [p**i for i in range((n + 1) // 2, n - 1)]
        orders += [p**i for i in range((n + 1) // 2, n)]
    return AbelianGroup.from_cyclic_orders(orders)


def determinant_claims(mats: OrderMatrices) -> dict:
    """The four identities of the order matrices of X0(p^n), as name ->
    (value, closed form): |det V|, det(24M), det U and the last-row sum of
    VMU, which is sum_i V_ni sum_j 24M_ij U_jj."""
    p, n = mats.p, mats.n
    weighted = [sum(x * u for x, u in zip(row, mats.u.diagonal())) for row in mats.m24]
    a = (p - 1) // gcd(p - 1, 12)
    b = (p + 1) // gcd(p + 1, 12)
    exponent = (n - 1) * (3 * n - 1) // 4 if n % 2 else n * (3 * n - 4) // 4
    return {
        "abs_det_v": (abs(mats.v.det()), 24 * (n + 1) // gcd(p - 1, 12)),
        "det_m_times_24": (mats.m24.det(), 24**n * (a * b) ** n * p**exponent),
        "det_u": (mats.u.det(), prod(cusp_degrees(p**n).values())),
        "vmu_last_row_sum": (sum(map(mul, mats.v.row(n), weighted)), (n + 1) * p ** (n - 1) * (p + 1)),
    }


def pq_closed_forms(p: int, q: int) -> tuple:
    """(a, b, c, 4abc) on X0(pq) for primes p == q == 1 mod 12, with
    a = (p-1)(q+1)/24, b = (p+1)(q-1)/24 and c = (p-1)(q-1)/24: C(pq) has
    order 4abc, and the connecting-map kernel is cyclic of order c."""
    a = (p - 1) * (q + 1) // 24
    b = (p + 1) * (q - 1) // 24
    c = (p - 1) * (q - 1) // 24
    return a, b, c, 4 * a * b * c


def closed_form_generator_lc(p, n, gen_index, m) -> LeadingCoeff:
    """Case table for the leading coefficients of the generators on X0(p^n).

    gen_index is -1 for f and k >= 0 for g_k. Conventions: sqrt(p*) has
    phase (p-1)/8 and a*b = (p^2-1)/24; the f-entry at the cusps -1/p^m with
    m >= 1 is e(+a/p^m).
    """
    ab = (p * p - 1) // 24
    a = (p - 1) // gcd(p - 1, 12)
    if 2 * m >= n:
        if gen_index == -1 or gen_index <= m - 2:
            return LeadingCoeff.one()
        if gen_index == m - 1:
            phase = Fraction(p - 1, 4) - Fraction(ab, p) - Fraction(p - 1, 8)
            return LeadingCoeff.make(phase, {p: -1})
        return LeadingCoeff.make(Fraction(-ab, p ** (gen_index + 2 - m)), {p: -2})
    if gen_index == -1:
        if m == 0:
            return LeadingCoeff.make(0, {p: -24 // gcd(p - 1, 12)})
        return LeadingCoeff.make(Fraction(a, p**m), {})
    if gen_index >= m:
        return LeadingCoeff.make(0, {p: -2})
    if gen_index == m - 1:
        return LeadingCoeff.make(Fraction(ab, p) - Fraction(p - 1, 8), {p: -1})
    return LeadingCoeff.make(Fraction(ab, p ** (m - gen_index)), {})


def check_leading_coefficient_tables() -> CheckResult:
    """Exact generator tables for p in {5, 13, 23, 47}, n in {2, 3},
    certified numerically at height 8 (eta's q-product run to working
    precision), tolerance 1e-8 absolute and relative. At p = 23 and 47 some
    entries lie below 1e-8, where only the relative gate can reject a wrong
    power of p."""
    cases = 0
    etas = {}
    for p in (5, 13, 23, 47):
        for n in (2, 3):
            gens = prime_power_generators(p, n)
            for idx, h in enumerate(gens):
                gen_index = -1 if idx == 0 else idx - 1
                for m in range(n + 1):
                    sigma = sigma_matrix(p, n, m)
                    expansion = cusp_expansion(h, sigma)
                    expected = closed_form_generator_lc(p, n, gen_index, m)
                    if expansion.leading != expected:
                        return CheckResult(
                            "leading-coefficient-tables",
                            False,
                            f"symbolic mismatch at (p, n, gen, m) = ({p}, {n}, {gen_index}, {m})",
                        )
                    numeric = numeric_leading_coefficient(h, sigma, expansion, height=8, etas=etas)
                    if not agrees_with_oracle(expansion.leading.as_complex(), numeric.value):
                        return CheckResult(
                            "leading-coefficient-tables",
                            False,
                            f"numeric residual not within 1e-8 at ({p}, {n}, {gen_index}, {m})",
                        )
                    cases += 1
    return CheckResult(
        "leading-coefficient-tables", True, f"{cases} entries exact and within 1e-8 numerically"
    )


def check_delta_matrix() -> CheckResult:
    """Evaluation matrix from leading coefficients against its closed form,
    with cokernel cyclic of order 12/gcd(p-1,12)."""
    for p in (5, 7, 11, 13):
        a_prime = 12 // gcd(p - 1, 12)
        for n in range(1, 6):
            rows = [[a_prime] + [0] * (n - 1)]
            for k in range(n - 1):
                rows.append([1] + [2] * k + [1] + [0] * (n - 2 - k))
            matrix = delta_matrix(p, n)
            if matrix != IntMatrix(rows):
                return CheckResult("delta-matrix", False, f"matrix mismatch at ({p}, {n})")
            expected = AbelianGroup.from_cyclic_orders([a_prime])
            if delta_cokernel(matrix) != expected:
                return CheckResult("delta-matrix", False, f"cokernel mismatch at ({p}, {n})")
    return CheckResult("delta-matrix", True, "p in {5,7,11,13}, n in 1..5, matrix and cokernel")


def check_injectivity() -> CheckResult:
    """Trivial connecting-map kernel on C(p^n) for p in {5,7,11,13}, n in 1..5."""
    for p in (5, 7, 11, 13):
        for n in range(1, 6):
            if not delta_kernel_on_cuspidal(p, n).is_trivial:
                return CheckResult("injectivity", False, f"nontrivial kernel at ({p}, {n})")
    return CheckResult("injectivity", True, "kernel trivial in all 20 cases")


def check_generalized_torsion() -> CheckResult:
    """Generalized-Jacobian torsion against the product formulas."""
    for p in (5, 7, 11, 13, 17, 19):
        for n in range(1, 6):
            result = generalized_torsion(p, n)
            if n == 1:
                if result.group != AbelianGroup((2,)) or result.conditional:
                    return CheckResult(
                        "generalized-torsion", False, f"prime-level case fails at p = {p}"
                    )
                continue
            if n % 2 == 0:
                orders = [2 * p**i for i in range(n // 2)]
                orders += [2 * p**i for i in range(1, n // 2 + 1)]
            else:
                orders = [2 * p**i for i in range((n + 1) // 2)]
                orders += [2 * p**i for i in range(1, (n - 1) // 2 + 1)]
            if result.group != AbelianGroup.from_cyclic_orders(orders) or not result.conditional:
                return CheckResult("generalized-torsion", False, f"mismatch at ({p}, {n})")
    return CheckResult("generalized-torsion", True, "n = 1 unconditional, n in 2..5 conditional")


def check_pq_case() -> CheckResult:
    """Order 4abc of C(pq), kernel cyclic of order (p-1)(q-1)/24, and the
    leading-coefficient magnitude table confirmed numerically within 1e-8,
    absolute and relative."""
    from .jacobian import pq_delta_kernel

    start = time.monotonic()
    expected_magnitudes = {
        "f1": lambda p, q: [{p: 2}, {}, {p: 2}, {}],
        "f2": lambda p, q: [{q: 2}, {q: 2}, {}, {}],
        "f3": lambda p, q: [{}, {}, {}, {}],
    }
    etas = {}
    for p, q in ((13, 37), (13, 61), (37, 61)):
        _, _, c, order = pq_closed_forms(p, q)
        group = class_group_pq(p, q)
        if group.order != order:
            return CheckResult("pq-case", False, f"class group order fails at ({p}, {q})")
        table = pq_leading_coefficients(p, q)
        kernel = pq_delta_kernel(p, q, table, group.generator_divisors).kernel
        if kernel != AbelianGroup((c,)):
            return CheckResult("pq-case", False, f"kernel not cyclic of order {c} at ({p}, {q})")
        gens = dict(zip(("f1", "f2", "f3"), pq_generators(p, q)))
        for name, magnitudes in expected_magnitudes.items():
            for idx, level in enumerate((1, p, q, p * q)):
                expansion = table[name][level]
                lc = expansion.leading
                if lc.magnitude_half_exponents != magnitudes(p, q)[idx]:
                    return CheckResult(
                        "pq-case", False, f"magnitude mismatch at {name}, level {level}"
                    )
                numeric = numeric_leading_coefficient(
                    gens[name],
                    pq_sigma_matrix(p, q, level),
                    expansion,
                    height=suggested_height(expansion),
                    etas=etas,
                )
                if not agrees_with_oracle(abs(lc.as_complex()), abs(numeric.value)):
                    return CheckResult(
                        "pq-case", False, f"numeric magnitude fails at {name}, level {level}"
                    )
    elapsed = time.monotonic() - start
    return CheckResult(
        "pq-case",
        elapsed < 10.0,
        f"3 pairs: orders, kernels, 12-entry tables in {elapsed:.2f}s (< 10s required)",
    )


def check_property_suites() -> CheckResult:
    """Randomized property sweeps: Smith forms, degree-zero divisors,
    closed-form cusp orders, and the numeric eta transformation identity."""
    rng = random.Random(987654321)
    # 200 random Smith normal forms, up to 8x8, entries up to 1e6
    for _ in range(200):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        a = IntMatrix([[rng.randint(-(10**6), 10**6) for _ in range(nc)] for _ in range(nr)])
        snf = smith_normal_form(a)
        if snf.p * a * snf.q != snf.d:
            return CheckResult("property-suites", False, "Smith decomposition identity fails")
        if abs(snf.p.det()) != 1 or abs(snf.q.det()) != 1:
            return CheckResult("property-suites", False, "Smith transforms not unimodular")
        diag = snf.d.diagonal()
        for x, y in zip(diag, diag[1:]):
            if x == 0 and y != 0 or (x != 0 and y % x != 0):
                return CheckResult("property-suites", False, "divisibility chain fails")
    # 100 random Ligozat-valid eta quotients of level <= 100 have degree-0 divisors
    from .classgroup import eta_unit_exponent_basis

    produced = 0
    while produced < 100:
        N = rng.randint(2, 100)
        basis = eta_unit_exponent_basis(N)
        if not basis:
            continue
        h = EtaQuotient.one(N)
        for item in basis:
            h = h * item ** rng.randint(-2, 2)
        if not h.exponents:
            continue
        if not check_modular_function(h).ok:
            return CheckResult("property-suites", False, f"lattice vector not Ligozat-valid (N={N})")
        if divisor(h).degree() != 0:
            return CheckResult("property-suites", False, f"degree nonzero (N={N})")
        produced += 1
    # closed-form prime-power cusp orders against the general formula
    for p in (5, 7, 11, 13):
        for n in range(1, 7):
            for k in range(n + 1):
                h = EtaQuotient.make(p**n, {p**k: 1})
                for m in range(n + 1):
                    if 2 * m >= n:
                        expected = p**k if k <= m else p ** (2 * m - k)
                    else:
                        expected = p ** (n - k) if m <= k else p ** (n + k - 2 * m)
                    if order_at_cusp(h, p**m) != Fraction(expected, 24):
                        return CheckResult(
                            "property-suites", False, f"order mismatch at ({p},{n},{k},{m})"
                        )
    # numeric eta transformation identity on 100 random unimodular matrices
    with mp.workdps(40):
        checked = 0
        while checked < 100:
            while True:
                c = rng.randint(-30, 30)
                d = rng.randint(-30, 30)
                if gcd(c, d) == 1:
                    break
            _, a, b = _egcd(d, -c)
            if c < 0 or (c == 0 and d < 0):
                a, b, c, d = -a, -b, -c, -d
            if c == 0:
                continue
            tau = mp.mpc(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.0))
            lhs = eta_numeric((a * tau + b) / (c * tau + d))
            phase = eta_multiplier(a, b, c, d)
            eps = mp.expjpi(mp.mpf(2 * phase.value.numerator) / phase.value.denominator)
            rhs = eps * mp.sqrt((c * tau + d) / 1j) * eta_numeric(tau)
            if abs(lhs - rhs) / abs(lhs) >= 1e-10:
                return CheckResult("property-suites", False, "eta transformation identity fails")
            checked += 1
    return CheckResult(
        "property-suites",
        True,
        "200 Smith forms, 100 degree-zero units, all closed-form orders, 100 eta identities",
    )


CRITERIA = (
    ("class-groups", check_class_group_structure),
    ("mazur", check_mazur_orders),
    ("determinants", check_determinant_claims),
    ("leading-coeffs", check_leading_coefficient_tables),
    ("delta", check_delta_matrix),
    ("injectivity", check_injectivity),
    ("torsion", check_generalized_torsion),
    ("pq", check_pq_case),
    ("properties", check_property_suites),
)


def run_suite(name: str = "all"):
    """Run one named suite (or all of them); returns the CheckResults."""
    if name == "all":
        return [check() for _, check in CRITERIA]
    for suite_name, check in CRITERIA:
        if suite_name == name:
            return [check()]
    raise InputError(f"unknown suite {name!r}; choose from "
                     + ", ".join(n for n, _ in CRITERIA) + ", all")
