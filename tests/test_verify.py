"""Every failure return of the acceptance checks in `verify` can be reached:
one wrong value, planted through a name that the check reads from `verify`,
makes it return passed=False with a detail that names the failing case.
Nothing here touches a check's ranges, bounds or tolerances."""

import mpmath as mp
import pytest

from cuspidal import verify
from cuspidal.curve import CuspDivisor, Level
from cuspidal.eta import EtaQuotient, prime_power_generators, pq_generators
from cuspidal.linalg import AbelianGroup, IntMatrix
from cuspidal.transform import LeadingCoeff, cusp_expansion, pq_sigma_matrix, sigma_matrix
from cuspidal.verify import CheckResult


def plant(monkeypatch, name, wrong, when=lambda *args: True):
    """Rebind `verify.<name>` so that a call whose positional arguments
    satisfy `when` returns wrong(result, *args) in place of its result."""
    original = getattr(verify, name)

    def planted(*args, **kwargs):
        result = original(*args, **kwargs)
        return wrong(result, *args) if when(*args) else result

    monkeypatch.setattr(verify, name, planted)


def scaled(matrix, factor):
    return IntMatrix([[factor * x for x in row] for row in matrix])


def swap(size, i, j):
    """The permutation matrix of the transposition (i j) on Z^size."""
    image = {i: j, j: i}
    return IntMatrix([[int(c == image.get(r, r)) for c in range(size)] for r in range(size)])


def unchained(snf, a):
    """The same decomposition with diagonal entries 0 and k-1 swapped, k =
    min(rows, columns): P.A.Q = D still holds with unimodular P and Q, but
    the diagonal is no longer a divisibility chain when those entries differ."""
    k = min(a.nrows, a.ncols)
    diag = snf.d.diagonal()
    if k < 2 or diag[0] == diag[k - 1]:
        return snf
    rows, cols = swap(a.nrows, 0, k - 1), swap(a.ncols, 0, k - 1)
    return snf._replace(d=rows * snf.d * cols, p=rows * snf.p, q=snf.q * cols)


def bump_corner(matrix):
    return IntMatrix([[x + (i == j == 0) for j, x in enumerate(row)] for i, row in enumerate(matrix)])


def at(*case):
    """A `when` for the calls whose leading positional arguments are `case`."""
    return lambda *args: args[: len(case)] == case


def replaced(**fields):
    return lambda result, *args: result._replace(**fields)


def always(value):
    return lambda result, *args: value


# entry 23^-6 of f at the cusp 0 of X0(23^2), below the 1e-8 absolute gate:
# only the relative gate rejects a value off by a power of 23
TINY = prime_power_generators(23, 2)[0], sigma_matrix(23, 2, 0)
F2, LEVEL_Q = pq_generators(13, 61)[1], pq_sigma_matrix(13, 61, 61)


def stray_prime(table, p, q):
    """A copy of the pq table with a factor 2 in the magnitude of f3 at the
    cusp of level q; the kernel reads only the p- and q-parts, so it holds."""
    table = {name: dict(row) for name, row in table.items()}
    expansion = table["f3"][q]
    table["f3"][q] = expansion._replace(leading=LeadingCoeff.make(expansion.leading.phase, {2: 2}))
    return table


def bump_det_u(claims, mats):
    value, expected = claims["det_u"]
    return {**claims, "det_u": (value + 1, expected)}


# case -> (check, the name planted in verify, when, wrong, the detail expected)
CASES = {
    "class-group-structure": (
        verify.check_class_group_structure, "ling_structure", at(7, 3), always(AbelianGroup((2,))),
        "mismatch at (p, n) = (7, 3)",
    ),
    "mazur-orders": (
        verify.check_mazur_orders, "class_group", at(13), replaced(group=AbelianGroup((2,))), "mismatch at p = 13",
    ),
    "determinant-claims": (
        verify.check_determinant_claims, "determinant_claims", lambda mats: (mats.p, mats.n) == (7, 4), bump_det_u,
        "det U fails at (7, 4)",
    ),
    "leading-coefficient-tables/symbolic": (
        verify.check_leading_coefficient_tables, "closed_form_generator_lc", at(13, 3, 0, 2),
        always(LeadingCoeff.make(0, {13: 2})), "symbolic mismatch at (p, n, gen, m) = (13, 3, 0, 2)",
    ),
    "leading-coefficient-tables/numeric": (
        verify.check_leading_coefficient_tables, "numeric_leading_coefficient", at(*TINY),
        lambda numeric, *args: numeric._replace(value=numeric.value / 23),
        "numeric residual not within 1e-8 at (23, 2, -1, 0)",
    ),
    "delta-matrix/matrix": (
        verify.check_delta_matrix, "delta_matrix", at(11, 3), lambda m, *args: bump_corner(m),
        "matrix mismatch at (11, 3)",
    ),
    "delta-matrix/cokernel": (
        # a' = 6 only for p = 11 among 5, 7, 11, 13
        verify.check_delta_matrix, "delta_cokernel", lambda m: (m[0, 0], m.nrows) == (6, 2),
        always(AbelianGroup((3,))), "cokernel mismatch at (11, 2)",
    ),
    "injectivity": (
        verify.check_injectivity, "delta_kernel_on_cuspidal", at(7, 4), always(AbelianGroup((2,))),
        "nontrivial kernel at (7, 4)",
    ),
    "generalized-torsion/prime-group": (
        verify.check_generalized_torsion, "generalized_torsion", at(11, 1), replaced(mu_part=AbelianGroup((4,))),
        "prime-level case fails at p = 11",
    ),
    "generalized-torsion/prime-conditional": (
        verify.check_generalized_torsion, "generalized_torsion", at(11, 1), replaced(conditional=True),
        "prime-level case fails at p = 11",
    ),
    "generalized-torsion/group": (
        verify.check_generalized_torsion, "generalized_torsion", at(17, 4), replaced(mu_part=AbelianGroup((2, 34))),
        "mismatch at (17, 4)",
    ),
    "generalized-torsion/conditional": (
        verify.check_generalized_torsion, "generalized_torsion", at(7, 3), replaced(conditional=False),
        "mismatch at (7, 3)",
    ),
    "pq-case/class-group": (
        verify.check_pq_case, "class_group_pq", at(13, 61), replaced(group=AbelianGroup((2,))),
        "class group order fails at (13, 61)",
    ),
    "pq-case/kernel": (
        verify.check_pq_case, "pq_delta_kernel", at(37, 61), replaced(kernel=AbelianGroup((2,))),
        "kernel not cyclic of order 90 at (37, 61)",
    ),
    "pq-case/magnitude": (
        verify.check_pq_case, "pq_leading_coefficients", at(13, 37), stray_prime,
        "magnitude mismatch at f3, level 37",
    ),
    "pq-case/numeric": (
        verify.check_pq_case, "numeric_leading_coefficient", at(F2, LEVEL_Q),
        lambda numeric, *args: numeric._replace(value=numeric.value * 13), "numeric magnitude fails at f2, level 61",
    ),
    "property-suites/smith": (
        verify.check_property_suites, "smith_normal_form", at(), lambda snf, a: snf._replace(d=bump_corner(snf.d)),
        "Smith decomposition identity fails",
    ),
    "property-suites/unimodular": (
        # (2P).A.Q = 2D still holds
        verify.check_property_suites, "smith_normal_form", at(),
        lambda snf, a: snf._replace(p=scaled(snf.p, 2), d=scaled(snf.d, 2)), "Smith transforms not unimodular",
    ),
    "property-suites/chain": (
        verify.check_property_suites, "smith_normal_form", at(), unchained, "divisibility chain fails",
    ),
    "property-suites/orders": (
        verify.check_property_suites, "order_at_cusp", lambda h, m: (h.N, m) == (7**3, 7**2),
        lambda order, *args: order + 1, "order mismatch at (7,3,0,2)",
    ),
    "property-suites/eta": (
        # eta(z) off by a factor that depends on Im z, so the two sides of the identity part
        verify.check_property_suites, "eta_numeric", at(), lambda value, z: value * (1 + mp.im(z) / 1000),
        "eta transformation identity fails",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_each_failure_return_of_each_check_is_reachable(monkeypatch, case):
    check, name, when, wrong, detail = CASES[case]
    plant(monkeypatch, name, wrong, when)
    criterion = case.split("/")[0]
    assert check() == CheckResult(criterion, False, detail)


@pytest.mark.parametrize("name", ["eta_unit_exponent_basis", "divisor"])
def test_property_suites_name_the_level_of_a_bad_unit(monkeypatch, name):
    """A unit that is not Ligozat-valid, or whose divisor has nonzero degree,
    fails the degree-zero sweep at the random level it was drawn for."""
    levels = []

    def remember(result, N):
        levels.append(N)
        # eta(z) alone has weight 1/2, so no power of it is a modular function
        return [EtaQuotient.make(N, {1: 1})] if result else result

    if name == "eta_unit_exponent_basis":
        plant(monkeypatch, name, remember)
        detail = "lattice vector not Ligozat-valid (N={})"
    else:
        # one Q_N: degree 1
        plant(monkeypatch, name, lambda E, h: levels.append(h.N) or CuspDivisor.make(h.N, {h.N: 1}))
        detail = "degree nonzero (N={})"
    result = verify.check_property_suites()
    assert result == CheckResult("property-suites", False, detail.format(levels[-1]))


def test_closed_form_generator_table_matches_the_exact_expansions():
    """`closed_form_generator_lc` against `cusp_expansion` on every generator
    and cusp of X0(p^n), n <= 8: 1440 entries, deeper than the acceptance
    suite's n in {2, 3}, so that every branch of the case table is reached."""
    entries = 0
    branches = {"g_k with k >= m, m >= n/2": 0, "g_k with k < m - 1, m < n/2": 0}
    for p in (5, 7, 11, 13, 17, 23):
        for n in range(1, 9):
            lvl = Level.of({p: n})
            for gen_index, h in enumerate(prime_power_generators(p, n), start=-1):
                for m in range(n + 1):
                    expected = verify.closed_form_generator_lc(p, n, gen_index, m)
                    assert cusp_expansion(h, sigma_matrix(p, n, m), lvl).leading == expected, (p, n, gen_index, m)
                    entries += 1
                    if 2 * m >= n and gen_index >= m:
                        branches["g_k with k >= m, m >= n/2"] += 1
                    if 2 * m < n and 0 <= gen_index < m - 1:
                        branches["g_k with k < m - 1, m < n/2"] += 1
    assert entries == 1440
    assert branches == {"g_k with k >= m, m >= n/2": 84, "g_k with k < m - 1, m < n/2": 48}
