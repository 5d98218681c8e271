import random
from fractions import Fraction
from math import gcd

import pytest

from cuspidal.classgroup import class_group, class_group_pq, divisor_lattice_coordinates
from cuspidal.errors import ScopeError
from cuspidal.eta import divisor, pq_generators, prime_power_generators
from cuspidal.jacobian import (
    TorsionResult,
    delta_cokernel,
    delta_kernel_on_cuspidal,
    delta_matrix,
    generalized_torsion,
    mu_contribution,
    pq_delta_kernel,
)
from cuspidal.linalg import AbelianGroup, IntMatrix, cokernel, congruence_kernel, solve_exact
from cuspidal.transform import SigmaMatrix, cusp_expansion, pq_leading_coefficients, sigma_matrix
from test_linalg import quotient_structure


def closed_form_delta_matrix(p, n):
    """Lower-triangular with diagonal (a', 1, ..., 1), first column all
    entries below the corner equal to 1, interior sub-diagonal entries 2."""
    a_prime = 12 // gcd(p - 1, 12)
    rows = [[a_prime] + [0] * (n - 1)]
    for k in range(n - 1):
        row = [1] + [2] * k + [1] + [0] * (n - 2 - k)
        rows.append(row)
    return IntMatrix(rows)


def test_delta_matrix_examples():
    assert delta_matrix(5, 3) == IntMatrix([[3, 0, 0], [1, 1, 0], [1, 2, 1]])
    assert delta_matrix(13, 1) == IntMatrix([[1]])
    assert delta_matrix(7, 2) == IntMatrix([[2, 0], [1, 1]])


DEEP_DELTA_CASES = [(5, 40), (7, 24), (257, 4), (5, 400)]


def test_delta_matrix_closed_form():
    cases = [(p, n) for p in (5, 7, 11, 13) for n in range(1, 31)] + DEEP_DELTA_CASES
    for p, n in cases:
        assert delta_matrix(p, n) == closed_form_delta_matrix(p, n), (p, n)


def reference_delta_matrix(p, n):
    """delta_matrix through the full cusp expansions: the half-exponent of p
    in the leading coefficient of each generator at each cusp, at the base
    cusp minus at the others (halved at the rational level-1 cusp)."""
    sigmas = [sigma_matrix(p, n, m) for m in range(n + 1)]
    rows = []
    for h in prime_power_generators(p, n):
        half = [cusp_expansion(h, sigma).leading.half_exponent(p) for sigma in sigmas]
        assert (half[n] - half[0]) % 2 == 0
        rows.append([(half[n] - half[0]) // 2] + [half[n] - half[m] for m in range(1, n)])
    return IntMatrix(rows)


def test_delta_matrix_matches_the_cusp_expansions():
    cases = [(p, n) for p in (5, 7, 11, 13, 17, 19, 23, 37) for n in range(1, 11)]
    for p, n in cases + [(5, 30), (7, 24), (13, 20)]:
        assert delta_matrix(p, n) == reference_delta_matrix(p, n), (p, n)


def test_delta_matrix_rejects_a_foreign_prime(monkeypatch, capsys):
    # doubling the first row of every uniformizer doubles its determinant,
    # so the c of each transformed eta factor picks up the prime 2
    import cuspidal.jacobian as jacobian
    from cuspidal.cli import main

    def doubled(p, n, m):
        sigma = sigma_matrix(p, n, m)
        return SigmaMatrix(2 * sigma.a, 2 * sigma.b, sigma.c, sigma.d)

    monkeypatch.setattr(jacobian, "sigma_matrix", doubled)
    with pytest.raises(AssertionError, match="prime outside"):
        jacobian.delta_matrix(5, 3)
    assert main(["delta", "--p", "5", "--n", "3", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prime outside" in captured.err


def test_delta_matrix_determinant():
    for p in (5, 7, 11, 13):
        a_prime = 12 // gcd(p - 1, 12)
        for n in range(1, 6):
            assert abs(delta_matrix(p, n).det()) == a_prime


def test_delta_matrix_scope(capsys):
    from cuspidal.cli import main

    for p in (3, 1, 0, -5):
        with pytest.raises(ScopeError):
            delta_matrix(p, 2)
        assert main(["delta", "--p", str(p), "--n", "2"]) == 2
        assert capsys.readouterr().err == f"error: p = {p} is not a prime >= 5\n"


def test_delta_cokernel():
    assert delta_cokernel(delta_matrix(5, 1)) == AbelianGroup((3,))
    assert delta_cokernel(delta_matrix(5, 4)) == AbelianGroup((3,))
    assert delta_cokernel(delta_matrix(13, 3)) == AbelianGroup()
    assert delta_cokernel(delta_matrix(7, 2)) == AbelianGroup((2,))
    assert delta_cokernel(delta_matrix(11, 2)) == AbelianGroup((6,))


@pytest.mark.parametrize("i, j", [(0, 1), (1, 2), (2, 3), (1, 1), (3, 3)])
def test_delta_cokernel_checks_the_triangular_shape(i, j):
    rows = [list(row) for row in closed_form_delta_matrix(5, 4)]
    rows[i][j] += 1
    with pytest.raises(AssertionError, match="lower triangular"):
        delta_cokernel(IntMatrix(rows))


def test_delta_cokernel_refuses_a_matrix_that_is_not_square():
    for rows in ([[3, 0, 0], [1, 1, 0]], [[3, 0], [1, 1], [1, 2]]):
        with pytest.raises(ValueError):
            delta_cokernel(IntMatrix(rows))


def test_delta_cokernel_matches_the_smith_form():
    # any corner and any entries below the diagonal: Z/|corner|
    rng = random.Random(2502)
    for corner in (1, 2, 3, 4, 6, 12, -3, 30):
        for n in range(1, 7):
            rows = [[corner if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i):
                    rows[i][j] = rng.randint(-50, 50)
            assert delta_cokernel(IntMatrix(rows)) == cokernel(rows, n), (corner, rows)


def test_delta_kernel_on_cuspidal_trivial():
    cases = [(p, n) for p in (5, 7, 11, 13) for n in range(1, 6)] + DEEP_DELTA_CASES
    for p, n in cases:
        assert delta_kernel_on_cuspidal(p, n).is_trivial, (p, n)


# entries above the diagonal, then the corner a' and a unit diagonal entry
@pytest.mark.parametrize("i, j", [(0, 1), (1, 2), (2, 3), (0, 0), (2, 2)])
def test_delta_kernel_on_cuspidal_checks_the_triangular_shape(monkeypatch, i, j):
    import cuspidal.jacobian as jacobian

    p, n = 5, 4
    rows = [list(row) for row in closed_form_delta_matrix(p, n)]
    rows[i][j] += 1
    monkeypatch.setattr(jacobian, "delta_matrix", lambda p, n: IntMatrix(rows))
    with pytest.raises(AssertionError, match="lower triangular"):
        jacobian.delta_kernel_on_cuspidal(p, n)


@pytest.mark.parametrize("p, scale, expected", [(5, 3, (3,)), (7, 4, (2,)), (11, 4, (2,)), (13, 6, ())])
def test_delta_kernel_on_cuspidal_is_the_gcd_of_a_prime_with_div_f(monkeypatch, p, scale, expected):
    # with the coordinates of every divisor scaled, the kernel becomes
    # cyclic of order gcd(a', scale) = gcd(a', coordinates of div f)
    import cuspidal.jacobian as jacobian

    monkeypatch.setattr(
        jacobian,
        "divisor_lattice_coordinates",
        lambda E, lvl=None: [scale * c for c in divisor_lattice_coordinates(E, lvl)],
    )
    assert jacobian.delta_kernel_on_cuspidal(p, 3) == AbelianGroup(expected)


def unit_matrix_in_divisor_basis(p, n):
    """Rows: div f, div g_k in the coordinates of the basis D_0..D_(n-1)."""
    return [divisor_lattice_coordinates(divisor(h)) for h in prime_power_generators(p, n)]


def test_delta_kernel_exactness_bookkeeping():
    # |C(p^n)| = |ker| * |image|, with the kernel and the image computed
    # independently over the rationals: the image as D / (preimage of the
    # integral lattice), the kernel as that preimage modulo the unit divisors
    for p, n in [(5, 2), (5, 3), (7, 2), (11, 2), (13, 3), (5, 12), (17, 6)]:
        dm = delta_matrix(p, n)
        w = unit_matrix_in_divisor_basis(p, n)
        w_t = [list(col) for col in zip(*w)]
        delta_tilde = []
        for j in range(n):
            target = [Fraction(1 if i == j else 0) for i in range(n)]
            y = solve_exact(w_t, target)
            delta_tilde.append(
                [sum(y[i] * dm[i, c] for i in range(n)) for c in range(n)]
            )
        denom = 1
        for row in delta_tilde:
            for v in row:
                denom = denom * v.denominator // gcd(denom, v.denominator)
        cols = [[int(delta_tilde[j][c] * denom) for j in range(n)] for c in range(n)]
        preimage = congruence_kernel(cols, [denom] * n)
        kernel_group = quotient_structure(preimage, w)
        ambient = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        image_order = quotient_structure(ambient, preimage).order
        assert kernel_group == delta_kernel_on_cuspidal(p, n)
        assert class_group(p, n).order == kernel_group.order * image_order


def test_mu_contribution_examples():
    assert mu_contribution(5, 1) == AbelianGroup((2,))
    assert mu_contribution(5, 2) == AbelianGroup((2, 10))
    assert mu_contribution(5, 3) == AbelianGroup((2, 10, 10))
    assert mu_contribution(3, 2) == AbelianGroup((2, 6))
    with pytest.raises(ScopeError):
        mu_contribution(2, 1)


def test_mu_contribution_is_the_group_of_its_cyclic_orders():
    for p in (5, 7, 11):
        for n in range(1, 31):
            orders = [2 * p ** min(i, n - i) for i in range(n)]
            assert mu_contribution(p, n) == AbelianGroup.from_cyclic_orders(orders), (p, n)


def torsion_closed_form(p, n):
    """Product formula for the generalized-Jacobian torsion at level p^n."""
    if n % 2 == 0:
        orders = [2 * p**i for i in range(n // 2)] + [2 * p**i for i in range(1, n // 2 + 1)]
    else:
        orders = [2 * p**i for i in range((n + 1) // 2)] + [
            2 * p**i for i in range(1, (n - 1) // 2 + 1)
        ]
    return AbelianGroup.from_cyclic_orders(orders)


def test_generalized_torsion_prime_level():
    # independent of p: every prime level gives the cyclic group of order 2
    primes = [p for p in range(5, 100) if all(p % d for d in range(2, p))]
    for p in primes:
        result = generalized_torsion(p, 1)
        assert result.mu_part == AbelianGroup((2,))
        assert not result.conditional
        assert result.kernel.is_trivial


def test_generalized_torsion_examples():
    assert generalized_torsion(5, 2).mu_part == AbelianGroup((2, 10))
    assert generalized_torsion(5, 3).mu_part == AbelianGroup((2, 10, 10))
    result = generalized_torsion(5, 2)
    assert result.conditional
    assert result.order == result.kernel.order * result.mu_part.order


def test_generalized_torsion_matches_closed_form():
    for p in (5, 7, 11, 13, 17, 19):
        for n in range(1, 6):
            result = generalized_torsion(p, n)
            assert result.mu_part == torsion_closed_form(p, n), (p, n)
            assert result.conditional == (n >= 2)


def test_pq_delta_kernel_examples():
    result = pq_delta_kernel(13, 37)
    assert result.kernel == AbelianGroup((18,))
    assert result.mu_part == AbelianGroup((2, 2, 2))
    assert result.order == 8 * 18
    assert result.up_to_2_torsion == AbelianGroup((12 * 36 // 3,))
    assert result.conditional
    # the pq extension is not resolved, so the record holds no torsion group of its own
    assert TorsionResult._fields == ("conditional", "kernel", "mu_part", "up_to_2_torsion")

    result = pq_delta_kernel(13, 61)
    assert result.kernel == AbelianGroup((30,))
    assert result.order == 8 * 30


def test_pq_delta_kernel_refuses_dependent_generator_divisors():
    """W, the coordinates of the generator divisors, must have full rank."""
    d = class_group_pq(13, 37).generator_divisors[0]
    with pytest.raises(ValueError, match="smaller rank"):
        pq_delta_kernel(13, 37, generator_divisors=(d, d, d))


def rational_pq_delta_kernel(p, q):
    """pq_delta_kernel by the rational route: the extension W^-1 . lc_rows
    of the evaluation map solved column by column over Q, its preimage of the
    integral lattice, and the quotient by the unit divisors through
    coordinates solved over Q."""
    table = pq_leading_coefficients(p, q)
    N = p * q
    lc_rows = []
    for name in ("f1", "f2", "f3"):
        lcs = {level: expansion.leading for level, expansion in table[name].items()}
        row = []
        for level in (1, p, q):
            for ell in (p, q):
                diff = lcs[N].half_exponent(ell) - lcs[level].half_exponent(ell)
                assert diff % 2 == 0
                row.append(diff // 2)
        lc_rows.append(row)
    w = [divisor_lattice_coordinates(divisor(h)) for h in pq_generators(p, q)]
    w_t = [list(col) for col in zip(*w)]
    delta_tilde = []
    for j in range(3):
        y = solve_exact(w_t, [Fraction(1 if i == j else 0) for i in range(3)])
        delta_tilde.append([sum(y[i] * lc_rows[i][c] for i in range(3)) for c in range(6)])
    denominator = 1
    for row in delta_tilde:
        for value in row:
            denominator = denominator * value.denominator // gcd(denominator, value.denominator)
    cols = [[int(delta_tilde[j][c] * denominator) for j in range(3)] for c in range(6)]
    kernel_lattice = congruence_kernel(cols, [denominator] * 6)
    return TorsionResult(
        conditional=True,
        kernel=quotient_structure(kernel_lattice, w),
        mu_part=AbelianGroup((2, 2, 2)),
        up_to_2_torsion=AbelianGroup.from_cyclic_orders([(p - 1) * (q - 1) // 3]),
    )


@pytest.mark.parametrize(
    "p, q", [(13, 37), (13, 61), (37, 61), (13, 73), (13, 97), (13, 1093), (37, 73), (61, 97)]
)
def test_pq_delta_kernel_matches_the_rational_route(p, q):
    result = pq_delta_kernel(p, q)
    assert result == rational_pq_delta_kernel(p, q)
    assert result.kernel == AbelianGroup(((p - 1) * (q - 1) // 24,))


def adjugate(rows) -> tuple:
    """(adj(A), det(A)) of a square integer matrix A, given by its rows,
    from its minors: A . adj(A) = det(A) . I."""
    n = len(rows)

    def minor(i, j):
        return IntMatrix([r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]).det()

    adj = [[(-1) ** (i + j) * minor(j, i) for j in range(n)] for i in range(n)]
    return adj, sum(x * adj[j][0] for j, x in enumerate(rows[0]))


def adjugate_route_kernel(w, lc_rows):
    """{x in Z^k : x . W^-1 . L integral} modulo the rows of W, by the
    adjugate: x has an integral image exactly when x . adj(W) . L == 0 mod
    |det W|, and the quotient is taken over Q. With no columns in L every x
    qualifies (congruence_kernel cannot read k from zero rows)."""
    k, m = len(w), len(lc_rows[0])
    adj_w, det_w = adjugate(w)
    image_cols = [[sum(adj_w[j][i] * lc_rows[i][c] for i in range(k)) for j in range(k)] for c in range(m)]
    if m:
        kernel_lattice = congruence_kernel(image_cols, [abs(det_w)] * m)
    else:
        kernel_lattice = [[int(i == j) for j in range(k)] for i in range(k)]
    return quotient_structure(kernel_lattice, w)


def test_kernel_is_the_cokernel_of_the_columns_of_w_and_l():
    # the identity behind pq_delta_kernel: for W invertible, y = x . W^-1
    # turns the kernel into {y in Q^k : y . [W | L] integral} / Z^k
    rng = random.Random(24)
    cases = 0
    while cases < 400:
        k, m = rng.randint(1, 4), rng.randint(0, 6)
        w = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)]
        if not IntMatrix(w).det():
            continue
        # a common factor of L's entries keeps most kernels nontrivial
        scale = rng.choice((1, 2, 3, 4, 6))
        lc_rows = [[scale * rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
        expected = adjugate_route_kernel(w, lc_rows)
        assert cokernel([*zip(*w), *zip(*lc_rows)], k) == expected, (w, lc_rows)
        cases += 1


@pytest.mark.parametrize("scale", [1, 6])
def test_prime_power_kernel_is_the_cokernel_of_the_columns_of_w_and_delta(monkeypatch, scale):
    # delta_kernel_on_cuspidal's closed form gcd(a', div f) against the
    # general formula that pq_delta_kernel uses; scaling every divisor's
    # coordinates by 6 makes the kernels nontrivial (of order a')
    import cuspidal.jacobian as jacobian

    def scaled(E, lvl=None):
        return [scale * c for c in divisor_lattice_coordinates(E, lvl)]

    monkeypatch.setattr(jacobian, "divisor_lattice_coordinates", scaled)
    for p in (5, 7, 11, 13, 17):
        for n in range(1, 9):
            w = [scaled(d) for d in class_group(p, n).generator_divisors]
            general = cokernel([*zip(*w), *zip(*delta_matrix(p, n))], n)
            assert jacobian.delta_kernel_on_cuspidal(p, n) == general, (p, n)
            assert general.order == (1 if scale == 1 else 12 // gcd(p - 1, 12))


def test_pq_delta_kernel_scope():
    with pytest.raises(ScopeError):
        pq_delta_kernel(5, 13)


def test_pq_kernel_order_divides_class_group():
    p, q = 13, 37
    result = pq_delta_kernel(p, q)
    group = class_group_pq(p, q)
    assert group.order % result.kernel.order == 0
    assert pq_delta_kernel(p, q, generator_divisors=group.generator_divisors) == result
