from fractions import Fraction
from math import gcd

import pytest

from cuspidal.classgroup import class_group, class_group_pq
from cuspidal.curve import CuspDivisor, divisor_basis
from cuspidal.errors import ScopeError
from cuspidal.eta import EtaQuotient, divisor, prime_power_generators
from cuspidal.jacobian import (
    SplitInjectionReport,
    delta_cokernel,
    delta_kernel_on_cuspidal,
    delta_matrix,
    evaluate_delta_class,
    generalized_torsion,
    mu_contribution,
    pq_delta_kernel,
    split_injection_scope,
)
from cuspidal.linalg import AbelianGroup, IntMatrix, QmodZ, express_in_basis


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


DEEP_DELTA_CASES = [(5, 40), (7, 24), (257, 4)]


def test_delta_matrix_closed_form():
    cases = [(p, n) for p in (5, 7, 11, 13) for n in range(1, 6)] + DEEP_DELTA_CASES
    for p, n in cases:
        assert delta_matrix(p, n) == closed_form_delta_matrix(p, n), (p, n)


def test_delta_matrix_determinant():
    for p in (5, 7, 11, 13):
        a_prime = 12 // gcd(p - 1, 12)
        for n in range(1, 6):
            assert abs(delta_matrix(p, n).det()) == a_prime


def test_delta_matrix_scope():
    with pytest.raises(ScopeError):
        delta_matrix(3, 2)


def test_delta_cokernel():
    assert delta_cokernel(delta_matrix(5, 1)) == AbelianGroup((3,))
    assert delta_cokernel(delta_matrix(5, 4)) == AbelianGroup((3,))
    assert delta_cokernel(delta_matrix(13, 3)) == AbelianGroup.trivial()
    assert delta_cokernel(delta_matrix(7, 2)) == AbelianGroup((2,))
    assert delta_cokernel(delta_matrix(11, 2)) == AbelianGroup((6,))


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


def test_delta_kernel_exactness_bookkeeping():
    # |C(p^n)| = |ker| * |image|, with the image computed independently as
    # D / (preimage of the integral lattice)
    from cuspidal.jacobian import _unit_matrix_in_divisor_basis
    from cuspidal.linalg import congruence_kernel, quotient_structure, solve_exact

    for p, n in [(5, 2), (5, 3), (7, 2), (11, 2), (13, 3), (5, 12), (17, 6)]:
        dm = delta_matrix(p, n)
        w = _unit_matrix_in_divisor_basis(p, n)
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
        assert result.group == AbelianGroup((2,))
        assert not result.conditional
        assert result.kernel.is_trivial


def test_generalized_torsion_examples():
    assert generalized_torsion(5, 2).group == AbelianGroup((2, 10))
    assert generalized_torsion(5, 3).group == AbelianGroup((2, 10, 10))
    result = generalized_torsion(5, 2)
    assert result.conditional
    assert result.order == result.kernel.order * result.mu_part.order


def test_generalized_torsion_matches_closed_form():
    for p in (5, 7, 11, 13, 17, 19):
        for n in range(1, 6):
            result = generalized_torsion(p, n)
            assert result.group == torsion_closed_form(p, n), (p, n)
            assert result.conditional == (n >= 2)


def test_evaluate_delta_class_principal():
    f = prime_power_generators(5, 2)[0]
    image = evaluate_delta_class(divisor(f), 1, f)
    assert all(not x for x in image)


def test_evaluate_delta_class_nonzero():
    # level 11: div f = 5 (P_1 - P_0); the class of P_1 - P_0 has order 5 and
    # a nonzero image with denominator 5
    f = prime_power_generators(11, 1)[0]
    e = CuspDivisor.make(11, {11: 1, 1: -1})
    image = evaluate_delta_class(e, 5, f)
    assert len(image) == 1
    assert image[0] == QmodZ.of(6, 5)
    assert image[0]  # nonzero: the connecting map is injective here
    with pytest.raises(ValueError):
        evaluate_delta_class(e, 7, f)


def test_evaluate_delta_class_consistency_with_delta_matrix():
    # E = D_1 on X0(25): order in C(25) is 1 (trivial group), so some unit has
    # divisor exactly D_1; its evaluation must match the matrix route
    p, n = 5, 2
    d0, d1 = divisor_basis(p, n)
    gens = prime_power_generators(p, n)
    gen_divs = [divisor(h) for h in gens]
    coords = express_in_basis(
        [[int(x) for x in d.coefficient_vector()] for d in gen_divs],
        [int(x) for x in d1.coefficient_vector()],
    )
    assert all(c.denominator == 1 for c in coords)
    h = EtaQuotient.one(p**n)
    for c, gen in zip(coords, gens):
        h = h * gen ** int(c)
    assert divisor(h) == d1
    image = evaluate_delta_class(d1, 1, h)
    dm = delta_matrix(p, n)
    expected = [
        QmodZ.of(sum(int(c) * dm[i, j] for i, c in enumerate(coords)), 1)
        for j in range(n)
    ]
    assert image == expected  # both vanish mod 1 since m = 1


def test_pq_delta_kernel_examples():
    result = pq_delta_kernel(13, 37)
    assert result.kernel == AbelianGroup((18,))
    assert result.mu_part == AbelianGroup((2, 2, 2))
    assert result.order == 8 * 18
    assert result.up_to_2_torsion == AbelianGroup((12 * 36 // 3,))
    assert result.group is None
    assert result.conditional

    result = pq_delta_kernel(13, 61)
    assert result.kernel == AbelianGroup((30,))
    assert result.order == 8 * 30


def test_pq_delta_kernel_scope():
    with pytest.raises(ScopeError):
        pq_delta_kernel(5, 13)


def test_pq_kernel_order_divides_class_group():
    p, q = 13, 37
    result = pq_delta_kernel(p, q)
    group = class_group_pq(p, q)
    assert group.order % result.kernel.order == 0
    assert pq_delta_kernel(p, q, generator_divisors=group.generator_divisors) == result


def test_split_injection_scope():
    report = split_injection_scope(5, 1)
    assert isinstance(report, SplitInjectionReport)
    assert report.comparison_kernel == ("1", "5* (x) 1/2")
    assert report.reduction_generators == ("p", "sqrt(p*)")
    assert "2-torsion" in report.caveat
    with pytest.raises(ScopeError):
        split_injection_scope(2, 1)
    with pytest.raises(ValueError):
        split_injection_scope(5, 0)
