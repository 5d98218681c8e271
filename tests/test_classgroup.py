from fractions import Fraction
from math import gcd, prod

import pytest

from cuspidal.classgroup import (
    MAX_GENERIC_LEVELS,
    MAX_GENERIC_MODULUS_BITS,
    ClassGroupResult,
    _banded_coordinates,
    _lattice_modulus,
    _unit_divisor_rows,
    class_group,
    class_group_for_level,
    class_group_pq,
    divisor_lattice_coordinates,
    eta_unit_divisor_lattice,
    eta_unit_exponent_basis,
    order_matrices,
)
from cuspidal.curve import CuspDivisor, Level, level
from cuspidal.errors import ScopeError
from cuspidal.eta import (
    _divisor_rows,
    _prime_power_orders,
    check_modular_function,
    divisor,
    order_coefficient,
    pq_generators,
    prime_power_generators,
)
from cuspidal.linalg import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    congruence_kernel,
    express_in_basis,
    factorize,
    hermite_row_basis,
)
from cuspidal.verify import determinant_claims, ling_structure, pq_closed_forms
from test_curve import divisor_basis, lambda_embedding
from test_linalg import bordered_lattice_index, euler_phi, quotient_structure, sorted_divisors


def test_class_group_examples():
    assert class_group(11, 1).group == AbelianGroup((5,))
    assert class_group(5, 3).group == AbelianGroup((25,))
    assert class_group(5, 4).group == AbelianGroup((25, 125))
    result = class_group(5, 4)
    assert result.order == 5**5
    assert result.certified
    # a level past 3.3e24 whose prime is above the trial-division range
    assert class_group(257, 11).group.invariant_factors == (
        64,
        2752,
        792952494283066048,
        792952494283066048,
        203788791030747974336,
        203788791030747974336,
        52373719294902229404352,
        52373719294902229404352,
        13460045858789872956918464,
        13460045858789872956918464,
        3459231785708997349928045248,
    )


def test_class_group_scope():
    for p in (2, 3):
        with pytest.raises(ScopeError):
            class_group(p, 2)
    with pytest.raises(ScopeError):
        class_group(15, 1)


def test_ling_structure_examples():
    assert ling_structure(7, 2) == AbelianGroup((2,))
    assert ling_structure(13, 2) == AbelianGroup((7,))
    assert ling_structure(5, 1) == AbelianGroup.trivial()


def test_ling_order_formula():
    for p in (5, 7, 11, 13):
        for n in range(1, 6):
            a = (p - 1) // gcd(p - 1, 12)
            b = (p + 1) // gcd(p + 1, 12)
            if n % 2 == 0:
                k = (n - 2) * (3 * n - 2) // 4
            else:
                k = (n - 1) * (3 * n - 5) // 4
            assert ling_structure(p, n).order == a**n * b ** (n - 1) * p**k


def sum_zero_route(p, n):
    """C(p^n) by the independent route: the unit divisors and the standard
    divisor basis embedded in the sum-zero lattice, the coordinates solved
    exactly over the rationals."""
    ambient = [lambda_embedding(d, p, n) for d in divisor_basis(p, n)]
    sub = [lambda_embedding(divisor(h), p, n) for h in prime_power_generators(p, n)]
    return quotient_structure(ambient, sub)


def test_class_group_matches_ling_structure():
    cases = [(p, n) for p in (5, 7, 11, 13) for n in range(1, 9)]
    cases += [(p, n) for p in (17, 19) for n in range(1, 6)]
    cases += [(257, 11), (1009, 9), (65537, 6)]
    for p, n in cases:
        group = class_group(p, n).group
        assert group == ling_structure(p, n), (p, n)
        assert group == sum_zero_route(p, n), (p, n)


def prime_power_rows(p, n):
    """Divisor coefficient rows of `prime_power_generators(p, n)`."""
    return _divisor_rows(Level.of({p: n}), [h.exponents for h in prime_power_generators(p, n)])


def reference_banded_coordinates(p, n, rows):
    """The derived route to `_banded_coordinates`: the coordinates of the
    divisor rows `rows` of `prime_power_generators(p, n)`, then column j -=
    c_j column j+1 (j = 0..n-2), c_j = 24M[0][p^j] / 24M[0][p^(j+1)], then
    row i -= p row i+1 (i = 2..n-2), each step taking the old column or row."""
    orders = _prime_power_orders(p, n)(0)
    ratios = [a // b for a, b in zip(orders, orders[1:n])]
    coordinates = [row[:-1] for row in rows]
    for x in coordinates:
        for j, c in enumerate(ratios):
            x[j] -= c * x[j + 1]
    for x, y in zip(coordinates[2:], coordinates[3:]):
        x[:] = [a - p * b for a, b in zip(x, y)]
    return coordinates


def test_banded_coordinates_keep_the_cokernel_of_the_plain_ones():
    for p in (5, 7, 11, 13):
        for n in range(1, 14):
            rows = prime_power_rows(p, n)
            banded = _banded_coordinates(p, n)
            # at most three nonzero entries in every row but the last
            assert all(len(x) - x.count(0) <= 3 for x in banded[:-1]), (p, n)
            # rows 2..n-2 are nonzero only at columns i-1, i+1 and n-1
            for i, x in enumerate(banded[2 : n - 1], 2):
                assert {j for j, y in enumerate(x) if y} <= {i - 1, i + 1, n - 1}, (p, n, i)
            plain = cokernel([row[:-1] for row in rows], n)
            assert cokernel(banded, n) == plain, (p, n)
            assert class_group(p, n).group == plain, (p, n)


BANDED_CASES = [(p, n) for p in (5, 7, 11, 13) for n in range(1, 14)] + [(5, 150), (101, 60)]


def test_banded_coordinates_match_the_derived_route():
    """The closed form, entry by entry, against the integer steps on the
    divisor rows that its docstring proves it equal to."""
    for p, n in BANDED_CASES:
        assert _banded_coordinates(p, n) == reference_banded_coordinates(p, n, prime_power_rows(p, n)), (p, n)


@pytest.mark.parametrize("p, n", [(5, 50), (7, 41), (5, 151)])
def test_banded_class_group_matches_ling_structure_at_depth(p, n):
    assert class_group(p, n).group == ling_structure(p, n)


def test_a_step_that_is_not_unimodular_fails_the_comparison(monkeypatch):
    # scaling a column by p multiplies the order by p, so the comparison
    # with the plain coordinates can catch a wrong step
    import cuspidal.classgroup as classgroup

    banded = classgroup._banded_coordinates

    def scaled(p, n):
        coordinates = banded(p, n)
        for x in coordinates:
            x[0] *= p
        return coordinates

    monkeypatch.setattr(classgroup, "_banded_coordinates", scaled)
    cases = [(p, n) for p in (5, 7) for n in range(1, 6)]
    differs = [class_group(p, n).group != cokernel([row[:-1] for row in prime_power_rows(p, n)], n) for p, n in cases]
    assert any(differs)


def test_mazur_orders():
    for p in range(5, 200):
        if all(p % d for d in range(2, p)):
            result = class_group(p, 1)
            a = (p - 1) // gcd(p - 1, 12)
            if a == 1:
                assert result.group.is_trivial
            else:
                assert result.group == AbelianGroup((a,))


def test_class_group_pq_examples():
    result = class_group_pq(13, 37)
    assert result.order == 4 * 19 * 21 * 18 == 28728
    result = class_group_pq(13, 61)
    assert result.order == 4 * 31 * 35 * 30 == 130200
    with pytest.raises(ScopeError):
        class_group_pq(13, 17)


def test_pq_path_takes_the_factorization_of_n_from_p_and_q(monkeypatch):
    from cuspidal import linalg
    from cuspidal.jacobian import pq_delta_kernel
    from cuspidal.transform import pq_leading_coefficients

    p, q = 1000000000177, 1000000000189
    search = linalg._pollard_rho

    def no_search_on_n(n, steps=None):
        assert gcd(n, p * q) == 1, f"Pollard rho ran on {n}"
        return search(n, steps)

    monkeypatch.setattr(linalg, "_pollard_rho", no_search_on_n)
    _, _, c, order = pq_closed_forms(p, q)
    assert class_group_pq(p, q).order == order
    assert pq_delta_kernel(p, q).kernel == AbelianGroup((c,))
    table = pq_leading_coefficients(p, q)
    magnitudes = [table["f1"][d].leading.magnitude_half_exponents for d in (1, p, q, p * q)]
    assert magnitudes == [{p: 2}, {}, {p: 2}, {}]


def divisor_in_lattice(E, basis):
    """Does E lie in the lattice spanned by the given cuspidal divisors?"""
    if not basis:
        return all(c == 0 for _, c in E.coefficients)
    levels = sorted_divisors(E.N)
    vectors = [[Fraction(b.coefficient(d)) for d in levels] for b in basis]
    target = [Fraction(E.coefficient(d)) for d in levels]
    try:
        coords = express_in_basis(vectors, target)
    except ValueError:
        return False
    return all(c.denominator == 1 for c in coords)


def test_class_group_pq_contains_cyclic_c():
    # the class of D1 - D2 - D3 has order c: k(D1-D2-D3) lies in the unit
    # lattice exactly when c | k
    p, q = 13, 37
    c = (p - 1) * (q - 1) // 24
    gens = [divisor(h) for h in pq_generators(p, q)]
    e = {1: 1, p: -1, q: -1, p * q: 1}
    for k in range(1, 2 * c + 1):
        multiple = CuspDivisor.make(p * q, {d: k * x for d, x in e.items()})
        assert divisor_in_lattice(multiple, gens) == (k % c == 0), k


def test_order_matrices_determinant_claims():
    for p in (5, 7, 13):
        for n in range(1, 7):
            mats = order_matrices(p, n)
            a = (p - 1) // gcd(p - 1, 12)
            b = (p + 1) // gcd(p + 1, 12)
            # |det V| = 24(n+1)/gcd(p-1,12); the sign alternates with n
            assert abs(mats.v.det()) == 24 * (n + 1) // gcd(p - 1, 12)
            assert mats.v.det() == (-1) ** n * (24 * (n + 1) // gcd(p - 1, 12))
            # det(24 M) = 24^n * (24 det M) with the closed form for 24 det M
            if n % 2 == 1:
                claim = (a * b) ** n * p ** ((n - 1) * (3 * n - 1) // 4)
            else:
                claim = (a * b) ** n * p ** (n * (3 * n - 4) // 4)
            assert mats.m24.det() == 24**n * claim
            assert mats.u.det() == prod(
                euler_phi(gcd(p**i, p ** (n - i))) for i in range(n + 1)
            )
            vmu = mats.v * mats.m24 * mats.u
            assert sum(vmu.row(n)) == (n + 1) * p ** (n - 1) * (p + 1)
            claims = determinant_claims(mats)
            assert claims["abs_det_v"] == (abs(mats.v.det()), 24 * (n + 1) // gcd(p - 1, 12))
            assert claims["det_m_times_24"] == (mats.m24.det(), 24**n * claim)
            assert all(value == expected for value, expected in claims.values())


def prod(values):
    out = 1
    for v in values:
        out *= v
    return out


def test_order_matrices_structure():
    mats = order_matrices(7, 3)
    c = 24 // gcd(6, 12)
    assert list(mats.v.row(0)) == [-c, c, 0, 0]
    assert list(mats.v.row(3)) == [1, 1, 1, 1]
    # V's rows against the explicit pattern: (-c, c, 0, ...), then -1 at k
    # and +1 at k + 2, then all ones
    for p in (5, 7, 13):
        c = 24 // gcd(p - 1, 12)
        for n in range(1, 7):
            expected = [[-c, c] + [0] * (n - 1)]
            expected += [[-1 if j == k else 1 if j == k + 2 else 0 for j in range(n + 1)] for k in range(n - 1)]
            expected.append([1] * (n + 1))
            assert [list(order_matrices(p, n).v.row(i)) for i in range(n + 1)] == expected, (p, n)
    # first n rows of VMU are the lambda images of div f, div g_k (x24);
    # VMU orders coordinates by ascending cusp level, lambda puts the
    # base-cusp coordinate first, so the rows agree up to that rotation
    gens = prime_power_generators(7, 3)
    vmu = mats.v * mats.m24 * mats.u
    for idx, h in enumerate(gens):
        image = lambda_embedding(divisor(h), 7, 3)
        rotated = image[1:] + image[:1]
        assert [x // 24 for x in vmu.row(idx)] == rotated


def test_det_u_equals_index_of_divisor_lattice_in_sum_zero_lattice():
    for p, n in [(5, 2), (7, 3), (13, 2)]:
        sum_zero_basis = [
            [1 if j == i else (-1 if j == i + 1 else 0) for j in range(n + 1)]
            for i in range(n)
        ]
        image = [lambda_embedding(d, p, n) for d in divisor_basis(p, n)]
        index = quotient_structure(sum_zero_basis, image).order
        assert index == order_matrices(p, n).u.det()


def test_bordered_index_consistency_with_class_group():
    # |C(p^n)| * (L0:L1) = (L0:L2) computed via the bordered determinant
    for p, n in [(5, 2), (7, 2), (11, 2), (5, 3)]:
        mats = order_matrices(p, n)
        gens = prime_power_generators(p, n)
        vectors = [lambda_embedding(divisor(h), p, n) for h in gens]
        extra = list((mats.v * mats.m24 * mats.u).row(n))
        index = bordered_lattice_index(vectors, extra)
        det_u = mats.u.det()
        assert index == class_group(p, n).order * det_u, (p, n)


def test_eta_unit_exponent_basis_valid():
    for N in (11, 25, 36, 48, 100):
        basis = eta_unit_exponent_basis(N)
        for h in basis:
            assert check_modular_function(h).ok, (N, h)


def free_basis_exponent_vectors(N):
    """Reference for eta_unit_exponent_basis: each Ligozat row and each
    exponent vector expanded over the full weight-zero basis e_i - e_last."""
    deltas = sorted_divisors(N)
    k = len(deltas)
    free_basis = []
    for i in range(k - 1):
        vec = [0] * k
        vec[i], vec[k - 1] = 1, -1
        free_basis.append(vec)
    rows, moduli = [], []
    for weights in ([d % 24 for d in deltas], [(N // d) % 24 for d in deltas]):
        rows.append([sum(w * v for w, v in zip(weights, vec)) for vec in free_basis])
        moduli.append(24)
    for prime in sorted(factorize(N)):
        weights = [factorize(d).get(prime, 0) for d in deltas]
        rows.append([sum(w * v for w, v in zip(weights, vec)) % 2 for vec in free_basis])
        moduli.append(2)
    kernel = congruence_kernel(rows, moduli)
    vectors = [
        [sum(x * free_basis[i][j] for i, x in enumerate(coeffs)) for j in range(k)]
        for coeffs in kernel
    ]
    return hermite_row_basis(vectors)


def test_eta_unit_exponent_basis_matches_free_basis_reference():
    for N in range(2, 301):
        basis = eta_unit_exponent_basis(N)
        vectors = [[dict(h.exponents).get(d, 0) for d in sorted_divisors(N)] for h in basis]
        assert vectors == free_basis_exponent_vectors(N), N


def test_eta_unit_divisor_lattice_rank_one():
    lattice = eta_unit_divisor_lattice(11)
    assert lattice == [CuspDivisor.make(11, {1: -5, 11: 5})] or lattice == [
        CuspDivisor.make(11, {1: 5, 11: -5})
    ]


def test_eta_unit_divisor_lattice_equals_generator_span():
    for p, n in [(5, 2), (7, 2), (11, 1), (13, 2), (5, 3)]:
        lattice = eta_unit_divisor_lattice(p**n)
        gens = [divisor(h) for h in prime_power_generators(p, n)]
        assert len(lattice) == len(gens)
        for e in lattice:
            assert divisor_in_lattice(e, gens)
        for e in gens:
            assert divisor_in_lattice(e, lattice)


def test_eta_unit_divisor_lattice_contains_pq_generators():
    p, q = 13, 37
    lattice = eta_unit_divisor_lattice(p * q)
    assert len(lattice) == 3
    for h in pq_generators(p, q):
        assert divisor_in_lattice(divisor(h), lattice)


def test_class_group_for_level_dispatch():
    assert class_group_for_level(1).group.is_trivial
    assert class_group_for_level(121).certified
    assert class_group_for_level(121).group == class_group(11, 2).group
    assert class_group_for_level(13 * 37).certified
    # N = 8: outside every certified family
    result = class_group_for_level(8)
    assert not result.certified
    assert isinstance(result, ClassGroupResult)
    # genus zero: C(N) is trivial, and the eta lattice detects it
    assert class_group_for_level(8).group.is_trivial
    # N = 11^1 certified; N = 2^2 * 3 not
    assert not class_group_for_level(12).certified


def test_class_group_for_level_order_equals_det():
    # |C(N)| = |det| of the unit-lattice coordinate rows (Bareiss, not SNF)
    for N in (36, 48, 100, 5040):
        result = class_group_for_level(N)
        rows = [divisor_lattice_coordinates(E) for E in result.generator_divisors]
        assert result.order == abs(IntMatrix(rows).det()), N


def subgroup_order(generators, moduli):
    """Order of the subgroup of the product of the Z/m, m in `moduli`,
    generated by `generators`: each generator adds the translates of the
    group so far by its multiples, until a multiple falls back into it."""
    group = {tuple(0 for _ in moduli)}
    for g in generators:
        grown, step = set(group), g
        while step not in group:
            grown.update(tuple((x + s) % m for x, s, m in zip(h, step, moduli)) for h in group)
            step = tuple((s + x) % m for s, x, m in zip(step, g, moduli))
        group = grown
    return len(group)


def ligozat_index(N):
    """[Z_wt0 : E], E the exponent vectors of the eta quotients on X0(N) and
    Z_wt0 the weight-zero ones: E is the kernel of Ligozat's conditions
    r -> (sum r delta mod 24, sum r N/delta mod 24, sum r v_p(delta) mod 2
    for each p | N) on Z_wt0, which the e_delta - e_N span, so the index is
    the size of their image."""
    primes = sorted(factorize(N))

    def valuation(d, p):
        return next(v for v in range(d.bit_length() + 1) if d % p ** (v + 1))

    def image(d):
        return (d % 24, N // d % 24) + tuple(valuation(d, p) % 2 for p in primes)

    moduli = (24, 24) + (2,) * len(primes)
    top = image(N)
    generators = [tuple((x - y) % m for x, y, m in zip(image(d), top, moduli)) for d in sorted_divisors(N)[:-1]]
    return subgroup_order(generators, moduli)


def test_class_group_order_from_the_prime_power_order_matrices():
    # |C(N)| = [Z_wt0 : E] * prod |det 24 M(p^a)|^(k/(a+1)) / (24^(k-1) psi(N))
    # over the p^a || N, with k = d(N) and psi(N) = N prod (1 + 1/p): 24 M(N)
    # is the Kronecker product of the 24 M(p^a), det(A (x) B) =
    # det(A)^dim B det(B)^dim A, and the divisor of an eta quotient has
    # degree (weight) psi(N) / 12. Nothing here takes the lattice path.
    dets = {}
    # the last three, with 112 or 128 cusp levels, ran for minutes before the
    # Smith form took the lattice modulus
    for N in [*range(1, 1001), 5040, 9240, 27720, 30030, 55440, 2**27 * 15, 2**31 * 15, 2**15 * 135]:
        primes = factorize(N)
        for p, a in primes.items():
            if (p, a) not in dets:
                m24 = [[order_coefficient(p**a, p**j, p**i) for j in range(a + 1)] for i in range(a + 1)]
                dets[p, a] = abs(IntMatrix(m24).det())
        k = len(sorted_divisors(N))
        psi = N * prod(p + 1 for p in primes) // prod(primes)
        numerator = ligozat_index(N) * prod(dets[p, a] ** (k // (a + 1)) for p, a in primes.items())
        order, rest = divmod(numerator, 24 ** (k - 1) * psi)
        assert rest == 0 and order == class_group_for_level(N).order, N


def tridiagonal_inverse(p, a):
    """T(p, a) of `classgroup._lattice_modulus`: tridiagonal, with first row
    (p, -1, 0, ...), last row (..., 0, -1, p) and, for 0 < j < a, row j equal
    to p^(min(j, a-j) - 1) (..., -p, p^2 + 1, -p, ...)."""
    t = [[0] * (a + 1) for _ in range(a + 1)]
    t[0][0], t[0][1], t[a][a - 1], t[a][a] = p, -1, -1, p
    for j in range(1, a):
        scale = p ** (min(j, a - j) - 1)
        t[j][j - 1], t[j][j], t[j][j + 1] = -p * scale, (p * p + 1) * scale, -p * scale
    return t


def test_order_matrix_times_its_tridiagonal_inverse_is_scalar():
    # step 1 of the proof that m(N) Z^(k-1) lies in the divisor lattice
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, 11):
            m24 = IntMatrix([[order_coefficient(p**a, p**j, p**i) for j in range(a + 1)] for i in range(a + 1)])
            scalar = (p * p - 1) * p ** (a - 1)
            identity = [[scalar if i == j else 0 for j in range(a + 1)] for i in range(a + 1)]
            assert m24 * IntMatrix(tridiagonal_inverse(p, a)) == IntMatrix(identity), (p, a)
            assert _lattice_modulus(Level.of({p: a})) == scalar


def exact_class_group(N):
    """Z^(k-1) modulo the coordinates of the eta-unit divisors on X0(N), from a
    Smith form of the Hermite basis that takes no modulus."""
    rows = _unit_divisor_rows(level(N))
    return cokernel([row[:-1] for row in rows], len(rows[0]) - 1)


def test_exponent_of_the_class_group_divides_the_lattice_modulus():
    # the exponent of Z^(k-1)/L divides m exactly when m Z^(k-1) lies in L;
    # class_group_for_level reduces mod m, so the group is taken without it
    for N in [*range(2, 2001), 5040, 9240, 27720, 30030, 55440, 60060, 720720]:
        factors = exact_class_group(N).invariant_factors
        assert not factors or _lattice_modulus(level(N)) % factors[-1] == 0, N
    assert _lattice_modulus(level(9240)) == 12 * 8 * 24 * 48 * 120


def test_class_group_modulo_the_lattice_modulus_matches_the_exact_smith_form():
    generic = [N for N in range(2, 1001) if not class_group_for_level(N).certified]
    for N in [*generic, 5040, 9240, 27720, 30030, 55440, 60060, 720720]:
        assert class_group_for_level(N).group == exact_class_group(N), N


def test_class_group_for_level_refuses_too_many_cusp_levels():
    # 735134400 = 2^6 3^3 5^2 7 11 13 17 has 1344 cusp levels, 2^256 has 257
    # the product of the 30 primes below 114, with 2^30 cusp levels, is
    # refused before its level record is built
    primorial = prod(p for p in range(2, 114) if factorize(p) == {p: 1})
    for N in (735134400, 2**256, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, primorial):
        with pytest.raises(ScopeError, match="cusp levels"):
            class_group_for_level(N)
    # m(2^200) = 3 2^199 and m(2^127 3) = 3 2^126 8 have more than 128 bits
    for N in (2**200, 2**127 * 3):
        assert len(sorted_divisors(N)) <= MAX_GENERIC_LEVELS
        with pytest.raises(ScopeError, match="bits"):
            class_group_for_level(N)
    assert len(sorted_divisors(9699690)) == MAX_GENERIC_LEVELS
    assert _lattice_modulus(level(9699690)).bit_length() <= MAX_GENERIC_MODULUS_BITS
    assert _lattice_modulus(level(2**124 * 3)).bit_length() == MAX_GENERIC_MODULUS_BITS
    assert not class_group_for_level(2**124 * 3).certified


def test_class_group_for_level_factors_each_level_once(monkeypatch):
    # the level record holds everything the class group reads from the
    # factorization of N; the certified paths build theirs from p and q
    from cuspidal import curve

    calls, factorize_n = [], curve.factorize
    monkeypatch.setattr(curve, "factorize", lambda n: calls.append(n) or factorize_n(n))
    curve.level.cache_clear()
    class_group_for_level(1)
    assert calls == []
    for N in range(2, 1001):
        class_group_for_level(N)
        assert calls == [N], N
        calls.clear()


def test_class_group_for_level_known_value():
    # C(27) for p = 3 is not covered by the certified scope, but the eta
    # lattice still gives an upper-bound quotient; it must at least be finite
    result = class_group_for_level(27)
    assert not result.certified
    assert result.order >= 1


# certified levels: p^n with p >= 5, and pq with p == q == 1 mod 12
CERTIFIED_LEVELS = (
    [5**n for n in range(1, 9)]
    + [7**n for n in range(1, 7)]
    + [13**n for n in range(1, 5)]
    + [11**3, 17**3, 13 * 37, 37 * 61, 13 * 61]
)


def test_generic_route_gives_the_certified_groups():
    # class_group_for_level never takes the generic route at these levels, so
    # run that route by hand and compare with the certified answer
    for N in CERTIFIED_LEVELS:
        certified = class_group_for_level(N)
        assert certified.certified, N
        rows = [divisor_lattice_coordinates(E) for E in eta_unit_divisor_lattice(N)]
        assert cokernel(rows, len(sorted_divisors(N)) - 1) == certified.group, N


def per_quotient_divisor_lattice(N):
    """Reference for eta_unit_divisor_lattice: the divisor of each quotient
    of the exponent basis, one at a time, then a Hermite basis."""
    levels = sorted_divisors(N)
    divisors = [divisor(h) for h in eta_unit_exponent_basis(N)]
    vectors = [[int(div.coefficient(d)) for d in levels] for div in divisors]
    return [CuspDivisor.make(N, dict(zip(levels, v))) for v in hermite_row_basis(vectors)]


def test_eta_unit_divisor_lattice_matches_per_quotient_reference():
    for N in list(range(2, 401)) + [5040]:
        reference = per_quotient_divisor_lattice(N)
        result = class_group_for_level(N)
        if result.certified:
            assert eta_unit_divisor_lattice(N) == reference, N
        else:
            assert list(result.generator_divisors) == reference, N
