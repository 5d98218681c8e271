import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import pytest

from cuspidal.errors import InputError, ScopeError
from cuspidal.linalg import (
    AbelianGroup,
    IntMatrix,
    QmodZ,
    cokernel,
    congruence_kernel,
    express_in_basis,
    factorize,
    hermite_row_basis,
    is_prime,
    smith_normal_form,
)


def euler_phi(n):
    """Euler's totient from the factorization of n: the program's cusp
    degrees are checked against it."""
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def sorted_divisors(n):
    """Positive divisors of n in increasing order, from its factorization:
    the reference for the divisor order of the level record."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def quotient_structure(ambient_basis, sub_basis) -> AbelianGroup:
    """Structure of (lattice spanned by ambient_basis)/(lattice spanned by
    sub_basis), the reference route for the integer kernels: each sub-basis
    vector is expressed in the ambient basis over the rationals and must come
    out integral, and the two lattices must have the same rank (otherwise the
    quotient is infinite and a ValueError is raised)."""
    ambient = [list(v) for v in ambient_basis]
    subs = [list(v) for v in sub_basis]
    if not ambient:
        if any(any(v) for v in subs):
            raise ValueError("sub lattice not contained in the trivial ambient lattice")
        return AbelianGroup()
    coords = []
    for v in subs:
        try:
            x = express_in_basis(ambient, v)
        except ValueError as exc:
            raise ValueError(f"sub-basis vector {v} is not in the ambient lattice") from exc
        if any(c.denominator != 1 for c in x):
            raise ValueError(f"sub-basis vector {v} is not an integer combination")
        coords.append([int(c) for c in x])
    return cokernel(coords, len(ambient))


def snf_is_valid(a, snf):
    assert snf.p * a * snf.q == snf.d
    assert abs(snf.p.det()) == 1
    assert abs(snf.q.det()) == 1
    diag = snf.d.diagonal()
    for i in range(snf.d.nrows):
        for j in range(snf.d.ncols):
            if i != j:
                assert snf.d[i, j] == 0
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0


def test_snf_identity():
    a = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    snf = smith_normal_form(a)
    assert snf.d == a
    snf_is_valid(a, snf)


def test_snf_2x2_example():
    a = IntMatrix([[2, 4], [6, 8]])
    snf = smith_normal_form(a)
    assert snf.d.diagonal() == [2, 4]
    snf_is_valid(a, snf)


def test_snf_zero_matrix():
    a = IntMatrix([[0, 0, 0], [0, 0, 0]])
    snf = smith_normal_form(a)
    assert snf.d == a
    snf_is_valid(a, snf)


def test_snf_random_sweep():
    rng = random.Random(20240901)
    for _ in range(60):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        a = IntMatrix([[rng.randint(-50, 50) for _ in range(nc)] for _ in range(nr)])
        snf_is_valid(a, smith_normal_form(a))


def test_snf_deterministic():
    a = IntMatrix([[12, 6, 4], [3, 9, 6], [2, 16, 14]])
    first = smith_normal_form(a)
    second = smith_normal_form(a)
    assert first.p == second.p and first.q == second.q and first.d == second.d


def test_det_examples():
    assert IntMatrix([[2, 4], [6, 8]]).det() == -8
    assert IntMatrix([[1, 1], [1, -1]]).det() == -2
    assert IntMatrix([[int(i == j) for j in range(4)] for i in range(4)]).det() == 1
    assert IntMatrix([[0, 1], [0, 0]]).det() == 0


def test_det_matches_expansion_on_random():
    rng = random.Random(7)

    def det_laplace(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        return sum(
            (-1) ** j * rows[0][j] * det_laplace([r[:j] + r[j + 1 :] for r in rows[1:]])
            for j in range(n)
        )

    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert IntMatrix(rows).det() == det_laplace(rows)


# Z^2 modulo the span of the given rows, by both routes
STANDARD_QUOTIENTS = (
    lambda rows: quotient_structure([[1, 0], [0, 1]], rows),
    lambda rows: cokernel(rows, 2),
)


def test_quotient_structure_examples():
    for quotient in STANDARD_QUOTIENTS:
        assert quotient([[2, 0], [0, 3]]) == AbelianGroup((6,))
        assert quotient([[1, 0], [0, 1]]) == AbelianGroup()
        assert quotient([[1, 1], [1, -1]]) == AbelianGroup((2,))
        assert quotient([[2, 0], [0, 3], [4, 3]]) == AbelianGroup((6,))
    assert cokernel([], 0) == AbelianGroup()


def determinantal_invariants(rows):
    """Invariant factors d_k = D_k / D_(k-1), where D_k is the gcd of the
    k x k minors, up to the rank."""
    minors_gcd = [1]
    for size in range(1, min(len(rows), len(rows[0])) + 1):
        g = 0
        for rs in combinations(range(len(rows)), size):
            for cs in combinations(range(len(rows[0])), size):
                g = gcd(g, IntMatrix([[rows[i][j] for j in cs] for i in rs]).det())
        if g == 0:
            break
        minors_gcd.append(g)
    return [b // a for a, b in zip(minors_gcd, minors_gcd[1:])]


def test_cokernel_matches_determinantal_divisors_and_smith_diagonal():
    rng = random.Random(2024)
    for _ in range(150):
        k = rng.randint(1, 4)
        rows = [[rng.randint(-20, 20) for _ in range(k)] for _ in range(rng.randint(1, 5))]
        invariants = determinantal_invariants(rows)
        diagonal = smith_normal_form(IntMatrix(rows)).d.diagonal()
        assert [d for d in diagonal if d] == invariants, rows
        if len(invariants) < k:
            with pytest.raises(ValueError):
                cokernel(rows, k)
        else:
            expected = tuple(d for d in invariants if d > 1)
            assert cokernel(rows, k).invariant_factors == expected, rows


def test_quotient_structure_order_equals_det():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 4)
        while True:
            x = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            det = IntMatrix(x).det()
            if det != 0:
                break
        ambient = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        group = quotient_structure(ambient, x)
        assert group.order == abs(det)


def test_quotient_structure_element_order_oracle():
    # independent oracle: order of a coset x + L is the least t with t*x in L
    def element_order(vec, sub_basis):
        for t in range(1, 2000):
            coords = express_in_basis(sub_basis, [t * x for x in vec])
            if all(c.denominator == 1 for c in coords):
                return t
        raise AssertionError("element order not found")

    sub = [[2, 0], [0, 3]]
    group = quotient_structure([[1, 0], [0, 1]], sub)
    assert group.invariant_factors == (6,)
    # the exponent of the quotient must match the largest invariant factor
    exponent = max(element_order(v, sub) for v in ([1, 0], [0, 1], [1, 1], [1, 2]))
    assert exponent == 6

    sub = [[2, 2], [0, 4]]
    group = quotient_structure([[1, 0], [0, 1]], sub)
    assert group.order == 8
    exponent = max(element_order(v, sub) for v in ([1, 0], [0, 1], [1, 1], [1, 3]))
    assert exponent == max(group.invariant_factors)


def test_quotient_structure_errors():
    for quotient in STANDARD_QUOTIENTS:
        with pytest.raises(ValueError):
            quotient([[1, 0]])  # rank drop: infinite quotient
        with pytest.raises(ValueError):
            quotient([[1, 2], [2, 4]])  # dependent rows
        with pytest.raises(ValueError):
            quotient([])  # empty rows
    with pytest.raises(ValueError):
        cokernel([[1, 0, 0], [0, 1, 0]], 2)  # rows of the wrong length
    with pytest.raises(ValueError):
        quotient_structure([[2, 0], [0, 2]], [[1, 0], [0, 2]])  # not an integer combination
    with pytest.raises(ValueError):
        quotient_structure([[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [1, 0, 0]])  # outside span


def bordered_lattice_index(vectors, extra) -> int:
    """Index of the span of n coordinate-sum-zero vectors inside the full
    sum-zero lattice of Z^(n+1), computed from one bordered determinant.

    `extra` is any integer vector whose coordinate sum is nonzero. Returns 0
    when the given vectors are linearly dependent.
    """
    vectors = [list(v) for v in vectors]
    extra = list(extra)
    n = len(vectors)
    if any(len(v) != n + 1 for v in vectors) or len(extra) != n + 1:
        raise ValueError("need n vectors of length n+1 plus one bordering vector")
    for v in vectors:
        if sum(v) != 0:
            raise ValueError(f"vector {v} has nonzero coordinate sum")
    total = sum(extra)
    if total == 0:
        raise ValueError("bordering vector must have nonzero coordinate sum")
    det = IntMatrix(vectors + [extra]).det()
    if det == 0:
        return 0
    if det % total != 0:
        raise ArithmeticError("bordered determinant not divisible by the coordinate sum")
    return abs(det // total)


def test_bordered_lattice_index_examples():
    assert bordered_lattice_index([[2, -2]], [1, 1]) == 2
    basis = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]
    assert bordered_lattice_index(basis, [1, 1, 1, 1]) == 1
    assert bordered_lattice_index([[1, -1], [2, -2]][:1], [1, 0]) == 1
    # dependent rows give 0
    assert bordered_lattice_index([[1, -1, 0], [2, -2, 0]], [1, 1, 1]) == 0


def test_bordered_lattice_index_errors():
    with pytest.raises(ValueError):
        bordered_lattice_index([[1, -1]], [1, -1])
    with pytest.raises(ValueError):
        bordered_lattice_index([[1, 1]], [1, 0])


def test_bordered_index_agrees_with_quotient_structure():
    rng = random.Random(4242)
    for _ in range(50):
        n = rng.randint(1, 5)
        basis = [
            [1 if j == i else (-1 if j == i + 1 else 0) for j in range(n + 1)] for i in range(n)
        ]
        while True:
            coeffs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if IntMatrix(coeffs).det() != 0:
                break
        vectors = [
            [sum(c * basis[k][j] for k, c in enumerate(row)) for j in range(n + 1)]
            for row in coeffs
        ]
        extra = [1] * (n + 1)
        index = bordered_lattice_index(vectors, extra)
        group = quotient_structure(basis, vectors)
        assert index == group.order


def test_abelian_group_normalization():
    assert AbelianGroup.from_cyclic_orders([2, 3]) == AbelianGroup((6,))
    assert AbelianGroup.from_cyclic_orders([2, 2, 3]) == AbelianGroup((2, 6))
    assert AbelianGroup.from_cyclic_orders([1, 1]) == AbelianGroup()
    assert AbelianGroup.from_cyclic_orders([4, 6]) == AbelianGroup((2, 12))
    assert AbelianGroup.from_cyclic_orders([2, 10]).invariant_factors == (2, 10)


def reference_from_cyclic_orders(orders) -> AbelianGroup:
    """Invariant factors of a direct sum of cyclic groups by primary
    decomposition: the k-th largest factor is the product, over the primes,
    of the k-th largest prime-power part of the orders."""
    primary = {}
    for order in orders:
        if order < 1:
            raise ValueError(f"cyclic order {order} must be positive")
        for prime, exp in factorize(order).items():
            primary.setdefault(prime, []).append(exp)
    width = max((len(v) for v in primary.values()), default=0)
    factors = []
    for k in range(width):
        f = 1
        for prime, exps in primary.items():
            exps_sorted = sorted(exps, reverse=True)
            if k < len(exps_sorted):
                f *= prime ** exps_sorted[k]
        factors.append(f)
    return AbelianGroup(tuple(sorted(factors)))


def test_from_cyclic_orders_matches_the_primary_decomposition(monkeypatch):
    from cuspidal.verify import ling_structure

    rng = random.Random(1880)
    cases = [[], [1], [1, 1, 1]]
    for _ in range(300):
        size = rng.randint(0, 8)
        kind = rng.choice(("small", "prime powers", "six digits"))
        if kind == "small":
            orders = [rng.randint(1, 60) for _ in range(size)]
        elif kind == "prime powers":
            orders = [rng.choice((2, 3, 5, 7)) ** rng.randint(0, 4) for _ in range(size)]
        else:
            orders = [rng.choice((1, rng.randint(100000, 999999))) for _ in range(size)]
        cases.append(orders)
    # the orders of the mu parts, which `mu_contribution` takes as its chain,
    # and those the program itself passes: the closed form of C(p^n)
    cases += [[2 * 5 ** min(i, n - i) for i in range(n)] for n in (30, 200)]
    original = AbelianGroup.from_cyclic_orders.__func__

    def recording(cls, orders):
        cases.append(list(orders))
        return original(cls, orders)

    monkeypatch.setattr(AbelianGroup, "from_cyclic_orders", classmethod(recording))
    for p in (5, 7, 11, 13, 17, 19):
        for n in range(1, 9):
            ling_structure(p, n)
    monkeypatch.undo()
    assert len(cases) == 303 + 2 + 48
    for orders in cases:
        assert AbelianGroup.from_cyclic_orders(orders) == reference_from_cyclic_orders(orders), orders
    for orders in ([0], [4, 0, 6], [-3], [2, -1]):
        with pytest.raises(ValueError, match="must be positive"):
            AbelianGroup.from_cyclic_orders(orders)


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup((1,))
    with pytest.raises(ValueError):
        AbelianGroup((4, 6))


def test_abelian_group_refuses_non_integral_factors():
    for factors in ((2.5,), (2, Fraction(9, 2))):
        with pytest.raises(ValueError, match="not integers"):
            AbelianGroup(factors)
    group = AbelianGroup((2.0, Fraction(4)))
    assert group == AbelianGroup((2, 4)) and all(type(f) is int for f in group.invariant_factors)


def test_qmodz():
    assert QmodZ.of(3, 8).value == Fraction(3, 8)
    assert QmodZ.of(35, 8).value == Fraction(3, 8)
    assert str(QmodZ.of(-3, 8)) == "5/8"
    assert QmodZ.of(3, 8)
    assert not QmodZ.of(5)
    with pytest.raises(ValueError):
        QmodZ(Fraction(9, 8))
    assert QmodZ.of(-1, 3).value == Fraction(2, 3)


def test_arith_helpers():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert euler_phi(1) == 1 and euler_phi(25) == 20 and euler_phi(481) == 12 * 36
    assert sorted_divisors(12) == [1, 2, 3, 4, 6, 12]


def trial_division(n):
    """Reference factorization by trial division up to sqrt(n)."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_and_is_prime_agree_with_trial_division():
    for n in range(1, 2 * 10**5):
        expected = trial_division(n)
        assert factorize(n) == expected, n
        assert is_prime(n) == (expected == {n: 1}), n


def test_factorize_large_inputs():
    p, q = 10**9 + 7, 10**9 + 9
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p * q * 2**5 * 3) == {2: 5, 3: 1, p: 1, q: 1}
    assert factorize(257**2 * 263**3) == {257: 2, 263: 3}
    assert factorize(10**18 + 9) == {10**18 + 9: 1}
    assert list(factorize(q * p * 257)) == [257, p, q]
    # powers of primes above the trial-division range, however large
    for prime, exp in ((257, 11), (1009, 9), (65537, 6), (10**9 + 7, 4)):
        assert factorize(prime**exp) == {prime: exp}
        assert factorize(3**7 * prime**exp) == {3: 7, prime: exp}
    assert factorize(257**11 * 263**6) == {257: 11, 263: 6}
    assert factorize(257**11 * p**3) == {257: 11, p: 3}
    # beyond 3.3e24 Miller-Rabin with 13 bases no longer certifies a prime
    big = 2**89 - 1  # a Mersenne prime, about 6.2e26
    assert not is_prime(big + 2)
    with pytest.raises(ScopeError):
        is_prime(big)
    with pytest.raises(ScopeError):
        factorize(big)
    for n in (big**2, big * p):
        with pytest.raises(ScopeError):
            factorize(n)
    # a composite with no factor that Pollard rho finds within its budget
    with pytest.raises(ScopeError):
        factorize(big * (2**61 - 1))
    with pytest.raises(InputError):
        factorize(0)


def test_express_in_basis():
    coords = express_in_basis([[1, 1, 0], [0, 1, 1]], [2, 3, 1])
    assert coords == [Fraction(2), Fraction(1)]
    with pytest.raises(ValueError):
        express_in_basis([[1, 0, 0]], [0, 1, 0])


def test_hermite_row_basis():
    basis = hermite_row_basis([[2, 0], [0, 3], [2, 3]])
    assert basis == [[2, 0], [0, 3]]
    assert hermite_row_basis([[0, 0]]) == []
    basis = hermite_row_basis([[4, 2], [2, 4]])
    assert len(basis) == 2
    assert abs(IntMatrix(basis).det()) == 12


def test_congruence_kernel():
    # x + y == 0 mod 2 inside Z^2
    kernel = congruence_kernel([[1, 1]], [2])
    assert len(kernel) == 2
    assert abs(IntMatrix(kernel).det()) == 2
    for vec in kernel:
        assert (vec[0] + vec[1]) % 2 == 0
    # two simultaneous congruences
    kernel = congruence_kernel([[1, 0, 0], [0, 1, 1]], [3, 4])
    assert abs(IntMatrix(kernel).det()) == 12
    for vec in kernel:
        assert vec[0] % 3 == 0 and (vec[1] + vec[2]) % 4 == 0


def test_congruence_kernel_does_not_depend_on_the_order_of_the_conditions():
    # the kernel is one lattice and its Hermite basis is unique, so the
    # conditions may come in any order (classgroup puts the parity ones first)
    rng = random.Random(6113)
    for _ in range(60):
        t, m = rng.randint(1, 6), rng.randint(1, 4)
        rows = [[rng.randint(-30, 30) for _ in range(t)] for _ in range(m)]
        moduli = [rng.choice((2, 3, 8, 24)) for _ in range(m)]
        expected = congruence_kernel(rows, moduli)
        for order in permutations(range(m)):
            kernel = congruence_kernel([rows[i] for i in order], [moduli[i] for i in order])
            assert kernel == expected, (rows, moduli, order)


# The elimination kernels as they were before they worked on supports only:
# a Smith reduction that scans the whole remaining block for the smallest
# pivot and for the chain condition at every pivot, the Hermite form that
# reduces every row below the pivot over its whole tail, and the congruence
# kernel read from the transform of a Smith form of [rows | diag(moduli)].
# They are the references for the kernels in `linalg`.


def reference_smith_normal_form(a):
    """(D, P, Q) with P * A * Q = D, by smallest-pivot elimination that keeps
    the divisibility chain at every pivot."""
    nr, nc = a.nrows, a.ncols
    m = [list(row) for row in a]
    p = [[int(i == j) for j in range(nr)] for i in range(nr)]
    q = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        for x in (m, p):
            x[i], x[j] = x[j], x[i]

    def add_row(dst, src, mult):
        for x in (m, p):
            x[dst] = [u + mult * v for u, v in zip(x[dst], x[src])]

    def swap_cols(i, j):
        for row in (*m, *q):
            row[i], row[j] = row[j], row[i]

    def add_col(dst, src, mult):
        for row in (*m, *q):
            row[dst] += mult * row[src]

    def smallest_pivot(t):
        best, least = None, 0
        for i in range(t, nr):
            for j, x in enumerate(m[i][t:], t):
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
        return best

    for t in range(min(nr, nc)):
        if smallest_pivot(t) is None:
            break
        while True:
            i, j = smallest_pivot(t)
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            if m[t][t] < 0:
                add_row(t, t, -2)
            for i in range(t + 1, nr):
                quot = m[i][t] // m[t][t]
                if quot:
                    add_row(i, t, -quot)
            for j in range(t + 1, nc):
                quot = m[t][j] // m[t][t]
                if quot:
                    add_col(j, t, -quot)
            if any(m[i][t] for i in range(t + 1, nr)) or any(m[t][t + 1 :]):
                continue
            bad = [i for i in range(t + 1, nr) if any(x % m[t][t] for x in m[i][t + 1 :])]
            if not bad:
                break
            add_row(t, bad[0], 1)
    return IntMatrix(m), IntMatrix(p), IntMatrix(q)


def reference_hermite_row_basis(vectors):
    """Row Hermite form reducing every row below the pivot over its whole tail."""
    work = [list(v) for v in vectors if any(v)]
    if not work:
        return []
    r = 0
    for c in range(len(work[0])):
        while True:
            nz = [i for i in range(r, len(work)) if work[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(work[i][c]), i))
            work[r], work[i0] = work[i0], work[r]
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
            pivot = work[r][c:]
            done = True
            for i in range(r + 1, len(work)):
                quot = work[i][c] // pivot[0]
                if quot:
                    work[i][c:] = [x - quot * y for x, y in zip(work[i][c:], pivot)]
                if work[i][c] != 0:
                    done = False
            if done:
                break
        if any(work[i][c] != 0 for i in range(r, len(work))):
            pivot = work[r][c:]
            for i in range(r):
                quot = work[i][c] // pivot[0]
                if quot:
                    work[i][c:] = [x - quot * y for x, y in zip(work[i][c:], pivot)]
            r += 1
            if r == len(work):
                break
    return work[:r]


def reference_congruence_kernel(rows, moduli):
    """Hermite basis of the congruence kernel, projected from the kernel
    columns of Q in a Smith form of the bordered matrix [rows | diag(moduli)]."""
    m = len(rows)
    t = len(rows[0]) if rows else 0
    if m == 0:
        return [[int(i == j) for j in range(t)] for i in range(t)]
    bordered = [list(rows[i]) + [moduli[i] if i == j else 0 for j in range(m)] for i in range(m)]
    d, _, q = reference_smith_normal_form(IntMatrix(bordered))
    diag = d.diagonal()
    kernel_cols = [j for j in range(t + m) if j >= len(diag) or diag[j] == 0]
    return reference_hermite_row_basis([[q[i, j] for i in range(t)] for j in kernel_cols])


def random_lattice_rows(rng, nrows, ncols, bound):
    """Random integer rows, some of them built to be rank deficient, with
    zero rows and negative entries."""
    rows = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3 and nrows > 1:
        # every row a combination of two, so the rank is at most 2
        rows = [
            [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(rows[0], rows[1])]
            for _ in range(nrows)
        ]
    if rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [0] * ncols
    return rows


# diagonals and near-diagonals whose Smith form needs the gcd/lcm chain fix
CHAIN_FIX_CASES = (
    [[4, 0, 0], [0, 6, 0], [0, 0, 10]],
    [[6, 0], [0, 4]],
    [[2, 0], [0, 3]],
    [[-4, 0, 0], [0, 6, 0], [0, 0, -9]],
    [[10, 0, 0, 0], [0, 6, 0, 0], [0, 0, 4, 0], [0, 0, 0, 0]],
    [[12, 0, 0], [0, 18, 0], [0, 0, 8], [0, 0, 0]],
    [[4, 0, 0, 0], [0, 6, 0, 0], [0, 0, 10, 15]],
    [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
)


def test_smith_chain_fix_cases_match_the_reference_with_unimodular_transforms():
    expected = {
        0: [2, 2, 60],
        1: [2, 12],
        2: [1, 6],
        3: [1, 6, 36],
        4: [2, 2, 60, 0],
    }
    for k, rows in enumerate(CHAIN_FIX_CASES):
        a = IntMatrix(rows)
        snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        assert snf.d == reference_smith_normal_form(a)[0], rows
        if k in expected:
            assert snf.d.diagonal() == expected[k]


# diagonals, with a zero row below, that the elimination leaves as they are,
# so that only the sorted finish orders them: falling, mixed, with zeros,
# and one that sorting alone does not make a chain
SORTED_FINISH_CASES = (
    ([120, 24, 6, 2], [2, 6, 24, 120]),
    ([6, 2, 60, 2, 12], [2, 2, 6, 12, 60]),
    ([0, 30, 0, 6, 90], [6, 30, 90, 0, 0]),
    ([4, 6, 9], [1, 6, 36]),
    ([9, 6, 4], [1, 6, 36]),
)


@pytest.mark.parametrize("diagonal, expected", SORTED_FINISH_CASES)
def test_sorted_finish_matches_the_reference(diagonal, expected):
    k = len(diagonal)
    rows = [[x if i == j else 0 for j in range(k)] for i, x in enumerate(diagonal)] + [[0] * k]
    a = IntMatrix(rows)
    snf = smith_normal_form(a)
    snf_is_valid(a, snf)
    assert snf.d == reference_smith_normal_form(a)[0]
    assert snf.d.diagonal() == expected
    if 0 in expected:
        with pytest.raises(ValueError):
            cokernel(rows, k)
    else:
        assert cokernel(rows, k).invariant_factors == tuple(x for x in expected if x > 1)


def test_banded_class_group_cokernel_makes_no_extended_gcd(monkeypatch):
    """Elimination leaves the banded coordinates of C(5^50) with a diagonal
    that falls and then rises, and sorted it is a chain: no gcd/lcm step
    runs (one per pair out of order took 442 extended gcds)."""
    from cuspidal import linalg
    from cuspidal.classgroup import _banded_coordinates
    from cuspidal.verify import ling_structure

    calls = []
    egcd = linalg._egcd
    monkeypatch.setattr(linalg, "_egcd", lambda a, b: calls.append((a, b)) or egcd(a, b))
    assert cokernel(_banded_coordinates(5, 50), 50) == ling_structure(5, 50)
    assert calls == []


def test_smith_matches_the_chain_scanning_reference():
    rng = random.Random(20261018)
    for _ in range(300):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_lattice_rows(rng, nr, nc, rng.choice((3, 30, 10**6)))
        a = IntMatrix(rows)
        snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        assert snf.d == reference_smith_normal_form(a)[0], rows
        k = nc
        invariants = [x for x in snf.d.diagonal() if x]
        if len(invariants) < k:
            with pytest.raises(ValueError):
                cokernel(rows, k)
        else:
            assert cokernel(rows, k).invariant_factors == tuple(x for x in invariants if x > 1)


def transform_bits(a):
    snf = smith_normal_form(a)
    return max(abs(x).bit_length() for m in (snf.p, snf.q) for row in m for x in row)


def test_smith_transforms_stay_small():
    """The largest entries of P and Q, in bits, are at most those the
    Euclid-only pivot rounds gave: on the property suite's matrices and on
    the coordinate matrices of prime-power class groups."""
    from cuspidal.classgroup import class_group, divisor_lattice_coordinates

    rng = random.Random(987654321)  # as in verify.check_property_suites
    bits = 0
    for _ in range(200):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        a = IntMatrix([[rng.randint(-(10**6), 10**6) for _ in range(nc)] for _ in range(nr)])
        bits = max(bits, transform_bits(a))
    assert bits <= 1396
    for p, n, bound in ((5, 20, 92), (5, 50, 252), (7, 40, 235)):
        rows = [divisor_lattice_coordinates(d) for d in class_group(p, n).generator_divisors]
        assert transform_bits(IntMatrix(rows)) <= bound, (p, n)


def test_cokernel_matches_the_reference_on_class_group_coordinates(monkeypatch):
    from cuspidal import classgroup

    seen = []

    def recording(rows, k, modulus=None):
        seen.append(([list(r) for r in rows], k, modulus))
        return cokernel(rows, k, modulus)

    monkeypatch.setattr(classgroup, "cokernel", recording)
    for N in [*range(1, 301), 5040]:
        classgroup.class_group_for_level(N)
    assert len(seen) == 300  # every level but N = 1
    for rows, k, modulus in seen:
        diagonal = reference_smith_normal_form(IntMatrix(rows))[0].diagonal()
        assert len(diagonal) == k and all(diagonal)
        expected = AbelianGroup(tuple(x for x in diagonal if x > 1))
        assert cokernel(rows, k) == expected, rows
        assert cokernel(rows, k, modulus) == expected, (rows, modulus)


def test_hermite_matches_the_unbounded_reference():
    rng = random.Random(1979)
    for _ in range(300):
        rows = random_lattice_rows(rng, rng.randint(1, 8), rng.randint(1, 7), rng.choice((2, 9, 500)))
        assert hermite_row_basis(rows) == reference_hermite_row_basis(rows), rows
    assert hermite_row_basis([]) == [] and hermite_row_basis([[0, 0], [0, 0]]) == []


def test_hermite_matches_the_reference_on_eta_divisor_rows():
    from cuspidal.classgroup import _exponent_rows
    from cuspidal.curve import level
    from cuspidal.eta import _divisor_rows

    for N in [*range(2, 150), 720, 1260]:
        lvl = level(N)
        exponents = [[(d, r) for d, r in zip(lvl.degrees, v) if r] for v in _exponent_rows(lvl)]
        rows = _divisor_rows(lvl, exponents)
        assert hermite_row_basis(rows) == reference_hermite_row_basis(rows), N


def count_folds(monkeypatch):
    """A list that grows by one for each column `hermite_row_basis` folds in
    its bounded mode, that is, after the switch to residues mod m."""
    from cuspidal import linalg

    folds, fold = [], linalg._fold_column
    monkeypatch.setattr(linalg, "_fold_column", lambda *args: folds.append(args[1]) or fold(*args))
    return folds


def test_bounded_hermite_matches_the_exact_form_on_random_lattices(monkeypatch):
    folds = count_folds(monkeypatch)
    rng = random.Random(1987)
    switched = 0
    for _ in range(400):
        width, m = rng.randint(1, 7), rng.choice((2, 6, 24, 35, rng.randint(2, 2000)))
        rows = random_lattice_rows(rng, rng.randint(1, 8), width, rng.choice((9, 500, 10**6)))
        # m Z^w lies in the lattice, as the bounded form requires
        rows += [[m if i == j else 0 for j in range(width)] for i in range(width)]
        rng.shuffle(rows)
        before = len(folds)
        assert hermite_row_basis(rows, m) == hermite_row_basis(rows), (rows, m)
        switched += len(folds) > before
    # both the exact route and the switch to residues mod m are exercised
    assert 40 < switched < 360, switched


def test_bounded_hermite_matches_the_exact_form_on_divisor_lattices(monkeypatch):
    """The coordinate rows and modulus m(N) that `_unit_divisor_rows` passes,
    on every generic level up to 1000 and on larger composite levels."""
    from cuspidal import classgroup
    from cuspidal.curve import level

    generic = [N for N in range(2, 1001) if not classgroup.class_group_for_level(N).certified]
    levels = [*generic, 5040, 9240, 27720, 30030, 55440, 60060, 720720]
    seen = []
    monkeypatch.setattr(
        classgroup, "hermite_row_basis", lambda rows, modulus: seen.append((rows, modulus)) or []
    )
    for N in levels:
        classgroup._unit_divisor_rows(level(N))
    folds = count_folds(monkeypatch)
    switched = []
    for N, (rows, m) in zip(levels, seen, strict=True):
        assert m == classgroup._lattice_modulus(level(N))
        before = len(folds)
        assert hermite_row_basis(rows, m) == hermite_row_basis(rows), N
        if len(folds) > before:
            switched.append(N)
    # the exact form grows past m^2 only on 9240 (2^3 3 5 7 11) and 30030 (2 3 5 7 11 13)
    assert switched == [9240, 30030], switched


def test_congruence_kernel_matches_the_bordered_smith_reference():
    rng = random.Random(1987)
    for _ in range(200):
        m, t = rng.randint(1, 4), rng.randint(1, 6)
        rows = random_lattice_rows(rng, m, t, rng.choice((5, 50)))
        moduli = [rng.choice((1, 2, 4, 24, 36, rng.randint(1, 500))) for _ in range(m)]
        assert congruence_kernel(rows, moduli) == reference_congruence_kernel(rows, moduli)
    assert congruence_kernel([], []) == reference_congruence_kernel([], []) == []


def test_congruence_kernel_matches_the_reference_on_its_callers_inputs(monkeypatch):
    """The Ligozat exponent lattices of X0(N), as `classgroup` passes them."""
    from cuspidal import classgroup

    seen = []

    def recording(rows, moduli):
        seen.append(([list(r) for r in rows], list(moduli)))
        return congruence_kernel(rows, moduli)

    monkeypatch.setattr(classgroup, "congruence_kernel", recording)
    for N in [*range(2, 120), 360, 420]:
        classgroup.eta_unit_exponent_basis(N)
    for rows, moduli in seen:
        assert congruence_kernel(rows, moduli) == reference_congruence_kernel(rows, moduli)
        for x in congruence_kernel(rows, moduli):
            assert all(sum(a * b for a, b in zip(r, x)) % mod == 0 for r, mod in zip(rows, moduli))


def count_reductions(monkeypatch):
    """A list that grows by one for each row that a Smith form with a
    modulus reduces mod m."""
    from cuspidal import linalg

    reduced, centre = [], linalg._centre
    monkeypatch.setattr(linalg, "_centre", lambda row, start, m: reduced.append(m) or centre(row, start, m))
    return reduced


def test_cokernel_modulo_a_lattice_exponent_matches_the_exact_one(monkeypatch):
    reduced = count_reductions(monkeypatch)
    rng = random.Random(2014)
    reducing = 0
    for case in range(400):
        k = rng.randint(1, 7)
        rows = random_lattice_rows(rng, rng.randint(1, 8), k, rng.choice((9, 500, 10**6)))
        if case % 2:
            # m Z^k in the span through its own rows
            m = rng.choice((2, 6, 24, 35, rng.randint(2, 2000)))
            rows += [[m if i == j else 0 for j in range(k)] for i in range(k)]
            rng.shuffle(rows)
        else:
            # a multiple of the exponent of a finite quotient
            try:
                exact = cokernel(rows, k)
            except ValueError:
                continue
            m = max(exact.invariant_factors, default=1) * rng.choice((1, 1, 2, 3, 10**6))
        before = len(reduced)
        assert cokernel(rows, k, m) == cokernel(rows, k), (rows, m)
        reducing += len(reduced) > before
    assert 40 < reducing < 360, reducing
    # a lattice that is m Z^k itself reduces to zero rows
    assert cokernel([[6, 0], [0, 6]], 2, 6) == AbelianGroup((6, 6))
    assert cokernel([], 2, 6) == AbelianGroup((6, 6))


def test_abelian_group_order_is_the_product_of_its_factors():
    rng = random.Random(26)
    for k in list(range(8)) + [31, 64, 200]:
        factors = [rng.randint(2, 10**6)]
        for _ in range(k - 1):
            factors.append(factors[-1] * rng.randint(1, 50))
        group = AbelianGroup(factors[:k])
        assert group.order == prod(factors[:k]), k
