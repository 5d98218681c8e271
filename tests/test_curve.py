import random
from fractions import Fraction
from math import gcd

import pytest

from cuspidal.curve import MAX_CUSP_LEVELS, Cusp, CuspDivisor, Level, cusp_degrees, cusps, level
from cuspidal.errors import InputError, ScopeError
from cuspidal.linalg import factorize
from test_linalg import euler_phi, sorted_divisors


def test_cusp_counts_prime_power():
    for p, n in [(5, 1), (5, 3), (7, 2), (11, 4)]:
        cs = cusps(p**n)
        assert len(cs) == n + 1
        for i, c in enumerate(cs):
            assert c.level == p**i
            assert c.conductor == p ** min(i, n - i)
            assert c.degree == euler_phi(p ** min(i, n - i))


def test_cusp_counts_pq():
    cs = cusps(13 * 37)
    assert len(cs) == 4
    assert all(c.degree == 1 for c in cs)
    assert [c.level for c in cs] == [1, 13, 37, 481]


def test_cusp_level_one():
    cs = cusps(1)
    assert cs == [Cusp(N=1, level=1, conductor=1, degree=1, width=1)]


def _p1_t_orbit_count(N):
    """Independent cusp-count oracle: orbits of (c:d) -> (c:c+d) on P^1(Z/N)."""

    def egcd(x, y):
        if y == 0:
            return (1, 0, x)
        u, v, g = egcd(y, x % y)
        return (v, u - (x // y) * v, g)

    def lift_unit(n, d, a):
        # lift a unit a mod d to a unit mod n (d | n)
        u, v = 1, n
        g = gcd(v, d)
        while g > 1:
            u *= g
            v //= g
            g = gcd(v, g)
        x, y, _ = egcd(u, v)
        return (u * x + a * y * v) % n

    def reduce_point(u, v):
        u %= N
        v %= N
        if u == 0:
            if gcd(N, v) != 1:
                return None
            return (0, 1)
        _, s, g = egcd(N, u)
        if gcd(g, v) > 1:
            return None
        s = lift_unit(N, N // g, s % (N // g) if s % (N // g) else N // g)
        u, v = g, (s * v) % N
        if g == 1:
            return (1, v)
        v = min((v * t) % N for t in range(1, N, N // g) if gcd(N, t) == 1)
        return (g, v)

    points = set()
    for c in range(N):
        for d in range(N):
            r = reduce_point(c, d)
            if r is not None:
                points.add(r)
    seen = set()
    orbits = 0
    for pt in sorted(points):
        if pt in seen:
            continue
        orbits += 1
        c, d = pt
        while pt not in seen:
            seen.add(pt)
            pt = reduce_point(c, c + d)
            c, d = pt if pt else (c, d)
    return orbits


def test_complex_cusp_count_matches_p1_orbit_oracle():
    # the number of complex cusps is the degree-weighted count of closed points
    levels = [1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 36, 40, 45]
    for N in levels:
        assert sum(c.degree for c in cusps(N)) == _p1_t_orbit_count(N), N


def test_degree_sum_equals_standard_cusp_count():
    for N in range(1, 201):
        total = sum(c.degree for c in cusps(N))
        standard = sum(euler_phi(gcd(d, N // d)) for d in sorted_divisors(N))
        assert total == standard


def test_cusp_degrees_table():
    for N in list(range(1, 201)) + [5040, 5**20, 13 * 37, 55440, 257**11]:
        degrees = level(N).degrees
        assert cusp_degrees(N) is degrees
        assert list(degrees) == sorted_divisors(N)
        assert list(degrees.values()) == [c.degree for c in cusps(N)]
        assert list(degrees.values()) == [euler_phi(gcd(d, N // d)) for d in sorted_divisors(N)]
    lvl = level(12)
    assert level(12) is lvl
    with pytest.raises(TypeError):
        lvl.degrees[1] = 5
    with pytest.raises(AttributeError):
        lvl.N = 5
    for N in (0, -12):
        with pytest.raises(InputError):
            cusp_degrees(N)
        with pytest.raises(InputError):
            CuspDivisor.make(N, {})


def test_level_equality_and_hash_go_by_the_factorization():
    assert level(12) == Level.of({2: 2, 3: 1}) == Level.of({3: 1, 2: 2})
    assert hash(level(12)) == hash(Level.of({2: 2, 3: 1}))
    assert level(12) != level(18) and level(1) == Level.of({})
    assert {level(12): 1}[Level.of({2: 2, 3: 1})] == 1


def test_level_valuations():
    assert level(1).primes == level(1).valuations == ()
    for N in (12, 360, 5**4, 13 * 37, 5040):
        lvl = level(N)
        assert lvl.primes == tuple(sorted(factorize(N)))
        assert len(lvl.valuations) == len(lvl.primes)
        for p, vals in zip(lvl.primes, lvl.valuations):
            assert vals == tuple(factorize(d).get(p, 0) for d in lvl.degrees)


def sorted_tuple_level(N):
    """(divisors, valuations) of N by sorting one (d, v_p1(d), v_p2(d), ...)
    tuple per divisor: the reference for the record's one-pass construction."""
    factors = sorted(factorize(N).items())
    rows = [(1,)]
    for p, e in factors:
        rows = [(row[0] * p**k, *row[1:], k) for row in rows for k in range(e + 1)]
    rows.sort()
    return [row[0] for row in rows], list(zip(*(row[1:] for row in rows)))


def test_level_matches_the_references():
    # compared as ordered lists: the order of primes and divisors is part of
    # the record
    for N in [*range(1, 2001), 5040, 55440, 257**11]:
        factors = factorize(N)
        lvl = Level.of(factors)
        assert (lvl.N, lvl.factors, lvl.primes) == (N, tuple(sorted(factors.items())), tuple(sorted(factors))), N
        expected_divisors, expected_valuations = sorted_tuple_level(N)
        if N <= 2000:
            assert expected_divisors == [d for d in range(1, N + 1) if N % d == 0], N
        assert list(lvl.degrees) == expected_divisors, N
        assert list(lvl.valuations) == expected_valuations, N
        assert list(lvl.degrees.values()) == [euler_phi(gcd(d, N // d)) for d in expected_divisors], N


def test_level_refuses_more_cusp_levels_than_its_tables_take():
    primes = [p for p in range(2, 80) if factorize(p) == {p: 1}][:17]
    with pytest.raises(ScopeError, match="cusp levels"):
        Level.of(dict.fromkeys(primes, 1))
    assert len(Level.of(dict.fromkeys(primes[:16], 1)).degrees) == MAX_CUSP_LEVELS


def test_width_sum_equals_index():
    for N in range(1, 201):
        index = N
        for p in factorize(N):
            index += index // p
        assert sum(c.degree * c.width for c in cusps(N)) == index


def divisor_basis(p, n):
    """The standard basis D_0, ..., D_(n-1) of the degree-zero cuspidal
    divisor group on X0(p^n): D_i = Q_(p^i) - phi(gcd(p^i, p^(n-i))) Q_(p^n)."""
    N = p**n
    degrees = cusp_degrees(N)
    return [CuspDivisor.make(N, {p**i: 1, N: -degrees[p**i]}) for i in range(n)]


def lambda_embedding(E, p, n):
    """Embed a degree-zero cuspidal divisor on X0(p^n) into the
    coordinate-sum-zero lattice of Z^(n+1): the basis divisor D_i maps to
    phi(gcd(p^i, p^(n-i))) (e_(i+1) - e_0). The tests' independent route to
    C(p^n) and to the rows of VMU."""
    N = p**n
    if E.N != N:
        raise ValueError(f"divisor lives on X0({E.N}), not X0({N})")
    if E.degree() != 0:
        raise ValueError("divisor has nonzero degree")
    coeffs = [E.coefficient(d) for d in cusp_degrees(N)]
    degrees = list(cusp_degrees(N).values())
    image = [coeffs[n]] + [c * phi for c, phi in zip(coeffs[:n], degrees)]
    assert sum(image) == 0
    return image


def test_divisor_basis_examples():
    (d0,) = divisor_basis(5, 1)
    assert d0 == CuspDivisor.make(5, {1: 1, 5: -1})
    d0, d1 = divisor_basis(5, 2)
    assert d0 == CuspDivisor.make(25, {1: 1, 25: -1})
    assert d1 == CuspDivisor.make(25, {5: 1, 25: -4})
    for p, n in [(5, 3), (7, 2), (13, 4)]:
        for d in divisor_basis(p, n):
            assert d.degree() == 0
            assert all(type(c) is int for _, c in d.coefficients)


def test_lambda_embedding_examples():
    d0, d1 = divisor_basis(5, 2)
    assert lambda_embedding(d0, 5, 2) == [-1, 1, 0]
    assert lambda_embedding(d1, 5, 2) == [-4, 0, 4]
    assert lambda_embedding(CuspDivisor.make(25, {}), 5, 2) == [0, 0, 0]


def test_lambda_embedding_rejects_bad_divisors():
    with pytest.raises(ValueError):
        lambda_embedding(CuspDivisor.make(25, {1: 1}), 5, 2)  # nonzero degree
    with pytest.raises(ValueError):
        lambda_embedding(CuspDivisor.make(5, {1: 1, 5: -1}), 5, 2)  # another level
    # a divisor with half-integral coefficients cannot be built at all
    with pytest.raises(InputError):
        CuspDivisor.make(25, {1: Fraction(1, 2), 25: Fraction(-1, 2)})


def test_cusp_divisor_make_rejects_non_integral_coefficients():
    # refused, not truncated to 0
    with pytest.raises(InputError, match="not an integer"):
        CuspDivisor.make(25, {5: Fraction(1, 2)})
    with pytest.raises(InputError):
        CuspDivisor.make(25, {1: 1, 25: -0.5})
    e = CuspDivisor.make(25, {1: Fraction(4, 2), 5: 0, 25: -2})
    assert e.coefficients == ((1, 2), (25, -2))
    assert all(type(c) is int for _, c in e.coefficients)
    assert type(e.degree()) is int and e.degree() == 0


def test_lambda_embedding_injective_and_sum_zero():
    rng = random.Random(11)
    p, n = 7, 3
    basis = divisor_basis(p, n)
    for _ in range(40):
        coeffs = [rng.randint(-9, 9) for _ in range(n)]
        total = {}
        for c, d in zip(coeffs, basis):
            for level, x in d.coefficients:
                total[level] = total.get(level, 0) + c * x
        e = CuspDivisor.make(p**n, total)
        image = lambda_embedding(e, p, n)
        assert sum(image) == 0
        # injectivity: the divisor is recoverable from its image
        phi = [euler_phi(gcd(p**i, p ** (n - i))) for i in range(n)]
        recovered = [image[i + 1] // phi[i] for i in range(n)]
        assert recovered == coeffs


def test_cusp_divisor_arithmetic():
    # sums are taken on the coefficient maps; zero coefficients are dropped
    a = CuspDivisor.make(25, {1: 1, 25: -1})
    total = CuspDivisor.make(25, {1: 1, 5: 2, 25: -9})
    assert (total.coefficient(1), total.coefficient(5), total.coefficient(25)) == (1, 2, -9)
    assert total.coefficient(7) == 0
    assert CuspDivisor.make(25, {1: 1 - 1, 25: -1 + 1}) == CuspDivisor(25, ())
    assert str(CuspDivisor(25, ())) == "0"
    assert str(a) == "Q_1 - Q_25"
    assert str(CuspDivisor.make(25, {1: -2, 5: 1, 25: 4})) == "-2*Q_1 + Q_5 + 4*Q_25"
    with pytest.raises(ValueError):
        CuspDivisor.make(25, {2: 1})
