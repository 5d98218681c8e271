import random
from fractions import Fraction
from math import gcd, prod

import pytest

from cuspidal.curve import CuspDivisor
from cuspidal.errors import InputError, NotModularError, ScopeError
from cuspidal.eta import (
    EtaQuotient,
    _prime_power_orders,
    check_modular_function,
    divisor,
    order_at_cusp,
    order_coefficient,
    pq_generators,
    prime_power_generators,
)
from cuspidal.linalg import factorize
from test_linalg import euler_phi, sorted_divisors


def test_ligozat_f5_passes():
    h = EtaQuotient.make(5, {1: -6, 5: 6})
    report = check_modular_function(h)
    assert report.ok
    assert report.weight_zero and report.square_product
    assert report.sum_delta_mod_24 and report.sum_complement_mod_24


def test_ligozat_constant_passes():
    assert check_modular_function(EtaQuotient.one(1)).ok


def test_ligozat_failure_mod_24():
    h = EtaQuotient.make(2, {1: 1, 2: -1})
    report = check_modular_function(h)
    assert not report.ok
    assert not report.sum_delta_mod_24
    assert report.weight_zero


def test_ligozat_square_condition():
    # sum r*delta = 0 mod 24 and weight zero but prod delta^r = 6 not a square
    h = EtaQuotient.make(6, {6: 24, 1: -24})
    report = check_modular_function(h)
    assert report.weight_zero and report.sum_delta_mod_24
    assert report.square_product  # 6^24 is a square
    h = EtaQuotient.make(6, {6: 23, 3: 1, 1: -24})
    report = check_modular_function(h)
    assert not report.square_product  # 6^23 * 3 has odd valuation at 2


def test_order_at_cusp_examples():
    assert order_at_cusp(EtaQuotient.make(25, {1: 1}), 5) == Fraction(1, 24)
    assert order_at_cusp(EtaQuotient.make(25, {25: 1}), 5) == Fraction(1, 24)
    assert order_at_cusp(EtaQuotient.make(25, {5: 1}), 1) == Fraction(5, 24)
    with pytest.raises(ValueError):
        order_at_cusp(EtaQuotient.make(25, {5: 1}), 3)


def closed_form_order(p, n, k, m):
    """Prime-power cusp orders of eta(p^k tau) in closed form (times 24)."""
    if 2 * m >= n:
        return p**k if k <= m else p ** (2 * m - k)
    return p ** (n - k) if m <= k else p ** (n + k - 2 * m)


def test_closed_form_orders_match_general_formula():
    for p in (5, 7, 11, 13):
        for n in range(1, 7):
            for k in range(n + 1):
                h = EtaQuotient.make(p**n, {p**k: 1})
                for m in range(n + 1):
                    expected = Fraction(closed_form_order(p, n, k, m), 24)
                    assert order_at_cusp(h, p**m) == expected, (p, n, k, m)


def test_divisor_examples():
    f5 = EtaQuotient.make(5, {5: 6, 1: -6})
    assert divisor(f5) == CuspDivisor.make(5, {5: 1, 1: -1})
    f11 = EtaQuotient.make(11, {11: 12, 1: -12})
    assert divisor(f11) == CuspDivisor.make(11, {11: 5, 1: -5})


def test_divisor_of_the_empty_quotient_is_zero():
    # each sum of order columns starts from the first factor's column, so a
    # quotient with no factor must still give the zero row
    for N in (1, 2, 7, 12, 25, 5**6, 360, 9240):
        assert divisor(EtaQuotient.one(N)) == CuspDivisor.make(N, {}), N


def test_divisor_pq_example():
    p, q = 13, 37
    f1, f2, f3 = pq_generators(p, q)
    a = (p - 1) * (q + 1) // 24
    b = (p + 1) * (q - 1) // 24
    c = (p - 1) * (q - 1) // 24
    assert a == 19 and c == 18
    # D1 = Q_1 - Q_pq, D2 = Q_p - Q_pq, D3 = Q_q - Q_pq
    assert divisor(f1) == CuspDivisor.make(p * q, {1: a, p: -a, q: a, p * q: -a})
    assert divisor(f2) == CuspDivisor.make(p * q, {1: b, p: b, q: -b, p * q: -b})
    assert divisor(f3) == CuspDivisor.make(p * q, {1: c, p: -c, q: -c, p * q: c})


def ligozat_fraction(N, d, delta):
    """24 times the order of eta(delta*tau) at level d, as an exact rational."""
    return Fraction(N * gcd(d, delta) ** 2, gcd(d, N // d) * d * delta)


def test_order_coefficient_is_the_integral_ligozat_formula():
    for N in list(range(1, 401)) + [5040, 27720]:
        levels = sorted_divisors(N)
        for d in levels:
            for delta in levels:
                value = order_coefficient(N, d, delta)
                assert type(value) is int
                assert value == ligozat_fraction(N, d, delta), (N, d, delta)


def test_order_coefficient_is_the_product_of_its_prime_power_values():
    # 24 times the order is multiplicative in the level: for N = prod p^e,
    # the value at (N, d, delta) is the product over p of the values at
    # (p^e, p^v_p(d), p^v_p(delta)), which a Kronecker product of the
    # prime-power order matrices relies on
    checked = 0
    for N in range(2, 2001):
        primes = factorize(N)
        if len(primes) < 2:
            continue
        factored = {d: factorize(d) for d in sorted_divisors(N)}
        for d in factored:
            for delta in factored:
                local = (
                    order_coefficient(p**e, p ** factored[d].get(p, 0), p ** factored[delta].get(p, 0))
                    for p, e in primes.items()
                )
                assert order_coefficient(N, d, delta) == prod(local), (N, d, delta)
                checked += 1
    assert checked > 10**5


def fraction_divisor(h):
    """div h level by level from the rational Ligozat formula."""
    return {
        d: sum((r * ligozat_fraction(h.N, d, delta) for delta, r in h.exponents), Fraction(0))
        / 24
        for d in sorted_divisors(h.N)
    }


def test_divisor_matches_rational_ligozat_sum():
    from cuspidal.classgroup import eta_unit_exponent_basis

    quotients = [h for N in list(range(2, 201)) + [5040] for h in eta_unit_exponent_basis(N)]
    quotients += [h for p, n in [(5, 6), (7, 4), (13, 3)] for h in prime_power_generators(p, n)]
    quotients += [h for p, q in [(13, 37), (37, 61)] for h in pq_generators(p, q)]
    for h in quotients:
        div = divisor(h)
        expected = fraction_divisor(h)
        assert [div.coefficient(d) for d in expected] == list(expected.values()), h


def test_prime_power_orders_match_order_coefficient():
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 14):
            N = p**n
            row = _prime_power_orders(p, n)
            for i in range(n + 1):
                assert row(i) == [order_coefficient(N, p**j, p**i) for j in range(n + 1)], (p, n, i)


def test_divisor_rejects_non_integral_order(monkeypatch):
    import cuspidal.eta as eta_module

    # a prime power reads its orders from the table of 24M(p^n)
    def shifted_table(p, n):
        row = _prime_power_orders(p, n)
        # 24 times the order of eta(5 tau) at level 1, plus one
        return lambda i: [c + ((i, j) == (1, 0)) for j, c in enumerate(row(i))]

    monkeypatch.setattr(eta_module, "_prime_power_orders", shifted_table)
    with pytest.raises(AssertionError, match="non-integral order .* at level 1"):
        divisor(EtaQuotient.make(5, {5: 6, 1: -6}))

    # a level with two primes computes each order with order_coefficient
    def shifted(N, d, delta):
        return order_coefficient(N, d, delta) + (d == 1 and delta == 13)

    monkeypatch.setattr(eta_module, "order_coefficient", shifted)
    with pytest.raises(AssertionError, match="non-integral order .* at level 1"):
        divisor(pq_generators(13, 37)[0])


def test_divisor_rejects_non_modular():
    with pytest.raises(NotModularError) as err:
        divisor(EtaQuotient.make(2, {1: 1, 2: -1}))
    assert not err.value.report.ok


def test_prime_power_generators():
    gens = prime_power_generators(5, 3)
    assert len(gens) == 3
    assert gens[0] == EtaQuotient.make(125, {5: 6, 1: -6})
    assert gens[1] == EtaQuotient.make(125, {25: 1, 1: -1})
    assert gens[2] == EtaQuotient.make(125, {125: 1, 5: -1})
    (f,) = prime_power_generators(13, 1)
    assert f == EtaQuotient.make(13, {13: 2, 1: -2})
    for p, n in [(5, 3), (7, 2), (11, 1), (13, 4)]:
        for h in prime_power_generators(p, n):
            assert check_modular_function(h).ok


def test_prime_power_generators_scope():
    for p in (2, 3, 4, 9):
        with pytest.raises(ScopeError):
            prime_power_generators(p, 2)


def test_pq_generators():
    gens = pq_generators(13, 37)
    assert len(gens) == 3
    for h in gens:
        assert check_modular_function(h).ok
        assert divisor(h).degree() == 0
    with pytest.raises(ScopeError):
        pq_generators(5, 13)
    with pytest.raises(ScopeError):
        pq_generators(13, 13)


def gcd_of_divisor_coefficients(h):
    """gcd of the (integer) cusp orders of a Ligozat-valid eta quotient."""
    out = 0
    for _, c in divisor(h).coefficients:
        out = gcd(out, int(c))
    return out


def test_gcd_of_divisor_coefficients():
    assert gcd_of_divisor_coefficients(EtaQuotient.make(11, {11: 12, 1: -12})) == 5
    f, g0 = prime_power_generators(5, 2)
    assert gcd_of_divisor_coefficients(f * g0) == 1
    f, g0 = prime_power_generators(13, 2)
    for c in range(-2, 3):
        assert gcd_of_divisor_coefficients(f * g0**c) == 1


def test_gcd_of_divisor_coefficients_random_sweep():
    # the gcd of the cusp orders of f * prod g_k^(c_k) is always
    # (p-1)/gcd(p-1,12), independent of the c_k
    rng = random.Random(271828)
    for p in (5, 7, 11, 13, 17, 19):
        a = (p - 1) // gcd(p - 1, 12)
        for n in (2, 3, 4):
            gens = prime_power_generators(p, n)
            for _ in range(5):
                h = gens[0]
                for g in gens[1:]:
                    h = h * g ** rng.randint(-3, 3)
                assert gcd_of_divisor_coefficients(h) == a, (p, n)


def test_generator_orders_divisible_by_a():
    for p, n in [(7, 3), (11, 4), (13, 3)]:
        a = (p - 1) // gcd(p - 1, 12)
        gens = prime_power_generators(p, n)
        for g in gens[1:]:
            for _, coeff in divisor(g).coefficients:
                assert int(coeff) % a == 0


def test_degree_of_single_eta_factor():
    # the degree of div eta(p^i tau), weighted by cusp degrees, is the same
    # for every i and equals p^(n-1) (p+1) / 24
    from cuspidal.eta import order_coefficient

    for p, n in [(5, 3), (7, 2), (13, 4)]:
        N = p**n
        expected = Fraction(p ** (n - 1) * (p + 1), 24)
        for i in range(n + 1):
            total = sum(
                Fraction(euler_phi(gcd(d, N // d))) * order_coefficient(N, d, p**i)
                for d in sorted_divisors(N)
            )
            assert total / 24 == expected


def test_degree_zero_for_random_valid_quotients():
    from cuspidal.classgroup import eta_unit_exponent_basis

    rng = random.Random(31337)
    count = 0
    levels = [N for N in range(2, 101)]
    while count < 100:
        N = rng.choice(levels)
        basis = eta_unit_exponent_basis(N)
        if not basis:
            continue
        h = EtaQuotient.one(N)
        for b in basis:
            h = h * b ** rng.randint(-2, 2)
        if not h.exponents:
            continue
        assert check_modular_function(h).ok, (N, h)
        assert divisor(h).degree() == 0
        count += 1


def test_parse_and_print_round_trip():
    h = EtaQuotient.parse("eta(5)^6 * eta(1)^-6", 5)
    assert h == EtaQuotient.make(5, {5: 6, 1: -6})
    assert str(h) == "eta(1)^-6 * eta(5)^6"
    assert EtaQuotient.parse(str(h), 5) == h
    assert EtaQuotient.parse("eta(25)", 25) == EtaQuotient.make(25, {25: 1})
    assert str(EtaQuotient.one(7)) == "1"
    with pytest.raises(ValueError):
        EtaQuotient.parse("eta(3)^2", 5)
    with pytest.raises(ValueError):
        EtaQuotient.parse("zeta(3)", 3)


def test_product_and_power_arithmetic():
    f = EtaQuotient.make(25, {5: 6, 1: -6})
    g = EtaQuotient.make(25, {25: 1, 1: -1})
    assert dict((f * g).exponents)[1] == -7
    assert dict((f**2).exponents)[5] == 12
    assert f ** (-1) * f == EtaQuotient.one(25)


def test_make_refuses_float_exponents():
    with pytest.raises(InputError, match="exponent 1.5 of eta\\(1\\) is not an integer"):
        EtaQuotient.make(4, {1: 1.5, 2: -1.5})
    h = EtaQuotient.make(4, {1: 2.0, 2: -2.0})
    assert h.exponents == ((1, 2), (2, -2)) and all(type(r) is int for _, r in h.exponents)


def test_make_refuses_fraction_exponents():
    with pytest.raises(InputError, match="not an integer"):
        EtaQuotient.make(4, {1: Fraction(3, 2), 2: Fraction(-3, 2)})
    assert EtaQuotient.make(4, {1: Fraction(4, 2), 2: Fraction(-2)}) == EtaQuotient.make(4, {1: 2, 2: -2})


def test_power_refuses_a_non_integral_exponent():
    h = EtaQuotient.make(4, {1: 2, 2: -2})
    for k in (1.5, Fraction(3, 2), 0.5):
        with pytest.raises(InputError, match="not an integer"):
            h**k
    assert h**2.0 == h**2 == EtaQuotient.make(4, {1: 4, 2: -4})
