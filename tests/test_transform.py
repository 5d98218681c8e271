import random
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest

from cuspidal import transform
from cuspidal.curve import Level, level
from cuspidal.errors import ScopeError
from cuspidal.eta import EtaQuotient, order_at_cusp, pq_generators, prime_power_generators
from cuspidal.linalg import QmodZ, factorize
from cuspidal.transform import (
    CuspExpansion,
    LeadingCoeff,
    SigmaMatrix,
    _c_valuations,
    _eta_exact,
    _eta_factor_count,
    _eta_product,
    _inverse_sqrt,
    _oracle_point,
    _to_fundamental_domain,
    _upper_triangularize,
    _valuation,
    cusp_expansion,
    eta_multiplier,
    eta_numeric,
    jacobi_symbol,
    numeric_leading_coefficient,
    pq_leading_coefficients,
    pq_sigma_matrix,
    sigma_matrix,
    suggested_height,
)
from cuspidal.verify import agrees_with_oracle
from test_linalg import sorted_divisors


def test_jacobi_examples():
    assert jacobi_symbol(1, 1) == 1
    assert jacobi_symbol(3, 7) == -1
    assert jacobi_symbol(2, 15) == 1
    assert jacobi_symbol(0, 3) == 0
    assert jacobi_symbol(-1, 5) == 1
    with pytest.raises(ValueError):
        jacobi_symbol(3, 4)
    with pytest.raises(ValueError):
        jacobi_symbol(3, -5)


def test_jacobi_matches_euler_criterion_for_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert jacobi_symbol(a, p) == expected


def test_eta_multiplier_examples():
    assert eta_multiplier(1, 1, 0, 1) == QmodZ.of(1, 24)
    assert eta_multiplier(0, -1, 1, 0) == QmodZ.of(0)
    with pytest.raises(ValueError):
        eta_multiplier(1, 1, 1, 1)


def test_eta_multiplier_is_24th_root():
    rng = random.Random(2718)
    for _ in range(1000):
        a, b, c, d = _random_sl2(rng)
        phase = eta_multiplier(a, b, c, d)
        assert 24 % phase.value.denominator == 0


def _egcd(d, minus_c):
    """(a, b) with a d - b c = 1, for coprime c and d."""

    def egcd(x, y):
        if y == 0:
            return (1, 0, x)
        u, v, g = egcd(y, x % y)
        return (v, u - (x // y) * v, g)

    u, v, g = egcd(d, minus_c)
    return u * g, v * g


def _random_sl2(rng, bound=40):
    while True:
        c = rng.randint(-bound, bound)
        d = rng.randint(-bound, bound)
        if gcd(c, d) == 1:
            break

    a, b = _egcd(d, -c)
    t = rng.randint(-4, 4)
    a, b = a + t * c, b + t * d
    assert a * d - b * c == 1
    return a, b, c, d


def reference_eta_multiplier(a, b, c, d):
    """Weber's formula with one Fraction per term, as the program computed
    it before the integer multiplier."""
    if a * d - b * c != 1:
        raise ValueError("matrix is not unimodular")
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        return QmodZ.of(b, 24)
    if c % 2 == 1:
        phase = Fraction(1 - c, 8) + Fraction(b * d * (1 - c * c) + c * (a + d), 24)
        if jacobi_symbol(d, c) == -1:
            phase += Fraction(1, 2)
        return QmodZ.of(phase)
    if d % 2 == 1:
        phase = Fraction(a * c * (1 - d * d) + d * (b - c + 3), 24)
        if jacobi_symbol(c, abs(d)) == -1:
            phase += Fraction(1, 2)
        return QmodZ.of(phase)
    raise AssertionError("c and d cannot both be even in SL2(Z)")


def reference_cusp_expansion(h, sigma):
    """The per-factor Fraction and QmodZ accumulation that cusp_expansion
    used before it summed over one denominator."""
    phase = Fraction(0)
    half = {}
    order = Fraction(0)
    gap = None
    for delta, r in h.exponents:
        gamma, a, b, c = _upper_triangularize(delta * sigma.a, delta * sigma.b, sigma.c, sigma.d)
        if gamma[2] == 0:
            phase += r * Fraction(gamma[0] * gamma[1], 24)
        else:
            phase += r * reference_eta_multiplier(*gamma).value
            for prime, e in factorize(c).items():
                half[prime] = half.get(prime, 0) - r * e
        phase += r * Fraction(b, 24 * c)
        order += r * Fraction(a, 24 * c)
        step = Fraction(a, c)
        gap = step if gap is None else min(gap, step)
    if gap is None:
        gap = Fraction(1)
    return CuspExpansion(leading=LeadingCoeff.make(phase, half), order=order, gap=gap)


def test_eta_multiplier_matches_fraction_reference():
    checked = 0
    for c in range(-40, 41):
        for d in range(-40, 41):
            if gcd(c, d) != 1:
                continue
            u, v = _egcd(d, -c)
            for t in range(-2, 3):
                a, b = u + t * c, v + t * d
                assert eta_multiplier(a, b, c, d) == reference_eta_multiplier(a, b, c, d), (a, b, c, d)
                checked += 1
    assert checked == 5 * 3920  # coprime pairs (c, d) with |c|, |d| <= 40


def test_upper_triangularize_gives_the_unique_normal_form():
    # with A, C > 0 and 0 <= B < C the factor gamma in SL2(Z) is unique, so
    # checking these conditions pins down the output
    rng = random.Random(1979)
    checked = 0
    while checked < 2000:
        m11, m12, m21, m22 = (rng.randint(-60, 60) for _ in range(4))
        if rng.random() < 0.1:
            m21 = 0
        if m11 * m22 - m12 * m21 <= 0:
            continue
        (g11, g12, g21, g22), a, b, c = _upper_triangularize(m11, m12, m21, m22)
        assert g11 * g22 - g12 * g21 == 1
        assert a > 0 and c > 0 and 0 <= b < c
        assert (g11 * a, g11 * b + g12 * c, g21 * a, g21 * b + g22 * c) == (m11, m12, m21, m22)
        checked += 1


def expansion_cases():
    """(h, sigma) pairs: the p^n generators at every sigma_m, the pq generators
    at the four cusps of six pairs, and 2000 seeded random weight-zero
    quotients of level N <= 3000 at random sigma of positive determinant."""
    cases = []
    for p in (5, 7, 13, 23, 47, 257):
        for n in range(1, 7):
            sigmas = [sigma_matrix(p, n, m) for m in range(n + 1)]
            cases += [(h, sigma) for h in prime_power_generators(p, n) for sigma in sigmas]
    for p, q in ((13, 37), (13, 61), (37, 61), (13, 73), (13, 97), (13, 1093)):
        sigmas = [pq_sigma_matrix(p, q, level) for level in (1, p, q, p * q)]
        cases += [(h, sigma) for h in pq_generators(p, q) for sigma in sigmas]
    fixed = len(cases)
    assert fixed == 6 * sum(n * (n + 1) for n in range(1, 7)) + 6 * 3 * 4
    rng = random.Random(2770)
    while len(cases) < fixed + 2000:
        N = rng.randint(2, 3000)
        deltas = sorted_divisors(N)
        chosen = rng.sample(deltas, min(rng.randint(2, 5), len(deltas)))
        exponents = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in chosen[1:]]
        sigma = [rng.randint(-40, 40) for _ in range(4)]
        if sum(exponents) == 0 or sigma[0] * sigma[3] - sigma[1] * sigma[2] <= 0:
            continue
        cases.append((EtaQuotient.make(N, dict(zip(chosen, [-sum(exponents), *exponents]))), SigmaMatrix(*sigma)))
    return cases


def test_cusp_expansion_matches_fraction_reference():
    # for a general sigma the part of c prime to N is left unfactored because
    # it cancels (_c_valuations); the reference factors c in full, so a
    # foreign prime that failed to cancel would show
    for h, sigma in expansion_cases():
        got, expected = cusp_expansion(h, sigma), reference_cusp_expansion(h, sigma)
        assert (got.leading, got.order, got.gap) == (expected.leading, expected.order, expected.gap), (h, sigma)


def reference_c_valuations(delta, sigma, primes):
    """([v_l(c) for l in primes], c's part prime to them) for the factor
    eta(delta sigma z) with c from `_upper_triangularize`, by dividing c by
    each prime, as cusp expansions did before `_c_valuations`; None for a
    factor without a square-root part."""
    gamma, _, _, c = _upper_triangularize(delta * sigma.a, delta * sigma.b, sigma.c, sigma.d)
    if gamma[2] == 0:
        return None
    valuations = []
    for prime in primes:
        v, c = reference_valuation(c, prime)
        valuations.append(v)
    return valuations, c


def test_c_valuations_match_the_division_reference():
    counts = {"sigma.a = 0": 0, "sigma.c = 0": 0}
    for h, sigma in expansion_cases():
        primes = level(h.N).primes
        expected = [reference_c_valuations(delta, sigma, primes) for delta, _ in h.exponents]
        if not sigma.c:
            # no factor has a square-root part, and there is nothing to read
            assert expected == [None] * len(expected)
            with pytest.raises(AssertionError, match="square-root part"):
                _c_valuations(sigma, [(ell, [0]) for ell in primes])
            counts["sigma.c = 0"] += 1
            continue
        counts["sigma.a = 0"] += sigma.a == 0
        ks = [(ell, [reference_valuation(delta, ell)[0] for delta, _ in h.exponents]) for ell in primes]
        rows, rest = _c_valuations(sigma, ks)
        # one row per prime, one entry per factor; c's part prime to N is the
        # same for every factor
        assert [list(column) for column in zip(*rows)] == [v for v, _ in expected], (h, sigma)
        assert [r for _, r in expected] == [rest] * len(expected), (h, sigma)
    assert counts == {"sigma.a = 0": 25, "sigma.c = 0": 20}, counts


def test_cusp_expansion_refuses_primes_that_leave_a_varying_part():
    # the record of 13 has only part of the primes of N = 481: c's part prime
    # to 13 would take the powers of 37 in c, which vary with delta at the
    # cusps 1 and 13, so a record of another level is refused at every cusp
    for m in (1, 13, 37, 481):
        sigma = pq_sigma_matrix(13, 37, m)
        for h in pq_generators(13, 37):
            with pytest.raises(AssertionError, match="not that of h"):
                cusp_expansion(h, sigma, Level.of({13: 1}))
            assert cusp_expansion(h, sigma, Level.of({13: 1, 37: 1})) == cusp_expansion(h, sigma)


def test_prime_power_valuations_match_the_eta_factors():
    def reference(p, n, sigma):
        return [reference_c_valuations(p**k, sigma, (p,)) for k in range(n + 1)]

    def valuations(p, n, sigma):
        (row,), rest = _c_valuations(sigma, [(p, range(n + 1))])
        return [([v], rest) for v in row]

    for p in (5, 7, 13, 257):
        for n in range(1, 13):
            for m in range(n + 1):
                sigma = sigma_matrix(p, n, m)
                assert valuations(p, n, sigma) == reference(p, n, sigma), (p, n, m)
    # sigma.a = 0, where gcd(0, sigma.c) = |sigma.c|; a prime outside p in
    # det(sigma) that gcd(a', c') cancels
    for sigma in (SigmaMatrix(0, -1, 5**3, 5), SigmaMatrix(3, 0, 3 * 5**2, 1), SigmaMatrix(-6 * 5, -1, 3 * 5**4, 0)):
        assert valuations(5, 8, sigma) == reference(5, 8, sigma), sigma
    # a prime outside p in det(sigma) that does not cancel: c's part prime to
    # p is 2 for every k, which delta_matrix refuses
    for sigma in (SigmaMatrix(2, 0, 5**2, 1), SigmaMatrix(0, -2, 5**3, 7)):
        assert valuations(5, 8, sigma) == reference(5, 8, sigma), sigma
        assert {rest for _, rest in valuations(5, 8, sigma)} == {2}, sigma


def test_eta_transformation_identity_numeric():
    # eta(gamma tau) = e(phase) sqrt((c tau + d)/i) eta(tau), principal branch,
    # on the sign-canonical representative
    rng = random.Random(314159)
    with mp.workdps(40):
        checked = 0
        while checked < 100:
            a, b, c, d = _random_sl2(rng)
            if c < 0 or (c == 0 and d < 0):
                a, b, c, d = -a, -b, -c, -d
            if c == 0:
                continue
            tau = mp.mpc(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.5))
            lhs = eta_numeric((a * tau + b) / (c * tau + d))
            phase = eta_multiplier(a, b, c, d)
            eps = mp.e ** (2j * mp.pi * mp.mpf(phase.value.numerator) / phase.value.denominator)
            rhs = eps * mp.sqrt((c * tau + d) / 1j) * eta_numeric(tau)
            assert abs(lhs - rhs) / abs(lhs) < 1e-10
            checked += 1


def test_oracle_never_uses_the_multiplier(monkeypatch):
    # the oracle certifies the exact values, which come from Weber's
    # multiplier, so it must reach eta(z) without it
    p, n = 5, 6
    cases = [(h, sigma_matrix(p, n, m)) for h in prime_power_generators(p, n) for m in range(n + 1)]
    expansions = [cusp_expansion(h, sigma) for h, sigma in cases]

    def forbidden(*args):
        raise AssertionError("the oracle used the exact transformation law")

    for name in ("_multiplier24", "eta_multiplier", "_upper_triangularize"):
        monkeypatch.setattr(transform, name, forbidden)
    for (h, sigma), exp in zip(cases, expansions):
        numeric = numeric_leading_coefficient(h, sigma, exp)
        assert agrees_with_oracle(exp.leading.as_complex(), numeric.value), (h, sigma)


def test_eta_numeric_value_at_i():
    with mp.workdps(30):
        value = eta_numeric(mp.mpc(0, 1))
        # Gamma(1/4) / (2 pi^(3/4))
        expected = mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf(0.75))
        assert abs(value - expected) < 1e-20
        assert abs(value - 0.7682254) < 1e-6


def _eta_tail_bound(qabs, k):
    """Bound on |prod_(j > k) (1 - q^j) - 1| for |q| = qabs <= 1/2: the
    relative error of the q-product of eta stopped after k factors."""
    return qabs ** (k + 1) / (1 - qabs) ** 2


def exact(x):
    """The mpf x as a Fraction, from its unsigned mantissa and exponent."""
    man, exp = x.man_exp
    return Fraction(-man if x < 0 else man) * Fraction(2) ** exp


def integers(z):
    """(X, Y, S) with the mpc z = (X + iY)/S exactly."""
    x, y = exact(mp.re(z)), exact(mp.im(z))
    S = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    return int(x * S), int(y * S), S


def _full_product_eta(z):
    """Reference: the 200-factor q-product after the same reduction."""
    w, x, (A, B, E) = _to_fundamental_domain(*integers(z))
    q = mp.e ** (2j * mp.pi * w)
    product = mp.mpc(1)
    for k in range(1, 201):
        product *= 1 - q**k
    return mp.e ** (mp.pi * 1j * x) * product * mp.mpc(mp.ldexp(A, E), mp.ldexp(B, E))


def _stopping_rule_points():
    rho = mp.e ** (2j * mp.pi / 3)
    tau = mp.mpc("0.3", "1.1")
    # (8 tau + 3) / (13 tau + 5) lies near the real axis and needs several
    # inversions to come back into the fundamental domain
    return [rho, rho + 1, mp.mpc(0, 1), (8 * tau + 3) / (13 * tau + 5)]


@pytest.mark.parametrize("dps", [50, 40])
def test_eta_numeric_stops_at_working_precision(dps):
    for z in _stopping_rule_points():
        with mp.workdps(80):
            z = mp.mpc(z)
            reference = _full_product_eta(z)
        with mp.workdps(dps):
            value = eta_numeric(z)
            w, _, _ = _to_fundamental_domain(*integers(z))
            k = _eta_factor_count(mp.im(w))
            assert k <= 25
            qabs = mp.e ** (-2 * mp.pi * mp.im(w))
            assert _eta_tail_bound(qabs, k) < mp.mpf(2) ** -(mp.mp.prec + 16)
        # 1e-45 at 50 digits; 40-digit arithmetic itself only reaches ~1e-40
        assert abs(value - reference) / abs(reference) < mp.mpf(10) ** -(dps - 5), (dps, z)


def mpc_to_fundamental_domain(z):
    """Reference reduction: the phase of every shift and the square root of
    every inversion multiplied into the factor in mpc arithmetic."""
    factor = mp.mpc(1)
    while True:
        shift = mp.floor(mp.re(z) + mp.mpf("0.5"))
        z -= shift
        factor *= mp.e ** (mp.pi * 1j * shift / 12)
        if abs(z) >= 1:
            return factor, z
        z = -1 / z
        factor *= mp.sqrt(z / 1j)


def mpc_eta_product(q, count):
    """Reference q-product: prod_(j=1..count) (1 - q^j) as an mpc loop."""
    product = mp.mpc(1)
    power = mp.mpc(1)
    for _ in range(count):
        power *= q
        product *= 1 - power
    return product


def mpc_eta_numeric(z):
    """Reference eta_numeric: mpc reduction, e^x exponentials and the mpc loop."""
    factor, z = mpc_to_fundamental_domain(mp.mpc(z))
    product = mpc_eta_product(mp.e ** (2j * mp.pi * z), _eta_factor_count(mp.im(z)))
    return factor * mp.e ** (mp.pi * 1j * z / 12) * product


@pytest.mark.parametrize("dps", [15, 40, 50, 100])
def test_eta_numeric_matches_the_mpc_reference(dps):
    rng = random.Random(1618)
    # a quarter of the random points lie below Im z = 1e-6 and take many
    # inversions to reduce
    points = _stopping_rule_points() + [
        mp.mpc(rng.uniform(-3, 3), 10 ** rng.uniform(-9, -6) if k % 4 == 0 else rng.uniform(1e-3, 3))
        for k in range(200)
    ]
    for z in points:
        with mp.workdps(dps):
            prec = mp.mp.prec
            z = mp.mpc(z)
            value = eta_numeric(z)
            w, _, _ = _to_fundamental_domain(*integers(z))
            q, count, bits = mp.expjpi(2 * w), _eta_factor_count(mp.im(w)), prec + 32
            re, im = _eta_product(int(mp.ldexp(q.real, bits)), int(mp.ldexp(q.imag, bits)), count, bits)
        # w is rounded once, yet lies exactly in the closed fundamental domain
        assert abs(2 * exact(w.real)) <= 1 and exact(w.real) ** 2 + exact(w.imag) ** 2 >= 1, (dps, z)
        with mp.workprec(prec + 64):
            # the fixed-point product against the mpc loop run 64 bits finer
            reference = mpc_eta_product(q, count)
            product = mp.mpc(mp.ldexp(re, -bits), mp.ldexp(im, -bits))
            assert abs(product - reference) <= mp.ldexp(abs(reference), -(prec + 8)), (dps, z)
            # w and the value against the mpc reduction and value run 64 bits
            # finer, which round at every step but keep 64 spare bits
            expected_w = mpc_to_fundamental_domain(z)[1]
            assert abs(w - expected_w) <= mp.ldexp(abs(expected_w), -(prec - 4)), (dps, z)
            expected = mpc_eta_numeric(z)
            assert abs(value - expected) <= mp.ldexp(abs(expected), -(prec - 4)), (dps, z)


def test_eta_exact_matches_the_mpc_reference_at_rational_points():
    # the oracle's points delta * sigma(8i), whose denominators are not powers
    # of two, and random rationals; the reference runs at the point rounded
    # 256 bits finer, which covers the digits the point's rounding costs it
    points = [_oracle_point(delta, sigma_matrix(5, n, m), 8)
              for n in range(1, 8) for m in range(n + 1) for delta in (5**k for k in range(n + 1))]
    points += [_oracle_point(delta, pq_sigma_matrix(13, 37, level), 8)
               for level in (1, 13, 37, 481) for delta in (1, 13, 37, 481)]
    rng = random.Random(5)
    points += [(rng.randint(-10**12, 10**12), rng.randint(1, 10**6), rng.randint(1, 10**9)) for _ in range(50)]
    for X, Y, S in points:
        with mp.workdps(50):
            prec = mp.mp.prec
            value = _eta_exact(X, Y, S)
        with mp.workprec(prec + 256):
            expected = mpc_eta_numeric(mp.mpc(mp.fdiv(X, S), mp.fdiv(Y, S)))
            # 16 units of 2^-prec and the stop of the product
            assert abs(value - expected) <= mp.ldexp(abs(expected), 4 - prec) * (1 + mp.ldexp(1, -20)), (X, Y, S)


def factorizations(monkeypatch, argvs) -> list:
    """The numbers that `factorize` is called on while `cuspidal.cli.main`
    runs each argv, starting from an empty cache of level records."""
    import sys

    from cuspidal import curve
    from cuspidal.cli import main

    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("cuspidal")]:
        if hasattr(module, "factorize"):
            monkeypatch.setattr(module, "factorize", lambda n, f=module.factorize: calls.append(n) or f(n))
    curve.level.cache_clear()
    for argv in argvs:
        assert main([*argv, "--json"]) == 0, argv
    return calls


def test_pq_path_factors_nothing(monkeypatch, capsys):
    # the pq path has the primes of N from its inputs, and the part of
    # det(sigma) prime to N cancels (_c_valuations)
    assert factorizations(monkeypatch, [["pq", "--p", "13", "--q", "37"], ["torsion", "--pq", "13", "37"]]) == []
    capsys.readouterr()
    assert not hasattr(transform, "factorize")


def test_prime_power_paths_factor_nothing(monkeypatch, capsys):
    # each of these p^n commands builds the level record from {p: n}
    argvs = [[command, "--p", "5", "--n", "3"] for command in ("class-group", "delta", "leading-coeffs", "matrices")]
    assert factorizations(monkeypatch, argvs) == []
    capsys.readouterr()


def test_inverse_sqrt_is_the_principal_branch():
    rng = random.Random(2718)
    # both half-planes, both axes (the negative real axis takes +i sqrt|u|),
    # and sizes far from the target precision on both sides
    cases = [(k * u, k * v) for u, v in ((5, 0), (-5, 0), (0, 3), (0, -3), (-7, 1), (-7, -1)) for k in (1, 2, 8)]
    cases += [(rng.randint(-2**k, 2**k), rng.randint(-2**k, 2**k)) for k in (1, 40, 300, 700) for _ in range(50)]
    for u, v in cases:
        if u == v == 0:
            continue
        A, B, E = _inverse_sqrt(u, v, 100)
        with mp.workprec(800):
            expected = 1 / mp.sqrt(mp.mpc(u, v))
            value = mp.mpc(mp.ldexp(A, E), mp.ldexp(B, E))
            assert abs(value - expected) <= mp.ldexp(abs(expected), -100), (u, v)


def test_sigma_matrix_examples():
    assert sigma_matrix(5, 2, 1) == SigmaMatrix(1, 0, 5, 1)
    assert sigma_matrix(5, 2, 0) == SigmaMatrix(-25, -1, 25, 0)
    with pytest.raises(ScopeError):
        sigma_matrix(5, 2, 3)


def test_sigma_matrix_maps_infinity_to_cusp():
    for p in (5, 13):
        for n in range(1, 6):
            for m in range(n + 1):
                sig = sigma_matrix(p, n, m)
                target = Fraction(1, p**m) if 2 * m >= n else Fraction(-1, p**m)
                assert Fraction(sig.a, sig.c) == target
                assert sig.det in (1, p**n)


def test_pq_sigma_matrix():
    p, q = 13, 37
    for m in (1, p, q, p * q):
        sig = pq_sigma_matrix(p, q, m)
        assert Fraction(sig.a, sig.c) == Fraction(1, m)
        assert sig.det > 0
        # sigma normalizes Gamma0(pq): sigma T sigma^-1 must have determinant 1
        # and integer entries scaled by det; checked via the defining relation
        assert sig.c % (p * q) == 0
    with pytest.raises(ScopeError):
        pq_sigma_matrix(13, 37, 7)
    # d * comp == 1 mod m with the least positive d, as a search over 1..m finds it
    for p, q in ((13, 37), (13, 61), (37, 61), (13, 73), (13, 97), (13, 1093), (37, 73), (61, 97)):
        for m in (1, p, q, p * q):
            comp = p * q // m
            d = next(dd for dd in range(1, m + 1) if dd * comp % m == 1 % m)
            assert pq_sigma_matrix(p, q, m) == SigmaMatrix(comp, -((d * comp - 1) // m), p * q, d * comp)


def expected_generator_lc(p, n, gen_index, m):
    """Closed-form leading coefficients of f (gen_index -1) and g_k
    (gen_index k >= 0) at the level-p^m cusp.

    Conventions: sqrt(p*) = e((p-1)/8) sqrt(p) and a*b = (p^2-1)/24. The
    f-entry at the cusps -1/p^m (1 <= m < n/2) is e(+a/p^m); see the
    numeric certification in this test module.
    """
    ab = (p * p - 1) // 24
    a = (p - 1) // gcd(p - 1, 12)
    if 2 * m >= n:
        if gen_index == -1:
            return LeadingCoeff.one()
        k = gen_index
        if k <= m - 2:
            return LeadingCoeff.one()
        if k == m - 1:
            phase = Fraction(p - 1, 4) - Fraction(ab, p) - Fraction(p - 1, 8)
            return LeadingCoeff.make(phase, {p: -1})
        return LeadingCoeff.make(Fraction(-ab, p ** (k + 2 - m)), {p: -2})
    if gen_index == -1:
        if m == 0:
            return LeadingCoeff.make(0, {p: -24 // gcd(p - 1, 12)})
        return LeadingCoeff.make(Fraction(a, p**m), {})
    k = gen_index
    if k >= m:
        return LeadingCoeff.make(0, {p: -2})
    if k == m - 1:
        phase = Fraction(ab, p) - Fraction(p - 1, 8)
        return LeadingCoeff.make(phase, {p: -1})
    return LeadingCoeff.make(Fraction(ab, p ** (m - k)), {})


def test_leading_coefficients_match_closed_form_tables():
    for p in (5, 13):
        for n in (1, 2, 3):
            gens = prime_power_generators(p, n)
            for idx, h in enumerate(gens):
                gen_index = -1 if idx == 0 else idx - 1
                for m in range(n + 1):
                    got = cusp_expansion(h, sigma_matrix(p, n, m)).leading
                    expected = expected_generator_lc(p, n, gen_index, m)
                    assert got == expected, (p, n, gen_index, m)


def test_leading_coefficients_numeric_certification():
    for p in (5, 13):
        for n in (1, 2, 3):
            gens = prime_power_generators(p, n)
            for h in gens:
                for m in range(n + 1):
                    sigma = sigma_matrix(p, n, m)
                    exp = cusp_expansion(h, sigma)
                    numeric = numeric_leading_coefficient(h, sigma, exp, height=8)
                    assert agrees_with_oracle(exp.leading.as_complex(), numeric.value), (p, n, h, m)
                    assert numeric.error_estimate < 1e-8


def test_oracle_takes_a_gap_past_the_float_range_as_no_next_term():
    """At 5^445 the cusp expansions at the cusps of levels 1 and 5 have gaps
    of about 2^1030, past the largest float; the next q-power is then below
    exp's underflow, so the error estimate counts it as 0.0."""
    p, n = 5, 445
    h = prime_power_generators(p, n)[0]
    for m in (0, 1):
        sigma = sigma_matrix(p, n, m)
        exp = cusp_expansion(h, sigma)
        assert exp.gap > 2**1000
        numeric = numeric_leading_coefficient(h, sigma, exp, height=8)
        assert agrees_with_oracle(exp.leading.as_complex(), numeric.value), m
        assert numeric.error_estimate < 1e-8


def test_cusp_expansion_order_matches_eta_module():
    for p, n in [(5, 2), (5, 3), (13, 2), (7, 4)]:
        gens = prime_power_generators(p, n)
        for h in gens:
            for m in range(n + 1):
                exp = cusp_expansion(h, sigma_matrix(p, n, m))
                assert exp.order == order_at_cusp(h, p**m)


def lc_product(*factors):
    """The product of x^k over the (LeadingCoeff x, int k) pairs: phases and
    half exponents add."""
    half = {}
    for x, k in factors:
        for prime, v in x.half_exponents:
            half[prime] = half.get(prime, 0) + k * v
    return LeadingCoeff.make(sum(k * x.phase.value for x, k in factors), half)


def test_leading_coefficient_multiplicative():
    p, n = 5, 3
    f, g0, g1 = prime_power_generators(p, n)

    def leading_coefficient(h, m):
        return cusp_expansion(h, sigma_matrix(p, n, m)).leading

    for m in range(n + 1):
        lhs = leading_coefficient(f * g0, m)
        assert lhs == lc_product((leading_coefficient(f, m), 1), (leading_coefficient(g0, m), 1))
        lhs = leading_coefficient(g0 * g1**2, m)
        assert lhs == lc_product((leading_coefficient(g0, m), 1), (leading_coefficient(g1, m), 2))


def test_leading_coeff_value_semantics():
    x = LeadingCoeff.make(Fraction(1, 8), {5: 1})
    y = LeadingCoeff.make(Fraction(7, 8), {5: -1})
    assert lc_product((x, 1), (y, 1)) == LeadingCoeff.one()
    assert lc_product((x, -1)) == y
    assert lc_product((x, 2)) == LeadingCoeff.make(Fraction(1, 4), {5: 2})
    assert str(x) == "e(1/8)*5^(1/2)"
    assert str(LeadingCoeff.make(0, {5: -6})) == "5^(-3)"
    assert str(LeadingCoeff.one()) == "1"
    value = complex(LeadingCoeff.make(Fraction(1, 2), {2: 2}).as_complex())
    assert abs(value - (-2)) < 1e-12


def test_pq_leading_coefficient_table():
    p, q = 13, 37
    table = pq_leading_coefficients(p, q)
    expected = {
        "f1": {1: {p: 2}, p: {}, q: {p: 2}, p * q: {}},
        "f2": {1: {q: 2}, p: {q: 2}, q: {}, p * q: {}},
        "f3": {1: {}, p: {}, q: {}, p * q: {}},
    }
    for name, row in expected.items():
        for level, mags in row.items():
            assert dict(table[name][level].leading.half_exponents) == mags, (name, level)


def test_pq_leading_coefficients_numeric():
    p, q = 13, 37
    gens = dict(zip(("f1", "f2", "f3"), pq_generators(p, q)))
    table = pq_leading_coefficients(p, q)
    for name, h in gens.items():
        for level in (1, p, q, p * q):
            sigma = pq_sigma_matrix(p, q, level)
            exp = table[name][level]
            assert exp == cusp_expansion(h, sigma)
            numeric = numeric_leading_coefficient(h, sigma, exp, height=suggested_height(exp))
            symbolic = exp.leading.as_complex()
            assert agrees_with_oracle(abs(symbolic), abs(numeric.value)), (name, level)


def test_shared_eta_values_equal_fresh_ones():
    cases = [(h, sigma_matrix(5, 4, m)) for h in prime_power_generators(5, 4) for m in range(5)]
    cases += [(h, pq_sigma_matrix(13, 37, level)) for h in pq_generators(13, 37) for level in (1, 13, 37, 481)]
    etas = {}
    for h, sigma in cases:
        exp = cusp_expansion(h, sigma)
        height = suggested_height(exp)
        shared = numeric_leading_coefficient(h, sigma, exp, height=height, etas=etas)
        assert shared == numeric_leading_coefficient(h, sigma, exp, height=height), (h, sigma)
    # one eta value per point delta * sigma(i*height), whichever quotient asked first
    assert set(etas) == {_oracle_point(delta, sigma, suggested_height(cusp_expansion(h, sigma)))
                         for h, sigma in cases for delta, _ in h.exponents}


def test_numeric_oracle_reports_error_estimate():
    h = EtaQuotient.make(25, {5: 6, 1: -6})
    sigma = sigma_matrix(5, 2, 1)
    exp = cusp_expansion(h, sigma)
    result = numeric_leading_coefficient(h, sigma, exp, height=8)
    assert result.error_estimate < 1e-8
    coarse = numeric_leading_coefficient(h, sigma, exp, height=4)
    assert coarse.error_estimate > result.error_estimate
    # the estimate covers the truncation of each eta factor at the number of
    # factors the oracle actually multiplied
    with mp.workdps(50):
        truncation = mp.mpf(0)
        for delta, r in h.exponents:
            z, _, _ = _to_fundamental_domain(*_oracle_point(delta, sigma, 8))
            k = _eta_factor_count(mp.im(z))
            truncation += abs(r) * _eta_tail_bound(mp.e ** (-2 * mp.pi * mp.im(z)), k)
    assert result.error_estimate >= abs(result.value) * truncation


def assert_estimate_bounds_the_error(h, sigma, height, etas=None):
    """The oracle's error estimate covers its distance to the exact leading
    coefficient evaluated at 50 digits, so the rounding of the oracle's value
    to a complex counts as error."""
    exp = cusp_expansion(h, sigma)
    numeric = numeric_leading_coefficient(h, sigma, exp, height=height, etas=etas)
    with mp.workdps(50):
        phase = exp.leading.phase.value
        exact = mp.e ** (2j * mp.pi * mp.mpf(phase.numerator) / phase.denominator)
        for prime, v in exp.leading.half_exponents:
            exact *= mp.mpf(prime) ** (mp.mpf(v) / 2)
        assert abs(exact - mp.mpc(numeric.value)) <= numeric.error_estimate, (h, sigma)


def test_numeric_oracle_error_estimate_bounds_the_error():
    cases = [(h, sigma_matrix(p, 2, m)) for p in (5, 23) for h in prime_power_generators(p, 2) for m in range(3)]
    p, q = 13, 37
    cases += [(h, pq_sigma_matrix(p, q, level)) for h in pq_generators(p, q) for level in (1, p, q, p * q)]
    for h, sigma in cases:
        assert_estimate_bounds_the_error(h, sigma, suggested_height(cusp_expansion(h, sigma)))


@pytest.mark.parametrize("n", [10, 20, 30, 40])
def test_numeric_oracle_error_estimate_bounds_the_error_at_large_levels(n):
    # the points delta * sigma(8i) come within 5^-(2n) of the real axis; at
    # 50 digits the oracle lost all its digits by n = 40, so the estimate
    # must also cover the precision that the rounding of the point costs
    etas = {}
    for h in prime_power_generators(5, n):
        for m in range(n + 1):
            assert_estimate_bounds_the_error(h, sigma_matrix(5, n, m), 8, etas)


def test_oracle_gate_is_relative():
    # f = (eta(23)/eta(1))^12 has leading coefficient 23^-6 ~ 6.8e-9 at the
    # cusp 0 of X0(23); the wrong value 23^-7 is within 1e-8 of the oracle
    h = prime_power_generators(23, 1)[0]
    sigma = sigma_matrix(23, 1, 0)
    exp = cusp_expansion(h, sigma)
    assert exp.leading == LeadingCoeff.make(0, {23: -12})
    numeric = numeric_leading_coefficient(h, sigma, exp, height=8).value
    assert agrees_with_oracle(exp.leading.as_complex(), numeric)
    wrong = LeadingCoeff.make(0, {23: -14}).as_complex()
    assert abs(wrong - numeric) < 1e-8  # the absolute gate alone accepts it
    assert not agrees_with_oracle(wrong, numeric)


def test_cusp_expansion_requires_weight_zero():
    with pytest.raises(ValueError):
        cusp_expansion(EtaQuotient.make(5, {5: 1}), sigma_matrix(5, 1, 0))


def test_numeric_oracle_preconditions():
    h = EtaQuotient.make(5, {5: 6, 1: -6})
    sigma = sigma_matrix(5, 1, 1)
    exp = cusp_expansion(h, sigma)
    with pytest.raises(ValueError):
        numeric_leading_coefficient(h, sigma, exp, height=2)
    with pytest.raises(ValueError):
        numeric_leading_coefficient(h, sigma, exp, height=8.5)


def test_sigma_matrix_rejects_nonpositive_determinant():
    with pytest.raises(ValueError):
        SigmaMatrix(1, 0, 0, -1)
    with pytest.raises(ValueError):
        SigmaMatrix(0, 1, 1, 0)


def reference_valuation(n, p):
    """(v, n // p**v) by one division per unit of the exponent v."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def test_valuation_matches_the_one_division_per_unit_reference():
    rng = random.Random(24)
    for _ in range(400):
        primes = rng.sample((2, 3, 5, 7, 11, 13, 37, 1000000007), rng.randint(1, 4))
        exponents = [rng.choice((0, 1, 2, 3, rng.randint(0, 400))) for _ in primes]
        c = 1
        for prime, v in zip(primes, exponents):
            c *= prime**v
        for prime, v in zip(primes, exponents):
            assert _valuation(c, prime) == reference_valuation(c, prime) == (v, c // prime**v)
    for v in range(70):
        assert _valuation(-(5**v) * 7, 5) == (v, -7)
