"""Exact leading Fourier coefficients of eta quotients at cusps.

The engine writes each eta factor evaluated along a cusp uniformizer as a
root of unity times a half-integer power of primes, using the classical
transformation law of the eta function under SL2(Z) (Weber's multiplier
formula with Jacobi symbols). Square-root factors sqrt((c*tau+d)/i) from the
weight-1/2 law share a common angle across all factors of a weight-zero
quotient, so they cancel exactly in pairs, leaving only rational square
roots; no branch-cut bookkeeping survives into the result.

A floating-point oracle evaluates the same quantity from the q-product
definition of eta (plus argument reduction to the fundamental domain) and is
used to certify the exact values.
"""

from fractions import Fraction
from math import atan2, exp, gcd, isqrt, lcm, log, log1p, pi

import mpmath as mp

from .curve import Level, level
from .errors import ScopeError
from .eta import EtaQuotient
from .linalg import QmodZ, _egcd, record


class LeadingCoeff(record("LeadingCoeff", "phase half_exponents")):
    """An exact algebraic number zeta * prod p^(v_p / 2): a root of unity
    recorded as a phase in Q/Z together with half-integer prime exponents."""

    __slots__ = ()

    @classmethod
    def make(cls, phase, half_exponents=()) -> "LeadingCoeff":
        if not isinstance(phase, QmodZ):
            phase = QmodZ.of(phase)
        items = tuple(sorted((int(p), int(v)) for p, v in dict(half_exponents).items() if v))
        return cls(phase, items)

    @classmethod
    def one(cls) -> "LeadingCoeff":
        return cls.make(0)

    def half_exponent(self, p) -> int:
        for prime, v in self.half_exponents:
            if prime == p:
                return v
        return 0

    def as_complex(self) -> complex:
        # prod p^(v/2) = sqrt(num / den) with integers num, den
        num = den = 1
        for p, v in self.half_exponents:
            num, den = (num * p**v, den) if v > 0 else (num, den * p**-v)
        phase = self.phase.value
        return complex(mp.expjpi(mp.mpf(2 * phase.numerator) / phase.denominator) * mp.sqrt(mp.fdiv(num, den)))

    def __str__(self):
        parts = []
        if self.phase:
            parts.append(f"e({self.phase.value})")
        for p, v in self.half_exponents:
            if v == 2:
                parts.append(str(p))
            elif v % 2 == 0:
                parts.append(f"{p}^({v // 2})")
            else:
                parts.append(f"{p}^({v}/2)")
        return "*".join(parts) if parts else "1"


class SigmaMatrix(record("SigmaMatrix", "a b c d")):
    """Integer 2x2 matrix of positive determinant mapping infinity to a
    chosen cusp representative; the local uniformizer it induces is
    q = e^(2*pi*i*tau) pulled back along the matrix."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        self = super().__new__(cls, a, b, c, d)
        if self.det <= 0:
            raise ValueError("sigma matrix must have positive determinant")
        return self

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c


def jacobi_symbol(a: int, b: int) -> int:
    """Jacobi symbol (a/b) for odd positive b."""
    if b <= 0 or b % 2 == 0:
        raise ValueError("Jacobi symbol needs an odd positive lower argument")
    a %= b
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def _multiplier24(a: int, b: int, c: int, d: int) -> int:
    """Weber's multiplier formula: the integer m mod 24 with
    eta_multiplier(a, b, c, d) = m/24, on the sign-canonical representative
    (c > 0, or c = 0 and d > 0)."""
    if a * d - b * c != 1:
        raise ValueError("matrix is not unimodular")
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        return b % 24
    if c % 2 == 1:
        m = 3 * (1 - c) + b * d * (1 - c * c) + c * (a + d)
        sign = jacobi_symbol(d, c)
    elif d % 2 == 1:
        m = a * c * (1 - d * d) + d * (b - c + 3)
        sign = jacobi_symbol(c, abs(d))
    else:
        raise AssertionError("c and d cannot both be even in SL2(Z)")
    return (m + 12 * (sign == -1)) % 24


def eta_multiplier(a: int, b: int, c: int, d: int) -> QmodZ:
    """Phase x with eta(gamma tau) = e(x) * sqrt((c tau + d)/i) * eta(tau)
    for gamma in SL2(Z) with c != 0, and eta(tau + b) = e(b/24) eta(tau) for
    c = 0, always using the principal square root.

    The identity with a single constant phase only holds on the sign-
    canonical representative (c > 0, or c = 0 and d > 0), so the input is
    canonicalized first; gamma and -gamma act identically.
    """
    return QmodZ.of(_multiplier24(a, b, c, d), 24)


def sigma_matrix(p: int, n: int, m: int) -> SigmaMatrix:
    """Uniformizing matrix for the level-p^m cusp of X0(p^n): the cusp
    representative is 1/p^m for m >= n/2 and -1/p^m below."""
    if not 0 <= m <= n:
        raise ScopeError(f"cusp index m = {m} out of range 0..{n}")
    if 2 * m >= n:
        return SigmaMatrix(1, 0, p**m, 1)
    return SigmaMatrix(-(p ** (n - m)), -1, p**n, 0)


def pq_sigma_matrix(p: int, q: int, m: int) -> SigmaMatrix:
    """Uniformizing matrix for the level-m cusp of X0(pq), m in {1, p, q, pq},
    normalizing Gamma0(pq) and sending infinity to 1/m."""
    N = p * q
    if m not in (1, p, q, N):
        raise ScopeError(f"{m} is not a cusp level of X0({N})")
    comp = N // m
    d = pow(comp, -1, m) if m > 1 else 1
    b = (d * comp - 1) // m
    return SigmaMatrix(comp, -b, N, d * comp)


def _upper_triangularize(m11, m12, m21, m22):
    """Write an integer matrix of positive determinant as gamma * [[A,B],[0,C]]
    with gamma in SL2(Z), A, C > 0 and 0 <= B < C."""
    det = m11 * m22 - m12 * m21
    assert det > 0
    if m21 == 0:
        s = 1 if m11 > 0 else -1
        a, c = abs(m11), abs(m22)
        k, b = divmod(s * m12, c)
        return (s, s * k, 0, s), a, b, c
    # u*m11 + v*m21 = a: (-v, u) completes the column (m11, m21)/a to det 1
    a, u, v = _egcd(m11, m21)
    g11, g21 = m11 // a, m21 // a
    g12, g22 = -v, u
    c = det // a
    k, b = divmod(g22 * m12 - g12 * m22, c)
    gamma = (g11, g12 + k * g11, g21, g22 + k * g21)
    assert (gamma[0] * a, gamma[0] * b + gamma[1] * c) == (m11, m12)
    assert (gamma[2] * a, gamma[2] * b + gamma[3] * c) == (m21, m22)
    return gamma, a, b, c


class CuspExpansion(record("CuspExpansion", "leading order gap")):
    """Leading data of an eta quotient along a cusp uniformizer: the exact
    leading coefficient, the q-order, and the minimal exponent step of the
    expansion (which controls numeric convergence)."""

    __slots__ = ()


def _c_valuations(sigma: SigmaMatrix, ks) -> tuple:
    """(rows, F) for the factors eta(delta sigma z), sigma.c != 0, with c the
    lower right entry of `_upper_triangularize(delta sigma.a, delta sigma.b,
    sigma.c, sigma.d)`. For each (l, k_list) in ks, a prime l of N and the
    v_l(delta) of some delta | N, rows lists v_l(c) = v_l(delta) + beta -
    min(v_l(delta) + alpha, gamma), where alpha, gamma and beta are v_l of
    sigma.a, sigma.c and det(sigma), read once per sigma; F is c's part
    prime to the primes l.

    Proof: c = delta det(sigma) / gcd(delta sigma.a, sigma.c), and v_l(gcd(x,
    y)) = min(v_l(x), v_l(y)), with alpha = gamma serving for sigma.a = 0 as
    v_l(delta) >= 0. With a', c', D' the parts of sigma.a, sigma.c, det(sigma)
    prime to the l (a' = 0 if sigma.a = 0), c's part prime to them is delta'
    D' / gcd(delta' a', c') for delta's part delta'. When the l are all the
    primes of N, delta' = 1 as delta | N, so F = D' / gcd(a', c') is the same
    for every delta. Every factor has a square root, or none (exactly when
    sigma.c != 0), so F enters a weight-zero quotient as F^(-sum r / 2) = 1."""
    assert sigma.c, "no eta factor has a square-root part where sigma.c = 0"
    a_rest, c_rest, d_rest, rows = sigma.a, sigma.c, sigma.det, []
    for ell, k_list in ks:
        gamma, c_rest = _valuation(c_rest, ell)
        alpha, a_rest = _valuation(a_rest, ell) if a_rest else (gamma, 0)
        beta, d_rest = _valuation(d_rest, ell)
        rows.append([k + beta - min(k + alpha, gamma) for k in k_list])
    return rows, d_rest // gcd(a_rest, c_rest)


def _valuation(n: int, p: int) -> tuple:
    """(v, n // p**v) for the exponent v of p in n != 0, in O(log v)
    divisions: by p, then by p^2, p^4, ... through the recursion."""
    if n % p:
        return 0, n
    v, rest = _valuation(n // p, p * p)
    return (2 * v + 2, rest // p) if rest % p == 0 else (2 * v + 1, rest)


def cusp_expansion(h: EtaQuotient, sigma: SigmaMatrix, lvl: Level = None) -> CuspExpansion:
    """Exact leading coefficient and order of h along the uniformizer of sigma.
    `lvl` is the record of h.N, `level(h.N)` when not given: `_c_valuations`
    reads v_l(c) for its primes l, and c's part prime to N cancels.

    Requires weight zero (the exponents of h must sum to 0) so that the
    square-root factors of the transformation law cancel.
    """
    if sum(r for _, r in h.exponents) != 0:
        raise ValueError("leading coefficients need a weight-zero eta quotient")
    lvl = lvl or level(h.N)
    assert lvl.N == h.N, f"the record of level {lvl.N} is not that of h, of level {h.N}"
    sqrt_balance = 0
    factors = []
    for delta, r in h.exponents:
        # eta(delta sigma z) = eta(gamma w) = e(m/24) sqrt((c_gamma w + d_gamma)/i) eta(w), w = (a z + b)/c, with m
        # from Weber's formula and eta(w) = e(b/(24c)) q^(a/(24c)) (1 + ...); the root, where c_gamma != 0, is
        # sqrt((sigma.c z + sigma.d)/i) / sqrt(c), whose common parts cancel once the weights balance
        gamma, a, b, c = _upper_triangularize(delta * sigma.a, delta * sigma.b, sigma.c, sigma.d)
        if gamma[2]:
            sqrt_balance += r
        factors.append((r, _multiplier24(*gamma), a, b, c))
    assert sqrt_balance == 0, "square-root factors failed to cancel"
    ks = [(ell, [_valuation(d, ell)[0] for d, _ in h.exponents]) for ell in lvl.primes]
    rows = _c_valuations(sigma, ks)[0] if sigma.c else ()  # a square-root part in every factor, or in none
    half = {ell: -sum(r * v for (_, r), v in zip(h.exponents, row)) for ell, row in zip(lvl.primes, rows)}
    # phase, order and gap as integers over the one denominator lcm(c)
    common = lcm(*(c for *_, c in factors))
    phase = sum(r * (m * common + b * (common // c)) for r, m, _, b, c in factors)
    order = sum(r * a * (common // c) for r, _, a, _, c in factors)
    gap = min((a * (common // c) for _, _, a, _, c in factors), default=common)
    denominator = 24 * common
    return CuspExpansion(
        leading=LeadingCoeff.make(QmodZ(Fraction(phase % denominator, denominator)), half),
        order=Fraction(order, denominator),
        gap=Fraction(gap, common),
    )


def pq_leading_coefficients(p: int, q: int) -> dict:
    """Cusp expansions (leading coefficient, order and gap) of the three
    generators f1, f2, f3 on X0(pq) at the four cusps, keyed by generator
    name and cusp level."""
    from .eta import pq_generators

    gens = pq_generators(p, q)
    lvl = Level.of({p: 1, q: 1})
    table = {name: {} for name in ("f1", "f2", "f3")}
    for d in (1, p, q, p * q):
        sigma = pq_sigma_matrix(p, q, d)
        for name, h in zip(table, gens):
            table[name][d] = cusp_expansion(h, sigma, lvl)
    return table


def _to_fundamental_domain(X: int, Y: int, S: int):
    """(w, x, (A, B, E)) with eta(z) = e^(i pi x) (A + iB) 2^E prod_j
    (1 - e(j w)) at z = (X + iY)/S, Y, S > 0: w = gamma(z) for a word
    gamma = (a b; c d) in SL2(Z), in the closed fundamental domain,
    x = (w + phase)/12 and (A + iB) 2^E the principal 1/sqrt(c z + d).

    D = S^2 |c z + d|^2, N = S^2 |a z + b|^2 and R = S^2 Re((a z + b)
    conj(c z + d)) are integers and w = (R + iYS)/D, so every step is exact
    and w is rounded once, away from zero. Only eta(z + 1) = e(1/24) eta(z)
    and eta(-1/z) = sqrt(z/i) eta(z) enter: eta(z) = e(s/24) prod_j
    sqrt(z_j/i) eta(w) for the shifts s and the k points z_j after each
    inversion. z_j = -(c_(j-1) z + d_(j-1))/(c_j z + d_j), so the z_j/i
    telescope to i^k/(c z + d) and the roots to +-e(k/8)/sqrt(c z + d); each
    arg(z_j/i) is in (-pi/2, pi/2), so the sign is the one nearest half their
    sum. x gets log2(Im w) + 8 more bits, which e^(i pi x) loses to the
    rounding of Im x."""
    YS, N, R, D = Y * S, X * X + Y * Y, X * S, S * S
    a, b, c, d = 1, 0, 0, 1
    shifts = inversions = angle = 0
    while True:
        t = (2 * R + D) // (2 * D)
        a, b, N, R, shifts = a - t * c, b - t * d, N - 2 * t * R + t * t * D, R - t * D, shifts + t
        if N >= D:
            break
        # the next point -1/gamma(z) is z_j, with z_j/i = (Y S + iR)/N
        angle, inversions = angle + _atan2(R, YS), inversions + 1
        a, b, c, d, N, R, D = -c, -d, a, b, D, -R, N
    u, v = c * X + d * S, c * Y  # c z + d = (u + iv)/S
    offset = angle / 2 - pi * inversions / 4 + _atan2(v, u) / 2
    turns = round(offset / pi)
    assert abs(offset - turns * pi) < pi / 4, "square-root sign is not clear-cut"
    phase = (shifts + 3 * inversions + 12 * turns) % 24
    w = mp.mpc(mp.fdiv(R, D, rounding="u"), mp.fdiv(YS, D, rounding="u"))
    with mp.workprec(mp.mp.prec + max(YS.bit_length() - D.bit_length(), 0) + 8):
        x = mp.mpc(mp.fdiv(R + phase * D, 12 * D), mp.fdiv(YS, 12 * D))
    # 1/sqrt((u + iv)/S) = S/sqrt(S (u + iv))
    A, B, E = _inverse_sqrt(S * u, S * v, mp.mp.prec + 2 * _ETA_GUARD_BITS)
    return w, x, (S * A, S * B, E)


def _atan2(y: int, x: int) -> float:
    """atan2(y, x) of integers of any size."""
    return atan2(y / (m := max(abs(x), abs(y))), x / m)


def _inverse_sqrt(u: int, v: int, bits: int) -> tuple:
    """(A, B, E), (A + iB) 2^E within 2^-bits of the principal
    1/sqrt(u + iv): with m = |U + iV| > 4^(bits + 4) for U + iV = 4^k (u + iv),
    r = sqrt((m + U)/2) and s = +-sqrt((m - U)/2) give the root to two units,
    and 1/(r + is) = (r - is)/(r^2 + s^2)."""
    k = max(2 * bits + 9 - max(abs(u), abs(v)).bit_length(), 0) // 2
    U, V = u << 2 * k, v << 2 * k
    m = isqrt(U * U + V * V)
    r, s = isqrt((m + U) >> 1), isqrt((m - U) >> 1) * (-1 if V < 0 else 1)
    n = r * r + s * s
    T = n.bit_length() + 4
    return (r << T) // n, (-s << T) // n, k - T


# eta's product stops once its tail bound is below 2^-(prec + this)
_ETA_GUARD_BITS = 16


def _eta_factor_count(y):
    """Number of factors _eta_exact multiplies at Im(w) = y: one more than
    the least K whose tail bound |q|^(K+1)/(1 - |q|)^2 on
    |prod_(j > K) (1 - q^j) - 1|, |q| = e^(-2 pi y) <= 1/2, is below
    2^-(prec+16) at the current precision. The spare factor absorbs the
    rounding of the float logarithms; every later factor rounds to 1."""
    y = float(y)
    bits = mp.mp.prec + _ETA_GUARD_BITS
    # the bound holds iff K + 1 > (bits log 2 - 2 log(1 - |q|)) / (2 pi y)
    return int((bits * log(2) - 2 * log1p(-exp(-2 * pi * y))) / (2 * pi * y)) + 1


def _fixed_mul(x, y, bits):
    """x * y for Gaussian integers (re, im) with `bits` fractional bits."""
    return (x[0] * y[0] - x[1] * y[1]) >> bits, (x[0] * y[1] + x[1] * y[0]) >> bits


def _eta_product(qre, qim, count, bits):
    """prod_(j=1..count) (1 - q^j), q = (qre + i qim) / 2^bits, as integers
    (re, im), the product being (re + i im) / 2^bits: q^j and the partial
    product are fixed-point Gaussian integers, each truncated to bits bits."""
    one = 1 << bits
    pre, pim, re, im = one, 0, one, 0
    for _ in range(count):
        pre, pim = (pre * qre - pim * qim) >> bits, (pre * qim + pim * qre) >> bits
        re, im = (re * (one - pre) + im * pim) >> bits, (im * (one - pre) - re * pim) >> bits
    return re, im


def _eta_exact(X: int, Y: int, S: int):
    """Dedekind eta at the exact point z = (X + iY)/S, Y, S > 0, as an mpc.

    z is moved into the fundamental domain by one SL2(Z) word (see
    _to_fundamental_domain), so |q| <= e^(-pi sqrt(3)) and any height works.
    The q-product then stops as soon as the remaining factors cannot change
    the result at the working precision (at most about 24 factors at 50
    digits).

    One exponential gives e^(i pi x); its 24th power is q = e(w). The
    product runs in integers with prec + 32 fractional bits, times the
    integer 1/sqrt(c z + d), and becomes an mpc once. Its at most 2 * count
    truncations each lose under one unit of 2^-(prec+32) per part, and
    count < (prec + 16) / 7.8 + 2, so below 10^5 bits they stay under
    2^-(prec+16). q has 24 times the rounding of e^(i pi x), under 0.11
    units of 2^-prec in the product as |q| < 0.0044. With the few units that
    e^(i pi x), the conversion to mpc and the last product round, the value
    is within 16 units of 2^-prec of the product run to its stop,
    relatively, and that product within 2^-(prec+16) of eta(z)."""
    w, x, (A, B, E) = _to_fundamental_domain(X, Y, S)
    bits, power = mp.mp.prec + 2 * _ETA_GUARD_BITS, mp.expjpi(x)
    p = int(mp.ldexp(power.real, bits)), int(mp.ldexp(power.imag, bits))
    q = _fixed_mul(p, _fixed_mul(p, p, bits), bits)
    for _ in range(3):
        q = _fixed_mul(q, q, bits)
    re, im = _fixed_mul(_eta_product(*q, _eta_factor_count(w.imag), bits), (A, B), 0)
    return power * mp.mpc(mp.ldexp(mp.mpf(re), E - bits), mp.ldexp(mp.mpf(im), E - bits))


def eta_numeric(z):
    """Dedekind eta at a point of the upper half-plane (mpmath complex):
    _eta_exact at z read exactly as (X + iY)/2^k."""
    z = mp.mpc(z)
    if z.imag <= 0:
        raise ValueError("eta is defined on the upper half-plane")
    (xm, xe), (ym, ye) = z.real.man_exp, z.imag.man_exp
    e = min(xe, ye, 0)
    return _eta_exact((-xm if z.real < 0 else xm) << (xe - e), ym << (ye - e), 1 << -e)


NumericLeadingCoeff = record("NumericLeadingCoeff", "value error_estimate")


# the oracle evaluates every eta value at 50 digits
_ORACLE_PREC = mp.libmp.dps_to_prec(50)


def _oracle_point(delta: int, sigma: SigmaMatrix, height: int) -> tuple:
    """(X, Y, S) in lowest terms with delta * sigma(i*height) = (X + iY)/S:
    X = delta (a c H^2 + b d), Y = delta H det(sigma), S = c^2 H^2 + d^2."""
    a, b, c, d = sigma.a, sigma.b, sigma.c, sigma.d
    hh = height * height
    X, Y, S = delta * (a * c * hh + b * d), delta * height * sigma.det, c * c * hh + d * d
    g = gcd(X, Y, S)
    return X // g, Y // g, S // g


def numeric_leading_coefficient(
    h: EtaQuotient, sigma: SigmaMatrix, expansion: CuspExpansion, height=8, etas=None
) -> NumericLeadingCoeff:
    """Floating-point oracle: h(sigma . i*height) normalized by the
    `expansion.order`-th power of the uniformizer. Converges to the exact
    leading coefficient as the height grows.

    Each eta factor is _eta_exact at the exact point delta * sigma(i*height)
    (_oracle_point), at prec = 169 bits (50 digits). The point is never
    rounded, so the value is within 2^(4-prec) + 2^-(prec+16) < 2^(8-prec)
    of eta there, relatively: _eta_exact's own 16 units of 2^-prec and the
    stop of its product. The error estimate carries |r| 2^(8-prec) for each
    factor eta^r, the next q-power of the expansion (`expansion.gap`), the
    precision lost by the normalization e^(2 pi height order) (under
    log2(8 (1 + 2 pi height |order|)) bits), which runs with the product 68
    bits finer than that loss when 50 digits do not cover it, and the
    rounding to a `complex`.

    Callers evaluating several quotients at one cusp pass one dict `etas`,
    filled with the eta values keyed by the reduced point, so that each
    point is evaluated once, also where proportional matrices meet."""
    if not isinstance(height, int) or height < 4:
        raise ValueError("height must be an integer of at least 4")
    etas = {} if etas is None else etas
    factors = []
    for delta, r in h.exponents:
        point = _oracle_point(delta, sigma, height)
        if point not in etas:
            with mp.workprec(_ORACLE_PREC):
                etas[point] = _eta_exact(*point)
        factors.append((r, etas[point]))
    order = expansion.order
    norm_loss = (7 * height * abs(order.numerator) // order.denominator + 1).bit_length() + 3
    with mp.workprec(max(_ORACLE_PREC, norm_loss + 68)):
        value = mp.mpc(1)
        for r, eta in factors:
            value *= eta**r
        # the uniformizer at i*height is the real number e^(-2 pi height)
        value *= mp.exp(mp.fdiv(2 * height * order.numerator, order.denominator) * mp.pi)
        loss = 2.0 ** (norm_loss - mp.mp.prec)
        value = complex(value)
    loss += sum(abs(r) for r, _ in factors) * 2.0 ** (8 - _ORACLE_PREC)
    # with height >= 4, a gap of 30 or more makes the exponent below -2 pi 120 < -753,
    # past exp's underflow to 0.0 (below -745.2), so the float of the gap is not formed
    next_term = exp(-2 * pi * height * expansion.gap) if expansion.gap < 30 else 0.0
    # complex() rounds each part of the value to 53 bits
    estimate = abs(value) * (next_term + 2.0**-52 + loss) + 1e-40
    return NumericLeadingCoeff(value=value, error_estimate=estimate)


def suggested_height(expansion: CuspExpansion) -> int:
    """A height at which the numeric oracle has converged well past 1e-8."""
    return max(8, int(10 / expansion.gap) + 1)
