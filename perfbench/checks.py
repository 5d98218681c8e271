"""Independent checks of `cuspidal` JSON reports.

Nothing here imports `cuspidal`: every expected value comes from a closed
form stated in the paper (or classical results it quotes), from arithmetic
done here, or from `mpmath.eta`. Each check raises `CheckError` with a
reason when a report is wrong and returns None otherwise.
"""

from fractions import Fraction
from math import gcd

import mpmath as mp


class CheckError(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckError(message)


# --- elementary arithmetic -------------------------------------------------


def factor(n):
    """{prime: exponent} of a positive integer by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def cyclic_sum_factors(orders):
    """Invariant factors (ascending, each > 1) of the direct sum of cyclic
    groups of the given orders, via the primary decomposition."""
    primary = {}
    for order in orders:
        for prime, exp in factor(order).items():
            primary.setdefault(prime, []).append(exp)
    width = max((len(v) for v in primary.values()), default=0)
    factors = []
    for k in range(width):
        f = 1
        for prime, exps in primary.items():
            exps = sorted(exps, reverse=True)
            if k < len(exps):
                f *= prime ** exps[k]
        factors.append(f)
    return sorted(factors)


def determinant(rows):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def level_divisors(N):
    out = [1]
    for prime, exp in factor(N).items():
        out = [d * prime**k for d in out for k in range(exp + 1)]
    return sorted(out)


def certified_family(N):
    """True when C(N) is known exactly: N = 1, N = p^n with p >= 5, or N = pq
    with distinct primes p, q == 1 mod 12."""
    if N == 1:
        return True
    f = factor(N)
    if len(f) == 1:
        return min(f) >= 5
    if len(f) == 2 and set(f.values()) == {1}:
        return all(prime % 12 == 1 for prime in f)
    return False


# --- closed forms ----------------------------------------------------------


def ling_factors(p, n):
    """Ling's structure of C(p^n) for p >= 5: (Z/a)^n x (Z/b)^(n-1) times
    p-power cyclic factors depending on the parity of n."""
    a = (p - 1) // gcd(p - 1, 12)
    b = (p + 1) // gcd(p + 1, 12)
    orders = [a] * n + [b] * (n - 1)
    lo = n // 2 if n % 2 == 0 else (n + 1) // 2
    hi = n // 2 + 1 if n % 2 == 0 else (n + 1) // 2
    orders += [p**i for i in range(lo, n - 1)] + [p**i for i in range(hi, n)]
    return cyclic_sum_factors(orders)


def mazur_factors(p):
    """C(p) is cyclic of order (p-1)/gcd(p-1, 12)."""
    return cyclic_sum_factors([(p - 1) // gcd(p - 1, 12)])


def pq_abc(p, q):
    return (
        (p - 1) * (q + 1) // 24,
        (p + 1) * (q - 1) // 24,
        (p - 1) * (q - 1) // 24,
    )


def torsion_factors(p, n):
    """Generalized-Jacobian torsion of X0(p^n): sum over i < n of Z/2p^min(i, n-i)."""
    return cyclic_sum_factors([2 * p ** min(i, n - i) for i in range(n)])


def delta_closed_form(p, n):
    """Evaluation matrix: lower triangular, diagonal (a', 1, ..., 1), first
    column (a', 1, ..., 1), interior entries 2; a' = 12/gcd(p-1, 12)."""
    a_prime = 12 // gcd(p - 1, 12)
    rows = [[a_prime] + [0] * (n - 1)]
    for k in range(n - 1):
        rows.append([1] + [2] * k + [1] + [0] * (n - 2 - k))
    return rows


def generator_lc(p, n, gen_index, m):
    """Paper's table of the leading coefficient of f (gen_index -1) or g_k
    (gen_index k) at the level-p^m cusp of X0(p^n), as (phase mod 1,
    {prime: half-exponent}). Conventions: sqrt(p*) has phase (p-1)/8 and
    ab = (p^2-1)/24."""
    ab = (p * p - 1) // 24
    a = (p - 1) // gcd(p - 1, 12)
    if 2 * m >= n:
        if gen_index == -1 or gen_index <= m - 2:
            return Fraction(0), {}
        if gen_index == m - 1:
            return (Fraction(p - 1, 4) - Fraction(ab, p) - Fraction(p - 1, 8)) % 1, {p: -1}
        return Fraction(-ab, p ** (gen_index + 2 - m)) % 1, {p: -2}
    if gen_index == -1:
        if m == 0:
            return Fraction(0), {p: -24 // gcd(p - 1, 12)}
        return Fraction(a, p**m) % 1, {}
    if gen_index >= m:
        return Fraction(0), {p: -2}
    if gen_index == m - 1:
        return (Fraction(ab, p) - Fraction(p - 1, 8)) % 1, {p: -1}
    return Fraction(ab, p ** (m - gen_index)) % 1, {}


def prime_power_generators(p, n):
    """Exponent maps of f = (eta(p)/eta(1))^(24/gcd(p-1,12)) and
    g_k = eta(p^(k+2))/eta(p^k), k < n-1."""
    e = 24 // gcd(p - 1, 12)
    return [{p: e, 1: -e}] + [{p ** (k + 2): 1, p**k: -1} for k in range(n - 1)]


def pq_generators(p, q):
    N = p * q
    return {
        "f1": {1: 1, q: 1, p: -1, N: -1},
        "f2": {1: 1, p: 1, q: -1, N: -1},
        "f3": {1: 1, N: 1, p: -1, q: -1},
    }


def prime_power_uniformizer(p, n, m):
    """(a, b, c, d) sending infinity to 1/p^m for m >= n/2, to -1/p^m below."""
    if 2 * m >= n:
        return (1, 0, p**m, 1)
    return (-(p ** (n - m)), -1, p**n, 0)


def pq_uniformizer(p, q, m):
    """(a, b, c, d) normalizing Gamma0(pq) and sending infinity to 1/m."""
    N = p * q
    comp = N // m
    d = next(dd for dd in range(1, m + 1) if (dd * comp) % m == 1 % m)
    return (comp, -((d * comp - 1) // m), N, d * comp)


# --- numeric oracle from mpmath.eta ----------------------------------------

RELATIVE_TOLERANCE = 1e-9


def eta_value(z):
    """Dedekind eta at z: SL2(Z) reduction into the fundamental domain, then
    `mpmath.eta` there."""
    factor_ = mp.mpc(1)
    while True:
        k = mp.nint(mp.re(z))
        z = z - k
        factor_ *= mp.expjpi(k / 12)
        if abs(z) >= 1:
            return factor_ * mp.eta(z)
        factor_ /= mp.sqrt(z / 1j)
        z = -1 / z


def numeric_leading_coefficient(exponents, sigma):
    """h(sigma(iH)) * q^(-ord), q = e^(-2 pi H), for the eta quotient
    prod eta(delta tau)^r; H is chosen so the next q-power is below 1e-20
    relative to the leading term."""
    a, b, c, d = sigma
    det = a * d - b * c
    steps = {delta: Fraction(gcd(delta * a, c) ** 2, delta * det) for delta in exponents}
    order = sum(r * steps[delta] for delta, r in exponents.items()) / 24
    gap = min(steps.values())
    with mp.workdps(60):
        height = mp.mpf(8) / (mp.mpf(gap.numerator) / gap.denominator)
        tau = mp.mpc(0, height)
        w = (a * tau + b) / (c * tau + d)
        value = mp.mpc(1)
        for delta, r in exponents.items():
            value *= eta_value(delta * w) ** r
        value *= mp.exp(2 * mp.pi * height * mp.mpf(order.numerator) / order.denominator)
        return +value


def exact_value(phase, half_exponents):
    with mp.workdps(60):
        value = mp.expjpi(2 * mp.mpf(phase.numerator) / phase.denominator)
        for prime, v in half_exponents.items():
            value *= mp.mpf(prime) ** (mp.mpf(v) / 2)
        return +value


def require_close(exact, numeric, where):
    with mp.workdps(60):
        err = abs(exact - numeric)
        require(
            err <= RELATIVE_TOLERANCE * abs(exact),
            f"{where}: |exact - mpmath| = {mp.nstr(err, 5)} exceeds "
            f"{RELATIVE_TOLERANCE} x |exact| = {mp.nstr(abs(exact), 5)}",
        )


# --- parsing of report fields ----------------------------------------------


def parse_lc(text):
    """'e(3/10)*5^(-1/2)' -> (Fraction(3, 10), {5: -1}); '1' -> (0, {})."""
    phase = Fraction(0)
    half = {}
    if text == "1":
        return phase, half
    for part in text.split("*"):
        if part.startswith("e(") and part.endswith(")"):
            phase = Fraction(part[2:-1])
        elif "^(" in part and part.endswith(")"):
            base, exponent = part[:-1].split("^(")
            e = Fraction(exponent)
            require(e.denominator in (1, 2), f"exponent {exponent} in {text!r}")
            half[int(base)] = int(2 * e)
        else:
            half[int(part)] = 2
    require(0 <= phase < 1, f"phase of {text!r} not reduced into [0, 1)")
    return phase, half


def parse_divisor(text):
    """'-25*Q_1 + 5*Q_5 + Q_25' -> {1: -25, 5: 5, 25: 1} (integral coefficients)."""
    coeffs = {}
    if text == "0":
        return coeffs
    tokens = text.replace(" - ", " + -").split(" + ")
    for token in tokens:
        coefficient, _, level = token.rpartition("Q_")
        coefficient = coefficient.rstrip("*")
        value = {"": 1, "-": -1}.get(coefficient)
        if value is None:
            value = Fraction(coefficient)
            require(value.denominator == 1, f"non-integral coefficient in {text!r}")
            value = int(value)
        coeffs[int(level)] = coeffs.get(int(level), 0) + value
    return coeffs


# --- report checks ---------------------------------------------------------


def check_group(group, where):
    """A group payload has ascending factors > 1 in a divisibility chain and
    its order is their product."""
    factors = group["invariant_factors"]
    require(all(isinstance(f, int) and f > 1 for f in factors), f"{where}: factor <= 1")
    require(
        all(b % a == 0 for a, b in zip(factors, factors[1:])),
        f"{where}: {factors} is not a divisibility chain",
    )
    order = 1
    for f in factors:
        order *= f
    require(group["order"] == str(order), f"{where}: order {group['order']} != product {order}")
    return factors


def check_class_group(report, inputs):
    N = inputs["N"] if "N" in inputs else inputs["p"] ** inputs["n"]
    factors = check_group(report, f"C({N})")
    require(
        report["certified"] == certified_family(N),
        f"C({N}): certified = {report['certified']}, expected {certified_family(N)}",
    )
    # order = |det| of the generator divisors' coefficients at the non-top cusps
    cusps = level_divisors(N)[:-1]
    gens = [parse_divisor(g) for g in report["generators"]]
    require(len(gens) == len(cusps), f"C({N}): {len(gens)} generators for {len(cusps)} cusps")
    det = abs(determinant([[g.get(d, 0) for d in cusps] for g in gens]))
    require(str(det) == report["order"], f"C({N}): order {report['order']} != |det| {det}")
    f = factor(N)
    if len(f) == 1 and min(f) >= 5:
        ((p, n),) = f.items()
        require(factors == ling_factors(p, n), f"C({p}^{n}): {factors} != Ling {ling_factors(p, n)}")
        if n == 1:
            require(factors == mazur_factors(p), f"C({p}): {factors} != Mazur {mazur_factors(p)}")
    elif certified_family(N) and N > 1:
        p, q = sorted(f)
        a, b, c = pq_abc(p, q)
        require(det == 4 * a * b * c, f"C({p}*{q}): order {det} != 4abc = {4 * a * b * c}")


def check_torsion(report, inputs):
    p, n = inputs["p"], inputs["n"]
    expected = torsion_factors(p, n)
    factors = check_group(report, f"torsion({p}^{n})")
    require(factors == expected, f"torsion({p}^{n}): {factors} != {expected}")
    require(check_group(report["mu_part"], "mu part") == expected, f"torsion({p}^{n}): mu part")
    require(check_group(report["kernel"], "kernel") == [], f"torsion({p}^{n}): kernel not trivial")
    require(report["conditional"] == (n >= 2), f"torsion({p}^{n}): conditional flag")


def check_delta(report, inputs):
    p, n = inputs["p"], inputs["n"]
    require(report["matrix"] == delta_closed_form(p, n), f"delta({p}^{n}): matrix != closed form")
    expected = cyclic_sum_factors([12 // gcd(p - 1, 12)])
    cokernel = check_group(report["cokernel"], "cokernel")
    require(cokernel == expected, f"delta({p}^{n}): cokernel {cokernel} != {expected}")


def check_leading_coeffs(report, inputs):
    p, n = inputs["p"], inputs["n"]
    require(report["cusp_indices"] == list(range(n + 1)), "cusp indices")
    gens = prime_power_generators(p, n)
    names = ["f"] + [f"g{k}" for k in range(n - 1)]
    require([row["function"] for row in report["rows"]] == names, "generator names")
    for gen_index, (row, exponents) in enumerate(zip(report["rows"], gens), start=-1):
        require(len(row["symbolic"]) == n + 1, f"{row['function']}: row length")
        for m, text in enumerate(row["symbolic"]):
            where = f"{row['function']} at p^{m} on X0({p}^{n})"
            phase, half = parse_lc(text)
            expected = generator_lc(p, n, gen_index, m)
            require((phase, half) == expected, f"{where}: {text} != closed form {expected}")
            numeric = numeric_leading_coefficient(exponents, prime_power_uniformizer(p, n, m))
            require_close(exact_value(phase, half), numeric, where)


def check_pq(report, inputs):
    p, q = inputs["p"], inputs["q"]
    a, b, c = pq_abc(p, q)
    require([report["a"], report["b"], report["c"]] == [str(a), str(b), str(c)], "a, b, c")
    check_group(report["class_group"], "class group")
    require(report["class_group"]["order"] == str(4 * a * b * c), f"C({p}*{q}): order != 4abc")
    require(check_group(report["kernel"], "kernel") == cyclic_sum_factors([c]), "kernel != Z/c")
    require(check_group(report["mu_part"], "mu part") == [2, 2, 2], "mu part != (Z/2)^3")
    require(report["torsion_order"] == str(8 * c), "torsion order != (p-1)(q-1)/3")
    require(
        check_group(report["up_to_2_torsion"], "up to 2-torsion") == cyclic_sum_factors([8 * c]),
        "torsion not cyclic of order (p-1)(q-1)/3 up to 2-torsion",
    )
    levels = [1, p, q, p * q]
    require(report["cusp_levels"] == levels, "cusp levels")
    expected = {"f1": [p, 1, p, 1], "f2": [q, q, 1, 1], "f3": [1, 1, 1, 1]}
    gens = pq_generators(p, q)
    table = report["leading_coefficient_magnitudes"]
    require(sorted(table) == sorted(expected), "generator names")
    for name, magnitudes in expected.items():
        for level, text, magnitude in zip(levels, table[name], magnitudes):
            require(text == str(magnitude), f"|{name}| at {level}: {text} != {magnitude}")
            numeric = numeric_leading_coefficient(gens[name], pq_uniformizer(p, q, level))
            require_close(mp.mpf(magnitude), abs(numeric), f"|{name}| at {level} on X0({p}*{q})")


def check_verify(report, inputs):
    results = report["results"]
    require(len(results) == 1, f"suite {inputs['suite']}: {len(results)} results")
    require(all(r["passed"] for r in results) and report["all_passed"], f"suite {inputs['suite']} failed")


def check_cusps(report, inputs):
    N = inputs["N"]
    levels = [c["level"] for c in report["cusps"]]
    require(levels == level_divisors(N), f"cusps of X0({N}): levels {levels}")


CHECKS = {
    "class-group": check_class_group,
    "torsion": check_torsion,
    "delta": check_delta,
    "leading-coeffs": check_leading_coeffs,
    "pq": check_pq,
    "verify": check_verify,
    "cusps": check_cusps,
}


def check_report(argv, report, inputs):
    """Check one parsed `--json` report of the command `argv` run on `inputs`."""
    require(report["command"] == argv[0], f"command {report['command']!r} != {argv[0]!r}")
    require(report["inputs"] == inputs, f"inputs {report['inputs']} != {inputs}")
    CHECKS[argv[0]](report, inputs)
