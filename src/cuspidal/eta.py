"""Eta quotients on X0(N): Ligozat's modularity test, cusp orders, divisors,
and the explicit generator families for prime-power and pq levels."""

import re
from fractions import Fraction
from math import gcd
from operator import mul

from .curve import MAX_CUSP_LEVELS, CuspDivisor, Level, level
from .errors import InputError, NotModularError, ScopeError
from .linalg import is_prime, record

_ETA_FACTOR = re.compile(r"eta\(\s*(\d+)\s*\)(?:\s*\^\s*(-?\d+))?", re.IGNORECASE)


class EtaQuotient(record("EtaQuotient", "N exponents")):
    """A finite product of eta factors eta(delta*tau)^r over divisors delta of N.

    Exponents are stored sparsely; product and integer powers act on the
    exponent vectors.
    """

    __slots__ = ()

    @classmethod
    def make(cls, N, exponents) -> "EtaQuotient":
        if N < 1:
            raise InputError("level N must be positive")
        items = []
        for delta, r in sorted(dict(exponents).items()):
            if not (delta >= 1 and N % delta == 0):
                raise InputError(f"{delta} is not a divisor of {N}")
            k = int(r)
            if k != r:
                raise InputError(f"exponent {r} of eta({delta}) is not an integer")
            if k:
                items.append((delta, k))
        return cls(N, tuple(items))

    @classmethod
    def one(cls, N) -> "EtaQuotient":
        return cls.make(N, {})

    @classmethod
    def parse(cls, text, N) -> "EtaQuotient":
        """Parse the canonical text form `eta(d)^r * eta(d')^r' ...`."""
        exponents = {}
        rest = text.strip()
        if not rest:
            raise InputError("empty eta-quotient expression")
        pieces = [piece.strip() for piece in rest.split("*")]
        for piece in pieces:
            match = _ETA_FACTOR.fullmatch(piece)
            if match is None:
                raise InputError(f"cannot parse eta factor {piece!r}")
            delta = int(match.group(1))
            r = int(match.group(2)) if match.group(2) is not None else 1
            exponents[delta] = exponents.get(delta, 0) + r
        return cls.make(N, exponents)

    def __mul__(self, other):
        if not isinstance(other, EtaQuotient) or other.N != self.N:
            return NotImplemented
        merged = dict(self.exponents)
        for d, r in other.exponents:
            merged[d] = merged.get(d, 0) + r
        return EtaQuotient.make(self.N, merged)

    def __pow__(self, k: int):
        if int(k) != k:
            raise InputError(f"power {k} is not an integer")
        return EtaQuotient.make(self.N, {d: r * k for d, r in self.exponents})

    def __str__(self):
        if not self.exponents:
            return "1"
        return " * ".join(
            f"eta({d})" if r == 1 else f"eta({d})^{r}" for d, r in self.exponents
        )


class LigozatReport(record("LigozatReport", "weight_zero square_product sum_delta_mod_24 sum_complement_mod_24")):
    """Outcome of the four Ligozat conditions for modularity on X0(N): the
    exponents sum to zero, prod delta^r(delta) is a rational square, and
    sum r(delta)*delta and sum r(delta)*(N/delta) are 0 mod 24."""

    __slots__ = ()

    @classmethod
    def of(cls, residues) -> "LigozatReport":
        """The report for the four residues of `_ligozat`."""
        weight, square, sum_delta, sum_complement = residues
        return cls(weight == 0, square == 0, sum_delta == 0, sum_complement == 0)

    @property
    def ok(self) -> bool:
        return (
            self.weight_zero
            and self.square_product
            and self.sum_delta_mod_24
            and self.sum_complement_mod_24
        )


def check_modular_function(h: EtaQuotient) -> LigozatReport:
    """Ligozat's criterion: h is a modular function on X0(N) iff all four hold.

    Quotients passing the test are defined over the rationals; the library
    relies on that fact but has no independent rationality check.
    """
    return LigozatReport.of(_ligozat(h.N, h.exponents, _odd_valuations(level(h.N))))


def _odd_valuations(lvl: Level) -> dict:
    """{d: bit mask of the primes p of N, in increasing order, with v_p(d)
    odd} over the divisors d of N."""
    masks = [0] * len(lvl.degrees)
    for i, vals in enumerate(lvl.valuations):
        masks = [mask | (v & 1) << i for mask, v in zip(masks, vals)]
    return dict(zip(lvl.degrees, masks))


def _ligozat(N: int, row, odd) -> tuple:
    """Ligozat's four conditions for the sparse exponent row ((delta, r), ...)
    on X0(N), as residues that all vanish exactly when they hold: sum r, the
    mask of the primes of odd valuation in prod delta^r (with `odd` from
    _odd_valuations), sum r delta mod 24 and sum r N/delta mod 24."""
    weight = sum_delta = sum_comp = square = 0
    for d, r in row:
        weight += r
        sum_delta += r * d
        sum_comp += r * (N // d)
        if r & 1:
            square ^= odd[d]
    return weight, square, sum_delta % 24, sum_comp % 24


def order_coefficient(N: int, d: int, delta: int) -> int:
    """24 times the order of eta(delta*tau) at the level-d cusps of X0(N)
    (Ligozat): N gcd(d, delta)^2 / (gcd(d, N/d) d delta), an integer."""
    order, rest = divmod(N * gcd(d, delta) ** 2, gcd(d, N // d) * d * delta)
    assert rest == 0, f"24 * order of eta({delta}) at level {d} of X0({N}) is not integral"
    return order


def _orders24(lvl: Level, rows):
    """24 times the orders, level by level, of the eta quotients on X0(N) with
    the given sparse exponent rows ((delta, r), ...): r times the column of
    order_coefficient(N, d, delta), summed over nonzero entries, each built once."""
    N, levels = lvl.N, list(lvl.degrees)
    columns = {}
    for row in rows:
        total = [0] * len(levels)
        for delta, r in row:
            if delta not in columns:
                columns[delta] = [order_coefficient(N, d, delta) for d in levels]
            total = [t + r * c for t, c in zip(total, columns[delta])]
        yield total


def order_at_cusp(h: EtaQuotient, d: int) -> Fraction:
    """Exact order of h at the cusps of level d."""
    if d < 1 or h.N % d != 0:
        raise InputError(f"{d} is not a divisor of {h.N}")
    return Fraction(sum(r * order_coefficient(h.N, d, delta) for delta, r in h.exponents), 24)


def _divisor_rows(lvl: Level, rows) -> list:
    """Integer coefficients, level by level in increasing order, of the
    divisors of the eta quotients on X0(N) with the given sparse exponent
    rows. Failing Ligozat's test raises NotModularError; a non-integral
    order or nonzero degree, AssertionError. The EtaQuotient is built only
    for the message of an error."""
    N, degrees = lvl.N, lvl.degrees
    phis = list(degrees.values())
    odd = _odd_valuations(lvl)
    out = []
    for row, orders in zip(rows, _orders24(lvl, rows)):
        residues = _ligozat(N, row, odd)
        if any(residues):
            h = EtaQuotient(N, tuple(row))
            raise NotModularError(f"{h} is not a modular function on X0({N})", LigozatReport.of(residues))
        coeffs = [total // 24 for total in orders]
        # each total - 24 * (total // 24) lies in [0, 24), so they all vanish
        # exactly when their sum does
        if sum(orders) != 24 * sum(coeffs):
            d, total = next((d, t) for d, t in zip(degrees, orders) if t % 24)
            h = EtaQuotient(N, tuple(row))
            raise AssertionError(f"non-integral order {Fraction(total, 24)} of {h} at level {d}")
        degree = sum(map(mul, coeffs, phis))
        if degree != 0:
            raise AssertionError(f"divisor of {EtaQuotient(N, tuple(row))} has nonzero degree {degree}")
        out.append(coeffs)
    return out


def divisor(h: EtaQuotient) -> CuspDivisor:
    """Divisor of a Ligozat-valid eta quotient, with integer coefficients."""
    lvl = level(h.N)
    (coeffs,) = _divisor_rows(lvl, [h.exponents])
    return CuspDivisor.make(h.N, dict(zip(lvl.degrees, coeffs)))


def _require_prime_power(p, n):
    """The scope of every X0(p^n) computation: p a prime >= 5, n >= 1 and at
    most MAX_CUSP_LEVELS cusp levels, checked before p^n is formed."""
    if not is_prime(p) or p < 5:
        raise ScopeError(f"p = {p} is not a prime >= 5")
    if n < 1:
        raise InputError("n must be positive")
    if n >= MAX_CUSP_LEVELS:
        raise ScopeError(f"N = {p}^{n} has {n + 1} cusp levels; at most {MAX_CUSP_LEVELS} are supported")


def prime_power_generators(p: int, n: int) -> list:
    """Generators of the group of eta-unit divisors on X0(p^n) for p >= 5:
    f = (eta(p)/eta(1))^(24/gcd(p-1,12)) and g_k = eta(p^(k+2))/eta(p^k)."""
    _require_prime_power(p, n)
    N = p**n
    e = 24 // gcd(p - 1, 12)
    gens = [EtaQuotient.make(N, {p: e, 1: -e})]
    for k in range(n - 1):
        gens.append(EtaQuotient.make(N, {p ** (k + 2): 1, p**k: -1}))
    return gens


def pq_generators(p: int, q: int) -> list:
    """The three eta units on X0(pq) for distinct primes p, q == 1 mod 12."""
    if not (is_prime(p) and is_prime(q)) or p == q or p % 12 != 1 or q % 12 != 1:
        raise ScopeError(f"(p, q) = ({p}, {q}) must be distinct primes == 1 mod 12")
    N = p * q
    return [
        EtaQuotient.make(N, {1: 1, q: 1, p: -1, N: -1}),
        EtaQuotient.make(N, {1: 1, p: 1, q: -1, N: -1}),
        EtaQuotient.make(N, {1: 1, N: 1, p: -1, q: -1}),
    ]

