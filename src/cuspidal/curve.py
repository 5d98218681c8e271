"""Cusps of X0(N) and divisors supported on them.

A cusp of level d (a positive divisor of N) is the closed point whose complex
points are the Gamma0(N)-orbits of fractions a/d with gcd(a, d) = 1. Its
residue field is the cyclotomic field of conductor gcd(d, N/d), so one record
per level carries the whole Galois orbit, with the field degree as its
multiplicity.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType

from .errors import InputError
from .linalg import factorize


@dataclass(frozen=True)
class Cusp:
    N: int
    level: int
    conductor: int
    degree: int
    width: int


@functools.lru_cache(maxsize=8)
def cusp_degrees(N: int):
    """Read-only map d -> phi(gcd(d, N/d)) from the divisors d of N, in
    increasing order, to the degrees of the cusps of level d."""
    if N < 1:
        raise InputError("level N must be positive")
    rows = [(1, 1)]
    for p, e in factorize(N).items():
        # phi(gcd(d, N/d)) is the product over p^e || N of p^(k-1) (p-1),
        # k = min(v_p(d), e - v_p(d)), where k > 0
        local = [(p**v, p ** (min(v, e - v) - 1) * (p - 1) if 0 < v < e else 1) for v in range(e + 1)]
        rows = [(d * pv, phi * f) for d, phi in rows for pv, f in local]
    return MappingProxyType(dict(sorted(rows)))


def cusps(N: int) -> list:
    """All cusps of X0(N), one per positive divisor of N, sorted by level."""
    return [
        Cusp(N=N, level=d, conductor=gcd(d, N // d), degree=phi, width=N // gcd(d * d, N))
        for d, phi in cusp_degrees(N).items()
    ]


@dataclass(frozen=True)
class CuspDivisor:
    """A divisor supported on the cusps of X0(N), as a map level -> coefficient.

    Coefficients are exact rationals; elements of the cuspidal divisor group
    proper are integral of degree zero.
    """

    N: int
    coefficients: tuple

    @classmethod
    def make(cls, N, coeffs) -> "CuspDivisor":
        levels = cusp_degrees(N)
        items = []
        for d, c in sorted(dict(coeffs).items()):
            if d not in levels:
                raise InputError(f"{d} is not a divisor of {N}")
            c = Fraction(c)
            if c != 0:
                items.append((d, c))
        return cls(N, tuple(items))

    @classmethod
    def zero(cls, N) -> "CuspDivisor":
        return cls(N, ())

    def coefficient(self, d) -> Fraction:
        for level, c in self.coefficients:
            if level == d:
                return c
        return Fraction(0)

    @property
    def support(self):
        return tuple(d for d, _ in self.coefficients)

    def degree(self) -> Fraction:
        """Degree as a divisor on the curve over Q: coefficients weighted by
        the residue-field degrees of the cusps."""
        degrees = cusp_degrees(self.N)
        return sum((c * degrees[d] for d, c in self.coefficients), Fraction(0))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, c in self.coefficients)

    def coefficient_vector(self):
        """Coefficients listed over all divisors of N in increasing order."""
        coeffs = dict(self.coefficients)
        return [coeffs.get(d, Fraction(0)) for d in cusp_degrees(self.N)]

    def __add__(self, other):
        if not isinstance(other, CuspDivisor) or other.N != self.N:
            return NotImplemented
        merged = dict(self.coefficients)
        for d, c in other.coefficients:
            merged[d] = merged.get(d, Fraction(0)) + c
        return CuspDivisor.make(self.N, merged)

    def __neg__(self):
        return CuspDivisor(self.N, tuple((d, -c) for d, c in self.coefficients))

    def __sub__(self, other):
        neg = -other
        return self + neg

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        if scalar == 0:
            return CuspDivisor.zero(self.N)
        return CuspDivisor(self.N, tuple((d, c * scalar) for d, c in self.coefficients))

    __rmul__ = __mul__

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for d, c in self.coefficients:
            if c == 1:
                term = f"Q_{d}"
            elif c == -1:
                term = f"-Q_{d}"
            else:
                term = f"{c}*Q_{d}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def divisor_basis(p: int, n: int) -> list:
    """The standard basis D_0, ..., D_(n-1) of the degree-zero cuspidal
    divisor group on X0(p^n): D_i = Q_(p^i) - phi(gcd(p^i, p^(n-i))) Q_(p^n)."""
    if n < 1:
        raise InputError("n must be positive")
    N = p**n
    degrees = cusp_degrees(N)
    return [CuspDivisor.make(N, {p**i: 1, N: -degrees[p**i]}) for i in range(n)]


def lambda_embedding(E: CuspDivisor, p: int, n: int):
    """Embed an integral degree-zero cuspidal divisor on X0(p^n) into the
    coordinate-sum-zero lattice of Z^(n+1).

    The basis divisor D_i maps to phi(gcd(p^i, p^(n-i))) (e_(i+1) - e_0).
    """
    N = p**n
    if E.N != N:
        raise InputError(f"divisor lives on X0({E.N}), not X0({N})")
    if not E.is_integral():
        raise InputError("divisor has non-integral coefficients")
    if E.degree() != 0:
        raise InputError("divisor has nonzero degree")
    coeffs = [int(c) for c in E.coefficient_vector()]
    degrees = list(cusp_degrees(N).values())
    image = [coeffs[n]] + [c * phi for c, phi in zip(coeffs[:n], degrees)]
    assert sum(image) == 0
    return image
