"""Cusps of X0(N) and divisors supported on them.

A cusp of level d (a positive divisor of N) is the closed point whose complex
points are the Gamma0(N)-orbits of fractions a/d with gcd(a, d) = 1. Its
residue field is the cyclotomic field of conductor gcd(d, N/d), so one record
per level carries the whole Galois orbit, with the field degree as its
multiplicity.
"""

import functools
from dataclasses import dataclass
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

    Coefficients are integers; elements of the cuspidal divisor group proper
    have degree zero.
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
            r = int(c)
            if r != c:
                raise InputError(f"coefficient {c} at level {d} is not an integer")
            if r:
                items.append((d, r))
        return cls(N, tuple(items))

    def coefficient(self, d) -> int:
        for level, c in self.coefficients:
            if level == d:
                return c
        return 0

    def degree(self) -> int:
        """Degree as a divisor on the curve over Q: coefficients weighted by
        the residue-field degrees of the cusps."""
        degrees = cusp_degrees(self.N)
        return sum(c * degrees[d] for d, c in self.coefficients)

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
