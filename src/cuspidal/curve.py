"""Cusps of X0(N) and divisors supported on them.

A cusp of level d (a positive divisor of N) is the closed point whose complex
points are the Gamma0(N)-orbits of fractions a/d with gcd(a, d) = 1. Its
residue field is the cyclotomic field of conductor gcd(d, N/d), so one record
per level carries the whole Galois orbit, with the field degree as its
multiplicity.
"""

import functools
from math import gcd, prod
from types import MappingProxyType

from .errors import InputError, ScopeError
from .linalg import factorize, record

# A level with more cusp levels than this is refused before its tables are
# built: they take time and memory in proportion to d(N).
MAX_CUSP_LEVELS = 1 << 16


Cusp = record("Cusp", "N level conductor degree width")


class Level(record("Level", "N factors primes degrees valuations")):
    """The level N of X0(N) and what its cusps read from the factorization
    of N: `factors` ((p, a), ...) and `primes` in increasing order,
    `degrees`, the read-only map d -> phi(gcd(d, N/d)) from the divisors d
    of N in increasing order to the degrees of the cusps of level d, and
    `valuations`, for each prime p the exponents v_p(d) in that order.
    Equality and hash go by N and its factors."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Level) and self[:2] == other[:2]

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's field-wise test

    def __hash__(self):
        return hash(self[:2])

    @classmethod
    def of(cls, factors: dict) -> "Level":
        """The record of N = prod p^a from {p: a}, whose keys must be primes
        (not checked), in one pass over the prime powers."""
        factors = tuple(sorted(factors.items()))
        count = prod(a + 1 for _, a in factors)
        if count > MAX_CUSP_LEVELS:
            N = " * ".join(f"{p}^{a}" if a > 1 else str(p) for p, a in factors)
            raise ScopeError(f"N = {N} has {count} cusp levels; at most {MAX_CUSP_LEVELS} are supported")
        rows = [(1, 1, ())]
        for p, a in factors:
            # phi(gcd(d, N/d)) is the product over p^a || N of p^(k-1) (p-1),
            # k = min(v_p(d), a - v_p(d)), where k > 0
            local = [(p**v, p ** (min(v, a - v) - 1) * (p - 1) if 0 < v < a else 1, v) for v in range(a + 1)]
            rows = [(d * pv, phi * f, (*vals, v)) for d, phi, vals in rows for pv, f, v in local]
        rows.sort()
        return cls(
            N=rows[-1][0],
            factors=factors,
            primes=tuple(p for p, _ in factors),
            degrees=MappingProxyType({d: phi for d, phi, _ in rows}),
            valuations=tuple(zip(*(vals for *_, vals in rows))),
        )


@functools.lru_cache(maxsize=8)
def level(N: int) -> Level:
    """The record of the level N, from one factorization of N."""
    if N < 1:
        raise InputError("level N must be positive")
    return Level.of(factorize(N))


def cusp_degrees(N: int):
    """Read-only map d -> phi(gcd(d, N/d)) from the divisors d of N, in
    increasing order, to the degrees of the cusps of level d."""
    return level(N).degrees


def cusps(N: int) -> list:
    """All cusps of X0(N), one per positive divisor of N, sorted by level."""
    return [
        Cusp(N=N, level=d, conductor=gcd(d, N // d), degree=phi, width=N // gcd(d * d, N))
        for d, phi in cusp_degrees(N).items()
    ]


class CuspDivisor(record("CuspDivisor", "N coefficients")):
    """A divisor supported on the cusps of X0(N), as a map level -> coefficient.

    Coefficients are integers; elements of the cuspidal divisor group proper
    have degree zero.
    """

    __slots__ = ()

    @classmethod
    def make(cls, N, coeffs) -> "CuspDivisor":
        if N < 1:
            raise InputError("level N must be positive")
        items = []
        for d, c in sorted(dict(coeffs).items()):
            if not (d >= 1 and N % d == 0):
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
