"""Cuspidal divisor class groups C(N) = D(N)/P(N) computed from lattices of
eta-unit divisors, together with the order matrices M, U, V whose determinant
identities (`verify.determinant_claims`) certify the prime-power case."""

from math import prod

from .curve import CuspDivisor, Level, cusp_degrees, level
from .errors import InputError, ScopeError
from .eta import (
    EtaQuotient,
    _divisor_rows,
    order_coefficient,
    pq_generators,
    prime_power_generators,
)
from .linalg import AbelianGroup, IntMatrix, cokernel, congruence_kernel, hermite_row_basis, record


class ClassGroupResult(record("ClassGroupResult", "N group generator_divisors certified")):
    """Structure of C(N), the generators used for the unit lattice, and
    whether that lattice provably equals the full group of principal cuspidal
    divisors (true for N = p^n with p >= 5 and N = pq with p == q == 1 mod 12;
    otherwise the reported group is only an upper-bound quotient)."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return self.group.order


class OrderMatrices(record("OrderMatrices", "p n m24 u v")):
    """The three square matrices of dimension n+1 attached to X0(p^n).

    `m24` is 24 times the matrix of cusp orders (rows: eta(p^i tau), columns:
    cusp level p^j), keeping every entry integral. `u` is diagonal with the
    cusp degrees; the first n rows of `v` are the generator exponent vectors
    and its last row is all ones.
    """

    __slots__ = ()


def divisor_lattice_coordinates(E: CuspDivisor):
    """Coordinates of a degree-zero cuspidal divisor in the basis
    Q_d - deg(Q_d) * Q_N over proper divisors d of N (ascending): since Q_N
    is rational, they are the coefficients of E at those cusps. C(N) is the
    cokernel of the matrix of these rows over a basis of the unit lattice."""
    if E.degree():
        raise ValueError("expected a degree-zero divisor")
    coeffs = dict(E.coefficients)
    return [coeffs.get(d, 0) for d in cusp_degrees(E.N)][:-1]


def _class_group_result(lvl: Level, rows, certified: bool, modulus=None) -> ClassGroupResult:
    """C(N) as the cokernel of the coordinates (`divisor_lattice_coordinates`)
    of the given divisor coefficient rows, which are its generators; the
    rows come checked from `_divisor_rows`, so the divisors are built as
    they are."""
    group = cokernel([row[:-1] for row in rows], len(lvl.degrees) - 1, modulus)
    levels = list(lvl.degrees)
    generators = tuple(CuspDivisor(lvl.N, tuple((d, c) for d, c in zip(levels, row) if c)) for row in rows)
    return ClassGroupResult(N=lvl.N, group=group, generator_divisors=generators, certified=certified)


def class_group(p: int, n: int) -> ClassGroupResult:
    """C(p^n) for p >= 5 prime, as the quotient of the cuspidal divisor
    lattice by the lattice of eta-unit divisors."""
    gens = prime_power_generators(p, n)
    lvl = Level.of({p: n})
    return _class_group_result(lvl, _divisor_rows(lvl, [h.exponents for h in gens]), certified=True)


def class_group_pq(p: int, q: int) -> ClassGroupResult:
    """C(pq) for distinct primes p == q == 1 mod 12, from the three-unit
    lattice. `pq_generators` certifies p and q prime, so N is not factored."""
    gens = pq_generators(p, q)
    lvl = Level.of({p: 1, q: 1})
    return _class_group_result(lvl, _divisor_rows(lvl, [h.exponents for h in gens]), certified=True)


def order_matrices(p: int, n: int) -> OrderMatrices:
    """The matrices M (x24), U, V for X0(p^n)."""
    gens = prime_power_generators(p, n)
    N = p**n
    m24 = [[order_coefficient(N, p**j, p**i) for j in range(n + 1)] for i in range(n + 1)]
    degrees = list(Level.of({p: n}).degrees.values())
    u = [[degrees[i] if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    v = [[dict(h.exponents).get(p**j, 0) for j in range(n + 1)] for h in gens] + [[1] * (n + 1)]
    return OrderMatrices(p=p, n=n, m24=IntMatrix(m24), u=IntMatrix(u), v=IntMatrix(v))


def _exponent_rows(lvl: Level) -> list:
    """Hermite basis of the lattice of exponent vectors, over the divisors of
    N in increasing order, that satisfy all four Ligozat conditions on X0(N).

    The weight-zero condition is solved exactly; the two mod-24 congruences
    and the even-valuation conditions (one per prime dividing N) are imposed
    by a congruence-kernel computation.
    """
    N, deltas = lvl.N, list(lvl.degrees)
    if N < 2:
        raise InputError("N must be at least 2")
    # in the basis e_i - e_last of the weight-zero sublattice, a weight row w
    # becomes w_i - w_last, and coordinates x give the exponents (x, -sum x)
    rows = []
    moduli = []
    for weights in ([d % 24 for d in deltas], [(N // d) % 24 for d in deltas]):
        rows.append([w - weights[-1] for w in weights[:-1]])
        moduli.append(24)
    for weights in lvl.valuations:
        rows.append([(w - weights[-1]) % 2 for w in weights[:-1]])
        moduli.append(2)
    # the kernel comes in Hermite form, and the appended column is a linear
    # function of the others, so the rows stay a Hermite basis
    return [x + [-sum(x)] for x in congruence_kernel(rows, moduli)]


def eta_unit_exponent_basis(N: int) -> list:
    """Hermite basis (as EtaQuotients) of the lattice of exponent vectors
    satisfying all four Ligozat conditions on X0(N)."""
    lvl = level(N)
    return [EtaQuotient.make(N, dict(zip(lvl.degrees, vec))) for vec in _exponent_rows(lvl)]


def _lattice_modulus(lvl: Level) -> int:
    """m(N) = prod over p^a || N of (p^2 - 1) p^(a-1): m(N) * Z^(k-1) lies
    in the lattice L of coordinates (`divisor_lattice_coordinates`) of the
    eta-unit divisors on X0(N), where k = d(N). So the exponent of C(N)
    divides m(N).

    Proof. Write 24M(N) for the k x k matrix of order_coefficient(N, d,
    delta), rows delta, columns d: the divisor of the eta quotient with
    exponents r is r * 24M(N) / 24.
    1. Let T(p, a) be tridiagonal with first row (p, -1, 0, ...), last row
       (..., 0, -1, p) and, for 0 < j < a, row j equal to p^(min(j, a-j) - 1)
       times (..., -p, p^2 + 1, -p, ...); for a = 1, T = [[p, -1], [-1, p]].
       Then 24M(p^a) T(p, a) = (p^2 - 1) p^(a-1) I. Indeed, with rows
       delta = p^i and columns d = p^j, 24M(p^a) has entries
       p^(a - |i-j| - min(j, a-j)), so 24M(p^a) = p^a K D with K = (p^-|i-j|),
       a Kac-Murdock-Szego matrix, and D = diag(p^-min(j, a-j)). K S =
       (p^2 - 1) I for S tridiagonal with diagonal (p^2, p^2 + 1, ...,
       p^2 + 1, p^2) and -p beside it: in an inner column j, row i < j gets
       p^(i-j) (-p^2 + (p^2 + 1) - 1) = 0, row j gets -1 + (p^2 + 1) - 1, and
       the rows below j and the two end columns go alike. So
       (p^2 - 1) p^(a-1) (24M(p^a))^-1 = D^-1 S / p, which is T.
    2. order_coefficient is multiplicative over the p^a || N, so 24M(N) is
       the Kronecker product of the 24M(p^a), and T, the Kronecker product
       of the T(p, a), is an integral matrix with 24M(N) T = T 24M(N) = m I.
       Given z in Z^(k-1), let y be the degree-zero divisor with coordinates
       z; it is integral, as the cusp Q_N has degree 1. Then x = y T is
       integral and x 24M(N) = m y.
    3. The eta quotient with exponents 24x has divisor m y, of degree 0. The
       divisor of an eta quotient with exponents r has degree (sum r) psi(N)
       / 24, so sum x = 0. Then 24x passes all four of Ligozat's conditions,
       and m z, the coordinates of its divisor, lies in L."""
    return prod((p * p - 1) * p ** (a - 1) for p, a in lvl.factors)


def _unit_divisor_rows(lvl: Level) -> list:
    """Hermite basis of the lattice of eta-unit divisors on X0(N), as integer
    coefficient rows over the divisors of N in increasing order. The Hermite
    form runs on the coordinates, where the lattice has full rank, modulo
    `_lattice_modulus`, and the coefficient at Q_N is then put back."""
    deltas = list(lvl.degrees)
    rows = [[(d, r) for d, r in zip(deltas, vec) if r] for vec in _exponent_rows(lvl)]
    coordinates = [row[:-1] for row in _divisor_rows(lvl, rows)]
    basis = hermite_row_basis(coordinates, _lattice_modulus(lvl))
    degrees = list(lvl.degrees.values())
    return [x + [-sum(c * phi for c, phi in zip(x, degrees))] for x in basis]


def eta_unit_divisor_lattice(N: int) -> list:
    """Canonical basis of the lattice of divisors of Ligozat-valid eta
    quotients on X0(N). For N = p^n with p >= 5 this is the full lattice of
    principal cuspidal divisors."""
    lvl = level(N)
    return [CuspDivisor.make(N, dict(zip(lvl.degrees, vec))) for vec in _unit_divisor_rows(lvl)]


# The budget of the generic path, in the two sizes its cost grows with: its
# eliminations work on d(N) - 1 columns with entries below m(N)^2
# (`_lattice_modulus`), and its order coefficients lie below N < m(N). The
# slowest allowed levels measured, with 8 primes, 256 cusp levels and m(N)
# near 2^128, take about 10 s of CPU; 9699690 takes about 4 s.
MAX_GENERIC_LEVELS = 256
MAX_GENERIC_MODULUS_BITS = 128


def class_group_for_level(N: int) -> ClassGroupResult:
    """C(N) for arbitrary N, dispatching to a certified computation when the
    eta-unit lattice is known to fill out all principal cuspidal divisors and
    flagging the result as an upper bound otherwise. A level outside the
    certified families with more than MAX_GENERIC_LEVELS cusp levels, or
    with m(N) of more than MAX_GENERIC_MODULUS_BITS bits, raises ScopeError
    before any lattice work."""
    if N < 1:
        raise InputError("level N must be positive")
    if N == 1:
        return ClassGroupResult(
            N=1, group=AbelianGroup.trivial(), generator_divisors=(), certified=True
        )
    lvl = level(N)
    if len(lvl.factors) == 1:
        ((p, n),) = lvl.factors
        if p >= 5:
            return class_group(p, n)
    if len(lvl.factors) == 2 and all(e == 1 for _, e in lvl.factors):
        p, q = lvl.primes
        if p % 12 == 1 and q % 12 == 1:
            return class_group_pq(p, q)
    levels = len(lvl.degrees)
    modulus = _lattice_modulus(lvl)
    if levels > MAX_GENERIC_LEVELS or modulus.bit_length() > MAX_GENERIC_MODULUS_BITS:
        raise ScopeError(
            f"N = {N} has {levels} cusp levels and m(N) of {modulus.bit_length()} bits; the generic"
            f" path takes at most {MAX_GENERIC_LEVELS} levels and {MAX_GENERIC_MODULUS_BITS} bits"
        )
    return _class_group_result(lvl, _unit_divisor_rows(lvl), certified=False, modulus=modulus)
