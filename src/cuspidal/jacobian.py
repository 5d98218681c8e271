"""Rational torsion of the generalized Jacobian of X0(N) with the reduced
cuspidal modulus.

The route: evaluate eta units at cusps (normalized by the chosen
uniformizers), discard root-of-unity parts, and read off the lattice map
into the free groups generated by p at the rational cusp and sqrt(p*) at
the cyclotomic ones. Its cokernel feeds a snake-lemma computation whose
kernel is the obstruction to injectivity of the connecting map on the
cuspidal divisor class group.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .classgroup import divisor_lattice_coordinates
from .curve import CuspDivisor
from .errors import InputError, ScopeError
from .eta import EtaQuotient, divisor, pq_generators, prime_power_generators
from .linalg import (
    AbelianGroup,
    IntMatrix,
    QmodZ,
    cokernel,
    congruence_kernel,
    factorize,
    is_prime,
    quotient_structure,
    solve_exact,
)
from .transform import cusp_expansion, pq_leading_coefficients, sigma_matrix


@dataclass(frozen=True)
class TorsionResult:
    """Torsion of the generalized Jacobian assembled from the cuspidal data.

    `group` is the resolved structure when the connecting-map kernel is
    trivial and the extension degenerates; for the pq case the extension is
    not resolved and only the order and the up-to-2-torsion statement are
    reported (`group` is None, `up_to_2_torsion` carries the cyclic group).
    """

    conditional: bool
    kernel: AbelianGroup
    mu_part: AbelianGroup
    group: AbelianGroup = None
    up_to_2_torsion: AbelianGroup = None
    note: str = ""

    @property
    def order(self) -> int:
        return self.kernel.order * self.mu_part.order


def _require_p_at_least_5(p):
    if not is_prime(p) or p < 5:
        raise ScopeError(f"p = {p} is not a prime >= 5")


def _lambda_image(h: EtaQuotient, p: int, sigmas: list) -> tuple:
    """Image of div h under the unit-evaluation map on X0(p^n), with
    `sigmas` the uniformizers of the cusps of levels p^0, ..., p^n: the
    coordinates in the basis (p; sqrt(p*), ..., sqrt(p*)) of the leading
    coefficient at the base cusp divided by the one at each other cusp,
    roots of unity discarded."""
    lcs = [cusp_expansion(h, sigma).leading for sigma in sigmas]
    for lc in lcs:
        foreign = [prime for prime, _ in lc.half_exponents if prime != p]
        assert not foreign, f"unexpected primes {foreign} in a leading coefficient"
    base = lcs[-1].half_exponent(p)
    coords = []
    for i in range(len(lcs) - 1):
        diff = base - lcs[i].half_exponent(p)
        if i == 0:
            # the base and level-1 cusps are rational: the value is a plain
            # power of p, so the half-exponent difference must be even
            assert diff % 2 == 0, "non-rational evaluation at a rational cusp"
            coords.append(diff // 2)
        else:
            coords.append(diff)
    return tuple(coords)


def delta_matrix(p: int, n: int) -> IntMatrix:
    """Matrix of the unit-evaluation map on X0(p^n) in the bases
    (div f, div g_0, ..., div g_(n-2)) and (p, sqrt(p*), ..., sqrt(p*)),
    built from the exact leading-coefficient tables.

    Equals the lower-triangular matrix with diagonal (a', 1, ..., 1),
    a' = 12/gcd(p-1, 12), first column (a', 1, ..., 1) and interior
    entries 2.
    """
    _require_p_at_least_5(p)
    if n < 1:
        raise InputError("n must be positive")
    sigmas = [sigma_matrix(p, n, m) for m in range(n + 1)]
    return IntMatrix([_lambda_image(h, p, sigmas) for h in prime_power_generators(p, n)])


def delta_cokernel(matrix: IntMatrix) -> AbelianGroup:
    """Cokernel of the unit-evaluation map given by its matrix (as built by
    `delta_matrix`): cyclic of order 12/gcd(p-1,12)."""
    return cokernel(matrix, matrix.ncols)


def _unit_matrix_in_divisor_basis(p, n):
    """Rows: div f, div g_k in the coordinates of the basis D_0..D_(n-1)."""
    return [divisor_lattice_coordinates(divisor(h)) for h in prime_power_generators(p, n)]


def delta_kernel_on_cuspidal(p: int, n: int) -> AbelianGroup:
    """Kernel of the connecting map restricted to the cuspidal divisor class
    group of X0(p^n).

    The cokernel of the unit-evaluation map is cyclic of order a' generated
    by the class of p; the kernel is determined by the least b for which
    b.(class of p) already lies in the image of the integral divisors under
    the rational extension of the map. With x the rational divisor
    coordinates of the preimage of the class of p and X = a'.x, which is
    integral, that b is a'/gcd(a', X), and the kernel is cyclic of order
    a'/b = gcd(a', X).
    """
    _require_p_at_least_5(p)
    a_prime = 12 // gcd(p - 1, 12)
    dm = delta_matrix(p, n)
    for i in range(n):
        for j in range(i, n):
            if dm[i, j] != ((a_prime if i == 0 else 1) if i == j else 0):
                raise AssertionError("delta matrix is not lower triangular with diagonal (a', 1, ..., 1)")
    # dm^T is upper triangular with diagonal (a', 1, ..., 1), so Y = a'.y for
    # the solution of dm^T.y = e_0 back-substitutes in integers
    Y = [0] * n
    for j in reversed(range(n)):
        rest = sum(dm[i, j] * Y[i] for i in range(j + 1, n))
        Y[j] = (a_prime - rest) // a_prime if j == 0 else -rest
    w = _unit_matrix_in_divisor_basis(p, n)
    X = [sum(w[i][j] * Y[i] for i in range(n)) for j in range(n)]
    quotient = gcd(a_prime, *X)
    return AbelianGroup((quotient,)) if quotient > 1 else AbelianGroup.trivial()


def mu_contribution(p: int, n: int) -> AbelianGroup:
    """Roots of unity in the residue fields of the non-base cusps of X0(p^n):
    the cusp of level p^i contributes a cyclic group of order 2 p^min(i,n-i)."""
    if not is_prime(p) or p == 2:
        raise ScopeError(f"p = {p} must be an odd prime")
    if n < 1:
        raise InputError("n must be positive")
    orders = [2 * p ** min(i, n - i) for i in range(n)]
    return AbelianGroup.from_cyclic_orders(orders)


def generalized_torsion(p: int, n: int) -> TorsionResult:
    """Rational torsion of the generalized Jacobian of X0(p^n).

    The connecting-map kernel is computed and must come out trivial, so the
    torsion is exactly the direct sum of the cusp root-of-unity groups. The
    result for n = 1 is unconditional; for n >= 2 it assumes the cuspidal
    class group fills up the rational torsion of the classical Jacobian.
    """
    _require_p_at_least_5(p)
    kernel = delta_kernel_on_cuspidal(p, n)
    if not kernel.is_trivial:
        raise AssertionError(
            f"connecting map unexpectedly fails to be injective for ({p}, {n})"
        )
    mu = mu_contribution(p, n)
    return TorsionResult(
        conditional=(n >= 2),
        kernel=kernel,
        mu_part=mu,
        group=mu,
        note="direct sum: the connecting-map kernel is trivial",
    )


def evaluate_delta_class(E: CuspDivisor, m: int, h: EtaQuotient):
    """Image of the order-m class of E under the connecting map, as the
    vector of exponents tensor 1/m in the evaluation lattice.

    `h` must be an eta unit with div(h) = m.E; the returned coordinates are
    the classes in Q/Z of (exponent of the lattice generator) / m, one per
    non-base cusp.
    """
    factors = factorize(E.N)
    if len(factors) != 1:
        raise ScopeError(f"level {E.N} is not a prime power")
    ((p, n),) = factors.items()
    if m < 1:
        raise InputError("the annihilator m must be positive")
    if divisor(h) != m * E:
        raise InputError("div(h) != m * E")
    sigmas = [sigma_matrix(p, n, k) for k in range(n + 1)]
    return [QmodZ.of(coord, m) for coord in _lambda_image(h, p, sigmas)]


def pq_delta_kernel(p: int, q: int, table=None, generator_divisors=None) -> TorsionResult:
    """Kernel of the connecting map on the cuspidal class group of X0(pq)
    for distinct primes p == q == 1 mod 12, with the root-of-unity part and
    order bookkeeping of the generalized Jacobian torsion.

    All four cusps are rational, so the evaluation lattice is free on p and
    q at each of the three non-base cusps; the kernel comes out cyclic of
    order (p-1)(q-1)/24 and the total torsion order is (p-1)(q-1)/3, cyclic
    up to 2-torsion. The extension itself is not resolved. `table` is
    `pq_leading_coefficients(p, q)` and `generator_divisors` the divisors of
    `pq_generators(p, q)` (as in `class_group_pq`), each computed here when
    not given.
    """
    if generator_divisors is None:
        generator_divisors = [divisor(h) for h in pq_generators(p, q)]
    if table is None:
        table = pq_leading_coefficients(p, q)
    N = p * q
    levels = (1, p, q)
    primes = (p, q)
    lc_rows = []
    for name in ("f1", "f2", "f3"):
        lcs = {level: expansion.leading for level, expansion in table[name].items()}
        for lc in lcs.values():
            foreign = [ell for ell, _ in lc.half_exponents if ell not in primes]
            assert not foreign, f"unexpected primes {foreign} in a pq leading coefficient"
        row = []
        for level in levels:
            for ell in primes:
                diff = lcs[N].half_exponent(ell) - lcs[level].half_exponent(ell)
                assert diff % 2 == 0, "non-rational evaluation at a rational cusp"
                row.append(diff // 2)
        lc_rows.append(row)
    w = [divisor_lattice_coordinates(d) for d in generator_divisors]
    # extension of the evaluation map to all of the divisor lattice: rows
    # delta_tilde(D_j) = (row j of W^-1 . lc_rows), exact rationals
    w_t = [list(col) for col in zip(*w)]
    delta_tilde = []
    for j in range(3):
        target = [Fraction(1 if i == j else 0) for i in range(3)]
        y = solve_exact(w_t, target)
        delta_tilde.append(
            [sum(y[i] * lc_rows[i][c] for i in range(3)) for c in range(6)]
        )
    denominator = 1
    for row in delta_tilde:
        for value in row:
            denominator = denominator * value.denominator // gcd(denominator, value.denominator)
    cols = [
        [int(delta_tilde[j][c] * denominator) for j in range(3)] for c in range(6)
    ]
    kernel_lattice = congruence_kernel(cols, [denominator] * 6)
    kernel_group = quotient_structure(kernel_lattice, w)
    mu = AbelianGroup((2, 2, 2))
    return TorsionResult(
        conditional=True,
        kernel=kernel_group,
        mu_part=mu,
        group=None,
        up_to_2_torsion=AbelianGroup.from_cyclic_orders([(p - 1) * (q - 1) // 3]),
        note="extension not resolved; cyclic of order (p-1)(q-1)/3 up to 2-torsion",
    )


@dataclass(frozen=True)
class SplitInjectionReport:
    """Documentation of the reduction step that justifies discarding root-of-
    unity parts: comparing values in Q with values in the cyclotomic field of
    conductor p^m loses exactly the order-2 class of p* tensor 1/2, so all
    2-torsion conclusions are sensitive to that convention."""

    p: int
    m: int
    reduction_generators: tuple
    comparison_kernel: tuple
    caveat: str


def split_injection_scope(p: int, m: int) -> SplitInjectionReport:
    if not is_prime(p) or p == 2:
        raise ScopeError(f"p = {p} must be an odd prime")
    if m < 1:
        raise InputError("m must be positive")
    return SplitInjectionReport(
        p=p,
        m=m,
        reduction_generators=("p", "sqrt(p*)"),
        comparison_kernel=("1", f"{p}* (x) 1/2"),
        caveat=(
            "class reductions discard only root-of-unity factors; comparing "
            "rational classes inside the cyclotomic field kills exactly the "
            "order-2 class above, so 2-torsion statements are convention-bound"
        ),
    )
