"""Rational torsion of the generalized Jacobian of X0(N) with the reduced
cuspidal modulus.

The route: evaluate eta units at cusps (normalized by the chosen
uniformizers), discard root-of-unity parts, and read off the lattice map
into the free groups generated by p at the rational cusp and sqrt(p*) at
the cyclotomic ones. Its cokernel feeds a snake-lemma computation whose
kernel is the obstruction to injectivity of the connecting map on the
cuspidal divisor class group.
"""

from math import gcd

from .classgroup import class_group_pq, divisor_lattice_coordinates
from .curve import Level
from .errors import InputError, ScopeError
from .eta import divisor, prime_power_generators
from .linalg import AbelianGroup, IntMatrix, cokernel, is_prime, record
from .transform import _c_valuations, pq_leading_coefficients, sigma_matrix


class TorsionResult(record("TorsionResult", "conditional kernel mu_part up_to_2_torsion", defaults=(None,))):
    """Torsion of the generalized Jacobian assembled from the cuspidal data.

    On X0(p^n) the connecting-map kernel is asserted trivial, so the torsion
    is `mu_part`. For the pq case the extension is not resolved: only the
    order and `up_to_2_torsion`, the cyclic group it equals up to 2-torsion,
    are known.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return self.kernel.order * self.mu_part.order


def delta_matrix(p: int, n: int) -> IntMatrix:
    """Matrix of the unit-evaluation map on X0(p^n) in the bases
    (div f, div g_0, ..., div g_(n-2)) and (p, sqrt(p*), ..., sqrt(p*)):
    the leading coefficient at the base cusp over the one at each other
    cusp, roots of unity discarded. Only p-parts count, and at the cusp of
    sigma the one of prod eta(delta z)^r has half-exponent -sum r v_p(c) over
    its factors, all with a square-root part, so each sigma gives the
    v_p(c) of every eta(p^k z) at once (`transform._c_valuations`).

    Equals the lower-triangular matrix with diagonal (a', 1, ..., 1),
    a' = 12/gcd(p-1, 12), first column (a', 1, ..., 1) and interior
    entries 2.
    """
    gens = prime_power_generators(p, n)  # checks p before any valuation
    # table[p^k][m] = v_p(c) for eta(p^k sigma_m z), with no other prime in c
    by_sigma = [_c_valuations(sigma_matrix(p, n, m), [(p, range(n + 1))]) for m in range(n + 1)]
    assert all(rest == 1 for _, rest in by_sigma), f"c has a prime outside {(p,)}"
    table = {p**k: row for k, row in enumerate(zip(*(rows[0] for rows, _ in by_sigma)))}
    rows = []
    for h in gens:
        assert sum(r for _, r in h.exponents) == 0, "square-root factors failed to cancel"
        (d0, r0), (d1, r1) = h.exponents  # f and every g_k have two factors
        half = [-r0 * x - r1 * y for x, y in zip(table[d0], table[d1])]
        # the base and level-1 cusps are rational: the value is a plain
        # power of p, so the half-exponent difference must be even
        diff = half[n] - half[0]
        assert diff % 2 == 0, "non-rational evaluation at a rational cusp"
        rows.append([diff // 2] + [half[n] - half[m] for m in range(1, n)])
    return IntMatrix(rows)


def _check_triangular(dm: IntMatrix, corner: int) -> None:
    """AssertionError unless dm is lower triangular with diagonal (corner, 1, ...); ValueError if not square."""
    for i, row in zip(range(dm.ncols), dm, strict=True):
        if row[i] != (corner if i == 0 else 1) or any(row[i + 1 :]):
            raise AssertionError("delta matrix is not lower triangular with diagonal (a', 1, ..., 1)")


def delta_cokernel(matrix: IntMatrix) -> AbelianGroup:
    """Cokernel of the unit-evaluation map given by its matrix (as built by
    `delta_matrix`), which must be lower triangular with diagonal (a', 1, ...,
    1): its minor without row and column 0 is unitriangular, so it is Z/|a'|."""
    _check_triangular(matrix, matrix[0, 0])
    return cokernel([[matrix[0, 0]]], 1)


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

    The evaluation matrix dm must be lower triangular with diagonal
    (a', 1, ..., 1). Then dm^T.y = e_0 back-substitutes to a'.y = e_0, so X
    is the coordinate row of div f. This is the cokernel of the columns of
    [W | dm] that `pq_delta_kernel` takes, W the coordinates of the
    generator divisors, specialised to this dm; it needs only div f.
    """
    a_prime = 12 // gcd(p - 1, 12)
    _check_triangular(delta_matrix(p, n), a_prime)
    f, lvl = prime_power_generators(p, n)[0], Level.of({p: n})  # {p: n} needs no factorization
    quotient = gcd(a_prime, *divisor_lattice_coordinates(divisor(f, lvl), lvl))
    return AbelianGroup.from_cyclic_orders([quotient])


def mu_contribution(p: int, n: int) -> AbelianGroup:
    """Roots of unity in the residue fields of the non-base cusps of X0(p^n):
    the cusp of level p^i contributes a cyclic group of order 2 p^min(i,n-i).
    Sorted, these orders are already a divisibility chain (AbelianGroup checks)."""
    if not is_prime(p) or p == 2:
        raise ScopeError(f"p = {p} must be an odd prime")
    if n < 1:
        raise InputError("n must be positive")
    return AbelianGroup(sorted(2 * p ** min(i, n - i) for i in range(n)))


def generalized_torsion(p: int, n: int) -> TorsionResult:
    """Rational torsion of the generalized Jacobian of X0(p^n).

    The connecting-map kernel is computed and must come out trivial, so the
    torsion is exactly the direct sum of the cusp root-of-unity groups. The
    result for n = 1 is unconditional; for n >= 2 it assumes the cuspidal
    class group fills up the rational torsion of the classical Jacobian.
    """
    kernel = delta_kernel_on_cuspidal(p, n)
    if not kernel.is_trivial:
        raise AssertionError(
            f"connecting map unexpectedly fails to be injective for ({p}, {n})"
        )
    return TorsionResult(conditional=(n >= 2), kernel=kernel, mu_part=mu_contribution(p, n))


def pq_delta_kernel(p: int, q: int, table=None, generator_divisors=None) -> TorsionResult:
    """Kernel of the connecting map on the cuspidal class group of X0(pq)
    for distinct primes p == q == 1 mod 12, with the root-of-unity part and
    order bookkeeping of the generalized Jacobian torsion.

    All four cusps are rational, so the evaluation lattice is free on p and
    q at each of the three non-base cusps; the kernel comes out cyclic of
    order (p-1)(q-1)/24 and the total torsion order is (p-1)(q-1)/3, cyclic
    up to 2-torsion. The extension itself is not resolved. `table` is
    `pq_leading_coefficients(p, q)` and `generator_divisors` the divisors of
    `pq_generators(p, q)` (`class_group_pq(p, q).generator_divisors`), each
    computed here when not given. W, the coordinates of those divisors
    (`divisor_lattice_coordinates`, on a level record that factors nothing),
    must have full rank: `cokernel` raises ValueError otherwise.
    """
    if generator_divisors is None:
        generator_divisors = class_group_pq(p, q).generator_divisors
    if table is None:
        table = pq_leading_coefficients(p, q)
    N = p * q
    levels = (1, p, q)
    primes = (p, q)
    lc_rows = []
    for name in ("f1", "f2", "f3"):
        lcs = {level: expansion.leading for level, expansion in table[name].items()}
        row = []
        for level in levels:
            for ell in primes:
                diff = lcs[N].half_exponent(ell) - lcs[level].half_exponent(ell)
                assert diff % 2 == 0, "non-rational evaluation at a rational cusp"
                row.append(diff // 2)
        lc_rows.append(row)
    lvl = Level.of({p: 1, q: 1})
    w = [divisor_lattice_coordinates(d, lvl) for d in generator_divisors]
    cokernel(w, 3)  # ValueError unless W has full rank
    # the kernel is {x in Z^3 : x . W^-1 . lc_rows integral} modulo the rows
    # of W; with y = x . W^-1 it is {y in Q^3 : y . [W | lc_rows] integral}
    # modulo Z^3, the dual of the lattice spanned by the nine columns of
    # [W | lc_rows], so its structure is the cokernel of those columns
    kernel_group = cokernel([*zip(*w), *zip(*lc_rows)], 3)
    return TorsionResult(
        conditional=True,
        kernel=kernel_group,
        mu_part=AbelianGroup((2, 2, 2)),
        up_to_2_torsion=AbelianGroup.from_cyclic_orders([(p - 1) * (q - 1) // 3]),
    )
