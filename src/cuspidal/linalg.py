"""Exact integer linear algebra: dense matrices, Smith normal form, Hermite
bases, congruence kernels, and invariant factors of finite abelian groups.

Everything here is exact; no floating point is used anywhere in this module.
"""

import itertools
import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd, prod

from .errors import InputError, ScopeError


def _not_a_sequence(self, other):
    raise TypeError(f"a {type(self).__name__} record cannot be added to or repeated like a tuple")


def record(name, fields, **options):
    """A named tuple class, defined in the calling module, on which `+` and
    `*` raise TypeError: tuple concatenation and repetition mean nothing
    for a record. They raise rather than return NotImplemented, or Python
    would fall back to the tuple's own `() + r` and `3 * r`. A subclass may
    still define `*` (an eta quotient's product)."""
    cls = namedtuple(name, fields, module=sys._getframe(1).f_globals["__name__"], **options)
    cls.__add__ = cls.__radd__ = cls.__mul__ = cls.__rmul__ = _not_a_sequence
    return cls


class QmodZ(record("QmodZ", "value")):
    """A rational number reduced modulo 1 into [0, 1).

    Used throughout as the exponent of a root of unity e^(2*pi*i*value).
    """

    __slots__ = ()

    def __new__(cls, value):
        if not (0 <= value < 1):
            raise ValueError(f"QmodZ value {value} not reduced into [0,1)")
        return super().__new__(cls, value)

    @classmethod
    def of(cls, numerator, denominator=1):
        return cls(Fraction(numerator, denominator) % 1)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)


class IntMatrix:
    """Dense matrix of arbitrary-precision integers, immutable after construction."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        entries = tuple(tuple(int(x) for x in row) for row in rows)
        if entries and any(len(r) != len(entries[0]) for r in entries):
            raise ValueError("ragged rows")
        self.entries = entries

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.entries))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.entries]
        )

    def diagonal(self):
        return [self.entries[i][i] for i in range(min(self.nrows, self.ncols))]

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"


class SmithDecomposition(record("SmithDecomposition", "d p q")):
    """P * A * Q = D with P, Q unimodular and D diagonal with d1 | d2 | ..."""

    __slots__ = ()


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transformation matrices: one nearest-quotient
    round and then extended-gcd steps on each pivot's row and column, then
    the sorted diagonal made a chain (`_smith_reduce`). Every
    choice is a fixed function of the input, so P and Q are deterministic."""
    nr, nc = a.nrows, a.ncols
    m = [list(row) for row in a]
    p = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    q = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    _smith_reduce(m, p, q)
    return SmithDecomposition(IntMatrix(m), IntMatrix(p), IntMatrix(q))


def _reduce_rows(rows, t, modulus):
    """Reduce mod `modulus`, from column t on, each of the rows (zero before
    column t) that holds an entry outside [-modulus/2, modulus/2]."""
    half = modulus // 2
    for row in rows:
        if max(row) > half or min(row) < -half:
            _centre(row, t, modulus)


def _egcd(a: int, b: int) -> tuple:
    """(g, u, v) with a*u + b*v = g = gcd(a, b) >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        quot = a // b
        a, b, u0, u1, v0, v1 = b, a - quot * b, u1, u0 - quot * u1, v1, v0 - quot * v1
    return (a, u0, v0) if a >= 0 else (-a, -u0, -v0)


def _smith_reduce(m, p=None, q=(), modulus=None):
    """Reduce the rows m (lists, changed in place) to Smith form, applying
    each row operation to p and each column operation to q too, when they
    are given (Kannan-Bachem; Cohen, GTM 138, section 2.4).

    `modulus`, for a call without p and q, is an m with m*Z^k inside the row
    span, and the rows are then kept reduced mod m: each pivot starts by
    reducing the rows that the pivot before it changed (a row that a pivot
    changes is nonzero in its column in one of its rounds, so it is in one
    of its `rows`), and `_gcd_steps` reduces as it goes. The diagonal is then
    right only up to its gcd with m (see `cokernel`).

    Each round of pivot t first moves the entry of least absolute value of
    its row and column (row first) to (t, t). The first round reduces the
    row and column with nearest quotients: row operations over the pivot
    row's support, column operations over the rows nonzero in the pivot
    column. A pivot that this round leaves stalled is finished by rounds of
    extended-gcd steps (`_gcd_steps`), each of which leaves at (t, t) a
    divisor of the pivot, a proper one unless the row and column clear. The
    first round keeps the entries small: without it, the transforms of the
    coordinate matrix of C(5^20) grow from 92 to 427 bits. The nonzero
    diagonal, with the rows of p and columns of q, is then sorted; unless
    that makes it a chain d1 | d2 | ..., one gcd/lcm step per pair does."""
    nr, nc = len(m), len(m[0]) if m else 0
    p = [[] for _ in m] if p is None else p
    touched = set(range(nr))
    for t in range(min(nr, nc)):
        if modulus and touched:
            _reduce_rows([m[k] for k in touched if k >= t], t, modulus)
            touched.clear()
        found = next(((i, j) for i in range(t, nr) for j in range(t, nc) if m[i][j]), None)
        if found is None:
            break
        i, j = found
        rounded = False
        while True:
            m[t], m[i], p[t], p[i] = m[i], m[t], p[i], p[t]
            if j != t:
                for row in (*m, *q):
                    row[t], row[j] = row[j], row[t]
            rows = [k for k in range(t + 1, nr) if m[k][t]]
            cols = [k for k in range(t + 1, nc) if m[t][k]]
            if not rows and not cols:
                break
            touched.update(rows)
            x = min([m[t][t], *(m[t][k] for k in cols), *(m[k][t] for k in rows)], key=abs)
            if x != m[t][t]:
                j = next((k for k in cols if m[t][k] == x), t)
                i = t if j != t else next(k for k in rows if m[k][t] == x)
                continue
            i = j = t
            if rounded:
                _gcd_steps(m, p, q, t, rows, modulus)
                continue
            rounded = True
            pivot_row = m[t]
            support = [t, *cols]
            for k in rows:
                quot, row = (2 * m[k][t] + x) // (2 * x), m[k]
                for c in support:
                    row[c] -= quot * pivot_row[c]
                p[k] = [y - quot * z for y, z in zip(p[k], p[t])]
            live = [pivot_row, *(m[k] for k in rows if m[k][t]), *(row for row in q if row[t])]
            for c in cols:
                quot = (2 * pivot_row[c] + x) // (2 * x)
                for row in live:
                    row[c] -= quot * row[t]
        if m[t][t] < 0:
            m[t], p[t] = [-y for y in m[t]], [-y for y in p[t]]
    rank = sum(1 for t in range(min(nr, nc)) if m[t][t])
    order = sorted(range(rank), key=lambda t: m[t][t])
    diagonal, p[:rank] = [m[t][t] for t in order], [p[t] for t in order]
    for t, x in enumerate(diagonal):
        m[t][t] = x
    for row in q:
        row[:rank] = [row[t] for t in order]
    if all(b % a == 0 for a, b in zip(diagonal, diagonal[1:])):
        return
    for i, j in itertools.combinations(range(rank), 2):
        a, b = m[i][i], m[j][j]
        if b % a:
            g, u, v = _egcd(a, b)
            m[i][i], m[j][j] = g, a // g * b
            pi, pj = p[i], p[j]
            p[i] = [u * x + v * y for x, y in zip(pi, pj)]
            p[j] = [(a * y - b * x) // g for x, y in zip(pi, pj)]
            for row in q:
                x, y = row[i], row[j]
                row[i], row[j] = x + y, (u * a * y - v * b * x) // g


def _unimodular(a: int, b: int) -> tuple:
    """(u, v, s, w) with u*w - v*s = 1, u*a + v*b = gcd(a, b) up to sign and
    s*a + w*b = 0: (1, 0, -b/a, 1) when a divides b, else from _egcd."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g, u, v = _egcd(a, b)
    return u, v, -b // g, a // g


def _row_step(a, b, step, cols):
    """Apply the step (u, v, s, w) of _unimodular to the rows a and b over
    the columns `cols`: a, b = u*a + v*b, s*a + w*b. When v is 0, u = w = 1,
    so a stays as it is and only b changes."""
    u, v, s, w = step
    if v:
        for c in cols:
            x, y = a[c], b[c]
            a[c], b[c] = u * x + v * y, s * x + w * y
    else:
        for c in cols:
            b[c] += s * a[c]


def _gcd_steps(m, p, q, t, rows, modulus=None):
    """One extended-gcd round of pivot t: a unimodular 2x2 step of row t
    with each row in `rows`, over their supports, then of column t with each
    column nonzero in row t, over the rows nonzero in either column. A step
    whose entry the pivot divides leaves row (column) t as it is, so it runs
    over the support of row t (the rows nonzero in column t) alone. With a
    `modulus` (see `_smith_reduce`), each step reduces what it changed mod
    m: row t gathers a factor of the size of every row it meets, so without
    this its entries grow with the number of rows."""
    pivot_row, width = m[t], len(m[t])
    support = [c for c in range(t, width) if pivot_row[c]]
    for k in rows:
        row = m[k]
        u, v, s, w = step = _unimodular(pivot_row[t], row[t])
        if v:
            cols = [c for c in range(t, width) if pivot_row[c] or row[c]]
            _row_step(pivot_row, row, step, cols)
            support = [c for c in cols if pivot_row[c]]
        else:
            _row_step(pivot_row, row, step, support)
        if modulus:
            _reduce_rows((pivot_row,), t, modulus)
        pt, pk = p[t], p[k]
        p[t] = [u * x + v * y for x, y in zip(pt, pk)]
        p[k] = [s * x + w * y for x, y in zip(pt, pk)]
    # the rows above t are zero from column t on
    live = [row for row in (*m[t:], *q) if row[t]]
    for c in support[1:]:  # support[0] is t, as the pivot is not 0
        u, v, s, w = _unimodular(pivot_row[t], pivot_row[c])
        if v:
            live = [row for row in (*m[t:], *q) if row[t] or row[c]]
        for row in live:
            x, y = row[t], row[c]
            row[t], row[c] = u * x + v * y, s * x + w * y
        if modulus:
            for row in live:
                if row is not pivot_row:
                    row[t] %= modulus
                    row[c] %= modulus
        if v:
            live = [row for row in live if row[t]]


class AbelianGroup(record("AbelianGroup", "invariant_factors")):
    """Finite abelian group given by its invariant factors d1 | d2 | ... (each > 1).

    The trivial group is the empty factor list.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors=()):
        given = tuple(invariant_factors)
        factors = tuple(int(f) for f in given)
        if factors != given:
            raise ValueError(f"invariant factors {given} are not integers")
        for f in factors:
            if f <= 1:
                raise ValueError(f"invariant factor {f} must exceed 1")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {factors} violate the divisibility chain")
        return super().__new__(cls, factors)

    @classmethod
    def from_cyclic_orders(cls, orders) -> "AbelianGroup":
        """Invariant factors of a direct sum of cyclic groups of the given
        orders: the cokernel of the diagonal matrix of the sorted orders."""
        orders = sorted(int(order) for order in orders)
        if orders and orders[0] < 1:
            raise ValueError(f"cyclic order {orders[0]} must be positive")
        k = len(orders)
        return cokernel([[x if i == j else 0 for j in range(k)] for i, x in enumerate(orders)], k)

    @property
    def order(self) -> int:
        """The product of the invariant factors, taken pairwise in a balanced
        tree, so that no step multiplies a large product by a small factor."""
        factors = list(self.invariant_factors) or [1]
        while len(factors) > 1:
            factors = [prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
        return factors[0]

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors


# Miller-Rabin with the first 13 prime bases is exact below _MR_LIMIT
# (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_TRIAL_LIMIT = 256
# Pollard rho iterations spent on a composite too large to be sure of a factor.
_RHO_STEPS = 1 << 16


def factorize(n: int) -> dict:
    """Prime factorization {p: exponent} of a positive integer: trial
    division below 256, then perfect-power roots, Miller-Rabin and Pollard
    rho on what is left. Raises ScopeError for a factor that is a probable
    prime of 3.3e24 or more, which cannot be certified, or a composite
    factor of that size in which Pollard rho finds no factor within 2^16
    steps."""
    if n < 1:
        raise InputError("factorize expects a positive integer")
    out = {}
    m = n
    p = 2
    while p * p <= m and p < _TRIAL_LIMIT:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1 and p * p > m:
        out[m] = out.get(m, 0) + 1
    elif m > 1:
        stack = [(m, 1)]
        while stack:
            c, k = stack.pop()
            c, e = _perfect_power(c)
            if is_prime(c):
                out[c] = out.get(c, 0) + k * e
                continue
            f = _pollard_rho(c, None if _certifiable(c) else _RHO_STEPS)
            if f is None:
                raise ScopeError(f"cannot factorize {n}: no factor of {c} found")
            stack += [(f, k * e), (c // f, k * e)]
        out = dict(sorted(out.items()))
    return out


def _certifiable(n: int) -> bool:
    """Whether Miller-Rabin with _MR_BASES decides the primality of n, so that
    a composite n has a factor below 1.9e12 for Pollard rho to find."""
    return n < _MR_LIMIT


def _perfect_power(n: int) -> tuple:
    """(r, e) with r**e == n and e largest, for n free of primes below 256."""
    e = 1
    k = 2
    while 8 * k < n.bit_length():
        r = _integer_root(n, k)
        if r**k == n:
            n, e = r, e * k
        else:
            k += 1
    return n, e


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1 (Newton's method from above)."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _pollard_rho(n: int, steps=None):
    """A proper factor of an odd composite n (Pollard rho, Floyd cycles), or
    None when none turns up within `steps` iterations (None: no limit)."""
    budget = itertools.count() if steps is None else iter(range(steps))
    for c in itertools.count(1):
        x = y = 2
        g = 1
        while g == 1:
            if next(budget, None) is None:
                return None
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return g


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24. Raises ScopeError for a
    larger n that no base proves composite."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if not _certifiable(n):
        raise ScopeError(f"cannot certify that {n} is prime (only exact below 3.3e24)")
    return True


def solve_exact(rows, rhs):
    """Solve A.x = rhs exactly over the rationals; A given by rows.

    Requires the solution to be unique (full column rank). Raises ValueError
    when the system is inconsistent or underdetermined. Entries may be ints
    or Fractions.
    """
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(m[0]) - 1 if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return x


def express_in_basis(basis, vector):
    """Coordinates of `vector` in the given basis of row vectors (exact rationals)."""
    cols = list(zip(*basis))
    return solve_exact(cols, vector)


def cokernel(rows, k: int, modulus=None) -> AbelianGroup:
    """Structure of Z^k modulo the span of the given integer rows of length k,
    read off the diagonal of a Smith normal form built without transforms.

    Raises ValueError when the rows span a lattice of rank below k (the
    quotient is then infinite).

    `modulus`, when given, must be an m with m*Z^k inside the span, proven
    by the caller. Adding a multiple of m*e_j to a row, or applying a
    unimodular column operation, keeps the span plus m*Z^k the same, so the
    Smith form runs on rows reduced mod m, whose entries stay bounded (Cohen,
    GTM 138, Alg. 2.4.14). Its diagonal d_1 | ... | d_k, zeros last, gives Z^k
    modulo (d_i) + m*Z^k, that is the sum of the Z/gcd(d_i, m).
    """
    rows = [list(v) for v in rows]
    if any(len(v) != k for v in rows):
        raise ValueError(f"rows must have length {k}")
    _smith_reduce(rows, modulus=modulus)
    diag = [rows[i][i] if i < len(rows) else 0 for i in range(k)]
    if modulus:
        diag = [gcd(d, modulus) for d in diag]
    if sum(1 for d in diag if d != 0) < k:
        raise ValueError("sub lattice has smaller rank; quotient is infinite")
    return AbelianGroup(tuple(d for d in diag if d > 1))


def hermite_row_basis(vectors, modulus=None):
    """Canonical basis (row Hermite form) of the lattice generated by the rows:
    positive pivots, entries above each pivot reduced into [0, pivot), zero
    rows dropped. Each column works only on the rows nonzero there, over the
    pivot row's support, and sets aside the rows that become zero.

    `modulus`, when given, must be an m with m*Z^w inside the lattice (w the
    row length), proven by the caller. Elimination stays exact until a new
    pivot row holds an entry above m^2. From then on the entries of every row
    past the current column are kept as centred residues mod m, and each
    later column c is folded into one pivot row, starting from m*e_c, by
    unimodular 2x2 steps (`_fold_column`; Domich-Kannan-Trotter 1987; Cohen,
    GTM 138, Alg. 2.4.8). Both are exact row operations on the same lattice,
    as m*e_j lies in it, so the canonical basis is the same. A wrong modulus
    gives the basis of the lattice plus m*Z^w, without error."""
    rows = [list(v) for v in vectors if any(v)]
    width = len(rows[0]) if rows else 0
    basis = []
    bound, m = modulus * modulus if modulus else None, None
    for c in range(width):
        nz = [row for row in rows if row[c]]
        if m:
            rows = [row for row in rows if not row[c]]
            nz = [_fold_column(nz, c, m, width, rows)]
        elif not nz:
            continue
        zero = set()
        while len(nz) > 1:
            # least entry, then fewest nonzero entries, which keeps the rows sparse
            pivot = min(nz, key=lambda row: (abs(row[c]), len(row) - row.count(0)))
            x = pivot[c]
            support = [(j, pivot[j]) for j in range(c, width) if pivot[j]]
            left = [pivot]
            for row in nz:
                if row is not pivot:
                    quot = row[c] // x
                    for j, y in support:
                        row[j] -= quot * y
                    if row[c]:
                        left.append(row)
                    elif not any(row):
                        zero.add(id(row))
            nz = left
        (pivot,) = nz
        rows = [row for row in rows if row is not pivot and id(row) not in zero]
        if pivot[c] < 0:
            pivot[:] = [-y for y in pivot]
        support = [(j, pivot[j]) for j in range(c, width) if pivot[j]]
        for row in basis:
            quot = row[c] // pivot[c]
            if quot:
                for j, y in support:
                    row[j] -= quot * y
                if m:
                    _centre(row, c + 1, m)
        basis.append(pivot)
        if bound and not m and max(max(pivot), -min(pivot)) > bound:
            m = modulus
            for row in (*basis, *rows):
                _centre(row, c + 1, m)
            rows = [row for row in rows if any(row)]
    return basis


def _fold_column(nz, c, m, width, rest):
    """The pivot row of column c in the bounded mode of `hermite_row_basis`:
    m*e_c, then a unimodular 2x2 step of it with each row of `nz` (nonzero in
    column c), which leaves a gcd at (pivot, c) and 0 in the row; a step
    whose entry the pivot divides only changes the row. Entries past column
    c are centred mod m; the rows left nonzero are appended to `rest`."""
    pivot = [0] * width
    pivot[c] = m
    cols = range(c, width)
    for row in nz:
        step = _unimodular(pivot[c], row[c])
        _row_step(pivot, row, step, cols)
        if step[1]:
            _centre(pivot, c + 1, m)
        _centre(row, c + 1, m)
        if any(row):
            rest.append(row)
    return pivot


def _centre(row, start, m):
    """Replace row[j], for j >= start, by its residue mod m in [-m/2, m/2)."""
    half = m // 2
    row[start:] = [(y + half) % m - half for y in row[start:]]


def congruence_kernel(rows, moduli):
    """Hermite basis of {x in Z^t : rows . x == 0 (mod moduli), componentwise}.

    `rows` is an m-by-t integer matrix acting on column vectors; moduli has
    one positive entry per row. The kernel is the part of the lattice
    {(rows . x + moduli * y, x)} whose first m coordinates vanish, so it is
    read from the last t rows of that lattice's Hermite basis.
    """
    m = len(rows)
    if m != len(moduli):
        raise ValueError("one modulus per row required")
    t = len(rows[0]) if rows else 0
    gens = [[r[j] for r in rows] + [int(i == j) for i in range(t)] for j in range(t)]
    gens += [[moduli[i] if i == k else 0 for k in range(m + t)] for i in range(m)]
    basis = hermite_row_basis(gens)
    assert len(basis) == m + t and not any(x for row in basis[m:] for x in row[:m])
    return [row[m:] for row in basis[m:]]
