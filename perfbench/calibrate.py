"""Machine-speed gauge behind `pass_cpu_s`: a fixed computation that does
not use `cuspidal`, run in its own process.

    python3 perfbench/calibrate.py

For every line read from stdin it runs the computation once and prints the
CPU seconds it took; it exits at the end of its input. The mix follows the
program's hot paths: Gauss-Jordan elimination over `Fraction` (as in
`linalg.solve_exact`), fraction-free integer elimination with growing
entries (as in the Smith and Hermite forms), an mpmath q-series (as in the
numeric oracle) and dict and tuple churn (as in the CLI layers).
"""

import random
import sys
import time
from fractions import Fraction

import mpmath

SIZE = 10


def gauss_jordan(rows):
    a = [row[:] for row in rows]
    n = len(a)
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c])
        a[c], a[pivot] = a[pivot], a[c]
        inverse = 1 / a[c][c]
        a[c] = [x * inverse for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


def bareiss_determinant(rows):
    """Fraction-free elimination; entries grow to a few hundred bits."""
    a = [row[:] for row in rows]
    n = len(a)
    previous = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next(r for r in range(k + 1, n) if a[r][k])
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return a[-1][-1]


def q_series():
    with mpmath.workdps(40):
        q = mpmath.exp(-2 * mpmath.pi / 7)
        total = mpmath.mpf(0)
        for k in range(1, 150):
            total += q ** (k * (3 * k - 1) // 2) * mpmath.sqrt(k)
    return total


def churn():
    counts = {}
    for i in range(8000):
        key = (i % 613, str(i % 17))
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def main():
    rng = random.Random(12)
    fractions = [[Fraction(rng.randint(-50, 50)) for _ in range(SIZE)] for _ in range(SIZE)]
    integers = [[rng.randint(-50, 50) for _ in range(3 * SIZE)] for _ in range(3 * SIZE)]
    for _ in sys.stdin:
        start = time.process_time()
        gauss_jordan(fractions)
        bareiss_determinant(integers)
        q_series()
        churn()
        print(time.process_time() - start, flush=True)


if __name__ == "__main__":
    main()
