"""The three workloads, each a fixed list of `cuspidal` CLI operations.

An operation is `(argv, inputs)`: the arguments passed to `cuspidal.cli.main`
(without `--json`) and the `inputs` object its report must echo. A pass runs
every operation of the workload once. The seed only fixes the order of the
operations within a pass; the set of operations is the same for every seed,
so the work per pass, and every per-layer count, does not depend on it.
"""

import random


def class_group(p, n):
    return ["class-group", "--p", str(p), "--n", str(n)], {"p": p, "n": n}


def class_group_level(N):
    return ["class-group", "--N", str(N)], {"N": N}


def torsion(p, n):
    return ["torsion", "--p", str(p), "--n", str(n)], {"p": p, "n": n}


def delta(p, n):
    return ["delta", "--p", str(p), "--n", str(n)], {"p": p, "n": n}


def leading_coeffs(p, n):
    return ["leading-coeffs", "--p", str(p), "--n", str(n)], {"p": p, "n": n}


def pq(p, q):
    return ["pq", "--p", str(p), "--q", str(q)], {"p": p, "q": q}


def verify(suite):
    return ["verify", "--suite", suite], {"suite": suite}


def deep_prime_power():
    """The paper's own case: the certified p^n path at large n."""
    return (
        [class_group(p, n) for p, n in ((5, 50), (7, 40), (11, 30), (13, 30), (17, 24))]
        + [torsion(p, n) for p, n in ((5, 30), (7, 24), (11, 20))]
        + [delta(p, n) for p, n in ((5, 30), (7, 24), (13, 20))]
    )


def composite_sweep():
    """The generic, uncertified path on every level up to 1000 plus highly
    composite levels; primes and the pq levels 481, 793, 949 are included."""
    return [class_group_level(N) for N in list(range(1, 1001)) + [5040, 9240]]


def oracle_certify():
    """The exact transformation law against the numeric oracle."""
    return (
        [leading_coeffs(p, n) for p, n in ((5, 10), (7, 8), (13, 6), (23, 4), (47, 3))]
        + [pq(p, q) for p, q in ((13, 37), (13, 61), (37, 61), (13, 73), (13, 97), (13, 1093))]
        + [verify(suite) for suite in ("leading-coeffs", "pq", "properties")]
    )


WORKLOADS = {
    "deep-prime-power": deep_prime_power,
    "composite-sweep": composite_sweep,
    "oracle-certify": oracle_certify,
}

DEFAULT_SEED = 1


def make_pass(workload, seed):
    """The seeded list of operations that makes up one pass."""
    ops = WORKLOADS[workload]()
    random.Random(f"{workload}:{seed}").shuffle(ops)
    return ops
