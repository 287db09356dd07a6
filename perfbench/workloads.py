"""Seeded inputs of the three benchmark workloads.

Every operation is one argument vector for ``permfix.cli.main``. The
seed changes the inputs only within a family of equal cost (a few units
of n, the step counts, the drawn classes, the order of the classes and
the simulation seeds), so runs with different seeds do the same amount
of work and their times can be compared.

This module imports nothing from permfix: the timed round builds its
inputs with it after the permfix import, and the checking process
builds the same inputs without permfix.
"""
from __future__ import annotations

import random

from reference import partitions

WORKLOADS = ("exact-large-n", "exact-small-n", "monte-carlo")

# Every operation runs single-threaded, whatever the machine.
_COMMON = ("--threads", "1")


def operation(kind: str, argv: list, **params) -> dict:
    """One operation: its kind (which check applies), its argv and its parameters."""
    return {
        "kind": kind,
        "argv": [str(a) for a in argv] + list(_COMMON),
        "params": params,
    }


def _parts_text(cycles: dict[int, int]) -> str:
    return ",".join(f"{length}^{count}" for length, count in sorted(cycles.items(), reverse=True) if count)


def _sparse_class(n: int, n5: int) -> dict[int, int]:
    """A cycle type of n with 300 cycles: one fixed point, one 2-cycle, the rest 3-, 4- and 5-cycles.

    At n = 1000 the commutator moments then sit near the Poisson(1)
    moments. Only the split between 3-, 4- and 5-cycles depends on the
    seed: the character memo, and with it the peak RSS, grows with the
    counts of cycles, of fixed points and of 2-cycles.
    """
    n1, n2 = 1, 1
    n4 = n - 900 + 2 * n1 + n2 - 2 * n5
    n3 = 300 - n1 - n2 - n4 - n5
    return {1: n1, 2: n2, 3: n3, 4: n4, 5: n5}


def _cycle_counts(parts) -> dict[int, int]:
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return counts


def _random_class(n: int, rng: random.Random) -> dict[int, int]:
    """The cycle type of a uniformly random permutation of n points."""
    perm = rng.sample(range(n), n)
    seen, lengths = set(), []
    for start in range(n):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j, length = perm[j], length + 1
        if length:
            lengths.append(length)
    return _cycle_counts(lengths)


def _exact_large_n(rng: random.Random) -> list[dict]:
    ops = []
    # The grid of scripts/walk_cutoff_scan.py, extended to n = 16000.
    for base in (2000, 4000, 8000, 16000):
        n = base + rng.randrange(8)
        for i in (2, 3):
            for c in (-0.5, 0.0, 1.0):
                ops.append(
                    operation("walk-cutoff", ["moments", "walk", "--n", n, "--i", i, "--c", c, "--r-max", 3],
                        n=n, i=i, c=c, r_max=3)
                )
    n = 3000 + rng.randrange(16)
    ops.append(
        operation("commutator-random", ["moments", "commutator-random", "--n", n, "--r-max", 6], n=n, r_max=6)
    )
    # Two different classes: a repeated class would find its characters memoized.
    for n5 in rng.sample(range(21), 2):
        cycles = _sparse_class(1000, n5)
        ops.append(
            operation("commutator-fixed",
                ["moments", "commutator-fixed", "--n", 1000, "--x", _parts_text(cycles), "--r-max", 4],
                n=1000, x=cycles, r_max=4)
        )
    return ops


def _exact_small_n(rng: random.Random) -> list[dict]:
    ops = [
        operation("commutator-random", ["moments", "commutator-random", "--n", 20, "--r-max", 20], n=20, r_max=20)
    ]
    classes = list(partitions(12))
    rng.shuffle(classes)
    for parts in classes:
        cycles = _cycle_counts(parts)
        ops.append(
            operation("commutator-fixed",
                ["moments", "commutator-fixed", "--n", 12, "--x", _parts_text(cycles), "--r-max", 12],
                n=12, x=cycles, r_max=12)
        )
    for n, i_values, k_max in ((6, (2, 3, 4), 12), (8, (2, 3, 5), 10)):
        for i in i_values:
            k = rng.randint(1, k_max)
            ops.append(operation("dist-walk", ["dist", "walk", "--n", n, "--i", i, "--k", k], n=n, i=i, k=k))
    for i, (k_lo, k_hi) in ((2, (8, 24)), (3, (4, 12))):
        k = rng.randint(k_lo, k_hi)
        ops.append(
            operation("walk-steps", ["moments", "walk", "--n", 16, "--i", i, "--k", k, "--r-max", 16],
                n=16, i=i, k=k, r_max=16)
        )
    ops.append(operation("verify", ["verify", "--suite", "all"]))
    return ops


def _monte_carlo(rng: random.Random) -> list[dict]:
    def sim(model, n, samples, **extra):
        seed = rng.getrandbits(32)
        argv = ["simulate", "--model", model, "--n", n, "--samples", samples, "--seed", seed, "--r-max", 1]
        params = {"model": model, "n": n, "samples": samples, "seed": seed}
        if "x" in extra:
            argv += ["--x", _parts_text(extra["x"])]
        if "i" in extra:
            argv += ["--i", extra["i"], "--k", extra["k"]]
        params.update(extra)
        return operation("simulate", argv, **params)

    return [
        # The README walk, at fewer samples.
        sim("walk", 50, 20000, i=3, k=100),
        # n!/((n-i)! n^i) = 0.22: most rows of the first draw are rejected.
        sim("walk", 12, 20000, i=6, k=3),
        sim("commutator", 32, 100000),
        sim("commutator", 32, 100000, x=_random_class(32, rng)),
        sim("uniform", 64, 200000),
        # Small runs checked against brute-force laws.
        sim("commutator", 6, 100000),
        sim("commutator", 6, 100000, x=_random_class(6, rng)),
        sim("walk", 6, 100000, i=3, k=4),
    ]


_WORKLOAD_OPS = {
    "exact-large-n": _exact_large_n,
    "exact-small-n": _exact_small_n,
    "monte-carlo": _monte_carlo,
}


def build(workload: str, seed: int) -> list[dict]:
    """The operations of one round, in their fixed order."""
    if workload not in _WORKLOAD_OPS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _WORKLOAD_OPS[workload](random.Random(f"{workload}/{seed}"))
